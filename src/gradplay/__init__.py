"""Gradient play and higher-order learning in polymatrix games.

Simulation of payoff-driven learning dynamics, linearization around
completely mixed Nash equilibria, and the full battery of stability and
stabilizability tests (spectra, PBH, decentralized rank conditions, gain
sweeps, parity screening, robustness probing).
"""

from .analysis import (
    DecentralizedCheck,
    MarkovReport,
    ModeSupportReport,
    ParityResult,
    PbhResult,
    RobustnessResult,
    StabilityVerdict,
    SweepResult,
    check_mode_support,
    decentralized_stabilizable,
    default_gain_grid,
    gain_sweep,
    markov_report,
    pbh_detectable,
    pbh_stabilizable,
    robust_rank,
    robustness_probe,
    spectral_abscissa,
    strong_stabilizability_2x2,
)
from .cli import ScenarioResult, run_scenario, scenario_names
from .dynamics import (
    DynamicsSpec,
    GradientPlay,
    HigherOrderGradientPlay,
    PlayerState,
    Replicator,
    SmoothFictitiousPlay,
    check_vanishing_modification,
    derivative,
    make_anticipatory,
    modified_payoff,
)
from .games import (
    NeCertificate,
    PolymatrixGame,
    make_coordination,
    make_jordan,
    payoff_map,
    perturb_jordan_diagonal,
    perturb_random,
    uniform_profile,
    utility,
    verify_ne,
)
from .linearize import (
    ClosedLoopMatrix,
    DecentralizedPlant,
    GameLocalMatrix,
    assemble_closed_loop,
    assemble_flow_operators,
    assemble_local_game,
    assemble_loop_family,
    assemble_plant,
)
from .simplex import TangentBasis, from_local, project_to_simplex, tangent_basis, to_local
from .simulate import (
    ConvergenceCheck,
    NonFiniteStateError,
    SimConfig,
    Trajectory,
    detect_convergence,
    simulate_coupled,
    simulate_open_loop,
)

__version__ = "0.1.0"
