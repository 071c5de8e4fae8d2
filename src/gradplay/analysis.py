"""Stability and stabilizability tests.

Dense spectra, PBH rank tests, the decentralized fixed-mode rank condition,
eigenvector block-support checks, Markov-parameter reports, gain sweeps with
crossing refinement, the 2x2 parity obstruction to strong stabilization, and
directional robustness probing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .games import PolymatrixGame
from .linearize import DecentralizedPlant, GameLocalMatrix, assemble_loop_family, singular
from .simplex import NonFiniteInputError

__all__ = [
    "StabilityVerdict",
    "PbhResult",
    "ModeSupportReport",
    "DecentralizedCheck",
    "MarkovReport",
    "SweepResult",
    "ParityResult",
    "RobustnessResult",
    "spectral_abscissa",
    "robust_rank",
    "pbh_stabilizable",
    "pbh_detectable",
    "check_mode_support",
    "decentralized_stabilizable",
    "markov_report",
    "gain_sweep",
    "strong_stabilizability_2x2",
    "robustness_probe",
    "default_gain_grid",
]

STABILITY_TOL = 1e-8  # stable iff every eigenvalue has real part below -STABILITY_TOL
REPEAT_TOL = 1e-8  # relative radius of a repeated eigenvalue (mode support)
MODE_BLOCK_TOL = 1e-8  # relative eigenvector block norm that counts as no support
MARKOV_ORDER = 8  # highest m of the reported C A^m B
MARKOV_ZERO_TOL = 1e-4  # relative radius of the zero-eigenvalue cluster
MARKOV_NONZERO_TOL = 1e-9  # smallest |C A^m B| entry that counts as nonzero
SWEEP_REFINE_WIDTH = 1e-4  # width of a gain_sweep crossing bracket
PROBE_GAP = 1e-3  # width of a robustness_probe bracket
PROBE_SCAN_POINTS = 16  # scales of robustness_probe's upward scan
_SWEEP_BLOCK = 256  # grid points whose spectra gain_sweep computes in one stacked call
_GRAM_SHIFT = 1e-8  # c of robust_rank's full-rank certificate: Cholesky of G - c tr(G) I
_GRAM_TRACE = (1e-200, 1e200)  # tr(G) range where the Gram neither underflows nor overflows
_GRAM_MAX_SIDE = 4000  # the largest m and n for which the certificate's proof holds
_last_spectrum = (None, None)  # (key, result) of the last _spectrum(A) that solved for ev
_last_shifts = (None, None)  # (key, _shifts(A, points)) of the last _rank_drops call


@dataclass(frozen=True)
class StabilityVerdict:
    """Spectrum summary and its verdict (_judge)."""

    spectral_abscissa: float
    stable: bool
    eigenvalues: np.ndarray


def spectral_abscissa(M) -> StabilityVerdict:
    """Full spectrum via dense QR iteration and the resulting stability verdict."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    ev, stable = _judge(M, lambda _: "matrix entries must be finite", sort=True)
    return StabilityVerdict(float(np.max(ev.real)), bool(stable), ev)


def _judge(loops, name: Callable[[int], str], sort: bool = False) -> tuple:
    """(ev, stable) of one loop or a stack: the module's one eigenvalue solve and verdict.

    A loop that is not finite raises NonFiniteInputError(name(i)), i its index in
    the stack (0 for one loop). sort orders each ev by descending real, then imag part.
    """
    if not np.isfinite(loops).all():  # one flat check; the failing index is sought only here
        finite = np.isfinite(loops).all(axis=(-2, -1))
        raise NonFiniteInputError(name(int(np.argmin(finite))))
    ev = np.linalg.eigvals(loops)
    if sort:
        ev = np.take_along_axis(ev, np.lexsort((-ev.imag, -ev.real), axis=-1), axis=-1)
    return ev, ev.real.max(axis=-1) < -STABILITY_TOL


def robust_rank(M: np.ndarray, tol: float | None = None) -> int | np.ndarray:
    """Numerical rank from singular values; default threshold max(m, n)*eps*s_max.

    A stack (..., m, n) gives an array of ranks, each by the same rule; a
    matrix gives an int. An entry that is not finite raises NonFiniteInputError.

    With the default threshold, a stack whose every member X has full rank
    p = min(m, n) is first tried without an SVD. G is X's p x p Gram, X X^H
    or X^H X, and tau = tr G = |X|_F^2. When every tau lies in [1e-200,
    1e200] and one Cholesky of the stack G - c tau I (c = _GRAM_SHIFT =
    1e-8) succeeds, every rank is p. The SVD rule gives the same answer.
    With u = 2^-53 and gamma_k = k u / (1 - k u), doubled in complex
    arithmetic:
    - the computed Gram is within gamma_max(m,n) tau of X X^H in norm; the
      tau range keeps its products clear of overflow, and underflow adds
      less than 1e-100 tau;
    - a Cholesky that runs to completion factors its input plus a
      perturbation of norm at most p gamma_(p+1) tau (Demmel 1989; Higham,
      Accuracy and Stability of Numerical Algorithms, section 10.1);
    - so sigma_min(X)^2 >= (c - gamma_max(m,n) - p gamma_(p+1) - u) tau,
      u for the shift's own rounding; with the complex doubling this is
      at least c tau / 2 for m, n <= _GRAM_MAX_SIDE = 4,000, the
      size limit of this proof. Then sigma_min(X) >= 7e-5 |X|_F >= 7e-5
      s_max: far above max(m, n) eps s_max (below 1e-12 s_max) plus the
      SVD's own error, a modest multiple of eps s_max. So the SVD rule
      counts all p singular values.
    A larger matrix, a tau out of range or a failed Cholesky, on any member,
    sends the whole stack to the SVD rule, as does an explicit tol.
    """
    if tol is not None and not 0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    M = np.atleast_2d(np.asarray(M, dtype=float if not np.iscomplexobj(M) else complex))
    if not np.isfinite(M).all():
        raise NonFiniteInputError("matrix entries must be finite")
    if M.size == 0:
        ranks = np.zeros(M.shape[:-2], dtype=int)
    elif tol is None and _certified_full_rank(M):
        ranks = np.full(M.shape[:-2], min(M.shape[-2:]))
    else:
        sv = np.linalg.svd(M, compute_uv=False)
        if tol is None:
            tol = max(M.shape[-2:]) * np.finfo(float).eps * sv[..., :1]
        ranks = np.sum(sv > tol, axis=-1)
    return int(ranks) if M.ndim == 2 else ranks


def _certified_full_rank(M: np.ndarray) -> bool:
    """True when the shifted Grams of robust_rank's docstring prove every member of M full rank."""
    m, n = M.shape[-2:]
    if max(m, n) > _GRAM_MAX_SIDE:
        return False
    p = min(m, n)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        H = M.mT.conj()
        G = M @ H if m <= n else H @ M
        diag = G.reshape(-1, p * p)[:, :: p + 1]  # a view: matmul's output is contiguous
        tau = diag.real.sum(axis=1)
    if not (_GRAM_TRACE[0] <= tau.min() and tau.max() <= _GRAM_TRACE[1]):
        return False
    diag -= _GRAM_SHIFT * tau[:, None]
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _spectrum(A: np.ndarray, ev=None) -> tuple:
    """(ev, unstable, scale, zero, rounded): A's eigenvalues (ev if given) for rank tests.

    Rank tests visit the unstable mask, Re >= -STABILITY_TOL; eigenvalues within
    REPEAT_TOL * scale repeat, scale = max(1, n max|A|); the zero mask holds
    those within MARKOV_ZERO_TOL * max(1, max|ev|) of 0. Rounding spreads a
    defective zero about eps^(1/m) at multiplicity m, yet the rank drops only
    at 0: so where A is singular but no eigenvalue is exactly 0, rounded is
    true and rank tests visit 0 too. Without ev, the last result is kept, with
    read-only arrays, so the rank tests of one plant solve one eigenproblem.
    """
    global _last_spectrum
    key = None
    if ev is None:
        key = (A.shape, A.dtype, A.tobytes())
        last_key, last = _last_spectrum  # one read: another thread may replace the slot
        if last_key == key:
            return last
        ev = _judge(A, lambda _: "matrix entries must be finite")[0]
    scale = max(1.0, A.shape[0] * float(np.max(np.abs(A))))
    dist = np.abs(ev)
    zero = dist <= MARKOV_ZERO_TOL * max(1.0, float(dist.max()))
    rounded = bool(dist.min() > 0) and singular(A)
    out = (ev, ev.real >= -STABILITY_TOL, scale, zero, rounded)
    if key is not None:
        for arr in (ev, out[1], zero):
            arr.flags.writeable = False
        _last_spectrum = (key, out)
    return out


def _rank_drops(A: np.ndarray, points, B: np.ndarray, C: np.ndarray) -> list:
    """The lam in points where [[A - lam I, B], [C, 0]] has rank below n.

    A, B and C are real, so the matrix at conj(lam) is the conjugate of the
    one at lam, with the same singular values: each pair is tested once, at
    Re lam + i|Im lam|. Real points are tested in real arithmetic, and each
    dtype in one stacked robust_rank call. The merged points and the stacks
    of A - lam I depend only on A and points, so the last ones are kept, with
    read-only arrays, keyed on the shape, dtype and bytes of both (a real and
    a complex point array can hold equal bytes): the rank tests of one plant
    at one set of points build them once, and each call only writes its B
    and C beside them, into a fresh bordered stack.
    """
    global _last_shifts
    n = A.shape[0]
    key = (A.shape, A.dtype, A.tobytes(), points.shape, points.dtype, points.tobytes())
    last_key, shifts = _last_shifts  # one read: another thread may replace the slot
    if last_key != key:
        shifts = _shifts(A, points)
        _last_shifts = (key, shifts)
    keys, inverse, blocks = shifts
    drops = np.zeros(keys.size, dtype=bool)
    for mask, shifted in blocks:
        stack = np.zeros((len(shifted), n + C.shape[0], n + B.shape[1]), dtype=shifted.dtype)
        stack[:, :n, :n], stack[:, :n, n:], stack[:, n:, :n] = shifted, B, C
        drops[mask] = robust_rank(stack) < n
    return list(points[drops[inverse]])


def _shifts(A: np.ndarray, points) -> tuple:
    """(keys, inverse, blocks) of _rank_drops, with read-only arrays.

    keys are the points merged with their conjugates (points = keys[inverse]
    up to conjugation); blocks pairs the mask of the real, then the complex
    keys with the stack of A - lam I over them, leaving out an empty one.
    """
    keys, inverse = np.unique(points.real + 1j * np.abs(points.imag), return_inverse=True)
    real = keys.imag == 0
    diag = np.arange(A.shape[0])
    blocks = []
    for mask, lams in ((real, keys.real[real]), (~real, keys[~real])):
        if lams.size:
            shifted = np.repeat(A[None].astype(lams.dtype), lams.size, axis=0)
            shifted[:, diag, diag] -= lams[:, None]
            blocks.append((mask, shifted))
    for arr in (keys, inverse, *itertools.chain(*blocks)):
        arr.flags.writeable = False
    return keys, inverse, tuple(blocks)


@dataclass(frozen=True)
class PbhResult:
    """Rank-test outcome; witnesses are the eigenvalues where rank dropped."""

    ok: bool
    witnesses: tuple

    def __bool__(self):
        return self.ok


def pbh_stabilizable(A, B) -> PbhResult:
    """PBH test: (A - lam I, B) keeps full row rank at every unstable eigenvalue.

    This is the fixed-mode test with every player in the input set. B is read
    by _channel: one row per row of A, and a 1-D B is one input column.
    """
    return _pbh(A, B, None)


def pbh_detectable(A, C) -> PbhResult:
    """Dual PBH test: (A - lam I; C) keeps full column rank at unstable eigenvalues.

    This is the fixed-mode test with every player in the output set. C is read
    by _channel: one column per column of A, and a 1-D C is one output row.
    """
    return _pbh(A, None, C)


def _channel(X, n: int, axis: int) -> np.ndarray:
    """Channel B (axis 0: n rows) or C (axis 1: n columns); 1-D is one column or row, None empty."""
    X = np.zeros((n, 0) if axis == 0 else (0, n)) if X is None else np.asarray(X, dtype=float)
    X = np.expand_dims(X, 1 - axis) if X.ndim == 1 else X
    if X.ndim != 2 or X.shape[axis] != n:
        side = ("B", "rows") if axis == 0 else ("C", "columns")
        raise ValueError(f"{side[0]} must have {n} {side[1]}, got shape {X.shape}")
    return X


def _pbh(A, B, C) -> PbhResult:
    A = np.asarray(A, dtype=float)
    B, C = _channel(B, A.shape[0], 0), _channel(C, A.shape[0], 1)
    ev, unstable, _, _, rounded = _spectrum(A)
    witnesses = _rank_drops(A, np.append(ev[unstable], 0) if rounded else ev[unstable], B, C)
    return PbhResult(not witnesses, tuple(witnesses))


@dataclass(frozen=True)
class ModeSupportEntry:
    eigenvalue: complex
    multiplicity: int
    left_block_norms: tuple
    right_block_norms: tuple
    ok: bool
    indeterminate: bool


@dataclass(frozen=True)
class ModeSupportReport:
    """Per-eigenvalue support of unstable modes on every player block.

    A single player's channel can reach every unstable mode only when both the
    left and right eigenvectors have nonzero components in each player's
    block.  Repeated (possibly defective) unstable eigenvalues and a rounded
    zero cluster are indeterminate, not resolved through generalized eigenvectors.
    """

    satisfied: bool
    indeterminate: bool
    entries: tuple


def check_mode_support(local: GameLocalMatrix) -> ModeSupportReport:
    """Check block support of left/right eigenvectors for Re >= 0 eigenvalues."""
    import scipy.linalg  # only this needs left eigenvectors; keeps scipy out of import gradplay

    lam, VL, VR = scipy.linalg.eig(local.matrix, left=True, right=True)
    lam, unstable, scale, zero, rounded = _spectrum(local.matrix, lam)
    mult = np.sum(np.abs(lam[unstable, None] - lam) <= REPEAT_TOL * scale, axis=1)
    if rounded:
        mult[zero[unstable]] = np.sum(zero)
    owner = np.repeat(np.eye(local.n), np.subtract(local.dims, 1), axis=1)  # [i, r]: r in block i
    norms = [  # per unstable eigenvalue, the block norms of its left and its right eigenvector
        (np.sqrt(owner @ (V.real**2 + V.imag**2)) / np.linalg.norm(V, axis=0)).T.tolist()
        for V in (VL[:, unstable], VR[:, unstable])
    ]
    entries = [
        ModeSupportEntry(lv, int(m), (), (), False, True)
        if m > 1
        else ModeSupportEntry(lv, 1, tuple(ln), tuple(rn), min(ln + rn) > MODE_BLOCK_TOL, False)
        for lv, m, ln, rn in zip(lam[unstable], mult, *norms)
    ]
    satisfied = all(e.ok for e in entries)  # an indeterminate entry is not ok
    return ModeSupportReport(satisfied, any(e.indeterminate for e in entries), tuple(entries))


@dataclass(frozen=True)
class FixedModeWitness:
    eigenvalue: complex
    input_players: tuple
    output_players: tuple


@dataclass(frozen=True)
class DecentralizedCheck:
    """Outcome of the decentralized fixed-mode rank condition."""

    ok: bool
    required_rank: int
    failures: tuple

    def __bool__(self):
        return self.ok


def decentralized_stabilizable(plant: DecentralizedPlant) -> DecentralizedCheck:
    """Rank condition for decentralized stabilization over all player partitions.

    For every split of players into an input set Q and output set R, the
    bordered matrix [[A - lam I, B|Q], [C|R, 0]] must keep rank n at every lam
    with Re >= -STABILITY_TOL; a drop is a fixed mode that no decentralized
    compensation can move (Wang & Davison 1973).  By the closed form in
    DecentralizedPlant's docstring, fixed modes lie only at 0 and exist
    exactly when A is singular.  So a nonsingular A (by its SVD) returns ok
    with no spectrum and no rank test; otherwise the partitions are tested at
    the unstable members of the zero cluster, plus 0 as in the PBH tests, so
    the failures with Q = all and R = all are the PBH witnesses.
    """
    A = plant.A
    n = A.shape[0]
    if not singular(A):
        return DecentralizedCheck(True, n, ())
    ev, unstable, _, zero, rounded = _spectrum(A)
    points = np.append(ev[unstable & zero], 0) if rounded else ev[unstable & zero]
    players = range(plant.n)
    failures = []
    for qsize in range(plant.n + 1):
        for Q in itertools.combinations(players, qsize):
            R = tuple(i for i in players if i not in Q)
            BQ = np.hstack([plant.B_blocks[q] for q in Q]) if Q else np.zeros((n, 0))
            CR = np.vstack([plant.C_blocks[r] for r in R]) if R else np.zeros((0, n))
            failures += [FixedModeWitness(lam, Q, R) for lam in _rank_drops(A, points, BQ, CR)]
    return DecentralizedCheck(not failures, n, tuple(failures))


@dataclass(frozen=True)
class MarkovReport:
    """Leading Markov parameters C A^m B and the zero-eigenvalue count of A.

    first_nonzero_order is the smallest m with a nonvanishing C A^m B (None if
    all tested orders vanish).  zero_eigenvalue_multiplicity counts eigenvalues
    of A within MARKOV_ZERO_TOL (relative) of the origin, a radius sized for
    defective zero clusters, which rounding spreads across a radius of roughly
    (eps * norm)^(1/multiplicity).
    """

    norms: tuple
    first_nonzero_order: int | None
    zero_eigenvalue_multiplicity: int

    @property
    def cb_norm(self) -> float:
        return self.norms[0]

    @property
    def cab_norm(self) -> float:
        return self.norms[1]


def markov_report(A, B, C) -> MarkovReport:
    """Compute C A^m B for m = 0..MARKOV_ORDER and count eigenvalues of A near zero."""
    A = np.asarray(A, dtype=float)
    B, C = _channel(B, A.shape[0], 0), _channel(C, A.shape[0], 1)
    zeros = int(np.sum(_spectrum(A)[3]))
    norms = []
    X = B
    for _ in range(MARKOV_ORDER + 1):
        norms.append(float(np.max(np.abs(C @ X))) if X.size else 0.0)
        X = A @ X
    first = next((m for m, v in enumerate(norms) if v > MARKOV_NONZERO_TOL), None)
    return MarkovReport(tuple(norms), first, zeros)


@dataclass(frozen=True)
class SweepResult:
    """Eigenvalue clouds and stability flags over a gain grid.

    crossings holds one (lo, hi) bracket per stability flip, refined by
    bisection on the stability flag to SWEEP_REFINE_WIDTH.
    """

    grid: np.ndarray
    eigenvalues: tuple
    stable: np.ndarray
    crossings: tuple


def default_gain_grid(lo: float = 1e-2, hi: float = 1e2, points: int = 200) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), points)


def _bisect_flip(build_matrix, lo: float, hi: float, lo_flag: bool, width: float) -> tuple:
    """Halve [lo, hi] around a stability flip of build_matrix, lo keeping lo_flag.

    Stops at width hi - lo <= width, or earlier where no float lies strictly
    between lo and hi.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        stable = _judge(build_matrix(mid), lambda _: f"the loop at gain {mid} is not finite")[1]
        lo, hi = (mid, hi) if stable == lo_flag else (lo, mid)
    return lo, hi


def gain_sweep(build_matrix: Callable[[float], np.ndarray], grid) -> SweepResult:
    """Sweep a scalar gain, recording spectra and bracketing stability flips.

    build_matrix is called once per grid point in grid order, then once per
    bisection step. Every grid matrix must share one shape, since the spectra
    are judged in stacked blocks of _SWEEP_BLOCK; a matrix that is not finite
    raises NonFiniteInputError naming the first such gain.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid values must be finite")
    if np.any(grid <= 0):
        raise ValueError("grid values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    eigenvalues = []
    stable = np.zeros(grid.size, dtype=bool)
    for start in range(0, grid.size, _SWEEP_BLOCK):
        gains = grid[start : start + _SWEEP_BLOCK]
        loops = np.stack([build_matrix(g) for g in gains])
        ev, stable[start : start + gains.size] = _judge(
            loops, lambda i: f"the loop at gain {float(gains[i])} is not finite", sort=True
        )
        # a row with no imaginary part is real, as eigvals returns it for one real matrix
        complex_input = np.iscomplexobj(loops)
        eigenvalues += [row if complex_input or row.imag.any() else row.real.copy() for row in ev]
    crossings = [
        _bisect_flip(build_matrix, *grid[i : i + 2].tolist(), stable[i], SWEEP_REFINE_WIDTH)
        for i in np.flatnonzero(stable[:-1] != stable[1:])
    ]
    return SweepResult(grid, tuple(eigenvalues), stable, tuple(crossings))


@dataclass(frozen=True)
class ParityResult:
    """Strong-stabilizability screen for the two-player 2x2 plant.

    The plant's transfer matrix has blocking zeros at the origin and at
    infinity with eigenvalues -1, -1, +-sqrt(m12*m21) in between; a positive
    product puts a single real eigenvalue between two real zeros, which the
    parity interlacing principle forbids for stabilization by a stable
    compensator.  Only the obstruction is decided; a negative product merely
    passes the parity condition.
    """

    verdict: str
    m12: float
    m21: float

    @property
    def strongly_stabilizable_obstructed(self) -> bool:
        return self.verdict == "not_strongly_stabilizable"


def strong_stabilizability_2x2(game: PolymatrixGame) -> ParityResult:
    """Parity screen on a two-player game with binary strategies."""
    if game.n != 2 or game.dims != (2, 2):
        raise ValueError("parity screen applies to two players with two strategies each")
    local = GameLocalMatrix.from_game(game)
    m12, m21 = float(local.matrix[0, 1]), float(local.matrix[1, 0])
    if singular(local.matrix, local.scale):
        raise ValueError("the reduced coupling is singular: the mixed equilibrium is not isolated")
    verdict = "not_strongly_stabilizable" if (m12 > 0) == (m21 > 0) else "parity_condition_passed"
    return ParityResult(verdict, m12, m21)


@dataclass(frozen=True)
class RobustnessResult:
    """Directional stability margin from a grid scan plus bisection."""

    certified_delta: float
    first_unstable_delta: float | None
    max_delta: float


def robustness_probe(
    game: PolymatrixGame,
    specs: Sequence,
    direction: Mapping,
    max_delta: float = 1.0,
) -> RobustnessResult:
    """Largest perturbation scale along a matrix direction found stable where checked.

    The pair matrices become M[i,j] + delta * direction[i,j], and the loop J0 + delta J1
    (assemble_loop_family: one loop assembled). The nominal loop and PROBE_SCAN_POINTS
    upward scales are judged in one stack; bisection from the first unstable one brackets
    the flip to PROBE_GAP. Stability is checked only at these 17 scales and the bracket
    ends, so an unstable window between two scan points can be missed.
    """
    if not (math.isfinite(max_delta) and max_delta > 0):
        raise ValueError(f"max_delta must be positive and finite, got {max_delta}")
    for key, d in direction.items():
        if not np.all(np.isfinite(np.asarray(d, dtype=float))):
            raise ValueError(f"direction {key} has non-finite entries")
    J0, J1 = assemble_loop_family(game, specs, direction)
    scan = np.linspace(0.0, max_delta, PROBE_SCAN_POINTS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        loops = J0 + scan[:, None, None] * J1
    stable = _judge(loops, lambda _: f"the loop at max_delta = {max_delta} overflows")[1]
    if not stable[0]:
        raise ValueError("nominal closed loop is unstable; nothing to certify")
    if stable.all():
        return RobustnessResult(max_delta, None, max_delta)
    first = int(np.argmin(stable))
    lo, hi = _bisect_flip(
        lambda delta: J0 + delta * J1, float(scan[first - 1]), float(scan[first]), True, PROBE_GAP
    )
    return RobustnessResult(lo, hi, max_delta)
