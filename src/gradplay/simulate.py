"""Coupled and open-loop integration of the learning dynamics.

Players are coupled only through their payoff streams: at every integrator
stage each player's payoff is recomputed from the current opponent strategies.

Every run is fixed-step RK4, through one stepping loop and one flow. A stage
of the flow is one matrix-vector product for the inputs of all players' rules
and one batched update per group of players with the same rule and number of
strategies. For the projection family (gradient play and higher-order
gradient play) the only nonlinearity is the simplex projection, so on a fixed
projection support the flow is affine and one RK4 step is an affine map. That
map is applied block by block, per support region, and one region check clears
a run of up to _MAX_RUN blocks at once; the steps where the support changes
are taken as plain RK4. Other rules have no regions: every step is plain RK4.
The open loop is the one-player game whose payoffs are a constant vector, and
runs through the same body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics as dyn
from .games import PolymatrixGame, payoff_map, validate_profile
from .linearize import assemble_flow_operators
from .simplex import NonFiniteInputError, project_to_simplex, tangent_basis

__all__ = [
    "CONVERGENCE_TOL",
    "SimConfig",
    "Trajectory",
    "NonFiniteStateError",
    "ConvergenceCheck",
    "simulate_coupled",
    "simulate_open_loop",
    "detect_convergence",
]


CONVERGENCE_TOL = 1e-3


class NonFiniteStateError(RuntimeError):
    """Raised when an RK4 stage input or the integrated state stops being finite.

    time is the end of the step at which that happens.
    """

    def __init__(self, time: float):
        super().__init__(f"nonfinite state encountered at t = {time:g}")
        self.time = time


@dataclass(frozen=True)
class SimConfig:
    step: float = 0.01
    horizon: float = 200.0
    record_stride: int = 10

    def __post_init__(self):
        # written as "not 0 < value < inf" so that NaN fails too
        if not (0 < self.step < np.inf and 0 < self.horizon < np.inf):
            raise ValueError("step and horizon must be positive and finite")
        stride = self.record_stride
        if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
            raise ValueError("record_stride must be an integer of at least 1")


@dataclass(frozen=True)
class StateLayout:
    """Slices of the flat state vector: strategies, then aux, then washout."""

    dims: tuple
    aux_dims: tuple
    washout_dims: tuple

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def nx(self) -> int:
        return sum(self.dims)

    @property
    def dim(self) -> int:
        return self.nx + sum(self.aux_dims) + sum(self.washout_dims)

    def x_slice(self, i: int) -> slice:
        a = sum(self.dims[:i])
        return slice(a, a + self.dims[i])

    def xi_slice(self, i: int) -> slice:
        a = self.nx + sum(self.aux_dims[:i])
        return slice(a, a + self.aux_dims[i])

    def v_slice(self, i: int) -> slice:
        a = self.nx + sum(self.aux_dims) + sum(self.washout_dims[:i])
        return slice(a, a + self.washout_dims[i])


@dataclass
class Trajectory:
    """Recorded states of one integration run.

    converged is the horizon-free settling flag: over the final tenth of the
    run the full state stays within CONVERGENCE_TOL of its final value.
    """

    times: np.ndarray
    states: np.ndarray
    layout: StateLayout
    converged: bool

    def strategy(self, i: int) -> np.ndarray:
        return self.states[:, self.layout.x_slice(i)]

    def aux(self, i: int) -> np.ndarray:
        return self.states[:, self.layout.xi_slice(i)]

    def washout(self, i: int) -> np.ndarray:
        return self.states[:, self.layout.v_slice(i)]

    def final_profile(self) -> list:
        return [self.states[-1, self.layout.x_slice(i)].copy() for i in range(self.layout.n)]


_PROJECTED = (dyn.GradientPlay, dyn.HigherOrderGradientPlay)


def _projection_family(specs) -> bool:
    return all(isinstance(s, _PROJECTED) for s in specs)


class _Flow:
    """y' = f(y) for any mix of rules, on the state held as y - shift.

    PRE y + c is, per player, the input its rule maps (assemble_flow_operators).
    Each washout runs relative to its steady value N_i^T c_i, so the aux rows
    are AUX y and no rounding of c reaches the aux states. Players are grouped
    by (rule, k) into (m, k) index arrays, and a stage is one product, one
    finite check and one batched update per group, equal row by row to
    dynamics.derivative up to rounding.
    """

    def __init__(self, game: PolymatrixGame, specs, layout: StateLayout, bases, c, cfg):
        self.PRE, self.AUX = assemble_flow_operators(game, specs)
        self.c = c
        self.nx = layout.nx
        self.shift = np.zeros(layout.dim)
        plan = {}
        for i, spec in enumerate(specs):
            xsl = layout.x_slice(i)
            if layout.washout_dims[i]:
                self.shift[layout.v_slice(i)] = bases[i].N.T @ c[xsl]
            rule = dyn.GradientPlay if isinstance(spec, _PROJECTED) else type(spec)
            if rule not in (dyn.GradientPlay, dyn.Replicator, dyn.SmoothFictitiousPlay):
                raise TypeError(f"unknown dynamics spec {rule.__name__}")
            rows, temps = plan.setdefault((rule, game.dims[i]), ([], []))
            rows.append(np.arange(xsl.start, xsl.stop))
            temps.append(getattr(spec, "temperature", 0.0))
        self.groups = [
            (rule, np.array(r), np.array(t)[:, None]) for (rule, _), (r, t) in plan.items()
        ]
        self.regions = {} if _projection_family(specs) else None
        self.bounds = [(layout.x_slice(i).start, layout.x_slice(i).stop) for i in range(layout.n)]
        self.step = cfg.step
        self.length = min(cfg.record_stride, _MAX_BLOCK)
        # |f(y)|_inf <= a (|y|_inf + 1) for the flow f and for its affine form on
        # any support (|R|_inf <= 2), so growth bounds every RK4 stage quantity.
        # On huge payoffs it overflows to inf, which turns every jump off.
        pre = np.abs(self.PRE).sum(axis=1).max() + np.abs(c).max()
        a = 2.0 * pre + np.abs(self.AUX).sum(axis=1).max(initial=0.0) + 2.0
        self.growth = 16.0 * a * (1.0 + cfg.step * a) ** 4

    def __call__(self, y: np.ndarray) -> np.ndarray:
        z = self.PRE @ y + self.c
        if not np.isfinite(z).all():
            raise NonFiniteInputError("payoff entries must be finite")
        x = y[: self.nx]
        dx = np.empty(self.nx)
        for rule, rows, temps in self.groups:
            xr, zr = x[rows], z[rows]
            if rule is dyn.Replicator:
                mean = (xr * zr).sum(axis=1, keepdims=True) / xr.sum(axis=1, keepdims=True)
                dx[rows] = xr * (zr - mean)
            elif rule is dyn.SmoothFictitiousPlay:
                e = np.exp((zr - zr.max(axis=1, keepdims=True)) / temps)
                dx[rows] = e / e.sum(axis=1, keepdims=True) - xr
            else:
                dx[rows] = project_to_simplex(zr) - xr
        return np.concatenate([dx, self.AUX @ y])

    def region_at(self, y: np.ndarray):
        """The cached _Region of y's support, or None (other rules, or y past the growth bound).

        On a fixed projection support the dynamics are y' = A_S y + b_S, and one
        RK4 step is exactly the affine map y -> M_S y + m_S. For each support seen,
        the powers of that map and the stacked KKT margins of every stage of the
        next B steps are cached (B is the record stride, at most _MAX_BLOCK).
        _integrate then jumps from block start to block start and checks a run of
        K blocks at once: one product of the margins with the K starts shows
        whether all 4BK stage projections keep the support. The blocks before the
        first one that does not are kept; in that one the state jumps to the step
        that leaves the support, takes it as plain RK4 with each stage's own
        projection, and detects the support again. K doubles from 1 after each
        run kept whole, up to _MAX_RUN, and falls back to 1 after a plain step.
        """
        if self.regions is None or not np.abs(y).max() <= _SAFE_MAGNITUDE / self.growth:
            return None
        z = self.PRE @ y + self.c
        mask = np.empty(self.nx, dtype=bool)
        for _, rows, _ in self.groups:
            mask[rows] = project_to_simplex(z[rows]) > 0
        key = mask.tobytes()
        if key not in self.regions:
            self.regions[key] = _build_region(self, mask)
        return self.regions[key]


def _rk4_step(deriv, step: int, h: float, y: np.ndarray) -> np.ndarray:
    """The state after the classical RK4 step from y that ends at time step * h.

    Raises NonFiniteStateError with that time when a stage rejects a
    non-finite input (NonFiniteInputError) or the new state is not finite.
    """
    try:
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
    except NonFiniteInputError as exc:
        raise NonFiniteStateError(step * h) from exc
    y = y + (k1 + 2.0 * (k2 + k3) + k4) * (h / 6.0)
    if not np.isfinite(y).all():
        raise NonFiniteStateError(step * h)
    return y


# Longest block of RK4 steps a region caches powers and margins for (the
# record stride caps it further).
_MAX_BLOCK = 64
# Most blocks one region check clears at once (see _Flow.region_at).
_MAX_RUN = 64
# A jump is taken only while a norm bound keeps every stage quantity of the
# reference RK4 steps below this, far from overflow.
_SAFE_MAGNITUDE = 1e300


def _integrate(flow: _Flow, y0: np.ndarray, cfg: SimConfig):
    """Fixed-step RK4 of y' = flow(y) from y0, with the state held as y - flow.shift.

    Blocks of steps end after flow.length steps or at a record step. In a
    region of flow.region_at the state jumps from block start to block start,
    one check clears a run of blocks, and the step that leaves the region is
    plain RK4. Outside a region or past its limit each step is plain, so a run
    that overflows fails at the reference's step. Rules outside the projection
    family have no regions.
    """
    h, stride = cfg.step, cfg.record_stride
    n_steps = max(1, int(round(cfg.horizon / h)))
    rec_steps = [*range(0, n_steps, stride), n_steps]
    if not np.isfinite(y0).all():
        raise NonFiniteStateError(0.0)
    states = np.empty((len(rec_steps), y0.size))
    states[0] = y0
    y = y0 - flow.shift
    step, rec, run, region = 0, 1, 1, None
    while step < n_steps:
        if region is None:
            region = flow.region_at(y)
        reached, plain = [], region is None
        if not plain:
            bounds = [step]  # block b runs from bounds[b] to bounds[b + 1]
            while len(bounds) <= run and bounds[-1] < n_steps:
                end = bounds[-1]
                bounds.append(min(end + flow.length, (end // stride + 1) * stride, n_steps))
            n = [e - b for b, e in zip(bounds, bounds[1:])]
            ys = [y]
            for m in n[:-1]:
                ys.append(region.powers[m] @ ys[-1] + region.offsets[m])
            kept, j = region.steps_kept(np.array(ys, order="F").T, n)  # C order for BLAS
            if kept == len(n):
                ys.append(region.powers[n[-1]] @ ys[-1] + region.offsets[n[-1]])
            reached = list(zip(bounds[1 : kept + 1], ys[1 : kept + 1]))
            y, step, plain = ys[kept], bounds[kept], kept < len(n)
            run = min(2 * run, _MAX_RUN)
            if j:
                y = region.powers[j] @ y + region.offsets[j]
                step += j
        if plain:
            step += 1
            y = _rk4_step(flow, step, h, y)
            reached.append((step, y))
            region, run = None, 1
        new = [x for b, x in reached if b % stride == 0 or b == n_steps]
        if new:
            states[rec : rec + len(new)] = np.array(new) + flow.shift
            rec += len(new)
    return np.array(rec_steps) * h, states


@dataclass(frozen=True)
class _Region:
    """RK4 on one projection-support pattern S, where the flow is y' = A_S y + b_S.

    After j steps the state is powers[j] @ y + offsets[j]. The rows of
    checks @ y + check_offsets are the KKT margins of the four stage
    projection arguments of steps 0, 1, ... (step-major): all are >= 0
    exactly when every stage projection has support S, so that those steps
    are the affine map. limit is the largest |y|_inf at which a jump of the
    cached length stays clear of overflow.
    """

    powers: np.ndarray
    offsets: np.ndarray
    checks: np.ndarray
    check_offsets: np.ndarray
    limit: float

    def steps_kept(self, Y: np.ndarray, n: list) -> tuple:
        """(b, j): blocks 0..b-1 and the first j steps of block b keep every stage
        projection on S, where block i runs n[i] steps from Y[:, i] (b = len(n)
        when all do). A block that starts past limit keeps no step.

        A margin a y + b below 0 by less than the bound (d + 1) eps (|a| |y| + |b|)
        on the rounding error of its own evaluation is a tie, where both supports
        give the same projected point, and counts as kept.
        """
        rows = self.checks.shape[0] // (len(self.powers) - 1)
        a, b = self.checks[: max(n) * rows], self.check_offsets[: max(n) * rows, None]
        margins = a @ Y
        margins += b
        if margins.min() >= 0 and np.abs(Y).max() <= self.limit:
            return len(n), 0
        tol = (Y.shape[0] + 1) * np.finfo(float).eps
        bad = ~(margins >= -tol * (np.abs(a) @ np.abs(Y) + np.abs(b)))
        # each block's leading run of kept steps; steps past its own end do not count
        kept = np.where(bad.any(axis=0), bad.argmax(axis=0) // rows, max(n))
        kept *= np.abs(Y).max(axis=0) <= self.limit
        short = np.flatnonzero(kept < n)
        return (int(short[0]), int(kept[short[0]])) if short.size else (len(n), 0)


def _build_region(flow: _Flow, mask) -> _Region:
    PRE, AUX, c, h = flow.PRE, flow.AUX, flow.c, flow.step
    nx, dim = PRE.shape
    W = np.zeros((nx, nx))
    r = np.zeros(nx)
    for lo, hi in flow.bounds:
        s = mask[lo:hi]
        W[lo:hi, lo:hi] = s / s.sum()
        r[lo:hi] = 1.0 / s.sum()
    # With theta = (1_S^T z - 1) / |S| per player, R z + r = z - theta. The
    # projection of z is (R z + r) on S and 0 off S exactly when that residual
    # is >= 0 on S and <= 0 off S; sign turns both into ">= 0" margins. With
    # z = PRE y + c, the residual is R PRE y + (R c + r).
    R = np.eye(nx) - W
    r = R @ c + r
    sign = np.where(mask, 1.0, -1.0)
    A = np.vstack([mask[:, None] * (R @ PRE) - np.eye(nx, dim), AUX])
    hb = h * np.concatenate([mask * r, np.zeros(dim - nx)])
    Z = h * A
    eye = np.eye(dim)
    # stage states Y_s = T_s y + t_s of one RK4 step on y' = A y + b
    T, t = [eye], [np.zeros(dim)]
    for c in (0.5, 0.5, 1.0):
        T.append(eye + c * Z @ T[-1])
        t.append(c * (Z @ t[-1] + hb))
    M = eye + Z @ (T[0] + 2 * T[1] + 2 * T[2] + T[3]) / 6.0
    m = Z @ (t[0] + 2 * t[1] + 2 * t[2] + t[3]) / 6.0 + hb
    RP = sign[:, None] * (R @ PRE)
    Q = np.vstack([RP @ Ts for Ts in T])
    q = np.concatenate([RP @ ts + sign * r for ts in t])
    powers = [eye]
    offsets = [np.zeros(dim)]
    for _ in range(flow.length):
        powers.append(M @ powers[-1])
        offsets.append(M @ offsets[-1] + m)
    powers = np.array(powers)
    offsets = np.array(offsets)
    checks = (Q @ powers[: flow.length]).reshape(-1, dim)
    check_offsets = (offsets[: flow.length] @ Q.T + q).ravel()
    # |state| <= P |y| + C over the block, and every stage quantity of a
    # step from a state of size Y is below growth * (Y + 1)
    P = np.abs(powers).sum(axis=2).max()
    C = np.abs(offsets).max()
    limit = float((_SAFE_MAGNITUDE / flow.growth - C - 1.0) / P)
    return _Region(powers, offsets, checks, check_offsets, limit)


def _simulate(game: PolymatrixGame, specs, xs, cfg: SimConfig, c, steady: bool) -> Trajectory:
    """The body of both simulate functions: play game, with c added to the payoffs.

    Aux states start at zero. With steady, each washout starts at its steady
    value N_i^T p_i for the initial payoffs p_i; otherwise at zero.
    """
    bases = [tangent_basis(k) for k in game.dims]
    washouts = tuple(dyn.washout_dim(s, k) for s, k in zip(specs, game.dims))
    layout = StateLayout(game.dims, tuple(dyn.aux_dim(s) for s in specs), washouts)
    # overflow surfaces only as NonFiniteStateError, raised by the checks of _integrate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y0 = np.zeros(layout.dim)
        for i, x in enumerate(xs):
            y0[layout.x_slice(i)] = x
            if steady and washouts[i]:
                try:
                    p = payoff_map(game, i, xs) + c[layout.x_slice(i)]
                except NonFiniteInputError as exc:
                    raise NonFiniteStateError(0.0) from exc
                y0[layout.v_slice(i)] = bases[i].N.T @ p
        flow = _Flow(game, specs, layout, bases, c, cfg)
        times, states = _integrate(flow, y0, cfg)
        window = times >= times[-1] - 0.1 * (times[-1] - times[0])
        converged = bool(np.max(np.abs(states[window] - states[-1])) <= CONVERGENCE_TOL)
    return Trajectory(times, states, layout, converged)


def simulate_coupled(
    game: PolymatrixGame,
    specs,
    init,
    cfg: SimConfig | None = None,
) -> Trajectory:
    """Integrate all players in feedback through the game with fixed-step RK4.

    If every spec is gradient play or higher-order gradient play, RK4 runs as
    its own step map on each projection-support region, with plain RK4 steps
    where the support changes; this agrees with per-stage RK4 to rounding.
    Other specs take every step as plain RK4, each stage one batched update
    per group of players with the same rule and number of strategies.

    Auxiliary states start at zero, and the washout states at their steady
    value for the initial payoffs, so there is no artificial startup transient.
    """
    if len(specs) != game.n:
        raise ValueError(f"need {game.n} specs, got {len(specs)}")
    xs = validate_profile(game, init)
    return _simulate(game, specs, xs, cfg or SimConfig(), np.zeros(sum(game.dims)), True)


def simulate_open_loop(spec, payoff, x0, cfg: SimConfig | None = None, v0="zero") -> Trajectory:
    """Integrate one player against the constant payoff vector payoff.

    This runs the one-player game with no pair matrices, payoff added to its
    payoffs, through the body of simulate_coupled. The aux states start at
    zero. The loop is broken, so the washout default is a cold start
    (v0="zero"); with v0="steady" the filter output starts identically zero
    and an unstable compensator sits unexcited on its equilibrium.
    """
    if not (isinstance(v0, str) and v0 in ("zero", "steady")):
        raise ValueError(f"v0 must be 'zero' or 'steady', got {v0!r}")
    x0 = np.asarray(x0, dtype=float)
    game = PolymatrixGame((x0.size,))
    xs = validate_profile(game, [x0])
    c = np.asarray(payoff, dtype=float)
    if c.shape != x0.shape or not np.isfinite(c).all():
        raise ValueError(f"payoff must be {x0.size} finite entries, got {c!r}")
    return _simulate(game, [spec], xs, cfg or SimConfig(), c, v0 == "steady")


class ConvergenceCheck(NamedTuple):
    converged: bool
    hitting_time: float | None


def detect_convergence(traj: Trajectory, target) -> ConvergenceCheck:
    """Whether the strategies stay within CONVERGENCE_TOL of the target over the final 10%.

    On success the hitting time is the first recorded time from which the
    distance never exceeds CONVERGENCE_TOL again.
    """
    targets = [np.asarray(ti, dtype=float) for ti in target]
    if [ti.shape for ti in targets] != [(k,) for k in traj.layout.dims]:
        raise ValueError(f"target {[ti.shape for ti in targets]} does not fit {traj.layout.dims}")
    dist = np.zeros(traj.times.size)
    for i, ti in enumerate(targets):
        dist = np.maximum(dist, np.max(np.abs(traj.strategy(i) - ti), axis=1))
    window = traj.times >= traj.times[-1] - 0.1 * (traj.times[-1] - traj.times[0])
    if not np.all(dist[window] <= CONVERGENCE_TOL):
        return ConvergenceCheck(False, None)
    below = dist <= CONVERGENCE_TOL
    idx = traj.times.size - 1
    while idx > 0 and below[idx - 1]:
        idx -= 1
    return ConvergenceCheck(True, float(traj.times[idx]))
