"""Tracking cost, reduced gradient, admissibility projection, projected gradient.

The control pair is a distributed heat source u, sampled at the step
endpoints t_1..t_nt and applied implicitly, plus the initial temperature v0.
The reduced gradient couples the discrete-adjoint seeds with the control
penalties:

    g_u[n] = seed_u[n] + nu1 u[n]            (L2(Q) representative)
    g_v    = nu2 v0 + riesz_v(seed_v0)       (V representative)

so that <g_u, h>_L2(Q) + <g_v, h0>_V is the exact directional derivative of
the discrete reduced cost.

Projection onto the admissible set clamps u pointwise (the exact L2(Q)
projection).  For v0 the exact projection in the V metric would be an
obstacle problem; instead v0 is clamped pointwise and, if the V-norm ball is
violated, scaled toward the box-feasible anchor clamp(0) until the ball is
met.  Optimality is certified through the stationarity residual and the
sampled variational inequality rather than through exactness of that
projection.

Cost reductions use exact (order-independent) float summation so that grid
symmetries of the data leave the cost value bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, BallProjectionStall, LineSearchFailure, ShapeMismatch
from .grid import Field, GridSpec, inner, riesz_v
from .sensitivity import TRACKING_TERMS, adjoint_solve_discrete, trapezoid_weights
from .state import Problem, SolverOptions, StateTrajectory, TimeGrid, _check_ranges, solve_state


def _fsum(values: np.ndarray) -> float:
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


@dataclass
class ControlPair:
    """Heat source u at nodes 1..nt (shape (nt, ny, nx)) and initial temperature v0."""

    u: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v0))):
            raise BadParameter("control entries must be finite")

    def copy(self) -> "ControlPair":
        return ControlPair(self.u.copy(), self.v0.copy())

    @staticmethod
    def zeros(grid: GridSpec, nt: int) -> "ControlPair":
        return ControlPair(np.zeros((nt, grid.ny, grid.nx)), grid.zeros())


@dataclass
class CostSpec:
    """Weights k1..k6, nu1, nu2 and the six tracking targets.

    Space-time targets have shape (nt+1, ny, nx); terminal targets (ny, nx).
    At least one weight must be positive.
    """

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    k4: float = 0.0
    k5: float = 0.0
    k6: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    phi_q: np.ndarray = None
    w_q: np.ndarray = None
    wprime_q: np.ndarray = None
    phi_omega: np.ndarray = None
    w_omega: np.ndarray = None
    wprime_omega: np.ndarray = None

    def __post_init__(self):
        weights = [self.k1, self.k2, self.k3, self.k4, self.k5, self.k6, self.nu1, self.nu2]
        if any(w < 0.0 or not math.isfinite(w) for w in weights):
            raise BadParameter("C2: cost weights must be nonnegative and finite")
        if not any(w > 0.0 for w in weights):
            raise BadParameter("C2: cost weights must not all be zero")

    @staticmethod
    def with_zero_targets(grid: GridSpec, nt: int, **weights) -> "CostSpec":
        st = np.zeros((nt + 1, grid.ny, grid.nx))
        sp = grid.zeros()
        return CostSpec(phi_q=st.copy(), w_q=st.copy(), wprime_q=st.copy(),
                        phi_omega=sp.copy(), w_omega=sp.copy(), wprime_omega=sp.copy(),
                        **weights)


@dataclass
class AdmissibleSet:
    """Box bounds for u and v0 plus a V-norm ball of radius M for v0.

    Bounds may be scalars or arrays broadcastable against the control shapes.
    """

    u_lo: float | np.ndarray = -1e6
    u_hi: float | np.ndarray = 1e6
    v_lo: float | np.ndarray = -1e6
    v_hi: float | np.ndarray = 1e6
    ball_radius: float = 1e6

    def __post_init__(self):
        if np.any(np.asarray(self.u_lo) > np.asarray(self.u_hi)):
            raise BadParameter("C4: u_lo must be <= u_hi everywhere")
        if np.any(np.asarray(self.v_lo) > np.asarray(self.v_hi)):
            raise BadParameter("C4: v_lo must be <= v_hi everywhere")
        if not self.ball_radius > 0.0:
            raise BadParameter("C4: ball radius M must be positive")

    def v0_anchor(self, grid: GridSpec) -> Field:
        """Box clamp of the zero field; must lie inside the ball (nonemptiness)."""
        anchor = np.clip(grid.zeros(), self.v_lo, self.v_hi)
        if v0_norm(grid, anchor) > self.ball_radius * (1.0 + 1e-12):
            raise BadParameter("C4: admissible set is empty (clamp of zero leaves the ball)")
        return anchor


@dataclass
class GradientPair:
    """u-gradient as L2(Q) representative, v0-gradient as V representative."""

    g_u: np.ndarray
    g_v: np.ndarray


def u_inner(grid: GridSpec, tau: float, a: np.ndarray, b: np.ndarray) -> float:
    """L2(Q) pairing of node-1..nt space-time fields (rectangle rule in time)."""
    return tau * grid.cell_volume * float(np.dot(a.ravel(), b.ravel()))


def u_norm(grid: GridSpec, tau: float, a: np.ndarray) -> float:
    return float(np.sqrt(max(u_inner(grid, tau, a, a), 0.0)))


def v0_inner(grid: GridSpec, a: Field, b: Field) -> float:
    """V pairing used for the v0 control component."""
    return inner(grid, a, b, "v")


def v0_norm(grid: GridSpec, a: Field) -> float:
    return float(np.sqrt(max(v0_inner(grid, a, a), 0.0)))


def _v0_norm_sq_exact(grid: GridSpec, a: Field) -> float:
    # order-independent version used by the cost, exact under grid symmetries
    parts = [grid.cell_volume * _fsum(a * a),
             _fsum((a[:, 1:] - a[:, :-1]) ** 2),
             _fsum((a[1:, :] - a[:-1, :]) ** 2)]
    return math.fsum(parts)


def cost_eval(traj: StateTrajectory, control: ControlPair, cost: CostSpec,
              grid: GridSpec, timegrid: TimeGrid) -> float:
    """Tracking cost of a trajectory plus the control penalties.

    Composite trapezoid in time for the distributed tracking terms, terminal
    terms at the final node, rectangle rule for the u-penalty, V norm for the
    v0-penalty.
    """
    nt, tau = timegrid.nt, timegrid.tau
    if traj.phi.shape[0] != nt + 1:
        raise ShapeMismatch(f"trajectory has {traj.phi.shape[0]} nodes, expected {nt + 1}")
    vol = grid.cell_volume
    w = trapezoid_weights(nt, tau)[:, None, None]
    terms = []
    for weight, state, name, terminal in TRACKING_TERMS:
        target = getattr(cost, name)
        shape = grid.shape if terminal else (nt + 1, grid.ny, grid.nx)
        if target.shape != shape:
            raise ShapeMismatch(f"{name} has shape {target.shape}, expected {shape}")
        k = getattr(cost, weight)
        if k > 0.0:
            x = getattr(traj, state)
            misfit = (x[nt] - target) ** 2 if terminal else w * (x - target) ** 2
            terms.append(0.5 * k * vol * _fsum(misfit))
    if cost.nu1 > 0.0:
        terms.append(0.5 * cost.nu1 * tau * vol * _fsum(control.u**2))
    if cost.nu2 > 0.0:
        terms.append(0.5 * cost.nu2 * _v0_norm_sq_exact(grid, control.v0))
    return math.fsum(terms)


class ReducedProblem:
    """Reduced cost and gradient with a one-deep trajectory cache.

    Counts its forward solves (cache misses) and its gradients.
    """

    def __init__(self, problem: Problem, cost: CostSpec, opts: SolverOptions = SolverOptions()):
        self.problem = problem
        self.cost_spec = cost
        self.opts = opts
        self._cache_key = None
        self._cache_traj = None
        self.forward_solves = 0
        self.gradients = 0

    def _key(self, control: ControlPair):
        return (control.u.tobytes(), control.v0.tobytes())

    def state(self, control: ControlPair) -> StateTrajectory:
        key = self._key(control)
        if key != self._cache_key:
            self._cache_traj = solve_state(self.problem, control, self.opts)
            self._cache_key = key
            self.forward_solves += 1
        return self._cache_traj

    def cost(self, control: ControlPair) -> float:
        traj = self.state(control)
        return cost_eval(traj, control, self.cost_spec, self.problem.grid, self.problem.time)

    def gradient(self, control: ControlPair) -> GradientPair:
        traj = self.state(control)
        self.gradients += 1
        seeds, _ = adjoint_solve_discrete(traj, self.problem, self.cost_spec, self.opts)
        g_u = seeds.u + self.cost_spec.nu1 * control.u
        g_v = self.cost_spec.nu2 * control.v0 + riesz_v(self.problem.grid, seeds.v0)
        return GradientPair(g_u=g_u, g_v=g_v)


def project_admissible(control: ControlPair, aset: AdmissibleSet, grid: GridSpec,
                       max_ball_iters: int = 50) -> ControlPair:
    """Clamp u to its box; clamp v0 and, if needed, pull it inside the V-ball.

    The ball pass scales the clamped v0 toward the box-feasible anchor
    clamp(0); the segment stays in the box by convexity, so one pass normally
    suffices.  Raises BallProjectionStall if the loop cannot achieve ball
    feasibility within 1e-10 relative.
    """
    u = np.clip(control.u, aset.u_lo, aset.u_hi)
    v = np.clip(control.v0, aset.v_lo, aset.v_hi)
    M = aset.ball_radius
    if v0_norm(grid, v) <= M * (1.0 + 1e-10):
        return ControlPair(u, v)
    anchor = aset.v0_anchor(grid)
    for _ in range(max_ball_iters):
        d = v - anchor
        dd = v0_inner(grid, d, d)
        if dd == 0.0:
            break
        ad = v0_inner(grid, anchor, d)
        aa = v0_inner(grid, anchor, anchor) - M * M
        # ||anchor + t d||_V = M, positive root; aa <= 0 since the anchor is feasible
        t = (-ad + math.sqrt(max(ad * ad - dd * aa, 0.0))) / dd
        t = min(max(t, 0.0), 1.0)
        v = np.clip(anchor + t * d, aset.v_lo, aset.v_hi)
        if v0_norm(grid, v) <= M * (1.0 + 1e-10):
            return ControlPair(u, v)
    if v0_norm(grid, v) <= M * (1.0 + 1e-10):
        return ControlPair(u, v)
    raise BallProjectionStall(
        f"ball projection stalled at ||v0||_V = {v0_norm(grid, v):.6e} > M = {M:.6e}")


def stationarity_residual(control: ControlPair, grad: GradientPair, aset: AdmissibleSet,
                          grid: GridSpec, timegrid: TimeGrid, s: float = 1.0) -> float:
    """Projected-gradient fixed-point defect, scaled by the trial step.

    ||u - P(u - s g_u)||_L2(Q)/s + ||v0 - P(v0 - s g_v)||_V/s.
    """
    if not s > 0.0:
        raise BadParameter(f"step scale must be positive, got {s}")
    trial = ControlPair(control.u - s * grad.g_u, control.v0 - s * grad.g_v)
    proj = project_admissible(trial, aset, grid)
    du = u_norm(grid, timegrid.tau, control.u - proj.u)
    dv = v0_norm(grid, control.v0 - proj.v0)
    return (du + dv) / s


def clamp_formula_residual(control: ControlPair, grad: GradientPair, aset: AdmissibleSet,
                   grid: GridSpec, timegrid: TimeGrid, nu1: float) -> float:
    """Defect of the pointwise projection formula u = clamp(-q/nu1) (needs nu1 > 0).

    q is recovered from the gradient as g_u - nu1 u.
    """
    if not nu1 > 0.0:
        return math.nan
    q = grad.g_u - nu1 * control.u
    target = np.clip(-q / nu1, aset.u_lo, aset.u_hi)
    return u_norm(grid, timegrid.tau, control.u - target)


def _vi_samples(aset, grid, nt, rng, n_samples, u_scale, v_scale):
    """Feasible sample controls: box-vertex patterns alternating with clamped Gaussians."""
    u_lo = np.broadcast_to(np.asarray(aset.u_lo, dtype=float), (nt, grid.ny, grid.nx))
    u_hi = np.broadcast_to(np.asarray(aset.u_hi, dtype=float), (nt, grid.ny, grid.nx))
    for i in range(n_samples):
        if i % 2 == 0:
            u = np.where(rng.random((nt, grid.ny, grid.nx)) < 0.5, u_lo, u_hi)
            v = np.where(rng.random(grid.shape) < 0.5,
                         np.broadcast_to(np.asarray(aset.v_lo, dtype=float), grid.shape),
                         np.broadcast_to(np.asarray(aset.v_hi, dtype=float), grid.shape))
        else:
            u = np.clip(rng.normal(0.0, u_scale, (nt, grid.ny, grid.nx)), aset.u_lo, aset.u_hi)
            v = np.clip(rng.normal(0.0, v_scale, grid.shape), aset.v_lo, aset.v_hi)
        yield project_admissible(ControlPair(u, v), aset, grid)


def check_vi(control: ControlPair, grad: GradientPair, aset: AdmissibleSet, grid: GridSpec,
             timegrid: TimeGrid, n_samples: int = 100, seed: int = 0) -> tuple[float, float]:
    """Sampled variational inequality: (vi_min, vi_scale) from one pass over feasible samples.

    vi_min is the minimum of <g_u, u - u_bar>_L2(Q) + <g_v, v0 - v0_bar>_V;
    at a constrained minimizer with an accurate gradient it is nonnegative up
    to gradient error times the sample distance.  vi_scale is the largest
    sample distance (at least 1), the natural scale for vi_min.
    """
    if n_samples < 1:
        raise BadParameter("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    tau = timegrid.tau
    u_scale = 1.0 + float(np.max(np.abs(control.u), initial=0.0))
    v_scale = 1.0 + float(np.max(np.abs(control.v0), initial=0.0))
    best, dist = math.inf, 1.0
    for sample in _vi_samples(aset, grid, timegrid.nt, rng, n_samples, u_scale, v_scale):
        du, dv = sample.u - control.u, sample.v0 - control.v0
        best = min(best, u_inner(grid, tau, grad.g_u, du) + v0_inner(grid, grad.g_v, dv))
        dist = max(dist, u_norm(grid, tau, du) + v0_norm(grid, dv))
    return best, dist


@dataclass
class OptimizeOptions:
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    armijo_max_backtracks: int = 60
    stationarity_tol: float = 1e-6
    stationarity_step: float = 1.0
    max_iters: int = 200
    vi_samples: int = 16
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        _check_ranges(self, positive=("armijo_c", "armijo_shrink", "stationarity_tol",
                                      "stationarity_step"),
                      nonnegative=("armijo_max_backtracks", "max_iters", "vi_samples", "seed"))


@dataclass
class IterateRecord:
    iter: int
    j: float
    stationarity: float
    step: float
    armijo_backtracks: int
    vi_min: float
    clamp_formula_residual: float
    feasible_box: bool = True
    feasible_ball: bool = True


@dataclass
class Certificates:
    stationarity: float
    clamp_formula_residual: float
    clamp_formula_scale: float
    vi_min: float
    vi_scale: float


@dataclass
class OptimizeReport:
    iterates: list[IterateRecord]
    final: ControlPair
    certificates: Certificates
    converged: bool
    reason: str
    forward_solves: int
    gradients: int

    @property
    def j_history(self) -> list[float]:
        return [r.j for r in self.iterates]


def _feasible_flags(control, aset, grid):
    box = bool(np.all(control.u >= np.asarray(aset.u_lo) - 1e-14)
               and np.all(control.u <= np.asarray(aset.u_hi) + 1e-14)
               and np.all(control.v0 >= np.asarray(aset.v_lo) - 1e-14)
               and np.all(control.v0 <= np.asarray(aset.v_hi) + 1e-14))
    ball = v0_norm(grid, control.v0) <= aset.ball_radius * (1.0 + 1e-10)
    return box, ball


def _bb_step(grid: GridSpec, tau: float, x: ControlPair, x_new: ControlPair,
             g: GradientPair, g_new: GradientPair, accepted: float) -> float:
    """First trial step after an accepted one: the short Barzilai-Borwein quotient.

    With s = x_new - x and y = g_new - g, returns <s,y>/<y,y> in the control
    metric (L2(Q) for u, V for v0), or twice the accepted step when <s,y> <= 0
    or the quotient is not finite.
    """
    su, sv = x_new.u - x.u, x_new.v0 - x.v0
    yu, yv = g_new.g_u - g.g_u, g_new.g_v - g.g_v
    sy = u_inner(grid, tau, su, yu) + v0_inner(grid, sv, yv)
    yy = u_inner(grid, tau, yu, yu) + v0_inner(grid, yv, yv)
    if sy > 0.0 and yy > 0.0 and math.isfinite(sy / yy):
        return sy / yy
    return 2.0 * accepted


def optimize(problem: Problem, cost: CostSpec, aset: AdmissibleSet, init: ControlPair,
             opts: OptimizeOptions = OptimizeOptions()) -> OptimizeReport:
    """Projected gradient with Armijo backtracking; every iterate feasible.

    The first trial step is 1/||g0||; after each accepted step it is the
    Barzilai-Borwein quotient of that step (_bb_step).  Stops when the
    stationarity residual falls below the tolerance or after max_iters.
    Emits per-iterate certificates (stationarity, projection formula defect
    where nu1 > 0, sampled variational inequality).
    """
    grid, tg = problem.grid, problem.time
    tau = tg.tau
    rp = ReducedProblem(problem, cost, opts.solver)
    x = project_admissible(init, aset, grid)
    j = rp.cost(x)
    g = rp.gradient(x)
    gnorm = math.sqrt(u_norm(grid, tau, g.g_u) ** 2 + v0_norm(grid, g.g_v) ** 2)
    step = 1.0 / max(gnorm, 1e-12)

    records: list[IterateRecord] = []
    converged = False
    reason = "max_iters reached"
    last_step, last_bt = 0.0, 0
    for it in range(opts.max_iters + 1):
        stat = stationarity_residual(x, g, aset, grid, tg, s=opts.stationarity_step)
        vi = check_vi(x, g, aset, grid, tg, n_samples=opts.vi_samples,
                      seed=opts.seed + 7919 * it)[0] if opts.vi_samples > 0 else math.nan
        cfr = clamp_formula_residual(x, g, aset, grid, tg, cost.nu1)
        box_ok, ball_ok = _feasible_flags(x, aset, grid)
        records.append(IterateRecord(iter=it, j=j, stationarity=stat, step=last_step,
                                     armijo_backtracks=last_bt, vi_min=vi,
                                     clamp_formula_residual=cfr, feasible_box=box_ok,
                                     feasible_ball=ball_ok))
        if stat <= opts.stationarity_tol:
            converged = True
            reason = "stationarity tolerance reached"
            break
        if it == opts.max_iters:
            break

        s = step
        accepted = False
        backtracks = 0
        for backtracks in range(opts.armijo_max_backtracks + 1):
            trial = project_admissible(
                ControlPair(x.u - s * g.g_u, x.v0 - s * g.g_v), aset, grid)
            pred = (u_inner(grid, tau, g.g_u, trial.u - x.u)
                    + v0_inner(grid, g.g_v, trial.v0 - x.v0))
            move = u_norm(grid, tau, trial.u - x.u) + v0_norm(grid, trial.v0 - x.v0)
            if move == 0.0:
                converged = True
                reason = "projected step vanished"
                break
            if pred <= 0.0:
                j_trial = rp.cost(trial)
                if j_trial <= j + opts.armijo_c * pred:
                    accepted = True
                    break
            s *= opts.armijo_shrink
        if converged:
            break
        if not accepted:
            raise LineSearchFailure(
                f"no Armijo decrease after {opts.armijo_max_backtracks} backtracks "
                f"(iteration {it}, stationarity {stat:.3e})")
        g_new = rp.gradient(trial)
        step = _bb_step(grid, tau, x, trial, g, g_new, s)
        x, j, g = trial, j_trial, g_new
        last_step, last_bt = s, backtracks

    final_vi, final_vi_scale = check_vi(x, g, aset, grid, tg,
                                        n_samples=max(opts.vi_samples, 100), seed=opts.seed)
    # every exit leaves the loop before x and g change: the last record holds their values
    certs = Certificates(
        stationarity=records[-1].stationarity,
        clamp_formula_residual=records[-1].clamp_formula_residual,
        clamp_formula_scale=1.0 + u_norm(grid, tau, x.u),
        vi_min=final_vi,
        vi_scale=final_vi_scale,
    )
    return OptimizeReport(iterates=records, final=x, certificates=certs,
                          converged=converged, reason=reason,
                          forward_solves=rp.forward_solves, gradients=rp.gradients)
