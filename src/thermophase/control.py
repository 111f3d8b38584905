"""Tracking cost, reduced gradient and Hessian, admissibility projection, projected Newton.

The control pair is a distributed heat source u, sampled at the step
endpoints t_1..t_nt and applied implicitly, plus the initial temperature v0.
The reduced gradient couples the discrete-adjoint seeds with the control
penalties:

    g_u[n] = seed_u[n] + nu1 u[n]            (L2(Q) representative)
    g_v    = nu2 v0 + riesz_v(seed_v0)       (V representative)

so that <g_u, h>_L2(Q) + <g_v, h0>_V is the exact directional derivative of
the discrete reduced cost.

The Gauss-Newton Hessian applies the same representatives to the second
derivative of the tracking terms with the state linearized: a tangent sweep
along the direction, a transpose sweep seeded by the tracking terms applied
to that tangent, plus the penalties nu1 d_u and nu2 d_v.  The optimizer is
projected Newton on the boxes with these products in truncated CG.

Projection onto the admissible set clamps u pointwise (the exact L2(Q)
projection).  For v0 the exact projection in the V metric would be an
obstacle problem; instead v0 is clamped pointwise and, if the V-norm ball is
violated, scaled toward the box-feasible anchor clamp(0) onto the ball's
sphere.  Optimality is certified through the stationarity residual and the
closed-form variational inequality (``check_vi``) rather than through
exactness of that projection.

Cost reductions use exact (order-independent) float summation so that grid
symmetries of the data leave the cost value bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, BallProjectionStall, LineSearchFailure, ShapeMismatch
from .grid import Field, GridSpec, inner, laplacian_neumann, riesz_v
from .sensitivity import (TRACKING_TERMS, Perturbation, adjoint_solve_discrete, tangent_solve,
                          tangent_transpose, tracking_seeds, trapezoid_weights,
                          weighted_targets)
from .state import Problem, SolverOptions, StateTrajectory, TimeGrid, _check_ranges, solve_state


_HIGH_BITS = 26  # a value's high part: the top 26 of its 53 significand bits
# values one np.bincount call may sum: in units of 2**(e-26), the high parts of exponent e
# are integers below 2**26 and the remainders multiples of 2**-27 below 1, so the sum of
# 2**26 of either is exact in float64
_BUCKET_LIMIT = 2 ** 26
_EXP_OFFSET = 1074  # frexp's exponents run from -1073 (subnormals) to 1024
_BUCKETS = _EXP_OFFSET + 1025


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of the entries of ``values``, the same bits, without a Python list.

    Each value m 2**e (``np.frexp``) splits into a high part, m's top 26 bits, and the
    exact remainder; ``np.bincount`` sums each part per exponent e, exactly, and
    ``math.fsum`` rounds the bucket sums once (Zhu and Hayes, SIAM J. Sci. Comput. 31(4),
    2009).  Non-finite values, values large enough that a sum could overflow, and more
    than ``_BUCKET_LIMIT`` values take ``math.fsum``'s own path, so its result, inf or
    nan, OverflowError and ValueError stay the same too."""
    a = np.asarray(values, dtype=float).ravel()
    bound = 2.0 ** (1022 - a.size.bit_length())  # no sum of a.size values below it overflows
    if not (0 < a.size <= _BUCKET_LIMIT and -bound < np.min(a) and np.max(a) < bound):
        return math.fsum(a.tolist())
    m, e = np.frexp(a)
    scaled = np.ldexp(m, _HIGH_BITS, out=m)
    high = np.trunc(scaled)
    low = np.subtract(scaled, high, out=scaled)
    index = np.add(e, _EXP_OFFSET, dtype=np.intp)
    unit = np.arange(_BUCKETS) - (_EXP_OFFSET + _HIGH_BITS)  # bucket i counts 2**unit[i]
    parts = np.concatenate([np.ldexp(np.bincount(index, part, _BUCKETS), unit)
                            for part in (high, low)])
    return math.fsum(parts[parts != 0.0].tolist())


@dataclass
class ControlPair:
    """Heat source u at nodes 1..nt (shape (nt, ny, nx)) and initial temperature v0."""

    u: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        # check the values u stores: one node when it is broadcast over the nodes (stride 0)
        stored = self.u[:1] if self.u.ndim and self.u.strides[0] == 0 else self.u
        if not (np.all(np.isfinite(stored)) and np.all(np.isfinite(self.v0))):
            raise BadParameter("control entries must be finite")

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
        for name in ("u_lo", "u_hi", "v_lo", "v_hi"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise BadParameter(f"C4: {name} must be finite everywhere")
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
    parts = [grid.cell_volume * exact_sum(a * a),
             exact_sum((a[:, 1:] - a[:, :-1]) ** 2),
             exact_sum((a[1:, :] - a[:-1, :]) ** 2)]
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
    targets = weighted_targets(cost, (nt + 1,) + grid.shape)
    terms = []
    for weight, state, name, terminal in TRACKING_TERMS:
        if name in targets:
            x, target = getattr(traj, state), targets[name]
            misfit = (x[nt] - target) ** 2 if terminal else w * (x - target) ** 2
            terms.append(0.5 * getattr(cost, weight) * vol * exact_sum(misfit))
    if cost.nu1 > 0.0:
        terms.append(0.5 * cost.nu1 * tau * vol * exact_sum(control.u**2))
    if cost.nu2 > 0.0:
        terms.append(0.5 * cost.nu2 * _v0_norm_sq_exact(grid, control.v0))
    return math.fsum(terms)


class ReducedProblem:
    """Reduced cost, gradient and Gauss-Newton Hessian with a one-deep trajectory cache.

    Counts its forward solves (cache misses), gradients and Hessian products.
    """

    def __init__(self, problem: Problem, cost: CostSpec, opts: SolverOptions = SolverOptions()):
        self.problem = problem
        self.cost_spec = cost
        self.opts = opts
        self._cache_key = None
        self._cache_traj = None
        self.forward_solves = 0
        self.gradients = 0
        self.hessian_products = 0

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
        sweep = adjoint_solve_discrete(traj, self.problem, self.cost_spec, self.opts)
        sweep.h_bar /= self.problem.time.tau  # in place: no second trajectory-sized array
        return self._representative(sweep.h_bar, sweep.h0_bar, control)

    def hessian_vector(self, control: ControlPair, d: ControlPair) -> GradientPair:
        """Gauss-Newton Hessian of the reduced cost at ``control`` applied to ``d``.

        A tangent sweep along d and a transpose sweep seeded by the tracking
        terms applied to that tangent, both on the cached trajectory, plus the
        penalties, mapped to the gradient's representatives by ``_representative``.
        It never solves the state: ``control`` must be the last control solved.
        """
        if self._key(control) != self._cache_key:
            raise BadParameter("hessian_vector needs the cached trajectory of its control")
        traj, tau = self._cache_traj, self.problem.time.tau
        lin = tangent_solve(traj, self.problem, Perturbation(d.u, d.v0), self.opts)
        seed = tracking_seeds(self.cost_spec, lin.xi, lin.eta, lin.eta_t, tau, targets=False)
        sweep = tangent_transpose(traj, self.problem, seed, self.opts)
        self.hessian_products += 1
        return self._representative(sweep.h_bar / tau, sweep.h0_bar, d)

    def _representative(self, seed_u: Field, seed_v0: Field, x: ControlPair) -> GradientPair:
        """(seed_u + nu1 x.u, nu2 x.v0 + riesz_v(seed_v0)): the L2(Q) and V representatives
        of a tracking derivative with L2 seeds (seed_u, seed_v0) plus the penalties' at x."""
        return GradientPair(g_u=seed_u + self.cost_spec.nu1 * x.u,
                            g_v=self.cost_spec.nu2 * x.v0 + riesz_v(self.problem.grid, seed_v0))


def project_admissible(control: ControlPair, aset: AdmissibleSet, grid: GridSpec) -> ControlPair:
    """Clamp u to its box; clamp v0 and, if needed, pull it inside the V-ball (``_into_ball``)."""
    u = np.clip(control.u, aset.u_lo, aset.u_hi)
    return ControlPair(u, _into_ball(np.clip(control.v0, aset.v_lo, aset.v_hi), aset, grid))


def _into_ball(v: Field, aset: AdmissibleSet, grid: GridSpec) -> Field:
    """A box-clamped v0, pulled inside the V-ball if it leaves it.

    The ball pass scales v toward the box-feasible anchor clamp(0) onto the
    sphere; the segment stays in the box by convexity, so one pass suffices.
    Raises BallProjectionStall if its result misses ball feasibility by more
    than 1e-10 relative.
    """
    M = aset.ball_radius
    if v0_norm(grid, v) <= M * (1.0 + 1e-10):
        return v
    anchor = aset.v0_anchor(grid)
    d = v - anchor
    dd = v0_inner(grid, d, d)
    if dd > 0.0:
        ad = v0_inner(grid, anchor, d)
        aa = v0_inner(grid, anchor, anchor) - M * M
        # ||anchor + t d||_V = M, positive root; aa <= 0 since the anchor is feasible
        t = (-ad + math.sqrt(max(ad * ad - dd * aa, 0.0))) / dd
        t = min(max(t, 0.0), 1.0)
        v = np.clip(anchor + t * d, aset.v_lo, aset.v_hi)
    if v0_norm(grid, v) <= M * (1.0 + 1e-10):
        return v
    raise BallProjectionStall(
        f"ball projection stalled at ||v0||_V = {v0_norm(grid, v):.6e} > M = {M:.6e}")


def stationarity_residual(control: ControlPair, grad: GradientPair, aset: AdmissibleSet,
                          grid: GridSpec, timegrid: TimeGrid) -> float:
    """Projected-gradient fixed-point defect of a unit step.

    ||u - P(u - g_u)||_L2(Q) + ||v0 - P(v0 - g_v)||_V.
    """
    proj = project_admissible(ControlPair(control.u - grad.g_u, control.v0 - grad.g_v),
                              aset, grid)
    return (u_norm(grid, timegrid.tau, control.u - proj.u)
            + v0_norm(grid, control.v0 - proj.v0))


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


def check_vi(control: ControlPair, grad: GradientPair, aset: AdmissibleSet, grid: GridSpec,
             timegrid: TimeGrid) -> tuple[float, float]:
    """Variational inequality in closed form: (vi_min, vi_scale).

    vi_min is a lower bound on the Frank-Wolfe gap (Jaggi, ICML 2013)
    min over y in K of <g_u, y_u - u>_L2(Q) + <g_v, y_v - v0>_V; at a
    constrained minimizer with an accurate gradient it is zero up to gradient
    error.  The pairings are taken with the L2 weights c_u = tau vol g_u and
    c_v = vol (g_v - lap g_v), so that <g_v, h>_V = <c_v, h>.

    - The u part is exact: each entry's minimizer is u_lo where c_u > 0, u_hi
      where c_u < 0, and the entry itself where c_u = 0.
    - The v0 part is the larger of two minima over supersets of K: over the v0
      box, by the same rule with c_v, and over the V-ball,
      -M ||g_v||_V - <g_v, v0>_V at y_v = -M g_v / ||g_v||_V.  It is exact
      when the box minimizer lies in the ball or the ball minimizer in the box.

    vi_scale is the control-metric distance from the control to the minimizer
    that gave vi_min (at least 1), the natural scale for vi_min.
    """
    tau, vol, M = timegrid.tau, grid.cell_volume, aset.ball_radius
    u, v0 = control.u, control.v0

    def box_min(x, c, lo, hi):
        y = np.where(c > 0.0, lo, np.where(c < 0.0, hi, x))
        return y, float(np.dot(c.ravel(), (y - x).ravel()))

    y_u, vi_u = box_min(u, (tau * vol) * grad.g_u, aset.u_lo, aset.u_hi)
    c_v = vol * (grad.g_v - laplacian_neumann(grid, grad.g_v))
    y_v, vi_v = box_min(v0, c_v, aset.v_lo, aset.v_hi)
    g_norm = math.sqrt(max(float(np.dot(c_v.ravel(), grad.g_v.ravel())), 0.0))
    vi_ball = -M * g_norm - float(np.dot(c_v.ravel(), v0.ravel()))
    if g_norm > 0.0 and vi_ball > vi_v:
        y_v, vi_v = (-M / g_norm) * grad.g_v, vi_ball
    return vi_u + vi_v, max(1.0, u_norm(grid, tau, y_u - u) + v0_norm(grid, y_v - v0))


@dataclass
class OptimizeOptions:
    stationarity_tol: float = 1e-6
    max_iters: int = 200
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        _check_ranges(self, positive=("stationarity_tol",),
                      nonnegative=("max_iters",))


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
class OptimizeReport:
    """Iterates (the last is ``final``'s record) and ``check_vi`` at ``final``."""

    iterates: list[IterateRecord]
    final: ControlPair
    vi_min: float
    vi_scale: float
    converged: bool
    reason: str
    forward_solves: int
    gradients: int
    hessian_products: int

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
    """First trial step of a gradient step after an accepted one: the short BB quotient.

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


def _newton_cg(rp: ReducedProblem, x: ControlPair, g: GradientPair, free_u: np.ndarray,
               free_v: np.ndarray, tol: float) -> ControlPair | None:
    """Truncated CG for the Gauss-Newton step H d = -g on the free entries.

    CG runs in the control metric on the directions that vanish on the active
    entries.  Residuals are kept as L2 representatives masked to the free
    entries; the u part is its own L2(Q) representative, and the v0 part is
    lifted by the masked V-Riesz map, which makes this plain CG in V when no
    v0 entry is active.

    CG stops once the residual is at most max(eta ||g_F||, tol/2), with the
    forcing term eta = min(0.5, sqrt(||g_F||)) (Eisenstat-Walker) and tol the
    outer stationarity tolerance, which no finer step needs (Kelley 1995,
    sec. 6.3); after 50 iterations; or at non-positive curvature, where it
    returns the step so far, or None on the first iteration (Steihaug).
    """
    max_inner = 50
    grid, tau = rp.problem.grid, rp.problem.time.tau

    def residual(h_u, h_v):
        return (np.where(free_u, h_u, 0.0),
                np.where(free_v, h_v - laplacian_neumann(grid, h_v), 0.0))

    def lift(r_v):
        return np.where(free_v, riesz_v(grid, r_v), 0.0)

    r_u, r_v = residual(-g.g_u, -g.g_v)
    z_v = lift(r_v)
    rz = u_inner(grid, tau, r_u, r_u) + inner(grid, r_v, z_v)
    d_u, d_v = np.zeros_like(x.u), np.zeros_like(x.v0)
    if not rz > 0.0:
        return ControlPair(d_u, d_v)
    g_free = math.sqrt(rz)
    stop = max(min(0.5, math.sqrt(g_free)) * g_free, 0.5 * tol)
    p_u, p_v = r_u, z_v
    for k in range(max_inner):
        hp = rp.hessian_vector(x, ControlPair(p_u, p_v))
        curv = u_inner(grid, tau, p_u, hp.g_u) + v0_inner(grid, p_v, hp.g_v)
        if not curv > 0.0:
            if k == 0:
                return None
            break
        alpha = rz / curv
        d_u += alpha * p_u
        d_v += alpha * p_v
        h_u, h_v = residual(hp.g_u, hp.g_v)
        r_u, r_v = r_u - alpha * h_u, r_v - alpha * h_v
        z_v = lift(r_v)
        rz_new = u_inner(grid, tau, r_u, r_u) + inner(grid, r_v, z_v)
        if math.sqrt(max(rz_new, 0.0)) <= stop:
            break
        p_u = r_u + (rz_new / rz) * p_u
        p_v = z_v + (rz_new / rz) * p_v
        rz = rz_new
    return ControlPair(d_u, d_v)


def _active(x: np.ndarray, g: np.ndarray, lo, hi, eps: float) -> np.ndarray:
    """Entries within eps of a bound that the gradient step pushes onto it."""
    return ((x <= np.asarray(lo) + eps) & (g > 0.0)) | ((x >= np.asarray(hi) - eps) & (g < 0.0))


def optimize(problem: Problem, cost: CostSpec, aset: AdmissibleSet, init: ControlPair,
             opts: OptimizeOptions = OptimizeOptions()) -> OptimizeReport:
    """Projected Gauss-Newton-CG with Armijo backtracking; every iterate feasible.

    Each iteration takes the eps-active set of the u and v0 boxes, with eps
    the current stationarity residual (Bertsekas' projected Newton).  The
    direction is the truncated-CG Gauss-Newton step on the free entries
    (_newton_cg) and -g on the active ones.  Armijo searches the projected
    path P(x + s d) from s = 1, accepting J(trial) <= J + 1e-4 <g, trial - x>
    and halving s up to 60 times.  When CG meets non-positive curvature on
    its first iteration, or the first trial of the Newton path (s = 1) does
    not predict descent (<g, trial - x> > 0, which the projection onto the
    V-ball can cause), the direction is -g and s starts at the
    Barzilai-Borwein quotient of the last accepted step (_bb_step; 1 before
    any).  That switch is not a halving: ``armijo_backtracks`` counts the
    halvings along the path taken.  Stops when the stationarity residual (at
    unit step scale) falls below the tolerance or after max_iters.  Records
    per-iterate certificates (stationarity, projection formula defect where
    nu1 > 0, ``check_vi``'s vi_min) and reports ``check_vi`` at the final
    iterate.  Draws no random numbers.
    """
    armijo_c, shrink, max_backtracks = 1e-4, 0.5, 60
    grid, tg = problem.grid, problem.time
    tau = tg.tau
    rp = ReducedProblem(problem, cost, opts.solver)
    x = project_admissible(init, aset, grid)
    j = rp.cost(x)
    g = rp.gradient(x)
    bb_step = 1.0

    records: list[IterateRecord] = []
    converged = False
    reason = "max_iters reached"
    last_step, last_bt = 0.0, 0
    for it in range(opts.max_iters + 1):
        stat = stationarity_residual(x, g, aset, grid, tg)
        vi_min, vi_scale = check_vi(x, g, aset, grid, tg)
        cfr = clamp_formula_residual(x, g, aset, grid, tg, cost.nu1)
        box_ok, ball_ok = _feasible_flags(x, aset, grid)
        records.append(IterateRecord(iter=it, j=j, stationarity=stat, step=last_step,
                                     armijo_backtracks=last_bt, vi_min=vi_min,
                                     clamp_formula_residual=cfr, feasible_box=box_ok,
                                     feasible_ball=ball_ok))
        if stat <= opts.stationarity_tol:
            converged = True
            reason = "stationarity tolerance reached"
            break
        if it == opts.max_iters:
            break

        active_u = _active(x.u, g.g_u, aset.u_lo, aset.u_hi, stat)
        active_v = _active(x.v0, g.g_v, aset.v_lo, aset.v_hi, stat)
        newton = _newton_cg(rp, x, g, ~active_u, ~active_v, opts.stationarity_tol)
        if newton is None:
            d, s = ControlPair(-g.g_u, -g.g_v), bb_step
        else:
            d, s = ControlPair(np.where(active_u, -g.g_u, newton.u),
                               np.where(active_v, -g.g_v, newton.v0)), 1.0
        backtracks = 0
        while backtracks <= max_backtracks:
            trial = project_admissible(ControlPair(x.u + s * d.u, x.v0 + s * d.v0), aset, grid)
            pred = (u_inner(grid, tau, g.g_u, trial.u - x.u)
                    + v0_inner(grid, g.g_v, trial.v0 - x.v0))
            move = u_norm(grid, tau, trial.u - x.u) + v0_norm(grid, trial.v0 - x.v0)
            if move == 0.0:
                converged = True
                reason = "projected step vanished"
                break
            if pred <= 0.0:
                j_trial = rp.cost(trial)
                if j_trial <= j + armijo_c * pred:
                    break
            elif newton is not None and backtracks == 0:
                # the projection of the Newton path onto the ball need not descend
                d, s, newton = ControlPair(-g.g_u, -g.g_v), bb_step, None
                continue
            s *= shrink
            backtracks += 1
        if converged:
            break
        if backtracks > max_backtracks:
            raise LineSearchFailure(
                f"no Armijo decrease after {max_backtracks} backtracks "
                f"(iteration {it}, stationarity {stat:.3e})")
        g_new = rp.gradient(trial)
        bb_step = _bb_step(grid, tau, x, trial, g, g_new, s)
        x, j, g = trial, j_trial, g_new
        last_step, last_bt = s, backtracks

    # every exit leaves the loop before x and g change: the last record and check_vi hold theirs
    return OptimizeReport(iterates=records, final=x, vi_min=vi_min, vi_scale=vi_scale,
                          converged=converged, reason=reason,
                          forward_solves=rp.forward_solves, gradients=rp.gradients,
                          hessian_products=rp.hessian_products)
