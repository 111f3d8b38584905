"""Semi-implicit time stepping for the coupled phase / thermal-displacement system.

One step from t_n to t_{n+1} performs, in order:

  1. phase step, implicit in the monotone nonlinearity (Newton + preconditioned CG):
       (phi' - phi_n)/tau - lap(phi') + gamma(phi')
         + (2/theta_c) pi(phi_n) - (1/theta_c^2) v_n pi(phi_n) = 0
  2. thermal step, one SPD solve for v' (the time derivative of w):
       (v' - v_n)/tau - alpha lap(v') - beta lap(w_n + tau v')
         + (pi_hat(phi') - pi_hat(phi_n))/tau = u_{n+1}
     followed by the exact update w' = w_n + tau v'.

The thermal operator I/tau + (alpha + tau beta)(-lap) has constant
coefficients, so it is diagonal in the cosine coefficients of the stencil's
eigenbasis, and so is the memory term beta lap(w_n).  ``march`` therefore
carries w_hat, the cosine coefficients of the mean-free part of w, beside w:
the thermal step takes beta lap(w_n) as -beta eig w_hat_n, transforms only
its pointwise source, multiplies by the inverse symbol and transforms back,
and applies no stencil.  The source's mean is kept apart exactly as
``grid.cosine_solve`` keeps it, so constants stay exact, and w_hat is updated
as w_hat_n + tau v_hat, beside the physical w' = w_n + tau v'.  pi_hat(phi_n)
is carried from the step before, so pi_hat is evaluated once per node.

The SPD Newton operator I/tau - lap + diag(gamma') is solved in the same
cosine coefficients, where I/tau - lap is diagonal and only diag(gamma')
needs the transforms; the preconditioner is that diagonal shifted
by the median m of gamma', and the rest of the operator is the remainder
C diag(gamma' - m) C^T.  Newton is inexact: its stop is relative to the size
of the step's right-hand side, and each inner solve goes only as far as the
Eisenstat-Walker forcing term asks.  The preconditioned step alone has relative
residual at most theta = max|gamma' - m| / (1/tau + m), and each fixed-point
correction X = P (R - C (gamma' - m) C^T X) of the splitting multiplies that
bound by theta.  So the solve takes the step alone when theta meets the
tolerance (0 iterations), else the j corrections with theta^(j+1) <= tol when
theta <= 2^(1-j), and CG otherwise (``_phi_solver``).  The sensitivity sweeps
reuse this solver at ``cg_tol`` and the thermal symbol; a tangent solve and its
transpose take the same j, and the fixed-point map is symmetric, so the transpose stays exact to
rounding at any ``cg_tol``.  Each Newton point costs one domain check, one
stencil and one gamma (``phi_step``).

The coupling enters the thermal equation as the exact difference quotient of
pi_hat, which turns the lumped internal-energy balance

    sum(v' - v_n) + sum(pi_hat(phi') - pi_hat(phi_n)) = tau * sum(u_{n+1})

into a per-step identity up to rounding: the zero-flux Laplacians drop out of
the cell sum exactly, and the thermal solve keeps the cell sum of its source.

The scheme is one-step, and ``march`` is the package's one forward time loop: it
yields the nodes one at a time, each with its ``StepRecord``, and ``solve_state``
stores the phi and v it yields.  The records live only in the march: a caller that
needs them (``simulate``'s criteria) reduces them as they stream by.

w is not stored: since w' = w_n + tau v' is exact, ``StateTrajectory.w`` rebuilds
it from w0 and v by a running sum with the march's own bits (``running_sum``).
Each read allocates one (nt+1, ny, nx) array, so code reads it once into a local,
never inside a per-node loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadParameter, DomainViolation, NewtonDivergence, StepError, ThermophaseError
from .grid import (CGResult, Field, GridSpec, _from_cosine, _inverse_symbol, _mean_free_cosine,
                   _to_cosine, cg_solve, cosine_solve, laplacian_neumann, norm)
from .nonlinearity import Coupling, Potential

if TYPE_CHECKING:
    from .control import ControlPair

CG_MAXIT = 50000  # iteration cap of every phase-Jacobian solve (``_phi_solver``)


@dataclass(frozen=True)
class PhysParams:
    """Heat-flux coefficients and critical temperature; all must be positive."""

    alpha: float = 1.0
    beta: float = 1.0
    theta_c: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "theta_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise BadParameter(f"A1: {name} must be > 0, got {value}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_final] into nt steps."""

    t_final: float
    nt: int

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise BadParameter(f"t_final must be > 0, got {self.t_final}")
        if self.nt < 1:
            raise BadParameter(f"nt must be >= 1, got {self.nt}")

    @property
    def tau(self) -> float:
        return self.t_final / self.nt


@dataclass
class InitialData:
    """Initial phase and thermal displacement; the initial temperature v0 is a control."""

    phi0: Field
    w0: Field


def _check_ranges(opts, positive=(), nonnegative=()) -> None:
    """Range checks of the solver and optimizer options."""
    for name in positive:
        if not getattr(opts, name) > 0:
            raise BadParameter(f"solver option {name} must be > 0, got {getattr(opts, name)!r}")
    for name in nonnegative:
        if not getattr(opts, name) >= 0:
            raise BadParameter(f"solver option {name} must be >= 0, got {getattr(opts, name)!r}")


@dataclass(frozen=True)
class SolverOptions:
    cg_tol: float = 1e-12
    newton_tol: float = 1e-11

    def __post_init__(self):
        _check_ranges(self, positive=("cg_tol", "newton_tol"))


@dataclass
class Problem:
    """Everything that defines one forward solve except the control."""

    grid: GridSpec
    time: TimeGrid
    params: PhysParams
    potential: Potential
    coupling: Coupling
    initial: InitialData

    def check_initial(self) -> None:
        """phi0 must lie strictly inside the potential's domain (strong-solution data);
        for a potential defined on all reals, that means finite.  w0 must be finite.

        Two callers check on purpose.  ``config.ProblemConfig`` checks at
        construction, so a bad ``phi0`` is a config error (exit 2) before the
        output directory is touched.  ``march`` checks before node 0 of every
        solve, for library callers and for initial data changed after
        construction (``cli.cmd_cont_dependence`` and the sensitivity tests
        perturb ``problem.initial.phi0``)."""
        if not self.potential.contains(self.initial.phi0):
            raise DomainViolation("phi0 must be strictly interior to the potential domain")
        if not np.all(np.isfinite(self.initial.w0)):
            raise BadParameter("w0 must be finite")


@dataclass
class PhiStepInfo:
    newton_iters: int = 0
    cg_iters: int = 0
    domain_guard_hits: int = 0
    operator: Field | None = field(default=None, repr=False)  # A(phi) = gamma(phi) - lap(phi)


@dataclass
class StepRecord:
    """What one step of the march measured; node 0 has zero counts and residuals."""

    step: int
    time: float
    newton_iters: int
    cg_iters: int  # phase (Newton) CG iterations or fixed-point corrections; thermal is direct
    energy_residual: float
    cumulative_balance_residual: float
    balance_scale: float = 1.0
    domain_guard_hits: int = 0


def running_sum(start: Field | float, rate: np.ndarray, tau: float) -> np.ndarray:
    """x[0] = start, x[n+1] = x[n] + tau * rate[n+1], as one new (nt+1, ny, nx) array.

    ``np.cumsum`` along the node axis adds node by node in this order, so the
    result has the bits of the forward update ``x_n + tau * rate_{n+1}``.
    """
    out = tau * rate
    out[0] = start
    return np.cumsum(out, axis=0, out=out)


@dataclass
class StateTrajectory:
    """Snapshots of phi and v at every node, with w0 and tau, from which w is rebuilt.

    ``phi`` and ``v`` have shape (nt+1, ny, nx); v holds the time derivative
    of w, i.e. the temperature.  ``w`` is not stored: the update
    w[n+1] = w[n] + tau * v[n+1] is bit-exact, so each read of ``w`` rebuilds
    all of it from w0 (``running_sum``), bit for bit the array the march
    yields.  Each read allocates one (nt+1, ny, nx) array, so read it once
    into a local, never inside a per-node loop.
    """

    phi: np.ndarray
    v: np.ndarray
    w0: Field
    tau: float

    @property
    def w(self) -> np.ndarray:
        return running_sum(self.w0, self.v, self.tau)

    @property
    def nt(self) -> int:
        return self.phi.shape[0] - 1


def _phi_solver(grid, tau, gp, rhs, tol):
    """CGResult of (I/tau - lap + diag(gp)) x = rhs, to relative ``tol``; gp holds gamma'.

    The caller sets ``tol``: the sensitivity sweeps pass ``cg_tol``, their
    exact solves, and Newton in ``phi_step`` its forcing term.  The system is
    solved in the cosine coefficients c = C x, C the orthonormal
    DCT-II, where the operator splits as A = P^-1 + N: the diagonal
    P = 1/(1/tau + m + eig), m the upper median of gamma' (a few stiff cells
    near separation do not set it, unlike the mean), is the preconditioner, and
    the remainder is N = C diag(gamma' - m) C^T, with gamma' - m formed once.
    Since I - A P = -N P, theta = max|gamma' - m| / (1/tau + m) bounds its
    2-norm, so the preconditioned step X = P R, R = C rhs, has relative
    residual at most theta.  When theta <= tol that step is returned with 0
    iterations; at ``cg_tol`` this happens only for gamma' constant to that
    level, where P is the exact inverse.  Otherwise ``cg_solve`` gets the
    splitting (theta, N): it takes the j fixed-point corrections
    X = P (R - N X) with theta^(j+1) <= tol when theta <= 2^(1-j), each two
    transforms and three pointwise passes, and runs CG from zero on stiffer
    input.  C is orthonormal, so residual norms and the stopping rule are those
    of the physical system; the solution is transformed back once, into ``x``.
    """
    rhs = grid.check_field(rhs, "rhs")
    k = gp.size // 2
    m = np.partition(gp.ravel(), k)[k]
    shift = 1.0 / tau + m
    pre_diag = grid.cosine_eigenbasis[2] + shift
    inv_pre = 1.0 / pre_diag
    coeffs = _to_cosine(grid, rhs)
    theta = max(float(gp.max()) - m, m - float(gp.min())) / shift
    if theta <= tol:
        return CGResult(x=_from_cosine(grid, coeffs * inv_pre), iterations=0)
    dev = gp - m

    def remainder(c):
        return _to_cosine(grid, dev * _from_cosine(grid, c))

    res = cg_solve(grid, lambda c: pre_diag * c + remainder(c), coeffs, tol=tol,
                   maxit=CG_MAXIT, precond=lambda r: r * inv_pre, splitting=(theta, remainder))
    res.x = _from_cosine(grid, res.x)
    return res


def _phase_operator(grid, potential, p):
    """A(p) = gamma(p) - lap(p) at a point ``p`` that passed ``potential.contains``."""
    return potential._gamma(p) - laplacian_neumann(grid, p)


def _thermal_operator(params, tau):
    """(shift, coef) of the thermal operator shift I + coef (-lap): 1/tau and alpha + tau beta."""
    return 1.0 / tau, params.alpha + tau * params.beta


def _thermal_solve(grid, params, tau, rhs):
    """Exact inverse of the thermal operator I/tau + (alpha + tau beta)(-lap) (``cosine_solve``)."""
    return cosine_solve(grid, rhs, *_thermal_operator(params, tau))


def phi_step(grid, potential, coupling, params, phi_n, v_n, tau, opts, a_n):
    """Implicit phase update; returns (phi_{n+1}, PhiStepInfo).

    Inexact Newton on  G(p) = p/tau + A(p) - b,  A(p) = gamma(p) - lap(p),  with
    b = phi_n/tau - (2/theta_c) pi(phi_n) + (1/theta_c^2) v_n pi(phi_n),
    stopped once ||G||_L2 <= tol_N = newton_tol (1 + ||b||_L2): the rounding
    floor of G grows with b ~ phi_n/tau, so an absolute stop fails as tau
    shrinks.  Iteration k solves the SPD Jacobian I/tau - lap + diag(gamma')
    to the relative tolerance max(cg_tol, eta_k, tol_N / (2 ||G_k||)), with
    the Eisenstat-Walker forcing eta_0 = 0.5, eta_k = min(0.9, 0.9
    (||G_k|| / ||G_{k-1}||)^2), and the floor that keeps the last solve from
    reaching below the stop (Kelley, 1995, sec. 6.3).  Damping by step
    halving keeps iterates interior to the potential's domain.  At most 30
    Newton iterations, each with at most 40 halvings.  A non-finite tol_N or
    first ||G||, which no stop test can compare, raises ``NewtonDivergence``.

    ``a_n`` is A(phi_n), carried from the step before: ``info.operator`` holds
    A of the returned iterate, which is the next step's ``a_n``, and ``march``
    forms A(phi0) once, after ``check_initial``.  phi_n is therefore a point
    already checked against the domain, and the first residual costs no
    stencil and no gamma.  Each Newton point is evaluated once: a trial is
    checked against the domain by one ``contains`` (which drives the damping),
    and gamma and gamma' at that point then skip their own check.
    """
    maxit, max_damping = 30, 40
    phi_n = grid.check_field(phi_n, "phi_n")
    v_n = grid.check_field(v_n, "v_n")
    thc = params.theta_c
    pi_n = coupling.pi(phi_n)
    b = phi_n / tau - (2.0 / thc) * pi_n + (v_n * pi_n) / (thc * thc)
    tol_n = opts.newton_tol * (1.0 + norm(grid, b))
    info = PhiStepInfo()
    phi, a = phi_n.copy(), a_n
    r = phi / tau + a - b
    rnorm = norm(grid, r)
    if not (math.isfinite(tol_n) and math.isfinite(rnorm)):
        raise NewtonDivergence(f"non-finite phase step: residual {rnorm:.3e}, stop {tol_n:.3e}",
                               residual=rnorm, iterations=0)
    eta = 0.5
    while rnorm > tol_n:
        if info.newton_iters >= maxit:
            raise NewtonDivergence(
                f"Newton stalled at residual {rnorm:.3e} after {info.newton_iters} iterations",
                residual=rnorm,
                iterations=info.newton_iters,
            )
        res = _phi_solver(grid, tau, potential._dgamma(phi), -r,
                          max(opts.cg_tol, eta, 0.5 * tol_n / rnorm))
        info.cg_iters += res.iterations
        delta = res.x

        # Damped update: the trial must stay interior and decrease the residual.
        s = 1.0
        accepted = False
        interior_failed = False
        for _ in range(max_damping + 1):
            trial = phi + s * delta
            if not potential.contains(trial):
                info.domain_guard_hits += 1
                interior_failed = True
                s *= 0.5
                continue
            a_trial = _phase_operator(grid, potential, trial)
            r_trial = trial / tau + a_trial - b
            rnorm_trial = norm(grid, r_trial)
            if math.isfinite(rnorm_trial) and (rnorm_trial < rnorm or rnorm_trial <= tol_n):
                eta = min(0.9, 0.9 * (rnorm_trial / rnorm) ** 2)
                phi, a, r, rnorm = trial, a_trial, r_trial, rnorm_trial
                accepted = True
                break
            interior_failed = False
            s *= 0.5
        if not accepted:
            if interior_failed:
                raise DomainViolation(
                    f"Newton iterate escaped the potential domain after "
                    f"{max_damping} dampings"
                )
            raise NewtonDivergence(
                f"no residual decrease after {max_damping} dampings "
                f"(residual {rnorm:.3e})",
                residual=rnorm,
                iterations=info.newton_iters,
            )
        info.newton_iters += 1
    info.operator = a
    return phi, info


def thermal_step(grid, params, w_n, w_hat_n, v_n, pi_hat_n, pi_hat_np1, u_np1, tau):
    """Thermal update; returns (w_{n+1}, w_hat_{n+1}, v_{n+1}, residual, scale).

    Solves, exactly in the cosine eigenbasis,
      (I/tau + alpha (-lap) + tau beta (-lap)) v' = v_n/tau + beta lap(w_n)
          - (pi_hat_{n+1} - pi_hat_n)/tau + u_{n+1}
    with pi_hat_n = pi_hat(phi_n), pi_hat_{n+1} = pi_hat(phi_{n+1}), and
    w_hat_n the cosine coefficients of the mean-free part of w_n, which stand
    for w_n in beta lap(w_n) = C^T (-beta eig w_hat_n): no stencil is applied.
    The pointwise source s = (v_n - (pi_hat_{n+1} - pi_hat_n))/tau + u_{n+1}
    is split by ``_mean_free_cosine`` as ``cosine_solve`` splits its rhs, and
    its mean is divided by 1/tau, so a constant source gives a constant v'
    exactly.  Sets w_{n+1} = w_n + tau v' with that exact expression, and
    w_hat_{n+1} = w_hat_n + tau v_hat from the mean-free coefficients v_hat of
    v'.  ``residual`` is the lumped energy balance, zero up to rounding, and
    ``scale`` its scale.
    """
    w_n = grid.check_field(w_n, "w_n")
    v_n = grid.check_field(v_n, "v_n")
    u_np1 = grid.check_field(u_np1, "u_np1")
    shift, coef = _thermal_operator(params, tau)
    pi_hat_diff = pi_hat_np1 - pi_hat_n
    src_hat, src_mean = _mean_free_cosine(grid, (v_n - pi_hat_diff) / tau + u_np1)
    v_hat = ((src_hat - params.beta * grid.cosine_eigenbasis[2] * w_hat_n)
             * _inverse_symbol(grid, shift, coef))
    v_np1 = _from_cosine(grid, v_hat) + src_mean / shift
    w_np1 = w_n + tau * v_np1

    vol = grid.cell_volume
    int_dv = vol * float((v_np1 - v_n).sum())
    int_dpi = vol * float(pi_hat_diff.sum())
    int_u = vol * float(u_np1.sum())
    residual = int_dv + int_dpi - tau * int_u
    scale = 1.0 + abs(int_dv) + abs(int_dpi) + tau * abs(int_u) + vol * float(np.abs(v_np1).sum())
    return w_np1, w_hat_n + tau * v_hat, v_np1, residual, scale


def march(problem: Problem, control: "ControlPair", opts=SolverOptions()):
    """Yield (phi, w, v, StepRecord) at nodes 0..nt, one step at a time.

    The scheme is one-step, so only node n is held to reach node n+1; every
    yielded array past node 0 is the step's own fresh array.  Wrongly shaped
    data (``ShapeMismatch``), a phi0 outside the potential's domain
    (``DomainViolation``) and a non-finite w0 (``BadParameter``) fail before
    node 0; step n fails as ``StepError(n, error)``, after nodes 0..n-1.
    """
    grid, tg = problem.grid, problem.time
    tau = tg.tau
    phi = grid.check_field(problem.initial.phi0, "phi0")
    w = grid.check_field(problem.initial.w0, "w0")
    v = grid.check_field(control.v0, "v0")
    u = grid.check_field(control.u, "u", tg.nt)
    problem.check_initial()

    yield phi, w, v, StepRecord(step=0, time=0.0, newton_iters=0, cg_iters=0,
                                energy_residual=0.0, cumulative_balance_residual=0.0)
    cumulative = 0.0
    # carried step to step: A(phi_n), pi_hat(phi_n) and the coefficients of w_n's mean-free part
    a_n = _phase_operator(grid, problem.potential, phi)
    pi_hat = problem.coupling.pi_hat(phi)
    w_hat = _mean_free_cosine(grid, w)[0]
    for n in range(tg.nt):
        try:
            phi_next, pinfo = phi_step(
                grid, problem.potential, problem.coupling, problem.params,
                phi, v, tau, opts, a_n,
            )
            pi_hat_next = problem.coupling.pi_hat(phi_next)
            w, w_hat, v, residual, scale = thermal_step(
                grid, problem.params, w, w_hat, v, pi_hat, pi_hat_next, u[n], tau,
            )
        except ThermophaseError as exc:
            raise StepError(n + 1, exc) from exc
        phi, a_n, pi_hat = phi_next, pinfo.operator, pi_hat_next
        cumulative += residual
        yield phi, w, v, StepRecord(
            step=n + 1, time=(n + 1) * tau,
            newton_iters=pinfo.newton_iters, cg_iters=pinfo.cg_iters,
            energy_residual=residual, cumulative_balance_residual=cumulative,
            balance_scale=scale, domain_guard_hits=pinfo.domain_guard_hits,
        )


def solve_state(problem: Problem, control: "ControlPair", opts=SolverOptions()) -> StateTrajectory:
    """The phi and v of every node ``march`` yields, stored, with a copy of w0; fails
    as ``march`` does.  The trajectory's ``w`` is rebuilt from them on each read."""
    grid, tg = problem.grid, problem.time
    phis, vs = (np.empty((tg.nt + 1, grid.ny, grid.nx)) for _ in range(2))
    for n, (phi, _, v, _) in enumerate(march(problem, control, opts)):
        phis[n], vs[n] = phi, v
    return StateTrajectory(phis, vs, np.array(problem.initial.w0, dtype=float), tg.tau)


def trajectory_difference_norm(grid: GridSpec, tau: float, dphi: np.ndarray, dw: np.ndarray,
                               dv: np.ndarray) -> float:
    """Strong-norm monitor of the difference (dphi, dw, dv) of two trajectories.

    Sums the discrete analogues of the solution-difference norms that the
    continuous-dependence estimate controls: sup-in-time of the V norm and of
    the Laplacian L2 norm of delta-phi, sup of the difference quotient of
    delta-phi, sup of the V norm and difference quotient of delta-v, and the
    time-L2 of the Laplacian of delta-w, on nodes ``tau`` apart.  Linear in
    the difference, so a data perturbation of size delta must move it
    proportionally.
    """
    nt = dphi.shape[0] - 1
    sup_v_phi = np.max([norm(grid, dphi[n], "v") for n in range(nt + 1)])
    sup_lap_phi = np.max([norm(grid, laplacian_neumann(grid, dphi[n])) for n in range(nt + 1)])
    sup_dt_phi = np.max([norm(grid, (dphi[n + 1] - dphi[n]) / tau) for n in range(nt)])
    sup_v_v = np.max([norm(grid, dv[n], "v") for n in range(nt + 1)])
    sup_dt_v = np.max([norm(grid, (dv[n + 1] - dv[n]) / tau) for n in range(nt)])
    l2t_lap_w = math.sqrt(sum(tau * norm(grid, laplacian_neumann(grid, dw[n])) ** 2
                              for n in range(nt + 1)))
    return sup_v_phi + sup_lap_phi + sup_dt_phi + sup_v_v + sup_dt_v + l2t_lap_w
