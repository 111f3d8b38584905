"""Semi-implicit time stepping for the coupled phase / thermal-displacement system.

One step from t_n to t_{n+1} performs, in order:

  1. phase step, implicit in the monotone nonlinearity (Newton + preconditioned CG):
       (phi' - phi_n)/tau - lap(phi') + gamma(phi')
         + (2/theta_c) pi(phi_n) - (1/theta_c^2) v_n pi(phi_n) = 0
  2. thermal step, one SPD solve for v' (the time derivative of w):
       (v' - v_n)/tau - alpha lap(v') - beta lap(w_n + tau v')
         + (pi_hat(phi') - pi_hat(phi_n))/tau = u_{n+1}
     followed by the exact update w' = w_n + tau v'.

The thermal operator I/tau + (alpha + tau beta)(-lap) is inverted exactly by
``grid.cosine_solve``.  The SPD Newton operator I/tau - lap + diag(gamma') is
solved by CG in the same cosine coefficients, where I/tau - lap is diagonal and
only diag(gamma') needs the transforms; the preconditioner is that diagonal
shifted by the median m of gamma'.  Newton is inexact: its stop is relative to
the size of the step's right-hand side, and each inner solve goes only as far
as the Eisenstat-Walker forcing term asks.  The preconditioned step alone has
relative residual at most theta = max|gamma' - m| / (1/tau + m), so when theta
meets the forcing it is taken without CG (0 CG iterations for that Newton
iteration).  The sensitivity sweeps reuse both solvers at ``cg_tol``.  Each
Newton point costs one domain check, one stencil and one gamma (``phi_step``).

The coupling enters the thermal equation as the exact difference quotient of
pi_hat, which turns the lumped internal-energy balance

    sum(v' - v_n) + sum(pi_hat(phi') - pi_hat(phi_n)) = tau * sum(u_{n+1})

into a per-step identity up to rounding: the zero-flux Laplacians drop out of
the cell sum exactly, and the cosine solve keeps the cell sum of its rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadParameter, DomainViolation, NewtonDivergence, StepError, ThermophaseError
from .grid import (CGResult, Field, GridSpec, _from_cosine, _to_cosine, cg_solve,
                   cosine_solve, laplacian_neumann, norm)
from .nonlinearity import Coupling, Potential

if TYPE_CHECKING:
    from .control import ControlPair


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
    cg_maxit: int = 50000
    newton_tol: float = 1e-11

    def __post_init__(self):
        _check_ranges(self, positive=("cg_tol", "newton_tol"), nonnegative=("cg_maxit",))


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
        for a potential defined on all reals, that means finite.  w0 must be finite."""
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
    cg_iters: int  # phase (Newton) CG iterations; the thermal solve is direct
    energy_residual: float
    cumulative_balance_residual: float
    balance_scale: float = 1.0
    domain_guard_hits: int = 0


@dataclass
class StateTrajectory:
    """Snapshots of (phi, w, v) at every node plus the per-step solver record.

    Arrays have shape (nt+1, ny, nx); v holds the time derivative of w, i.e.
    the temperature.  The update w[n+1] = w[n] + tau * v[n+1] is bit-exact.
    """

    phi: np.ndarray
    w: np.ndarray
    v: np.ndarray
    tau: float
    steps: list[StepRecord] = field(default_factory=list, repr=False)

    @property
    def nt(self) -> int:
        return self.phi.shape[0] - 1


@dataclass
class Diagnostics:
    """Run-level summary assembled from a complete trajectory."""

    separation_margin: float  # distance of phi from the domain's ends; inf if unbounded
    domain_guard_fired: bool
    max_scaled_energy_residual: float


def _phi_solver(grid, tau, gp, rhs, opts, tol=None):
    """CGResult of (I/tau - lap + diag(gp)) x = rhs, to relative ``tol``; gp holds gamma'.

    ``tol`` defaults to ``opts.cg_tol``, the exact solves of the sensitivity
    sweeps; only Newton's inner solves in ``phi_step`` pass a looser one.
    The system is solved in the cosine coefficients c = C x, C the orthonormal
    DCT-II, where the operator is A = (1/tau + eig) + C diag(gamma') C^T and the
    preconditioner the diagonal P = 1/(1/tau + m + eig), m the upper median of
    gamma' (a few stiff cells near separation do not set it, unlike the mean).
    The preconditioned step X = P R, R = C rhs, leaves the residual
    R - A X = -C((gamma' - m) C^T X), so its relative residual is at most
    theta = max|gamma' - m| / (1/tau + m).  When theta <= tol that step is
    returned with 0 iterations; at ``cg_tol`` this happens only for gamma'
    constant to that level, where P is the exact inverse.  Otherwise CG runs
    from zero.  C is orthonormal, so residual norms and the stopping rule are
    those of the physical system; the solution is transformed back once, into
    ``x``.
    """
    rhs = grid.check_field(rhs, "rhs")
    tol = opts.cg_tol if tol is None else tol
    eig = grid.cosine_eigenbasis[2]
    k = gp.size // 2
    m = np.partition(gp.ravel(), k)[k]
    shift = 1.0 / tau + m
    inv_pre = 1.0 / (eig + shift)
    coeffs = _to_cosine(grid, rhs)
    theta = max(float(np.max(gp)) - m, m - float(np.min(gp))) / shift
    if theta <= tol:
        return CGResult(x=_from_cosine(grid, coeffs * inv_pre), iterations=0)
    diag = 1.0 / tau + eig
    res = cg_solve(grid, lambda c: diag * c + _to_cosine(grid, gp * _from_cosine(grid, c)),
                   coeffs, tol=tol, maxit=opts.cg_maxit, precond=lambda r: r * inv_pre)
    res.x = _from_cosine(grid, res.x)
    return res


def _phase_operator(grid, potential, p):
    """A(p) = gamma(p) - lap(p) at a point ``p`` that passed ``potential.contains``."""
    return potential._gamma(p) - laplacian_neumann(grid, p)


def _thermal_solve(grid, params, tau, rhs):
    """Exact inverse of the thermal operator I/tau + (alpha + tau beta)(-lap)."""
    return cosine_solve(grid, rhs, 1.0 / tau, params.alpha + tau * params.beta)


def phi_step(grid, potential, coupling, params, phi_n, v_n, tau, opts=SolverOptions(),
             a_n=None):
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

    Each Newton point is evaluated once: a trial is checked against the domain
    by one ``contains`` (which drives the damping), and gamma and gamma' at
    that point then skip their own check.  ``info.operator`` holds A of the
    returned iterate.  Passed back as ``a_n`` with that iterate as the next
    step's ``phi_n``, it spares the next step's first residual its stencil and
    gamma, and phi_n its domain check, since it was a checked trial; it is the
    same array that the fresh evaluation of A(phi_n) gives.  Without ``a_n``,
    phi_n is checked and A(phi_n) evaluated here.
    """
    maxit, max_damping = 30, 40
    phi_n = grid.check_field(phi_n, "phi_n")
    v_n = grid.check_field(v_n, "v_n")
    thc = params.theta_c
    pi_n = coupling.pi(phi_n)
    b = phi_n / tau - (2.0 / thc) * pi_n + (v_n * pi_n) / thc**2
    tol_n = opts.newton_tol * (1.0 + norm(grid, b))
    info = PhiStepInfo()
    if a_n is None:
        if not potential.contains(phi_n):
            raise DomainViolation("phi_n is not interior to the potential domain")
        a_n = _phase_operator(grid, potential, phi_n)

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
        res = _phi_solver(grid, tau, potential._dgamma(phi), -r, opts,
                          tol=max(opts.cg_tol, eta, 0.5 * tol_n / rnorm))
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


def thermal_step(grid, coupling, params, w_n, v_n, phi_n, phi_np1, u_np1, tau):
    """Thermal update; returns (w_{n+1}, v_{n+1}, residual, scale).

    Solves, exactly in the cosine eigenbasis,
      (I/tau + alpha (-lap) + tau beta (-lap)) v' = v_n/tau + beta lap(w_n)
          - (pi_hat(phi_{n+1}) - pi_hat(phi_n))/tau + u_{n+1}
    and sets w_{n+1} = w_n + tau v' with that exact expression.  ``residual``
    is the lumped energy balance, zero up to rounding, and ``scale`` its scale.
    """
    w_n = grid.check_field(w_n, "w_n")
    v_n = grid.check_field(v_n, "v_n")
    u_np1 = grid.check_field(u_np1, "u_np1")
    pi_hat_diff = coupling.pi_hat(phi_np1) - coupling.pi_hat(phi_n)
    rhs = v_n / tau + params.beta * laplacian_neumann(grid, w_n) - pi_hat_diff / tau + u_np1
    v_np1 = _thermal_solve(grid, params, tau, rhs)
    w_np1 = w_n + tau * v_np1

    vol = grid.cell_volume
    int_dv = vol * float(np.sum(v_np1 - v_n))
    int_dpi = vol * float(np.sum(pi_hat_diff))
    int_u = vol * float(np.sum(u_np1))
    residual = int_dv + int_dpi - tau * int_u
    scale = 1.0 + abs(int_dv) + abs(int_dpi) + tau * abs(int_u) + vol * float(np.sum(np.abs(v_np1)))
    return w_np1, v_np1, residual, scale


def solve_state(problem: Problem, control: "ControlPair", opts=SolverOptions()) -> StateTrajectory:
    """March the full trajectory; fails fast with the step index on any error.

    Wrongly shaped data (``ShapeMismatch``), a phi0 outside the potential's
    domain (``DomainViolation``) and a non-finite w0 (``BadParameter``) fail before
    step 1; step n fails as ``StepError(n, error)``.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    phi0 = grid.check_field(problem.initial.phi0, "phi0")
    w0 = grid.check_field(problem.initial.w0, "w0")
    v0 = grid.check_field(control.v0, "v0")
    u = grid.check_field(control.u, "u", nt)
    problem.check_initial()

    phi = np.empty((nt + 1, grid.ny, grid.nx))
    w = np.empty_like(phi)
    v = np.empty_like(phi)
    phi[0], w[0], v[0] = phi0, w0, v0

    steps = [StepRecord(step=0, time=0.0, newton_iters=0, cg_iters=0, energy_residual=0.0,
                        cumulative_balance_residual=0.0)]
    cumulative = 0.0
    a_n = _phase_operator(grid, problem.potential, phi0)  # A(phi[n]), carried step to step
    for n in range(nt):
        try:
            phi_next, pinfo = phi_step(
                grid, problem.potential, problem.coupling, problem.params,
                phi[n], v[n], tau, opts, a_n,
            )
            w_next, v_next, residual, scale = thermal_step(
                grid, problem.coupling, problem.params,
                w[n], v[n], phi[n], phi_next, u[n], tau,
            )
        except ThermophaseError as exc:
            raise StepError(n + 1, exc) from exc
        phi[n + 1], w[n + 1], v[n + 1] = phi_next, w_next, v_next
        a_n = pinfo.operator
        cumulative += residual
        steps.append(StepRecord(
            step=n + 1, time=(n + 1) * tau,
            newton_iters=pinfo.newton_iters, cg_iters=pinfo.cg_iters,
            energy_residual=residual, cumulative_balance_residual=cumulative,
            balance_scale=scale, domain_guard_hits=pinfo.domain_guard_hits,
        ))
    return StateTrajectory(phi=phi, w=w, v=v, tau=tau, steps=steps)


def trajectory_difference_norm(grid: GridSpec, trajA: StateTrajectory,
                               trajB: StateTrajectory) -> float:
    """Strong-norm monitor of the difference of two trajectories.

    Sums the discrete analogues of the solution-difference norms that the
    continuous-dependence estimate controls: sup-in-time of the V norm and of
    the Laplacian L2 norm of delta-phi, sup of the difference quotient of
    delta-phi, sup of the V norm and difference quotient of delta-v, and the
    time-L2 of the Laplacian of delta-w.  Linear in the difference, so a
    data perturbation of size delta must move it proportionally.
    """
    tau = trajA.tau
    dphi = trajA.phi - trajB.phi
    dw = trajA.w - trajB.w
    dv = trajA.v - trajB.v
    nt = trajA.nt
    sup_v_phi = np.max([norm(grid, dphi[n], "v") for n in range(nt + 1)])
    sup_lap_phi = np.max([norm(grid, laplacian_neumann(grid, dphi[n])) for n in range(nt + 1)])
    sup_dt_phi = np.max([norm(grid, (dphi[n + 1] - dphi[n]) / tau) for n in range(nt)])
    sup_v_v = np.max([norm(grid, dv[n], "v") for n in range(nt + 1)])
    sup_dt_v = np.max([norm(grid, (dv[n + 1] - dv[n]) / tau) for n in range(nt)])
    l2t_lap_w = math.sqrt(sum(tau * norm(grid, laplacian_neumann(grid, dw[n])) ** 2
                              for n in range(nt + 1)))
    return sup_v_phi + sup_lap_phi + sup_dt_phi + sup_v_v + sup_dt_v + l2t_lap_w


def run_diagnostics(traj: StateTrajectory, potential: Potential) -> Diagnostics:
    """Run-level summary: separation margin, guard hits, scaled balance residual."""
    if potential.bounded_domain:
        sep_margin = min(float(np.min(traj.phi)) - potential.r_minus,
                         potential.r_plus - float(np.max(traj.phi)))
    else:
        sep_margin = math.inf
    recs = traj.steps
    return Diagnostics(
        separation_margin=sep_margin,
        domain_guard_fired=any(r.domain_guard_hits > 0 for r in recs),
        max_scaled_energy_residual=np.max([abs(r.energy_residual) / r.balance_scale for r in recs]),
    )
