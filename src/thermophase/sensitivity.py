"""Tangent map, its exact transpose, and the backward-in-time adjoint system.

Two routes to the same gradient, on purpose:

* ``tangent_solve`` applies the exact derivative of the discrete forward
  scheme to a control perturbation, and ``tangent_transpose`` applies the
  transpose of every linear map in it, in reverse order, back into the same
  space: it returns a ``Perturbation`` of L2(Q) x L2 representatives.  Built
  on top of these, ``adjoint_solve_discrete`` returns the sweep seeded by the
  discrete cost, the machine-accurate tracking gradient (engineering truth).
  The reverse sweep takes its cotangents node by node from a seed;
  ``tracking_seeds`` builds it from the trajectory misfit (the gradient) or
  from a tangent (the Gauss-Newton Hessian product).
* ``adjoint_solve_continuous`` discretizes the backward-in-time adjoint
  system itself, with a semi-implicit scheme mirroring the forward one
  (scientific fidelity).  Its gradient agrees with the discrete one only up
  to discretization error, which shrinks under refinement.

Both routes reuse the forward solver of the phase Jacobian.  The tangent and
its transpose take the thermal steps as ``march`` does, in cosine
coefficients: the tangent carries the coefficients of eta and eta_t, the
transpose their cotangents, and each thermal step costs one transform of its
pointwise part, one multiplication by the thermal inverse symbol (k = 0
included, so no mean is kept apart) and one transform back, with no stencil.
The continuous adjoint is the independent reference and keeps the physical
route: ``_thermal_solve`` and the stencil.  The continuous march takes each
backward time integral (1 (*) g)(t_n), the integral of g from t_n to T, by
the rectangle rule c_n = c_{n+1} + tau g[n+1], c_nt = 0, as one (ny, nx)
field that each backward step updates.

The displacements are not stored: the trajectory's w and the tangent's eta are
exact running sums of v and eta_t, rebuilt on each read of ``.w`` or ``.eta``.
Each read allocates one (nt+1, ny, nx) array, so the sweeps read one only for a
tracking term that needs it (k3 or k4), once, and never inside a per-node loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ShapeMismatch
from .grid import _from_cosine, _solve_symbol, _to_cosine, laplacian_neumann
from .state import (Problem, SolverOptions, StateTrajectory, _phi_solver, _thermal_operator,
                    _thermal_solve, running_sum)

if TYPE_CHECKING:
    from .control import CostSpec


@dataclass
class Perturbation:
    """Control-space direction: h at nodes 1..nt, h0 for the initial temperature.

    ``tangent_transpose`` returns one too: the L2(Q) and L2 representatives of
    a derivative with respect to (u, v0).
    """

    h: np.ndarray
    h0: np.ndarray


@dataclass
class LinearizedPair:
    """Tangent trajectory: xi and eta_t, each of shape (nt+1, ny, nx), and tau.

    ``eta`` is not stored: eta[0] = 0 and eta[n+1] = eta[n] + tau * eta_t[n+1]
    is bit-exact, so each read of ``eta`` rebuilds all of it (``running_sum``),
    bit for bit the sweep's.  Each read allocates one (nt+1, ny, nx) array, so
    read it once into a local, never inside a per-node loop.
    """

    xi: np.ndarray
    eta_t: np.ndarray
    tau: float

    @property
    def eta(self) -> np.ndarray:
        return running_sum(0.0, self.eta_t, self.tau)


@dataclass
class AdjointPair:
    """Adjoint states p, q, each of shape (nt+1, ny, nx)."""

    p: np.ndarray
    q: np.ndarray


# The six tracking terms of the cost as (weight, state, target, terminal): a
# distributed term weighs the whole trajectory against a space-time target
# with trapezoid weights, a terminal term the final node against a field.
TRACKING_TERMS = (("k1", "phi", "phi_q", False), ("k2", "phi", "phi_omega", True),
                  ("k3", "w", "w_q", False), ("k4", "w", "w_omega", True),
                  ("k5", "v", "wprime_q", False), ("k6", "v", "wprime_omega", True))


def weighted_targets(cost: "CostSpec", shape) -> dict[str, np.ndarray]:
    """The targets of positive weight by name, checked against the trajectory shape
    (nt+1, ny, nx): a terminal target is (ny, nx).  A zero-weight target is not read."""
    out = {}
    for weight, _, name, terminal in TRACKING_TERMS:
        if getattr(cost, weight) > 0.0:
            target = np.asarray(getattr(cost, name), dtype=float)
            want = tuple(shape[1:] if terminal else shape)
            if target.shape != want:
                raise ShapeMismatch(f"{name} has shape {target.shape}, expected {want}")
            out[name] = target
    return out


def tracked_fields(cost: "CostSpec", read: Callable[[str], np.ndarray]) -> dict[str, np.ndarray]:
    """``read(state)`` of each state that a term of positive weight tracks, called once
    per state: a rebuilt w costs one array per read, and none when k3 = k4 = 0."""
    states = {state for weight, state, _, _ in TRACKING_TERMS if getattr(cost, weight) > 0.0}
    return {state: read(state) for state in states}


def trapezoid_weights(nt: int, tau: float) -> np.ndarray:
    """Composite-trapezoid weights over nodes 0..nt."""
    w = np.full(nt + 1, tau)
    w[0] = 0.5 * tau
    w[-1] = 0.5 * tau
    return w


def _explicit_coeffs(problem, phi_n, v_n, pi_n):
    """Diagonal coefficients of the explicit terms in the linearized phase step.

    c1 multiplies xi_n, c2 multiplies eta_t_n on the right-hand side:
      c1 = -(2/theta_c) pi'(phi_n) + (1/theta_c^2) v_n pi'(phi_n)
      c2 = (1/theta_c^2) pi(phi_n), with pi_n = pi(phi_n) carried along by the sweep
    """
    thc = problem.params.theta_c
    dpi = problem.coupling.dpi(phi_n)
    c1 = -(2.0 / thc) * dpi + (v_n * dpi) / (thc * thc)
    c2 = pi_n / (thc * thc)
    return c1, c2


def tangent_solve(base: StateTrajectory, problem: Problem, pert: Perturbation,
                  opts=SolverOptions()) -> LinearizedPair:
    """Exact derivative of the discrete forward map applied to (h, h0).

    Step n -> n+1 linearizes the two forward solves at the base trajectory:

      (I/tau - lap + gamma'(phi_{n+1})) xi_{n+1}
          = xi_n/tau + c1_n xi_n + c2_n eta_t_n
      (I/tau + (alpha + tau beta)(-lap)) eta_t_{n+1}
          = eta_t_n/tau + beta lap(eta_n)
            - (pi(phi_{n+1}) xi_{n+1} - pi(phi_n) xi_n)/tau + h_{n+1}
      eta_{n+1} = eta_n + tau eta_t_{n+1}

    with xi_0 = 0, eta_0 = 0, eta_t_0 = h0.  The thermal equation is solved
    in cosine coefficients: the sweep carries et_hat = C eta_t_n and
    e_hat = C eta_n, takes beta lap(eta_n) as -beta eig e_hat, transforms
    only the pointwise part of the right-hand side, multiplies by the inverse
    symbol S = 1/(1/tau + (alpha + tau beta) eig) and transforms
    eta_t_{n+1} = C^T S (...) back; e_hat is updated as e_hat + tau et_hat.
    Only xi and eta_t are stored; the result rebuilds eta on read.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    h = grid.check_field(pert.h, "h", nt)
    h0 = grid.check_field(pert.h0, "h0")
    inv = _solve_symbol(grid, *_thermal_operator(problem.params, tau))
    beta_eig = problem.params.beta * grid.cosine_eigenbasis[2]

    xi = np.zeros((nt + 1, grid.ny, grid.nx))
    eta_t = np.zeros_like(xi)
    eta_t[0] = h0
    et_hat, e_hat = _to_cosine(grid, h0), np.zeros(grid.shape)
    pi_of = problem.coupling.pi
    dgamma = problem.potential.dgamma
    pi_n = pi_of(base.phi[0])
    for n in range(nt):
        c1, c2 = _explicit_coeffs(problem, base.phi[n], base.v[n], pi_n)
        rhs_phi = xi[n] / tau + c1 * xi[n] + c2 * eta_t[n]
        xi[n + 1] = _phi_solver(grid, tau, dgamma(base.phi[n + 1]), rhs_phi, opts.cg_tol).x
        pi_np1 = pi_of(base.phi[n + 1])
        src = h[n] - (pi_np1 * xi[n + 1] - pi_n * xi[n]) / tau
        et_hat = (et_hat / tau - beta_eig * e_hat + _to_cosine(grid, src)) * inv
        eta_t[n + 1] = _from_cosine(grid, et_hat)
        e_hat += tau * et_hat
        pi_n = pi_np1
    return LinearizedPair(xi=xi, eta_t=eta_t, tau=tau)


# A per-node seed: seed(n) returns fresh cotangent fields (xi_bar, eta_bar,
# eta_t_bar) of node n, which the reverse sweep accumulates into in place.
Seed = Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray]]


def array_seed(problem: Problem, xi_bar, eta_bar, eta_t_bar) -> Seed:
    """Seed reading node n of three cotangent arrays of shape (nt+1, ny, nx)."""
    arrays = [problem.grid.check_field(a, name, problem.time.nt + 1)
              for a, name in ((xi_bar, "xi_bar"), (eta_bar, "eta_bar"), (eta_t_bar, "eta_t_bar"))]
    return lambda n: tuple(a[n].copy() for a in arrays)


def tangent_transpose(base: StateTrajectory, problem: Problem, seed: Seed,
                      opts=SolverOptions()) -> Perturbation:
    """Transpose of ``tangent_solve`` against the L2 pairing at every node.

    ``seed(n)`` gives the cotangent fields of node n; the result ``g`` lies in
    the space ``tangent_solve`` maps from and satisfies

      sum_n <xi_bar[n], xi[n]> + <eta_bar[n], eta[n]> + <eta_t_bar[n], eta_t[n]>
        = <g.h, h>_L2(Q) + <g.h0, h0>_L2,   <a, b>_L2(Q) = tau sum_n <a[n], b[n]>

    exactly (to rounding where every phase solve takes ``cg_solve``'s
    fixed-point mode, else up to the phase CG tolerance) for every (h, h0),
    because every linear map in the forward sweep is reapplied here
    transposed, in reverse order: the L2-self-adjoint phase solves and
    pointwise products as they are, the transforms C and C^T as each other,
    and the diagonal steps in coefficients on the coefficient cotangents
    et_bar of et_hat and e_bar of e_hat, which the sweep carries beside the
    physical ones.  So g.h is the L2(Q) representative and
    g.h0 the L2 representative of the pairing's derivative, with no Riesz
    lifting.  g.h holds the per-node thermal-equation multipliers, and the
    phase solve of node n+1 returns tau times those of the phase equation;
    their time-continuum limits solve the backward adjoint system.  Only the
    cotangents of nodes n and n+1 are held.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    inv = _solve_symbol(grid, *_thermal_operator(problem.params, tau))
    beta_eig = problem.params.beta * grid.cosine_eigenbasis[2]
    pi_of = problem.coupling.pi
    dgamma = problem.potential.dgamma

    h = np.zeros((nt, grid.ny, grid.nx))
    X1, E1, Th1 = seed(nt)
    et_bar1, e_bar1 = np.zeros(grid.shape), np.zeros(grid.shape)
    pi_np1 = pi_of(base.phi[nt])
    for n in range(nt - 1, -1, -1):
        X, E, Th = seed(n)
        # transpose of eta_{n+1} = eta_n + tau eta_t_{n+1}
        Th1 += tau * E1
        E += E1
        # transpose of eta_t_{n+1} = C^T et_hat and e_hat_{n+1} = e_hat_n + tau et_hat
        et_bar1 += _to_cosine(grid, Th1) + tau * e_bar1
        # transpose of the thermal solve in coefficients, and of the source's transform
        r_bar = inv * et_bar1
        h[n] = _from_cosine(grid, r_bar) / tau
        et_bar, e_bar = r_bar / tau, e_bar1 - beta_eig * r_bar
        pi_n = pi_of(base.phi[n])
        X1 -= pi_np1 * h[n]
        X += pi_n * h[n]
        # transpose of the phase solve (after X1 is complete)
        rphi_bar = _phi_solver(grid, tau, dgamma(base.phi[n + 1]), X1, opts.cg_tol).x
        c1, c2 = _explicit_coeffs(problem, base.phi[n], base.v[n], pi_n)
        X += rphi_bar / tau + c1 * rphi_bar
        Th += c2 * rphi_bar
        X1, E1, Th1, et_bar1, e_bar1, pi_np1 = X, E, Th, et_bar, e_bar, pi_n
    # eta_t_0 = h0 and et_hat_0 = C h0
    return Perturbation(h=h, h0=Th1 + _from_cosine(grid, et_bar1))


def tracking_seeds(cost: "CostSpec", phi, w, v, tau: float, targets: bool = True) -> Seed:
    """Per-node L2-representative derivative of the tracking cost, for ``tangent_transpose``.

    Seeds the fields (phi, w, v), each (nt+1, ny, nx), with the TRACKING_TERMS
    table: trapezoid weights on the time-distributed terms, terminal terms at
    node nt.  With ``targets`` the fields are a trajectory and the seed is its
    misfit (the gradient); without, they are a tangent and the seed is the
    Gauss-Newton quadratic's (the Hessian product).  Control penalties are
    not included.

    ``w`` is a function of no arguments that returns the w field, such as
    ``lambda: traj.w`` or ``lambda: lin.eta``, each read of which allocates
    one array.  It is called once, and only if k3 or k4 is positive.
    """
    fields = {"phi": phi, "w": w, "v": v}
    nt = phi.shape[0] - 1
    wts = trapezoid_weights(nt, tau)
    checked = weighted_targets(cost, phi.shape) if targets else {}
    read = tracked_fields(cost, lambda state: w() if state == "w" else fields[state])
    terms = [(state, getattr(cost, weight), read[state], checked.get(target), terminal)
             for weight, state, target, terminal in TRACKING_TERMS if getattr(cost, weight) > 0.0]

    def seed(n):
        out = {state: np.zeros(phi.shape[1:]) for state in fields}
        for state, k, x, target, terminal in terms:
            if terminal:
                if n == nt:
                    out[state] += k * (x[nt] if target is None else x[nt] - target)
            else:
                out[state] += k * wts[n] * (x[n] if target is None else x[n] - target[n])
        return out["phi"], out["w"], out["v"]

    return seed


def adjoint_solve_discrete(base: StateTrajectory, problem: Problem, cost: "CostSpec",
                           opts=SolverOptions()) -> Perturbation:
    """Exact transpose of the tangent map seeded by the discrete cost.

    Exact for the discrete reduced cost: dJ_tracking = <g.h, h>_L2(Q)
    + <g.h0, h0>_L2 for the result g, whose fields are the plain L2(Q) and
    L2 representatives (no Riesz lifting).
    """
    seed = tracking_seeds(cost, base.phi, lambda: base.w, base.v, problem.time.tau)
    return tangent_transpose(base, problem, seed, opts)


def adjoint_solve_continuous(base: StateTrajectory, problem: Problem, cost: "CostSpec",
                             opts=SolverOptions()) -> AdjointPair:
    """Backward semi-implicit march of the adjoint system itself.

    Terminal conditions:
      p(T) = k2 (phi(T) - phi_omega) - k6 pi(phi(T)) (v(T) - wprime_omega)
      q(T) = k6 (v(T) - wprime_omega)

    Backward step at node n (everything at later nodes already known):
      q: implicit in (alpha + tau beta)(-lap), mirroring the forward thermal
         operator; beta lap(1 (*) q) uses conv_n = conv_{n+1} + tau q_{n+1};
         the p-coupling is lagged at p_{n+1}:
        (I/tau + (alpha + tau beta)(-lap)) q_n = q_{n+1}/tau + beta lap(conv_n)
            + c2_n p_{n+1} + f_q,n

    The q-equation is marched with -beta lap(1 (*) q) on its left-hand side.
    That sign is forced by duality: the exact transpose of the discrete
    forward map converges to it, and it is the sign under which pairing the
    adjoint with the linearized system telescopes to the cost derivative.
      p: implicit in -lap + gamma'(phi_n); coupling terms lagged:
        (I/tau - lap + gamma'(phi_n)) p_n = p_{n+1}/tau
            + pi(phi_n) (q_{n+1} - q_n)/tau + c1_n p_{n+1}
            + k1 (phi_n - phi_q[n])

    c1_n = -(2/theta_c) pi'(phi_n) + (1/theta_c^2) v_n pi'(phi_n) and
    c2_n = (1/theta_c^2) pi(phi_n) are the coupling coefficients of the
    linearized phase step, from ``_explicit_coeffs`` as in the tangent sweep
    and its transpose.

    The q step applies ``_thermal_solve`` and the stencil to physical fields,
    not the coefficient steps of the tangent sweeps: this march is the
    independent reference that the discrete gradient is checked against.

    The q-source is f_q = k3 (1 (*) (w - w_q)) + k5 (v - wprime_q)
    + k4 (w(T) - w_omega), whose k4 part is constant in time; only p and q
    are kept at every node.  The trajectory's w is rebuilt once, and only
    when k3 or k4 is positive; q is then written over it backward.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    beta = problem.params.beta
    pi_of = problem.coupling.pi
    dgamma = problem.potential.dgamma

    target = weighted_targets(cost, base.phi.shape)  # a zero weight's term reads 0
    p = np.zeros((nt + 1, grid.ny, grid.nx))
    # q is written into the array of the rebuilt w, node nt first: each node of w is
    # read before q overwrites it, so p and q stay the only trajectory-sized arrays
    w = base.w if cost.k3 > 0.0 or cost.k4 > 0.0 else None
    q = np.zeros_like(p) if w is None else w
    w_conv = np.zeros(grid.shape)  # 1 (*) (w - w_q) at node n, taken one node ahead
    if cost.k3 > 0.0:
        w_conv = w_conv + tau * (w[nt] - target["w_q"][nt])
    wT_err = w[nt] - target["w_omega"] if cost.k4 > 0.0 else None
    vT_err = base.v[nt] - target.get("wprime_omega", 0.0)
    p[nt] = (cost.k2 * (base.phi[nt] - target.get("phi_omega", 0.0))
             - cost.k6 * pi_of(base.phi[nt]) * vT_err)
    q[nt] = cost.k6 * vT_err

    q_conv = np.zeros(grid.shape)  # 1 (*) q at node n
    for n in range(nt - 1, -1, -1):
        q_conv = q_conv + tau * q[n + 1]
        f_q = 0.0
        if cost.k3 > 0.0:
            f_q = f_q + cost.k3 * w_conv
        if cost.k5 > 0.0:
            f_q = f_q + cost.k5 * (base.v[n] - target["wprime_q"][n])
        if cost.k4 > 0.0:
            f_q = f_q + cost.k4 * wT_err
        pi_n = pi_of(base.phi[n])
        c1, c2 = _explicit_coeffs(problem, base.phi[n], base.v[n], pi_n)
        rhs_q = (q[n + 1] / tau + beta * laplacian_neumann(grid, q_conv)
                 + c2 * p[n + 1] + f_q)
        if cost.k3 > 0.0:
            w_conv = w_conv + tau * (w[n] - target["w_q"][n])
        q[n] = _thermal_solve(grid, problem.params, tau, rhs_q)
        rhs_p = p[n + 1] / tau + pi_n * (q[n + 1] - q[n]) / tau + c1 * p[n + 1]
        if cost.k1 > 0.0:
            rhs_p = rhs_p + cost.k1 * (base.phi[n] - target["phi_q"][n])
        p[n] = _phi_solver(grid, tau, dgamma(base.phi[n]), rhs_p, opts.cg_tol).x
    return AdjointPair(p=p, q=q)
