"""Tangent map, its exact transpose, and the backward-in-time adjoint system.

Two routes to the same gradient, on purpose:

* ``tangent_solve`` applies the exact derivative of the discrete forward
  scheme to a control perturbation, and ``tangent_transpose`` applies the
  transpose of every linear map in it, in reverse order.  Built on top of
  these, ``adjoint_solve_discrete`` returns machine-accurate gradient seeds
  for the discrete cost (engineering truth).
* ``adjoint_solve_continuous`` discretizes the backward-in-time adjoint
  system itself, with a semi-implicit scheme mirroring the forward one
  (scientific fidelity).  Its gradient agrees with the discrete one only up
  to discretization error, which shrinks under refinement.

Both sweeps reuse the forward solvers of the thermal operator and the phase
Jacobian.  The accumulator ``circledast_accumulate`` realises the backward
time integral (1 (*) g)(t_n) = integral of g from t_n to T by the backward
rectangle rule out[n] = out[n+1] + tau * g[n+1], with out[nt] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridSpec, laplacian_neumann
from .state import Problem, SolverOptions, StateTrajectory, _phi_solver, _thermal_solve

if TYPE_CHECKING:
    from .control import CostSpec


@dataclass
class Perturbation:
    """Control-space direction: h at nodes 1..nt, h0 for the initial temperature."""

    h: np.ndarray
    h0: np.ndarray


@dataclass
class LinearizedPair:
    """Tangent trajectory (xi, eta, eta_t), each of shape (nt+1, ny, nx)."""

    xi: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray


@dataclass
class GradientSeeds:
    """Cost-derivative representatives produced by the discrete adjoint.

    ``u`` holds, per node 1..nt, the L2(Q)-representative of the tracking
    part of dJ/du (time pairing by the rectangle rule); ``v0`` holds the
    plain L2 representative of the tracking part of dJ/dv0, before any
    Riesz lifting.
    """

    u: np.ndarray
    v0: np.ndarray


@dataclass
class AdjointPair:
    """Adjoint states p, q with the backward accumulator and the q-source.

    q_conv[n] approximates the integral of q over (t_n, T); it is identically
    zero at the final node.  f_q collects the source of the q-equation.
    """

    p: np.ndarray
    q: np.ndarray
    q_conv: np.ndarray
    f_q: np.ndarray


def circledast_accumulate(series, tau: float) -> np.ndarray:
    """Backward rectangle rule for the tail integral: out[n] = out[n+1] + tau*series[n+1]."""
    series = np.asarray(series, dtype=float)
    if series.shape[0] == 0:
        raise ValueError("series must be nonempty")
    out = np.zeros_like(series)
    out[:-1] = np.cumsum((tau * series[1:])[::-1], axis=0)[::-1]
    return out


# The six tracking terms of the cost as (weight, state, target, terminal): a
# distributed term weighs the whole trajectory against a space-time target
# with trapezoid weights, a terminal term the final node against a field.
TRACKING_TERMS = (("k1", "phi", "phi_q", False), ("k2", "phi", "phi_omega", True),
                  ("k3", "w", "w_q", False), ("k4", "w", "w_omega", True),
                  ("k5", "v", "wprime_q", False), ("k6", "v", "wprime_omega", True))


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
    c1 = -(2.0 / thc) * dpi + (v_n * dpi) / thc**2
    c2 = pi_n / thc**2
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

    with xi_0 = 0, eta_0 = 0, eta_t_0 = h0.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    h = np.asarray(pert.h, dtype=float)
    h0 = grid.check_field(pert.h0, "h0")
    if h.shape != (nt, grid.ny, grid.nx):
        raise ValueError(f"h has shape {h.shape}, expected {(nt, grid.ny, grid.nx)}")
    beta = problem.params.beta

    xi = np.zeros((nt + 1, grid.ny, grid.nx))
    eta = np.zeros_like(xi)
    eta_t = np.zeros_like(xi)
    eta_t[0] = h0
    pi_of = problem.coupling.pi
    pi_n = pi_of(base.phi[0])
    for n in range(nt):
        c1, c2 = _explicit_coeffs(problem, base.phi[n], base.v[n], pi_n)
        rhs_phi = xi[n] / tau + c1 * xi[n] + c2 * eta_t[n]
        xi[n + 1] = _phi_solver(grid, tau, problem.potential, base.phi[n + 1], rhs_phi, opts).x
        pi_np1 = pi_of(base.phi[n + 1])
        rhs_v = (eta_t[n] / tau + beta * laplacian_neumann(grid, eta[n])
                 - (pi_np1 * xi[n + 1] - pi_n * xi[n]) / tau + h[n])
        eta_t[n + 1] = _thermal_solve(grid, problem.params, tau, rhs_v)
        eta[n + 1] = eta[n] + tau * eta_t[n + 1]
        pi_n = pi_np1
    return LinearizedPair(xi=xi, eta=eta, eta_t=eta_t)


@dataclass
class TransposeResult:
    """Output of the reverse sweep: pairings against (h, h0) plus multipliers.

    dPairing = sum_n <h_bar[n-1], h_n>_L2 + <h0_bar, h0>_L2 where the
    cotangent input was paired in L2 against the tangent output at every node.
    p_like / q_like are the per-node equation multipliers divided by tau;
    their time-continuum limits solve the backward adjoint system.
    """

    h_bar: np.ndarray
    h0_bar: np.ndarray
    p_like: np.ndarray
    q_like: np.ndarray


def tangent_transpose(base: StateTrajectory, problem: Problem,
                      xi_bar, eta_bar, eta_t_bar,
                      opts=SolverOptions()) -> TransposeResult:
    """Transpose of ``tangent_solve`` against the L2 pairing at every node.

    Inputs are cotangent fields of shape (nt+1, ny, nx): the result satisfies

      sum_n <xi_bar[n], xi[n]> + <eta_bar[n], eta[n]> + <eta_t_bar[n], eta_t[n]>
        = sum_n <h_bar[n-1], h[n-1-th entry]> + <h0_bar, h0>

    exactly (up to the phase CG tolerance) for every perturbation, because
    every linear map in the forward sweep is L2-self-adjoint and is reapplied
    here in reverse order.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    beta = problem.params.beta
    pi_of = problem.coupling.pi

    X = np.array(xi_bar, dtype=float, copy=True)
    E = np.array(eta_bar, dtype=float, copy=True)
    Th = np.array(eta_t_bar, dtype=float, copy=True)
    for arr, name in ((X, "xi_bar"), (E, "eta_bar"), (Th, "eta_t_bar")):
        if arr.shape != (nt + 1, grid.ny, grid.nx):
            raise ValueError(f"{name} has shape {arr.shape}, expected {(nt + 1, grid.ny, grid.nx)}")

    h_bar = np.zeros((nt, grid.ny, grid.nx))
    p_like = np.zeros((nt + 1, grid.ny, grid.nx))
    q_like = np.zeros((nt + 1, grid.ny, grid.nx))
    pi_np1 = pi_of(base.phi[nt])
    for n in range(nt - 1, -1, -1):
        # transpose of eta_{n+1} = eta_n + tau eta_t_{n+1}
        Th[n + 1] += tau * E[n + 1]
        E[n] += E[n + 1]
        # transpose of the thermal solve
        rv_bar = _thermal_solve(grid, problem.params, tau, Th[n + 1])
        q_like[n + 1] = rv_bar / tau
        Th[n] += rv_bar / tau
        E[n] += beta * laplacian_neumann(grid, rv_bar)
        pi_n = pi_of(base.phi[n])
        X[n + 1] -= pi_np1 * rv_bar / tau
        X[n] += pi_n * rv_bar / tau
        h_bar[n] = rv_bar
        # transpose of the phase solve (after X[n+1] is complete)
        rphi_bar = _phi_solver(grid, tau, problem.potential, base.phi[n + 1], X[n + 1], opts).x
        p_like[n + 1] = rphi_bar / tau
        c1, c2 = _explicit_coeffs(problem, base.phi[n], base.v[n], pi_n)
        X[n] += rphi_bar / tau + c1 * rphi_bar
        Th[n] += c2 * rphi_bar
        pi_np1 = pi_n
    p_like[0] = p_like[1]
    q_like[0] = Th[0]
    return TransposeResult(h_bar=h_bar, h0_bar=Th[0], p_like=p_like, q_like=q_like)


def tracking_seeds(base: StateTrajectory, cost: "CostSpec", grid: GridSpec, nt: int,
                   tau: float):
    """L2-representative derivatives of the tracking cost at every node.

    Returns (a_phi, a_w, a_v), each (nt+1, ny, nx): trapezoid weights on the
    time-distributed terms, terminal terms at node nt.  Control penalties are
    not included.
    """
    w = trapezoid_weights(nt, tau)[:, None, None]
    seeds = {state: np.zeros((nt + 1, grid.ny, grid.nx)) for state in ("phi", "w", "v")}
    for weight, state, target, terminal in TRACKING_TERMS:
        k = getattr(cost, weight)
        if k > 0.0:
            x = getattr(base, state)
            if terminal:
                seeds[state][nt] += k * (x[nt] - getattr(cost, target))
            else:
                seeds[state] += k * w * (x - getattr(cost, target))
    return seeds["phi"], seeds["w"], seeds["v"]


def adjoint_solve_discrete(base: StateTrajectory, problem: Problem, cost: "CostSpec",
                           opts=SolverOptions()):
    """Exact transpose of the tangent map seeded by the discrete cost.

    Returns (GradientSeeds, TransposeResult).  The seeds are exact for the
    discrete reduced cost: dJ_tracking = <seeds.u, h>_L2(Q) + <seeds.v0, h0>_L2.
    """
    grid, tg = problem.grid, problem.time
    a_phi, a_w, a_v = tracking_seeds(base, cost, grid, tg.nt, tg.tau)
    sweep = tangent_transpose(base, problem, a_phi, a_w, a_v, opts)
    seeds = GradientSeeds(u=sweep.h_bar / tg.tau, v0=sweep.h0_bar)
    return seeds, sweep


def adjoint_solve_continuous(base: StateTrajectory, problem: Problem, cost: "CostSpec",
                             opts=SolverOptions()) -> AdjointPair:
    """Backward semi-implicit march of the adjoint system itself.

    Terminal conditions:
      p(T) = k2 (phi(T) - phi_omega) - k6 pi(phi(T)) (v(T) - wprime_omega)
      q(T) = k6 (v(T) - wprime_omega)

    Backward step at node n (everything at later nodes already known):
      q: implicit in (alpha + tau beta)(-lap), mirroring the forward thermal
         operator; the beta lap(1 (*) q) term uses the accumulator over later
         nodes; the p-coupling is lagged at p_{n+1}:
        (I/tau + (alpha + tau beta)(-lap)) q_n = q_{n+1}/tau + beta lap(conv_n)
            + (1/theta_c^2) pi(phi_n) p_{n+1} + f_q[n]

    The q-equation is marched with -beta lap(1 (*) q) on its left-hand side.
    That sign is forced by duality: the exact transpose of the discrete
    forward map converges to it, and it is the sign under which pairing the
    adjoint with the linearized system telescopes to the cost derivative.
      p: implicit in -lap + gamma'(phi_n); coupling terms lagged:
        (I/tau - lap + gamma'(phi_n)) p_n = p_{n+1}/tau
            + pi(phi_n) (q_{n+1} - q_n)/tau
            - (2/theta_c) pi'(phi_n) p_{n+1}
            + (1/theta_c^2) v_n pi'(phi_n) p_{n+1}
            + k1 (phi_n - phi_q[n])

    The q-source is f_q = k3 (1 (*) (w - w_q)) + k5 (v - wprime_q)
    + k4 (w(T) - w_omega), whose k4 part is constant in time.
    """
    grid, tg = problem.grid, problem.time
    nt, tau = tg.nt, tg.tau
    thc = problem.params.theta_c
    beta = problem.params.beta
    pi_of = problem.coupling.pi
    dpi_of = problem.coupling.dpi

    f_q = np.zeros((nt + 1, grid.ny, grid.nx))
    if cost.k3 > 0.0:
        f_q += cost.k3 * circledast_accumulate(base.w - cost.w_q, tau)
    if cost.k5 > 0.0:
        f_q += cost.k5 * (base.v - cost.wprime_q)
    if cost.k4 > 0.0:
        f_q += cost.k4 * (base.w[nt] - cost.w_omega)

    p = np.zeros((nt + 1, grid.ny, grid.nx))
    q = np.zeros_like(p)
    q_conv = np.zeros_like(p)
    vT_err = base.v[nt] - cost.wprime_omega
    p[nt] = cost.k2 * (base.phi[nt] - cost.phi_omega) - cost.k6 * pi_of(base.phi[nt]) * vT_err
    q[nt] = cost.k6 * vT_err

    for n in range(nt - 1, -1, -1):
        q_conv[n] = q_conv[n + 1] + tau * q[n + 1]
        pi_n = pi_of(base.phi[n])
        rhs_q = (q[n + 1] / tau + beta * laplacian_neumann(grid, q_conv[n])
                 + (pi_n * p[n + 1]) / thc**2 + f_q[n])
        q[n] = _thermal_solve(grid, problem.params, tau, rhs_q)
        dpi_n = dpi_of(base.phi[n])
        rhs_p = (p[n + 1] / tau + pi_n * (q[n + 1] - q[n]) / tau
                 - (2.0 / thc) * dpi_n * p[n + 1]
                 + (base.v[n] * dpi_n * p[n + 1]) / thc**2)
        if cost.k1 > 0.0:
            rhs_p = rhs_p + cost.k1 * (base.phi[n] - cost.phi_q[n])
        p[n] = _phi_solver(grid, tau, problem.potential, base.phi[n], rhs_p, opts).x
    return AdjointPair(p=p, q=q, q_conv=q_conv, f_q=f_q)
