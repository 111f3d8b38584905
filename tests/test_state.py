import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_problem, smooth_control
from oracles import bisect, scalar_forward, scalar_phi_step

from thermophase.control import ControlPair
from thermophase.errors import DomainViolation
from thermophase.grid import build_grid, cg_solve, laplacian_neumann, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                               _phi_solver, phi_step, run_diagnostics, solve_state,
                               thermal_step)

PARAMS = PhysParams()
REGULAR = Potential("regular")
PI_ZERO = Coupling("affine", a=0.0, b=0.0)
PI_NEG = Coupling("affine", a=-1.0, b=0.0)


def test_phi_step_zero_fixed_point():
    g = build_grid(1, 1, 8, 8)
    phi, info = phi_step(g, REGULAR, PI_ZERO, PARAMS, g.zeros(), g.zeros(), tau=0.1)
    assert np.max(np.abs(phi)) <= 1e-13
    assert info.newton_iters == 0


def test_phi_step_constant_matches_bisection_root():
    # implicit update from phi_n = 1 with pi = 0: x/tau + x^3 = 1/tau
    g = build_grid(1, 1, 8, 8)
    tau = 0.1
    root = bisect(lambda x: x + tau * x**3 - 1.0, 0.5, 1.0)
    assert root == pytest.approx(0.9216989942046787, abs=1e-12)  # frozen from the oracle
    phi, _ = phi_step(g, REGULAR, PI_ZERO, PARAMS, g.full(1.0), g.zeros(), tau=tau)
    assert np.max(np.abs(phi - root)) <= 1e-10
    assert np.ptp(phi) <= 1e-13  # constant in, constant out


def test_phi_step_requires_interior_start():
    g = build_grid(1, 1, 8, 8)
    log_pot = Potential("logarithmic", kappa=1.0)
    with pytest.raises(DomainViolation):
        phi_step(g, log_pot, PI_NEG, PARAMS, g.full(1.0), g.zeros(), tau=0.1)


@pytest.mark.parametrize("tau", [1e-4, 1e-6])
def test_phase_preconditioner_near_separation_small_tau(rng, tau):
    # logarithmic potential close to its singularities: gamma' spans 1..95
    g = build_grid(1, 1, 24, 24)
    x, y = g.cell_centers()
    log_pot = Potential("logarithmic", kappa=1.0)
    phi = 0.999 * np.cos(np.pi * x) * np.cos(np.pi * y)
    opts = SolverOptions()
    gp = log_pot.dgamma(phi)
    rhs = rng.standard_normal(g.shape)
    plain = cg_solve(g, lambda z: z / tau - laplacian_neumann(g, z) + gp * z, rhs,
                     tol=opts.cg_tol)
    pre = _phi_solver(g, tau, log_pot, phi, rhs, opts)
    assert pre.iterations < plain.iterations
    assert norm(g, pre.x - plain.x) <= 1e-10 * norm(g, plain.x)
    phi_next, info = phi_step(g, log_pot, PI_NEG, PARAMS, phi, g.zeros(), tau, opts)
    assert log_pot.contains(phi_next) and info.newton_iters >= 1


def test_thermal_step_zero_inputs():
    g = build_grid(1, 1, 8, 8)
    w, v, info = thermal_step(g, PI_NEG, PARAMS, g.zeros(), g.zeros(), g.zeros(),
                              g.zeros(), g.zeros(), tau=0.1)
    assert np.max(np.abs(w)) == 0.0 and np.max(np.abs(v)) == 0.0
    assert info.balance_residual == 0.0


def test_thermal_step_constant_recurrence():
    g = build_grid(1, 1, 8, 8)
    tau = 0.05
    phi_n, phi_np1 = g.full(0.3), g.full(0.45)
    v_n, w_n, u = g.full(0.2), g.full(-0.1), g.full(0.7)
    w, v, _ = thermal_step(g, PI_NEG, PARAMS, w_n, v_n, phi_n, phi_np1, u, tau)
    pi_diff = float(PI_NEG.pi_hat(0.45) - PI_NEG.pi_hat(0.3))
    v_expect = 0.2 + tau * 0.7 - pi_diff
    assert np.max(np.abs(v - v_expect)) <= 1e-12
    assert np.max(np.abs(w - (-0.1 + tau * v))) == 0.0


def test_thermal_step_unit_source_exact_ramp():
    # power-of-two tau makes every float op exact for constant fields
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=16)
    tau = tg.tau
    assert tau == 0.0625
    w, v = g.zeros(), g.zeros()
    for n in range(tg.nt):
        w, v, _ = thermal_step(g, PI_ZERO, PARAMS, w, v, g.zeros(), g.zeros(),
                               g.full(1.0), tau)
        assert np.all(v == (n + 1) * tau)


def test_solve_state_stationary_at_coupled_root():
    # root of gamma(r) + (2/theta_c) pi(r) = r^3 - 2 r on [1, 2]
    root = bisect(lambda r: r**3 - 2.0 * r, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.5, nt=10)
    problem = Problem(g, tg, PARAMS, REGULAR, PI_NEG,
                      InitialData(g.full(root), g.zeros()))
    ctrl = ControlPair.zeros(g, tg.nt)
    traj = solve_state(problem, ctrl)
    for n in range(tg.nt):
        assert norm(g, traj.phi[n + 1] - traj.phi[n]) <= 1e-12
        assert norm(g, traj.v[n + 1]) <= 1e-11


@pytest.mark.parametrize("potential_kind,coupling_kind", [
    ("regular", "affine"), ("logarithmic", "bounded_smooth")])
def test_solve_state_matches_scalar_oracle(potential_kind, coupling_kind):
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.3, nt=12)
    pot = Potential(potential_kind)
    cpl = (PI_NEG if coupling_kind == "affine" else Coupling("bounded_smooth", c=1.0))
    problem = Problem(g, tg, PARAMS, pot, cpl, InitialData(g.full(0.4), g.full(-0.2)))
    u_vals = [0.5 * math.sin(1.0 + 0.3 * k) for k in range(1, tg.nt + 1)]
    u = np.stack([g.full(val) for val in u_vals])
    ctrl = ControlPair(u, g.full(0.25))
    traj = solve_state(problem, ctrl)
    phis, ws, vs = scalar_forward(pot, cpl, PARAMS, 0.4, -0.2, 0.25, u_vals, tg.tau)
    for n in range(tg.nt + 1):
        assert np.max(np.abs(traj.phi[n] - phis[n])) <= 1e-10
        assert np.max(np.abs(traj.w[n] - ws[n])) <= 1e-10
        assert np.max(np.abs(traj.v[n] - vs[n])) <= 1e-10


def test_w_update_bit_exact_and_cumulative_balance():
    problem = small_problem(nx=12, nt=10)
    ctrl = smooth_control(problem)
    traj = solve_state(problem, ctrl)
    tau = problem.time.tau
    for n in range(problem.time.nt):
        assert np.array_equal(traj.w[n + 1], traj.w[n] + tau * traj.v[n + 1])
    vol = problem.grid.cell_volume
    pi_hat = problem.coupling.pi_hat
    lhs = vol * float(np.sum(traj.v[-1] + pi_hat(traj.phi[-1])
                             - traj.v[0] - pi_hat(traj.phi[0])))
    rhs = tau * vol * float(np.sum(ctrl.u))
    assert abs(lhs - rhs) <= problem.time.nt * 1e-11 * max(1.0, abs(rhs))


def test_energy_balance_identity_per_step():
    problem = small_problem(nx=12, nt=10, potential_kind="logarithmic")
    ctrl = smooth_control(problem, u_amp=0.4)
    traj = solve_state(problem, ctrl, SolverOptions(cg_tol=1e-12))
    for rec in traj.steps[1:]:
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31), u_amp=st.floats(0.0, 2.0), phi_amp=st.floats(0.0, 0.8))
def test_energy_balance_holds_for_random_data(seed, u_amp, phi_amp):
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.1, nt=3)
    r = np.random.default_rng(seed)
    x, y = g.cell_centers()
    problem = Problem(g, tg, PARAMS, REGULAR, PI_NEG,
                      InitialData(phi_amp * np.cos(np.pi * x) * np.cos(np.pi * y),
                                  0.2 * r.standard_normal(g.shape)))
    ctrl = ControlPair(u_amp * r.standard_normal((tg.nt, *g.shape)),
                       0.3 * r.standard_normal(g.shape))
    traj = solve_state(problem, ctrl)
    for rec in traj.steps[1:]:
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale


def test_run_diagnostics_zero_trajectory():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.1, nt=4)
    problem = Problem(g, tg, PARAMS, REGULAR, PI_ZERO, InitialData(g.zeros(), g.zeros()))
    traj = solve_state(problem, ControlPair.zeros(g, tg.nt))
    diag = run_diagnostics(traj, REGULAR)
    assert diag.r_star_low == 0.0 and diag.r_star_high == 0.0
    assert not diag.separation_breach and not diag.domain_guard_fired
    assert diag.max_energy_residual == 0.0
    assert diag.sup_gamma_hat_l1 == 0.0
    assert max(norm(g, phi) for phi in traj.phi) == 0.0


def test_separation_shrinks_with_smaller_source():
    problem = small_problem(nx=12, nt=10, potential_kind="logarithmic", phi_amp=0.6)
    ctrl = smooth_control(problem, u_amp=0.8)
    half = ControlPair(0.5 * ctrl.u, ctrl.v0)
    d_full = run_diagnostics(solve_state(problem, ctrl), problem.potential)
    d_half = run_diagnostics(solve_state(problem, half), problem.potential)
    assert d_half.r_star_low >= d_full.r_star_low - 1e-8
    assert d_half.r_star_high <= d_full.r_star_high + 1e-8


def test_solve_state_rejects_exterior_phi0():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.1, nt=2)
    log_pot = Potential("logarithmic", kappa=1.0)
    problem = Problem(g, tg, PARAMS, log_pot, PI_NEG, InitialData(g.full(1.2), g.zeros()))
    with pytest.raises(DomainViolation):
        solve_state(problem, ControlPair.zeros(g, tg.nt))


def test_phi0_prime_diagnostic_logged():
    problem = small_problem(nx=12, nt=4)
    traj = solve_state(problem, smooth_control(problem))
    assert traj.phi0_prime_l2 > 0.0


def test_single_step_run_allowed():
    problem = small_problem(nx=8, nt=1, t_final=0.05)
    traj = solve_state(problem, smooth_control(problem))
    assert traj.phi.shape[0] == 2
    assert len(traj.steps) == 2


def test_obstacle_penalized_run_keeps_balance():
    # experimental potential: the solver and the balance identity still hold
    problem = small_problem(nx=10, nt=8, potential_kind="regular")
    problem.potential = Potential("obstacle_penalized", eps_pen=0.05)
    ctrl = smooth_control(problem, u_amp=1.5)
    traj = solve_state(problem, ctrl)
    assert float(np.max(np.abs(traj.phi))) < 1.5
    for rec in traj.steps[1:]:
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale
