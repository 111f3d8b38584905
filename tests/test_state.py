import json
import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, small_problem, smooth_control
from oracles import bisect, cell_centers, scalar_forward

from thermophase import state
from thermophase.config import parse_config_dict
from thermophase.control import ControlPair
from thermophase.errors import BadParameter, DomainViolation, NoConvergence, ShapeMismatch
from thermophase.grid import build_grid, cg_solve, laplacian_neumann, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                               _phi_solver, phi_step, run_diagnostics, solve_state,
                               thermal_step)

PARAMS = PhysParams()
REGULAR = Potential("regular")
PI_ZERO = Coupling("affine", a=0.0, b=0.0)
PI_NEG = Coupling("affine", a=-1.0, b=0.0)


def _committed_run(name, n=None, tau=None, nt=None):
    """Forward solve of a committed example config, optionally resized to n^2 x nt steps of tau."""
    with open(os.path.join(CONFIGS, name)) as fh:
        raw = json.load(fh)
    if n is not None:
        raw["grid"].update(nx=n, ny=n)
        raw["time"].update(t_final=nt * tau, nt=nt)
    cfg = parse_config_dict(raw)
    return solve_state(cfg.problem(), cfg.control(), cfg.solver_options())


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
    phi, _ = phi_step(g, REGULAR, PI_ZERO, PARAMS, np.full(g.shape, 1.0), g.zeros(), tau=tau)
    assert np.max(np.abs(phi - root)) <= 1e-10
    assert np.ptp(phi) <= 1e-13  # constant in, constant out


def test_phi_step_requires_interior_start():
    g = build_grid(1, 1, 8, 8)
    log_pot = Potential("logarithmic", kappa=1.0)
    with pytest.raises(DomainViolation):
        phi_step(g, log_pot, PI_NEG, PARAMS, np.full(g.shape, 1.0), g.zeros(), tau=0.1)


@pytest.mark.parametrize("tau", [1e-4, 1e-6])
def test_phase_preconditioner_near_separation_small_tau(rng, tau):
    # logarithmic potential close to its singularities: gamma' spans 1..95
    g = build_grid(1, 1, 24, 24)
    x, y = cell_centers(g)
    log_pot = Potential("logarithmic", kappa=1.0)
    phi = 0.999 * np.cos(np.pi * x) * np.cos(np.pi * y)
    opts = SolverOptions()
    gp = log_pot.dgamma(phi)
    rhs = rng.standard_normal(g.shape)
    plain = cg_solve(g, lambda z: z / tau - laplacian_neumann(g, z) + gp * z, rhs,
                     tol=opts.cg_tol)
    pre = _phi_solver(g, tau, gp, rhs, opts)
    assert pre.iterations < plain.iterations
    assert norm(g, pre.x - plain.x) <= 1e-10 * norm(g, plain.x)
    phi_next, info = phi_step(g, log_pot, PI_NEG, PARAMS, phi, g.zeros(), tau, opts)
    assert log_pot.contains(phi_next) and info.newton_iters >= 1


@pytest.mark.parametrize("tau", [0.1, 0.01])
@pytest.mark.parametrize("n,max_iters", [(32, 40), (64, 60)])
def test_phase_solve_stiff_cells_iteration_bound(tau, n, max_iters):
    # phi uniform in +-0.5 with 1 % of the cells near separation, so gamma'
    # spans 1 .. 5e5.  The preconditioner shift follows the bulk of gamma'
    # (median), not the few stiff cells that dominate its mean (174 / 107
    # iterations at 32^2 with the mean).
    g = build_grid(1, 1, n, n)
    rng = np.random.default_rng(3)
    phi = rng.uniform(-0.5, 0.5, g.shape)
    phi.flat[rng.choice(phi.size, phi.size // 100, replace=False)] = 0.999999
    rhs = rng.standard_normal(g.shape)
    log_pot = Potential("logarithmic", kappa=1.0)
    opts = SolverOptions()
    gp = log_pot.dgamma(phi)
    res = _phi_solver(g, tau, gp, rhs, opts)
    assert res.iterations <= max_iters
    true_res = res.x / tau - laplacian_neumann(g, res.x) + gp * res.x - rhs
    assert np.linalg.norm(true_res) <= 2 * opts.cg_tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("cg_tol", [1e-12, 1e-13])
@pytest.mark.parametrize("kind", ["regular", "logarithmic"])
@pytest.mark.parametrize("lx,nx,ny", [(1.5, 24, 16), (1.0, 64, 64)])
def test_phase_solve_true_stencil_residual(rng, cg_tol, kind, lx, nx, ny):
    # CG stops on its coefficient-space residual; back in physical space the
    # stencil residual must still meet the tolerance
    g = build_grid(lx, 1, nx, ny)
    x, y = cell_centers(g)
    pot = Potential(kind, kappa=1.0)
    phi = 0.9 * np.cos(np.pi * x / lx) * np.cos(np.pi * y) + 0.05 * rng.uniform(-1, 1, g.shape)
    rhs = rng.standard_normal(g.shape) + 0.5
    opts = SolverOptions(cg_tol=cg_tol)
    tau = 0.005
    res = _phi_solver(g, tau, pot.dgamma(phi), rhs, opts)
    true_res = res.x / tau - laplacian_neumann(g, res.x) + pot.dgamma(phi) * res.x - rhs
    assert res.iterations >= 1
    assert np.linalg.norm(true_res) <= 2 * cg_tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("amp,tol,certified,bound", [
    (0.9, 0.5, True, 0.5),       # loose Newton forcing: the preconditioned step meets it
    (0.0, None, True, 1e-13),    # constant gamma': the preconditioner is the exact inverse
    (0.9, None, False, 2e-12),   # varying gamma' at cg_tol: CG runs
])
def test_phase_solve_certified_preconditioner_step(rng, amp, tol, certified, bound):
    # theta = max|gamma' - m| / (1/tau + m) bounds the relative residual of the
    # preconditioned step; here theta is about 0.2 with amp 0.9 and 0 with amp 0
    g = build_grid(1, 1, 16, 16)
    x, y = cell_centers(g)
    phi = 0.3 + amp * np.cos(np.pi * x) * np.cos(np.pi * y)
    tau = 0.1
    rhs = rng.standard_normal(g.shape) + 0.5
    gp = REGULAR.dgamma(phi)
    res = _phi_solver(g, tau, gp, rhs, SolverOptions(), tol=tol)
    assert (res.iterations == 0) == certified
    true_res = res.x / tau - laplacian_neumann(g, res.x) + gp * res.x - rhs
    assert np.linalg.norm(true_res) <= bound * np.linalg.norm(rhs)
    if certified:  # the relative residual is within theta, up to rounding
        m = np.sort(gp.ravel())[gp.size // 2]
        theta = np.max(np.abs(gp - m)) / (1 / tau + m)
        assert np.linalg.norm(true_res) <= (theta + 1e-13) * np.linalg.norm(rhs)


def test_phase_solve_iteration_cap_raises(rng):
    g = build_grid(1, 1, 16, 16)
    x, y = cell_centers(g)
    phi = 0.9 * np.cos(np.pi * x) * np.cos(np.pi * y)
    with pytest.raises(NoConvergence):
        _phi_solver(g, 0.01, REGULAR.dgamma(phi), rng.standard_normal(g.shape),
                    SolverOptions(cg_maxit=1))
    with pytest.raises(NoConvergence):
        phi_step(g, REGULAR, PI_NEG, PARAMS, phi, np.full(g.shape, 1.0), 0.01,
                 SolverOptions(cg_maxit=1))


@pytest.mark.parametrize("n,tau", [(64, 1e-6), (128, 1e-6), (128, 1e-4)])
def test_newton_stop_scales_with_small_tau(n, tau):
    # the residual's rounding floor grows like ||phi_n||/tau; an absolute
    # newton_tol of 1e-11 lies below it at 64^2 and 128^2 with tau = 1e-6
    traj = _committed_run("simulate_logarithmic.json", n=n, tau=tau, nt=5)
    assert traj.nt == 5
    for rec in traj.steps[1:]:
        assert 1 <= rec.newton_iters <= 3
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale


@pytest.mark.parametrize("name", ["simulate_logarithmic.json", "grad_check.json"])
def test_inexact_newton_work_per_step(name):
    # the forcing terms keep inner solves loose until the last Newton iteration,
    # and a loose solve that the preconditioned step certifies takes no CG;
    # exact inner solves need about 6 CG iterations per step here
    traj = _committed_run(name)
    steps = traj.steps[1:]
    assert sum(rec.cg_iters for rec in steps) / len(steps) <= 1.5
    assert sum(rec.newton_iters for rec in steps) / len(steps) <= 2.15


def test_phi_step_carried_operator_matches_fresh_call():
    # A = gamma - lap of one step's iterate, handed to the next step, is the
    # array that a fresh evaluation at phi_n gives: same phi and counts, bit for bit
    problem = small_problem(nx=16, nt=6, potential_kind="logarithmic", phi_amp=0.9)
    ctrl = smooth_control(problem, u_amp=1.0)
    traj = solve_state(problem, ctrl)
    g, tau, pot = problem.grid, problem.time.tau, problem.potential
    args = (g, pot, problem.coupling, problem.params)
    carried = None
    for n in range(problem.time.nt):
        phi, info = phi_step(*args, traj.phi[n], traj.v[n], tau)
        assert info.newton_iters >= 1
        assert np.array_equal(info.operator, pot.gamma(phi) - laplacian_neumann(g, phi))
        assert np.array_equal(phi, traj.phi[n + 1])
        if carried is not None:
            phi_c, info_c = phi_step(*args, traj.phi[n], traj.v[n], tau, a_n=carried)
            assert np.array_equal(phi_c, phi)
            assert np.array_equal(info_c.operator, info.operator)
            assert ((info_c.newton_iters, info_c.cg_iters, info_c.domain_guard_hits)
                    == (info.newton_iters, info.cg_iters, info.domain_guard_hits))
        carried = info.operator


def test_newton_points_evaluated_once(monkeypatch):
    # one stencil per Newton trial plus the thermal step's, and one domain check
    # per trial: the step's first residual comes from the previous step's operator
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(state, "laplacian_neumann",
                        counting("stencil", state.laplacian_neumann))
    monkeypatch.setattr(Potential, "contains", counting("contains", Potential.contains))
    traj = _committed_run("simulate_logarithmic.json")
    newton = sum(rec.newton_iters for rec in traj.steps[1:]) / traj.nt
    assert newton >= 2.0
    assert calls["stencil"] / traj.nt <= 3.2
    assert calls["contains"] / traj.nt <= 2.17


def test_thermal_step_zero_inputs():
    g = build_grid(1, 1, 8, 8)
    w, v, residual, _ = thermal_step(g, PI_NEG, PARAMS, g.zeros(), g.zeros(), g.zeros(),
                                     g.zeros(), g.zeros(), tau=0.1)
    assert np.max(np.abs(w)) == 0.0 and np.max(np.abs(v)) == 0.0
    assert residual == 0.0


def test_thermal_step_constant_recurrence():
    g = build_grid(1, 1, 8, 8)
    tau = 0.05
    phi_n, phi_np1 = np.full(g.shape, 0.3), np.full(g.shape, 0.45)
    v_n, w_n, u = np.full(g.shape, 0.2), np.full(g.shape, -0.1), np.full(g.shape, 0.7)
    w, v, _, _ = thermal_step(g, PI_NEG, PARAMS, w_n, v_n, phi_n, phi_np1, u, tau)
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
        w, v, _, _ = thermal_step(g, PI_ZERO, PARAMS, w, v, g.zeros(), g.zeros(),
                                  np.full(g.shape, 1.0), tau)
        assert np.all(v == (n + 1) * tau)


def test_solve_state_stationary_at_coupled_root():
    # root of gamma(r) + (2/theta_c) pi(r) = r^3 - 2 r on [1, 2]
    root = bisect(lambda r: r**3 - 2.0 * r, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.5, nt=10)
    problem = Problem(g, tg, PARAMS, REGULAR, PI_NEG,
                      InitialData(np.full(g.shape, root), g.zeros()))
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
    problem = Problem(g, tg, PARAMS, pot, cpl,
                      InitialData(np.full(g.shape, 0.4), np.full(g.shape, -0.2)))
    u_vals = [0.5 * math.sin(1.0 + 0.3 * k) for k in range(1, tg.nt + 1)]
    u = np.stack([np.full(g.shape, val) for val in u_vals])
    ctrl = ControlPair(u, np.full(g.shape, 0.25))
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
    x, y = cell_centers(g)
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
    assert diag.separation_margin == math.inf and not diag.domain_guard_fired
    assert diag.max_scaled_energy_residual == 0.0
    assert max(norm(g, phi) for phi in traj.phi) == 0.0


def test_run_diagnostics_propagates_a_nan_energy_residual():
    # max() would keep the 0.0 of step 0 past a NaN; the gate must read NaN and fail
    problem = small_problem(nx=8, nt=4)
    traj = solve_state(problem, smooth_control(problem))
    traj.steps[2].energy_residual = math.nan
    assert math.isnan(run_diagnostics(traj, problem.potential).max_scaled_energy_residual)


def test_separation_shrinks_with_smaller_source():
    problem = small_problem(nx=12, nt=10, potential_kind="logarithmic", phi_amp=0.6)
    ctrl = smooth_control(problem, u_amp=0.8)
    half = ControlPair(0.5 * ctrl.u, ctrl.v0)
    full, halved = solve_state(problem, ctrl), solve_state(problem, half)
    assert np.min(halved.phi) >= np.min(full.phi) - 1e-8
    assert np.max(halved.phi) <= np.max(full.phi) + 1e-8


def test_solve_state_rejects_exterior_phi0():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.1, nt=2)
    log_pot = Potential("logarithmic", kappa=1.0)
    problem = Problem(g, tg, PARAMS, log_pot, PI_NEG,
                      InitialData(np.full(g.shape, 1.2), g.zeros()))
    with pytest.raises(DomainViolation):
        solve_state(problem, ControlPair.zeros(g, tg.nt))
    # an unbounded potential's domain is the finite reals: rejected before step 1
    phi0 = g.zeros()
    phi0[3, 4] = np.nan
    problem = Problem(g, tg, PARAMS, REGULAR, PI_NEG, InitialData(phi0, g.zeros()))
    with pytest.raises(DomainViolation, match="phi0"):
        solve_state(problem, ControlPair.zeros(g, tg.nt))


def test_solve_state_rejects_non_finite_w0_before_step_one():
    problem = small_problem(nx=8, nt=4)
    problem.initial.w0[2, 5] = np.nan
    with pytest.raises(BadParameter, match="w0 must be finite"):
        solve_state(problem, smooth_control(problem))


def test_solve_state_rejects_wrong_control_shape_before_step_one():
    problem = small_problem(nx=8, nt=4)
    ctrl = smooth_control(problem)
    with pytest.raises(ShapeMismatch, match="u has shape"):
        solve_state(problem, ControlPair(ctrl.u[:-1], ctrl.v0))


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
