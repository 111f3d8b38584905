import json
import math
import os
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, march_records, small_problem, smooth_control
from oracles import bisect, cell_centers, scalar_forward

from thermophase import state
from thermophase.config import parse_config_dict
from thermophase.control import ControlPair
from thermophase.errors import BadParameter, DomainViolation, NoConvergence, ShapeMismatch
from thermophase.grid import _to_cosine, build_grid, cg_solve, laplacian_neumann, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                               _phi_solver, phi_step, solve_state, thermal_step)

PARAMS = PhysParams()
REGULAR = Potential("regular")
PI_ZERO = Coupling("affine", a=0.0, b=0.0)
PI_NEG = Coupling("affine", a=-1.0, b=0.0)


def _committed_run(name, n=None, tau=None, nt=None):
    """Step records of a committed example config, optionally resized to n^2 x nt steps of tau."""
    with open(os.path.join(CONFIGS, name)) as fh:
        raw = json.load(fh)
    if n is not None:
        raw["grid"].update(nx=n, ny=n)
        raw["time"].update(t_final=nt * tau, nt=nt)
    cfg = parse_config_dict(raw)
    return march_records(cfg.problem(), cfg.control(), cfg.solver_options())


def _phi_step(g, pot, cpl, phi_n, v_n, tau, opts=SolverOptions()):
    """``phi_step`` from a checked phi_n, with A(phi_n) formed as ``march`` forms A(phi0)."""
    assert pot.contains(phi_n)
    return phi_step(g, pot, cpl, PARAMS, phi_n, v_n, tau, opts,
                    state._phase_operator(g, pot, phi_n))


def test_phi_step_zero_fixed_point():
    g = build_grid(1, 1, 8, 8)
    phi, info = _phi_step(g, REGULAR, PI_ZERO, g.zeros(), g.zeros(), tau=0.1)
    assert np.max(np.abs(phi)) <= 1e-13
    assert info.newton_iters == 0


def test_phi_step_constant_matches_bisection_root():
    # implicit update from phi_n = 1 with pi = 0: x/tau + x^3 = 1/tau
    g = build_grid(1, 1, 8, 8)
    tau = 0.1
    root = bisect(lambda x: x + tau * x**3 - 1.0, 0.5, 1.0)
    assert root == pytest.approx(0.9216989942046787, abs=1e-12)  # frozen from the oracle
    phi, _ = _phi_step(g, REGULAR, PI_ZERO, np.full(g.shape, 1.0), g.zeros(), tau=tau)
    assert np.max(np.abs(phi - root)) <= 1e-10
    assert np.ptp(phi) <= 1e-13  # constant in, constant out


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
                     tol=opts.cg_tol, maxit=state.CG_MAXIT, precond=lambda r: r)
    pre = _phi_solver(g, tau, gp, rhs, opts.cg_tol)
    assert pre.iterations < plain.iterations
    assert norm(g, pre.x - plain.x) <= 1e-10 * norm(g, plain.x)
    phi_next, info = _phi_step(g, log_pot, PI_NEG, phi, g.zeros(), tau, opts)
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
    res = _phi_solver(g, tau, gp, rhs, opts.cg_tol)
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
    res = _phi_solver(g, tau, pot.dgamma(phi), rhs, cg_tol)
    true_res = res.x / tau - laplacian_neumann(g, res.x) + pot.dgamma(phi) * res.x - rhs
    assert res.iterations >= 1
    assert np.linalg.norm(true_res) <= 2 * cg_tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("amp,tol,certified,bound", [
    (0.9, 0.5, True, 0.5),       # loose Newton forcing: the preconditioned step meets it
    (0.0, None, True, 1e-13),    # constant gamma': the preconditioner is the exact inverse
    (0.9, None, False, 2e-12),   # theta fails the fixed-point rule at cg_tol: CG runs
])
def test_phase_solve_certified_preconditioner_step(rng, amp, tol, certified, bound):
    # theta = max|gamma' - m| / (1/tau + m) bounds the relative residual of the
    # preconditioned step; here theta is about 0.37 with amp 0.9 and 0 with amp 0
    g = build_grid(1, 1, 16, 16)
    x, y = cell_centers(g)
    phi = 0.3 + amp * np.cos(np.pi * x) * np.cos(np.pi * y)
    tau = 0.1
    rhs = rng.standard_normal(g.shape) + 0.5
    gp = REGULAR.dgamma(phi)
    res = _phi_solver(g, tau, gp, rhs, SolverOptions().cg_tol if tol is None else tol)
    assert (res.iterations == 0) == certified
    true_res = res.x / tau - laplacian_neumann(g, res.x) + gp * res.x - rhs
    assert np.linalg.norm(true_res) <= bound * np.linalg.norm(rhs)
    if certified:  # the relative residual is within theta, up to rounding
        m = np.sort(gp.ravel())[gp.size // 2]
        theta = np.max(np.abs(gp - m)) / (1 / tau + m)
        assert np.linalg.norm(true_res) <= (theta + 1e-13) * np.linalg.norm(rhs)


@pytest.mark.parametrize("amp,tau,tol,steps", [
    (0.9, 0.03, 1e-2, 2), (0.9, 0.01, 1e-6, 4), (0.5, 0.01, 1e-12, 6), (0.5, 0.001, 1e-10, 3)])
def test_phase_solve_fixed_point_step_count(rng, amp, tau, tol, steps):
    # j, the fewest corrections with theta^(j+1) <= tol, satisfies theta <= 2^(1-j)
    # here: the solve takes exactly j preconditioned fixed-point corrections, and
    # its stencil residual is within theta^(j+1), up to rounding
    g = build_grid(1, 1, 16, 16)
    x, y = cell_centers(g)
    gp = REGULAR.dgamma(0.3 + amp * np.cos(np.pi * x) * np.cos(np.pi * y))
    m = np.sort(gp.ravel())[gp.size // 2]
    theta = np.max(np.abs(gp - m)) / (1 / tau + m)
    assert theta ** (steps + 1) <= tol < theta ** steps and theta <= 2.0 ** (1 - steps)
    rhs = rng.standard_normal(g.shape) + 0.5
    res = _phi_solver(g, tau, gp, rhs, tol)
    assert res.iterations == steps
    true_res = res.x / tau - laplacian_neumann(g, res.x) + gp * res.x - rhs
    assert np.linalg.norm(true_res) <= (theta ** (steps + 1) + 1e-14) * np.linalg.norm(rhs)


def test_phase_solve_iteration_cap_raises(rng, monkeypatch):
    g = build_grid(1, 1, 16, 16)
    x, y = cell_centers(g)
    phi = 0.9 * np.cos(np.pi * x) * np.cos(np.pi * y)
    monkeypatch.setattr(state, "CG_MAXIT", 1)
    with pytest.raises(NoConvergence):
        _phi_solver(g, 0.01, REGULAR.dgamma(phi), rng.standard_normal(g.shape),
                    SolverOptions().cg_tol)
    with pytest.raises(NoConvergence):
        _phi_step(g, REGULAR, PI_NEG, phi, np.full(g.shape, 1.0), 0.01)


@pytest.mark.parametrize("n,tau", [(64, 1e-6), (128, 1e-6), (128, 1e-4)])
def test_newton_stop_scales_with_small_tau(n, tau):
    # the residual's rounding floor grows like ||phi_n||/tau; an absolute
    # newton_tol of 1e-11 lies below it at 64^2 and 128^2 with tau = 1e-6
    records = _committed_run("simulate_logarithmic.json", n=n, tau=tau, nt=5)
    assert len(records) == 6
    for rec in records[1:]:
        assert 1 <= rec.newton_iters <= 3
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale


@pytest.mark.parametrize("name", ["simulate_logarithmic.json", "grad_check.json"])
def test_inexact_newton_work_per_step(name):
    # the forcing terms keep inner solves loose until the last Newton iteration,
    # and a loose solve that the preconditioned step certifies takes no CG;
    # exact inner solves need about 6 CG iterations per step here
    steps = _committed_run(name)[1:]
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
        phi, info = _phi_step(*args[:3], traj.phi[n], traj.v[n], tau)
        assert info.newton_iters >= 1
        assert np.array_equal(info.operator, pot.gamma(phi) - laplacian_neumann(g, phi))
        assert np.array_equal(phi, traj.phi[n + 1])
        if carried is not None:
            phi_c, info_c = phi_step(*args, traj.phi[n], traj.v[n], tau, SolverOptions(),
                                     carried)
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
    steps = _committed_run("simulate_logarithmic.json")[1:]
    newton = sum(rec.newton_iters for rec in steps) / len(steps)
    assert newton >= 2.0
    assert calls["stencil"] / len(steps) <= 3.2
    assert calls["contains"] / len(steps) <= 2.17


def test_march_thermal_steps_apply_no_stencil(monkeypatch):
    # the stencil runs once for A(phi0) and once per Newton trial that passed its domain
    # check; the thermal step takes beta lap(w_n) from the carried coefficients instead
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def within(name, fn):
        def wrapper(*args):
            before = calls.copy()
            out = fn(*args)
            for counted in ("stencil", "contains"):
                calls[f"{name}.{counted}"] += calls[counted] - before[counted]
            return out
        return wrapper

    monkeypatch.setattr(state, "laplacian_neumann",
                        counting("stencil", state.laplacian_neumann))
    monkeypatch.setattr(Potential, "contains", counting("contains", Potential.contains))
    monkeypatch.setattr(state, "phi_step", within("phi_step", state.phi_step))
    monkeypatch.setattr(state, "thermal_step", within("thermal_step", state.thermal_step))
    steps = _committed_run("simulate_logarithmic.json")[1:]
    trials = calls["phi_step.contains"] - sum(rec.domain_guard_hits for rec in steps)
    assert trials >= 2 * len(steps)
    assert calls["thermal_step.stencil"] == 0
    assert calls["phi_step.stencil"] == trials
    assert calls["stencil"] == 1 + trials


def test_march_carries_the_cosine_coefficients_of_w(monkeypatch):
    # w_hat, carried step to step beside w, stays the transform of w's mean-free part:
    # measured at most 8.4e-16 of the largest coefficient over the 80 steps
    problem = small_problem(nx=64, nt=80)
    g, carried = problem.grid, []
    thermal = state.thermal_step

    def recording_thermal(*args):
        out = thermal(*args)
        carried.append(out[:2])
        return out

    monkeypatch.setattr(state, "thermal_step", recording_thermal)
    solve_state(problem, smooth_control(problem))
    assert len(carried) == 80
    for w, w_hat in carried:
        want = _to_cosine(g, w - np.mean(w))
        assert np.max(np.abs(w_hat - want)) <= 1e-14 * np.max(np.abs(want))


def test_march_from_a_constant_w0_keeps_v_exactly_constant():
    # a constant w0 carries exact zero coefficients, so beta lap(w) adds nothing, and
    # with power-of-two tau every operation on the constant source is exact
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=16)
    problem = Problem(g, tg, PARAMS, REGULAR, PI_ZERO,
                      InitialData(g.zeros(), np.full(g.shape, 0.3)))
    ctrl = ControlPair(np.full((tg.nt, *g.shape), 1.0), np.full(g.shape, 0.5))
    for n, (_, w, v, _) in enumerate(state.march(problem, ctrl)):
        assert np.all(v == 0.5 + n * tg.tau)
        assert np.all(w == w.flat[0])


def test_thermal_step_zero_inputs():
    g = build_grid(1, 1, 8, 8)
    w, _, v, residual, _ = thermal_step(g, PARAMS, g.zeros(), g.zeros(), g.zeros(),
                                        PI_NEG.pi_hat(g.zeros()), PI_NEG.pi_hat(g.zeros()),
                                        g.zeros(), tau=0.1)
    assert np.max(np.abs(w)) == 0.0 and np.max(np.abs(v)) == 0.0
    assert residual == 0.0


def test_thermal_step_constant_recurrence():
    g = build_grid(1, 1, 8, 8)
    tau = 0.05
    phi_n, phi_np1 = np.full(g.shape, 0.3), np.full(g.shape, 0.45)
    v_n, w_n, u = np.full(g.shape, 0.2), np.full(g.shape, -0.1), np.full(g.shape, 0.7)
    w, _, v, _, _ = thermal_step(g, PARAMS, w_n, g.zeros(), v_n, PI_NEG.pi_hat(phi_n),
                                 PI_NEG.pi_hat(phi_np1), u, tau)
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
    w, w_hat, v = g.zeros(), g.zeros(), g.zeros()
    for n in range(tg.nt):
        w, w_hat, v, _, _ = thermal_step(g, PARAMS, w, w_hat, v, PI_ZERO.pi_hat(g.zeros()),
                                         PI_ZERO.pi_hat(g.zeros()), np.full(g.shape, 1.0), tau)
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
    for rec in march_records(problem, ctrl, SolverOptions(cg_tol=1e-12))[1:]:
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
    for rec in march_records(problem, ctrl)[1:]:
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale


@pytest.mark.parametrize("kind,phi_amp", [("logarithmic", 0.6), ("regular", 0.3)])
def test_solve_state_stores_the_nodes_march_yields(kind, phi_amp):
    problem = small_problem(nx=12, nt=8, potential_kind=kind, phi_amp=phi_amp)
    ctrl = smooth_control(problem, u_amp=0.8)
    traj = solve_state(problem, ctrl)
    nodes = list(state.march(problem, ctrl))
    assert len(nodes) == traj.nt + 1
    for n, (phi, w, v, _) in enumerate(nodes):
        assert np.array_equal(phi, traj.phi[n]) and np.array_equal(w, traj.w[n])
        assert np.array_equal(v, traj.v[n])
    # past node 0 every yielded array is its step's own
    assert len({id(a) for node in nodes[1:] for a in node[:3]}) == 3 * traj.nt


@pytest.mark.parametrize("kind,phi_amp", [("logarithmic", 0.6), ("regular", 0.3)])
def test_trajectory_rebuilds_w_with_the_bits_march_yields(kind, phi_amp):
    # w is not stored: each read is a fresh running sum from w0, bit for bit the march's
    problem = small_problem(nx=12, nt=8, potential_kind=kind, phi_amp=phi_amp)
    ctrl = smooth_control(problem, u_amp=0.8)
    traj = solve_state(problem, ctrl)
    assert [f.name for f in fields(traj)] == ["phi", "v", "w0", "tau"]
    w = traj.w
    assert w is not traj.w and w.shape == traj.phi.shape
    for n, (_, w_n, _, _) in enumerate(state.march(problem, ctrl)):
        assert np.array_equal(w_n, w[n])


def test_solve_state_peak_memory_is_two_stored_states():
    # phi and v are stored and w is rebuilt on read: storing w too peaked at 3.13 arrays
    problem = small_problem(nx=16, nt=200)
    ctrl = smooth_control(problem)
    solve_state(problem, ctrl)  # transform plans and caches first
    tracemalloc.start()
    try:
        traj = solve_state(problem, ctrl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * traj.phi.nbytes


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
    ctrl = smooth_control(problem)
    assert solve_state(problem, ctrl).phi.shape[0] == 2
    assert len(march_records(problem, ctrl)) == 2


def test_obstacle_penalized_run_keeps_balance():
    # experimental potential: the solver and the balance identity still hold
    problem = small_problem(nx=10, nt=8, potential_kind="regular")
    problem.potential = Potential("obstacle_penalized", eps_pen=0.05)
    ctrl = smooth_control(problem, u_amp=1.5)
    assert float(np.max(np.abs(solve_state(problem, ctrl).phi))) < 1.5
    for rec in march_records(problem, ctrl)[1:]:
        assert abs(rec.energy_residual) <= 1e-10 * rec.balance_scale
