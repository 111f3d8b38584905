import numpy as np
import pytest

from conftest import small_problem, smooth_control

from thermophase.control import (AdmissibleSet, ControlPair, CostSpec, GradientPair,
                                 OptimizeOptions, ReducedProblem, _bb_step, check_vi,
                                 clamp_formula_residual, cost_eval, optimize,
                                 project_admissible, stationarity_residual, u_norm, v0_norm)
from thermophase.errors import BadParameter
from thermophase.grid import build_grid
from thermophase.nonlinearity import Coupling, Potential
from thermophase.state import (InitialData, PhysParams, Problem, SolverOptions,
                               StateTrajectory, TimeGrid, solve_state)


def _manual_traj(grid, nt, phi=0.0, w=0.0, v=0.0, tau=0.1):
    shape = (nt + 1, *grid.shape)
    return StateTrajectory(phi=np.full(shape, phi), w=np.full(shape, w),
                           v=np.full(shape, v), tau=tau)


def test_cost_zero_when_trajectory_hits_targets():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=4)
    traj = _manual_traj(g, tg.nt, phi=0.3, w=0.2, v=0.1, tau=tg.tau)
    cost = CostSpec.with_zero_targets(g, tg.nt, k1=1, k2=1, k3=1, k4=1, k5=1, k6=1)
    cost.phi_q += 0.3
    cost.w_q += 0.2
    cost.wprime_q += 0.1
    cost.phi_omega += 0.3
    cost.w_omega += 0.2
    cost.wprime_omega += 0.1
    ctrl = ControlPair.zeros(g, tg.nt)
    assert cost_eval(traj, ctrl, cost, g, tg) == 0.0


def test_cost_unit_control_penalty():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=8)
    traj = _manual_traj(g, tg.nt, tau=tg.tau)
    cost = CostSpec.with_zero_targets(g, tg.nt, nu1=1.0)
    ctrl = ControlPair(np.ones((tg.nt, *g.shape)), g.zeros())
    assert cost_eval(traj, ctrl, cost, g, tg) == pytest.approx(0.5, abs=1e-14)


def test_cost_terminal_phase_term():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=4)
    traj = _manual_traj(g, tg.nt, phi=1.0, tau=tg.tau)
    cost = CostSpec.with_zero_targets(g, tg.nt, k2=1.0)
    assert cost_eval(traj, ControlPair.zeros(g, tg.nt), cost, g, tg) \
        == pytest.approx(0.5, abs=1e-14)


def test_cost_invariant_under_grid_symmetry(rng):
    # rotate every datum by 180 degrees: uniform weights make J bit-identical
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.5, nt=5)
    traj = StateTrajectory(phi=rng.standard_normal((6, 8, 8)),
                           w=rng.standard_normal((6, 8, 8)),
                           v=rng.standard_normal((6, 8, 8)), tau=tg.tau)
    cost = CostSpec.with_zero_targets(g, tg.nt, k1=1, k3=0.5, k5=0.25, k6=1,
                                      nu1=1e-2, nu2=1e-2)
    cost.phi_q = rng.standard_normal((6, 8, 8))
    ctrl = ControlPair(rng.standard_normal((5, 8, 8)), rng.standard_normal((8, 8)))
    j1 = cost_eval(traj, ctrl, cost, g, tg)

    def rot(a):
        return np.ascontiguousarray(a[..., ::-1, ::-1])

    traj2 = StateTrajectory(phi=rot(traj.phi), w=rot(traj.w), v=rot(traj.v), tau=tg.tau)
    cost2 = CostSpec.with_zero_targets(g, tg.nt, k1=1, k3=0.5, k5=0.25, k6=1,
                                       nu1=1e-2, nu2=1e-2)
    cost2.phi_q = rot(cost.phi_q)
    ctrl2 = ControlPair(rot(ctrl.u), rot(ctrl.v0))
    j2 = cost_eval(traj2, ctrl2, cost2, g, tg)
    assert j1 == j2


def test_cost_spec_rejects_all_zero_weights():
    g = build_grid(1, 1, 8, 8)
    with pytest.raises(BadParameter):
        CostSpec.with_zero_targets(g, 4)
    with pytest.raises(BadParameter):
        CostSpec.with_zero_targets(g, 4, k1=-1.0)


def test_reduced_cost_consistency_and_monotone_nu1():
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost1 = CostSpec.with_zero_targets(problem.grid, problem.time.nt, k1=1.0, nu1=1.0)
    cost2 = CostSpec.with_zero_targets(problem.grid, problem.time.nt, k1=1.0, nu1=2.0)
    rp = ReducedProblem(problem, cost1)
    j = rp.cost(ctrl)
    assert j == cost_eval(rp.state(ctrl), ctrl, cost1, problem.grid, problem.time)
    assert ReducedProblem(problem, cost2).cost(ctrl) > j


def test_reduced_cost_bit_reproducible():
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost = CostSpec.with_zero_targets(problem.grid, problem.time.nt, k1=1.0, k5=0.5, nu1=1e-3)
    j1 = ReducedProblem(problem, cost).cost(ctrl)
    j2 = ReducedProblem(problem, cost).cost(ctrl)
    assert j1 == j2


def test_gradient_assembly_zero_seeds():
    # zero tracking weights leave only the penalty parts of the gradient
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost = CostSpec.with_zero_targets(problem.grid, problem.time.nt, nu1=0.1)
    g = ReducedProblem(problem, cost).gradient(ctrl)
    assert np.allclose(g.g_u, 0.1 * ctrl.u, rtol=0, atol=1e-15)
    assert np.max(np.abs(g.g_v)) <= 1e-12


def test_project_clamps_u():
    g = build_grid(1, 1, 8, 8)
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0)
    ctrl = ControlPair(np.full((4, 8, 8), 5.0), g.zeros())
    proj = project_admissible(ctrl, aset, g)
    assert np.all(proj.u == 1.0)


def test_project_idempotent(rng):
    g = build_grid(1, 1, 8, 8)
    aset = AdmissibleSet(u_lo=-0.5, u_hi=0.75, v_lo=-0.4, v_hi=0.4, ball_radius=0.3)
    ctrl = ControlPair(rng.standard_normal((4, 8, 8)), rng.standard_normal(g.shape))
    once = project_admissible(ctrl, aset, g)
    twice = project_admissible(once, aset, g)
    assert u_norm(g, 0.1, once.u - twice.u) <= 1e-12
    assert v0_norm(g, once.v0 - twice.v0) <= 1e-12


def test_project_feasible_passthrough():
    g = build_grid(1, 1, 8, 8)
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=-1.0, v_hi=1.0, ball_radius=5.0)
    ctrl = ControlPair(np.full((4, 8, 8), 0.25), g.full(-0.5))
    proj = project_admissible(ctrl, aset, g)
    assert np.array_equal(proj.u, ctrl.u)
    assert np.array_equal(proj.v0, ctrl.v0)


def test_project_ball_active():
    g = build_grid(1, 1, 8, 8)
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=-1.0, v_hi=1.0, ball_radius=0.5)
    ctrl = ControlPair(np.zeros((4, 8, 8)), g.full(1.0))
    proj = project_admissible(ctrl, aset, g)
    assert np.all(proj.v0 >= -1.0) and np.all(proj.v0 <= 1.0)
    assert v0_norm(g, proj.v0) <= 0.5 * (1 + 1e-10)


def test_admissible_set_validation():
    with pytest.raises(BadParameter):
        AdmissibleSet(u_lo=1.0, u_hi=-1.0)
    with pytest.raises(BadParameter):
        AdmissibleSet(ball_radius=0.0)
    g = build_grid(1, 1, 8, 8)
    # box forces v0 = 1 but the ball only allows norm 0.1: empty set
    aset = AdmissibleSet(v_lo=1.0, v_hi=1.0, ball_radius=0.1)
    with pytest.raises(BadParameter):
        aset.v0_anchor(g)


def test_stationarity_zero_at_interior_zero_gradient():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    aset = AdmissibleSet(u_lo=-1, u_hi=1, v_lo=-1, v_hi=1)
    ctrl = ControlPair(np.zeros((4, 8, 8)), g.zeros())
    grad = GradientPair(np.zeros((4, 8, 8)), g.zeros())
    assert stationarity_residual(ctrl, grad, aset, g, tg, s=1.0) == 0.0


def test_stationarity_projection_formula_fixed_point(rng):
    # u = clamp(-q/nu1) is a fixed point of the projected step with s = 1/nu1
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    nu1 = 0.25
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=0.0, v_hi=0.0)
    q = rng.standard_normal((4, 8, 8))
    u = np.clip(-q / nu1, -1.0, 1.0)
    ctrl = ControlPair(u, g.zeros())
    grad = GradientPair(q + nu1 * u, g.zeros())
    res = stationarity_residual(ctrl, grad, aset, g, tg, s=1.0 / nu1)
    assert res <= 1e-10
    assert clamp_formula_residual(ctrl, grad, aset, g, tg, nu1) <= 1e-12


def test_stationarity_nonnegative(rng):
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    aset = AdmissibleSet()
    ctrl = ControlPair(rng.standard_normal((4, 8, 8)), rng.standard_normal(g.shape))
    grad = GradientPair(rng.standard_normal((4, 8, 8)), rng.standard_normal(g.shape))
    assert stationarity_residual(ctrl, grad, aset, g, tg) >= 0.0


def test_check_vi_zero_gradient_returns_zero():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    aset = AdmissibleSet(u_lo=-1, u_hi=1, v_lo=-1, v_hi=1, ball_radius=10.0)
    ctrl = ControlPair(np.zeros((4, 8, 8)), g.zeros())
    grad = GradientPair(np.zeros((4, 8, 8)), g.zeros())
    vi_min, vi_scale = check_vi(ctrl, grad, aset, g, tg, n_samples=20, seed=3)
    assert vi_min == 0.0
    assert vi_scale >= 1.0


def test_check_vi_clamped_quadratic_oracle():
    # J(u) = 0.5 ||u - c||^2 with c outside the box: minimizer is the clamp,
    # and the variational inequality holds with equality structure >= 0
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=0.0, v_hi=0.0)
    c = 2.0
    u_bar = np.clip(np.full((4, 8, 8), c), -1.0, 1.0)
    grad = GradientPair(u_bar - c, g.zeros())
    ctrl = ControlPair(u_bar, g.zeros())
    value, scale = check_vi(ctrl, grad, aset, g, tg, n_samples=40, seed=11)
    assert value >= 0.0
    assert scale >= 1.0


def _convex_reference():
    grid = build_grid(1.0, 1.0, 12, 12)
    tg = TimeGrid(t_final=0.1, nt=10)
    x, y = grid.cell_centers()
    problem = Problem(grid, tg, PhysParams(), Potential("regular"),
                      Coupling("affine", a=0.0, b=0.0),
                      InitialData(0.2 * np.cos(np.pi * x) * np.cos(np.pi * y), grid.zeros()))
    u_true = 0.4 * np.cos(np.pi * x)[None, :, :] * np.ones((tg.nt, 1, 1))
    traj = solve_state(problem, ControlPair(u_true, grid.zeros()))
    cost = CostSpec.with_zero_targets(grid, tg.nt, k5=1.0, nu1=1e-3)
    cost.wprime_q = traj.v.copy()
    aset = AdmissibleSet(u_lo=-5.0, u_hi=5.0, v_lo=0.0, v_hi=0.0)
    return problem, cost, aset


def test_optimize_convex_reaches_projection_formula():
    problem, cost, aset = _convex_reference()
    opts = OptimizeOptions(stationarity_tol=1e-10, max_iters=120, vi_samples=6,
                           solver=SolverOptions(cg_tol=1e-13))
    report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, problem.time.nt),
                      opts)
    assert report.converged
    certs = report.certificates
    assert certs.stationarity <= 1e-10
    assert certs.clamp_formula_residual <= 1e-6 * certs.clamp_formula_scale
    assert certs.vi_min >= -1e-6 * certs.vi_scale
    js = report.j_history
    assert all(js[i + 1] <= js[i] for i in range(len(js) - 1))
    assert all(r.feasible_box and r.feasible_ball for r in report.iterates)


def test_optimize_projects_infeasible_init():
    problem, cost, aset = _convex_reference()
    bad = ControlPair(np.full((problem.time.nt, *problem.grid.shape), 50.0),
                      problem.grid.full(3.0))
    opts = OptimizeOptions(stationarity_tol=1e-6, max_iters=5, vi_samples=0)
    report = optimize(problem, cost, aset, bad, opts)
    assert all(r.feasible_box and r.feasible_ball for r in report.iterates)


def test_optimize_reports_its_work():
    problem, cost, aset = _convex_reference()
    opts = OptimizeOptions(stationarity_tol=1e-10, max_iters=6, vi_samples=0)
    report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, problem.time.nt),
                      opts)
    iters = len(report.iterates) - 1
    backtracks = sum(r.armijo_backtracks for r in report.iterates)
    assert report.gradients == iters + 1
    # the initial point plus one solve per line-search trial; gradients hit the cache
    assert iters + 1 <= report.forward_solves <= 1 + iters + backtracks


# ---------------------------------------------------------------------------
# Barzilai-Borwein first trial step
# ---------------------------------------------------------------------------

def _bb_pairs(rng, grid, nt):
    x = ControlPair(rng.standard_normal((nt, *grid.shape)), rng.standard_normal(grid.shape))
    x_new = ControlPair(x.u + rng.standard_normal(x.u.shape),
                        x.v0 + rng.standard_normal(grid.shape))
    return x, x_new


@pytest.mark.parametrize("c", [4.0, 0.125])
def test_bb_step_is_inverse_curvature_on_quadratic(rng, c):
    # f = c/2 (||u||^2_L2(Q) + ||v0||^2_V) has gradient c (u, v0) in the control metric
    grid, nt, tau = build_grid(1.0, 1.0, 6, 6), 3, 0.1
    x, x_new = _bb_pairs(rng, grid, nt)
    g = GradientPair(c * x.u, c * x.v0)
    g_new = GradientPair(c * x_new.u, c * x_new.v0)
    assert _bb_step(grid, tau, x, x_new, g, g_new, accepted=0.3) == 1.0 / c


def test_bb_step_falls_back_when_curvature_not_positive(rng):
    grid, nt, tau = build_grid(1.0, 1.0, 6, 6), 3, 0.1
    x, x_new = _bb_pairs(rng, grid, nt)
    g = GradientPair(np.zeros_like(x.u), grid.zeros())
    g_new = GradientPair(x.u - x_new.u, x.v0 - x_new.v0)  # y = -s, so <s,y> < 0
    assert _bb_step(grid, tau, x, x_new, g, g_new, accepted=0.3) == 0.6


def test_bb_step_falls_back_when_quotient_not_finite():
    grid, nt, tau = build_grid(1.0, 1.0, 6, 6), 3, 0.1
    x = ControlPair.zeros(grid, nt)
    x_new = ControlPair(np.full((nt, *grid.shape), 1e200), grid.full(1e200))
    g = GradientPair(np.zeros_like(x.u), grid.zeros())
    # <s,y> > 0 but <y,y> underflows to 0
    g_new = GradientPair(np.full_like(x.u, 1e-170), grid.full(1e-170))
    assert _bb_step(grid, tau, x, x_new, g, g_new, accepted=0.3) == 0.6
    # no change of the gradient at all: <s,y> = <y,y> = 0
    assert _bb_step(grid, tau, x, x_new, g, g, accepted=0.3) == 0.6
