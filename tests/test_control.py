import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIGS, small_problem, smooth_control, zero_target_cost
from oracles import cell_centers

from thermophase import control
from thermophase.control import (AdmissibleSet, ControlPair, CostSpec, GradientPair,
                                 OptimizeOptions, ReducedProblem, _bb_step, check_vi,
                                 clamp_formula_residual, cost_eval, exact_sum, optimize,
                                 project_admissible, stationarity_residual, u_inner, u_norm,
                                 v0_inner, v0_norm)
from thermophase.config import parse_config_dict
from thermophase.errors import BadParameter, ShapeMismatch
from thermophase.grid import build_grid
from thermophase.nonlinearity import Coupling, Potential
from thermophase.sensitivity import adjoint_solve_continuous
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
    cost = zero_target_cost(g, tg.nt, k1=1, k2=1, k3=1, k4=1, k5=1, k6=1)
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
    cost = zero_target_cost(g, tg.nt, nu1=1.0)
    ctrl = ControlPair(np.ones((tg.nt, *g.shape)), g.zeros())
    assert cost_eval(traj, ctrl, cost, g, tg) == pytest.approx(0.5, abs=1e-14)


def test_cost_terminal_phase_term():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=1.0, nt=4)
    traj = _manual_traj(g, tg.nt, phi=1.0, tau=tg.tau)
    cost = zero_target_cost(g, tg.nt, k2=1.0)
    assert cost_eval(traj, ControlPair.zeros(g, tg.nt), cost, g, tg) \
        == pytest.approx(0.5, abs=1e-14)


def test_cost_invariant_under_grid_symmetry(rng):
    # rotate every datum by 180 degrees: uniform weights make J bit-identical
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.5, nt=5)
    traj = StateTrajectory(phi=rng.standard_normal((6, 8, 8)),
                           w=rng.standard_normal((6, 8, 8)),
                           v=rng.standard_normal((6, 8, 8)), tau=tg.tau)
    cost = zero_target_cost(g, tg.nt, k1=1, k3=0.5, k5=0.25, k6=1, nu1=1e-2, nu2=1e-2)
    cost.phi_q = rng.standard_normal((6, 8, 8))
    ctrl = ControlPair(rng.standard_normal((5, 8, 8)), rng.standard_normal((8, 8)))
    j1 = cost_eval(traj, ctrl, cost, g, tg)

    def rot(a):
        return np.ascontiguousarray(a[..., ::-1, ::-1])

    traj2 = StateTrajectory(phi=rot(traj.phi), w=rot(traj.w), v=rot(traj.v), tau=tg.tau)
    cost2 = zero_target_cost(g, tg.nt, k1=1, k3=0.5, k5=0.25, k6=1, nu1=1e-2, nu2=1e-2)
    cost2.phi_q = rot(cost.phi_q)
    ctrl2 = ControlPair(rot(ctrl.u), rot(ctrl.v0))
    j2 = cost_eval(traj2, ctrl2, cost2, g, tg)
    assert j1 == j2


def _sum_cases(rng):
    x = rng.standard_normal(3000) * 1e10
    return {
        "uniform": rng.uniform(-1.0, 1.0, 20000),
        "squared_normal": rng.standard_normal(20000) ** 2,
        "spread_e40": np.exp(rng.uniform(-40.0, 40.0, 20000)) * rng.choice([-1.0, 1.0], 20000),
        "cancelling": np.concatenate([x, -x, 1e-10 * rng.standard_normal(7)]),
        "subnormal": 5e-310 * rng.uniform(-1.0, 1.0, 5000),
        "subnormal_and_normal": np.concatenate([1e-320 * rng.uniform(-1.0, 1.0, 500),
                                                1e-300 * rng.uniform(-1.0, 1.0, 500)]),
        "near_the_overflow_guard": 1e300 * rng.uniform(-1.0, 1.0, 1000),
        "negative_zeros": -np.zeros(4),
        "empty": np.zeros(0),
    }


def test_exact_sum_equals_fsum_bit_for_bit(rng):
    for name, values in _sum_cases(rng).items():
        for shuffled in (values, rng.permutation(values), rng.permutation(values)):
            got, want = exact_sum(shuffled), math.fsum(shuffled.tolist())
            assert got.hex() == want.hex(), name


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(-1e300, 1e300, allow_subnormal=True), max_size=60))
def test_exact_sum_equals_fsum_property(values):
    try:
        want = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sum(np.array(values))
        return
    assert exact_sum(np.array(values)).hex() == want.hex()


@pytest.mark.parametrize("values", [[1e308, 1e308, -1e308], [1e308, 1e308],
                                    [1e308, 1e308, 1e308, -1e308]])
def test_exact_sum_overflows_where_fsum_does(values):
    with pytest.raises(OverflowError):
        math.fsum(values)
    with pytest.raises(OverflowError):
        exact_sum(np.array(values))


@pytest.mark.parametrize("values", [[np.inf, 1.0], [np.nan, 2.0], [-np.inf, -1e308],
                                    [1e308, -1e308, 1e308]])
def test_exact_sum_non_finite_and_huge_values_follow_fsum(values):
    got, want = exact_sum(np.array(values)), math.fsum(values)
    assert got.hex() == want.hex()
    with pytest.raises(ValueError, match="inf"):
        exact_sum(np.array([np.inf, -np.inf]))


def test_exact_sum_buckets_stay_below_the_exact_limit(monkeypatch, rng):
    # 2**26 high parts below 2**26, or remainders below 1 in units of 2**-27, sum below
    # 2**53 units: the largest bucket np.bincount is given is still an exact sum
    assert control._BUCKET_LIMIT * (2 ** control._HIGH_BITS - 1) < 2 ** 53
    assert control._BUCKET_LIMIT * (2 ** (53 - control._HIGH_BITS) - 1) < 2 ** 53
    # a longer array takes math.fsum's own path, to the same bits
    values = np.exp(rng.uniform(-5.0, 5.0, 1001)) * rng.choice([-1.0, 1.0], 1001)
    monkeypatch.setattr(control, "_BUCKET_LIMIT", 1000)
    monkeypatch.setattr(np, "bincount", None)  # no bucket is summed
    assert exact_sum(values).hex() == math.fsum(values.tolist()).hex()


def test_broadcast_control_is_checked_on_its_stored_node():
    g = build_grid(1, 1, 8, 8)
    node = g.zeros()
    node[3, 5] = np.nan
    row = np.zeros(8)
    row[2] = np.inf
    stored = np.zeros((6, 8, 8))
    stored[5, 7, 7] = np.nan  # a materialized u is checked at every node
    for u, v0 in ((np.broadcast_to(node, (6, 8, 8)), g.zeros()),
                  (np.broadcast_to(row, (6, 8, 8)), g.zeros()),
                  (stored, g.zeros()),
                  (np.broadcast_to(g.zeros(), (6, 8, 8)), np.broadcast_to(row, (8, 8)))):
        with pytest.raises(BadParameter, match="control entries must be finite"):
            ControlPair(u, v0)
    ctrl = ControlPair(np.broadcast_to(g.zeros(), (6, 8, 8)), g.zeros())
    assert ctrl.u.strides[0] == 0  # the view is kept, not copied


def test_spatial_distributed_target_rejected_by_cost_gradient_and_adjoint():
    # a (ny, nx) phi_q where the k1 term needs one field per node: every reader of
    # the target rejects it, none takes row n of the field as node n's target
    problem = small_problem(nx=8, nt=4)
    cost = CostSpec(k1=1.0, phi_q=np.zeros(problem.grid.shape))
    ctrl = smooth_control(problem)
    with pytest.raises(ShapeMismatch, match="phi_q"):
        ReducedProblem(problem, cost).cost(ctrl)
    with pytest.raises(ShapeMismatch, match="phi_q"):
        ReducedProblem(problem, cost).gradient(ctrl)
    with pytest.raises(ShapeMismatch, match="phi_q"):
        adjoint_solve_continuous(solve_state(problem, ctrl), problem, cost)


def test_zero_weight_targets_are_never_read(rng):
    # only phi_q given: the cost, the gradient and the continuous adjoint are those
    # of the same cost whose five zero-weight targets hold arbitrary fields
    problem = small_problem(nx=8, nt=4)
    space_time, spatial = (problem.time.nt + 1, *problem.grid.shape), problem.grid.shape
    phi_q = 0.1 * rng.standard_normal(space_time)
    only = CostSpec(k1=1.0, phi_q=phi_q)
    full = CostSpec(k1=1.0, phi_q=phi_q, w_q=rng.standard_normal(space_time),
                    wprime_q=rng.standard_normal(space_time),
                    phi_omega=rng.standard_normal(spatial), w_omega=rng.standard_normal(spatial),
                    wprime_omega=rng.standard_normal(spatial))
    ctrl = smooth_control(problem)
    rp_only, rp_full = ReducedProblem(problem, only), ReducedProblem(problem, full)
    assert rp_only.cost(ctrl) == rp_full.cost(ctrl) > 0.0
    g_only, g_full = rp_only.gradient(ctrl), rp_full.gradient(ctrl)
    assert np.array_equal(g_only.g_u, g_full.g_u) and np.array_equal(g_only.g_v, g_full.g_v)
    base = rp_only.state(ctrl)
    adj_only = adjoint_solve_continuous(base, problem, only)
    adj_full = adjoint_solve_continuous(base, problem, full)
    assert np.array_equal(adj_only.p, adj_full.p) and np.array_equal(adj_only.q, adj_full.q)
    assert np.any(adj_only.p != 0.0)


def test_cost_spec_rejects_all_zero_weights():
    g = build_grid(1, 1, 8, 8)
    with pytest.raises(BadParameter):
        zero_target_cost(g, 4)
    with pytest.raises(BadParameter):
        zero_target_cost(g, 4, k1=-1.0)


def test_reduced_cost_consistency_and_monotone_nu1():
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost1 = zero_target_cost(problem.grid, problem.time.nt, k1=1.0, nu1=1.0)
    cost2 = zero_target_cost(problem.grid, problem.time.nt, k1=1.0, nu1=2.0)
    rp = ReducedProblem(problem, cost1)
    j = rp.cost(ctrl)
    assert j == cost_eval(rp.state(ctrl), ctrl, cost1, problem.grid, problem.time)
    assert ReducedProblem(problem, cost2).cost(ctrl) > j


def test_reduced_cost_bit_reproducible():
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost = zero_target_cost(problem.grid, problem.time.nt, k1=1.0, k5=0.5, nu1=1e-3)
    j1 = ReducedProblem(problem, cost).cost(ctrl)
    j2 = ReducedProblem(problem, cost).cost(ctrl)
    assert j1 == j2


def test_gradient_assembly_zero_seeds():
    # zero tracking weights leave only the penalty parts of the gradient
    problem = small_problem(nx=10, nt=6)
    ctrl = smooth_control(problem)
    cost = zero_target_cost(problem.grid, problem.time.nt, nu1=0.1)
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
    ctrl = ControlPair(np.full((4, 8, 8), 0.25), np.full(g.shape, -0.5))
    proj = project_admissible(ctrl, aset, g)
    assert np.array_equal(proj.u, ctrl.u)
    assert np.array_equal(proj.v0, ctrl.v0)


def test_project_ball_active():
    g = build_grid(1, 1, 8, 8)
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=-1.0, v_hi=1.0, ball_radius=0.5)
    ctrl = ControlPair(np.zeros((4, 8, 8)), np.full(g.shape, 1.0))
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["u_lo", "u_hi", "v_lo", "v_hi"])
def test_admissible_set_rejects_non_finite_bounds(name, bad):
    # NaN compares false, so an order test alone lets it through
    with pytest.raises(BadParameter, match=f"C4: {name} must be finite"):
        AdmissibleSet(**{name: bad})
    with pytest.raises(BadParameter, match=f"C4: {name} must be finite"):
        AdmissibleSet(**{name: np.array([[0.0, bad]])})


def test_stationarity_zero_at_interior_zero_gradient():
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    aset = AdmissibleSet(u_lo=-1, u_hi=1, v_lo=-1, v_hi=1)
    ctrl = ControlPair(np.zeros((4, 8, 8)), g.zeros())
    grad = GradientPair(np.zeros((4, 8, 8)), g.zeros())
    assert stationarity_residual(ctrl, grad, aset, g, tg) == 0.0


def test_stationarity_projection_formula_fixed_point(rng):
    # u = clamp(-q/nu1) is a fixed point of the projected step of length 1/nu1,
    # the unit step that stationarity_residual takes when nu1 = 1
    g = build_grid(1, 1, 8, 8)
    tg = TimeGrid(t_final=0.4, nt=4)
    nu1 = 1.0
    aset = AdmissibleSet(u_lo=-1.0, u_hi=1.0, v_lo=0.0, v_hi=0.0)
    q = rng.standard_normal((4, 8, 8))
    u = np.clip(-q / nu1, -1.0, 1.0)
    ctrl = ControlPair(u, g.zeros())
    grad = GradientPair(q + nu1 * u, g.zeros())
    res = stationarity_residual(ctrl, grad, aset, g, tg)
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
    vi_min, vi_scale = check_vi(ctrl, grad, aset, g, tg)
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
    value, scale = check_vi(ctrl, grad, aset, g, tg)
    assert value >= 0.0
    assert scale >= 1.0


def _vertex_values(pairing, x, lo, hi, project=lambda y: y):
    """<g, P(y) - x> at every vertex y of the box [lo, hi] (2**x.size of them), as an
    array, with the vertices; ``pairing`` is the control metric's pairing with g."""
    bits = (np.arange(2**x.size)[:, None] >> np.arange(x.size)) & 1
    lo, hi = np.broadcast_to(lo, x.shape).ravel(), np.broadcast_to(hi, x.shape).ravel()
    ys = [project(np.where(b, hi, lo).reshape(x.shape)) for b in bits]
    return np.array([pairing(y - x) for y in ys]), ys


@pytest.mark.parametrize("case", ["scalar_bounds", "array_bounds", "ball_active"])
def test_check_vi_matches_vertex_enumeration(case, rng):
    # a linear function takes its minimum over a box at a vertex: on a 3x3 grid with
    # nt = 1, the u and v0 parts each have 2**9 vertices to enumerate
    g, tg = build_grid(1, 1, 3, 3), TimeGrid(t_final=0.4, nt=1)
    bounds = {"u_lo": -2.0, "u_hi": 2.0, "v_lo": -1.0, "v_hi": 1.0}
    if case == "array_bounds":
        bounds = {"u_lo": -1.0 - rng.random(g.shape), "u_hi": 1.0 + rng.random((1, *g.shape)),
                  "v_lo": -0.5 - rng.random(g.shape), "v_hi": rng.random(g.shape)}
    aset = AdmissibleSet(**bounds, ball_radius=0.2 if case == "ball_active" else 1e6)
    ctrl = project_admissible(ControlPair(0.1 * rng.standard_normal((1, *g.shape)),
                                          0.1 * rng.standard_normal(g.shape)), aset, g)
    grad = GradientPair(rng.standard_normal((1, *g.shape)), rng.standard_normal(g.shape))
    vi_min, vi_scale = check_vi(ctrl, grad, aset, g, tg)

    u_vals, u_ys = _vertex_values(lambda h: u_inner(g, tg.tau, grad.g_u, h), ctrl.u,
                                  aset.u_lo, aset.u_hi)
    v_vals, v_ys = _vertex_values(lambda h: v0_inner(g, grad.g_v, h), ctrl.v0,
                                  aset.v_lo, aset.v_hi)
    box_min = u_vals.min() + v_vals.min()
    if case != "ball_active":
        assert vi_min == pytest.approx(box_min, rel=1e-14, abs=0.0)
        iu, iv = np.argmin(u_vals), np.argmin(v_vals)
        dist = u_norm(g, tg.tau, u_ys[iu] - ctrl.u) + v0_norm(g, v_ys[iv] - ctrl.v0)
        assert vi_scale == pytest.approx(max(1.0, dist), rel=1e-12, abs=0.0)
        return
    # the box minimizer leaves the ball, so the ball's bound is the tighter one;
    # no feasible point, here the projected vertices, does better than vi_min
    assert v0_norm(g, v_ys[np.argmin(v_vals)]) > aset.ball_radius
    def into_k(y):
        return project_admissible(ControlPair(ctrl.u, y), aset, g).v0

    feasible, _ = _vertex_values(lambda h: v0_inner(g, grad.g_v, h), ctrl.v0, aset.v_lo,
                                 aset.v_hi, into_k)
    assert box_min < vi_min <= u_vals.min() + feasible.min()
    assert vi_scale >= 1.0


def _convex_reference():
    grid = build_grid(1.0, 1.0, 12, 12)
    tg = TimeGrid(t_final=0.1, nt=10)
    x, y = cell_centers(grid)
    problem = Problem(grid, tg, PhysParams(), Potential("regular"),
                      Coupling("affine", a=0.0, b=0.0),
                      InitialData(0.2 * np.cos(np.pi * x) * np.cos(np.pi * y), grid.zeros()))
    u_true = 0.4 * np.cos(np.pi * x)[None, :, :] * np.ones((tg.nt, 1, 1))
    traj = solve_state(problem, ControlPair(u_true, grid.zeros()))
    cost = zero_target_cost(grid, tg.nt, k5=1.0, nu1=1e-3)
    cost.wprime_q = traj.v.copy()
    aset = AdmissibleSet(u_lo=-5.0, u_hi=5.0, v_lo=0.0, v_hi=0.0)
    return problem, cost, aset


def test_optimize_convex_reaches_projection_formula():
    problem, cost, aset = _convex_reference()
    opts = OptimizeOptions(stationarity_tol=1e-10, max_iters=120,
                           solver=SolverOptions(cg_tol=1e-13))
    report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, problem.time.nt),
                      opts)
    assert report.converged
    last = report.iterates[-1]
    assert last.stationarity <= 1e-10
    scale = 1.0 + u_norm(problem.grid, problem.time.tau, report.final.u)
    assert last.clamp_formula_residual <= 1e-6 * scale
    assert report.vi_min >= -1e-6 * report.vi_scale
    js = report.j_history
    assert all(js[i + 1] <= js[i] for i in range(len(js) - 1))
    assert all(r.feasible_box and r.feasible_ball for r in report.iterates)


def test_optimize_projects_infeasible_init():
    problem, cost, aset = _convex_reference()
    bad = ControlPair(np.full((problem.time.nt, *problem.grid.shape), 50.0),
                      np.full(problem.grid.shape, 3.0))
    opts = OptimizeOptions(stationarity_tol=1e-6, max_iters=5)
    report = optimize(problem, cost, aset, bad, opts)
    assert all(r.feasible_box and r.feasible_ball for r in report.iterates)


def test_optimize_reports_its_work():
    problem, cost, aset = _convex_reference()
    opts = OptimizeOptions(stationarity_tol=1e-10, max_iters=6)
    report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, problem.time.nt),
                      opts)
    iters = len(report.iterates) - 1
    backtracks = sum(r.armijo_backtracks for r in report.iterates)
    assert report.gradients == iters + 1
    # the initial point plus one solve per line-search trial; gradients hit the cache
    assert iters + 1 <= report.forward_solves <= 1 + iters + backtracks
    assert report.hessian_products >= iters


# ---------------------------------------------------------------------------
# Gauss-Newton Hessian and the projected Newton-CG loop
# ---------------------------------------------------------------------------

TIGHT = SolverOptions(cg_tol=1e-13)


def _pairing(grid, tau, a, b):
    """<a, b> in the control metric for a GradientPair a and a ControlPair b."""
    return u_inner(grid, tau, a.g_u, b.u) + v0_inner(grid, a.g_v, b.v0)


def _random_pair(rng, grid, nt):
    return ControlPair(rng.standard_normal((nt, *grid.shape)), rng.standard_normal(grid.shape))


def test_hessian_vector_symmetric_in_control_metric(rng):
    problem = small_problem(nx=10, nt=6)
    grid, tau = problem.grid, problem.time.tau
    cost = zero_target_cost(grid, problem.time.nt, k1=1.0, k2=0.5, k3=0.3, k4=0.2, k5=1.0,
                            k6=0.7, nu1=1e-2, nu2=1e-2)
    cost.phi_q += 0.1
    ctrl = smooth_control(problem)
    rp = ReducedProblem(problem, cost, TIGHT)
    rp.cost(ctrl)
    for _ in range(3):
        a, b = _random_pair(rng, grid, problem.time.nt), _random_pair(rng, grid, problem.time.nt)
        ha, hb = rp.hessian_vector(ctrl, a), rp.hessian_vector(ctrl, b)
        lhs, rhs = _pairing(grid, tau, ha, b), _pairing(grid, tau, hb, a)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        assert _pairing(grid, tau, ha, a) > 0.0


def test_hessian_vector_matches_gradient_fd_at_zero_residual(rng):
    # targets from the run of the control itself: Gauss-Newton is the exact Hessian there
    problem = small_problem(nx=10, nt=6)
    grid, tau, nt = problem.grid, problem.time.tau, problem.time.nt
    ctrl = smooth_control(problem)
    traj = solve_state(problem, ctrl, TIGHT)
    cost = zero_target_cost(grid, nt, k1=1.0, k2=1.0, k3=0.5, k5=1.0, k6=1.0,
                            nu1=1e-3, nu2=1e-3)
    cost.phi_q, cost.w_q, cost.wprime_q = traj.phi.copy(), traj.w.copy(), traj.v.copy()
    cost.phi_omega, cost.wprime_omega = traj.phi[-1].copy(), traj.v[-1].copy()
    d = _random_pair(rng, grid, nt)
    rp = ReducedProblem(problem, cost, TIGHT)
    assert np.array_equal(rp.state(ctrl).v, cost.wprime_q)  # zero tracking residual
    hd = rp.hessian_vector(ctrl, d)
    eps = 1e-3
    gp = rp.gradient(ControlPair(ctrl.u + eps * d.u, ctrl.v0 + eps * d.v0))
    gm = rp.gradient(ControlPair(ctrl.u - eps * d.u, ctrl.v0 - eps * d.v0))
    fd = GradientPair((gp.g_u - gm.g_u) / (2 * eps), (gp.g_v - gm.g_v) / (2 * eps))
    err = math.sqrt(u_norm(grid, tau, fd.g_u - hd.g_u) ** 2 + v0_norm(grid, fd.g_v - hd.g_v) ** 2)
    size = math.sqrt(u_norm(grid, tau, hd.g_u) ** 2 + v0_norm(grid, hd.g_v) ** 2)
    assert err <= 1e-9 * size


def test_hessian_vector_never_solves_the_state(rng):
    problem = small_problem(nx=8, nt=4)
    cost = zero_target_cost(problem.grid, problem.time.nt, k1=1.0, k5=1.0, nu1=1e-3)
    ctrl = smooth_control(problem)
    rp = ReducedProblem(problem, cost)
    rp.gradient(ctrl)
    for _ in range(3):
        rp.hessian_vector(ctrl, _random_pair(rng, problem.grid, problem.time.nt))
    assert (rp.forward_solves, rp.gradients, rp.hessian_products) == (1, 1, 3)
    other = ControlPair(2.0 * ctrl.u, ctrl.v0)
    with pytest.raises(BadParameter, match="cached trajectory"):
        rp.hessian_vector(other, ctrl)
    assert rp.forward_solves == 1


def _recovery_problem(n, nt):
    """Criterion-10 physics: recover a heat source and an initial temperature, nu1 = 1e-4."""
    grid = build_grid(1.0, 1.0, n, n)
    tg = TimeGrid(t_final=0.2, nt=nt)
    x, y = cell_centers(grid)
    problem = Problem(grid, tg, PhysParams(), Potential("regular"),
                      Coupling("affine", a=-1.0, b=0.0),
                      InitialData(0.3 * np.cos(np.pi * x) * np.cos(np.pi * y), grid.zeros()))
    t = np.arange(1, nt + 1) * tg.tau
    u_true = 0.5 * (np.cos(np.pi * x) * np.cos(np.pi * y))[None] * (1 + t)[:, None, None]
    traj = solve_state(problem, ControlPair(u_true, 0.4 * np.cos(np.pi * y)))
    cost = zero_target_cost(grid, nt, k1=1.0, k2=1.0, k5=1.0, k6=1.0, nu1=1e-4)
    cost.phi_q, cost.wprime_q = traj.phi.copy(), traj.v.copy()
    cost.phi_omega, cost.wprime_omega = traj.phi[-1].copy(), traj.v[-1].copy()
    return problem, cost, AdmissibleSet(u_lo=-2.0, u_hi=2.0, v_lo=-1.0, v_hi=1.0)


def test_optimize_outer_iterations_mesh_independent():
    iters = []
    for n in (16, 32, 64):
        problem, cost, aset = _recovery_problem(n, nt=10)
        opts = OptimizeOptions(stationarity_tol=1e-6, max_iters=20)
        report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, 10), opts)
        assert report.converged
        iters.append(len(report.iterates) - 1)
    assert max(iters) - min(iters) <= 1, iters


@pytest.mark.parametrize("ball_radius", [0.3, 0.1, 0.03])
def test_optimize_converges_with_active_v0_ball(ball_radius):
    # optimize_recovery.json with v0's V-ball active: the projection of the
    # Newton path onto the ball can predict ascent, where backtracking along
    # it cannot find a decrease, so the step must fall back to the -g path
    with open(os.path.join(CONFIGS, "optimize_recovery.json")) as fh:
        raw = json.load(fh)
    raw["admissible"]["ball_radius"] = ball_radius
    cfg = parse_config_dict(raw)
    problem = cfg.problem()
    report = optimize(problem, cfg.cost_spec(problem), cfg.admissible_set(), cfg.control(),
                      replace(cfg.optimize_options(), max_iters=60))
    assert report.converged
    assert len(report.iterates) - 1 <= 6
    assert all(r.feasible_ball for r in report.iterates)


def test_switch_to_the_gradient_path_is_not_a_backtrack():
    # optimize_recovery.json with a V-ball of 0.1: at iteration 4 the Newton trial predicts
    # ascent, and the unhalved Barzilai-Borwein step along -g is accepted
    with open(os.path.join(CONFIGS, "optimize_recovery.json")) as fh:
        raw = json.load(fh)
    raw["admissible"]["ball_radius"] = 0.1
    cfg = parse_config_dict(raw)
    problem = cfg.problem()
    report = optimize(problem, cfg.cost_spec(problem), cfg.admissible_set(), cfg.control(),
                      replace(cfg.optimize_options(), max_iters=4))
    record = report.iterates[4]
    assert record.step == pytest.approx(23.5006, rel=1e-5)
    assert record.armijo_backtracks == 0


def test_optimize_falls_back_to_bb_step_without_positive_curvature(monkeypatch):
    # a Hessian with negative curvature everywhere: CG gives up on its first iteration
    # and every step is the projected-gradient step from the Barzilai-Borwein quotient
    problem, cost, aset = _convex_reference()
    calls = []

    def negative_curvature(self, control, d):
        calls.append(d)
        return GradientPair(-d.u, -d.v0)

    monkeypatch.setattr(ReducedProblem, "hessian_vector", negative_curvature)
    opts = OptimizeOptions(stationarity_tol=1e-8, max_iters=120)
    report = optimize(problem, cost, aset, ControlPair.zeros(problem.grid, problem.time.nt),
                      opts)
    assert report.converged
    assert len(calls) == len(report.iterates) - 1
    js = report.j_history
    assert all(js[i + 1] <= js[i] for i in range(len(js) - 1))


# ---------------------------------------------------------------------------
# Barzilai-Borwein step of the non-positive-curvature fallback
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
    x_new = ControlPair(np.full((nt, *grid.shape), 1e200), np.full(grid.shape, 1e200))
    g = GradientPair(np.zeros_like(x.u), grid.zeros())
    # <s,y> > 0 but <y,y> underflows to 0
    g_new = GradientPair(np.full_like(x.u, 1e-170), np.full(grid.shape, 1e-170))
    assert _bb_step(grid, tau, x, x_new, g, g_new, accepted=0.3) == 0.6
    # no change of the gradient at all: <s,y> = <y,y> = 0
    assert _bb_step(grid, tau, x, x_new, g, g, accepted=0.3) == 0.6
