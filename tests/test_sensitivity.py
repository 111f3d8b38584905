import math
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import small_problem, smooth_control, zero_target_cost
from oracles import circledast_accumulate, scalar_adjoint_backward, scalar_forward

from thermophase import grid as grid_module
from thermophase import sensitivity, state
from thermophase.control import ControlPair, u_inner, u_norm
from thermophase.errors import NoConvergence
from thermophase.grid import build_grid, inner, laplacian_neumann, norm
from thermophase.sensitivity import (TRACKING_TERMS, Perturbation, adjoint_solve_continuous,
                                     adjoint_solve_discrete, array_seed, tangent_solve,
                                     tangent_transpose, tracking_seeds, trapezoid_weights)
from thermophase.state import (PhysParams, SolverOptions, StateTrajectory, _phi_solver,
                               _thermal_solve, solve_state)

TIGHT = SolverOptions(cg_tol=1e-13)


def test_trapezoid_weights_sum_to_horizon():
    w = trapezoid_weights(10, 0.1)
    assert w[0] == w[-1] == 0.05
    assert math.fsum(w.tolist()) == pytest.approx(1.0)


def test_tangent_zero_perturbation_is_zero():
    problem = small_problem()
    base = solve_state(problem, smooth_control(problem), TIGHT)
    zero = Perturbation(np.zeros((problem.time.nt, *problem.grid.shape)),
                        problem.grid.zeros())
    lin = tangent_solve(base, problem, zero, TIGHT)
    assert np.max(np.abs(lin.xi)) == 0.0
    assert np.max(np.abs(lin.eta)) == 0.0
    assert np.max(np.abs(lin.eta_t)) == 0.0


def test_huge_theta_c_decouples_without_overflow():
    # 1/theta_c^2 is 0 here: as a float power, theta_c**2 raised OverflowError
    problem = replace(small_problem(nx=8, nt=3), params=PhysParams(theta_c=1e300))
    control = smooth_control(problem)
    base = solve_state(problem, control, TIGHT)
    lin = tangent_solve(base, problem, Perturbation(control.u, control.v0), TIGHT)
    assert np.all(np.isfinite(base.phi)) and np.all(np.isfinite(lin.xi))


def test_tangent_rebuilds_eta_as_the_running_sum_of_eta_t(rng):
    problem = small_problem()
    base = solve_state(problem, smooth_control(problem), TIGHT)
    h = rng.standard_normal((problem.time.nt, *problem.grid.shape))
    lin = tangent_solve(base, problem, Perturbation(h, rng.standard_normal(problem.grid.shape)),
                        TIGHT)
    assert [f.name for f in fields(lin)] == ["xi", "eta_t", "tau"]
    eta, tau = lin.eta, problem.time.tau
    assert eta is not lin.eta and np.all(eta[0] == 0.0)
    for n in range(problem.time.nt):
        assert np.array_equal(eta[n + 1], eta[n] + tau * lin.eta_t[n + 1])


def test_sweeps_apply_no_stencil_and_no_cosine_solve(rng, monkeypatch):
    # the tangent and its transpose take every thermal step in carried cosine coefficients
    problem = small_problem(nx=8, nt=4)
    base = solve_state(problem, smooth_control(problem), TIGHT)

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep applied the stencil or cosine_solve")

    for module in (sensitivity, state, grid_module):
        for name in ("laplacian_neumann", "cosine_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    h = rng.standard_normal((problem.time.nt, *problem.grid.shape))
    lin = tangent_solve(base, problem, Perturbation(h, rng.standard_normal(problem.grid.shape)),
                        TIGHT)
    sweep = tangent_transpose(base, problem, array_seed(problem, lin.xi, lin.eta, lin.eta_t), TIGHT)
    assert np.all(np.isfinite(sweep.h)) and np.all(np.isfinite(sweep.h0))


def test_tangent_scaling_linearity(rng):
    problem = small_problem()
    base = solve_state(problem, smooth_control(problem), TIGHT)
    h = rng.standard_normal((problem.time.nt, *problem.grid.shape))
    h0 = rng.standard_normal(problem.grid.shape)
    one = tangent_solve(base, problem, Perturbation(h, h0), TIGHT)
    three = tangent_solve(base, problem, Perturbation(3 * h, 3 * h0), TIGHT)
    scale = np.max(np.abs(three.xi))
    assert np.max(np.abs(three.xi - 3 * one.xi)) <= 1e-12 * scale
    assert np.max(np.abs(three.eta_t - 3 * one.eta_t)) <= 1e-12 * np.max(np.abs(three.eta_t))


def test_taylor_remainder_quadratic(rng):
    problem = small_problem(nx=12, nt=10)
    control = smooth_control(problem)
    base = solve_state(problem, control, TIGHT)
    h = rng.standard_normal(control.u.shape)
    h0 = rng.standard_normal(problem.grid.shape)
    lin = tangent_solve(base, problem, Perturbation(h, h0), TIGHT)
    grid, nt = problem.grid, problem.time.nt
    remainders = []
    eps_list = [1e-1, 1e-2, 1e-3]
    for eps in eps_list:
        traj = solve_state(problem, ControlPair(control.u + eps * h, control.v0 + eps * h0),
                           TIGHT)
        remainders.append(max(
            norm(grid, traj.phi[n] - base.phi[n] - eps * lin.xi[n])
            + norm(grid, traj.w[n] - base.w[n] - eps * lin.eta[n])
            + norm(grid, traj.v[n] - base.v[n] - eps * lin.eta_t[n])
            for n in range(nt + 1)))
    slopes = [math.log10(remainders[i] / remainders[i + 1]) for i in range(2)]
    assert min(slopes) >= 1.8


@pytest.mark.parametrize("potential_kind,coupling_kind,cg_tol", [
    pytest.param("regular", "affine", TIGHT.cg_tol, id="regular-affine"),
    pytest.param("logarithmic", "bounded_smooth", TIGHT.cg_tol, id="logarithmic-bounded_smooth"),
    pytest.param("regular", "affine", 1e-4, id="regular-affine-cg_tol_1e-4"),
])
def test_dot_product_identity(potential_kind, coupling_kind, cg_tol, rng, monkeypatch):
    # every sweep solve takes j fixed-point corrections, theta^(j+1) <= cg_tol and
    # theta <= 2^(1-j) (j = 0 is the bare preconditioned step): a fixed polynomial in
    # the symmetric phase Jacobian, the same in both sweeps, so the transpose is exact
    # to rounding at any cg_tol, a loose one included
    problem = small_problem(potential_kind=potential_kind, coupling_kind=coupling_kind)
    base = solve_state(problem, smooth_control(problem, u_amp=0.4), TIGHT)
    grid, nt, tau = problem.grid, problem.time.nt, problem.time.tau
    vol = grid.cell_volume
    opts = SolverOptions(cg_tol=cg_tol)
    solves = []

    def recording_phi_solver(g, step, gp, b, tol):
        res = _phi_solver(g, step, gp, b, tol)
        m = np.sort(gp.ravel())[gp.size // 2]
        solves.append((np.max(np.abs(gp - m)) / (1 / step + m), tol, res.iterations))
        return res

    monkeypatch.setattr(sensitivity, "_phi_solver", recording_phi_solver)
    for _ in range(3):
        h = rng.standard_normal((nt, *grid.shape))
        h0 = rng.standard_normal(grid.shape)
        wxi = rng.standard_normal(base.phi.shape)
        weta = rng.standard_normal(base.phi.shape)
        wth = rng.standard_normal(base.phi.shape)
        lin = tangent_solve(base, problem, Perturbation(h, h0), opts)
        sweep = tangent_transpose(base, problem, array_seed(problem, wxi, weta, wth), opts)
        lhs = vol * float(np.sum(wxi * lin.xi) + np.sum(weta * lin.eta)
                          + np.sum(wth * lin.eta_t))
        rhs = u_inner(grid, problem.time.tau, sweep.h, h) + inner(grid, sweep.h0, h0)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        bound = (u_norm(grid, tau, sweep.h) * u_norm(grid, tau, h)
                 + norm(grid, sweep.h0) * norm(grid, h0))
        assert abs(lhs - rhs) <= 1e-15 * bound
    assert len(solves) == 3 * 2 * nt
    for theta, tol, iterations in solves:
        assert tol == cg_tol and theta ** (iterations + 1) <= tol < theta ** iterations
        assert theta <= 2.0 ** (1 - iterations)


def _zero_cost(problem):
    nt = problem.time.nt
    st = np.zeros((nt + 1, *problem.grid.shape))
    sp = problem.grid.zeros()
    return SimpleNamespace(k1=0.0, k2=0.0, k3=0.0, k4=0.0, k5=0.0, k6=0.0,
                           nu1=0.0, nu2=0.0, phi_q=st, w_q=st, wprime_q=st,
                           phi_omega=sp, w_omega=sp, wprime_omega=sp)


def test_tangent_solve_nan_direction_raises():
    # the NaN reaches the phase solve of node 2 through eta_t[1]; that solve must
    # fail loudly, not hand back NaN fields
    problem = small_problem(nx=8, nt=4)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    h = np.zeros((problem.time.nt, *problem.grid.shape))
    h[0, 3, 2] = np.nan
    with pytest.raises(NoConvergence):
        tangent_solve(base, problem, Perturbation(h, problem.grid.zeros()), TIGHT)


def test_zero_cost_zero_adjoint_zero_seeds():
    problem = small_problem(nx=8, nt=6)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    cost = _zero_cost(problem)
    sweep = adjoint_solve_discrete(base, problem, cost, TIGHT)
    assert np.max(np.abs(sweep.h)) == 0.0
    assert np.max(np.abs(sweep.h0)) == 0.0
    adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
    assert np.max(np.abs(adj.p)) == 0.0
    assert np.max(np.abs(adj.q)) == 0.0


def _tracking_cost(problem):
    cost = zero_target_cost(problem.grid, problem.time.nt,
                            k1=1.0, k2=0.5, k3=0.3, k4=0.2, k5=1.0, k6=0.7)
    cost.phi_q += 0.1
    cost.wprime_q += 0.05
    cost.phi_omega += 0.2
    return cost


def _seed_arrays(cost, fields, nt, tau, targets):
    """The tracking seeds as whole space-time arrays, term by term (the reference)."""
    w = trapezoid_weights(nt, tau)[:, None, None]
    seeds = {state: np.zeros(fields["phi"].shape) for state in ("phi", "w", "v")}
    for weight, state, target, terminal in TRACKING_TERMS:
        k, x = getattr(cost, weight), fields[state]
        if k > 0.0:
            t = getattr(cost, target) if targets else 0.0
            if terminal:
                seeds[state][nt] += k * (x[nt] - t)
            else:
                seeds[state] += k * w * (x - t)
    return seeds["phi"], seeds["w"], seeds["v"]


@pytest.mark.parametrize("targets", [True, False])
def test_tracking_seeds_per_node_match_space_time_arrays(targets):
    problem = small_problem(nx=8, nt=6)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    cost = _tracking_cost(problem)
    nt, tau = problem.time.nt, problem.time.tau
    fields = {"phi": base.phi, "w": base.w, "v": base.v}
    seed = tracking_seeds(cost, base.phi, lambda: base.w, base.v, tau, targets=targets)
    reference = _seed_arrays(cost, fields, nt, tau, targets)
    for n in range(nt + 1):
        for got, want in zip(seed(n), reference):
            assert np.array_equal(got, want[n])


def test_array_seed_rejects_wrong_node_count():
    problem = small_problem(nx=8, nt=6)
    good = np.zeros((problem.time.nt + 1, *problem.grid.shape))
    with pytest.raises(ValueError, match="eta_bar"):
        array_seed(problem, good, good[:-1], good)


def test_adjoint_terminal_conditions_exact():
    problem = small_problem(nx=8, nt=6)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    cost = _tracking_cost(problem)
    adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
    nt = problem.time.nt
    vT_err = base.v[nt] - cost.wprime_omega
    p_T = cost.k2 * (base.phi[nt] - cost.phi_omega) \
        - cost.k6 * problem.coupling.pi(base.phi[nt]) * vT_err
    assert np.array_equal(adj.q[nt], cost.k6 * vT_err)
    assert np.array_equal(adj.p[nt], p_T)


def _q_source(base, cost, tau):
    """The q-source k3 (1 (*) (w - w_q)) + k5 (v - wprime_q) + k4 (w(T) - w_omega) at
    every node, each weight positive, summed in that order."""
    f_q = np.zeros(base.w.shape)
    f_q += cost.k3 * circledast_accumulate(base.w - cost.w_q, tau)
    f_q += cost.k5 * (base.v - cost.wprime_q)
    f_q += cost.k4 * (base.w[-1] - cost.w_omega)
    return f_q


def _continuous_adjoint_arrays(base, problem, cost, opts):
    """The continuous adjoint march with 1 (*) q and the q-source held at every node
    (the reference for the march that forms them one node at a time); every weight > 0."""
    grid, nt, tau = problem.grid, problem.time.nt, problem.time.tau
    params, coupling = problem.params, problem.coupling
    thc = params.theta_c
    f_q = _q_source(base, cost, tau)
    p = np.zeros(base.phi.shape)
    q = np.zeros_like(p)
    q_conv = np.zeros_like(p)
    vT_err = base.v[nt] - cost.wprime_omega
    p[nt] = (cost.k2 * (base.phi[nt] - cost.phi_omega)
             - cost.k6 * coupling.pi(base.phi[nt]) * vT_err)
    q[nt] = cost.k6 * vT_err
    for n in range(nt - 1, -1, -1):
        q_conv[n] = q_conv[n + 1] + tau * q[n + 1]
        pi_n = coupling.pi(base.phi[n])
        dpi_n = coupling.dpi(base.phi[n])
        c1 = -(2.0 / thc) * dpi_n + (base.v[n] * dpi_n) / thc**2
        c2 = pi_n / thc**2
        rhs_q = (q[n + 1] / tau + params.beta * laplacian_neumann(grid, q_conv[n])
                 + c2 * p[n + 1] + f_q[n])
        q[n] = _thermal_solve(grid, params, tau, rhs_q)
        rhs_p = p[n + 1] / tau + pi_n * (q[n + 1] - q[n]) / tau + c1 * p[n + 1]
        rhs_p = rhs_p + cost.k1 * (base.phi[n] - cost.phi_q[n])
        p[n] = _phi_solver(grid, tau, problem.potential.dgamma(base.phi[n]), rhs_p,
                           opts.cg_tol).x
    return p, q


def test_continuous_adjoint_matches_whole_array_march_bitwise(rng):
    # the tail integrals and the q-source, formed one node at a time, keep every bit
    problem = small_problem(nx=8, nt=9)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    cost = _tracking_cost(problem)
    cost.w_q += 0.1 * rng.standard_normal(cost.w_q.shape)
    cost.w_omega += 0.1 * rng.standard_normal(cost.w_omega.shape)
    assert min(cost.k3, cost.k4, cost.k5) > 0.0
    adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
    p_ref, q_ref = _continuous_adjoint_arrays(base, problem, cost, TIGHT)
    assert np.array_equal(adj.p, p_ref) and np.array_equal(adj.q, q_ref)


def test_continuous_adjoint_peak_memory():
    # p and q are the only trajectory-sized arrays the march holds: holding 1 (*) q, the
    # q-source and the tail integral of w - w_q at every node peaked near 5 trajectories
    problem = small_problem(nx=32, nt=40)
    base = solve_state(problem, smooth_control(problem), SolverOptions())
    cost = _tracking_cost(problem)
    tracemalloc.start()
    try:
        adjoint_solve_continuous(base, problem, cost, SolverOptions())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * base.phi.nbytes


def test_continuous_adjoint_rebuilds_w_once(monkeypatch):
    problem = small_problem(nx=8, nt=6)
    base = solve_state(problem, smooth_control(problem), TIGHT)
    rebuild, reads = StateTrajectory.w.fget, []
    monkeypatch.setattr(StateTrajectory, "w",
                        property(lambda traj: reads.append(1) or rebuild(traj)))
    adjoint_solve_continuous(base, problem, _tracking_cost(problem), TIGHT)  # k3, k4 > 0
    assert len(reads) == 1


def test_continuous_adjoint_matches_scalar_oracle():
    g = build_grid(1, 1, 8, 8)
    problem = small_problem(nx=8, nt=10)
    problem.initial.phi0 = np.full(g.shape, 0.4)
    problem.initial.w0 = np.full(g.shape, -0.2)
    u_vals = [0.3 * math.cos(0.5 * k) for k in range(1, 11)]
    u = np.stack([np.full(g.shape, val) for val in u_vals])
    ctrl = ControlPair(u, np.full(g.shape, 0.25))
    base = solve_state(problem, ctrl, TIGHT)
    cost = _tracking_cost(problem)
    adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
    nt, tau = problem.time.nt, problem.time.tau
    phis, ws, vs = scalar_forward(problem.potential, problem.coupling, problem.params,
                                  0.4, -0.2, 0.25, u_vals, tau)
    scalars = {"k1": 1.0, "k2": 0.5, "k3": 0.3, "k4": 0.2, "k5": 1.0, "k6": 0.7,
               "phi_q": [0.1] * (nt + 1), "w_q": [0.0] * (nt + 1),
               "wprime_q": [0.05] * (nt + 1), "phi_omega": 0.2, "w_omega": 0.0,
               "wprime_omega": 0.0}
    p_ref, q_ref = scalar_adjoint_backward(problem.potential, problem.coupling,
                                           problem.params, phis, ws, vs, scalars, tau)
    for n in range(nt + 1):
        assert np.max(np.abs(adj.p[n] - p_ref[n])) <= 1e-10
        assert np.max(np.abs(adj.q[n] - q_ref[n])) <= 1e-10


def test_continuous_adjoint_residual_shrinks_under_refinement():
    """Substituting (p, q) into an unlagged discretization leaves O(tau) residuals."""

    def residual_norms(nx, nt):
        problem = small_problem(nx=nx, nt=nt, t_final=0.2)
        control = smooth_control(problem)
        base = solve_state(problem, control, TIGHT)
        cost = _tracking_cost(problem)
        adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
        grid = problem.grid
        tau = problem.time.tau
        thc = problem.params.theta_c
        alpha, beta = problem.params.alpha, problem.params.beta
        q_conv, f_q = circledast_accumulate(adj.q, tau), _q_source(base, cost, tau)
        total_p, total_q = 0.0, 0.0
        for n in range(nt):
            phi_n, v_n = base.phi[n], base.v[n]
            pi_n = problem.coupling.pi(phi_n)
            dpi_n = problem.coupling.dpi(phi_n)
            dq = (adj.q[n + 1] - adj.q[n]) / tau
            rp = (-(adj.p[n + 1] - adj.p[n]) / tau - pi_n * dq
                  - laplacian_neumann(grid, adj.p[n])
                  + problem.potential.dgamma(phi_n) * adj.p[n]
                  + (2.0 / thc) * dpi_n * adj.p[n]
                  - v_n * dpi_n * adj.p[n] / thc**2
                  - cost.k1 * (phi_n - cost.phi_q[n]))
            rq = (-(adj.q[n + 1] - adj.q[n]) / tau
                  - alpha * laplacian_neumann(grid, adj.q[n])
                  - beta * laplacian_neumann(grid, q_conv[n])
                  - pi_n * adj.p[n] / thc**2 - f_q[n])
            total_p += tau * norm(grid, rp) ** 2
            total_q += tau * norm(grid, rq) ** 2
        return math.sqrt(total_p) + math.sqrt(total_q)

    coarse = residual_norms(12, 12)
    fine = residual_norms(24, 24)
    assert math.log2(coarse / fine) >= 0.8


def test_discrete_seeds_match_fd_of_cost(rng):
    from thermophase.control import ReducedProblem, u_inner, v0_inner

    problem = small_problem(nx=10, nt=8)
    control = smooth_control(problem)
    cost = _tracking_cost(problem)
    cost.nu1, cost.nu2 = 1e-2, 1e-2
    opts = SolverOptions(cg_tol=1e-13, newton_tol=1e-12)
    rp = ReducedProblem(problem, cost, opts)
    g = rp.gradient(control)
    h = rng.standard_normal(control.u.shape)
    h0 = rng.standard_normal(problem.grid.shape)
    pairing = u_inner(problem.grid, problem.time.tau, g.g_u, h) \
        + v0_inner(problem.grid, g.g_v, h0)
    eps = 1e-4
    jp = ReducedProblem(problem, cost, opts).cost(
        ControlPair(control.u + eps * h, control.v0 + eps * h0))
    jm = ReducedProblem(problem, cost, opts).cost(
        ControlPair(control.u - eps * h, control.v0 - eps * h0))
    fd = (jp - jm) / (2 * eps)
    assert abs(fd - pairing) <= 1e-8 * abs(pairing)


def test_transpose_multipliers_track_continuous_adjoint(monkeypatch):
    problem = small_problem(nx=16, nt=40, t_final=0.2)
    control = smooth_control(problem)
    base = solve_state(problem, control, TIGHT)
    cost = _tracking_cost(problem)
    # the reverse sweep's phase solves come in node order nt..1; each returns
    # tau times that node's phase-equation multiplier
    solves = []

    def recording_phi_solver(*args):
        res = _phi_solver(*args)
        solves.append(res.x)
        return res

    with monkeypatch.context() as m:
        m.setattr(sensitivity, "_phi_solver", recording_phi_solver)
        sweep = adjoint_solve_discrete(base, problem, cost, TIGHT)
    assert len(solves) == problem.time.nt
    adj = adjoint_solve_continuous(base, problem, cost, TIGHT)
    tau = problem.time.tau
    p_like = np.stack(solves[::-1]) / tau
    rel_q = (u_norm(problem.grid, tau, sweep.h - adj.q[1:])
             / u_norm(problem.grid, tau, adj.q[1:]))
    rel_p = (u_norm(problem.grid, tau, p_like - adj.p[1:])
             / u_norm(problem.grid, tau, adj.p[1:]))
    assert rel_q <= 0.15
    assert rel_p <= 0.15
