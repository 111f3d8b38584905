"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated sizes and tolerances; where a criterion leaves
the configuration open (grid size, horizon, weights), the reference configs
below pin it.  Everything is deterministic for a fixed seed.
"""

import glob
import math

import numpy as np
import pytest

from conftest import march_records, zero_target_cost
from oracles import cell_centers, scalar_forward

from thermophase.cli import run_command
from thermophase.config import parse_config_dict
from thermophase.control import AdmissibleSet, ControlPair, OptimizeOptions, optimize, u_inner
from thermophase.grid import build_grid, inner, laplacian_neumann, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.sensitivity import Perturbation, array_seed, tangent_solve, tangent_transpose
from thermophase.state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                               solve_state)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def _get(report, name):
    for c in report.criteria:
        if c.name == name:
            return c
    raise KeyError(name)


# ---------------------------------------------------------------------------
# 1. Laplacian consistency
# ---------------------------------------------------------------------------

def test_criterion_01_laplacian_consistency():
    errs = []
    for nx in (32, 64, 128):
        g = build_grid(1, 1, nx, nx)
        x, y = cell_centers(g)
        f = np.cos(np.pi * x) * np.cos(np.pi * y)
        errs.append(norm(g, laplacian_neumann(g, f) + 2 * np.pi**2 * f))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    g = build_grid(1, 1, 16, 16)
    worst = 0.0
    for seed in range(5):
        f = np.random.default_rng(seed).uniform(-1, 1, g.shape)
        mean = g.cell_volume * math.fsum(laplacian_neumann(g, f).ravel().tolist())
        worst = max(worst, abs(mean) / norm(g, f))
    ok = min(orders) >= 1.9 and worst <= 1e-13
    _report(1, "laplacian_consistency", ok,
            f"orders={orders[0]:.3f},{orders[1]:.3f}; mean_zero={worst:.2e}")


# ---------------------------------------------------------------------------
# 2. Discrete internal-energy balance (both potentials, 64^2, nt = 200)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("potential", ["regular", "logarithmic"])
def test_criterion_02_energy_balance(potential):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 64, "ny": 64},
        "time": {"t_final": 0.25, "nt": 200},
        "potential": {"kind": potential},
        "initial": {"phi0": {"cosine": {"amplitude": 0.5}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5, "ramp": 1.0}}, "v0": 0.1},
        "solver": {"cg_tol": 1e-12},
    })
    records = march_records(cfg.problem(), cfg.control(), cfg.solver_options())
    worst = max(abs(r.energy_residual) / r.balance_scale for r in records[1:])
    _report(2, f"energy_balance[{potential}]", worst <= 1e-10, f"max={worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Homogeneous-state 0-D oracle
# ---------------------------------------------------------------------------

def test_criterion_03_homogeneous_oracle():
    g = build_grid(1, 1, 16, 16)
    tg = TimeGrid(t_final=0.3, nt=30)
    pot = Potential("regular")
    cpl = Coupling("affine", a=-1.0, b=0.0)
    problem = Problem(g, tg, PhysParams(), pot, cpl,
                      InitialData(np.full(g.shape, 0.4), np.full(g.shape, -0.2)))
    u_vals = [0.5 * math.sin(1.0 + 0.37 * k) for k in range(1, tg.nt + 1)]
    ctrl = ControlPair(np.stack([np.full(g.shape, v) for v in u_vals]), np.full(g.shape, 0.25))
    opts = SolverOptions(cg_tol=1e-13, newton_tol=1e-12)
    traj = solve_state(problem, ctrl, opts)
    phis, ws, vs = scalar_forward(pot, cpl, problem.params, 0.4, -0.2, 0.25, u_vals, tg.tau)
    worst = max(max(np.max(np.abs(traj.phi[n] - phis[n])),
                    np.max(np.abs(traj.w[n] - ws[n])),
                    np.max(np.abs(traj.v[n] - vs[n]))) for n in range(tg.nt + 1))
    _report(3, "homogeneous_oracle", worst <= 1e-10, f"max_abs_diff={worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Separation property of the reference logarithmic run
# ---------------------------------------------------------------------------

def test_criterion_04_separation(tmp_path):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32},
        "time": {"t_final": 0.25, "nt": 50},
        "potential": {"kind": "logarithmic", "kappa": 1.0},
        "initial": {"phi0": {"cosine": {"amplitude": 0.9}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 1.0}}, "v0": 0.2},
    })
    problem = cfg.problem()
    assert float(np.max(np.abs(problem.initial.phi0))) <= 0.9
    assert float(np.max(np.abs(cfg.control().u))) <= 1.0
    report = run_command("simulate", cfg, out_dir=str(tmp_path / "sim"))
    margin, quiet = _get(report, "separation_margin"), _get(report, "domain_guard_quiet")
    ok = margin.value >= 0.01 and quiet.value == 1.0
    bounds = np.loadtxt(tmp_path / "sim" / "diagnostics.csv", delimiter=",", skiprows=1,
                        usecols=(2, 3))  # min_phi, max_phi per node
    _report(4, "separation", ok,
            f"bounds=[{bounds[:, 0].min():.4f},{bounds[:, 1].max():.4f}] "
            f"margin={margin.value:.4f} guard_quiet={quiet.value:g}")


# ---------------------------------------------------------------------------
# 5 & 7. Taylor test and FD-vs-adjoint gradient (grad_check driver, 32^2, nt=50)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grad_check_report(tmp_path_factory):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32},
        "time": {"t_final": 0.25, "nt": 50},
        "initial": {"phi0": {"cosine": {"amplitude": 0.3}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5, "ramp": 1.0}}, "v0": 0.2},
        "cost": {"k1": 1.0, "k2": 0.5, "k5": 1.0, "k6": 0.5, "nu1": 1e-2, "nu2": 1e-2,
                 "targets": {"phi_q": 0.1, "wprime_q": {"cosine": {"amplitude": 0.2}}}},
        "solver": {"cg_tol": 1e-13, "newton_tol": 1e-12, "seed": 5},
        "grad_check": {"epsilons": [1e-1, 1e-2, 1e-3], "n_directions": 5,
                       "fd_steps": [1e-2, 1e-3, 1e-4]},
    })
    out = tmp_path_factory.mktemp("grad_check")
    return run_command("grad_check", cfg, out_dir=str(out))


def test_criterion_05_taylor_slope(grad_check_report):
    c = _get(grad_check_report, "taylor_slope")
    _report(5, "taylor_slope", c.passed and c.value >= 1.8, f"slope={c.value:.3f}")


def test_criterion_07_gradient_vs_fd(grad_check_report):
    c = _get(grad_check_report, "fd_vs_adjoint")
    _report(7, "gradient_vs_fd", c.passed and c.value <= 1e-6,
            f"max_rel_err={c.value:.2e}")


# ---------------------------------------------------------------------------
# 6. Adjoint dot test across the 2 x 2 configuration matrix
# ---------------------------------------------------------------------------

def test_criterion_06_dot_test_matrix():
    worst = 0.0
    rng = np.random.default_rng(99)
    for pot_kind in ("regular", "logarithmic"):
        for cpl_kind in ("affine", "bounded_smooth"):
            g = build_grid(1, 1, 16, 16)
            tg = TimeGrid(t_final=0.15, nt=12)
            pot = Potential(pot_kind)
            cpl = (Coupling("affine", a=-1.0, b=0.0) if cpl_kind == "affine"
                   else Coupling("bounded_smooth", c=1.0))
            x, y = cell_centers(g)
            phi0 = 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y)
            problem = Problem(g, tg, PhysParams(), pot, cpl,
                              InitialData(phi0, 0.1 * np.cos(np.pi * x)))
            t = np.arange(1, tg.nt + 1) * tg.tau
            u = 0.4 * np.cos(np.pi * x)[None] * (1 + t)[:, None, None]
            ctrl = ControlPair(u, 0.2 * np.cos(np.pi * y))
            opts = SolverOptions(cg_tol=1e-13)
            base = solve_state(problem, ctrl, opts)
            vol = g.cell_volume
            for _ in range(10):
                h = rng.standard_normal(u.shape)
                h0 = rng.standard_normal(g.shape)
                wxi = rng.standard_normal(base.phi.shape)
                weta = rng.standard_normal(base.phi.shape)
                wth = rng.standard_normal(base.phi.shape)
                lin = tangent_solve(base, problem, Perturbation(h, h0), opts)
                sweep = tangent_transpose(base, problem, array_seed(problem, wxi, weta, wth),
                                           opts)
                lhs = vol * float(np.sum(wxi * lin.xi) + np.sum(weta * lin.eta)
                                  + np.sum(wth * lin.eta_t))
                rhs = u_inner(g, tg.tau, sweep.h, h) + inner(g, sweep.h0, h0)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(6, "dot_test_matrix", worst <= 1e-10, f"max_rel_mismatch={worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Continuous-adjoint fidelity under refinement (adjoint_test driver)
# ---------------------------------------------------------------------------

def test_criterion_08_continuous_adjoint(tmp_path):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 16, "ny": 16},
        "time": {"t_final": 0.2, "nt": 20},
        "initial": {"phi0": {"cosine": {"amplitude": 0.3}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5, "ramp": 1.0}}, "v0": 0.2},
        "cost": {"k1": 1.0, "k2": 0.5, "k3": 0.3, "k4": 0.2, "k5": 1.0, "k6": 0.7,
                 "targets": {"phi_q": 0.1, "wprime_q": 0.05, "phi_omega": 0.2}},
        "adjoint_test": {"n_trials": 2, "levels": [[16, 20], [32, 40], [64, 80]]},
        "solver": {"seed": 2},
    })
    report = run_command("adjoint_test", cfg, out_dir=str(tmp_path / "adj"))
    gap = _get(report, "adjoint_gap")
    order = _get(report, "adjoint_gap_order")
    ok = gap.value <= 5e-2 and order.value >= 0.8
    _report(8, "continuous_adjoint",
            ok, f"gap@tau=2.5e-3: {gap.value:.4f}, order={order.value:.2f}")


# ---------------------------------------------------------------------------
# 9. Optimality certificates on the convex (pi == 0) reference problem
# ---------------------------------------------------------------------------

def test_criterion_09_certificates(tmp_path):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 16, "ny": 16},
        "time": {"t_final": 0.1, "nt": 20},
        "coupling": {"kind": "affine", "a": 0.0, "b": 0.0},
        "initial": {"phi0": {"cosine": {"amplitude": 0.2}}, "w0": 0.0},
        "control": {"u": 0.0, "v0": 0.0},
        "admissible": {"u_lo": -5.0, "u_hi": 5.0, "v_lo": 0.0, "v_hi": 0.0},
        "cost": {"k5": 1.0, "nu1": 1e-3,
                 "targets": {"from_run": {"u": {"cosine": {"amplitude": 0.4, "ky": 0}},
                                          "v0": 0.0}}},
        "solver": {"stationarity_tol": 1e-10, "max_iters": 200, "cg_tol": 1e-13, "seed": 3},
        "optimize": {"clamp_formula_tol": 1e-6, "vi_tol": 1e-6},
    })
    report = run_command("optimize", cfg, out_dir=str(tmp_path / "opt"))
    stat = _get(report, "stationarity")
    cfr = _get(report, "clamp_formula_residual")
    vi = _get(report, "vi_min")
    iters = sum(1 for _ in open(tmp_path / "opt" / "history.csv")) - 1
    ok = (stat.value <= 1e-6 and stat.passed and cfr.passed and vi.passed
          and iters <= 200)
    _report(9, "optimality_certificates", ok,
            f"stationarity={stat.value:.2e} clamp_formula={cfr.value:.2e} "
            f"vi_min={vi.value:.2e} iters={iters}")


# ---------------------------------------------------------------------------
# 10. Target recovery with nu1 = 1e-4
# ---------------------------------------------------------------------------

def test_criterion_10_target_recovery():
    grid = build_grid(1.0, 1.0, 16, 16)
    tg = TimeGrid(t_final=0.2, nt=20)
    x, y = cell_centers(grid)
    problem = Problem(grid, tg, PhysParams(), Potential("regular"),
                      Coupling("affine", a=-1.0, b=0.0),
                      InitialData(0.3 * np.cos(np.pi * x) * np.cos(np.pi * y), grid.zeros()))
    t = np.arange(1, tg.nt + 1) * tg.tau
    u_true = 0.5 * (np.cos(np.pi * x) * np.cos(np.pi * y))[None] * (1 + t)[:, None, None]
    v0_true = 0.4 * np.cos(np.pi * y)
    traj = solve_state(problem, ControlPair(u_true, v0_true))
    cost = zero_target_cost(grid, tg.nt, k1=1.0, k2=1.0, k5=1.0, k6=1.0, nu1=1e-4)
    cost.phi_q = traj.phi.copy()
    cost.wprime_q = traj.v.copy()
    cost.phi_omega = traj.phi[-1].copy()
    cost.wprime_omega = traj.v[-1].copy()
    aset = AdmissibleSet(u_lo=-2.0, u_hi=2.0, v_lo=-1.0, v_hi=1.0)
    opts = OptimizeOptions(stationarity_tol=1e-9, max_iters=200)
    report = optimize(problem, cost, aset, ControlPair.zeros(grid, tg.nt), opts)
    js = report.j_history
    monotone = all(js[i + 1] <= js[i] for i in range(len(js) - 1))
    stat = report.iterates[-1].stationarity
    # inner CG stops at half the outer tolerance; without that floor it took 155 products
    ok = (js[-1] <= js[0] / 10.0 and monotone and len(js) <= 201
          and report.converged and stat <= 1e-9 and report.hessian_products < 155)
    _report(10, "target_recovery", ok,
            f"J0={js[0]:.3e} Jfinal={js[-1]:.3e} ratio={js[0] / js[-1]:.1f} "
            f"iters={len(js) - 1} monotone={monotone} converged={report.converged} "
            f"stationarity={stat:.2e} hessian_products={report.hessian_products}")


# ---------------------------------------------------------------------------
# 11. Continuous dependence on the data
# ---------------------------------------------------------------------------

def test_criterion_11_continuous_dependence(tmp_path):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 24, "ny": 24},
        "time": {"t_final": 0.25, "nt": 24},
        "initial": {"phi0": {"cosine": {"amplitude": 0.4}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5}}, "v0": 0.2},
        "cont_dependence": {"deltas": [1e-1, 1e-2, 1e-3, 1e-4]},
    })
    report = run_command("cont_dependence", cfg, out_dir=str(tmp_path / "cd"))
    lo = _get(report, "cd_slope_low")
    ok = lo.passed and _get(report, "cd_slope_high").passed
    _report(11, "continuous_dependence", ok, f"slope={lo.value:.4f} in [0.9, 1.1]")


# ---------------------------------------------------------------------------
# 12. Determinism: byte-identical CSVs for every subcommand
# ---------------------------------------------------------------------------

def _determinism_configs():
    base = {
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 10, "ny": 10},
        "time": {"t_final": 0.1, "nt": 5},
        "initial": {"phi0": {"cosine": {"amplitude": 0.3}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.4}}, "v0": 0.1},
        "cost": {"k1": 1.0, "k5": 1.0, "nu1": 1e-2, "nu2": 1e-2,
                 "targets": {"phi_q": 0.1}},
        "solver": {"seed": 13},
        "output": {"snapshot_stride": 2},
    }
    grad = {**base, "grad_check": {"epsilons": [1e-1, 1e-2], "n_directions": 2,
                                   "fd_steps": [1e-2, 1e-3]}}
    adj = {**base, "adjoint_test": {"n_trials": 3, "levels": [[8, 4], [10, 5]]}}
    opt = {**base,
           "coupling": {"kind": "affine", "a": 0.0, "b": 0.0},
           "admissible": {"u_lo": -5.0, "u_hi": 5.0, "v_lo": 0.0, "v_hi": 0.0},
           "cost": {"k5": 1.0, "nu1": 1e-3,
                    "targets": {"from_run": {"u": 0.3, "v0": 0.0}}},
           "solver": {"seed": 13, "max_iters": 5}}
    conv = {**base, "convergence": {"spatial_levels": [4, 8], "spatial_ref_nx": 16,
                                    "spatial_nt": 3,
                                    "temporal_nts": [2, 4], "temporal_ref_nt": 8,
                                    "temporal_nx": 10}}
    cd = {**base, "cont_dependence": {"deltas": [1e-1, 1e-2]}}
    return {"simulate": base, "grad_check": grad, "adjoint_test": adj,
            "optimize": opt, "convergence": conv, "cont_dependence": cd}


def test_criterion_12_determinism(tmp_path):
    mismatches = []
    for cmd, raw in _determinism_configs().items():
        cfg = parse_config_dict(raw)
        run_command(cmd, cfg, out_dir=str(tmp_path / cmd / "a"), seed=13)
        run_command(cmd, cfg, out_dir=str(tmp_path / cmd / "b"), seed=13)
        csvs_a = sorted(glob.glob(str(tmp_path / cmd / "a" / "**" / "*.csv"),
                                  recursive=True))
        assert csvs_a, f"{cmd}: no CSV artifacts written"
        for path_a in csvs_a:
            path_b = path_a.replace(f"{cmd}/a", f"{cmd}/b", 1)
            if open(path_a, "rb").read() != open(path_b, "rb").read():
                mismatches.append(path_a)
    _report(12, "determinism", not mismatches, f"mismatched={mismatches}")
