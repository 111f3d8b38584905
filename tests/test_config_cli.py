import json
import os
from dataclasses import fields

import numpy as np
import pytest

from thermophase import config
from thermophase.cli import main, run_command
from thermophase.config import build_field, parse_config, parse_config_dict
from thermophase.control import AdmissibleSet, OptimizeOptions
from thermophase.errors import NewtonDivergence, ParseError, StepError, ValidationError
from thermophase.grid import build_grid, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.snapshots import read_field, write_field
from thermophase.state import PhysParams, SolverOptions, solve_state


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = {"grid": {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8},
           "time": {"t_final": 0.1, "nt": 4}}


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    assert cfg.problem().params.alpha == 1.0 and cfg.problem().params.beta == 1.0
    assert cfg.problem().params.theta_c == 1.0
    assert cfg.problem().potential.kind == "regular"
    cpl = cfg.problem().coupling
    assert cpl.kind == "affine" and cpl.a == -1.0 and cpl.b == 0.0
    # the config defaults are the constructors' defaults
    assert cfg.problem().params == PhysParams()
    assert cfg.problem().potential == Potential()
    assert cfg.problem().coupling == Coupling()
    assert cfg.solver_options() == SolverOptions()
    assert cfg.optimize_options() == OptimizeOptions()
    adm, default = cfg.admissible_set(), AdmissibleSet()
    assert all(getattr(adm, f.name) == getattr(default, f.name) for f in fields(AdmissibleSet))


def test_field_builder_matches_per_node_builds(tmp_path, rng):
    grid, tau, nodes = build_grid(1.5, 1.0, 12, 8), 0.03, range(1, 6)
    snap = str(tmp_path / "f.cgw")
    write_field(snap, rng.standard_normal(grid.shape))
    x, y = grid.cell_centers()
    mode = np.cos(2.0 * np.pi * x / grid.lx) * np.cos(1.0 * np.pi * y / grid.ly)
    per_node = {
        "cosine": lambda t: 0.25 + 0.7 * (1.0 + -1.5 * t) * mode,
        "const": lambda t: np.full(grid.shape, -0.375),
        "snapshot": lambda t: read_field(snap),
    }
    specs = {"cosine": {"cosine": {"amplitude": 0.7, "kx": 2, "offset": 0.25, "ramp": -1.5}},
             "const": {"const": -0.375}, "snapshot": {"snapshot": snap}}
    for key, spec in specs.items():
        built = build_field(spec, grid, nodes, tau)
        assert built.shape == (len(nodes),) + grid.shape
        for i, n in enumerate(nodes):
            assert np.array_equal(built[i], per_node[key](n * tau)), (key, n)
            assert np.array_equal(built[i], build_field(spec, grid, [n], tau)[0]), (key, n)
        assert np.array_equal(build_field(spec, grid), per_node[key](0.0)), key


def test_space_time_snapshot_is_read_once(tmp_path, rng, monkeypatch):
    snap = str(tmp_path / "u.cgw")
    write_field(snap, rng.standard_normal((8, 8)))
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_field(path)

    monkeypatch.setattr(config, "read_field", counting_read)
    cfg = parse_config_dict({**MINIMAL, "control": {"u": {"snapshot": snap}}})
    assert reads == [snap]
    assert np.array_equal(cfg.control().u, np.stack([read_field(snap)] * 4))


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(str(path))


def test_alpha_zero_names_assumption(tmp_path):
    cfg = dict(MINIMAL)
    cfg["params"] = {"alpha": 0.0}
    with pytest.raises(ValidationError, match="A1"):
        parse_config(_write(tmp_path, cfg))


def test_unknown_keys_rejected(tmp_path):
    cfg = dict(MINIMAL)
    cfg["grid"] = {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8, "nz": 8}
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_config(_write(tmp_path, cfg))
    cfg = dict(MINIMAL)
    cfg["extra_block"] = {}
    with pytest.raises(ValidationError, match="unknown keys"):
        parse_config(_write(tmp_path, cfg))


def test_all_zero_cost_names_assumption(tmp_path):
    cfg = dict(MINIMAL)
    cfg["cost"] = {"k1": 0.0}
    with pytest.raises(ValidationError, match="C2"):
        parse_config(_write(tmp_path, cfg))


def test_exterior_phi0_rejected_for_logarithmic(tmp_path):
    cfg = dict(MINIMAL)
    cfg["potential"] = {"kind": "logarithmic"}
    cfg["initial"] = {"phi0": 1.5, "w0": 0.0}
    with pytest.raises(ValidationError):
        parse_config(_write(tmp_path, cfg))


def test_snapshot_field_spec(tmp_path, rng):
    f = rng.standard_normal((8, 8))
    snap = tmp_path / "phi0.cgw"
    write_field(str(snap), f)
    cfg = dict(MINIMAL)
    cfg["initial"] = {"phi0": {"snapshot": str(snap)}, "w0": 0.0}
    parsed = parse_config(_write(tmp_path, cfg))
    assert np.array_equal(parsed.problem().initial.phi0, f)


def test_echo_roundtrip_fixpoint(tmp_path):
    cfg = parse_config(_write(tmp_path, {
        **MINIMAL,
        "potential": {"kind": "logarithmic", "kappa": 2.0},
        "initial": {"phi0": {"cosine": {"amplitude": 0.5}}, "w0": 0.25},
        "cost": {"k1": 1.0, "nu1": 0.5},
    }))
    rep = run_command("simulate", cfg, out_dir=str(tmp_path / "out"))
    echoed = parse_config(str(tmp_path / "out" / "effective_config.json"))
    assert echoed.raw == cfg.raw


def test_from_run_targets_make_zero_cost(tmp_path):
    cfg = parse_config(_write(tmp_path, {
        **MINIMAL,
        "control": {"u": 0.3, "v0": 0.1},
        "cost": {"k1": 1.0, "k5": 1.0,
                 "targets": {"from_run": {"u": 0.3, "v0": 0.1}}},
    }))
    problem = cfg.problem()
    cost = cfg.cost_spec(problem)
    from thermophase.control import ReducedProblem

    j = ReducedProblem(problem, cost, cfg.solver_options()).cost(cfg.control())
    assert j <= 1e-22  # trajectory equals its own targets up to solver noise


def test_run_command_simulate_exit_zero(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    rep = run_command("simulate", cfg, out_dir=str(tmp_path / "out"))
    assert rep.code == 0
    assert os.path.exists(tmp_path / "out" / "summary.txt")
    header = open(tmp_path / "out" / "diagnostics.csv").readline().strip()
    assert header == ("step,time,min_phi,max_phi,l2_phi,v_l2,v_linf,"
                      "newton_iters,cg_iters,energy_residual,cumulative_balance_residual")


def test_simulate_node_columns_come_from_the_trajectory(tmp_path):
    cfg = parse_config_dict({**MINIMAL, "initial": {"phi0": {"cosine": {"amplitude": 0.5}},
                                                    "w0": 0.0},
                             "control": {"u": {"cosine": {"amplitude": 0.4}}, "v0": 0.2}})
    run_command("simulate", cfg, out_dir=str(tmp_path / "out"))
    with open(tmp_path / "out" / "diagnostics.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    traj = solve_state(cfg.problem(), cfg.control(), cfg.solver_options())
    grid = cfg.problem().grid
    assert len(rows) == traj.nt + 1
    for n, row in enumerate(rows):
        phi, v = traj.phi[n], traj.v[n]
        assert [float(x) for x in row[2:7]] == [
            float(np.min(phi)), float(np.max(phi)), norm(grid, phi), norm(grid, v),
            float(np.max(np.abs(v)))]


def test_main_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, {**MINIMAL, "params": {"alpha": -1.0}}, "bad.json")
    assert main(["simulate", "--config", bad]) == 2
    capsys.readouterr()


# keys that solver internals and criterion thresholds had before they became
# constants of the code, with their old default values
RETIRED_KEYS = [
    ("solver", "newton_maxit", 30), ("solver", "newton_max_damping", 40),
    ("solver", "armijo_c", 1e-4), ("solver", "armijo_shrink", 0.5),
    ("solver", "armijo_max_backtracks", 60), ("solver", "stationarity_step", 1.0),
    ("grad_check", "taylor_slope_min", 1.8), ("grad_check", "fd_rel_tol", 1e-6),
    ("adjoint_test", "dot_tol", 1e-10), ("adjoint_test", "gap_tol", 5e-2),
    ("adjoint_test", "order_min", 0.8), ("convergence", "lap_order_min", 1.9),
    ("convergence", "spatial_order_min", 1.9), ("convergence", "temporal_order_min", 0.9),
    ("cont_dependence", "slope_min", 0.9), ("cont_dependence", "slope_max", 1.1),
]


def _truncated_phi0(tmp_path):
    snap = tmp_path / "phi0.cgw"
    write_field(str(snap), np.zeros((8, 8)))
    snap.write_bytes(snap.read_bytes()[:100])
    return {"initial": {"phi0": {"snapshot": str(snap)}}}


@pytest.mark.parametrize("blocks,cause", [
    (lambda p: {"potential": {"interior_margin": 2.0}}, "interior_margin"),
    (lambda p: {"admissible": {"u_lo": 1.0, "u_hi": -1.0}}, "u_lo"),
    (lambda p: {"grid": {"lx": 1.0, "ly": 2.0, "nx": 8, "ny": 8}}, "square"),
    (_truncated_phi0, "phi0.cgw"),
    (lambda p: {"grad_check": {"n_directions": "five"}}, "grad_check.n_directions"),
    (lambda p: {"solver": {"cg_tol": True}}, "solver.cg_tol"),
    (lambda p: {"params": {"alpha": True}}, "params.alpha"),
    (lambda p: {"grid": {"lx": 1.0, "ly": 1.0, "nx": 8.0, "ny": 8}}, "grid.nx"),
    (lambda p: {"adjoint_test": {"levels": [8, 4]}}, "adjoint_test.levels"),
    (lambda p: {"grad_check": {"epsilons": [[0.1, 0.2]]}}, "grad_check.epsilons"),
    (lambda p: {"cont_dependence": {"deltas": [[0.1, 0.01]]}}, "cont_dependence.deltas"),
    (lambda p: {"grad_check": {"epsilons": [0.1]}}, "grad_check.epsilons"),
    (lambda p: {"grad_check": {"n_directions": 0}}, "grad_check.n_directions"),
    (lambda p: {"grad_check": {"fd_steps": [0.01]}}, "grad_check.fd_steps"),
    (lambda p: {"adjoint_test": {"n_trials": 0}}, "adjoint_test.n_trials"),
    (lambda p: {"cont_dependence": {"deltas": [0.1]}}, "cont_dependence.deltas"),
    (lambda p: {"cont_dependence": {"deltas": []}}, "cont_dependence.deltas"),
    (lambda p: {"convergence": {"lap_levels": [32]}}, "convergence.lap_levels"),
    (lambda p: {"convergence": {"spatial_levels": [8], "spatial_ref_nx": 16}},
     "convergence.spatial_levels"),
    (lambda p: {"convergence": {"temporal_nts": [5, 10, 20], "temporal_ref_nt": 150}},
     "convergence.temporal_nts"),
    (lambda p: {"convergence": {"spatial_levels": [16, 24], "spatial_ref_nx": 64}},
     "convergence.spatial_levels"),
    (lambda p: {"cont_dependence": {"deltas": [0.1, -0.01]}}, "cont_dependence.deltas"),
    (lambda p: {"grad_check": {"epsilons": [0.1, 0.1]}}, "grad_check.epsilons"),
    *[(lambda p, b=block, k=key, v=value: {b: {k: v}}, f"{block}: unknown keys ['{key}']")
      for block, key, value in RETIRED_KEYS],
], ids=["interior_margin", "u_lo_above_u_hi", "nonsquare_cells", "truncated_snapshot",
        "n_directions_string", "cg_tol_bool", "alpha_bool", "nx_float", "levels_flat",
        "epsilons_pairs", "deltas_pairs", "epsilons_single", "n_directions_zero",
        "fd_steps_single", "n_trials_zero", "deltas_single", "deltas_empty",
        "lap_levels_single", "spatial_levels_single", "temporal_ref_not_multiple",
        "spatial_ref_not_multiple", "deltas_negative", "epsilons_repeated",
        *[f"retired_{key}" for _, key, _ in RETIRED_KEYS]])
def test_malformed_config_exits_two_naming_the_cause(tmp_path, capsys, blocks, cause):
    path = _write(tmp_path, {**MINIMAL, **blocks(tmp_path)}, "bad.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and cause in err


@pytest.mark.parametrize("cmd", ["simulate", "grad_check", "optimize"])
def test_negative_seed_is_usage_error(tmp_path, capsys, cmd):
    path = _write(tmp_path, {**MINIMAL, "cost": {"k1": 1.0}})
    out = tmp_path / "o"
    assert main([cmd, "--config", path, "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="--seed"):
        run_command(cmd, parse_config(path), out_dir=str(out), seed=-1)
    assert not out.exists()


def test_optimize_recovery_converges_within_iteration_budget(tmp_path):
    cfg = parse_config(os.path.join(CONFIGS, "optimize_recovery.json"))
    out = tmp_path / "o"
    assert run_command("optimize", cfg, out_dir=str(out)).code == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1] == "overall PASS"
    assert not [ln for ln in summary if ln.endswith("FAIL")]
    rows = (out / "history.csv").read_text().splitlines()[1:]
    assert len(rows) <= 21
    optimizer = next(ln for ln in summary if ln.startswith("optimizer "))
    work = dict(item.split("=") for item in optimizer.split() if "=" in item)
    assert work["converged"] == "true"
    iters = int(work["iters"])
    assert iters == len(rows) - 1
    assert int(work["gradients"]) == iters + 1
    backtracks = sum(int(row.split(",")[4]) for row in rows)
    assert int(work["forward_solves"]) <= 1 + iters + backtracks


def test_main_numerical_failure_exit_three(tmp_path, capsys, rng):
    snap = tmp_path / "phi0.cgw"
    # rough phi0: the phase Jacobian varies from cell to cell, so its CG needs iterations
    write_field(str(snap), 0.5 * rng.standard_normal((8, 8)))
    cfg = {**MINIMAL,
           "solver": {"cg_maxit": 3},
           "initial": {"phi0": {"snapshot": str(snap)}}}
    path = _write(tmp_path, cfg, "hard.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o3")]) == 3
    capsys.readouterr()


def test_newton_divergence_exit_three(tmp_path, capsys):
    # a residual floor above newton_tol: every damped trial fails to decrease it
    cfg = {**MINIMAL,
           "solver": {"newton_tol": 1e-30},
           "initial": {"phi0": {"cosine": {"amplitude": 0.5}}, "w0": 0.0}}
    path = _write(tmp_path, cfg, "stiff.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "step 1: no residual decrease after 40 dampings" in capsys.readouterr().err
    parsed = parse_config(path)
    with pytest.raises(StepError) as info:
        solve_state(parsed.problem(), parsed.control(), parsed.solver_options())
    assert isinstance(info.value.cause, NewtonDivergence)


def test_determinism_byte_identical_csvs(tmp_path):
    cfg = parse_config(_write(tmp_path, {
        **MINIMAL,
        "control": {"u": {"cosine": {"amplitude": 0.4}}, "v0": 0.1},
    }))
    run_command("simulate", cfg, out_dir=str(tmp_path / "a"), seed=7)
    run_command("simulate", cfg, out_dir=str(tmp_path / "b"), seed=7)
    a = open(tmp_path / "a" / "diagnostics.csv", "rb").read()
    b = open(tmp_path / "b" / "diagnostics.csv", "rb").read()
    assert a == b


def test_unknown_command_rejected(tmp_path):
    cfg = parse_config(_write(tmp_path, MINIMAL))
    with pytest.raises(ValidationError):
        run_command("frobnicate", cfg, out_dir=str(tmp_path / "x"))


def test_criterion_failure_exits_one(tmp_path):
    # an optimizer that cannot reach its stationarity tolerance in 2 iterations
    cfg = parse_config_dict({
        **MINIMAL,
        "control": {"u": 0.0, "v0": 0.0},
        "cost": {"k5": 1.0, "nu1": 1e-3,
                 "targets": {"wprime_q": {"cosine": {"amplitude": 0.5}}}},
        "solver": {"stationarity_tol": 1e-14, "max_iters": 2, "vi_samples": 0},
    })
    path = tmp_path / "crit.json"
    path.write_text(json.dumps(cfg.raw))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    summary = open(tmp_path / "o" / "summary.txt").read()
    assert "overall FAIL" in summary and "stationarity" in summary


def test_nan_in_config_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"grid": {"lx": 1.0, "ly": 1.0, "nx": 8, "ny": 8}, '
                    '"time": {"t_final": 0.1, "nt": 4}, '
                    '"initial": {"phi0": NaN, "w0": 0.0}}')
    with pytest.raises(ValidationError, match="non-finite"):
        parse_config(str(path))


def test_convergence_driver_solver_orders(tmp_path):
    cfg = parse_config_dict({
        "grid": {"lx": 1.0, "ly": 1.0, "nx": 16, "ny": 16},
        "time": {"t_final": 0.05, "nt": 16},
        "initial": {"phi0": {"cosine": {"amplitude": 0.4}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5}},
                    "v0": {"cosine": {"amplitude": 0.3, "kx": 0}}},
        "convergence": {
            "lap_levels": [32, 64, 128], "mean_zero_nx": 16,
            "spatial_levels": [16, 32], "spatial_ref_nx": 128, "spatial_nt": 16,
            "temporal_nts": [5, 10, 20], "temporal_ref_nt": 160, "temporal_nx": 32},
    })
    rep = run_command("convergence", cfg, out_dir=str(tmp_path / "conv"))
    values = {c.name: c for c in rep.criteria}
    assert values["spatial_order"].passed and values["spatial_order"].value >= 1.9
    assert values["temporal_order"].passed and values["temporal_order"].value >= 0.9
    assert rep.code == 0


@pytest.mark.parametrize("lap_levels", [[32, 128], [16, 48]])
def test_laplacian_order_uses_the_level_ratio(tmp_path, lap_levels):
    cfg = parse_config_dict({**MINIMAL, "convergence": {"lap_levels": lap_levels}})
    rep = run_command("convergence", cfg, out_dir=str(tmp_path / "conv"))
    order = {c.name: c.value for c in rep.criteria}["laplacian_order"]
    assert abs(order - 2.0) <= 0.05


def test_optimize_control_snapshots_roundtrip_as_config_input(tmp_path):
    raw = {
        **MINIMAL,
        "coupling": {"kind": "affine", "a": 0.0, "b": 0.0},
        "admissible": {"u_lo": -5.0, "u_hi": 5.0, "v_lo": 0.0, "v_hi": 0.0},
        "cost": {"k5": 1.0, "nu1": 1e-3,
                 "targets": {"from_run": {"u": 0.3, "v0": 0.0}}},
        "solver": {"max_iters": 8, "vi_samples": 0, "seed": 4},
    }
    cfg = parse_config_dict(raw)
    rep = run_command("optimize", cfg, out_dir=str(tmp_path / "opt"))
    history = open(tmp_path / "opt" / "history.csv").read().splitlines()
    j_final = float(history[-1].split(",")[1])

    # feed the written control snapshots back as the simulation control
    raw2 = dict(raw)
    raw2["control"] = {"u": {"snapshot_dir": {"path": str(tmp_path / "opt" / "control"),
                                              "prefix": "u"}},
                       "v0": {"snapshot": str(tmp_path / "opt" / "control" / "v0.cgw")}}
    cfg2 = parse_config_dict(raw2)
    from thermophase.control import ReducedProblem

    problem = cfg2.problem()
    j_again = ReducedProblem(problem, cfg2.cost_spec(problem),
                             cfg2.solver_options()).cost(cfg2.control())
    assert j_again == pytest.approx(j_final, rel=1e-12)


def test_adjoint_test_zero_tracking_writes_zero_snapshots(tmp_path):
    cfg = parse_config_dict({
        **MINIMAL,
        "control": {"u": 0.2, "v0": 0.1},
        "cost": {"nu2": 1.0},  # no tracking terms: adjoint identically zero
        "adjoint_test": {"n_trials": 2, "levels": [[8, 4]]},
        "output": {"snapshot_stride": 1},
    })
    rep = run_command("adjoint_test", cfg, out_dir=str(tmp_path / "adj"))
    assert rep.code == 0
    snaps = sorted((tmp_path / "adj" / "adjoint").glob("*.cgw"))
    assert snaps
    for snap in snaps:
        assert np.max(np.abs(read_field(str(snap)))) == 0.0
