import json
import math
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import CONFIGS
from oracles import cell_centers

from thermophase import cli, config, state
from thermophase.cli import _COMMANDS, _orders, main, run_command
from thermophase.config import build_field, parse_config, parse_config_dict
from thermophase.control import AdmissibleSet, OptimizeOptions
from thermophase.errors import NewtonDivergence, ParseError, StepError, ValidationError
from thermophase.grid import build_grid, norm
from thermophase.nonlinearity import Coupling, Potential
from thermophase.sensitivity import LinearizedPair, tangent_transpose
from thermophase.snapshots import read_field, write_field, write_series
from thermophase.state import PhysParams, SolverOptions, solve_state


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


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
    assert cfg.raw["solver"]["seed"] == 0
    adm, default = cfg.admissible_set(), AdmissibleSet()
    assert all(getattr(adm, f.name) == getattr(default, f.name) for f in fields(AdmissibleSet))


def test_field_builder_matches_per_node_builds(tmp_path, rng):
    grid, tau, nodes = build_grid(1.5, 1.0, 12, 8), 0.03, range(1, 6)
    snap = str(tmp_path / "f.cgw")
    write_field(snap, rng.standard_normal(grid.shape))
    x, y = cell_centers(grid)
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


def test_time_invariant_space_time_fields_are_stored_once(tmp_path, rng):
    grid, tau, nodes = build_grid(1.5, 1.0, 12, 8), 0.03, range(1, 6)
    snap = str(tmp_path / "f.cgw")
    write_field(snap, rng.standard_normal(grid.shape))
    for spec in (-0.375, {"const": 0.5}, {"cosine": {"amplitude": 0.7, "kx": 2, "offset": 0.25}},
                 {"snapshot": snap}):
        built = build_field(spec, grid, nodes, tau)
        assert built.strides[0] == 0 and not built.flags.writeable, spec
        assert np.array(built).tobytes() == np.stack([build_field(spec, grid)] * 5).tobytes()
    write_series(str(tmp_path / "series"), "u", ((n, rng.standard_normal(grid.shape))
                                                 for n in nodes))
    for spec in ({"cosine": {"amplitude": 0.7, "ramp": -1.5}},
                 {"snapshot_dir": {"path": str(tmp_path / "series")}}):
        built = build_field(spec, grid, nodes, tau)
        assert built.flags.c_contiguous and built.strides[0] != 0, spec


def test_parse_retains_no_space_time_copy_of_an_unramped_control(tmp_path):
    with open(os.path.join(CONFIGS, "simulate_logarithmic.json")) as fh:
        raw = json.load(fh)
    raw["grid"].update(nx=64, ny=64)
    raw["time"]["nt"] = 80
    path = _write(tmp_path, raw)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cfg = parse_config(path)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert cfg.control().u.shape == (80, 64, 64)
    assert retained < 8 * 81 * 64 * 64  # one (nt+1, ny, nx) float64 array
    # the finiteness check of the broadcast u reads its one stored node
    assert peak < 80 * 64 * 64  # one (nt, ny, nx) bool array


def test_trajectory_beyond_memory_is_rejected_before_any_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="time.nt = 1099511627776"):
            parse_config_dict({**MINIMAL, "time": {"t_final": 0.1, "nt": 2**40},
                               "cost": {"k1": 1.0}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_trajectory_bound_counts_the_two_stored_states(monkeypatch):
    # a trajectory stores phi and v; w is rebuilt on read
    need = 2 * 8 * (MINIMAL["time"]["nt"] + 1) * 8 * 8
    monkeypatch.setattr(config, "_physical_memory", lambda: need)
    assert parse_config_dict(MINIMAL).timegrid.nt == MINIMAL["time"]["nt"]
    monkeypatch.setattr(config, "_physical_memory", lambda: need - 1)
    with pytest.raises(ValidationError, match="time.nt = 4: a trajectory of 2 x 5 x 8 x 8 "):
        parse_config_dict(MINIMAL)


def test_trajectory_bound_is_skipped_where_sysconf_is_missing(monkeypatch):
    # as on Windows: the config parses, and still nothing of the trajectory's size is allocated
    monkeypatch.delattr(config.os, "sysconf")
    tracemalloc.start()
    try:
        cfg = parse_config_dict({**MINIMAL, "time": {"t_final": 0.1, "nt": 2**40}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.timegrid.nt == 2**40 and peak < 2**20


@pytest.mark.parametrize("lx,ly,nx,ny", [(1.0, 1.0, 8, 8), (1.5, 1.0, 12, 8),
                                         (1.0, 2.5, 6, 15)])
def test_cosine_preset_matches_the_full_grid_formula_bit_for_bit(lx, ly, nx, ny):
    grid, tau, nodes = build_grid(lx, ly, nx, ny), 0.03, range(1, 6)
    x, y = cell_centers(grid)
    t = np.asarray(nodes)[:, None, None] * tau
    for kx in (0, 1, 2):
        for ky in (0, 1, 2.0):
            for offset, ramp in ((0.0, 0.0), (-0.375, 0.0), (0.25, -1.5)):
                mode = np.cos(kx * np.pi * x / lx) * np.cos(ky * np.pi * y / ly)
                spec = {"cosine": {"amplitude": 0.7, "kx": kx, "ky": ky, "offset": offset,
                                   "ramp": ramp}}
                spatial = 0.7 * (1.0 + ramp * 0.0) * mode + offset
                space_time = 0.7 * (1.0 + ramp * t) * mode + offset if ramp else spatial
                assert build_field(spec, grid).tobytes() == spatial.tobytes(), spec
                built = build_field(spec, grid, nodes, tau)
                assert np.array(built).tobytes() == np.broadcast_to(
                    space_time, built.shape).tobytes(), spec


def test_from_run_cost_keeps_only_the_weighted_targets():
    cfg = parse_config(os.path.join(CONFIGS, "optimize_recovery.json"))
    cost = cfg.cost_spec(cfg.problem())
    assert cost.w_q is None and cost.w_omega is None  # k3 = k4 = 0
    assert cost.phi_q.shape == (cfg.timegrid.nt + 1,) + cfg.grid.shape
    assert cost.wprime_omega.shape == cfg.grid.shape


@pytest.mark.parametrize("cmd,name", [("simulate", "simulate_logarithmic"),
                                      ("grad_check", "grad_check"),
                                      ("optimize", "optimize_recovery")])
def test_broadcast_fields_change_no_output_byte(tmp_path, monkeypatch, cmd, name):
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        raw = json.load(fh)
    raw["grid"].update(nx=8, ny=8)
    raw["time"]["nt"] = 4
    outs = [tmp_path / "views", tmp_path / "copies"]
    run_command(cmd, parse_config_dict(raw), out_dir=str(outs[0]), seed=3)
    views = build_field
    monkeypatch.setattr(config, "build_field", lambda *a, **k: np.array(views(*a, **k)))
    run_command(cmd, parse_config_dict(raw), out_dir=str(outs[1]), seed=3)
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and files[0]
    for rel in files[0]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_grad_check_passes_a_forward_map_affine_in_the_control(tmp_path, capsys):
    # coupling a = b = 0 leaves phi free of the control and (w, v) affine in it: the
    # Taylor remainders are rounding, their slope noise, and their size is the criterion
    path = os.path.join(CONFIGS, "optimize_convex.json")
    assert main(["grad_check", "--config", path, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("taylor_remainder: ") and lines[0].endswith("PASS")
    assert not any(line.startswith("taylor_slope") for line in lines)


@pytest.mark.parametrize("name", ["optimize_convex", "grad_check"])
def test_grad_check_fails_a_wrong_tangent(tmp_path, monkeypatch, capsys, name):
    # a tangent 1 % off leaves remainders of 1 % of lhs, first order in epsilon: it
    # passes neither the rounding criterion of an affine map nor the slope criterion
    exact = cli.tangent_solve

    def scaled(*args):
        lin = exact(*args)
        return LinearizedPair(1.01 * lin.xi, 1.01 * lin.eta_t, lin.tau)

    monkeypatch.setattr(cli, "tangent_solve", scaled)
    path = os.path.join(CONFIGS, f"{name}.json")
    assert main(["grad_check", "--config", path, "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("taylor_slope: ") and lines[0].endswith("FAIL")
    assert lines[1].startswith("fd_vs_adjoint: ") and lines[1].endswith("PASS")


def test_fd_plateau_gives_a_rounding_tie_to_the_larger_step():
    # J ~ 0.09: quotient rounding floors eps J / s are 2e-15, 2e-14 and 2e-13.  Both
    # gaps sit at that level, so the least gap (1e-4's) wins only by rounding: the
    # argmin of the gaps would take 1e-4, the tie rule takes 1e-3
    steps = [1e-2, 1e-3, 1e-4]
    floors = [np.finfo(float).eps * 0.09 / s for s in steps]
    quotients = [1.0 + 5e-14, 1.0 + 1e-14, 1.0 + 1.2e-14]
    gaps = [abs(quotients[i] - quotients[i + 1]) for i in range(2)]
    assert int(np.argmin(gaps)) + 1 == 2
    assert cli._fd_plateau(steps, quotients, floors) == 1
    # a truncation error far above the floors is no tie: the plateau is 1e-3 to 1e-4
    quotients = [1.0 + 1e-6, 1.0 + 1e-8, 1.0 + 1e-8 + 1e-14]
    assert cli._fd_plateau(steps, quotients, floors) == 2


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
    with pytest.raises(ValidationError, match="C2: cost weights k1, k2, k3, k4, k5, k6, nu1, "
                                              "nu2 must not all be zero"):
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


def test_float_keys_given_as_integers_are_stored_and_echoed_as_floats(tmp_path):
    cfg = parse_config(_write(tmp_path, {
        "grid": MINIMAL["grid"], "time": {"t_final": 1, "nt": 4},
        "params": {"alpha": 1},
        "grad_check": {"epsilons": [1, 2]},
        "cost": {"k1": 1},
    }))
    values = [cfg.raw["time"]["t_final"], cfg.raw["params"]["alpha"],
              *cfg.raw["grad_check"]["epsilons"], cfg.raw["cost"]["k1"]]
    assert values == [1.0, 1.0, 1.0, 2.0, 1.0]
    assert all(type(value) is float for value in values)
    # integer keys and integer lists keep their type
    assert type(cfg.raw["time"]["nt"]) is int and cfg.raw["adjoint_test"]["levels"] == []
    run_command("simulate", cfg, out_dir=str(tmp_path / "out"))
    text = (tmp_path / "out" / "effective_config.json").read_text()
    assert '"t_final": 1.0' in text and '"alpha": 1.0' in text and '"k1": 1.0' in text
    assert "1.0,\n      2.0\n" in text  # grad_check.epsilons
    # a config without a cost block gets none
    assert "cost" not in parse_config(_write(tmp_path, MINIMAL)).raw


def test_from_run_terminal_targets_do_not_keep_the_trajectory(tmp_path):
    # a terminal target that is a view of node nt would keep all nt + 1 nodes alive
    cfg = parse_config(_write(tmp_path, {
        **MINIMAL, "time": {"t_final": 0.1, "nt": 40},
        "cost": {"k2": 1.0, "k4": 1.0, "targets": {"from_run": {"u": 0.3, "v0": 0.1}}},
    }))
    problem = cfg.problem()
    cost = cfg.cost_spec(problem)
    traj = solve_state(problem, cfg._from_run, cfg.solver_options())
    for target, final in ((cost.phi_omega, traj.phi[-1]), (cost.w_omega, traj.w[-1])):
        assert target.base is None and target.shape == cfg.grid.shape
        assert target.tobytes() == final.tobytes()


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


def test_simulate_criteria_of_a_zero_run(tmp_path):
    # zero data stay zero: the balance reads exactly 0, and the regular potential,
    # defined on all reals, has no separation margin and no domain guard to report
    cfg = parse_config_dict({**MINIMAL, "potential": {"kind": "regular"},
                             "coupling": {"kind": "affine", "a": 0.0, "b": 0.0}})
    report = run_command("simulate", cfg, out_dir=str(tmp_path / "o"))
    assert report.code == 0
    assert [c.name for c in report.criteria] == ["energy_balance", "finite_diagnostics"]
    assert report.criteria[0].value == 0.0
    with open(tmp_path / "o" / "diagnostics.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    assert len(rows) == 5 and all(float(row[4]) == 0.0 for row in rows)  # l2_phi


def test_simulate_energy_balance_reads_a_nan_residual(tmp_path, capsys, monkeypatch):
    # max() would keep the 0.0 of step 0 past a NaN; the criterion must read NaN and fail
    thermal_step, calls = state.thermal_step, []

    def nan_at_step_two(*args):
        calls.append(None)
        w, w_hat, v, residual, scale = thermal_step(*args)
        return w, w_hat, v, math.nan if len(calls) == 2 else residual, scale

    monkeypatch.setattr(state, "thermal_step", nan_at_step_two)
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, MINIMAL), "--out", str(out)]) == 1
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0] == "energy_balance value=nan threshold=<=1e-10 status=FAIL"
    assert "energy_balance: nan (threshold <= 1e-10) FAIL" in capsys.readouterr().out


def test_main_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o1")]) == 0
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = _write(tmp_path, {**MINIMAL, "params": {"alpha": -1.0}}, "bad.json")
    assert main(["simulate", "--config", bad]) == 2
    capsys.readouterr()


# keys the config once had, with their old default values: solver internals and
# criterion thresholds that became constants of the code, and keys whose subject is gone
RETIRED_KEYS = [
    ("solver", "newton_maxit", 30), ("solver", "newton_max_damping", 40),
    ("solver", "armijo_c", 1e-4), ("solver", "armijo_shrink", 0.5),
    ("solver", "armijo_max_backtracks", 60), ("solver", "stationarity_step", 1.0),
    ("grad_check", "taylor_slope_min", 1.8), ("grad_check", "fd_rel_tol", 1e-6),
    ("adjoint_test", "dot_tol", 1e-10), ("adjoint_test", "gap_tol", 5e-2),
    ("adjoint_test", "order_min", 0.8), ("convergence", "lap_order_min", 1.9),
    ("convergence", "spatial_order_min", 1.9), ("convergence", "temporal_order_min", 0.9),
    ("cont_dependence", "slope_min", 0.9), ("cont_dependence", "slope_max", 1.1),
    ("convergence", "lap_levels", [32, 64, 128]), ("convergence", "mean_zero_nx", 16),
    ("solver", "vi_samples", 16), ("solver", "cg_maxit", 50000),
    ("potential", "interior_margin", 1e-9),
]


def _truncated_phi0(tmp_path):
    snap = tmp_path / "phi0.cgw"
    write_field(str(snap), np.zeros((8, 8)))
    snap.write_bytes(snap.read_bytes()[:100])
    return {"initial": {"phi0": {"snapshot": str(snap)}}}


@pytest.mark.parametrize("blocks,cause", [
    (lambda p: {"potential": {"interior_margin": 2.0}}, "interior_margin"),
    (lambda p: {"admissible": {"u_lo": 1.0, "u_hi": -1.0}}, "u_lo"),
    (lambda p: {"grid": {"lx": 1.0, "ly": 2.0, "nx": 8, "ny": 8}},
     "square: lx/nx = 0.125, ly/ny = 0.25"),
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
    (lambda p: {"convergence": {"spatial_levels": [8], "spatial_ref_nx": 16}},
     "convergence.spatial_levels"),
    (lambda p: {"convergence": {"temporal_nts": [5, 10, 20], "temporal_ref_nt": 150}},
     "convergence.temporal_nts"),
    (lambda p: {"convergence": {"spatial_levels": [16, 24], "spatial_ref_nx": 64}},
     "convergence.spatial_levels"),
    (lambda p: {"cont_dependence": {"deltas": [0.1, -0.01]}}, "cont_dependence.deltas"),
    (lambda p: {"grad_check": {"epsilons": [0.1, 0.1]}}, "grad_check.epsilons"),
    (lambda p: {"admissible": {"v_lo": 0.5, "v_hi": 1.0, "ball_radius": 0.1}},
     "admissible set is empty: the clamp of zero to [v_lo, v_hi] leaves the ball of radius "
     "ball_radius"),
    (lambda p: {"adjoint_test": {"levels": [[8.5, 10.7], [16, 20]]}},
     "adjoint_test.levels must be a list of integer pairs"),
    (lambda p: {"convergence": {"spatial_levels": [8.0, 16], "spatial_ref_nx": 32}},
     "convergence.spatial_levels must be a list of integers"),
    (lambda p: {"convergence": {"spatial_levels": [4, 8], "spatial_ref_nx": 16,
                                "spatial_nt": 0}},
     "convergence.spatial_nt: level nt=0: BadParameter: nt must be >= 1"),
    (lambda p: {"grid": {"lx": 1.5, "ly": 1.0, "nx": 12, "ny": 8},
                "adjoint_test": {"levels": [[12, 5], [16, 10]]}},
     "adjoint_test.levels: level nx=16: AnisotropicCells"),
    (lambda p: {"convergence": {"temporal_nts": [1, 2], "temporal_ref_nt": 4,
                                "temporal_nx": 1}},
     "convergence.temporal_nx: level nx=1: DegenerateGrid"),
    (lambda p: {"solver": {"seed": -1}}, "solver.seed must be >= 0"),
    (lambda p: {"control": {"u": {"snapshot_dir": {}}}}, "control.u: snapshot_dir takes"),
    (lambda p: {"control": {"u": {"snapshot_dir": {"path": 3}}}},
     "control.u: snapshot_dir takes"),
    (lambda p: {"initial": {"phi0": {"cosine": {"amplitude": math.nan}}}},
     "initial.phi0: {'cosine': {'amplitude': nan}} produced non-finite entries"),
    (lambda p: {"control": {"v0": {"snapshot_dir": {"path": str(p)}}}},
     "control.v0: snapshot_dir only applies to space-time fields"),
    (lambda p: {"cost": {"k2": 1.0, "targets": {"phi_omega": {"cosine": {"phase": 0.5}}}}},
     "cost.targets.phi_omega.cosine: unknown keys ['phase']"),
    (lambda p: {"cost": {"k1": 1.0, "targets": {"from_run": {"u": "u.cgw"}}}},
     "cost.targets.from_run.u: not a field spec: 'u.cgw'"),
    (lambda p: {"cost": {"k1": 1.0, "targets": {"from_run": 5}}},
     "cost.targets.from_run: must be an object"),
    (lambda p: {"admissible": {"u_lo": True}}, "admissible.u_lo: not a field spec: True"),
    (lambda p: {"initial": {"w0": {"snapshot": str(p / "missing.cgw")}}},
     "initial.w0: FileNotFoundError"),
    (lambda p: {"initial": {"phi0": 10**400}}, "initial.phi0: not a field spec: 1000"),
    (lambda p: {"params": {"alpha": 10**400}}, "params.alpha must be a finite number"),
    (lambda p: {"grid": {"lx": 1.0, "ly": 1.0, "nx": 10**400, "ny": 8}},
     "grid.nx must be an integer"),
    (lambda p: {"time": {"t_final": 0.1, "nt": 10**400}}, "time.nt must be an integer"),
    # a node count past the index range: the first space-time field cannot be formed
    (lambda p: {"time": {"t_final": 0.1, "nt": 2**62}}, "control.u:"),
    # a node count whose trajectory cannot fit in memory: every field is a broadcast view
    (lambda p: {"time": {"t_final": 0.1, "nt": 2**40}}, "time.nt = 1099511627776: a trajectory"),
    *[(lambda p, b=block, k=key, v=value: {b: {k: v}}, f"{block}: unknown keys ['{key}']")
      for block, key, value in RETIRED_KEYS],
], ids=["interior_margin", "u_lo_above_u_hi", "nonsquare_cells", "truncated_snapshot",
        "n_directions_string", "cg_tol_bool", "alpha_bool", "nx_float", "levels_flat",
        "epsilons_pairs", "deltas_pairs", "epsilons_single", "n_directions_zero",
        "fd_steps_single", "n_trials_zero", "deltas_single", "deltas_empty",
        "spatial_levels_single", "temporal_ref_not_multiple",
        "spatial_ref_not_multiple", "deltas_negative", "epsilons_repeated",
        "admissible_set_empty", "levels_float_pairs", "spatial_levels_float",
        "spatial_nt_zero", "adjoint_level_nonsquare_on_1.5x1", "temporal_nx_degenerate",
        "seed_negative", "snapshot_dir_without_path",
        "snapshot_dir_path_not_string", "cosine_non_finite", "snapshot_dir_on_v0",
        "cosine_unknown_key", "from_run_u_string", "from_run_not_object", "bound_bool",
        "snapshot_missing", "phi0_int_beyond_float", "alpha_int_beyond_float",
        "nx_int_beyond_float", "nt_int_beyond_float", "nt_beyond_index", "nt_beyond_memory",
        *[f"retired_{key}" for _, key, _ in RETIRED_KEYS]])
def test_malformed_config_exits_two_naming_the_cause(tmp_path, capsys, blocks, cause):
    path = _write(tmp_path, {**MINIMAL, **blocks(tmp_path)}, "bad.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and cause in err
    assert not (tmp_path / "o").exists()  # rejected before anything is written


@pytest.mark.parametrize("cmd", ["simulate", "grad_check", "optimize"])
def test_negative_seed_is_usage_error(tmp_path, capsys, cmd):
    path = _write(tmp_path, {**MINIMAL, "cost": {"k1": 1.0}})
    out = tmp_path / "o"
    assert main([cmd, "--config", path, "--out", str(out), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    with pytest.raises(ValidationError, match="--seed"):
        run_command(cmd, parse_config(path), out_dir=str(out), seed=-1)
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["grad_check", "adjoint_test", "optimize"])
def test_costless_config_leaves_the_output_directory_alone(tmp_path, capsys, cmd):
    # the missing cost block is a config error found before the directory is touched
    out = tmp_path / "o"
    out.mkdir()
    (out / "summary.txt").write_text("an earlier run\n")
    path = _write(tmp_path, MINIMAL)
    assert main([cmd, "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: C2: this command needs a cost block\n"
    assert os.listdir(out) == ["summary.txt"]
    assert (out / "summary.txt").read_text() == "an earlier run\n"


@pytest.mark.parametrize("where", ["config_empty", "out_under_file"])
def test_unusable_output_directory_is_usage_error(tmp_path, capsys, monkeypatch, where):
    # a directory that cannot be made exits 2 naming it, before anything is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("x")
    if where == "config_empty":
        path, out = _write(tmp_path, {**MINIMAL, "output": {"directory": ""}}), ""
        assert main(["simulate", "--config", path]) == 2
    else:
        path, out = _write(tmp_path, MINIMAL), str(tmp_path / "file" / "o")
        assert main(["simulate", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: output directory {out!r}: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json", "file"]


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
    assert int(work["hessian_products"]) >= iters


def _failure(out_dir):
    """failure.json of a failed run; its keys are sorted and it holds no timings."""
    with open(out_dir / "failure.json") as fh:
        record = json.load(fh)
    assert list(record) == sorted(record) == ["cause", "command", "error", "iterations",
                                              "message", "residual", "step"]
    assert not os.path.exists(out_dir / "failure.json.tmp")
    return record


def _failing_config(tmp_path, rng, monkeypatch):
    """A simulate config whose first step fails, with the phase CG capped at one
    iteration from here on; it stores snapshots at stride 2."""
    snap = tmp_path / "phi0.cgw"
    # rough phi0: the phase Jacobian varies from cell to cell, so its CG needs
    # more than one iteration once Newton's forcing tightens
    write_field(str(snap), 0.5 * rng.standard_normal((8, 8)))
    monkeypatch.setattr(state, "CG_MAXIT", 1)
    cfg = {**MINIMAL, "initial": {"phi0": {"snapshot": str(snap)}},
           "output": {"snapshot_stride": 2}}
    return _write(tmp_path, cfg, "hard.json")


NODE_0 = ["phi_000000.cgw", "v_000000.cgw", "w_000000.cgw"]


def test_main_numerical_failure_exit_three(tmp_path, capsys, rng, monkeypatch):
    # an earlier passing run into the same directory, with its snapshots
    out = tmp_path / "o3"
    passing = _write(tmp_path, {**MINIMAL, "output": {"snapshot_stride": 2}}, "easy.json")
    assert main(["simulate", "--config", passing, "--out", str(out)]) == 0
    assert {"summary.txt", "diagnostics.csv", "snapshots"} <= set(os.listdir(out))
    path = _failing_config(tmp_path, rng, monkeypatch)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    assert "step 1: CG did not reach tol" in capsys.readouterr().err
    # nothing of the earlier run is left to read as this run's: its nodes 2 and 4, its
    # index.txt and summary.txt are gone; the failed run left its row 0 and node 0
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "effective_config.json",
                                       "failure.json", "snapshots"]
    assert sorted(os.listdir(out / "snapshots")) == NODE_0
    assert np.array_equal(read_field(str(out / "snapshots" / "phi_000000.cgw")),
                          read_field(str(tmp_path / "phi0.cgw")))
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 2  # header, node 0
    record = _failure(out)
    assert record["command"] == "simulate"
    assert (record["error"], record["step"], record["cause"]) == ("StepError", 1, "NoConvergence")
    assert record["message"].startswith("step 1: CG did not reach tol")
    assert record["iterations"] == 1 and record["residual"] > 0.0


def test_failed_simulate_leaves_the_steps_it_completed(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, {**MINIMAL, "output": {"snapshot_stride": 2}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "full")]) == 0
    phi_step, calls = state.phi_step, []

    def third_step_fails(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NewtonDivergence("injected", residual=1.0, iterations=0)
        return phi_step(*args)

    monkeypatch.setattr(state, "phi_step", third_step_fails)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "step 3: injected" in capsys.readouterr().err
    assert _failure(out)["step"] == 3
    # rows of nodes 0..2, as the complete run wrote them
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows == (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()[:4]
    # the stored nodes before step 3, and no index: the trajectory is not complete
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "effective_config.json",
                                       "failure.json", "snapshots"]
    assert sorted(os.listdir(out / "snapshots")) == sorted(
        NODE_0 + ["phi_000002.cgw", "v_000002.cgw", "w_000002.cgw"])
    for name in os.listdir(out / "snapshots"):
        assert (out / "snapshots" / name).read_bytes() == \
            (tmp_path / "full" / "snapshots" / name).read_bytes()


def test_simulate_holds_one_node_not_the_trajectory(tmp_path):
    nx, nt = 16, 400
    cfg = parse_config_dict({"grid": {"lx": 1.0, "ly": 1.0, "nx": nx, "ny": nx},
                             "time": {"t_final": 0.1, "nt": nt},
                             "output": {"snapshot_stride": 10}})
    tracemalloc.start()
    try:
        report = run_command("simulate", cfg, out_dir=str(tmp_path / "o"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.code == 0
    assert peak < 3 * (nt + 1) * nx * nx * 8 / 2  # half of the stored trajectory


def test_newton_divergence_exit_three(tmp_path, capsys):
    # a residual floor above newton_tol: every damped trial fails to decrease it
    cfg = {**MINIMAL,
           "solver": {"newton_tol": 1e-30},
           "initial": {"phi0": {"cosine": {"amplitude": 0.5}}, "w0": 0.0}}
    path = _write(tmp_path, cfg, "stiff.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "step 1: no residual decrease after 40 dampings" in capsys.readouterr().err
    record = _failure(tmp_path / "o")
    assert (record["error"], record["step"], record["cause"]) == ("StepError", 1,
                                                                  "NewtonDivergence")
    assert record["message"].startswith("step 1: no residual decrease after 40 dampings")
    assert record["iterations"] >= 1 and record["residual"] > 0.0
    parsed = parse_config(path)
    with pytest.raises(StepError) as info:
        solve_state(parsed.problem(), parsed.control(), parsed.solver_options())
    assert isinstance(info.value.cause, NewtonDivergence)


def test_overflowing_cost_sum_exits_three(tmp_path, capsys):
    # u^2 = 1e308 per cell: the exact sum of the nu1 term overflows, which is a numerical
    # failure of the run with its failure.json, not a traceback
    cfg = {**MINIMAL,
           "control": {"u": {"cosine": {"amplitude": 1e154, "kx": 0, "ky": 0}}},
           "cost": {"nu1": 1.0}}
    path = _write(tmp_path, cfg, "overflow.json")
    assert main(["grad_check", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: cost term nu1 overflows" in capsys.readouterr().err
    record = _failure(tmp_path / "o")
    assert (record["command"], record["step"]) == ("grad_check", None)
    assert record["message"].startswith("cost term nu1 overflows")


def test_failed_allocation_exits_three(tmp_path, capsys, monkeypatch):
    # a trajectory within physical memory but past the process's own limit: the
    # allocation fails as a numerical failure with its failure.json, not a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr("thermophase.cli.solve_state", no_memory)
    path = _write(tmp_path, MINIMAL)
    assert main(["cont_dependence", "--config", path, "--out", str(tmp_path / "o")]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: out of memory: "
                            "Unable to allocate 1.00 GiB for an array\n")
    record = _failure(tmp_path / "o")
    assert (record["command"], record["error"], record["step"]) == (
        "cont_dependence", "ThermophaseError", None)
    assert record["message"] == "out of memory: Unable to allocate 1.00 GiB for an array"
    assert not (tmp_path / "o" / "summary.txt").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_phase_step_exits_three(tmp_path, capsys):
    # u overflows the L2 norm of v at step 1, so step 2's right-hand side norm is inf,
    # which no Newton stop test can compare: the step fails instead of returning phi_n
    cfg = {**MINIMAL,
           "initial": {"phi0": {"cosine": {"amplitude": 0.3}}},
           "control": {"u": {"cosine": {"amplitude": 1e306}}}}
    path = _write(tmp_path, cfg, "overflow.json")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
    assert "step 2: non-finite phase step" in capsys.readouterr().err
    record = _failure(tmp_path / "o")
    assert (record["error"], record["step"], record["cause"]) == ("StepError", 2,
                                                                  "NewtonDivergence")
    assert record["iterations"] == 0 and record["residual"] == math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_diagnostics_fail_the_simulate_run(tmp_path, capsys):
    # with phi0 = 0 the affine coupling keeps the phase step's right-hand side 0, so no
    # step fails; v's L2 norm overflows, and the energy balance scale grows with |v|
    cfg = {**MINIMAL, "control": {"u": {"cosine": {"amplitude": 1e306}}}}
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[0].startswith("energy_balance") and summary[0].endswith("status=PASS")
    assert summary[1] == "finite_diagnostics value=4 threshold=<=0 status=FAIL"
    assert "inf" in (out / "diagnostics.csv").read_text()
    assert "finite_diagnostics: 4 (threshold <= 0) FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", sorted(_COMMANDS))
def test_failing_run_removes_every_artefact_of_an_earlier_run(tmp_path, rng, monkeypatch, cmd):
    # every file a command writes is in ARTEFACTS or a series of SERIES; other files stay
    cfg = parse_config_dict({
        **MINIMAL, "cost": {"k1": 1.0, "nu1": 1e-2}, "output": {"snapshot_stride": 2},
        "initial": {"phi0": {"cosine": {"amplitude": 0.4}}, "w0": 0.0},
        "grad_check": {"n_directions": 1}, "solver": {"max_iters": 2},
        "adjoint_test": {"n_trials": 1, "levels": [[8, 4], [16, 8]]},
        "convergence": {"spatial_levels": [4, 8], "spatial_ref_nx": 16, "spatial_nt": 2,
                        "temporal_nts": [2, 4], "temporal_ref_nt": 8, "temporal_nx": 8}})
    out = tmp_path / "o"
    run_command(cmd, cfg, out_dir=str(out))
    assert len(list(out.rglob("*"))) > 2  # more than effective_config.json and summary.txt
    foreign = ["mine.csv", "snapshots/notes.txt", "adjoint/p_0000001.cgw",
               "control/u_000001.cgw.bak", "control/v0_000001.cgw"]
    for name in foreign:
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text("kept\n")
    path = _failing_config(tmp_path, rng, monkeypatch)
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    left = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    # what the failed run completed: the row and the snapshots of node 0
    assert left == sorted(["effective_config.json", "failure.json", "diagnostics.csv",
                           *(os.path.join("snapshots", name) for name in NODE_0), *foreign])
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 2  # header, node 0


def test_run_removes_stale_failure_record(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "failure.json").write_text("{}\n")
    run_command("simulate", parse_config(_write(tmp_path, MINIMAL)), out_dir=str(out))
    assert not (out / "failure.json").exists()


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


def test_optimize_does_not_depend_on_the_seed(tmp_path):
    # optimize draws no random numbers: --seed changes none of its output bytes
    path = _write(tmp_path, {
        **MINIMAL, "admissible": {"u_lo": -0.2, "u_hi": 0.2, "v_lo": -0.1, "v_hi": 0.1},
        "cost": {"k1": 1.0, "k5": 1.0, "nu1": 1e-3,
                 "targets": {"from_run": {"u": {"cosine": {"amplitude": 0.5}}, "v0": 0.2}}},
        "solver": {"max_iters": 3}})
    outs = [tmp_path / f"seed{seed}" for seed in (1, 2)]
    for seed, out in zip((1, 2), outs):
        main(["optimize", "--config", path, "--out", str(out), "--seed", str(seed)])
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and {"history.csv", "control"} <= {n.parts[0] for n in files[0]}
    for name in files[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_requested_clamp_check_without_nu1_is_noted(tmp_path):
    # u = clamp(-q/nu1) needs nu1 > 0: the requested criterion is left out, and said so
    path = _write(tmp_path, {**MINIMAL, "cost": {"k1": 1.0, "nu2": 1e-3},
                             "optimize": {"clamp_formula_tol": 1e-6},
                             "solver": {"max_iters": 2}})
    out = tmp_path / "o"
    assert main(["optimize", "--config", path, "--out", str(out)]) in (0, 1)
    summary = (out / "summary.txt").read_text().splitlines()
    assert not any(line.startswith("clamp_formula_residual value=") for line in summary)
    assert ("clamp_formula_residual omitted: cost.nu1 is 0, so u = clamp(-q/nu1) "
            "does not apply") in summary


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
        "solver": {"stationarity_tol": 1e-14, "max_iters": 2},
    })
    path = tmp_path / "crit.json"
    path.write_text(json.dumps(cfg.raw))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    summary = open(tmp_path / "o" / "summary.txt").read()
    assert "overall FAIL" in summary and "stationarity" in summary


def test_nan_dot_test_trial_fails_the_run(tmp_path, monkeypatch):
    # one trial's transpose is NaN: max() would keep the other trials' worst error
    calls = []

    def nan_on_second_trial(*args, **kwargs):
        result = tangent_transpose(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            result.h0 = np.full_like(result.h0, np.nan)
        return result

    monkeypatch.setattr("thermophase.cli.tangent_transpose", nan_on_second_trial)
    path = _write(tmp_path, {**MINIMAL, "cost": {"k1": 1.0},
                             "adjoint_test": {"n_trials": 3}})
    out = tmp_path / "o"
    assert main(["adjoint_test", "--config", path, "--out", str(out)]) == 1
    rows = (out / "dot_test.csv").read_text().splitlines()
    assert rows[2].startswith("1,") and rows[2].endswith(",nan")
    assert "dot_test value=nan threshold=<=1e-10 status=FAIL" in (out / "summary.txt").read_text()


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
            "spatial_levels": [16, 32], "spatial_ref_nx": 128, "spatial_nt": 16,
            "temporal_nts": [5, 10, 20], "temporal_ref_nt": 160, "temporal_nx": 32},
    })
    rep = run_command("convergence", cfg, out_dir=str(tmp_path / "conv"))
    values = {c.name: c for c in rep.criteria}
    assert values["spatial_order"].passed and values["spatial_order"].value >= 1.9
    assert values["temporal_order"].passed and values["temporal_order"].value >= 0.9
    assert rep.code == 0
    # each refinement row after a study's first carries its observed order
    rows = [row.split(",") for row in
            (tmp_path / "conv" / "convergence.csv").read_text().splitlines()[1:]]
    orders = {}
    for study, _, _, order in rows:
        orders.setdefault(study, []).append(float(order))
    assert list(orders) == ["laplacian", "mean_zero", "spatial", "temporal"]
    assert math.isnan(orders.pop("mean_zero")[0])
    for study, observed in orders.items():
        assert math.isnan(observed[0]) and all(map(math.isfinite, observed[1:])), study
    assert min(orders["laplacian"][1:]) == values["laplacian_order"].value


@pytest.mark.parametrize("lap_levels", [[32, 64, 128], [24, 48, 96]])
def test_laplacian_order_uses_the_level_ratio(tmp_path, lap_levels):
    # the study refines the run's grid (nx = lap_levels[0] / 2, square cells) 2x, 4x and 8x
    nx = lap_levels[0] // 2
    cfg = parse_config_dict({**MINIMAL, "grid": {"lx": nx / 8, "ly": 1.0, "nx": nx, "ny": 8}})
    out = tmp_path / "conv"
    rep = run_command("convergence", cfg, out_dir=str(out))
    order = {c.name: c.value for c in rep.criteria}["laplacian_order"]
    assert abs(order - 2.0) <= 0.05
    rows = [row.split(",") for row in (out / "convergence.csv").read_text().splitlines()]
    assert [int(level) for study, level, *_ in rows if study == "laplacian"] == lap_levels


def test_convergence_runs_on_a_two_by_one_domain(tmp_path):
    # every level keeps the 2:1 aspect ratio, so each grid has square cells
    cfg = parse_config_dict({
        "grid": {"lx": 2.0, "ly": 1.0, "nx": 16, "ny": 8}, "time": {"t_final": 0.05, "nt": 4},
        "initial": {"phi0": {"cosine": {"amplitude": 0.4}}, "w0": 0.0},
        "control": {"u": {"cosine": {"amplitude": 0.5}}},
        "convergence": {"spatial_levels": [8, 16], "spatial_ref_nx": 64, "spatial_nt": 4,
                        "temporal_nts": [2, 4], "temporal_ref_nt": 32, "temporal_nx": 8}})
    out = tmp_path / "conv"
    assert run_command("convergence", cfg, out_dir=str(out)).code == 0
    rows = [row.split(",")[:2] for row in (out / "convergence.csv").read_text().splitlines()]
    assert rows == [["study", "level"], ["laplacian", "32"], ["laplacian", "64"],
                    ["laplacian", "128"], ["mean_zero", "16"], ["spatial", "8"],
                    ["spatial", "16"], ["temporal", "2"], ["temporal", "4"]]


def test_one_and_a_half_by_one_domain_runs_without_a_convergence_block(tmp_path, capsys):
    # the Laplacian study refines the run's 12 x 8 grid to 24, 48 and 96 cells across
    # and the mean-zero check runs on it, so no study level is left to misfit the domain
    path = _write(tmp_path, {"grid": {"lx": 1.5, "ly": 1.0, "nx": 12, "ny": 8},
                             "time": {"t_final": 0.1, "nt": 4}})
    for cmd in ("simulate", "convergence"):
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 0, cmd
    assert capsys.readouterr().err == ""
    rows = [row.split(",")[:2]
            for row in (tmp_path / "convergence" / "convergence.csv").read_text().splitlines()]
    assert rows == [["study", "level"], ["laplacian", "24"], ["laplacian", "48"],
                    ["laplacian", "96"], ["mean_zero", "12"]]


def test_zero_errors_omit_the_order_criteria_with_a_note(tmp_path, capsys):
    # phi0 = u = v0 = 0 keeps the state at 0 on every level: each study error is
    # exactly 0, where no order can be observed, so the run names why it has no
    # order criterion instead of fitting a slope to log(0)
    path = _write(tmp_path, {**MINIMAL, "convergence": {
        "spatial_levels": [4, 8], "spatial_ref_nx": 16, "spatial_nt": 2,
        "temporal_nts": [2, 4], "temporal_ref_nt": 8, "temporal_nx": 8}})
    out = tmp_path / "conv"
    assert main(["convergence", "--config", path, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line.split()[0] for line in summary if "status=" in line] == [
        "laplacian_order", "laplacian_mean_zero"]
    assert summary[-3:] == [
        "spatial_order omitted: a value is 0, so no order can be observed",
        "temporal_order omitted: a value is 0, so no order can be observed",
        "overall PASS"]


def test_optimize_control_snapshots_roundtrip_as_config_input(tmp_path):
    raw = {
        **MINIMAL,
        "coupling": {"kind": "affine", "a": 0.0, "b": 0.0},
        "admissible": {"u_lo": -5.0, "u_hi": 5.0, "v_lo": 0.0, "v_hi": 0.0},
        "cost": {"k5": 1.0, "nu1": 1e-3,
                 "targets": {"from_run": {"u": 0.3, "v0": 0.0}}},
        "solver": {"max_iters": 8, "seed": 4},
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


def test_adjoint_test_zero_gaps_give_nan_order(tmp_path, capsys):
    # no tracking weight: every gap is 0, so no order can be observed between levels
    path = _write(tmp_path, {**MINIMAL, "control": {"u": 0.2, "v0": 0.1}, "cost": {"nu2": 1.0},
                             "adjoint_test": {"n_trials": 2, "levels": [[8, 4], [16, 8]]}})
    assert main(["adjoint_test", "--config", path, "--out", str(tmp_path / "adj")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = (tmp_path / "adj" / "gap.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in rows] == [["0.0", "nan"], ["0.0", "nan"]]
    summary = (tmp_path / "adj" / "summary.txt").read_text()
    assert "adjoint_gap_order omitted: a value is 0, so no order can be observed" in summary
    assert "adjoint_gap_order value" not in summary


def test_orders_nan_for_first_level_zero_value_and_equal_steps():
    first, second = _orders([0.1, 0.01], [4.0, 0.04])
    assert math.isnan(first) and second == pytest.approx(2.0, rel=1e-15)
    assert all(map(math.isnan, _orders([0.1, 0.01, 0.001], [1.0, 0.0, 1.0])))
    orders = _orders([0.1, 0.1, 0.05], [1.0, 0.5, 0.25])
    assert math.isnan(orders[1]) and orders[2] == pytest.approx(1.0, rel=1e-15)
    # steps that shrink 4x then 2x: each order divides by its own step ratio
    orders = _orders([1 / 16, 1 / 64, 1 / 128], [1.0, 1 / 16, 1 / 64])
    assert orders[1:] == pytest.approx([2.0, 2.0], rel=1e-15)


@pytest.mark.parametrize("name,csv,step,value", [
    ("grad_check", "taylor.csv", "epsilon", "remainder"),
    ("cont_dependence", "cont_dep.csv", "delta", "diff_norm"),
])
def test_slope_column_is_the_pairwise_log_ratio(tmp_path, name, csv, step, value):
    # on the committed config, each slope is log(v[i-1]/v[i]) / log(s[i-1]/s[i]) of the
    # written columns, to the last digit
    out = tmp_path / name
    assert run_command(name, parse_config(os.path.join(CONFIGS, f"{name}.json")),
                       out_dir=str(out)).code == 0
    header, *lines = (out / csv).read_text().splitlines()
    columns = dict(zip(header.split(","), zip(*(line.split(",") for line in lines))))
    s, v = [list(map(float, columns[k])) for k in (step, value)]
    expected = ["nan"] + [repr(math.log(v[i - 1] / v[i]) / math.log(s[i - 1] / s[i]))
                          for i in range(1, len(v))]
    assert list(columns["slope"]) == expected


def test_adjoint_snapshots_keep_the_final_node(tmp_path):
    # nt = 5 is no multiple of the stride: the terminal node 5 is stored all the same,
    # at the nodes a simulated trajectory stores
    cfg = parse_config_dict({
        **MINIMAL, "time": {"t_final": 0.1, "nt": 5},
        "cost": {"k1": 1.0, "targets": {"phi_q": 0.1}},
        "adjoint_test": {"n_trials": 1, "levels": [[8, 5]]},
        "output": {"snapshot_stride": 2},
    })
    run_command("adjoint_test", cfg, out_dir=str(tmp_path / "adj"))
    run_command("simulate", cfg, out_dir=str(tmp_path / "sim"))

    def nodes(directory, prefix):
        return sorted(int(p.stem.rsplit("_", 1)[1]) for p in directory.glob(f"{prefix}_*.cgw"))

    stored = nodes(tmp_path / "sim" / "snapshots", "phi")
    assert stored == [0, 2, 4, 5]
    assert nodes(tmp_path / "adj" / "adjoint", "p") == stored
    assert nodes(tmp_path / "adj" / "adjoint", "q") == stored
