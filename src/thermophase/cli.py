"""Experiment drivers and the command-line entry point.

Subcommands: simulate, grad_check, adjoint_test, optimize, convergence,
cont_dependence.  Each writes deterministic artifacts (CSV reports, CGW1
snapshots, an effective-config echo, and a summary file with one pass/fail
line per criterion) into the output directory, and exits nonzero iff any
enabled criterion fails.

Exit codes: 0 pass, 1 criterion failure, 2 usage/config error, 3 numerical
failure.  CSV files use '.' decimal, comma separators, a header row, and
shortest-roundtrip float formatting, so repeated runs with a fixed seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import ProblemConfig, echo_effective_config, parse_config, parse_config_dict
from .control import ControlPair, ReducedProblem, optimize, u_inner, u_norm, v0_inner
from .errors import ParseError, ThermophaseError, ValidationError
from .grid import build_grid, inner, laplacian_neumann, norm
from .sensitivity import (Perturbation, adjoint_solve_continuous, adjoint_solve_discrete,
                          tangent_solve, tangent_transpose)
from .snapshots import persist_trajectory, write_field
from .state import solve_state, run_diagnostics, trajectory_difference_norm

DIAGNOSTICS_COLUMNS = ["step", "time", "min_phi", "max_phi", "l2_phi", "v_l2", "v_linf",
                       "newton_iters", "cg_iters", "energy_residual",
                       "cumulative_balance_residual"]
# history column names are a wire format; the last column reports the defect
# of the pointwise clamp formula u = clamp(-q/nu1)
HISTORY_COLUMNS = ["iter", "J", "stationarity", "step", "armijo_backtracks",
                   "vi_min", "cor39_residual"]


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


@dataclass
class CriterionResult:
    name: str
    value: float
    op: str
    threshold: float

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.threshold
        if self.op == ">=":
            return self.value >= self.threshold
        raise ValueError(f"unknown op {self.op!r}")


# what a subcommand driver returns: its criteria, and notes for summary.txt
# (lines without a pass/fail status, e.g. why the optimizer stopped)
Outcome = tuple[list[CriterionResult], list[str]]


@dataclass
class ExitReport:
    code: int
    criteria: list[CriterionResult]
    out_dir: str


def _write_summary(path: str, criteria: list[CriterionResult], notes: list[str]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        for c in criteria:
            status = "PASS" if c.passed else "FAIL"
            fh.write(f"{c.name} value={_fmt(c.value)} threshold={c.op}{_fmt(c.threshold)} "
                     f"status={status}\n")
        for note in notes:
            fh.write(f"{note}\n")
        overall = "PASS" if all(c.passed for c in criteria) else "FAIL"
        fh.write(f"overall {overall}\n")
    os.replace(tmp, path)


def _loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def _unit_direction(rng, grid, tg):
    h = rng.standard_normal((tg.nt, grid.ny, grid.nx))
    h0 = rng.standard_normal(grid.shape)
    scale = math.sqrt(u_norm(grid, tg.tau, h) ** 2 + inner(grid, h0, h0))
    return h / scale, h0 / scale


def _sup_node_norm(grid, phi, w, v) -> float:
    """sup over nodes of (L2 of phi + L2 of w + L2 of v) for node-stacked fields."""
    return max(norm(grid, phi[n]) + norm(grid, w[n]) + norm(grid, v[n])
               for n in range(phi.shape[0]))


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    traj = solve_state(problem, control, opts)
    diag = run_diagnostics(traj, problem.potential)
    grid = problem.grid
    rows = [(r.step, r.time, float(np.min(phi)), float(np.max(phi)), norm(grid, phi),
             norm(grid, v), float(np.max(np.abs(v))),
             r.newton_iters, r.cg_iters, r.energy_residual, r.cumulative_balance_residual)
            for r, phi, v in zip(traj.steps, traj.phi, traj.v)]
    write_csv(os.path.join(out_dir, "diagnostics.csv"), DIAGNOSTICS_COLUMNS, rows)
    stride = cfg.raw["output"]["snapshot_stride"]
    if stride > 0:
        persist_trajectory(traj, os.path.join(out_dir, "snapshots"), stride)
    criteria = [CriterionResult("energy_balance", diag.max_scaled_energy_residual,
                                "<=", 1e-10)]
    if problem.potential.bounded_domain:
        criteria.append(CriterionResult("separation_margin", diag.separation_margin,
                                        ">=", 0.01))
        criteria.append(CriterionResult("domain_guard_quiet",
                                        0.0 if diag.domain_guard_fired else 1.0, ">=", 1.0))
    return criteria, []


def cmd_grad_check(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    cost = cfg.cost_spec(problem)
    blk = cfg.raw["grad_check"]
    grid, tg = problem.grid, problem.time
    rng = np.random.default_rng(seed)

    # Taylor remainder of the forward map against the tangent
    base = solve_state(problem, control, opts)
    h, h0 = _unit_direction(rng, grid, tg)
    lin = tangent_solve(base, problem, Perturbation(h, h0), opts)
    tangent_norm = _sup_node_norm(grid, lin.xi, lin.eta, lin.eta_t)
    eps_list = [float(e) for e in blk["epsilons"]]
    remainders = []
    rows = []
    for i, eps in enumerate(eps_list):
        pert_ctrl = ControlPair(control.u + eps * h, control.v0 + eps * h0)
        traj_eps = solve_state(problem, pert_ctrl, opts)
        dphi, dw, dv = traj_eps.phi - base.phi, traj_eps.w - base.w, traj_eps.v - base.v
        diff = _sup_node_norm(grid, dphi - eps * lin.xi, dw - eps * lin.eta,
                              dv - eps * lin.eta_t)
        remainders.append(diff)
        pair_slope = (math.log(remainders[i - 1] / diff) / math.log(eps_list[i - 1] / eps)
                      if i > 0 else math.nan)
        rows.append((eps, _sup_node_norm(grid, dphi, dw, dv), eps * tangent_norm,
                     diff, pair_slope))
    slope = _loglog_slope(eps_list, remainders)
    write_csv(os.path.join(out_dir, "taylor.csv"),
              ["epsilon", "lhs", "rhs", "remainder", "slope"], rows)

    # adjoint gradient against tuned central differences
    rp = ReducedProblem(problem, cost, opts)
    gpair = rp.gradient(control)
    fd_steps = [float(s) for s in blk["fd_steps"]]
    fd_rows = []
    worst = 0.0
    for d in range(int(blk["n_directions"])):
        hd, h0d = _unit_direction(rng, grid, tg)
        pairing = u_inner(grid, tg.tau, gpair.g_u, hd) + v0_inner(grid, gpair.g_v, h0d)
        fds = []
        for s in fd_steps:
            cp = ControlPair(control.u + s * hd, control.v0 + s * h0d)
            cm = ControlPair(control.u - s * hd, control.v0 - s * h0d)
            jp = ReducedProblem(problem, cost, opts).cost(cp)
            jm = ReducedProblem(problem, cost, opts).cost(cm)
            fds.append((jp - jm) / (2 * s))
        # pick the plateau: the pair of consecutive steps that agree best
        gaps = [abs(fds[i] - fds[i + 1]) for i in range(len(fds) - 1)]
        best = int(np.argmin(gaps))
        fd = fds[best + 1]
        rel = abs(fd - pairing) / max(abs(pairing), 1e-300)
        worst = max(worst, rel)
        fd_rows.append((d, fd_steps[best + 1], fd, pairing, rel))
    write_csv(os.path.join(out_dir, "fd_check.csv"),
              ["direction", "fd_step", "fd", "adjoint", "rel_err"], fd_rows)
    return [
        CriterionResult("taylor_slope", slope, ">=", 1.8),
        CriterionResult("fd_vs_adjoint", worst, "<=", 1e-6),
    ], []


def _level_config(cfg: ProblemConfig, nx: int, nt: int) -> ProblemConfig:
    raw = copy.deepcopy(cfg.raw)
    raw["grid"]["nx"] = int(nx)
    raw["grid"]["ny"] = int(round(nx * cfg.raw["grid"]["ly"] / cfg.raw["grid"]["lx"]))
    raw["time"]["nt"] = int(nt)
    return parse_config_dict(raw)


def cmd_adjoint_test(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    cost = cfg.cost_spec(problem)
    blk = cfg.raw["adjoint_test"]
    grid, tg = problem.grid, problem.time
    rng = np.random.default_rng(seed)
    base = solve_state(problem, control, opts)
    vol = grid.cell_volume

    rows = []
    worst = 0.0
    for trial in range(int(blk["n_trials"])):
        h = rng.standard_normal((tg.nt, grid.ny, grid.nx))
        h0 = rng.standard_normal(grid.shape)
        wxi = rng.standard_normal(base.phi.shape)
        weta = rng.standard_normal(base.phi.shape)
        wth = rng.standard_normal(base.phi.shape)
        lin = tangent_solve(base, problem, Perturbation(h, h0), opts)
        sweep = tangent_transpose(base, problem, wxi, weta, wth, opts)
        lhs = vol * float(np.sum(wxi * lin.xi) + np.sum(weta * lin.eta)
                          + np.sum(wth * lin.eta_t))
        rhs = vol * float(np.sum(sweep.h_bar * h) + np.sum(sweep.h0_bar * h0))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, rel)
        rows.append((trial, lhs, rhs, rel, math.nan))
    write_csv(os.path.join(out_dir, "dot_test.csv"),
              ["trial", "lhs", "rhs", "rel_err", "slope"], rows)
    criteria = [CriterionResult("dot_test", worst, "<=", 1e-10)]

    levels = [(int(nx), int(nt)) for nx, nt in blk["levels"]]
    if levels:
        gaps = []
        gap_rows = []
        for i, (nx, nt) in enumerate(levels):
            lcfg = _level_config(cfg, nx, nt)
            lproblem = lcfg.problem()
            lopts = lcfg.solver_options()
            lctrl = lcfg.control()
            lcost = lcfg.cost_spec(lproblem)
            ltraj = solve_state(lproblem, lctrl, lopts)
            seeds, _ = adjoint_solve_discrete(ltraj, lproblem, lcost, lopts)
            adj = adjoint_solve_continuous(ltraj, lproblem, lcost, lopts)
            qc = adj.q[1:]
            num = u_norm(lproblem.grid, lproblem.time.tau, seeds.u - qc)
            den = u_norm(lproblem.grid, lproblem.time.tau, qc)
            gap = 0.0 if num == 0.0 else num / den
            gaps.append(gap)
            # observed order in tau = t_final / nt; none between equal time steps
            order = (math.log2(gaps[i - 1] / gap) / math.log2(nt / levels[i - 1][1])
                     if i > 0 and nt != levels[i - 1][1] else math.nan)
            gap_rows.append((nx, nt, lproblem.time.tau, gap, order))
            if i == len(levels) - 1:
                stride = cfg.raw["output"]["snapshot_stride"]
                if stride > 0:
                    adir = os.path.join(out_dir, "adjoint")
                    os.makedirs(adir, exist_ok=True)
                    for n in range(0, lproblem.time.nt + 1, stride):
                        write_field(os.path.join(adir, f"p_{n:06d}.cgw"), adj.p[n])
                        write_field(os.path.join(adir, f"q_{n:06d}.cgw"), adj.q[n])
        write_csv(os.path.join(out_dir, "gap.csv"),
                  ["nx", "nt", "tau", "gap", "order"], gap_rows)
        criteria.append(CriterionResult("adjoint_gap", gaps[-1], "<=", 5e-2))
        if len(levels) >= 2 and all(gap > 0.0 for gap in gaps):
            taus = [row[2] for row in gap_rows]
            order_fit = _loglog_slope(taus, gaps)
            criteria.append(CriterionResult("adjoint_gap_order", order_fit, ">=", 0.8))
    return criteria, []


def cmd_optimize(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    init = cfg.control()
    opts = cfg.optimize_options(seed)
    cost = cfg.cost_spec(problem)
    aset = cfg.admissible_set()
    blk = cfg.raw["optimize"]
    report = optimize(problem, cost, aset, init, opts)

    rows = [(r.iter, r.j, r.stationarity, r.step, r.armijo_backtracks, r.vi_min,
             r.clamp_formula_residual) for r in report.iterates]
    write_csv(os.path.join(out_dir, "history.csv"), HISTORY_COLUMNS, rows)
    cdir = os.path.join(out_dir, "control")
    os.makedirs(cdir, exist_ok=True)
    for n in range(problem.time.nt):
        write_field(os.path.join(cdir, f"u_{n + 1:06d}.cgw"), report.final.u[n])
    write_field(os.path.join(cdir, "v0.cgw"), report.final.v0)

    js = report.j_history
    monotone = all(js[i + 1] <= js[i] for i in range(len(js) - 1))
    feasible = all(r.feasible_box and r.feasible_ball for r in report.iterates)
    certs = report.certificates
    criteria = [
        CriterionResult("stationarity", certs.stationarity, "<=",
                        cfg.raw["solver"]["stationarity_tol"]),
        CriterionResult("j_monotone", 1.0 if monotone else 0.0, ">=", 1.0),
        CriterionResult("feasible_iterates", 1.0 if feasible else 0.0, ">=", 1.0),
    ]
    if float(blk["clamp_formula_tol"]) > 0.0 and cost.nu1 > 0.0:
        criteria.append(CriterionResult(
            "clamp_formula_residual", certs.clamp_formula_residual, "<=",
            float(blk["clamp_formula_tol"]) * certs.clamp_formula_scale))
    if float(blk["vi_tol"]) > 0.0:
        criteria.append(CriterionResult("vi_min", certs.vi_min, ">=",
                                        -float(blk["vi_tol"]) * certs.vi_scale))
    if float(blk["recovery_factor"]) > 0.0:
        criteria.append(CriterionResult("j_reduction", js[-1], "<=",
                                        js[0] / float(blk["recovery_factor"])))
    return criteria, [f"optimizer converged={_fmt(report.converged)} reason={report.reason} "
                      f"iters={len(report.iterates) - 1} "
                      f"forward_solves={report.forward_solves} gradients={report.gradients}"]


def cmd_convergence(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    blk = cfg.raw["convergence"]
    rows = []
    criteria = []

    # Laplacian consistency on the product-cosine eigenfunction
    lap_levels = [int(n) for n in blk["lap_levels"]]
    errs = []
    for nx in lap_levels:
        g = build_grid(cfg.raw["grid"]["lx"], cfg.raw["grid"]["ly"], nx, nx)
        x, y = g.cell_centers()
        f = np.cos(np.pi * x / g.lx) * np.cos(np.pi * y / g.ly)
        lam = (np.pi / g.lx) ** 2 + (np.pi / g.ly) ** 2
        err = norm(g, laplacian_neumann(g, f) + lam * f)
        errs.append(err)
        rows.append(("laplacian", nx, err, math.nan))
    orders = [math.log2(errs[i] / errs[i + 1]) / math.log2(lap_levels[i + 1] / lap_levels[i])
              for i in range(len(errs) - 1)]
    criteria.append(CriterionResult("laplacian_order", min(orders), ">=", 1.9))

    # mean of the Laplacian of a random field (flux telescoping)
    nx = int(blk["mean_zero_nx"])
    g = build_grid(cfg.raw["grid"]["lx"], cfg.raw["grid"]["ly"], nx, nx)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1.0, 1.0, g.shape)
    mean = g.cell_volume * math.fsum(laplacian_neumann(g, f).ravel().tolist())
    bound = 1e-13 * norm(g, f)
    rows.append(("mean_zero", nx, abs(mean), math.nan))
    criteria.append(CriterionResult("laplacian_mean_zero", abs(mean), "<=", bound))

    def _restrict(fine, factor):
        f3 = fine.reshape(fine.shape[0] // factor, factor, fine.shape[1] // factor, factor)
        return f3.mean(axis=(1, 3))

    def _solve_level(nx, nt):
        lcfg = _level_config(cfg, nx, nt)
        lproblem = lcfg.problem()
        return lproblem, solve_state(lproblem, lcfg.control(), lcfg.solver_options())

    spatial_levels = [int(n) for n in blk["spatial_levels"]]
    if spatial_levels:
        ref_nx = int(blk["spatial_ref_nx"])
        nt = int(blk["spatial_nt"])
        _, ref = _solve_level(ref_nx, nt)
        errs = []
        for nx in spatial_levels:
            lproblem, traj = _solve_level(nx, nt)
            factor = ref_nx // nx
            err = max(norm(lproblem.grid, _restrict(ref.phi[n], factor) - traj.phi[n])
                      + norm(lproblem.grid, _restrict(ref.v[n], factor) - traj.v[n])
                      for n in range(nt + 1))
            errs.append(err)
            rows.append(("spatial", nx, err, math.nan))
        hs = [1.0 / nx for nx in spatial_levels]
        criteria.append(CriterionResult("spatial_order", _loglog_slope(hs, errs), ">=", 1.9))

    temporal_nts = [int(n) for n in blk["temporal_nts"]]
    if temporal_nts:
        nx = int(blk["temporal_nx"])
        ref_nt = int(blk["temporal_ref_nt"])
        _, ref = _solve_level(nx, ref_nt)
        errs = []
        for nt in temporal_nts:
            lproblem, traj = _solve_level(nx, nt)
            stride = ref_nt // nt
            err = max(norm(lproblem.grid, ref.phi[n * stride] - traj.phi[n])
                      + norm(lproblem.grid, ref.v[n * stride] - traj.v[n])
                      for n in range(nt + 1))
            errs.append(err)
            rows.append(("temporal", nt, err, math.nan))
        taus = [cfg.raw["time"]["t_final"] / nt for nt in temporal_nts]
        criteria.append(CriterionResult("temporal_order", _loglog_slope(taus, errs), ">=", 0.9))

    write_csv(os.path.join(out_dir, "convergence.csv"),
              ["study", "level", "error", "order"], rows)
    return criteria, []


def cmd_cont_dependence(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    blk = cfg.raw["cont_dependence"]
    grid, tg = problem.grid, problem.time
    x, y = grid.cell_centers()
    g_phi = np.cos(np.pi * x / grid.lx) * np.cos(np.pi * y / grid.ly)
    g_w = np.cos(np.pi * x / grid.lx)
    g_v = np.cos(np.pi * y / grid.ly)
    g_u = np.broadcast_to(g_phi, (tg.nt, grid.ny, grid.nx))

    base = solve_state(problem, control, opts)
    deltas = [float(d) for d in blk["deltas"]]
    norms = []
    rows = []
    for i, delta in enumerate(deltas):
        pert_problem = copy.copy(problem)
        pert_problem.initial = copy.copy(problem.initial)
        pert_problem.initial.phi0 = problem.initial.phi0 + delta * g_phi
        pert_problem.initial.w0 = problem.initial.w0 + delta * g_w
        pert_ctrl = ControlPair(control.u + delta * g_u, control.v0 + delta * g_v)
        traj = solve_state(pert_problem, pert_ctrl, opts)
        value = trajectory_difference_norm(grid, traj, base)
        norms.append(value)
        pair = (math.log(norms[i - 1] / value) / math.log(deltas[i - 1] / delta)
                if i > 0 else math.nan)
        rows.append((delta, value, pair))
    slope = _loglog_slope(deltas, norms)
    write_csv(os.path.join(out_dir, "cont_dep.csv"), ["delta", "diff_norm", "slope"], rows)
    return [
        CriterionResult("cd_slope_low", slope, ">=", 0.9),
        CriterionResult("cd_slope_high", slope, "<=", 1.1),
    ], []


_COMMANDS = {
    "simulate": cmd_simulate,
    "grad_check": cmd_grad_check,
    "adjoint_test": cmd_adjoint_test,
    "optimize": cmd_optimize,
    "convergence": cmd_convergence,
    "cont_dependence": cmd_cont_dependence,
}


def run_command(cmd: str, cfg: ProblemConfig, out_dir: str | None = None,
                seed: int | None = None) -> ExitReport:
    """Run one subcommand; writes artifacts and returns the exit report."""
    if cmd not in _COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}")
    out_dir = out_dir if out_dir is not None else cfg.raw["output"]["directory"]
    seed = int(cfg.raw["solver"]["seed"] if seed is None else seed)
    if seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    echo_effective_config(cfg, os.path.join(out_dir, "effective_config.json"))
    criteria, notes = _COMMANDS[cmd](cfg, out_dir, seed)
    _write_summary(os.path.join(out_dir, "summary.txt"), criteria, notes)
    code = 0 if all(c.passed for c in criteria) else 1
    return ExitReport(code=code, criteria=criteria, out_dir=out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thermophase",
        description="Phase-field system with thermal memory: simulation, "
                    "sensitivity checks, and optimal control.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", default=None, type=int, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = parse_config(args.config)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_command(args.command, cfg, out_dir=args.out, seed=args.seed)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ThermophaseError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for c in report.criteria:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name}: {_fmt(c.value)} (threshold {c.op} {_fmt(c.threshold)}) {status}")
    return report.code


if __name__ == "__main__":
    sys.exit(main())
