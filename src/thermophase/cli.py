"""Experiment drivers and the command-line entry point.

Subcommands: simulate, grad_check, adjoint_test, optimize, convergence,
cont_dependence.  Each writes deterministic artifacts (CSV reports, CGW1
snapshots, an effective-config echo, and a summary file with one pass/fail
line per criterion) into the output directory, and exits nonzero iff any
enabled criterion fails.  The refinement studies share one path: ``_level``
solves the config resized to a level's nt and ``config.level_grid``'s grid,
``_orders`` gives the observed order between consecutive levels (nan at the
first level, at a zero value and between equal steps), and ``_order_fit`` the
least-squares order criterion, or a note where a value is zero.  The Laplacian
study refines the run's grid 2x, 4x and 8x through ``level_grid``, and the
mean-zero check runs on the run's grid.  ``simulate`` streams ``state.march``
one node at a time and reduces its criteria from the rows and records it
streams; it stores no trajectory.  A numerical failure leaves
``failure.json`` (the command, the error and its cause, the failing step, and
the cause's residual and iteration count where it has them) next to what the
run had written: a ``simulate`` failure in step n leaves ``diagnostics.csv``
with the rows of nodes 0..n-1 and the snapshots of the stored nodes before n,
but no ``index.txt`` and no ``summary.txt``.  Every run first removes an
earlier run's ``ARTEFACTS`` and ``SERIES`` files, and no other, so every result
on disk is this run's.  Every file goes to disk through
``snapshots.write_atomic``.

Exit codes: 0 pass, 1 criterion failure, 2 usage/config error (found before
the output directory is touched), 3 numerical failure or a failed allocation
(a ``MemoryError``, reported like a numerical failure).  CSV files use '.'
decimal, comma separators, a header row, and shortest-roundtrip float
formatting, so repeated runs with a fixed seed are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import (ProblemConfig, echo_effective_config, level_grid, parse_config,
                     parse_config_dict)
from .control import ControlPair, ControlSpace, ReducedProblem, exact_sum, optimize, u_norm
from .errors import ParseError, SolverFailure, StepError, ThermophaseError, ValidationError
from .grid import laplacian_neumann, norm
from .sensitivity import (Perturbation, adjoint_solve_continuous, adjoint_solve_discrete,
                          array_seed, tangent_solve, tangent_transpose)
from .snapshots import (INDEX_NAME, TRAJECTORY_SERIES, persist_node, remove_series, stored_nodes,
                        write_atomic, write_field, write_index, write_series)
from .state import march, solve_state, trajectory_difference_norm

DIAGNOSTICS_COLUMNS = ["step", "time", "min_phi", "max_phi", "l2_phi", "v_l2", "v_linf",
                       "newton_iters", "cg_iters", "energy_residual",
                       "cumulative_balance_residual"]
# history column names are a wire format; the last column reports the defect
# of the pointwise clamp formula u = clamp(-q/nu1)
HISTORY_COLUMNS = ["iter", "J", "stationarity", "step", "armijo_backtracks",
                   "vi_min", "cor39_residual"]
# the files besides effective_config.json and the series a command writes; a run removes old ones
ARTEFACTS = ("summary.txt", "failure.json", "diagnostics.csv", "taylor.csv", "fd_check.csv",
             "dot_test.csv", "gap.csv", "history.csv", "convergence.csv", "cont_dep.csv",
             os.path.join("snapshots", INDEX_NAME), os.path.join("control", "v0.cgw"))
SERIES = {"snapshots": TRAJECTORY_SERIES, "adjoint": ("p", "q"), "control": ("u",)}
TAYLOR_ROUNDING = 1e-12  # grad_check: remainders all <= this * lhs are rounding, not a slope


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    write_atomic(path, "".join(f"{line}\n" for line in lines))


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


def _write_summary(path: str, criteria: list[CriterionResult], notes: list[str]) -> None:
    lines = [f"{c.name} value={_fmt(c.value)} threshold={c.op}{_fmt(c.threshold)} "
             f"status={'PASS' if c.passed else 'FAIL'}" for c in criteria]
    overall = "PASS" if all(c.passed for c in criteria) else "FAIL"
    write_atomic(path, "".join(f"{line}\n" for line in lines + notes + [f"overall {overall}"]))


def _loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(A, ly, rcond=None)[0]
    return float(slope)


def _orders(steps, values) -> list[float]:
    """Observed order between consecutive levels, log(v[i-1]/v[i]) / log(s[i-1]/s[i]);
    nan at the first level, where either value is zero and between equal steps."""
    return [math.nan] + [
        math.log(v0 / v1) / math.log(s0 / s1) if s0 != s1 and v0 != 0.0 and v1 != 0.0
        else math.nan
        for s0, s1, v0, v1 in zip(steps, steps[1:], values, values[1:])]


def _order_fit(name: str, steps, values, threshold: float) -> Outcome:
    """The least-squares order criterion over all levels, or a note where a value is 0."""
    if 0.0 in values:
        return [], [f"{name} omitted: a value is 0, so no order can be observed"]
    return [CriterionResult(name, _loglog_slope(steps, values), ">=", threshold)], []


def _level(cfg: ProblemConfig, nx: int, nt: int):
    """``cfg`` resized to ``level_grid``'s grid of nx cells across and nt steps:
    the resized config, its problem and the state solved on it."""
    raw = copy.deepcopy(cfg.raw)
    raw["grid"].update(nx=nx, ny=level_grid(cfg.grid, nx).ny)
    raw["time"]["nt"] = nt
    lcfg = parse_config_dict(raw)
    problem = lcfg.problem()
    return lcfg, problem, solve_state(problem, lcfg.control(), lcfg.solver_options())


def _unit_direction(rng, space, nt) -> ControlPair:
    """A random direction of unit L2(Q) x L2 norm."""
    h, h0 = rng.standard_normal((nt, *space.grid.shape)), rng.standard_normal(space.grid.shape)
    scale = math.sqrt(space.dual(Perturbation(h, h0), ControlPair(h, h0)))
    return ControlPair(h / scale, h0 / scale)


def _fd_plateau(steps, quotients, floors) -> int:
    """Index of the central-difference quotient on the plateau of ``steps``.

    The steps are taken largest first, whatever their order in ``steps``.
    Consecutive quotients i, i+1 then differ by gap_i; the pair that agrees
    best gives its second quotient.  ``floors[i]`` bounds the rounding of
    quotient i, about eps max|J(x +- s h)| / s, so gap_i is known only to
    within floors[i] + floors[i+1]: two gaps that differ by no more than their
    two bounds are a tie, and a tie goes to the pair whose second step is larger.
    """
    order = sorted(range(len(steps)), key=lambda i: abs(steps[i]), reverse=True)
    gaps = [abs(quotients[i] - quotients[j]) for i, j in zip(order, order[1:])]
    noise = [floors[i] + floors[j] for i, j in zip(order, order[1:])]
    least = int(np.argmin(gaps))
    ties = [k for k, gap in enumerate(gaps) if gap - gaps[least] <= noise[k] + noise[least]]
    return order[min(ties) + 1]


def _sup_node_norm(grid, phi, w, v) -> float:
    """sup over nodes of (L2 of phi + L2 of w + L2 of v) for node-stacked fields."""
    return np.max([norm(grid, phi[n]) + norm(grid, w[n]) + norm(grid, v[n])
                   for n in range(phi.shape[0])])


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    grid, tg = problem.grid, problem.time
    stride = cfg.raw["output"]["snapshot_stride"]
    stored = set(stored_nodes(tg.nt, stride)) if stride > 0 else set()
    snap_dir = os.path.join(out_dir, "snapshots")
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    rows, balance, guard_hits = [], [], 0
    try:  # one node in hand at a time; no trajectory is stored
        for phi, w, v, r in march(problem, cfg.control(), cfg.solver_options()):
            rows.append((r.step, r.time, float(np.min(phi)), float(np.max(phi)), norm(grid, phi),
                         norm(grid, v), float(np.max(np.abs(v))), r.newton_iters, r.cg_iters,
                         r.energy_residual, r.cumulative_balance_residual))
            balance.append(abs(r.energy_residual) / r.balance_scale)
            guard_hits += r.domain_guard_hits
            if r.step in stored:
                persist_node(snap_dir, r.step, (phi, w, v))
    except StepError:  # leave the rows of the steps before the failing one
        write_csv(csv_path, DIAGNOSTICS_COLUMNS, rows)
        raise
    write_csv(csv_path, DIAGNOSTICS_COLUMNS, rows)
    if stored:
        write_index(snap_dir, tg.nt, stride, tg.tau)
    table = np.array(rows, dtype=float)
    criteria = [CriterionResult("energy_balance", np.max(balance), "<=", 1e-10),  # NaN stays NaN
                CriterionResult("finite_diagnostics", int(np.count_nonzero(~np.isfinite(table))),
                                "<=", 0)]
    pot = problem.potential
    if pot.bounded_domain:  # distance of phi from the ends of the potential's domain
        margin = min(float(np.min(table[:, 2])) - pot.r_minus,
                     pot.r_plus - float(np.max(table[:, 3])))
        criteria.append(CriterionResult("separation_margin", margin, ">=", 0.01))
        criteria.append(CriterionResult("domain_guard_quiet", 0.0 if guard_hits else 1.0,
                                        ">=", 1.0))
    return criteria, []


def cmd_grad_check(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    cost = cfg.cost_spec(problem)
    blk = cfg.raw["grad_check"]
    grid, tg = problem.grid, problem.time
    rng = np.random.default_rng(seed)
    rp = ReducedProblem(problem, cost, opts)

    # Taylor remainder of the forward map against the tangent
    base = solve_state(problem, control, opts)
    h = _unit_direction(rng, rp.space, tg.nt)
    lin = tangent_solve(base, problem, Perturbation(h.u, h.v0), opts)
    base_w, eta = base.w, lin.eta  # each rebuilt once, not once per epsilon
    tangent_norm = _sup_node_norm(grid, lin.xi, eta, lin.eta_t)
    eps_list = blk["epsilons"]
    rows = []
    for eps in eps_list:
        traj_eps = solve_state(problem, rp.space.combine(control, eps, h), opts)
        dphi, dw, dv = traj_eps.phi - base.phi, traj_eps.w - base_w, traj_eps.v - base.v
        diff = _sup_node_norm(grid, dphi - eps * lin.xi, dw - eps * eta,
                              dv - eps * lin.eta_t)
        rows.append((eps, _sup_node_norm(grid, dphi, dw, dv), eps * tangent_norm, diff))
    remainders = [row[3] for row in rows]
    write_csv(os.path.join(out_dir, "taylor.csv"),
              ["epsilon", "lhs", "rhs", "remainder", "slope"],
              [row + (order,) for row, order in zip(rows, _orders(eps_list, remainders))])

    # adjoint gradient against tuned central differences
    gpair = rp.gradient(control)
    fd_steps = blk["fd_steps"]
    fd_rows = []
    for d in range(blk["n_directions"]):
        hd = _unit_direction(rng, rp.space, tg.nt)
        pairing = rp.space.inner(gpair, hd)
        fds, floors = [], []
        for s in fd_steps:
            jp = rp.cost(rp.space.combine(control, s, hd))
            jm = rp.cost(rp.space.combine(control, -s, hd))
            fds.append((jp - jm) / (2 * s))
            floors.append(np.finfo(float).eps * max(abs(jp), abs(jm)) / s)
        best = _fd_plateau(fd_steps, fds, floors)
        rel = abs(fds[best] - pairing) / max(abs(pairing), 1e-300)
        fd_rows.append((d, fd_steps[best], fds[best], pairing, rel))
    write_csv(os.path.join(out_dir, "fd_check.csv"),
              ["direction", "fd_step", "fd", "adjoint", "rel_err"], fd_rows)
    # a forward map affine in the control leaves remainders of rounding, whose slope is noise
    if all(rem <= TAYLOR_ROUNDING * lhs for _, lhs, _, rem in rows):
        ratio = np.max([rem / lhs for _, lhs, _, rem in rows])
        taylor = CriterionResult("taylor_remainder", ratio, "<=", TAYLOR_ROUNDING)
    else:
        taylor = CriterionResult("taylor_slope", _loglog_slope(eps_list, remainders), ">=", 1.8)
    return [
        taylor,
        CriterionResult("fd_vs_adjoint", np.max([row[-1] for row in fd_rows]), "<=", 1e-6),
    ], []


def cmd_adjoint_test(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    blk = cfg.raw["adjoint_test"]
    grid, tg = problem.grid, problem.time
    rng = np.random.default_rng(seed)
    base = solve_state(problem, control, opts)
    vol = grid.cell_volume
    space = ControlSpace(grid, tg.tau)

    rows, notes = [], []
    for trial in range(blk["n_trials"]):
        h = ControlPair(rng.standard_normal((tg.nt, grid.ny, grid.nx)),
                        rng.standard_normal(grid.shape))
        wxi = rng.standard_normal(base.phi.shape)
        weta = rng.standard_normal(base.phi.shape)
        wth = rng.standard_normal(base.phi.shape)
        lin = tangent_solve(base, problem, Perturbation(h.u, h.v0), opts)
        sweep = tangent_transpose(base, problem, array_seed(problem, wxi, weta, wth), opts)
        lhs = vol * float(np.sum(wxi * lin.xi) + np.sum(weta * lin.eta)
                          + np.sum(wth * lin.eta_t))
        rhs = space.dual(sweep, h)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        rows.append((trial, lhs, rhs, rel))
    write_csv(os.path.join(out_dir, "dot_test.csv"), ["trial", "lhs", "rhs", "rel_err"], rows)
    criteria = [CriterionResult("dot_test", np.max([row[-1] for row in rows]), "<=", 1e-10)]

    levels = blk["levels"]
    if levels:
        gaps, taus = [], []
        for nx, nt in levels:
            lcfg, lproblem, ltraj = _level(cfg, nx, nt)
            lopts = lcfg.solver_options()
            lcost = lcfg.cost_spec(lproblem)
            sweep = adjoint_solve_discrete(ltraj, lproblem, lcost, lopts)
            adj = adjoint_solve_continuous(ltraj, lproblem, lcost, lopts)
            qc = adj.q[1:]
            num = u_norm(lproblem.grid, lproblem.time.tau, sweep.h - qc)
            den = u_norm(lproblem.grid, lproblem.time.tau, qc)
            gaps.append(0.0 if num == 0.0 else num / den)
            taus.append(lproblem.time.tau)
        stride = cfg.raw["output"]["snapshot_stride"]
        if stride > 0:  # the last level's adjoint, at the nodes a trajectory stores
            nodes = stored_nodes(levels[-1][1], stride)
            for name, series in (("p", adj.p), ("q", adj.q)):
                write_series(os.path.join(out_dir, "adjoint"), name,
                             ((n, series[n]) for n in nodes))
        write_csv(os.path.join(out_dir, "gap.csv"), ["nx", "nt", "tau", "gap", "order"],
                  [(nx, nt, tau, gap, order) for (nx, nt), tau, gap, order
                   in zip(levels, taus, gaps, _orders(taus, gaps))])
        criteria.append(CriterionResult("adjoint_gap", gaps[-1], "<=", 5e-2))
        if len(levels) >= 2:
            fit, notes = _order_fit("adjoint_gap_order", taus, gaps, 0.8)
            criteria += fit
    return criteria, notes


def cmd_optimize(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    init = cfg.control()
    opts = cfg.optimize_options()
    cost = cfg.cost_spec(problem)
    aset = cfg.admissible_set()
    blk = cfg.raw["optimize"]
    report = optimize(problem, cost, aset, init, opts)

    rows = [(r.iter, r.j, r.stationarity, r.step, r.armijo_backtracks, r.vi_min,
             r.clamp_formula_residual) for r in report.iterates]
    write_csv(os.path.join(out_dir, "history.csv"), HISTORY_COLUMNS, rows)
    cdir = os.path.join(out_dir, "control")
    write_series(cdir, "u", enumerate(report.final.u, start=1))
    write_field(os.path.join(cdir, "v0.cgw"), report.final.v0)

    js = report.j_history
    monotone = all(js[i + 1] <= js[i] for i in range(len(js) - 1))
    feasible = all(r.feasible_box and r.feasible_ball for r in report.iterates)
    last = report.iterates[-1]  # the record of report.final
    criteria = [
        CriterionResult("stationarity", last.stationarity, "<=", opts.stationarity_tol),
        CriterionResult("j_monotone", 1.0 if monotone else 0.0, ">=", 1.0),
        CriterionResult("feasible_iterates", 1.0 if feasible else 0.0, ">=", 1.0),
    ]
    notes = [f"optimizer converged={_fmt(report.converged)} reason={report.reason} "
             f"iters={len(report.iterates) - 1} forward_solves={report.forward_solves} "
             f"gradients={report.gradients} hessian_products={report.hessian_products}"]
    if blk["clamp_formula_tol"] > 0.0 and cost.nu1 > 0.0:
        criteria.append(CriterionResult(
            "clamp_formula_residual", last.clamp_formula_residual, "<=",
            blk["clamp_formula_tol"] * (1.0 + u_norm(problem.grid, problem.time.tau,
                                                     report.final.u))))
    elif blk["clamp_formula_tol"] > 0.0:
        notes.append("clamp_formula_residual omitted: cost.nu1 is 0, "
                     "so u = clamp(-q/nu1) does not apply")
    if blk["vi_tol"] > 0.0:
        criteria.append(CriterionResult("vi_min", last.vi_min, ">=",
                                        -blk["vi_tol"] * last.vi_scale))
    if blk["recovery_factor"] > 0.0:
        criteria.append(CriterionResult("j_reduction", js[-1], "<=",
                                        js[0] / blk["recovery_factor"]))
    return criteria, notes


def cmd_convergence(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    blk = cfg.raw["convergence"]
    rows, criteria, notes = [], [], []

    # Laplacian consistency on the product-cosine eigenfunction, the run's grid refined
    lap_levels = [factor * cfg.grid.nx for factor in (2, 4, 8)]
    errs = []
    for nx in lap_levels:
        g = level_grid(cfg.grid, nx)
        f = g.cosine_mode(1, 1)
        lam = (np.pi / g.lx) ** 2 + (np.pi / g.ly) ** 2
        errs.append(norm(g, laplacian_neumann(g, f) + lam * f))
    orders = _orders([1.0 / nx for nx in lap_levels], errs)
    rows += [("laplacian", nx, err, order) for nx, err, order in zip(lap_levels, errs, orders)]
    criteria.append(CriterionResult("laplacian_order", np.min(orders[1:]), ">=", 1.9))

    # mean of the Laplacian of a random field (flux telescoping)
    g = cfg.grid
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1.0, 1.0, g.shape)
    mean = g.cell_volume * exact_sum(laplacian_neumann(g, f))
    bound = 1e-13 * norm(g, f)
    rows.append(("mean_zero", g.nx, abs(mean), math.nan))
    criteria.append(CriterionResult("laplacian_mean_zero", abs(mean), "<=", bound))

    def _restrict(fine, factor):
        f3 = fine.reshape(fine.shape[0] // factor, factor, fine.shape[1] // factor, factor)
        return f3.mean(axis=(1, 3))

    # each study: its reference (nx, nt), the (nx, nt) of each level keyed by the
    # resolution it refines, the step of each level (h or tau), the fit's threshold
    spatial, temporal = blk["spatial_levels"], blk["temporal_nts"]
    nt_h, nx_tau = blk["spatial_nt"], blk["temporal_nx"]
    studies = [("spatial", (blk["spatial_ref_nx"], nt_h),
                {nx: (nx, nt_h) for nx in spatial}, [1.0 / nx for nx in spatial], 1.9),
               ("temporal", (nx_tau, blk["temporal_ref_nt"]),
                {nt: (nx_tau, nt) for nt in temporal},
                [cfg.timegrid.t_final / nt for nt in temporal], 0.9)]
    for study, (ref_nx, ref_nt), levels, steps, threshold in studies:
        if not levels:
            continue
        ref = _level(cfg, ref_nx, ref_nt)[2]
        errs = []
        for nx, nt in levels.values():
            _, lproblem, traj = _level(cfg, nx, nt)
            factor, stride = ref_nx // nx, ref_nt // nt
            errs.append(np.max([
                norm(lproblem.grid, _restrict(ref.phi[n * stride], factor) - traj.phi[n])
                + norm(lproblem.grid, _restrict(ref.v[n * stride], factor) - traj.v[n])
                for n in range(nt + 1)]))
        rows += [(study, level, err, order)
                 for level, err, order in zip(levels, errs, _orders(steps, errs))]
        fit, note = _order_fit(f"{study}_order", steps, errs, threshold)
        criteria, notes = criteria + fit, notes + note

    write_csv(os.path.join(out_dir, "convergence.csv"),
              ["study", "level", "error", "order"], rows)
    return criteria, notes


def cmd_cont_dependence(cfg: ProblemConfig, out_dir: str, seed: int) -> Outcome:
    problem = cfg.problem()
    control = cfg.control()
    opts = cfg.solver_options()
    blk = cfg.raw["cont_dependence"]
    grid, tg = problem.grid, problem.time
    g_phi, g_w = grid.cosine_mode(1, 1), grid.cosine_mode(1, 0)
    g_ctrl = ControlPair(np.broadcast_to(g_phi, (tg.nt, grid.ny, grid.nx)), grid.cosine_mode(0, 1))
    space = ControlSpace(grid, tg.tau)

    base = solve_state(problem, control, opts)
    base_w = base.w  # rebuilt once, not once per delta
    deltas = blk["deltas"]
    norms = []
    for delta in deltas:
        pert_problem = copy.copy(problem)
        pert_problem.initial = copy.copy(problem.initial)
        pert_problem.initial.phi0 = problem.initial.phi0 + delta * g_phi
        pert_problem.initial.w0 = problem.initial.w0 + delta * g_w
        traj = solve_state(pert_problem, space.combine(control, delta, g_ctrl), opts)
        norms.append(trajectory_difference_norm(grid, tg.tau, traj.phi - base.phi,
                                                traj.w - base_w, traj.v - base.v))
    slope = _loglog_slope(deltas, norms)
    write_csv(os.path.join(out_dir, "cont_dep.csv"), ["delta", "diff_norm", "slope"],
              zip(deltas, norms, _orders(deltas, norms)))
    return [
        CriterionResult("cd_slope_low", slope, ">=", 0.9),
        CriterionResult("cd_slope_high", slope, "<=", 1.1),
    ], []


# the commands that read the config's cost block: without one, they write nothing
NEEDS_COST = ("grad_check", "adjoint_test", "optimize")
_COMMANDS = {
    "simulate": cmd_simulate,
    "grad_check": cmd_grad_check,
    "adjoint_test": cmd_adjoint_test,
    "optimize": cmd_optimize,
    "convergence": cmd_convergence,
    "cont_dependence": cmd_cont_dependence,
}


def _write_failure(path: str, cmd: str, exc: ThermophaseError) -> None:
    """failure.json of a numerical failure: what failed, at which step, and why.

    ``cause`` is the class of the error a ``StepError`` wraps; ``residual`` and
    ``iterations`` come from that cause, or from the error itself, when it is
    a ``SolverFailure`` (CG and Newton failures).  No timings: the file is as
    deterministic as the CSVs.
    """
    step, cause = (exc.step, exc.cause) if isinstance(exc, StepError) else (None, None)
    source = exc if cause is None else cause
    failed = isinstance(source, SolverFailure)
    record = {
        "command": cmd,
        "error": type(exc).__name__,
        "message": str(exc),
        "step": step,
        "cause": None if cause is None else type(cause).__name__,
        "residual": float(source.residual) if failed else None,
        "iterations": source.iterations if failed else None,
    }
    write_atomic(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def run_command(cmd: str, cfg: ProblemConfig, out_dir: str | None = None,
                seed: int | None = None) -> ExitReport:
    """Run one subcommand; writes artifacts and returns the exit report."""
    if cmd not in _COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}")
    out_dir = out_dir if out_dir is not None else cfg.raw["output"]["directory"]
    seed = cfg.raw["solver"]["seed"] if seed is None else seed
    if seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed}")
    if cmd in NEEDS_COST and not cfg.has_cost():
        raise ValidationError("C2: this command needs a cost block")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"output directory {out_dir!r}: {type(exc).__name__}: {exc}") from exc
    echo_effective_config(cfg, os.path.join(out_dir, "effective_config.json"))
    for name in ARTEFACTS:  # an earlier run's, into this directory
        if os.path.isfile(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))
    for subdir, prefixes in SERIES.items():
        remove_series(os.path.join(out_dir, subdir), prefixes)
    try:
        criteria, notes = _COMMANDS[cmd](cfg, out_dir, seed)
    except (ParseError, ValidationError):
        raise
    except ThermophaseError as exc:
        _write_failure(os.path.join(out_dir, "failure.json"), cmd, exc)
        raise
    except MemoryError as exc:  # an allocation past the process's limits fails the run loudly
        failure = ThermophaseError(f"out of memory: {str(exc) or type(exc).__name__}")
        _write_failure(os.path.join(out_dir, "failure.json"), cmd, failure)
        raise failure from exc
    _write_summary(os.path.join(out_dir, "summary.txt"), criteria, notes)
    code = 0 if all(c.passed for c in criteria) else 1
    return ExitReport(code=code, criteria=criteria)


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
