"""Per-layer metrics of one traced set-up plus operation.

Which end-to-end metric each of them should move, on which workload, is the
table in README.md.
"""

from __future__ import annotations

from collections import Counter

from tracing import LAYERS

OPERATORS = ("thermal", "phase", "riesz")
NONLINEARITY = ("nonlinearity.Potential.gamma", "nonlinearity.Potential.dgamma",
                "nonlinearity.Coupling.pi", "nonlinearity.Coupling.dpi",
                "nonlinearity.Coupling.pi_hat")
CERTIFICATES = ("control.check_vi", "control.vi_scale", "control.stationarity_residual",
                "control.clamp_formula_residual")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counts: Counter, traced_s: float, untraced_s: float,
                  hook_errors: int = 0) -> dict:
    """name -> (value, unit) for the per-layer metrics of one traced unit.

    ``hook_errors`` counts counter hooks that no longer fit the program's API;
    the counts are then incomplete, but the program's outputs are still checked.
    """

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def busy(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    m: dict[str, tuple[float, str]] = {}
    cg_iters = 0
    for op in OPERATORS:
        solves, iters = counts[f"cg.solves.{op}"], counts[f"cg.iters.{op}"]
        cg_iters += iters
        m[f"grid.cg.solves.{op}"] = (solves, "count")
        m[f"grid.cg.iters_per_solve.{op}"] = (_ratio(iters, solves), "iter/solve")
    cg_iters += counts["cg.iters.other"]
    m["grid.cg.busy_s"] = (busy("grid.cg_solve"), "s")
    m["grid.cg.us_per_iter"] = (1e6 * _ratio(busy("grid.cg_solve"), cg_iters), "us")
    m["grid.cg.failed"] = (sum(v for k, v in counts.items() if k.startswith("cg.failed.")),
                           "count")
    m["grid.laplacian.calls"] = (calls("grid.laplacian_neumann"), "count")
    m["grid.laplacian.busy_s"] = (busy("grid.laplacian_neumann"), "s")

    m["nonlinearity.calls"] = (sum(calls(n) for n in NONLINEARITY), "count")
    m["nonlinearity.busy_s"] = (busy(*NONLINEARITY), "s")

    m["state.solve_state.calls"] = (calls("state.solve_state"), "count")
    m["state.solve_state.busy_s"] = (busy("state.solve_state"), "s")
    m["state.phi_step.self_s"] = (self_s("state.phi_step"), "s")
    m["state.thermal_step.self_s"] = (self_s("state.thermal_step"), "s")
    m["state.newton_iters_per_step"] = (_ratio(counts["newton.iters"], counts["phase.steps"]),
                                        "iter/step")
    m["state.domain_guard_hits"] = (counts["newton.domain_guard_hits"], "count")
    m["state.run_diagnostics.busy_s"] = (busy("state.run_diagnostics"), "s")

    for fn in ("tangent_solve", "tangent_transpose"):
        m[f"sensitivity.{fn}.busy_s"] = (busy(f"sensitivity.{fn}"), "s")
        m[f"sensitivity.{fn}.self_s"] = (self_s(f"sensitivity.{fn}"), "s")
    m["sensitivity.adjoint_solve_discrete.calls"] = (counts["adjoint.calls"], "count")

    iters = counts["optimize.iters"]
    m["control.optimize.iters"] = (iters, "count")
    m["control.forward_solves_per_iter"] = (_ratio(counts["optimize.forward_solves"], iters),
                                            "solve/iter")
    m["control.gradients_per_iter"] = (_ratio(counts["optimize.gradients"], iters),
                                       "gradient/iter")
    m["control.line_search.accept_ratio"] = (
        _ratio(counts["line_search.accepted"], counts["line_search.trials"]), "ratio")
    m["control.state_cache.hit_ratio"] = (
        _ratio(counts["state_cache.hits"], counts["state_cache.calls"]), "ratio")
    m["control.cost_eval.busy_s"] = (busy("control.cost_eval"), "s")
    m["control.project_admissible.busy_s"] = (busy("control.project_admissible"), "s")
    m["control.certificates.busy_s"] = (busy(*CERTIFICATES), "s")

    m["config.parse.busy_s"] = (busy("config.parse_config", "config.parse_config_dict"), "s")
    m["config.cost_spec.busy_s"] = (busy("config.ProblemConfig.cost_spec"), "s")
    m["cli.write_csv.busy_s"] = (busy("cli.write_csv"), "s")
    m["cli.run_command.self_s"] = (self_s("cli.run_command"), "s")
    m["snapshots.persist_trajectory.busy_s"] = (busy("snapshots.persist_trajectory"), "s")
    m["snapshots.bytes_written"] = (counts["snapshots.bytes"], "B")

    # Self times by layer; with the benchmark's own share they add up to the
    # traced time of the unit.
    layer_self = Counter()
    for name, rec in stats.items():
        layer_self[name.split(".", 1)[0]] += rec[2]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.unattributed_s"] = (layer_self["bench"], "s")
    m["trace.layer_self_share"] = (_ratio(traced_s - layer_self["bench"], traced_s), "ratio")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")
    m["trace.hook_errors"] = (hook_errors, "count")
    return m
