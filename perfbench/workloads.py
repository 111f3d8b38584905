"""The benchmark's workloads: seeded inputs, set-up, the timed operation and its check.

Each workload builds its config from a committed example config, resized and
seeded, and drives the program only through its public API
(``thermophase.cli.run_command`` and the library functions).  Timed regions
are the ``tracer.section`` blocks; a check runs after the operation, outside
them.  Library functions are looked up on their module at call time, so the
wrappers a tracer installs are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import thermophase.cli as cli
import thermophase.config as config
import thermophase.control as control
import thermophase.sensitivity as sensitivity


def _summary_passes(out_dir: str) -> tuple[bool, str]:
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        lines = fh.read().splitlines()
    failing = [ln for ln in lines if ln.endswith("FAIL")]
    ok = bool(lines) and lines[-1] == "overall PASS" and not failing
    return ok, "; ".join(failing) or "summary.txt all PASS"


class Workload:
    """One named workload.  Subclasses set the config and implement run/check."""

    name = ""
    config_file = ""
    size: tuple[int, int] | None = None  # (cells per side, time steps); None keeps the file's
    smoke_size = (8, 6)
    warmup_ops = 1
    same_input_each_op = False  # every repetition must then give the same output bytes
    sections: tuple[str, ...] = ()

    def __init__(self, root: str, work_dir: str, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.work_dir = os.path.join(work_dir, self.name)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.config_path = os.path.join(self.work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.make_config(), fh, indent=1, sort_keys=True)

    def make_config(self) -> dict:
        with open(os.path.join(self.root, "configs", self.config_file)) as fh:
            raw = json.load(fh)
        size = self.smoke_size if self.smoke else self.size
        if size is not None:
            raw["grid"].update(nx=size[0], ny=size[0])
            raw["time"]["nt"] = size[1]
        raw.setdefault("output", {})["directory"] = os.path.join(self.work_dir, "out")
        self.seed_inputs(raw, np.random.default_rng(self.seed))
        return raw

    def seed_inputs(self, raw: dict, rng: np.random.Generator) -> None:
        """Draw this workload's inputs from the seed into the config."""

    def setup(self, tracer) -> None:
        """Parse and validate the config, then build problem, control and cost."""
        with tracer.section("setup_s"):
            cfg = config.parse_config(self.config_path)
            problem = cfg.problem()
            ctrl = cfg.control()
            cost = cfg.cost_spec(problem) if cfg.has_cost() else None
            self.finish_setup(cfg, problem, ctrl, cost)

    def finish_setup(self, cfg, problem, ctrl, cost) -> None:
        self.cfg = cfg

    def run(self, tracer, index: int):
        """The operation; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, outputs) -> tuple[bool, str, bytes]:
        """(passed, detail, digest of the output that must repeat exactly)."""
        raise NotImplementedError

    def sizes(self, l2_bytes: int | None) -> dict:
        """Computed working-set figures of this workload, next to the L2 size."""
        g = self.cfg.grid
        field_bytes = 8 * g.nx * g.ny
        traj_bytes = 3 * (self.cfg.timegrid.nt + 1) * field_bytes
        return {
            "grid": [g.nx, g.ny], "nt": self.cfg.timegrid.nt,
            "field_bytes_computed": field_bytes,
            "trajectory_bytes_computed": traj_bytes,
            "l2_bytes": l2_bytes,
            "trajectory_fits_l2": None if not l2_bytes else traj_bytes <= l2_bytes,
            # one read of the input field and one write of the output per
            # stencil call; numpy temporaries are not counted
            "stencil_bytes_per_call_computed": 2 * field_bytes,
        }


class CliWorkload(Workload):
    """A workload whose operation is one ``run_command`` call on the same inputs."""

    command = ""
    output_file = ""  # a CSV report that must repeat byte for byte
    same_input_each_op = True

    def run(self, tracer, index):
        out_dir = os.path.join(self.work_dir, "out")
        with tracer.section(f"{self.command}_s"):
            report = cli.run_command(self.command, self.cfg, out_dir=out_dir, seed=self.seed)
        return report, out_dir

    def check(self, outputs):
        report, out_dir = outputs
        ok, detail = _summary_passes(out_dir)
        with open(os.path.join(out_dir, self.output_file), "rb") as fh:
            digest = fh.read()
        return ok and report.code == 0, detail, digest


class SimulateLog64(CliWorkload):
    """Forward solve of the logarithmic-potential run close to separation, via the CLI."""

    name = "simulate-log64"
    config_file = "simulate_logarithmic.json"
    size = (64, 80)
    command = "simulate"
    output_file = "diagnostics.csv"
    sections = ("simulate_s",)

    def seed_inputs(self, raw, rng):
        # phi0 (amplitude 0.9) and the potential stay as committed; the seed
        # scales the heat source and the initial temperature
        raw["control"]["u"]["cosine"]["amplitude"] *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
        raw["control"]["v0"] *= 1.0 + 0.25 * rng.uniform(-1.0, 1.0)


class GradientQuartic64(Workload):
    """One uncached reduced gradient plus one tangent solve on the grad_check physics."""

    name = "gradient-quartic64"
    config_file = "grad_check.json"
    size = (64, 80)
    sections = ("gradient_s", "tangent_s")
    pairing_tol = 1e-10  # the repo's default adjoint_test.dot_tol

    def finish_setup(self, cfg, problem, ctrl, cost):
        self.cfg = cfg
        self.problem = problem
        self.base = ctrl
        self.cost = cost
        self.opts = cfg.solver_options()
        self.reduced = control.ReducedProblem(problem, cost, self.opts)

    def run(self, tracer, index):
        rng = np.random.default_rng([self.seed, index])
        u, v0 = self.base.u, self.base.v0
        # a fresh perturbation per operation, so the trajectory cache misses
        ctrl = control.ControlPair(u + 1e-3 * rng.standard_normal(u.shape),
                                   v0 + 1e-3 * rng.standard_normal(v0.shape))
        h = rng.standard_normal(u.shape)
        h0 = rng.standard_normal(v0.shape)
        with tracer.section("gradient_s"):
            grad = self.reduced.gradient(ctrl)
        with tracer.section("tangent_s"):
            traj = self.reduced.state(ctrl)
            lin = sensitivity.tangent_solve(traj, self.problem,
                                            sensitivity.Perturbation(h, h0), self.opts)
        return ctrl, traj, grad, lin, h, h0

    def check(self, outputs):
        """Adjoint-tangent pairing: <g, (h, h0)> equals the cost derivative along the tangent."""
        ctrl, traj, grad, lin, h, h0 = outputs
        grid, tg, c = self.problem.grid, self.problem.time, self.cost
        nt, tau = tg.nt, tg.tau
        lhs = (control.u_inner(grid, tau, grad.g_u, h)
               + control.v0_inner(grid, grad.g_v, h0))
        # tracking derivative computed here from the cost definition:
        # trapezoid in time for the distributed terms, terminal terms at nt
        wts = np.full(nt + 1, tau)
        wts[[0, -1]] = 0.5 * tau
        tracked = 0.0
        for k, state, target, tangent in ((c.k1, traj.phi, c.phi_q, lin.xi),
                                          (c.k3, traj.w, c.w_q, lin.eta),
                                          (c.k5, traj.v, c.wprime_q, lin.eta_t)):
            if k > 0.0:
                tracked += k * float(np.einsum("n,nij,nij->", wts, state - target, tangent))
        for k, state, target, tangent in ((c.k2, traj.phi, c.phi_omega, lin.xi),
                                          (c.k4, traj.w, c.w_omega, lin.eta),
                                          (c.k6, traj.v, c.wprime_omega, lin.eta_t)):
            if k > 0.0:
                tracked += k * float(np.sum((state[nt] - target) * tangent[nt]))
        rhs = (grid.cell_volume * tracked
               + c.nu1 * control.u_inner(grid, tau, ctrl.u, h)
               + c.nu2 * control.v0_inner(grid, ctrl.v0, h0))
        # The error is measured against the Cauchy-Schwarz bound of the pairing.
        # A rough random direction can be nearly orthogonal to the smooth
        # gradient (pairing 2.4e-4 against a bound of 18 on one seed), and the
        # solver tolerance bounds the error relative to the bound, not to the
        # cancelled sum.
        scale = (control.u_norm(grid, tau, grad.g_u) * control.u_norm(grid, tau, h)
                 + control.v0_norm(grid, grad.g_v) * control.v0_norm(grid, h0))
        err = abs(lhs - rhs)
        rel = err / max(scale, 1e-300)
        ok = bool(np.isfinite(rel)) and rel <= self.pairing_tol
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in (
            grad.g_u, grad.g_v, lin.xi, lin.eta, lin.eta_t))).digest()
        detail = (f"pairing err/bound={rel:.3e} (tol {self.pairing_tol:g}), "
                  f"err/|pairing|={err / max(abs(lhs), abs(rhs), 1e-300):.3e}")
        return ok, detail, digest


class OptimizeRecovery16(CliWorkload):
    """The committed optimize_recovery run, via the CLI, until its stopping rule.

    The committed config is the input; the seed reaches the program as the run
    seed, which draws the variational-inequality certificate samples.
    """

    name = "optimize-recovery16"
    config_file = "optimize_recovery.json"
    size = None  # as committed: 16^2 x 20
    smoke_size = (8, 4)
    # one operation is a whole optimize run (tens of seconds); a warm-up run
    # would double the run time for a start-up cost well under 1% of it
    warmup_ops = 0
    command = "optimize"
    output_file = "history.csv"
    sections = ("optimize_s",)

    def make_config(self):
        raw = super().make_config()
        if self.smoke:
            # toy size stops in about ten iterations with every criterion enabled
            raw["solver"]["stationarity_tol"] = 8e-3
            raw["optimize"]["recovery_factor"] = 4.0
        return raw


WORKLOADS = {w.name: w for w in (SimulateLog64, GradientQuartic64, OptimizeRecovery16)}
