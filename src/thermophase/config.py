"""Configuration ingestion: JSON schema, defaults, validation, field presets.

A config file is a JSON object with the blocks below; only ``grid`` and
``time`` are required.  Validation has one owner per decision:

- this module owns the JSON shape: unknown keys are rejected at every level,
  field specs and cost targets must be well formed, and every value must have
  its default's JSON type (an int default takes integers only, a float
  default finite numbers, a list default a list of numbers, or of number
  pairs for ``adjoint_test.levels``; a bool is never a number);
- the domain types own value ranges.  ``ProblemConfig`` builds the problem,
  control, admissible set, options and cost once, at parse time, and a
  failed range check there (it names the violated assumption, e.g.
  "A1: alpha must be > 0") or a bad snapshot file becomes a ValidationError;
- ``output.snapshot_stride`` and the experiment blocks have no domain type,
  so ``ProblemConfig`` checks them: every list a slope is fitted to has two
  or more distinct positive entries, ``grad_check.n_directions`` and
  ``adjoint_test.n_trials`` are at least 1, and each convergence refinement
  level is a proper divisor of its reference.

The ``params``, ``potential``, ``coupling``, ``admissible`` and ``solver``
blocks take their defaults from the constructors of ``PhysParams``,
``Potential``, ``Coupling``, ``AdmissibleSet``, ``SolverOptions`` and
``OptimizeOptions``, and the cost targets follow ``sensitivity.TRACKING_TERMS``.

The Newton and Armijo limits (in ``state.phi_step`` and ``control.optimize``)
and the pass thresholds of the experiment criteria (in ``cli``) are constants,
not keys: a config that names one is rejected as an unknown key.

Field specs (initial data, controls, targets, bounds) are either a number
(constant field), a preset object, or a snapshot reference:

  {"const": c}
  {"cosine": {"amplitude": a, "kx": 1, "ky": 1, "offset": 0, "ramp": 0}}
      -> offset + a (1 + ramp t) cos(kx pi x / lx) cos(ky pi y / ly)
        (ramp only makes sense for space-time fields; t = 0 for spatial ones)
  {"snapshot": "field.cgw"}              (read once; broadcast in time when space-time)
  {"snapshot_dir": {"path": dir, "prefix": "u"}}   (space-time only; reads
      prefix_%06d.cgw per node)

Cost targets may instead be generated from a known control run:

  "targets": {"from_run": {"u": <spec>, "v0": <spec>}}

which solves the state system for that control and uses its trajectory (and
terminal values) as the six tracking targets, so recovery experiments are
self-contained.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any

import numpy as np

from .control import AdmissibleSet, ControlPair, CostSpec, OptimizeOptions
from .errors import ParseError, ThermophaseError, ValidationError
from .grid import GridSpec, build_grid
from .nonlinearity import Coupling, Potential
from .sensitivity import TRACKING_TERMS
from .snapshots import read_field
from .state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                    solve_state)


def _defaults_of(*classes) -> dict:
    """The constructor defaults of the given dataclasses, one key per field that
    has a plain default (``OptimizeOptions.solver`` has a default factory)."""
    return {f.name: f.default for cls in classes for f in fields(cls)
            if f.default is not MISSING}


_DEFAULTS: dict[str, Any] = {
    "grid": {"lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32},
    "time": {"t_final": 0.25, "nt": 50},
    "params": _defaults_of(PhysParams),
    "potential": _defaults_of(Potential),
    "coupling": _defaults_of(Coupling),
    "initial": {"phi0": 0.0, "w0": 0.0},
    "control": {"u": 0.0, "v0": 0.0},
    "admissible": _defaults_of(AdmissibleSet),
    "solver": _defaults_of(SolverOptions, OptimizeOptions),
    "output": {"directory": "out", "snapshot_stride": 0},
    "grad_check": {
        "epsilons": [1e-1, 1e-2, 1e-3], "n_directions": 5, "fd_steps": [1e-2, 1e-3, 1e-4],
    },
    "adjoint_test": {"n_trials": 10, "levels": []},
    "optimize": {"recovery_factor": 0.0, "clamp_formula_tol": 0.0, "vi_tol": 0.0},
    "convergence": {
        "lap_levels": [32, 64, 128], "mean_zero_nx": 16,
        "spatial_levels": [], "spatial_ref_nx": 0, "spatial_nt": 8,
        "temporal_nts": [], "temporal_ref_nt": 0, "temporal_nx": 32,
    },
    "cont_dependence": {"deltas": [1e-1, 1e-2, 1e-3, 1e-4]},
}

# list keys whose elements are number pairs; every other list holds numbers
_PAIR_LISTS = ("adjoint_test.levels",)
_COST_KEYS = ("k1", "k2", "k3", "k4", "k5", "k6", "nu1", "nu2")
_COSINE_KEYS = ("amplitude", "kx", "ky", "offset", "ramp")
# field-spec entries of the blocks, and whether each is a space-time field
_FIELD_SPECS = {"initial": {"phi0": False, "w0": False},
                "control": {"u": True, "v0": False},
                "admissible": {"u_lo": False, "u_hi": False, "v_lo": False, "v_hi": False}}


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _check_type(value, default, where: str) -> None:
    """A value must have its default's JSON type; a bool is never a number."""
    if isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif isinstance(default, float):
        ok, want = _is_finite(value), "a finite number"
    elif where in _PAIR_LISTS:
        ok = isinstance(value, list) and all(
            isinstance(x, list) and len(x) == 2 and all(map(_is_finite, x)) for x in value)
        want = "a list of number pairs"
    else:
        ok, want = isinstance(value, list) and all(map(_is_finite, value)), "a list of numbers"
    if not ok:
        raise ValidationError(f"{where} must be {want}, got {value!r}")


def _is_field_spec(value) -> bool:
    if _is_number(value):
        return True
    if isinstance(value, dict) and len(value) == 1:
        return next(iter(value)) in ("const", "cosine", "snapshot", "snapshot_dir")
    return False


def _check_field_spec(value, where: str, space_time: bool) -> None:
    if not _is_field_spec(value):
        raise ValidationError(f"{where}: not a field spec: {value!r}")
    if isinstance(value, dict):
        key = next(iter(value))
        body = value[key]
        if key == "const" and not _is_number(body):
            raise ValidationError(f"{where}: const must be a number")
        if key == "cosine":
            if not (isinstance(body, dict) and all(map(_is_number, body.values()))):
                raise ValidationError(f"{where}: cosine takes an object of numbers")
            _reject_unknown(body, _COSINE_KEYS, where)
        if key == "snapshot" and not isinstance(body, str):
            raise ValidationError(f"{where}: snapshot takes a path string")
        if key == "snapshot_dir":
            if not space_time:
                raise ValidationError(f"{where}: snapshot_dir only applies to space-time fields")
            if not isinstance(body, dict):
                raise ValidationError(f"{where}: snapshot_dir takes an object")
            _reject_unknown(body, ("path", "prefix"), where)


def _finite(value: np.ndarray, what) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"field spec {what!r} produced non-finite entries")
    return value


def build_field(spec, grid: GridSpec, nodes=None, tau: float = 0.0) -> np.ndarray:
    """Materialize a field spec: spatial (ny, nx) when ``nodes`` is None, else
    space-time (len(nodes), ny, nx) at the times ``n * tau`` of the given nodes."""
    key, body = ("const", spec) if _is_number(spec) else next(iter(spec.items()))
    if key == "snapshot_dir":
        prefix = body.get("prefix", "u")
        return np.stack([grid.check_field(read_field(
            os.path.join(body["path"], f"{prefix}_{n:06d}.cgw"))) for n in nodes])
    t = np.zeros(1) if nodes is None else np.asarray(nodes) * tau
    if key == "const":
        out = _finite(np.full((len(t),) + grid.shape, float(body)), spec)
    elif key == "cosine":
        amp = float(body.get("amplitude", 1.0))
        kx = float(body.get("kx", 1))
        ky = float(body.get("ky", 1))
        ramp = float(body.get("ramp", 0.0))
        x, y = grid.cell_centers()
        mode = np.cos(kx * np.pi * x / grid.lx) * np.cos(ky * np.pi * y / grid.ly)
        out = (amp * (1.0 + ramp * t))[:, None, None] * mode
        out += float(body.get("offset", 0.0))
        _finite(out, spec)
    else:
        f = grid.check_field(read_field(body), body)
        out = np.broadcast_to(f, (len(t),) + f.shape).copy()
    return out[0] if nodes is None else out


def _validated(raw: dict) -> dict:
    """Defaults applied, every key and type checked; returns the normalized dict.

    Only the JSON shape is checked here; value ranges are checked by the
    objects ProblemConfig builds from the result.
    """
    if not isinstance(raw, dict):
        raise ValidationError("top-level config must be an object")
    _reject_unknown(raw, list(_DEFAULTS) + ["cost"], "config")
    for required in ("grid", "time"):
        if required not in raw:
            raise ValidationError(f"config: missing required block {required!r}")
    cfg = copy.deepcopy(_DEFAULTS)
    for name, block in raw.items():
        if name == "cost":
            continue
        if not isinstance(block, dict):
            raise ValidationError(f"{name}: must be an object")
        _reject_unknown(block, cfg[name], name)
        cfg[name].update(copy.deepcopy(block))
    for name, block in cfg.items():
        specs = _FIELD_SPECS.get(name, {})
        for key, value in block.items():
            if key in specs:
                _check_field_spec(value, f"{name}.{key}", space_time=specs[key])
            else:
                _check_type(value, _DEFAULTS[name][key], f"{name}.{key}")

    if "cost" in raw:
        cost_raw = raw["cost"]
        if not isinstance(cost_raw, dict):
            raise ValidationError("cost: must be an object")
        _reject_unknown(cost_raw, list(_COST_KEYS) + ["targets"], "cost")
        cost = {}
        for k in _COST_KEYS:
            _check_type(cost_raw.get(k, 0.0), 0.0, f"cost.{k}")
            cost[k] = float(cost_raw.get(k, 0.0))
        targets = cost_raw.get("targets", {})
        if not isinstance(targets, dict):
            raise ValidationError("cost.targets: must be an object")
        if "from_run" in targets:
            _reject_unknown(targets, ("from_run",), "cost.targets")
            _reject_unknown(targets["from_run"], ("u", "v0"), "cost.targets.from_run")
            _check_field_spec(targets["from_run"].get("u", 0.0), "cost.targets.from_run.u",
                              space_time=True)
            _check_field_spec(targets["from_run"].get("v0", 0.0), "cost.targets.from_run.v0",
                              space_time=False)
        else:
            _reject_unknown(targets, [key for _, _, key, _ in TRACKING_TERMS], "cost.targets")
            for _, _, key, terminal in TRACKING_TERMS:
                if key in targets:
                    _check_field_spec(targets[key], f"cost.targets.{key}",
                                      space_time=not terminal)
        cost["targets"] = copy.deepcopy(targets)
        cfg["cost"] = cost
    return cfg


# lists an experiment fits a log-log slope to (fd_steps: picks a plateau from
# consecutive pairs); a convergence refinement is off when its list is empty
_FIT_LISTS = ("grad_check.epsilons", "grad_check.fd_steps", "cont_dependence.deltas",
              "convergence.lap_levels", "convergence.spatial_levels",
              "convergence.temporal_nts")
_REFINEMENT_REFS = {"spatial_levels": "spatial_ref_nx", "temporal_nts": "temporal_ref_nt"}


def _check_studies(raw: dict) -> None:
    """Every slope fit gets two distinct positive points or more; a level divides its reference."""
    for where in _FIT_LISTS:
        block, key = where.split(".")
        values = raw[block][key]
        if key in _REFINEMENT_REFS and not values:
            continue
        if len(set(values)) < max(len(values), 2) or min(values) <= 0:
            raise ValidationError(f"{where} needs two or more distinct positive entries "
                                  f"for its slope fit, got {values!r}")
        if key in _REFINEMENT_REFS:
            ref_key = _REFINEMENT_REFS[key]
            ref = raw[block][ref_key]
            bad = [n for n in values if not (n < ref and ref % n == 0)]
            if bad:
                raise ValidationError(f"{where} {bad} must be proper divisors of "
                                      f"{block}.{ref_key} = {ref}")
    for where in ("grad_check.n_directions", "adjoint_test.n_trials"):
        block, key = where.split(".")
        if raw[block][key] < 1:
            raise ValidationError(f"{where} must be >= 1, got {raw[block][key]}")


def _readonly(*values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass
class ProblemConfig:
    """Validated configuration plus the solver objects, built once from it.

    Construction builds the problem, control, admissible set, solver and
    optimizer options and the cost, so their range checks run at parse time;
    the accessors return these objects, whose arrays are read-only.  Targets
    generated ``from_run`` are solved for on each ``cost_spec`` call.
    """

    raw: dict
    grid: GridSpec = field(init=False, repr=False)
    timegrid: TimeGrid = field(init=False, repr=False)

    def __post_init__(self):
        raw = self.raw
        self.grid = build_grid(**raw["grid"])
        self.timegrid = TimeGrid(t_final=float(raw["time"]["t_final"]), nt=raw["time"]["nt"])
        init = raw["initial"]
        self._problem = Problem(
            grid=self.grid, time=self.timegrid, params=PhysParams(**raw["params"]),
            potential=Potential(**raw["potential"]), coupling=Coupling(**raw["coupling"]),
            initial=InitialData(phi0=build_field(init["phi0"], self.grid),
                                w0=build_field(init["w0"], self.grid)))
        self._problem.check_initial()
        self._control = self._control_pair(raw["control"])
        adm = raw["admissible"]
        bounds = {k: self._bound(adm[k]) for k in _FIELD_SPECS["admissible"]}
        self._admissible = AdmissibleSet(**bounds, ball_radius=float(adm["ball_radius"]))
        s = raw["solver"]
        self._solver = SolverOptions(**{f.name: s[f.name] for f in fields(SolverOptions)})
        self._optimize = OptimizeOptions(
            **{f.name: s[f.name] for f in fields(OptimizeOptions) if f.name != "solver"},
            solver=self._solver)
        if raw["output"]["snapshot_stride"] < 0:
            raise ValidationError("output.snapshot_stride must be >= 0")
        _check_studies(raw)
        self._cost = self._from_run = None
        if "cost" in raw:
            self._build_cost(raw["cost"])
        _readonly(self._problem.initial.phi0, self._problem.initial.w0, *bounds.values())

    def _control_pair(self, blk: dict) -> ControlPair:
        nodes = range(1, self.timegrid.nt + 1)
        pair = ControlPair(u=build_field(blk.get("u", 0.0), self.grid, nodes, self.timegrid.tau),
                           v0=build_field(blk.get("v0", 0.0), self.grid))
        _readonly(pair.u, pair.v0)
        return pair

    def _bound(self, spec) -> float | np.ndarray:
        return float(spec) if isinstance(spec, (int, float)) else build_field(spec, self.grid)

    def _build_cost(self, blk: dict) -> None:
        weights = {k: blk[k] for k in _COST_KEYS}
        if "from_run" in blk["targets"]:
            self._cost = CostSpec(**weights)
            self._from_run = self._control_pair(blk["targets"]["from_run"])
            return
        nodes = range(self.timegrid.nt + 1)
        targets = {key: build_field(blk["targets"].get(key, 0.0), self.grid,
                                    None if terminal else nodes, self.timegrid.tau)
                   for _, _, key, terminal in TRACKING_TERMS}
        _readonly(*targets.values())
        self._cost = CostSpec(**weights, **targets)

    # -- built pieces -------------------------------------------------------
    def problem(self) -> Problem:
        return self._problem

    def control(self) -> ControlPair:
        return self._control

    def admissible_set(self) -> AdmissibleSet:
        return self._admissible

    def solver_options(self) -> SolverOptions:
        return self._solver

    def optimize_options(self, seed: int | None = None) -> OptimizeOptions:
        return self._optimize if seed is None else replace(self._optimize, seed=int(seed))

    def has_cost(self) -> bool:
        return self._cost is not None

    def cost_spec(self, problem: Problem | None = None) -> CostSpec:
        """The cost; runs the generating solve for from_run targets on every call."""
        if self._cost is None:
            raise ValidationError("C2: this command needs a cost block")
        if self._from_run is None:
            return self._cost
        traj = solve_state(problem if problem is not None else self._problem, self._from_run,
                           self._solver)
        nt = self.timegrid.nt
        return replace(self._cost, **{key: getattr(traj, state)[nt] if terminal
                                      else getattr(traj, state)
                                      for _, state, key, terminal in TRACKING_TERMS})


def _build(raw, source: str) -> ProblemConfig:
    """The one parse path; a failed range check of a built object is a config error."""
    try:
        return ProblemConfig(raw=_validated(raw))
    except ValidationError:
        raise
    except (ThermophaseError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{source}: {type(exc).__name__}: {exc}") from exc


def parse_config(path: str) -> ProblemConfig:
    """Load, validate, and normalize a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ParseError(f"{path}: {exc}") from exc
    return _build(raw, path)


def parse_config_dict(raw: dict) -> ProblemConfig:
    """Validate an in-memory config object (same contract as parse_config)."""
    return _build(raw, "config")


def echo_effective_config(cfg: ProblemConfig, path: str) -> None:
    """Write the normalized config (defaults materialized) as valid config JSON."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
