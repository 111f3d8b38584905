"""Configuration ingestion: JSON schema, defaults, validation, field presets.

A config file is a JSON object with the blocks below; only ``grid`` and
``time`` are required.  Validation has one owner per decision:

- this module owns the JSON shape, on one path for every block: unknown keys
  are rejected at every level, and every value that is not a field spec must
  have its default's JSON type (an int default takes integers only, a float
  default finite numbers, a list default a list of numbers, of integers for
  the study levels, or of integer pairs for ``adjoint_test.levels``; a bool
  is never a number) and is stored as that type (an integer ``1`` given for
  a float as ``1.0``); only ``cost.targets`` has its own structure check;
- ``build_field`` owns the field-spec grammar below; each of its errors names the key;
- the domain types own value ranges.  ``ProblemConfig`` builds the problem,
  control, admissible set, options and cost once, at parse time, and a
  failed range check there (it names the violated assumption, e.g.
  "A1: alpha must be > 0") becomes a ValidationError;
- ``output.snapshot_stride`` and the experiment blocks have no domain type,
  so ``ProblemConfig`` checks them: every list a slope is fitted to has two
  or more distinct positive entries, ``grad_check.n_directions`` and
  ``adjoint_test.n_trials`` are at least 1, each convergence refinement
  level is a proper divisor of its reference, and every study level's
  ``level_grid`` (the grid the run builds) and time grid can be built;
  once every field is built, it also checks that a trajectory (three
  (nt+1, ny, nx) float64 arrays) fits in physical memory, naming ``time.nt``.

The ``params``, ``potential``, ``coupling``, ``admissible`` and ``solver``
blocks take their defaults from the constructors of ``PhysParams``,
``Potential``, ``Coupling``, ``AdmissibleSet``, ``SolverOptions`` and
``OptimizeOptions``, the ``cost`` weights from ``CostSpec``, and the cost
targets follow ``sensitivity.TRACKING_TERMS``.
``solver.seed`` (default 0) seeds the random directions of ``grad_check``,
``adjoint_test`` and ``convergence``; ``optimize`` draws no random numbers.

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

A cosine's mode is ``GridSpec.cosine_mode``.  A space-time spec that does not vary in
time (all but a ramped cosine and snapshot_dir) is stored as one (ny, nx) field,
broadcast read-only over the nodes; ``ControlPair`` checks such a u on that one node.

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
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .control import AdmissibleSet, ControlPair, CostSpec, OptimizeOptions
from .errors import ParseError, ThermophaseError, ValidationError
from .grid import GridSpec, build_grid
from .nonlinearity import Coupling, Potential
from .sensitivity import TRACKING_TERMS
from .snapshots import read_field, read_series, write_atomic
from .state import (InitialData, PhysParams, Problem, SolverOptions, TimeGrid,
                    solve_state)


def _defaults_of(*classes) -> dict:
    """The constructor defaults of the given dataclasses, one key per field whose default
    is a number or a string (``OptimizeOptions.solver`` has a default factory, and
    ``CostSpec``'s targets default to None)."""
    return {f.name: f.default for cls in classes for f in fields(cls)
            if isinstance(f.default, (int, float, str))}


_DEFAULTS: dict[str, Any] = {
    "grid": {"lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32},
    "time": {"t_final": 0.25, "nt": 50},
    "params": _defaults_of(PhysParams),
    "potential": _defaults_of(Potential),
    "coupling": _defaults_of(Coupling),
    "initial": {"phi0": 0.0, "w0": 0.0},
    "control": {"u": 0.0, "v0": 0.0},
    "admissible": _defaults_of(AdmissibleSet),
    "solver": {**_defaults_of(SolverOptions, OptimizeOptions), "seed": 0},
    "output": {"directory": "out", "snapshot_stride": 0},
    "grad_check": {
        "epsilons": [1e-1, 1e-2, 1e-3], "n_directions": 5, "fd_steps": [1e-2, 1e-3, 1e-4],
    },
    "adjoint_test": {"n_trials": 10, "levels": []},
    "optimize": {"recovery_factor": 0.0, "clamp_formula_tol": 0.0, "vi_tol": 0.0},
    "convergence": {
        "spatial_levels": [], "spatial_ref_nx": 0, "spatial_nt": 8,
        "temporal_nts": [], "temporal_ref_nt": 0, "temporal_nx": 32,
    },
    "cont_dependence": {"deltas": [1e-1, 1e-2, 1e-3, 1e-4]},
    "cost": {**_defaults_of(CostSpec), "targets": {}},  # only when a config has one
}

# list keys whose elements are integers (cell or step counts), and the one of pairs
_INT_LISTS = ("convergence.spatial_levels", "convergence.temporal_nts")
_PAIR_LIST = "adjoint_test.levels"
_COSINE_DEFAULTS = {"amplitude": 1.0, "kx": 1, "ky": 1, "offset": 0.0, "ramp": 0.0}
# field-spec entries of the blocks: build_field checks them, not _typed
_FIELD_SPECS = {"initial": ("phi0", "w0"), "control": ("u", "v0"),
                "admissible": ("u_lo", "u_hi", "v_lo", "v_hi"), "cost": ("targets",)}


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")


def _check_object(value, allowed, where: str) -> None:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be an object")
    _reject_unknown(value, allowed, where)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_int(value)


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


def _is_int(value) -> bool:  # a JSON integer can exceed the float range
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _typed(value, default, where: str):
    """``value`` checked to have its default's JSON type, and stored as that type: a float
    default stores a float, a list of numbers a list of floats.  A bool is never a number."""
    if isinstance(default, str):
        ok, want = isinstance(value, str), "a string"
    elif isinstance(default, int):
        ok, want = _is_int(value), "an integer"
    elif isinstance(default, float):
        ok, want = _is_finite(value), "a finite number"
    elif where == _PAIR_LIST:
        ok = isinstance(value, list) and all(
            isinstance(x, list) and len(x) == 2 and all(map(_is_int, x)) for x in value)
        want = "a list of integer pairs"
    elif where in _INT_LISTS:
        ok, want = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    else:
        ok, want = isinstance(value, list) and all(map(_is_finite, value)), "a list of numbers"
    if not ok:
        raise ValidationError(f"{where} must be {want}, got {value!r}")
    if want == "a finite number":
        return float(value)
    return [float(x) for x in value] if want == "a list of numbers" else value


def build_field(spec, grid: GridSpec, nodes=None, tau: float = 0.0,
                where: str = "field") -> np.ndarray:
    """Check and build a field spec: spatial (ny, nx) when ``nodes`` is None, else
    space-time (len(nodes), ny, nx) at the times ``n * tau`` of the given nodes.

    A space-time spec that does not vary in time (``const``, ``cosine`` with ramp 0,
    ``snapshot``) is built as one (ny, nx) field and returned as a read-only view of it
    with stride 0 along the node axis; a ramped ``cosine`` and ``snapshot_dir`` are
    materialized.  The one reader of the field-spec grammar; each error it raises starts
    with ``where``, the key, also when the field cannot be formed (too large, unreadable)."""
    if _is_number(spec):
        spec = {"const": spec}
    key, body = list(spec.items())[0] if isinstance(spec, dict) and len(spec) == 1 else (None, None)
    try:
        if key == "const":
            if not _is_number(body):
                raise ValidationError(f"{where}: const takes a number, got {body!r}")
            f = np.full(grid.shape, float(body))
        elif key == "cosine":
            if not (isinstance(body, dict) and all(map(_is_number, body.values()))):
                raise ValidationError(f"{where}: cosine takes an object of numbers, got {body!r}")
            _reject_unknown(body, _COSINE_DEFAULTS, f"{where}.cosine")
            c = {**_COSINE_DEFAULTS, **body}
            mode = grid.cosine_mode(c["kx"], c["ky"])
            ramped = nodes is not None and c["ramp"] != 0.0
            t = np.asarray(nodes)[:, None, None] * tau if ramped else 0.0
            f = c["amplitude"] * (1.0 + c["ramp"] * t) * mode + c["offset"]
        elif key == "snapshot":
            if not isinstance(body, str):
                raise ValidationError(f"{where}: snapshot takes a path string, got {body!r}")
            f = grid.check_field(read_field(body), body)
        elif key == "snapshot_dir":
            if nodes is None:
                raise ValidationError(f"{where}: snapshot_dir only applies to space-time fields")
            if not (isinstance(body, dict) and isinstance(body.get("path"), str)
                    and isinstance(body.get("prefix", "u"), str)):
                raise ValidationError(f"{where}: snapshot_dir takes an object with a path "
                                      f"string and an optional prefix string, got {body!r}")
            _reject_unknown(body, ("path", "prefix"), f"{where}.snapshot_dir")
            f = grid.check_field(read_series(body["path"], body.get("prefix", "u"), nodes),
                                 body["path"], len(nodes))
        else:
            raise ValidationError(f"{where}: not a field spec: {spec!r}")
        # a (ny, nx) f does not vary in time
        out = f if nodes is None or f.ndim == 3 else np.broadcast_to(f, (len(nodes),) + f.shape)
    except ValidationError:
        raise
    except (ThermophaseError, OSError, ValueError, MemoryError) as exc:
        raise ValidationError(f"{where}: {type(exc).__name__}: {exc}") from exc
    if not np.all(np.isfinite(f)):
        raise ValidationError(f"{where}: {spec!r} produced non-finite entries")
    return out


def _physical_memory() -> int | None:
    """The host's physical memory in bytes, or None where ``os.sysconf`` cannot tell
    (no POSIX sysconf, as on Windows); the trajectory bound is then not checked.

    Physical memory bounds every run, whatever limits its process has, and reading it
    allocates nothing.  A tighter cgroup or ``ulimit -v`` limit is not seen: a trajectory
    between that limit and physical memory fails when ``solve_state`` allocates it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _validated(raw: dict) -> dict:
    """Defaults applied, every key and type checked; returns the normalized dict.

    Only the JSON shape is checked here; value ranges are checked by the
    objects ProblemConfig builds from the result.
    """
    if not isinstance(raw, dict):
        raise ValidationError("top-level config must be an object")
    _reject_unknown(raw, _DEFAULTS, "config")
    for required in ("grid", "time"):
        if required not in raw:
            raise ValidationError(f"config: missing required block {required!r}")
    cfg = copy.deepcopy({name: block for name, block in _DEFAULTS.items()
                         if name != "cost" or name in raw})
    for name, block in raw.items():
        _check_object(block, cfg[name], name)
        cfg[name].update(copy.deepcopy(block))
    for name, block in cfg.items():
        for key, value in block.items():
            if key not in _FIELD_SPECS.get(name, ()):
                block[key] = _typed(value, _DEFAULTS[name][key], f"{name}.{key}")
    if "cost" in cfg:  # the targets' own structure; build_field checks each spec
        targets = cfg["cost"]["targets"]
        from_run = isinstance(targets, dict) and "from_run" in targets
        _check_object(targets, ["from_run"] if from_run else
                      [key for _, _, key, _ in TRACKING_TERMS], "cost.targets")
        if from_run:
            _check_object(targets["from_run"], ("u", "v0"), "cost.targets.from_run")
    return cfg


# lists an experiment fits a log-log slope to (fd_steps: picks a plateau from
# consecutive pairs); a convergence refinement is off when its list is empty
_FIT_LISTS = ("grad_check.epsilons", "grad_check.fd_steps", "cont_dependence.deltas",
              "convergence.spatial_levels", "convergence.temporal_nts")
_REFINEMENT_REFS = {"spatial_levels": "spatial_ref_nx", "temporal_nts": "temporal_ref_nt"}


def level_grid(grid: GridSpec, nx: int) -> GridSpec:
    """A study level's grid: nx cells across the run's domain, ny = round(nx ly / lx)."""
    return build_grid(grid.lx, grid.ly, nx, round(nx * grid.ly / grid.lx))


def _check_studies(raw: dict, grid: GridSpec) -> None:
    """Every slope fit gets two distinct positive points or more; a level divides its
    reference; every level's grid and time grid can be built."""
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
    # (key, nx, nt) of each level a study builds (a reference is a multiple of one)
    c = raw["convergence"]
    levels = ([("convergence.spatial_levels", nx, c["spatial_nt"]) for nx in c["spatial_levels"]]
              + [("convergence.temporal_nts", c["temporal_nx"], nt) for nt in c["temporal_nts"]]
              + [("adjoint_test.levels", nx, nt) for nx, nt in raw["adjoint_test"]["levels"]])
    for where, nx, nt in levels:
        try:
            level_grid(grid, nx)
            TimeGrid(raw["time"]["t_final"], nt)
        except ThermophaseError as exc:
            raise ValidationError(f"{where}: level nx={nx}: {type(exc).__name__}: {exc}") from exc


def _readonly(*values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass
class ProblemConfig:
    """Validated configuration plus the solver objects, built once from it.

    Construction builds the problem, control, admissible set, solver and
    optimizer options and the cost, so their range checks run at parse time;
    the accessors return these objects, whose arrays are read-only.  A
    space-time field that does not vary in time is stored once, as a
    ``build_field`` view.  Targets generated ``from_run`` are solved for on
    each ``cost_spec`` call; a target of zero weight is then None, so no
    trajectory the cost does not read is kept.
    """

    raw: dict
    grid: GridSpec = field(init=False, repr=False)
    timegrid: TimeGrid = field(init=False, repr=False)

    def __post_init__(self):
        raw = self.raw
        self.grid = build_grid(**raw["grid"])
        self.timegrid = TimeGrid(**raw["time"])
        init = raw["initial"]
        self._problem = Problem(
            grid=self.grid, time=self.timegrid, params=PhysParams(**raw["params"]),
            potential=Potential(**raw["potential"]), coupling=Coupling(**raw["coupling"]),
            initial=InitialData(phi0=build_field(init["phi0"], self.grid, where="initial.phi0"),
                                w0=build_field(init["w0"], self.grid, where="initial.w0")))
        self._problem.check_initial()
        self._control = self._control_pair(raw["control"], "control")
        adm = raw["admissible"]
        bounds = {k: self._bound(adm[k], f"admissible.{k}") for k in _FIELD_SPECS["admissible"]}
        self._admissible = AdmissibleSet(**bounds, ball_radius=adm["ball_radius"])
        self._admissible.v0_anchor(self.grid)  # raises when the set is empty
        s = raw["solver"]
        self._solver = SolverOptions(**{f.name: s[f.name] for f in fields(SolverOptions)})
        self._optimize = OptimizeOptions(
            **{f.name: s[f.name] for f in fields(OptimizeOptions) if f.name != "solver"},
            solver=self._solver)
        if raw["output"]["snapshot_stride"] < 0:
            raise ValidationError("output.snapshot_stride must be >= 0")
        _check_studies(raw, self.grid)
        self._cost = self._from_run = None
        if "cost" in raw:
            self._build_cost(raw["cost"])
        _readonly(self._problem.initial.phi0, self._problem.initial.w0, *bounds.values())
        # the fields above are built (a node count past the index range names its field);
        # a trajectory's three node-stacked states must fit in physical memory
        nt, (ny, nx) = self.timegrid.nt, self.grid.shape
        memory = _physical_memory()
        if memory is not None and 3 * 8 * (nt + 1) * ny * nx > memory:
            raise ValidationError(f"time.nt = {nt}: a trajectory of 3 x {nt + 1} x {ny} x {nx} "
                                  f"float64 values exceeds the {memory} bytes of physical memory")

    def _control_pair(self, blk: dict, where: str) -> ControlPair:
        nodes = range(1, self.timegrid.nt + 1)
        pair = ControlPair(u=build_field(blk.get("u", 0.0), self.grid, nodes, self.timegrid.tau,
                                         f"{where}.u"),
                           v0=build_field(blk.get("v0", 0.0), self.grid, where=f"{where}.v0"))
        _readonly(pair.u, pair.v0)
        return pair

    def _bound(self, spec, where: str) -> float | np.ndarray:
        return float(spec) if _is_number(spec) else build_field(spec, self.grid, where=where)

    def _build_cost(self, blk: dict) -> None:
        weights = {k: v for k, v in blk.items() if k != "targets"}
        if "from_run" in blk["targets"]:
            self._cost = CostSpec(**weights)
            self._from_run = self._control_pair(blk["targets"]["from_run"],
                                                "cost.targets.from_run")
            return
        nodes = range(self.timegrid.nt + 1)
        targets = {key: build_field(blk["targets"].get(key, 0.0), self.grid,
                                    None if terminal else nodes, self.timegrid.tau,
                                    f"cost.targets.{key}")
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

    def optimize_options(self) -> OptimizeOptions:
        return self._optimize

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
        return replace(self._cost, **{
            key: None if getattr(self._cost, weight) == 0.0
            else getattr(traj, state)[nt] if terminal else getattr(traj, state)
            for weight, state, key, terminal in TRACKING_TERMS})


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
    write_atomic(path, json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n")
