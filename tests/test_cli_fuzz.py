"""The CLI's exit-code contract, over one- and two-key mutations of the example configs.

Each example is one of ``configs/*.json`` cut to an 8 x 8 grid and at most 4 steps,
with its studies cut to match (``SMALL``), and then mutated at one or two keys: a
value replaced, a key removed, or an unknown key added.  Size and count keys take
small integers or a value of another JSON type, and are never removed (their
defaults reach 32 x 32 grids and 200 iterations), so no mutation asks for a large
allocation or a long run.  ``main`` must return 0, 1, 2 or 3 without raising, and

- exit 1 leaves a ``status=FAIL`` line in ``summary.txt``;
- exit 2 prints ``config error:`` naming a mutated key and writes no ``summary.txt``;
- exit 3 leaves ``failure.json``.
"""

import copy
import json
import os
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIGS

from thermophase.cli import main
from thermophase.config import _DEFAULTS, _FIELD_SPECS

COMMANDS = {"adjoint_test": "adjoint_test", "cont_dependence": "cont_dependence",
            "convergence": "convergence", "grad_check": "grad_check",
            "optimize_convex": "optimize", "optimize_recovery": "optimize",
            "simulate_logarithmic": "simulate"}

# merged into every example config before it is mutated
SMALL = {"grid": {"nx": 8, "ny": 8}, "time": {"nt": 4},
         "adjoint_test": {"n_trials": 2, "levels": [[4, 2], [8, 4]]},
         "convergence": {"spatial_levels": [], "spatial_ref_nx": 0, "spatial_nt": 4,
                         "temporal_nts": [1, 2], "temporal_ref_nt": 4, "temporal_nx": 8},
         "grad_check": {"n_directions": 1}, "solver": {"max_iters": 3}}


def _small(name):
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        raw = json.load(fh)
    for block, values in SMALL.items():
        raw.setdefault(block, {}).update(values)
    return raw


BASES = {name: _small(name) for name in COMMANDS}

_sizes = st.integers(-1, 8)
_counts = st.integers(-1, 4)
# size and count keys by name: small values only
SIZE_KEYS = {
    "nx": _sizes, "ny": _sizes, "temporal_nx": _sizes, "spatial_ref_nx": _sizes,
    "nt": _counts, "spatial_nt": _counts, "temporal_ref_nt": _counts, "max_iters": _counts,
    "n_trials": _counts, "n_directions": _counts, "snapshot_stride": _counts,
    "spatial_levels": st.lists(_sizes, max_size=3), "temporal_nts": st.lists(_counts, max_size=3),
    "levels": st.lists(st.tuples(_sizes, _counts).map(list), max_size=3),
}
_floats = st.floats()  # nan, infinities and subnormals included
# JSON values that are not integers
OTHER = st.one_of(
    st.none(), st.booleans(), _floats, st.text(max_size=3),
    st.sampled_from(["regular", "logarithmic", "obstacle_penalized", "affine",
                     "bounded_smooth"]),
    st.lists(_floats, max_size=3),
    st.fixed_dictionaries({"const": _floats}),
    st.fixed_dictionaries({"cosine": st.dictionaries(
        st.sampled_from(["amplitude", "kx", "ky", "offset", "ramp"]), _floats, max_size=2)}),
    st.fixed_dictionaries({"snapshot": st.text(max_size=3)}),
)
VALUES = st.one_of(OTHER, st.floats(-2.0, 2.0), st.integers(-3, 3),
                   st.sampled_from([1e300, -1e300, 1e-300, 5e-324, 2**63, 10**400, -10**400]))


def _paths(tree, prefix=()):
    """The path of every key in a nested dict, parents before children."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _config_key(path):
    """The name of the config key a path lies in; a path into a field spec lies in the
    spec's key."""
    block = path[0]
    if block == "cost" and len(path) > 2 and path[1] == "targets":
        return path[3 if path[2] == "from_run" and len(path) > 3 else 2]
    if path[1:2] and path[1] in _FIELD_SPECS.get(block, ()):
        return path[1]
    return path[-1]


@st.composite
def mutations(draw):
    """(command, mutated config, the names of the config keys it touched)."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    raw = copy.deepcopy(BASES[name])
    touched = []
    for _ in range(draw(st.integers(1, 2))):
        paths = sorted(set(_paths(raw)) | {(b, k) for b, block in _DEFAULTS.items()
                                            for k in block})
        path = draw(st.sampled_from(paths))
        *parents, leaf = path
        node = raw
        for key in parents:
            node = node.setdefault(key, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):  # an earlier mutation replaced a parent
            continue
        if node == {}:  # a new block: an error may name the block, not the key
            touched.append(path[0])
        # a removed size or count key would take its default, which can be large
        value = node.get(leaf)
        sized = leaf in SIZE_KEYS or (isinstance(value, dict) and any(
            p[-1] in SIZE_KEYS for p in _paths(value)))
        op = draw(st.sampled_from(["set", "add"] if sized else ["set", "remove", "add"]))
        if op == "add":
            node["unknown_key"] = 1
            touched.append("unknown_key")
            continue
        if op == "remove":
            node.pop(leaf, None)
        else:
            node[leaf] = draw(st.one_of(SIZE_KEYS[leaf], OTHER) if leaf in SIZE_KEYS
                              else VALUES)
        touched.append(_config_key(path))
    return COMMANDS[name], raw, touched


def _names_a_key(message, touched):
    # a flag such as --seed names no config key
    return any(re.search(rf"(?<!-)\b{re.escape(name)}\b", message) for name in touched)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=mutations())
def test_mutated_configs_keep_the_exit_code_contract(tmp_path_factory, capsys, case):
    cmd, raw, touched = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "config.json", tmp / "out"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    # the CLI runs under Python's default warning filters: an overflow in a mutated
    # value may warn on its way to the exit code that reports it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([cmd, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    summary = out / "summary.txt"
    assert code in (0, 1, 2, 3), (code, err)
    if code == 1:
        assert "status=FAIL" in summary.read_text()
    if code == 2:
        assert err.startswith("config error:"), err
        assert _names_a_key(err, touched), (touched, err)
        assert not summary.exists()
    if code == 3:
        assert (out / "failure.json").is_file(), err

