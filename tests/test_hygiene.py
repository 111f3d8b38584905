"""Source hygiene: every imported name in the package modules and the tests is used, every
function and method of the package is referenced by the package or the benchmark, every
field of a package dataclass is read there, and each format is written or read in one
place.  A test alone keeps a definition only through ``TEST_ONLY``."""

import ast
import glob
import os

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "thermophase", "*.py")))
TESTS = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
# __init__.py imports names to re-export them
SOURCES = [p for p in PACKAGE if os.path.basename(p) != "__init__.py"] + TESTS
# the benchmark drives the package through its API; it is read, never checked itself
BENCHMARK = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                   + glob.glob(os.path.join(ROOT, "perfbench", "tests", "*.py")))


def _imported(tree):
    """(bound name, line) of every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree) -> set[str]:
    """Names read anywhere, including inside string annotations such as "ControlPair"."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation is not None]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{os.path.relpath(path, ROOT)} imports unused names: {unused}"


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _definitions(tree):
    """(name, qualified name, line) of every module-level function and method,
    dunder methods aside: Python calls those itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, f"{node.name}.{item.name}", item.lineno


# Package definitions named like an np.ndarray attribute (``copy``, ``shape``, ...):
# an access of that name is most often the array's, so such a definition counts as
# referenced only when listed here, with a function (module.scope) that reads it.
NDARRAY_NAMED = {"GridSpec.shape": "grid.GridSpec.zeros"}


# Definitions that only tests read, each kept for the reason given.
TEST_ONLY = {
    "Potential.gamma": "the checked evaluation of gamma that the 0-D oracle calls",
}


def _fields(tree):
    """(name, qualified name, line) of every annotated field of a module's dataclasses."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, f"{node.name}.{item.target.id}", item.lineno


def test_no_unreferenced_definitions():
    referenced = set()
    for path in PACKAGE + BENCHMARK:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                referenced.add(node.attr)
    array_names = set(dir(np.ndarray))
    unreferenced = [f"{os.path.relpath(path, ROOT)}:{line} {qualname}"
                    for path in PACKAGE
                    for name, qualname, line in _definitions(_parse(path))
                    if qualname not in TEST_ONLY
                    and (name not in referenced
                         or (name in array_names and qualname not in NDARRAY_NAMED))]
    assert not unreferenced, f"defined but never referenced: {unreferenced}"
    # an exemption is stale once its definition is gone or the package or benchmark reads it
    defined = {qualname for path in PACKAGE for found in (_definitions, _fields)
               for _, qualname, _ in found(_parse(path))}
    stale = [qualname for qualname in TEST_ONLY
             if qualname not in defined or qualname.rsplit(".", 1)[1] in referenced]
    assert not stale, f"TEST_ONLY entries that are gone or referenced: {stale}"


def test_ndarray_named_definitions_are_read_where_listed():
    for qualname, site in NDARRAY_NAMED.items():
        name = qualname.rsplit(".", 1)[1]
        assert _sites(lambda n: isinstance(n, ast.Attribute) and n.attr == name).count(site), \
            f"{qualname}: {site} reads no attribute {name!r}"


def _scoped(tree):
    """(dotted name of the enclosing function or class, node) for every node of a module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


def _sites(predicate):
    """module.function of every node of the package that satisfies ``predicate``."""
    return [f"{os.path.splitext(os.path.basename(path))[0]}.{scope}"
            for path in PACKAGE for scope, node in _scoped(_parse(path)) if predicate(node)]


def _renames_a_file(node) -> bool:
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("replace", "rename") for alias in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
            and node.func.attr in ("replace", "rename"))


def _formats_cgw_name(node) -> bool:
    """An f-string, %-format or str.format call whose literal text holds '.cgw'."""
    if isinstance(node, ast.JoinedStr):
        literal = [v for v in node.values if isinstance(v, ast.Constant)]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        literal = [node.left]
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "format":
        literal = [node.func.value]
    else:
        return False
    return any(isinstance(c, ast.Constant) and isinstance(c.value, str) and ".cgw" in c.value
               for c in literal)


def test_files_reach_disk_through_one_writer():
    # every artefact is written to a temp file and renamed over its path, in one place
    assert _sites(_renames_a_file) == ["snapshots.write_atomic"]


def test_series_name_formed_in_one_function():
    # prefix_%06d.cgw is built only by the snapshots series helper
    assert _sites(_formats_cgw_name) == ["snapshots._series_path"]


def test_field_spec_kinds_named_in_one_function():
    # config.build_field is the one reader of the field-spec grammar: no other code
    # of the package names a spec kind, so no second grammar can grow beside it
    kinds = {"const", "cosine", "snapshot", "snapshot_dir"}
    named = set(_sites(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                       and n.value in kinds))
    assert named == {"config.build_field"}


def _is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


# methods that change their receiver: x.f.append(...) fills x.f but does not read it
MUTATORS = ("append", "extend", "insert", "update", "add")


def _mutated_receivers(tree) -> set[int]:
    """ids of the attribute loads that are the receiver of a mutating method call."""
    return {id(node.func.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Attribute)}


def test_no_unread_dataclass_fields():
    # a field is read where some code loads it as an attribute or a string names it
    # (getattr, a CSV column, a config key); assignments alone do not count, and
    # neither does a load whose one use is to call a mutating method on it
    read = set()
    for path in PACKAGE + BENCHMARK:
        tree = _parse(path)
        filled = _mutated_receivers(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in filled):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [f"{os.path.relpath(path, ROOT)}:{line} {qualname}"
              for path in PACKAGE for name, qualname, line in _fields(_parse(path))
              if name not in read and qualname not in TEST_ONLY]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_test_only_entries_are_read_by_tests_alone():
    # an entry that the package or the benchmark reads, or that no test reads, is stale
    def attributes(paths):
        return {node.attr for path in paths for node in ast.walk(_parse(path))
                if isinstance(node, ast.Attribute)}
    outside, tests = attributes(PACKAGE + BENCHMARK), attributes(TESTS)
    for qualname in TEST_ONLY:
        name = qualname.rsplit(".", 1)[1]
        assert name not in outside, f"{qualname} is read outside tests"
        assert name in tests, f"{qualname}: no test reads it"
