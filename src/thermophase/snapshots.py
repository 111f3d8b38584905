"""How run artefacts reach disk: atomic writes, the CGW1 snapshot format, series, trajectories.

Every file the package writes goes through ``write_atomic`` (a temp file, then
``os.replace``), so no reader ever sees a partial file.  A snapshot file holds
one field: magic bytes "CGW1", little-endian u32 nx, u32 ny, then nx*ny
little-endian 64-bit floats, row-major over cell centers.  A series is one
snapshot per time node, ``<prefix>_<node:06d>.cgw``, a name that only
``write_series``, ``read_series`` and ``remove_series`` form.  A persisted
trajectory is the phi/w/v series at the ``stored_nodes`` of a node stride (the
final node always included), each node written by ``persist_node`` as a march
reaches it, plus a plain-text index file recording node count, stride and tau.
``write_index`` writes the index after the final node, so a directory without
one holds the prefix of a march that failed.  The package only writes
trajectories; ``read_series`` over ``stored_nodes`` of the index reads one back.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"CGW1"
INDEX_NAME = "index.txt"
TRAJECTORY_SERIES = ("phi", "w", "v")
_HEADER = struct.Struct("<4sII")


def write_atomic(path: str, data: str | bytes) -> None:
    """Write ``data`` (text or bytes) to ``path`` through a temp file and a rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_field(path: str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype="<f8")
    if values.ndim != 2:
        raise FormatError(f"snapshot fields are 2-D, got shape {values.shape}")
    ny, nx = values.shape
    write_atomic(path, _HEADER.pack(MAGIC, nx, ny) + np.ascontiguousarray(values).tobytes())


def read_field(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, nx, ny = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        payload = fh.read(8 * nx * ny + 1)
    if len(payload) != 8 * nx * ny:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, "
                          f"expected {8 * nx * ny}")
    values = np.frombuffer(payload, dtype="<f8").reshape(ny, nx).astype(float)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite entries")
    return values


def _series_path(directory: str, prefix: str, node: int) -> str:
    return os.path.join(directory, f"{prefix}_{node:06d}.cgw")


def write_series(directory: str, prefix: str, pairs) -> None:
    """Write each (node, field) of ``pairs`` as one snapshot of the series; makes ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for node, values in pairs:
        write_field(_series_path(directory, prefix, node), values)


def read_series(directory: str, prefix: str, nodes) -> np.ndarray:
    """The snapshots of the given nodes of a series, stacked: shape (len(nodes), ny, nx)."""
    return np.stack([read_field(_series_path(directory, prefix, n)) for n in nodes])


def remove_series(directory: str, prefixes) -> None:
    """Remove from ``directory`` each file whose name ``_series_path`` forms for ``prefixes``."""
    for name in os.listdir(directory) if os.path.isdir(directory) else []:
        prefix, _, node = name.removesuffix(".cgw").rpartition("_")
        if prefix in prefixes and node.isdecimal() and name == _series_path("", prefix, int(node)):
            os.remove(os.path.join(directory, name))


def stored_nodes(nt: int, stride: int) -> list[int]:
    """Every ``stride``-th node of 0..nt, and always the final node nt."""
    if stride < 1:
        raise FormatError(f"stride must be >= 1, got {stride}")
    nodes = list(range(0, nt + 1, stride))
    if nodes[-1] != nt:
        nodes.append(nt)
    return nodes


def persist_node(directory: str, node: int, fields) -> None:
    """Write one stored node's phi/w/v snapshots, ``fields`` in ``TRAJECTORY_SERIES`` order."""
    for name, values in zip(TRAJECTORY_SERIES, fields):
        write_series(directory, name, [(node, values)])


def write_index(directory: str, nt: int, stride: int, tau: float) -> None:
    """The index of a trajectory of nodes 0..nt persisted at ``stride``; written after the
    final node's snapshots, so it marks a complete trajectory."""
    write_atomic(os.path.join(directory, INDEX_NAME),
                 f"nodes {nt + 1}\nstride {stride}\ntau {tau!r}\n")
