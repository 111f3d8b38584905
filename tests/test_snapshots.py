import os

import numpy as np
import pytest

from thermophase.errors import FormatError
from thermophase.snapshots import (INDEX_NAME, TRAJECTORY_SERIES, persist_node, read_field,
                                   read_series, stored_nodes, write_atomic, write_field,
                                   write_index, write_series)
from thermophase.state import StateTrajectory


def test_field_roundtrip_is_bit_identical(tmp_path, rng):
    f = rng.standard_normal((5, 7))
    path = str(tmp_path / "f.cgw")
    write_field(path, f)
    g = read_field(path)
    assert g.shape == (5, 7)
    assert np.array_equal(f, g)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.cgw"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_field(str(path))


def test_read_rejects_truncated_payload(tmp_path, rng):
    path = str(tmp_path / "f.cgw")
    write_field(path, rng.standard_normal((4, 4)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-8])
    with pytest.raises(FormatError):
        read_field(path)


def test_read_rejects_non_finite_entries(tmp_path):
    path = str(tmp_path / "f.cgw")
    f = np.zeros((4, 4))
    f[1, 2] = np.nan
    write_field(path, f)
    with pytest.raises(FormatError):
        read_field(path)


def _traj(rng, nt, shape=(6, 6), tau=0.01):
    dims = (nt + 1, *shape)
    return StateTrajectory(phi=rng.standard_normal(dims), v=rng.standard_normal(dims),
                           w0=rng.standard_normal(shape), tau=tau)


def _persist(traj, directory, stride):
    # what simulate writes as the march reaches each node: the stored nodes, then the index
    nodes = stored_nodes(traj.nt, stride)
    w = traj.w
    for n in nodes:
        persist_node(directory, n, (traj.phi[n], w[n], traj.v[n]))
    write_index(directory, traj.nt, stride, traj.tau)
    return nodes


def _index(directory):
    # index.txt holds one "key value" pair per line: nodes, stride, tau
    with open(os.path.join(directory, INDEX_NAME)) as fh:
        return dict(line.split() for line in fh)


def test_persist_stride_counts(tmp_path, rng):
    traj = _traj(rng, nt=100)
    directory = str(tmp_path / "t")
    nodes = _persist(traj, directory, stride=10)
    assert len(nodes) == 11
    assert _index(directory) == {"nodes": "101", "stride": "10", "tau": "0.01"}
    assert len(os.listdir(directory)) == len(TRAJECTORY_SERIES) * 11 + 1
    assert read_series(directory, "phi", nodes).shape[0] == 11


def test_persist_load_roundtrip_exact(tmp_path, rng):
    traj = _traj(rng, nt=7, tau=0.0125)
    directory = str(tmp_path / "t")
    nodes = _persist(traj, directory, stride=3)
    assert nodes == [0, 3, 6, 7]  # final node always stored
    index = _index(directory)
    assert float(index["tau"]) == 0.0125
    assert stored_nodes(int(index["nodes"]) - 1, int(index["stride"])) == nodes
    for name in TRAJECTORY_SERIES:
        assert np.array_equal(read_series(directory, name, nodes), getattr(traj, name)[nodes])


def test_persist_rejects_bad_stride(tmp_path, rng):
    with pytest.raises(FormatError):
        _persist(_traj(rng, nt=4), str(tmp_path / "t"), stride=0)


def test_series_roundtrip_and_names(tmp_path, rng):
    fields = rng.standard_normal((3, 4, 5))
    directory = str(tmp_path / "s")
    write_series(directory, "u", zip((1, 5, 12), fields))
    assert sorted(os.listdir(directory)) == ["u_000001.cgw", "u_000005.cgw", "u_000012.cgw"]
    assert np.array_equal(read_series(directory, "u", [1, 5, 12]), fields)


def test_write_atomic_text_and_bytes_leave_no_temp_file(tmp_path):
    text, blob = str(tmp_path / "a.txt"), str(tmp_path / "b.bin")
    write_atomic(text, "x,y\n1,2\n")
    write_atomic(blob, b"CGW1\x00")
    assert open(text).read() == "x,y\n1,2\n"
    assert open(blob, "rb").read() == b"CGW1\x00"
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.bin"]
