"""On-disk formats: snapshot round trips, corruption detection, and CSV
determinism."""

import json
import struct

import numpy as np
import pytest

from bsqs.errors import FormatError, GridMismatch
from bsqs.integrator import InitialData, initialize, run
from bsqs.snapshots import (distance_report_columns, energy_report_columns,
                            read_snapshot, read_timeseries, write_snapshot,
                            write_timeseries)
from conftest import make_config, make_params, smooth_initial_callables


@pytest.fixture
def state():
    cfg = make_config()
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    data = InitialData.from_callables(cfg, **fns)
    traj = run(cfg, data)
    return traj.states[-1]


def test_snapshot_round_trip(state, tmp_path):
    path = tmp_path / "s.snap"
    write_snapshot(state, path, regime={"rho_b": 1.0, "c0": 1.0})
    back, header = read_snapshot(path)
    assert back.t == state.t
    assert header["regime"] == {"rho_b": 1.0, "c0": 1.0}
    assert header["n1"] == 4 and header["nb"] == 4
    for fld in ("u", "w", "p_b", "v", "p_f"):
        a = getattr(state, fld).data
        b = getattr(back, fld).data
        assert np.abs(a - b).max() < 1e-13


def test_snapshot_without_elastic_velocity(tmp_path):
    cfg = make_config(params=make_params(rho_b=0.0))
    s = initialize(cfg, InitialData())
    path = tmp_path / "s.snap"
    write_snapshot(s, path)
    back, header = read_snapshot(path)
    assert back.w is None
    assert ["w", 3] not in header["fields"]


def test_snapshot_bytes_deterministic(state, tmp_path):
    pa, pb = tmp_path / "a.snap", tmp_path / "b.snap"
    write_snapshot(state, pa)
    write_snapshot(state, pb)
    assert pa.read_bytes() == pb.read_bytes()


def corrupt(path, out, mutate):
    raw = bytearray(path.read_bytes())
    mutate(raw)
    out.write_bytes(bytes(raw))
    return out


def test_snapshot_corruption_detected(state, tmp_path):
    path = tmp_path / "s.snap"
    write_snapshot(state, path)
    bad = tmp_path / "bad.snap"

    def flips(raw):
        raw[0] ^= 0xFF                                 # magic
    with pytest.raises(FormatError) as exc:
        read_snapshot(corrupt(path, bad, flips))
    assert exc.value.offset == 0

    def truncate(raw):
        del raw[len(raw) // 2:]                        # payload cut short
    with pytest.raises(FormatError):
        read_snapshot(corrupt(path, bad, truncate))

    def bitflip(raw):
        raw[-1] ^= 0x01                                # checksum mismatch
    with pytest.raises(FormatError):
        read_snapshot(corrupt(path, bad, bitflip))

    def extend(raw):
        raw.extend(b"\x00" * 8)                        # trailing bytes
    with pytest.raises(FormatError):
        read_snapshot(corrupt(path, bad, extend))

    def header_garbage(raw):
        raw[13] ^= 0xFF                                # JSON header broken
    with pytest.raises(FormatError):
        read_snapshot(corrupt(path, bad, header_garbage))


def rewrite_header(path, out, edit):
    """Copy a snapshot with its JSON header edited in place; the payload and
    its checksum are kept, so only the header checks can catch the edit."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[5:13])
    header = json.loads(raw[13:13 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    out.write_bytes(raw[:5] + struct.pack("<Q", len(blob)) + blob
                    + raw[13 + hlen:])
    return out


@pytest.fixture
def snapshot(state, tmp_path):
    path = tmp_path / "s.snap"
    write_snapshot(state, path)
    return path


def test_snapshot_unknown_field_raises_format_error(snapshot, tmp_path):
    def rename(header):
        header["fields"][1][0] = "q"
    with pytest.raises(FormatError):
        read_snapshot(rewrite_header(snapshot, tmp_path / "bad.snap", rename))


def test_snapshot_missing_grid_key_raises_format_error(snapshot, tmp_path):
    def drop(header):
        del header["n1"]
    with pytest.raises(FormatError):
        read_snapshot(rewrite_header(snapshot, tmp_path / "bad.snap", drop))


def test_snapshot_invalid_grid_raises_format_error(snapshot, tmp_path):
    def zero(header):
        header["nb"] = 0
    with pytest.raises(FormatError):
        read_snapshot(rewrite_header(snapshot, tmp_path / "bad.snap", zero))


def test_snapshot_reordered_fields_raise_format_error(snapshot, tmp_path):
    # same names and sizes, so the payload would split without complaint
    def reorder(header):
        header["fields"] = [["p_b", 1], ["u", 3], ["w", 3], ["v", 3],
                            ["p_f", 1]]
    with pytest.raises(FormatError):
        read_snapshot(rewrite_header(snapshot, tmp_path / "bad.snap",
                                     reorder))
    read_snapshot(rewrite_header(snapshot, tmp_path / "same.snap",
                                 lambda header: None))      # no raise


def test_timeseries_round_trip(tmp_path):
    cols = {"t": [0.0, 0.5, 1.0], "e": [1.0, 0.25, 1e-17]}
    path = tmp_path / "x.csv"
    write_timeseries(cols, path)
    back = read_timeseries(path)
    assert list(back) == ["t", "e"]
    assert back["e"][2] == 1e-17                       # 17 digits preserved
    # deterministic bytes, CRLF line endings
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 4
    path2 = tmp_path / "y.csv"
    write_timeseries(cols, path2)
    assert raw == path2.read_bytes()


def test_timeseries_rejects_ragged_columns(tmp_path):
    with pytest.raises(GridMismatch):
        write_timeseries({"a": [1.0], "b": [1.0, 2.0]}, tmp_path / "x.csv")


def test_report_column_adapters():
    from bsqs import energy as en
    from bsqs.limit_lab import DistanceReport
    cfg = make_config()
    fns = smooth_initial_callables(alpha=cfg.params.alpha)
    traj = run(cfg, InitialData.from_callables(cfg, **fns))
    rep = en.audit(traj, cfg.params)
    cols = energy_report_columns(rep)
    for key in ("n", "t", "e", "d", "residual", "slip_norm", "elastic"):
        assert len(cols[key]) == len(traj.states)
    drep = DistanceReport(values=[0.1], D1=[1], D2=[1], D3=[1], D4=[1],
                          kinetic_b=[0], kinetic_f=[0], delta_term=[0])
    dcols = distance_report_columns(drep)
    assert list(dcols)[0] == "swept_value"
