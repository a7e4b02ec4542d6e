"""On-disk formats: binary state snapshots and CSV time series.

Snapshot layout: the magic bytes "BSQS1", an 8-byte little-endian header
length, a JSON header (grid dims, field list, time, regime parameters,
CRC-32 of the payload), then the payload: little-endian float64 real-space
samples, field-major, lateral-row-major, vertical-innermost.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .config import Discretization
from .errors import FormatError, GridMismatch, Violation
from .fem1d import VerticalMesh
from .integrator import State
from .spectral import forward_transform, inverse_transform

MAGIC = b"BSQS1"


def _field_order(has_w):
    fields = [("u", 3), ("p_b", 1), ("v", 3), ("p_f", 1)]
    if has_w:
        fields.insert(1, ("w", 3))
    return fields


def write_snapshot(s: State, path, regime=None):
    """Serialize a State as real-space samples.  regime: optional dict of the
    physical parameters recorded in the header for provenance."""
    has_w = s.w is not None
    n1, n2 = s.u.lateral_shape
    # each field's samples (n1, n2, ncomp, nodes), written one after another;
    # the payload's checksum is chained over them, so no joined copy is made
    parts = [np.ascontiguousarray(inverse_transform(getattr(s, name)),
                                  dtype="<f8")
             for name, _ in _field_order(has_w)]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    header = {
        "n1": n1, "n2": n2,
        "nb": s.u.mesh.ncells, "nf": s.v.mesh.ncells,
        "t": s.t,
        "fields": [[name, ncomp] for name, ncomp in _field_order(has_w)],
        "regime": dict(regime) if regime else {},
        "crc32": crc & 0xFFFFFFFF,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for part in parts:
            f.write(part)


def read_snapshot(path) -> tuple[State, dict]:
    """Inverse of write_snapshot; returns (State, header dict)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:5] != MAGIC:
        raise FormatError(0, "bad magic")
    if len(raw) < 13:
        raise FormatError(len(raw), "truncated header length")
    (hlen,) = struct.unpack("<Q", raw[5:13])
    if len(raw) < 13 + hlen:
        raise FormatError(13, "truncated header")
    try:
        header = json.loads(raw[13:13 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(13, f"bad header: {exc}") from None
    payload = raw[13 + hlen:]
    if zlib.crc32(payload) & 0xFFFFFFFF != header.get("crc32"):
        raise FormatError(13 + hlen, "checksum mismatch")
    # the checksum covers the payload only: check the header's grid and
    # field list before reading the payload by them
    grid = {key: header.get(key) for key in ("n1", "n2", "nb", "nf")}
    for key, value in grid.items():
        if type(value) is not int:
            raise FormatError(13, f"header {key} = {value!r} is no integer")
    try:
        Discretization(**grid).validate()
    except Violation as exc:
        raise FormatError(13, f"bad header grid: {exc}") from None
    listed = header.get("fields")
    order = _field_order(isinstance(listed, list) and ["w", 3] in listed)
    if listed != [list(f) for f in order]:
        raise FormatError(13, f"bad header fields {listed!r}")
    n1, n2 = grid["n1"], grid["n2"]
    mb = VerticalMesh("biot", grid["nb"])
    mf = VerticalMesh("fluid", grid["nf"])
    meshes = {"u": (mb, 2), "w": (mb, 2), "p_b": (mb, 1),
              "v": (mf, 2), "p_f": (mf, 1)}
    pos = 0
    fields = {}
    for name, ncomp in order:
        mesh, degree = meshes[name]
        nn = mesh.n_nodes(degree)
        count = n1 * n2 * ncomp * nn
        chunk = payload[pos:pos + 8 * count]
        if len(chunk) != 8 * count:
            raise FormatError(13 + hlen + pos, "truncated payload")
        samples = np.frombuffer(chunk, dtype="<f8").reshape(n1, n2, ncomp, nn)
        fields[name] = forward_transform(samples, mesh, degree)
        pos += 8 * count
    if pos != len(payload):
        raise FormatError(13 + hlen + pos, "trailing bytes")
    return State(t=header["t"], u=fields["u"], w=fields.get("w"),
                 p_b=fields["p_b"], v=fields["v"], p_f=fields["p_f"]), header


def _fmt(x):
    return format(float(x), ".17g")


def write_timeseries(columns: dict, path):
    """RFC-4180-style CSV from an ordered mapping of column name -> sequence.
    Numbers are written with 17 significant digits."""
    names = list(columns)
    rows = 0
    for v in columns.values():
        rows = max(rows, len(v))
    for v in columns.values():
        if len(v) != rows:
            raise GridMismatch("CSV columns have unequal lengths")
    lines = [",".join(names)]
    for i in range(rows):
        lines.append(",".join(_fmt(columns[k][i]) for k in names))
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def read_timeseries(path) -> dict:
    with open(path, newline="") as f:
        text = f.read()
    lines = [ln for ln in text.split("\r\n") if ln]
    names = lines[0].split(",")
    cols = {n: [] for n in names}
    for ln in lines[1:]:
        for n, cell in zip(names, ln.split(",")):
            cols[n].append(float(cell))
    return cols


def energy_report_columns(rep) -> dict:
    cols = {
        "n": list(range(len(rep.times))),
        "t": rep.times, "e": rep.e, "d": rep.d_cum,
        "residual": rep.residual, "slip_norm": rep.slip,
    }
    for key, vals in rep.breakdown.items():
        cols[key] = vals
    return cols


def distance_report_columns(rep) -> dict:
    return {
        "swept_value": rep.values,
        "D1": rep.D1, "D2": rep.D2, "D3": rep.D3, "D4": rep.D4,
        "rho_kinetic_b": rep.kinetic_b, "rho_kinetic_f": rep.kinetic_f,
        "delta_term": rep.delta_term,
    }
