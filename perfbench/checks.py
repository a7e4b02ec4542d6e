"""Output checks on a sample's CSV files, against the stored seed-0 reference.

Plain Python (no numpy), so the runner stays light.  A seed scales every
amplitude by one factor f (see workloads.py), so energies and dissipation are
compared with f**2 times the reference and sweep distances with |f| times it.
"""

from __future__ import annotations

import csv
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# Relative to the column's largest magnitude.  Roundoff-level changes (BLAS
# thread count moves values by up to 4e-10 relative; reordered sums by less)
# pass; any change to the discretization or the physics does not.
RTOL = 1e-7
ENERGY_COLUMNS = ("e", "d")
SWEEP_COLUMNS = ("D1", "D2", "D3", "D4")


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    names = rows[0]
    return {n: [float(r[i]) for r in rows[1:]] for i, n in enumerate(names)}


def read_csv(path):
    with open(path, newline="") as f:
        return parse_csv(f.read())


def load_reference(workload):
    """The workload's stored seed-0 columns, or None if none are stored."""
    try:
        with open(REFERENCE) as f:
            return json.load(f).get(workload)
    except FileNotFoundError:
        return None


def reference_columns(workload, cols):
    keys = SWEEP_COLUMNS if workload.csv == "sweep.csv" else ENERGY_COLUMNS
    return {k: cols[k] for k in keys}


def _compare(name, got, want, scale):
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, reference has {len(want)}"]
    want = [w * scale for w in want]
    tol = RTOL * max((abs(w) for w in want), default=0.0)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if abs(g - w) > tol]
    if bad:
        i = bad[0]
        return [f"{name}[{i}] = {got[i]!r}, reference {want[i]!r} "
                f"({len(bad)} rows off by more than {tol:.3e})"]
    return []


def _balance(cols):
    """Re-derive the source-free balance residual e_n + d_n - e_0 and the
    dissipation inequality it must satisfy."""
    e, d, r = cols["e"], cols["d"], cols["residual"]
    e0 = e[0]
    tol = 1e-10 * max(e0, 1.0)
    errors = []
    for n, (en, dn, rn) in enumerate(zip(e, d, r)):
        if abs((en + dn - e0) - rn) > 1e-15 * max(abs(e0), abs(en), 1e-300):
            errors.append(f"residual[{n}] = {rn!r} but e + d - e0 = "
                          f"{en + dn - e0!r}")
        if rn > tol:
            errors.append(f"residual[{n}] = {rn!r} exceeds {tol:.3e}")
    return errors[:3]


def check_outputs(workload, out_dir, factor, reference):
    """Return a list of problems with one sample's outputs (empty if none).
    With reference None only the reference-free checks run."""
    path = os.path.join(out_dir, workload.csv)
    if not os.path.isfile(path):
        return [f"missing {workload.csv}"]
    cols = read_csv(path)
    errors = []
    if workload.csv == "sweep.csv":
        for k in SWEEP_COLUMNS if reference else ():
            errors += _compare(k, cols[k], reference[k], abs(factor))
    else:
        if len(cols["e"]) != workload.steps + 1:
            errors.append(f"energy.csv has {len(cols['e'])} rows, "
                          f"expected {workload.steps + 1}")
        for k in ENERGY_COLUMNS if reference else ():
            errors += _compare(k, cols[k], reference[k], factor * factor)
        if workload.source_free:
            errors += _balance(cols)
    return errors
