"""Correctness checks on the files one isacwave request wrote.

Each check returns a list of problems; an empty list means the output
is correct.  Expected shapes come from the shipped config file, not from
the program's own manifest, and the QPSK reference curve is computed
here rather than taken from the package.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

GAMMA_POINTS = 201  # the ccdf axis: 0..10 dB in 0.05 dB steps
RATE_SLACK = 1e-12  # relative; zero_mui equals awgn_capacity up to rounding
BINOMIAL_Z = 5.0
MIN_ERRORS_FOR_SER_CHECK = 100
# a feasible design (exit 0) meets the config's feasibility_tolerance on
# the energy gap; an infeasible one (exit 2) is only roughly unit energy
ENERGY_TOLERANCE = {0: 1e-3 + 1e-9, 2: 0.25}


def experiment_grids(section: dict) -> dict:
    def grid(value):
        return [float(v) for v in (value if isinstance(value, list)
                                   else [value])]

    eta_db = (grid(section["eta_db"]) if "eta_db" in section
              else [10.0 * math.log10(v) for v in grid(section["eta"])])
    return {"rho": grid(section["rho"]), "eta_db": eta_db,
            "epsilon": grid(section["epsilon"]),
            "snr_db": grid(section["snr_db"])}


def analytic_qpsk_ser(snr_linear: float) -> float:
    q = 0.5 * math.erfc(math.sqrt(snr_linear / 2.0))
    return 2.0 * q - q * q


def _read_table(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        return [], []
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def check_sweep(command: str, out_dir: Path, grids: dict) -> list:
    """Header, shape and value checks for one sweep's CSV."""
    path = out_dir / f"{command}.csv"
    if not path.is_file():
        return [f"{path.name} missing"]
    try:
        header, rows = _read_table(path)
    except ValueError as exc:
        return [f"{path.name}: non-numeric cell ({exc})"]
    problems = []
    if command == "ccdf":
        expected = ["gamma_db"] + [f"rho={r:g},eta={e:g}dB"
                                   for r in grids["rho"]
                                   for e in grids["eta_db"]]
        n_rows = GAMMA_POINTS
    elif command == "sumrate":
        expected = (["epsilon"]
                    + [f"eta={10.0 ** (e / 10.0):g}" for e in grids["eta_db"]]
                    + ["zero_mui", "awgn_capacity"])
        n_rows = len(grids["epsilon"])
    else:
        expected = ["snr_db", "designed", "zero_mui"]
        n_rows = len(grids["snr_db"])
    if header != expected:
        problems.append(f"header {header} != {expected}")
    if len(rows) != n_rows or any(len(r) != len(expected) for r in rows):
        problems.append(f"shape: {len(rows)} rows, want {n_rows} of "
                        f"{len(expected)} columns")
        return problems
    values = [v for row in rows for v in row]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value")
        return problems
    columns = list(zip(*rows))
    if command == "ccdf":
        for label, col in zip(header[1:], columns[1:]):
            if any(not 0.0 <= v <= 1.0 for v in col):
                problems.append(f"{label}: CCDF outside [0, 1]")
            if any(b > a for a, b in zip(col, col[1:])):
                problems.append(f"{label}: CCDF increases")
    elif command == "sumrate":
        capacity = columns[-1]
        for label, col in zip(header[1:-1], columns[1:-1]):
            if any(r < 0 or r > c * (1.0 + RATE_SLACK)
                   for r, c in zip(col, capacity)):
                problems.append(f"{label}: rate above awgn_capacity")
    else:
        problems.extend(_check_ser(out_dir, header, rows, grids))
    return problems


def _check_ser(out_dir: Path, header, rows, grids) -> list:
    problems = []
    if any(not 0.0 <= v <= 1.0 for row in rows for v in row[1:]):
        problems.append("SER outside [0, 1]")
    try:
        with open(out_dir / "ser.meta.json", encoding="utf-8") as handle:
            stats = json.load(handle)["series_stats"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"ser.meta.json unreadable ({exc!r})"]
    zero_mui = stats["zero_mui"]
    column = header.index("zero_mui")
    for i, snr_db in enumerate(grids["snr_db"]):
        errors, symbols = zero_mui["errors"][i], zero_mui["symbols"][i]
        if symbols and rows[i][column] != errors / symbols:
            problems.append(f"zero_mui SER at {snr_db} dB disagrees with "
                            "its counts")
        if errors < MIN_ERRORS_FOR_SER_CHECK:
            continue
        p = analytic_qpsk_ser(10.0 ** (snr_db / 10.0))
        slack = BINOMIAL_Z * math.sqrt(symbols * p * (1.0 - p)) + 1.0
        if abs(errors - symbols * p) > slack:
            problems.append(
                f"zero_mui at {snr_db} dB: {errors} errors in {symbols} "
                f"symbols, analytic expects {symbols * p:.1f}")
    return problems


def check_design(code, out_dir: Path) -> list:
    """Exit code 0 or 2, unit-energy waveform.json, kpi.json present."""
    if code not in (0, 2):
        return [f"design exited {code}"]
    problems = []
    try:
        with open(out_dir / "waveform.json", encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        energy = sum(re * re + im * im for row in entries for re, im in row)
        if abs(energy - 1.0) > ENERGY_TOLERANCE[code]:
            problems.append(f"waveform energy {energy:.6f}, want 1")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"waveform.json unreadable ({exc!r})")
    try:
        with open(out_dir / "kpi.json", encoding="utf-8") as handle:
            json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"kpi.json unreadable ({exc!r})")
    return problems
