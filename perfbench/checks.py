"""Output checks for the benchmark's result files.

Each check compares a result file against a physics reference, never against
golden bytes, so that a deliberate change of the Monte Carlo streams does not
trip it. Statistical checks allow 5 standard errors (plus 1e-12 for exact
values snapped by the program), so a correct program practically never fails
one. A check returns a list of failure messages; an empty list means the
file passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SIGMAS = 5.0
EXACT_ATOL = 1e-12
# --format csv writes 10 significant digits, so a CSV value can sit up to
# half a unit in its 10th digit away from the full-precision value
CSV_RTOL = 5e-10


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _within(failures: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        failures.append(f"{what}: got {got!r}, want {want!r} +- {tol:.3g}")


def _proportion_tol(p: float, n: int) -> float:
    return SIGMAS * math.sqrt(max(0.0, p * (1.0 - p)) / n) + EXACT_ATOL


def sweep_grid(sweep: dict) -> list[float]:
    """The angle grid the CLI builds from a sweep (same arithmetic)."""
    start, stop, step = (float(sweep[k]) for k in ("start_deg", "stop_deg", "step_deg"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def malus_closed_form(theta_deg: float) -> float:
    """Natural light through polarizers at 90, theta and 0 degrees: sin^2(2 theta)/8."""
    return 0.125 * math.sin(2.0 * math.radians(theta_deg)) ** 2


def malus_mc(path: Path, params: dict) -> list[str]:
    """Natural light through 90/45/0: the final fraction is 1/8."""
    res = _load(path)
    failures: list[str] = []
    n = int(params["n_photons"])
    if res.get("n_photons") != n:
        failures.append(f"n_photons {res.get('n_photons')!r} != {n}")
        return failures
    final = res["stages"][-1]["count"] / n
    _within(failures, "malus final fraction", final, 0.125, _proportion_tol(0.125, n))
    return failures


def malus_sweep(path: Path, params: dict) -> list[str]:
    """CSV rows equal sin^2(2 theta)/8; the argmax is the grid's best angle (45 if on it)."""
    grid = sweep_grid(params["sweep"])
    failures: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["theta_deg", "final_intensity"]] or len(rows) - 1 != len(grid):
        failures.append(f"sweep CSV has {len(rows) - 1} rows for a {len(grid)}-point grid")
        return failures
    for theta, (theta_cell, value_cell) in zip(grid, rows[1:]):
        want = malus_closed_form(theta)
        _within(failures, "sweep theta", float(theta_cell), theta, CSV_RTOL * abs(theta))
        _within(failures, f"sweep I({theta})", float(value_cell), want,
                EXACT_ATOL + CSV_RTOL * abs(want))
        if len(failures) > 5:
            return failures
    summary = _load(Path(f"{path}.manifest.json"))["summary"]
    best = max(malus_closed_form(t) for t in grid)
    _within(failures, "sweep max", summary["max_final_intensity"], best, EXACT_ATOL)
    _within(failures, "sweep value at argmax", malus_closed_form(summary["argmax_deg"]),
            best, EXACT_ATOL)
    if any(abs(t - 45.0) <= 1e-9 for t in grid):
        _within(failures, "sweep argmax_deg", summary["argmax_deg"], 45.0, 1e-9)
    return failures


def bell(path: Path, params: dict) -> list[str]:
    """E(delta) = -cos 2 delta on the sweep; S = |E(a,b) - E(a,b') + E(a',b) + E(a',b')|."""
    res = _load(path)
    failures: list[str] = []
    grid = sweep_grid(params["sweep"])
    rows = res["sweep_rows"]
    if len(rows) != len(grid):
        failures.append(f"bell has {len(rows)} rows for a {len(grid)}-point sweep")
        return failures
    n = int(params["n_per_point"])
    for delta, row in zip(grid, rows):
        want = -math.cos(2.0 * math.radians(delta))
        tol = SIGMAS * math.sqrt(max(0.0, 1.0 - want * want) / n) + EXACT_ATOL
        _within(failures, f"E({delta})", row["e_value"], want, tol)
    a, a2, b, b2 = (math.radians(x) for x in params["chsh_angles_deg"])
    es = [-math.cos(2.0 * (x - y)) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
    s_want = abs(es[0] - es[1] + es[2] + es[3])
    var = sum(max(0.0, 1.0 - e * e) for e in es) / int(params["n_per_setting"])
    _within(failures, "CHSH S", res["chsh"]["s_value"], s_want,
            SIGMAS * math.sqrt(var) + EXACT_ATOL)
    return failures


def mzi(path: Path, params: dict) -> list[str]:
    """Closed fraction cos^2(phi/2), open fraction 1/2, and timing invariance."""
    res = _load(path)
    failures: list[str] = []
    rows = res["fringe_rows"]
    phases = params["phases_deg"]
    if len(rows) != len(phases):
        failures.append(f"mzi has {len(rows)} rows for {len(phases)} phases")
        return failures
    n = int(params["n_per_phase"])
    for phase, row in zip(phases, rows):
        closed = math.cos(math.radians(phase) / 2.0) ** 2
        _within(failures, f"closed({phase})", row["closed_fraction_d0"], closed,
                _proportion_tol(closed, n))
        _within(failures, f"open({phase})", row["open_fraction_d0"], 0.5,
                _proportion_tol(0.5, n))
    timing = res.get("timing")
    if timing is None or timing.get("within_4_sigma") is not True:
        failures.append(f"timing invariance not within 4 sigma: {timing!r}")
    return failures


def entropy(path: Path, params: dict) -> list[str]:
    """Collapse leaves zero outcome entropy at every grid point."""
    res = _load(path)
    failures: list[str] = []
    rows = res["rows"]
    if [r["p0"] for r in rows] != [float(p) for p in params["grid"]]:
        failures.append("entropy rows do not follow the requested p0 grid")
    bad = [r["p0"] for r in rows if r["after_bits"] != 0.0]
    if bad:
        failures.append(f"after_bits != 0 at {len(bad)} points, first p0={bad[0]!r}")
    return failures


def nosignal(path: Path, params: dict) -> list[str]:
    """Bob's marginal does not depend on Alice's basis: trace distance below 1e-12."""
    res = _load(path)
    failures: list[str] = []
    if len(res["rows"]) != len(params["bases_a_deg"]):
        failures.append(f"nosignal has {len(res['rows'])} rows for "
                        f"{len(params['bases_a_deg'])} bases")
    if not res["max_trace_distance"] < EXACT_ATOL:
        failures.append(f"max_trace_distance {res['max_trace_distance']!r} >= 1e-12")
    return failures


def protocol_standard(path: Path, params: dict) -> list[str]:
    """A standard receiver learns nothing: MI 0, CI from 0, every photon decode a tie."""
    res = _load(path)
    failures: list[str] = []
    strategy = params["strategy"]
    per_bit = int(strategy.split(":")[1]) if strategy.startswith("repetition:") else 1
    if res["n_bits"] != params["n_bits"] or res["strategy"] != strategy:
        failures.append(f"protocol ran {res['n_bits']} bits of {res['strategy']!r}")
    if res["mutual_info_bits"] != 0.0:
        failures.append(f"mutual_info_bits {res['mutual_info_bits']!r} != 0")
    if res["mi_confidence_interval"][0] != 0.0:
        failures.append(f"MI interval starts at {res['mi_confidence_interval'][0]!r}, not 0")
    if res["decode_ties"] != params["n_bits"] * per_bit:
        failures.append(f"decode_ties {res['decode_ties']!r} != "
                        f"{params['n_bits'] * per_bit} decoded photons")
    return failures


def protocol_oracle(path: Path, params: dict) -> list[str]:
    """The basis oracle reads every balanced bit: MI 1 bit, BER 0."""
    res = _load(path)
    failures: list[str] = []
    if res["n_bits"] != params["n_bits"] or res["strategy"] != "basis-oracle":
        failures.append(f"protocol ran {res['n_bits']} bits of {res['strategy']!r}")
    if res["mutual_info_bits"] != 1.0:
        failures.append(f"oracle mutual_info_bits {res['mutual_info_bits']!r} != 1")
    if res["ber"] != 0.0:
        failures.append(f"oracle ber {res['ber']!r} != 0")
    return failures


def run_check(check, path: Path, params: dict) -> list[str]:
    """Run one check; a missing or malformed file is a failure, not a crash."""
    try:
        return check(path, params)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable result {path}: {type(exc).__name__}: {exc}"]
