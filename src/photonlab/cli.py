"""Command-line front end: configured experiment runs with machine-readable output.

Subcommands: malus, entropy, bell, nosignal, protocol, mzi. Each accepts a JSON
config file, repeatable --set KEY=VALUE parameter overrides (flags win over the
file), and emits a result file (JSON, or CSV for tabular experiments) plus a
<out>.manifest.json run manifest. Angles cross this boundary in degrees and are
converted to radians internally. A manifest can be fed back as --config to
reproduce its run byte for byte; the manifest itself carries wall time, so only
result files are expected to be identical across runs.

Exit codes: 0 success, 2 config or validation error (nothing is written),
1 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import math
import os
import sys
import time
from collections import namedtuple

from . import _HOME, __version__

# numpy loads only once a run starts, with the first library module or runner
# that needs it, so --help, --version and a configuration error exit without
# it. photonlab's linear algebra is all 2x2, so a BLAS worker thread would only
# spin; OpenBLAS reads this variable once, when numpy loads, and takes an empty
# value as unset. Any other value the user set stays as it is.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Every public library name resolves as an attribute of this module on first
# use (PEP 562), from the module that photonlab._HOME names for it, and a
# runner looks its names up in this module's namespace when it runs (_library),
# so a process imports only the modules of the experiment it runs, and whoever
# replaces cli.<name> (a test's mock, a tracer's shim) replaces what the runner
# calls.
def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _library(*names) -> list:
    """The named library objects, as this module resolves them now: a name set
    on it first, else its home module's. This reads the module's own globals,
    not sys.modules[__name__], which is another module when a tool such as
    cProfile runs this file as __main__."""
    namespace = globals()
    return [namespace[name] if name in namespace else __getattr__(name) for name in names]


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 2 before any computation runs."""


# keys a config file (or a fed-back manifest) may carry at the top level
_TOP_LEVEL_KEYS = {"experiment", "params", "seed", "workers", "format", "out",
                   "tool_version", "rng_algorithm", "wall_time_s", "summary"}

# sweeps are built as point lists before any work, so their size is capped;
# a list parameter is a sweep written out and shares the cap
MAX_SWEEP_POINTS = 1_000_000
# a Monte Carlo count, and a protocol run from its receiver's law, is a few
# draws at any size; the cap keeps every count well inside int64
MAX_TRIALS = 2**32
# no_signaling_check compares every pair of bitwise-distinct marginals
MAX_BASES = 1_000
# keeps n_bits * pairs_per_bit, the bound on a protocol's decode_ties, below
# 2^56; the shipped maximum is 11
MAX_PAIRS_PER_BIT = 2**24
# a strategy's label, pairs_per_bit and bit decision recurse once per
# repetition level
MAX_STRATEGY_NESTING = 8


class Field(namedtuple("Field", "kind default minimum maximum exclusive_minimum choices "
                                "item fields nullable",
                       defaults=(None, None, None, None, (), None, None, False))):
    """One parameter of an experiment: its kind, default and bounds.

    kind is "number", "integer", "string", "choice", "list" or "object". Numbers
    must be finite; integers must be JSON integers. minimum and maximum are
    inclusive and exclusive_minimum is strict; for a list they bound its length
    and `item` describes every element. An object needs exactly the keys of
    `fields`, and a nullable one may also be null. `default` is the value a run
    starts from before its config and --set overrides.
    """

    __slots__ = ()


_NUMBER = Field("number")
_SWEEP = {
    "start_deg": _NUMBER,
    "stop_deg": _NUMBER,
    "step_deg": Field("number", exclusive_minimum=0),
}
_MODES = ("analytic", "mc")
_TYPES = {"number": (int, float), "integer": int, "string": str, "list": list, "object": dict}


def defaults(fields: dict) -> dict:
    """A fresh copy of the default value of every field."""
    return {name: copy.deepcopy(field.default) for name, field in fields.items()}


def check_params(fields: dict, params) -> None:
    """Raise ConfigError, naming the dotted parameter path, unless params fit fields."""
    _check(Field("object", fields=fields), params, "")


def _invalid(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path or 'params'}: {message}")


def _check(field: Field, value, path: str) -> None:
    kind = field.kind
    if kind == "choice":
        if value not in field.choices:
            raise _invalid(path, f"{value!r} is not one of {list(field.choices)}")
        return
    if value is None and field.nullable:
        return
    # bool is an int to Python; an integer must be a JSON integer, so 1e3 is refused
    if isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
        null = " or null" if field.nullable else ""
        raise _invalid(path, f"{value!r} is not of type '{kind}'{null}")
    if kind == "object":
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in field.fields:
                raise _invalid(prefix + key,
                               f"unknown parameter; expected one of {', '.join(field.fields)}")
        for key, member in field.fields.items():
            if key not in value:
                raise _invalid(prefix + key, "missing")
            _check(member, value[key], prefix + key)
    elif kind == "list":
        _check_bounds(field, len(value), f"length {len(value)}", path)
        if not _numbers_fit(field.item, value):
            for i, item in enumerate(value):
                _check(field.item, item, f"{path}[{i}]")
    elif kind != "string":
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite, value = False, "an integer too large for a float"
        if not finite:  # Python's json reads NaN and Infinity, and 1e400 as inf
            raise _invalid(path, f"must be finite, got {value}")
        _check_bounds(field, value, repr(value), path)


def _numbers_fit(field: Field, values: list) -> bool:
    """Whether every value is a finite number within the field's bounds, by a
    sum, a min and a max. False sends the caller to the item-by-item loop,
    which finds and names the first bad item."""
    if not values or field.kind != "number" or not set(map(type, values)) <= {int, float}:
        return False
    try:
        # a NaN or infinity makes the sum non-finite; integers add exactly, so
        # one too large for a float may cancel out of the sum, but not out of
        # the min or max. A sum that overflows only sends finite values to the
        # loop. Python compares ints and floats exactly, as the loop does.
        low, high = min(values), max(values)
        if not (math.isfinite(sum(values)) and math.isfinite(low) and math.isfinite(high)):
            return False
    except OverflowError:  # an integer too large for a float
        return False
    return ((field.minimum is None or low >= field.minimum)
            and (field.exclusive_minimum is None or low > field.exclusive_minimum)
            and (field.maximum is None or high <= field.maximum))


def _check_bounds(field: Field, value, shown: str, path: str) -> None:
    if field.minimum is not None and value < field.minimum:
        raise _invalid(path, f"{shown} is less than the minimum of {field.minimum}")
    if field.exclusive_minimum is not None and value <= field.exclusive_minimum:
        raise _invalid(path, f"{shown} is less than or equal to the minimum of "
                             f"{field.exclusive_minimum}")
    if field.maximum is not None and value > field.maximum:
        raise _invalid(path, f"{shown} is greater than the maximum of {field.maximum}")


def _strategy(label: str):
    """The receiver a strategy label names, within the CLI's caps. The
    nesting cap is checked on the raw label, before it is parsed."""
    if label.count("repetition:") > MAX_STRATEGY_NESTING:
        raise ConfigError(f"strategy nests more than {MAX_STRATEGY_NESTING} repetitions; "
                          "lower its nesting")
    (parse_strategy,) = _library("parse_strategy")
    try:
        strategy = parse_strategy(label)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if strategy.pairs_per_bit > MAX_PAIRS_PER_BIT:
        raise ConfigError(
            f"strategy {label.strip()} sends {strategy.pairs_per_bit} pairs per bit, "
            f"more than {MAX_PAIRS_PER_BIT}; lower its repetition factors"
        )
    return strategy


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # also an integer of more than 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = sorted(set(obj) - _TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {', '.join(unknown)}")
    return obj


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _deep_merge(base.get(key), value) if key in base else value
        return merged
    return override


def _parse_set_overrides(items) -> dict:
    overrides: dict = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except ValueError:  # also an integer of more than 4300 digits
            value = raw
        node = overrides
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set key {key!r} descends into a non-object value")
        node[parts[-1]] = value
    return overrides


def _grid_from_sweep(sweep: dict) -> list[float]:
    start = float(sweep["start_deg"])
    stop = float(sweep["stop_deg"])
    step = float(sweep["step_deg"])
    if stop < start:
        raise ConfigError(f"sweep stop_deg {stop} must be >= start_deg {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_SWEEP_POINTS:  # also an infinite or NaN span
        raise ConfigError(
            f"sweep has more than {MAX_SWEEP_POINTS} points; raise step_deg or narrow the range"
        )
    return [start + k * step for k in range(int(span) + 1)]


def _sweep_final_intensities(grid: list[float]):
    """Natural light through polarizers at 90, theta and 0 degrees, for each
    theta of the grid (in degrees), as one batched cascade per point slice,
    so that only the final intensities are held for every point."""
    import numpy as np

    from .core import point_slices

    cascade_analytic, natural_light = _library("cascade_analytic", "natural_light")
    beam = natural_light()
    finals = np.empty(len(grid))
    for rows in point_slices(len(grid)):
        theta = np.radians(grid[rows])
        axes = np.stack([np.full_like(theta, math.pi / 2), theta, np.zeros_like(theta)], axis=1)
        finals[rows] = cascade_analytic(beam, axes).final_intensity()
    return finals


class Table:
    """Rows stored as named columns, lists or 1-D arrays of one length.

    A JSON result renders a table as a list of row objects with one key per
    column, in order; CSV renders it as a header line and one line per row.
    """

    def __init__(self, **columns):
        self.columns = columns


# A runner returns (payload, table, summary, streams): payload holds the result
# keys that follow the common head, a Table among them streamed a block of rows
# at a time; table is what --format csv writes, None where the result is not
# tabular; streams lists the ranges of stream indices the run keys under its
# seed, each written once, where the runner hands it to the library.


def _run_malus(params, seed):
    if params["sweep"] is not None:
        grid = _grid_from_sweep(params["sweep"])
        finals = _sweep_final_intensities(grid)
        best = int(finals.argmax())
        summary = {"max_final_intensity": float(finals[best]), "argmax_deg": grid[best]}
        rows = Table(theta_deg=grid, final_intensity=finals)
        return {"sweep_rows": rows}, rows, summary, []

    cascade_analytic, cascade_mc, linear_light, natural_light = _library(
        "cascade_analytic", "cascade_mc", "linear_light", "natural_light")
    axes = [math.radians(a) for a in params["axes_deg"]]
    if params["mode"] == "analytic":
        if params["source"] == "natural":
            beam = natural_light()
        else:
            beam = linear_light(math.radians(params["source_angle_deg"]))
        result = cascade_analytic(beam, axes)
        payload, streams = {}, []
    else:
        result = cascade_mc(
            params["n_photons"],
            axes,
            source=params["source"],
            source_angle=math.radians(params["source_angle_deg"]),
            seed=seed,
        )
        # the cascade draws its stage counts from stream 0
        payload, streams = {"n_photons": params["n_photons"]}, [range(1)]
    stages = Table(stage=list(range(len(axes))),
                   axis_deg=[float(a) for a in params["axes_deg"]],
                   fraction=[float(f) for f in result.fractions()])
    payload["stages"] = stages
    if params["mode"] == "mc":
        payload["stages"] = Table(**stages.columns,
                                  count=[int(c) for c in result.per_stage_counts])
    payload["final_intensity"] = float(result.final_intensity())
    return payload, stages, {"final_intensity": payload["final_intensity"]}, streams


def _run_entropy(params, seed):
    import numpy as np

    from .core import point_slices

    collapse_entropy_report, unit_state_array = _library(
        "collapse_entropy_report", "unit_state_array")
    p0 = np.array(params["grid"], dtype=np.float64)
    # the states and their report are made one point slice at a time, so that
    # only the table's columns are held for every point
    before, after, delta = (np.empty_like(p0) for _ in range(3))
    for rows in point_slices(p0.size):
        states = unit_state_array(np.stack([np.sqrt(p0[rows]), np.sqrt(1.0 - p0[rows])], axis=1))
        report = collapse_entropy_report(states, 0.0)
        before[rows], after[rows], delta[rows] = (report.before_bits, report.after_bits,
                                                  report.delta_bits)
    rows = Table(p0=p0, before_bits=before, after_bits=after, delta_bits=delta)
    return {"rows": rows}, rows, {"max_after_bits": float(after.max())}, []


def _radians(degrees: list):
    """The angles in radians: a list of floats for a sweep small enough to be
    drawn row by row (scalars.point_list), else an array."""
    from .scalars import point_list

    if point_list(degrees) is not None:
        return [math.radians(d) for d in degrees]
    import numpy as np

    return np.radians(degrees)


def _fractions(counts, n: int):
    """counts / n, for a list of counts or an array of them."""
    return [c / n for c in counts] if isinstance(counts, list) else counts / n


def _run_bell(params, seed):
    grid = _grid_from_sweep(params["sweep"])
    # the sweep's columns, lists or arrays as the sweep's size has them drawn
    from .entangle import _correlation_columns

    (chsh,) = _library("chsh")
    # sweep point i draws from stream i, the CHSH settings from the next four
    points, settings = range(len(grid)), range(len(grid), len(grid) + 4)
    e_values, std_errs = _correlation_columns(_radians(grid), 0.0, params["n_per_point"],
                                              seed=seed, stream_base=points.start)
    rows = Table(delta_deg=grid, e_value=e_values, std_err=std_errs)
    s_value = chsh(
        tuple(math.radians(a) for a in params["chsh_angles_deg"]),
        params["n_per_setting"],
        seed=seed,
        stream_base=settings.start,
    )
    payload = {
        "sweep_rows": rows,
        "chsh": {
            "angles_deg": [float(a) for a in params["chsh_angles_deg"]],
            "n_per_setting": params["n_per_setting"],
            "s_value": float(s_value),
        },
    }
    summary = {"chsh_s": float(s_value)}
    return payload, rows, summary, [points, settings]


def _run_nosignal(params, seed):
    import numpy as np

    ALGEBRA_ATOL, bob_marginal_count_array, no_signaling_check, wilson_interval_array = _library(
        "ALGEBRA_ATOL", "bob_marginal_count_array", "no_signaling_check", "wilson_interval_array")
    bases_deg = np.array(params["bases_a_deg"], dtype=np.float64)
    probe_deg = float(params["probe_basis_deg"])
    n = params["n_per_basis"]
    bases = np.radians(bases_deg)
    distance = no_signaling_check(bases)
    # basis i draws from stream i
    basis_streams = range(bases.size)
    count0 = bob_marginal_count_array(bases, math.radians(probe_deg), n, seed=seed,
                                      stream_base=basis_streams.start)
    lo, hi = wilson_interval_array(count0, n)
    rows = Table(basis_a_deg=bases_deg, n=np.full(count0.shape, n), bob_fraction_d0=count0 / n,
                 ci_lo=lo, ci_hi=hi)
    payload = {
        "max_trace_distance": float(distance),
        "within_atol": bool(distance < ALGEBRA_ATOL),
        "probe_basis_deg": probe_deg,
        "rows": rows,
    }
    summary = {"max_trace_distance": float(distance)}
    return payload, rows, summary, [basis_streams]


def _run_protocol(params, seed):
    n_bits = params["n_bits"]
    if params["bit_source"] == "balanced":
        # the balanced bit source splits n_bits into equal halves of ones and zeros
        if n_bits % 2:
            raise _invalid("n_bits", f"{n_bits} is not a multiple of 2, as the balanced "
                                     "bit source needs")
    strategy = _strategy(params["strategy"])
    EncodingRule, run_protocol = _library("EncodingRule", "run_protocol")
    rule = EncodingRule(
        basis_for_one=math.radians(params["rule"]["one_deg"]),
        basis_for_zero=math.radians(params["rule"]["zero_deg"]),
    )
    report = run_protocol(
        n_bits,
        rule=rule,
        strategy=strategy,
        seed=seed,
        bit_source=params["bit_source"],
    )
    payload = {
        "n_bits": int(report.n_bits),
        "ber": float(report.ber),
        "mutual_info_bits": float(report.mutual_info_bits),
        "mi_confidence_interval": [float(v) for v in report.mi_confidence_interval],
        "decode_ties": int(report.decode_ties),
        "strategy": report.strategy.label,
        "rule": {
            "one_deg": math.degrees(report.rule.basis_for_one),
            "zero_deg": math.degrees(report.rule.basis_for_zero),
        },
        "bit_source": report.bit_source,
    }
    summary = {"ber": payload["ber"], "mutual_info_bits": payload["mutual_info_bits"]}
    # iid bits draw their count of ones from stream 0; balanced bits draw nothing
    return payload, None, summary, [range(1)] if params["bit_source"] == "iid" else []


def _run_mzi(params, seed):
    # the fringe's counts, a list or an array as the sweep's size has them drawn
    from .mzi import _d0_counts

    MziConfig, choice_timing_invariance = _library("MziConfig", "choice_timing_invariance")
    phases_deg = [float(d) for d in params["phases_deg"]]
    phases = _radians(phases_deg)
    n = params["n_per_phase"]
    # phase i draws from stream 4i closed and 4i + 2 open; the timing
    # comparison takes the three streams after the last phase's
    span = 4 * len(phases_deg)
    fringe = [range(0, span, 4), range(2, span, 4)]
    closed, opened = (_d0_counts(phases, second_bs, n, seed, params["mode"], indices.start,
                                 indices.step)
                      for second_bs, indices in zip((True, False), fringe))
    streams = fringe if params["mode"] == "mc" else []
    rows = Table(phase_deg=phases_deg, closed_fraction_d0=_fractions(closed, n),
                 open_fraction_d0=_fractions(opened, n))
    timing_payload = None
    if params["timing"] is not None:
        timing = params["timing"]
        phase = math.radians(timing["phase_deg"])
        streams.append(range(span, span + 3))
        report = choice_timing_invariance(
            MziConfig(phase, second_bs=True, choice_policy="delayed-random",
                      p_present=timing["p_present"]),
            MziConfig(phase, second_bs=True),
            timing["n"],
            seed=seed,
            stream_base=streams[-1].start,
        )
        timing_payload = {
            "phase_deg": float(timing["phase_deg"]),
            "choice": report.choice,
            "n_conditional": int(report.n_conditional),
            # None when the draw left the branch empty, as no comparison was made
            "conditional_fraction_d0": report.conditional_fraction_d0,
            "fixed_n": int(report.fixed_n),
            "fixed_fraction_d0": float(report.fixed_fraction_d0),
            "z_value": report.z_value,
            "within_4_sigma": report.within_4_sigma,
        }
    payload = {"fringe_rows": rows, "timing": timing_payload}
    summary = {
        "timing_within_4_sigma": None if timing_payload is None
        else timing_payload["within_4_sigma"],
    }
    return payload, rows, summary, streams


class Experiment(namedtuple("Experiment", "help fields run")):
    """One subcommand: its --help line, the Field of each of its parameters by
    name, and its runner, run(params, seed) -> (payload, table, summary,
    streams)."""

    __slots__ = ()


EXPERIMENTS = {
    "malus": Experiment("polarizer cascades, analytic or Monte Carlo, plus angle sweeps", {
        "axes_deg": Field("list", [90.0, 45.0, 0.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                          item=_NUMBER),
        "mode": Field("choice", "analytic", choices=_MODES),
        "n_photons": Field("integer", 1_000_000, minimum=1, maximum=MAX_TRIALS),
        "source": Field("choice", "natural", choices=("natural", "linear")),
        "source_angle_deg": Field("number", 0.0),
        "sweep": Field("object", None, fields=_SWEEP, nullable=True),
    }, _run_malus),
    "entropy": Experiment("superposition entropy before and after collapse over a weight grid", {
        "grid": Field("list", [0.0, 0.25, 0.5, 0.75, 1.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                      item=Field("number", minimum=0, maximum=1)),
    }, _run_entropy),
    "bell": Experiment("singlet correlation sweep and the CHSH statistic", {
        "sweep": Field("object", {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
                       fields=_SWEEP),
        "n_per_point": Field("integer", 50_000, minimum=1, maximum=MAX_TRIALS),
        "chsh_angles_deg": Field("list", [0.0, 45.0, 22.5, 67.5], minimum=4, maximum=4,
                                 item=_NUMBER),
        "n_per_setting": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    }, _run_bell),
    "nosignal": Experiment("Bob-marginal trace distances and per-basis Bob statistics", {
        "bases_a_deg": Field("list", [0.0, 45.0], minimum=1, maximum=MAX_BASES, item=_NUMBER),
        "probe_basis_deg": Field("number", 0.0),
        "n_per_basis": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    }, _run_nosignal),
    "protocol": Experiment("the entanglement bit-transmission scheme under a receiver model", {
        "n_bits": Field("integer", 10_000, minimum=1, maximum=MAX_TRIALS),
        "strategy": Field("string", "fixed-basis-ml:0"),
        "rule": Field("object", {"one_deg": 0.0, "zero_deg": 45.0},
                      fields={"one_deg": _NUMBER, "zero_deg": _NUMBER}),
        "bit_source": Field("choice", "iid", choices=("iid", "balanced")),
    }, _run_protocol),
    "mzi": Experiment("Mach-Zehnder fringes and delayed-choice timing invariance", {
        "phases_deg": Field("list", [22.5 * k for k in range(16)], minimum=1,
                            maximum=MAX_SWEEP_POINTS, item=_NUMBER),
        "n_per_phase": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
        "mode": Field("choice", "mc", choices=_MODES),
        "timing": Field(
            "object",
            {"phase_deg": 60.0, "p_present": 0.5, "n": 200_000},
            # the report compares the "present" branch, so it must be able to occur
            fields={"phase_deg": _NUMBER,
                    "p_present": Field("number", exclusive_minimum=0, maximum=1),
                    "n": Field("integer", minimum=1, maximum=MAX_TRIALS)},
            nullable=True,
        ),
    }, _run_mzi),
}


# rows the writer formats per write: beyond the columns themselves, the text
# of one block is all it holds at once
WRITE_ROWS = 2**10


def _block(column, start: int) -> list:
    part = column[start:start + WRITE_ROWS]
    return part if isinstance(part, list) else part.tolist()


def _json_cells(cells: list, newline: str):
    """A %-format and the cells it renders as json.dumps(cell, indent=2) would
    at the indentation of newline: '%r' and the cells themselves where every
    repr is the JSON text (ints and finite floats), else '%s' and their text."""
    kinds = set(map(type, cells))
    try:
        if kinds <= {int} or (kinds <= {int, float} and math.isfinite(sum(cells))):
            return "%r", cells
    except OverflowError:  # an integer too large for a float among floats
        pass
    return "%s", [json.dumps(cell, indent=2).replace("\n", newline) for cell in cells]


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def _csv_cells(cells: list):
    """A %-format and the cells it renders as _csv_cell would."""
    kinds = set(map(type, cells))
    if kinds <= {float}:
        return "%.10g", cells
    if kinds <= {int}:
        return "%d", cells
    return "%s", [_csv_cell(cell) for cell in cells]


def _write_json(fh, value) -> None:
    """Write json.dumps(value, indent=2) + "\n", with every list and Table
    streamed a block of rows at a time."""
    _dump(fh, value, "\n")
    fh.write("\n")


def _dump(fh, value, newline: str) -> None:
    """Write value as json.dumps(value, indent=2) would at the indentation of
    newline; lists and tables stream, everything else goes through json."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        lead = "{"
        for key, member in value.items():
            fh.write(f"{lead}{inner}{json.dumps(key)}: ")
            _dump(fh, member, inner)
            lead = ","
        fh.write(newline + "}")
    elif isinstance(value, Table):
        keys = [json.dumps(key).replace("%", "%%") for key in value.columns]
        _write_rows(fh, list(value.columns.values()), keys, newline)
    elif isinstance(value, list) and value:
        _write_rows(fh, [value], None, newline)
    else:
        fh.write(json.dumps(value, indent=2).replace("\n", newline))


def _write_rows(fh, columns: list, keys, newline: str) -> None:
    """Write a JSON list, WRITE_ROWS rows at a time, each row through one
    %-template: an object with the given keys over the columns, or, with keys
    None, the cell of the one column itself."""
    inner = newline + "  "
    cell_newline = inner + "  " if keys else inner
    lead = "[" + inner
    n = len(columns[0])
    for start in range(0, n, WRITE_ROWS):
        formats, cells = zip(*(_json_cells(_block(c, start), cell_newline) for c in columns))
        if keys is None:
            row = formats[0]
        else:
            row = "{" + ",".join(f"{cell_newline}{key}: {fmt}"
                                 for key, fmt in zip(keys, formats)) + inner + "}"
        fh.write(lead + ("," + inner).join(map(row.__mod__, zip(*cells))))
        lead = "," + inner
    fh.write(newline + "]" if n else "[]")


def _write_csv(fh, table: Table) -> None:
    """Write the table as CSV, WRITE_ROWS rows at a time, each row through one
    %-template: 10 significant digits for floats."""
    fh.write(",".join(table.columns) + "\n")
    columns = list(table.columns.values())
    for start in range(0, len(columns[0]), WRITE_ROWS):
        formats, cells = zip(*(_csv_cells(_block(c, start)) for c in columns))
        fh.write("".join(map((",".join(formats) + "\n").__mod__, zip(*cells))))


def _write(path: str, write, value) -> None:
    """Write one output file; one that fails part way is removed, not left cut short."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(fh, value)
    except BaseException:
        os.remove(path)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="Seeded quantum-optics experiments with machine-readable reports.",
    )
    parser.add_argument("--version", action="version", version=f"photonlab {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=experiment.help)
        sp.add_argument("--config", help="JSON config file; a run manifest also works")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        sp.add_argument("--workers", type=int, default=None,
                        help="recorded in the manifest; has no effect since 0.8.0")
        sp.add_argument("--out", default=None, help="result file path")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one parameter (dotted keys; value parsed as JSON)",
        )
    return parser


def _run(args) -> int:
    experiment = args.experiment
    config = _load_config(args.config) if args.config else {}
    if config.get("experiment") not in (None, experiment):
        raise ConfigError(
            f"config is for experiment {config['experiment']!r}, not {experiment!r}"
        )
    record = EXPERIMENTS[experiment]
    params = _deep_merge(defaults(record.fields), config.get("params", {}))
    params = _deep_merge(params, _parse_set_overrides(args.set))
    check_params(record.fields, params)

    seed = args.seed if args.seed is not None else config.get("seed", 0)
    workers = args.workers if args.workers is not None else config.get("workers", 1)
    out_format = args.format if args.format is not None else config.get("format", "json")
    _check(Field("integer", minimum=0, maximum=2**64 - 1), seed, "seed")
    _check(Field("integer", minimum=1), workers, "workers")
    _check(Field("choice", choices=("json", "csv")), out_format, "format")
    if out_format == "csv" and experiment == "protocol":
        raise ConfigError("the protocol report is not tabular; use --format json")

    out_path = args.out if args.out is not None else config.get("out")
    if out_path is None:
        out_dir = os.environ.get("PHOTONLAB_OUT_DIR", os.getcwd())
        out_path = os.path.join(out_dir, f"{experiment}.{out_format}")

    started = time.perf_counter()
    payload, table, summary, streams = record.run(params, seed)
    elapsed = time.perf_counter() - started

    # a run that keys no stream, and so draws no count, names only the
    # generator of the words, as 0.9 named every run
    (rng_algorithm,) = _library("ALGORITHM_ID" if any(streams) else "WORDS_ID")
    if out_format == "csv":
        _write(out_path, _write_csv, table)
    else:
        result = {
            "experiment": experiment,
            "seed": seed,
            "rng_algorithm": rng_algorithm,
            "params": params,
        }
        result.update(payload)
        _write(out_path, _write_json, result)
    manifest = {
        "tool_version": __version__,
        "experiment": experiment,
        "params": params,
        "seed": seed,
        "workers": workers,
        "format": out_format,
        "out": str(out_path),
        "rng_algorithm": rng_algorithm,
        "wall_time_s": round(elapsed, 6),
        "summary": summary,
    }
    manifest_path = f"{out_path}.manifest.json"
    _write(manifest_path, _write_json, manifest)
    print(f"wrote {out_path}")
    print(f"wrote {manifest_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # some exceptions, MemoryError() for one, carry no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
