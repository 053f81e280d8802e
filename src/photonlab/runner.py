"""The run machinery behind photonlab.cli: everything a run needs once its
arguments are parsed.

It holds each experiment's parameters (Field, EXPERIMENTS) and their checks,
the config file's load and merge with --set overrides, the JSON writer and
_run. photonlab.cli imports it only once argparse has parsed a run's
arguments, so --help, --version and a usage error never compile it. Each
experiment's runner, with the helpers only it uses, is in its own module,
photonlab.runner_<experiment>, and the CSV writer in photonlab.csvout; a run
imports only the ones it calls.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import namedtuple

from . import _HOME, __version__

# The namespace of the front end that loaded this module, which binds it
# (photonlab.cli._runner). A runner looks each library name up there when it
# runs (_library), so whoever replaces cli.<name> (a test's mock, a tracer's
# shim) replaces what the runner calls. Empty where no front end loaded it.
front: dict = {}


def _library(*names) -> list:
    """The named library objects, as the front end resolves them now: a name
    set on it first, else its home module's."""
    return [front[name] if name in front
            else getattr(__import__(f"{__package__}.{_HOME[name]}", fromlist=[name]), name)
            for name in names]


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
    """A fresh copy of the default value of every field. The defaults are
    JSON values, so a JSON round trip copies them, to the last list and
    object, and gives each float back bit for bit."""
    return json.loads(json.dumps({name: field.default for name, field in fields.items()}))


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


class Table:
    """Rows stored as named columns, lists or 1-D arrays of one length.

    A JSON result renders a table as a list of row objects with one key per
    column, in order; CSV renders it as a header line and one line per row.
    """

    def __init__(self, **columns):
        self.columns = columns


def _radians(degrees: list):
    """The angles in radians: a list of floats for a sweep small enough to be
    drawn row by row (scalars.point_list), else an array."""
    from .scalars import point_list

    if point_list(degrees) is not None:
        return [math.radians(d) for d in degrees]
    import numpy as np

    return np.radians(degrees)


# A runner returns (payload, table, summary, streams): payload holds the result
# keys that follow the common head, a Table among them streamed a block of rows
# at a time; table is what --format csv writes, None where the result is not
# tabular; streams lists the ranges of stream indices the run keys under its
# seed, each written once, where the runner hands it to the library.
def _lazy_runner(experiment: str):
    """The runner of an experiment: the run function of
    photonlab.runner_<experiment>, which it imports when first called, so a
    process compiles only the runner it calls."""
    module = f"{__package__}.runner_{experiment}"

    def run(params, seed):
        return __import__(module, fromlist=["run"]).run(params, seed)

    return run


_run_malus, _run_entropy, _run_bell, _run_nosignal, _run_protocol, _run_mzi = map(
    _lazy_runner, ("malus", "entropy", "bell", "nosignal", "protocol", "mzi"))


# one subcommand, under its name in photonlab.cli.COMMANDS: the Field of each
# of its parameters by name, and its runner, run(params, seed) -> (payload,
# table, summary, streams)
Experiment = namedtuple("Experiment", "fields run")


EXPERIMENTS = {
    "malus": Experiment({
        "axes_deg": Field("list", [90.0, 45.0, 0.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                          item=_NUMBER),
        "mode": Field("choice", "analytic", choices=_MODES),
        "n_photons": Field("integer", 1_000_000, minimum=1, maximum=MAX_TRIALS),
        "source": Field("choice", "natural", choices=("natural", "linear")),
        "source_angle_deg": Field("number", 0.0),
        "sweep": Field("object", None, fields=_SWEEP, nullable=True),
    }, _run_malus),
    "entropy": Experiment({
        "grid": Field("list", [0.0, 0.25, 0.5, 0.75, 1.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                      item=Field("number", minimum=0, maximum=1)),
    }, _run_entropy),
    "bell": Experiment({
        "sweep": Field("object", {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
                       fields=_SWEEP),
        "n_per_point": Field("integer", 50_000, minimum=1, maximum=MAX_TRIALS),
        "chsh_angles_deg": Field("list", [0.0, 45.0, 22.5, 67.5], minimum=4, maximum=4,
                                 item=_NUMBER),
        "n_per_setting": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    }, _run_bell),
    "nosignal": Experiment({
        "bases_a_deg": Field("list", [0.0, 45.0], minimum=1, maximum=MAX_BASES, item=_NUMBER),
        "probe_basis_deg": Field("number", 0.0),
        "n_per_basis": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    }, _run_nosignal),
    "protocol": Experiment({
        "n_bits": Field("integer", 10_000, minimum=1, maximum=MAX_TRIALS),
        "strategy": Field("string", "fixed-basis-ml:0"),
        "rule": Field("object", {"one_deg": 0.0, "zero_deg": 45.0},
                      fields={"one_deg": _NUMBER, "zero_deg": _NUMBER}),
        "bit_source": Field("choice", "iid", choices=("iid", "balanced")),
    }, _run_protocol),
    "mzi": Experiment({
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


def _write(path: str, write, value) -> None:
    """Write one output file; one that fails part way is removed, not left cut short."""
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(fh, value)
    except BaseException:
        os.remove(path)
        raise


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
    _check(Field("string", nullable=True), out_path, "out")
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
        from .csvout import write_csv

        _write(out_path, write_csv, table)
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

