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
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entangle import bob_marginal_counts, chsh, correlation, no_signaling_check
from .entropy import collapse_entropy_report
from .core import ALGEBRA_ATOL, unit_state_array
from .mzi import MziConfig, choice_timing_invariance, run_mzi
from .optics import cascade_analytic, cascade_mc, linear_light, natural_light
from .protocol import BasisOracle, EncodingRule, FixedBasisML, Repetition, run_protocol
from .rng import ALGORITHM_ID, BLOCK
from .stats import wilson_interval


class ConfigError(ValueError):
    """Bad configuration; maps to exit code 2 before any computation runs."""


# keys a config file (or a fed-back manifest) may carry at the top level
_TOP_LEVEL_KEYS = {"experiment", "params", "seed", "workers", "format", "out",
                   "tool_version", "rng_algorithm", "wall_time_s", "summary"}

# sweeps are built as point lists before any work, so their size is capped;
# a list parameter is a sweep written out and shares the cap
MAX_SWEEP_POINTS = 1_000_000
# map_partitions keeps one future per block of a count: 2^14 at the cap
MAX_TRIALS = 2**32
# no_signaling_check compares every pair of bitwise-distinct marginals
MAX_BASES = 1_000
# a protocol block holds pairs_per_bit photons per bit in several arrays at
# once, so the photons of one block are capped; the shipped maximum is 11 * 2^18
MAX_BLOCK_PHOTONS = 2**24
# parse_strategy recurses once per repetition level
MAX_STRATEGY_NESTING = 8


@dataclass(frozen=True)
class Field:
    """One parameter of an experiment: its kind, default and bounds.

    kind is "number", "integer", "string", "choice", "list" or "object". Numbers
    must be finite; integers must be JSON integers. minimum and maximum are
    inclusive and exclusive_minimum is strict; for a list they bound its length
    and `item` describes every element. An object needs exactly the keys of
    `fields`, and a nullable one may also be null. `default` is the value a run
    starts from before its config and --set overrides.
    """

    kind: str
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: float | None = None
    choices: tuple = ()
    item: Field | None = None
    fields: dict | None = None
    nullable: bool = False


_NUMBER = Field("number")
_SWEEP = {
    "start_deg": _NUMBER,
    "stop_deg": _NUMBER,
    "step_deg": Field("number", exclusive_minimum=0),
}
_MODES = ("analytic", "mc")
_TYPES = {"number": (int, float), "integer": int, "string": str, "list": list, "object": dict}

SPECS = {
    "malus": {
        "axes_deg": Field("list", [90.0, 45.0, 0.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                          item=_NUMBER),
        "mode": Field("choice", "analytic", choices=_MODES),
        "n_photons": Field("integer", 1_000_000, minimum=1, maximum=MAX_TRIALS),
        "source": Field("choice", "natural", choices=("natural", "linear")),
        "source_angle_deg": Field("number", 0.0),
        "sweep": Field("object", None, fields=_SWEEP, nullable=True),
    },
    "entropy": {
        "grid": Field("list", [0.0, 0.25, 0.5, 0.75, 1.0], minimum=1, maximum=MAX_SWEEP_POINTS,
                      item=Field("number", minimum=0, maximum=1)),
    },
    "bell": {
        "sweep": Field("object", {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
                       fields=_SWEEP),
        "n_per_point": Field("integer", 50_000, minimum=1, maximum=MAX_TRIALS),
        "chsh_angles_deg": Field("list", [0.0, 45.0, 22.5, 67.5], minimum=4, maximum=4,
                                 item=_NUMBER),
        "n_per_setting": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    },
    "nosignal": {
        "bases_a_deg": Field("list", [0.0, 45.0], minimum=1, maximum=MAX_BASES, item=_NUMBER),
        "probe_basis_deg": Field("number", 0.0),
        "n_per_basis": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
    },
    "protocol": {
        "n_bits": Field("integer", 10_000, minimum=1, maximum=MAX_TRIALS),
        "strategy": Field("string", "fixed-basis-ml:0"),
        "rule": Field("object", {"one_deg": 0.0, "zero_deg": 45.0},
                      fields={"one_deg": _NUMBER, "zero_deg": _NUMBER}),
        "bit_source": Field("choice", "iid", choices=("iid", "balanced")),
    },
    "mzi": {
        "phases_deg": Field("list", [22.5 * k for k in range(16)], minimum=1,
                            maximum=MAX_SWEEP_POINTS, item=_NUMBER),
        "n_per_phase": Field("integer", 100_000, minimum=1, maximum=MAX_TRIALS),
        "mode": Field("choice", "mc", choices=_MODES),
        "timing": Field(
            "object",
            {"phase_deg": 60.0, "p_present": 0.5, "n": 200_000},
            # the report compares the "present" branch, so it must occur
            fields={"phase_deg": _NUMBER,
                    "p_present": Field("number", exclusive_minimum=0, maximum=1),
                    "n": Field("integer", minimum=1, maximum=MAX_TRIALS)},
            nullable=True,
        ),
    },
}


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


def _check_bounds(field: Field, value, shown: str, path: str) -> None:
    if field.minimum is not None and value < field.minimum:
        raise _invalid(path, f"{shown} is less than the minimum of {field.minimum}")
    if field.exclusive_minimum is not None and value <= field.exclusive_minimum:
        raise _invalid(path, f"{shown} is less than or equal to the minimum of "
                             f"{field.exclusive_minimum}")
    if field.maximum is not None and value > field.maximum:
        raise _invalid(path, f"{shown} is greater than the maximum of {field.maximum}")


_STRATEGY_FORMS = (
    "valid strategies: 'basis-oracle', 'fixed-basis-ml:<angle_deg>', "
    "'repetition:<k>:<inner strategy>'"
)


def parse_strategy(label: str):
    """Parse a receiver strategy label, e.g. 'repetition:11:fixed-basis-ml:22.5'."""
    label = label.strip()
    if label.count("repetition:") > MAX_STRATEGY_NESTING:
        raise ConfigError(
            f"strategy nests more than {MAX_STRATEGY_NESTING} repetitions; {_STRATEGY_FORMS}"
        )
    if label == "basis-oracle":
        return BasisOracle()
    if label.startswith("fixed-basis-ml:"):
        raw = label.split(":", 1)[1]
        try:
            deg = float(raw)
        except ValueError:
            raise ConfigError(f"bad angle {raw!r} in {label!r}; {_STRATEGY_FORMS}") from None
        if not math.isfinite(deg):
            raise ConfigError(f"angle in {label!r} must be finite; {_STRATEGY_FORMS}")
        return FixedBasisML(math.radians(deg))
    if label.startswith("repetition:"):
        parts = label.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"malformed repetition strategy {label!r}; {_STRATEGY_FORMS}")
        try:
            k = int(parts[1])
        except ValueError:
            raise ConfigError(
                f"bad repetition factor {parts[1]!r} in {label!r}; {_STRATEGY_FORMS}"
            ) from None
        inner = parse_strategy(parts[2])
        try:
            return Repetition(k, inner)
        except ValueError as exc:
            raise ConfigError(f"{exc}; {_STRATEGY_FORMS}") from None
    raise ConfigError(f"unknown strategy {label!r}; {_STRATEGY_FORMS}")


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


def _sweep_final_intensities(grid: list[float]) -> list[float]:
    """Natural light through polarizers at 90, theta and 0 degrees, for each
    theta of the grid (in degrees): one batched cascade, whose arrays are
    freed before the caller builds its rows."""
    theta = np.radians(grid)
    axes = np.stack([np.full_like(theta, math.pi / 2), theta, np.zeros_like(theta)], axis=1)
    return cascade_analytic(natural_light(), axes).final_intensity().tolist()


def _run_malus(params, seed, workers):
    if params["sweep"] is not None:
        grid = _grid_from_sweep(params["sweep"])
        finals = _sweep_final_intensities(grid)
        best = finals.index(max(finals))
        summary = {"max_final_intensity": finals[best], "argmax_deg": grid[best]}

        def payload():
            return {"sweep_rows": [{"theta_deg": t, "final_intensity": f}
                                   for t, f in zip(grid, finals)]}

        # _render_csv reads the rows once, so a sweep's rows are not stored twice
        return payload, ["theta_deg", "final_intensity"], zip(grid, finals), summary

    axes = [math.radians(a) for a in params["axes_deg"]]
    if params["mode"] == "analytic":
        if params["source"] == "natural":
            beam = natural_light()
        else:
            beam = linear_light(math.radians(params["source_angle_deg"]))
        result = cascade_analytic(beam, axes)
        stages = [
            {"stage": i, "axis_deg": float(params["axes_deg"][i]), "fraction": float(f)}
            for i, f in enumerate(result.fractions())
        ]
        payload = {"stages": stages, "final_intensity": float(result.final_intensity())}
    else:
        result = cascade_mc(
            params["n_photons"],
            axes,
            source=params["source"],
            source_angle=math.radians(params["source_angle_deg"]),
            seed=seed,
            workers=workers,
        )
        fractions = result.fractions()
        stages = [
            {
                "stage": i,
                "axis_deg": float(params["axes_deg"][i]),
                "fraction": float(fractions[i]),
                "count": int(result.per_stage_counts[i]),
            }
            for i in range(len(axes))
        ]
        payload = {
            "n_photons": params["n_photons"],
            "stages": stages,
            "final_intensity": float(result.final_intensity()),
        }
    summary = {"final_intensity": payload["final_intensity"]}
    csv_rows = [(s["stage"], s["axis_deg"], s["fraction"]) for s in stages]
    return payload, ["stage", "axis_deg", "fraction"], csv_rows, summary


def _run_entropy(params, seed, workers):
    p0 = np.array(params["grid"], dtype=np.float64)
    states = unit_state_array(np.stack([np.sqrt(p0), np.sqrt(1.0 - p0)], axis=1))
    report = collapse_entropy_report(states, 0.0)
    columns = [p0.tolist()] + [v.tolist() for v in (report.before_bits, report.after_bits,
                                                    report.delta_bits)]
    header = ["p0", "before_bits", "after_bits", "delta_bits"]
    summary = {"max_after_bits": float(report.after_bits.max())}

    def payload():
        return {"rows": [dict(zip(header, row)) for row in zip(*columns)]}

    # _render_csv reads the rows once, so they are not stored twice
    return payload, header, zip(*columns), summary


def _run_bell(params, seed, workers):
    grid = _grid_from_sweep(params["sweep"])
    rows = []
    for i, delta_deg in enumerate(grid):
        stats = correlation(
            math.radians(delta_deg),
            0.0,
            params["n_per_point"],
            seed=seed,
            workers=workers,
            stream_base=i,
        )
        rows.append(
            {
                "delta_deg": float(delta_deg),
                "e_value": float(stats.e_value),
                "std_err": float(stats.std_err),
            }
        )
    settings = tuple(math.radians(a) for a in params["chsh_angles_deg"])
    s_value = chsh(
        settings,
        params["n_per_setting"],
        seed=seed,
        workers=workers,
        stream_base=len(grid),
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
    csv_rows = [(r["delta_deg"], r["e_value"], r["std_err"]) for r in rows]
    return payload, ["delta_deg", "e_value", "std_err"], csv_rows, summary


def _run_nosignal(params, seed, workers):
    bases_deg = params["bases_a_deg"]
    probe_deg = float(params["probe_basis_deg"])
    distance = no_signaling_check([math.radians(b) for b in bases_deg])
    rows = []
    for i, basis_deg in enumerate(bases_deg):
        total, count0 = bob_marginal_counts(
            math.radians(basis_deg),
            math.radians(probe_deg),
            params["n_per_basis"],
            seed=seed,
            workers=workers,
            stream_base=i,
        )
        lo, hi = wilson_interval(count0, total)
        rows.append(
            {
                "basis_a_deg": float(basis_deg),
                "n": int(total),
                "bob_fraction_d0": count0 / total,
                "ci_lo": float(lo),
                "ci_hi": float(hi),
            }
        )
    payload = {
        "max_trace_distance": float(distance),
        "within_atol": bool(distance < ALGEBRA_ATOL),
        "probe_basis_deg": probe_deg,
        "rows": rows,
    }
    summary = {"max_trace_distance": float(distance)}
    csv_rows = [
        (r["basis_a_deg"], r["n"], r["bob_fraction_d0"], r["ci_lo"], r["ci_hi"]) for r in rows
    ]
    return payload, ["basis_a_deg", "n", "bob_fraction_d0", "ci_lo", "ci_hi"], csv_rows, summary


def _run_protocol(params, seed, workers):
    n_bits = params["n_bits"]
    if params["bit_source"] == "balanced":
        # the balanced bit source splits n_bits into equal halves of ones and zeros
        if n_bits % 2:
            raise _invalid("n_bits", f"{n_bits} is not a multiple of 2, as the balanced "
                                     "bit source needs")
    strategy = parse_strategy(params["strategy"])
    block_photons = min(n_bits, BLOCK) * strategy.pairs_per_bit
    if block_photons > MAX_BLOCK_PHOTONS:
        raise ConfigError(
            f"strategy {strategy.label} needs {block_photons} photons per block of bits, "
            f"more than {MAX_BLOCK_PHOTONS}; lower its repetition factors or n_bits"
        )
    rule = EncodingRule(
        basis_for_one=math.radians(params["rule"]["one_deg"]),
        basis_for_zero=math.radians(params["rule"]["zero_deg"]),
    )
    report = run_protocol(
        n_bits,
        rule=rule,
        strategy=strategy,
        seed=seed,
        workers=workers,
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
    return payload, None, None, summary


def _run_mzi(params, seed, workers):
    rows = []
    for i, phase_deg in enumerate(params["phases_deg"]):
        phase = math.radians(phase_deg)
        base = 4 * i
        closed = run_mzi(
            MziConfig(phase, second_bs=True),
            params["n_per_phase"],
            seed=seed,
            workers=workers,
            mode=params["mode"],
            stream_base=base,
        )
        opened = run_mzi(
            MziConfig(phase, second_bs=False),
            params["n_per_phase"],
            seed=seed,
            workers=workers,
            mode=params["mode"],
            stream_base=base + 2,
        )
        rows.append(
            {
                "phase_deg": float(phase_deg),
                "closed_fraction_d0": closed.count_d0 / closed.n,
                "open_fraction_d0": opened.count_d0 / opened.n,
            }
        )
    timing_payload = None
    if params["timing"] is not None:
        timing = params["timing"]
        phase = math.radians(timing["phase_deg"])
        report = choice_timing_invariance(
            MziConfig(phase, second_bs=True, choice_policy="delayed-random",
                      p_present=timing["p_present"]),
            MziConfig(phase, second_bs=True),
            timing["n"],
            seed=seed,
            workers=workers,
            stream_base=4 * len(params["phases_deg"]),
        )
        timing_payload = {
            "phase_deg": float(timing["phase_deg"]),
            "choice": report.choice,
            "n_conditional": int(report.n_conditional),
            "conditional_fraction_d0": float(report.conditional_fraction_d0),
            "fixed_n": int(report.fixed_n),
            "fixed_fraction_d0": float(report.fixed_fraction_d0),
            "z_value": float(report.z_value),
            "within_4_sigma": bool(report.within_4_sigma),
        }
    payload = {"fringe_rows": rows, "timing": timing_payload}
    summary = {
        "timing_within_4_sigma": None if timing_payload is None
        else timing_payload["within_4_sigma"],
    }
    csv_rows = [(r["phase_deg"], r["closed_fraction_d0"], r["open_fraction_d0"]) for r in rows]
    return payload, ["phase_deg", "closed_fraction_d0", "open_fraction_d0"], csv_rows, summary


# A runner returns (payload, csv_header, csv_rows, summary). A payload that
# grows with the number of points is a function that builds it, so a CSV run,
# which renders only the rows, never builds it.
_RUNNERS = {
    "malus": _run_malus,
    "entropy": _run_entropy,
    "bell": _run_bell,
    "nosignal": _run_nosignal,
    "protocol": _run_protocol,
    "mzi": _run_mzi,
}


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def _render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="Seeded quantum-optics experiments with machine-readable reports.",
    )
    parser.add_argument("--version", action="version", version=f"photonlab {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    descriptions = {
        "malus": "polarizer cascades, analytic or Monte Carlo, plus angle sweeps",
        "entropy": "superposition entropy before and after collapse over a weight grid",
        "bell": "singlet correlation sweep and the CHSH statistic",
        "nosignal": "Bob-marginal trace distances and per-basis Bob statistics",
        "protocol": "the entanglement bit-transmission scheme under a receiver model",
        "mzi": "Mach-Zehnder fringes and delayed-choice timing invariance",
    }
    for name in SPECS:
        sp = sub.add_parser(name, help=descriptions[name])
        sp.add_argument("--config", help="JSON config file; a run manifest also works")
        sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        sp.add_argument("--workers", type=int, default=None, help="threads to run on (default 1)")
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
    params = _deep_merge(defaults(SPECS[experiment]), config.get("params", {}))
    params = _deep_merge(params, _parse_set_overrides(args.set))
    check_params(SPECS[experiment], params)

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
    payload, csv_header, csv_rows, summary = _RUNNERS[experiment](params, seed, workers)
    elapsed = time.perf_counter() - started

    if out_format == "csv":
        result_text = _render_csv(csv_header, csv_rows)
    else:
        if callable(payload):
            payload = payload()
        result = {
            "experiment": experiment,
            "seed": seed,
            "rng_algorithm": ALGORITHM_ID,
            "params": params,
        }
        result.update(payload)
        result_text = json.dumps(result, indent=2) + "\n"
    manifest = {
        "tool_version": __version__,
        "experiment": experiment,
        "params": params,
        "seed": seed,
        "workers": workers,
        "format": out_format,
        "out": str(out_path),
        "rng_algorithm": ALGORITHM_ID,
        "wall_time_s": round(elapsed, 6),
        "summary": summary,
    }
    _write_text(out_path, result_text)
    manifest_path = f"{out_path}.manifest.json"
    _write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
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
