"""Traced in-process run of one benchmark workload.

Usage: python perfbench/traced.py SPEC.json OUT.json   (with src on PYTHONPATH)

SPEC is written by run.py: the workload's CLI steps, a time budget, the seed
and the microbenchmark sizes. The script calls photonlab.cli.main(argv) for
each step, in passes that alternate between untraced (the package as is) and
traced. For a traced pass, span-recording shims replace the package's public
functions at the names their callers look them up. Spans stay in memory and
are summarised after the pass, outside its timing; the last traced pass's
spans are written next to OUT. Microbenchmarks of the random streams and of
cascade_mc's two-worker speed-up run last, on the unshimmed functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import photonlab.cli

# Span name -> the modules whose attribute of that function name is replaced.
# Each is where a caller on a workload's path looks the function up, e.g.
# chsh calls photonlab.entangle.correlation and the CLI photonlab.cli.correlation.
SHIMS = {
    "optics.cascade_analytic": ("cli",),
    "optics.cascade_mc": ("cli",),
    "entangle.correlation": ("cli", "entangle"),
    "entangle.chsh": ("cli",),
    "entangle.bob_marginal_counts": ("cli",),
    "entangle.no_signaling_check": ("cli",),
    "core.trace_distance": ("entangle",),
    "core.collapse": ("entropy",),
    "entropy.collapse_entropy_report": ("cli",),
    "mzi.run_mzi": ("cli", "mzi"),
    "mzi.choice_timing_invariance": ("cli",),
    "protocol.run_protocol": ("cli",),
    "protocol.encode": ("protocol",),
    "protocol.mutual_information": ("protocol",),
    "stats.permutation_null_mis": ("protocol",),
    "stats.plugin_mi_bits": ("protocol", "stats"),
    "stats.wilson_interval": ("cli",),
    "rng.stream_from_seed": ("cli", "optics", "entangle", "mzi", "protocol", "stats"),
}
MAP_PARTITIONS_CALLERS = ("optics", "entangle", "mzi", "protocol")


def _cascade_work(args, result):
    # one Born decision per photon entering each stage
    return int(args["n_photons"]) + sum(int(c) for c in result.per_stage_counts[:-1])


def _mzi_work(args, result):
    return int(args["n"]) if args.get("mode", "mc") == "mc" else 0


def _encode_work(args, result):
    return len(args["bits"]) * int(args.get("pairs_per_bit", 1))


# work units done by one call, from its bound arguments and result
WORK = {
    "optics.cascade_mc": _cascade_work,
    "entangle.correlation": lambda args, result: int(args["n"]),
    "mzi.run_mzi": _mzi_work,
    "protocol.encode": _encode_work,
}

NAME, START, END, PARENT, UNITS, CHUNK = range(6)


class Tracer:
    """Records spans [name, start, end, parent span, work units, is chunk]."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, chunk=False, work=None):
        stack = self._stack()
        rec = [name, 0.0, 0.0, parent if parent is not None else (stack[-1] if stack else None),
               0, chunk]
        self.spans.append(rec)
        stack.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
        if work is not None:
            rec[UNITS] = work(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        units = WORK.get(name)
        work = None
        if units is not None:
            signature = inspect.signature(fn)

            def work(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return units(bound.arguments, result)

        def shim(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work=work)

        shim.__wrapped__ = fn
        return shim

    def wrap_map_partitions(self, fn):
        """Span the pool call; each chunk gets a span named after the caller."""
        signature = inspect.signature(fn)

        def shim(*args, **kwargs):
            stack = self._stack()
            owner = stack[-1][NAME] if stack else "rng.map_partitions"
            bound = signature.bind(*args, **kwargs)
            worker_fn = bound.arguments["worker_fn"]

            def pool_call():
                pool_span = self._stack()[-1]

                def chunk(*chunk_args):
                    return self.call(owner, worker_fn, chunk_args, {}, parent=pool_span,
                                     chunk=True)

                bound.arguments["worker_fn"] = chunk
                return fn(*bound.args, **bound.kwargs)

            return self.call("rng.map_partitions", pool_call, (), {})

        shim.__wrapped__ = fn
        return shim


def install(tracer: Tracer) -> list:
    """Replace the shimmed attributes; returns (module, attr, original) to restore."""
    restore = []
    for name, callers in SHIMS.items():
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"photonlab.{module_name}"), attr, None)
        if original is None:
            print(f"traced: photonlab.{module_name}.{attr} not found, not traced",
                  file=sys.stderr)
            continue
        shim = tracer.wrap(name, original)
        for caller in callers:
            module = importlib.import_module(f"photonlab.{caller}")
            if getattr(module, attr, None) is original:
                restore.append((module, attr, original))
                setattr(module, attr, shim)
    for caller in MAP_PARTITIONS_CALLERS:
        module = importlib.import_module(f"photonlab.{caller}")
        original = getattr(module, "map_partitions", None)
        if original is not None:
            restore.append((module, "map_partitions", original))
            setattr(module, "map_partitions", tracer.wrap_map_partitions(original))
    return restore


def uninstall(restore: list) -> None:
    for module, attr, original in restore:
        setattr(module, attr, original)


def self_times(spans: list) -> dict:
    """Wall-clock self time per span name.

    Between consecutive span boundaries the elapsed time goes to the
    innermost open spans, those with no open child; where chunks run in
    parallel the interval is split evenly among them. Without parallel
    children this is a span's duration minus the time its children cover,
    and in every case the self times sum to the time covered by any span.
    """
    events = []
    for i, rec in enumerate(spans):
        events.append((rec[START], 1, i))
        events.append((rec[END], 0, i))
    events.sort()
    index = {id(rec): i for i, rec in enumerate(spans)}
    parent_of = [index.get(id(rec[PARENT])) if rec[PARENT] is not None else None
                 for rec in spans]
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    totals: dict = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, starting, i in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                totals[spans[leaf][NAME]] += share
        last = t
        p = parent_of[i]
        if starting:
            is_open[i] = True
            leaves.add(i)
            if p is not None and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return totals


def summarise(spans: list, wall_s: float, result_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    calls: Counter = Counter()
    inclusive: dict = defaultdict(float)
    units: Counter = Counter()
    longest_chunk: dict = defaultdict(float)
    for rec in spans:
        if rec[CHUNK]:
            key = id(rec[PARENT])
            longest_chunk[key] = max(longest_chunk[key], rec[END] - rec[START])
            continue
        calls[rec[NAME]] += 1
        inclusive[rec[NAME]] += rec[END] - rec[START]
        units[rec[NAME]] += rec[UNITS]
    wait = sum(rec[END] - rec[START] - longest_chunk[id(rec)]
               for rec in spans if rec[NAME] == "rng.map_partitions")
    own = self_times(spans)

    def rate(name):
        return units[name] / inclusive[name] if inclusive[name] > 0 else 0.0

    return {
        "rng.stream_from_seed.calls": calls["rng.stream_from_seed"],
        "rng.map_partitions.calls": calls["rng.map_partitions"],
        "rng.map_partitions.wait_s": wait,
        "optics.cascade_mc.self_s": own["optics.cascade_mc"],
        "optics.cascade_mc.photon_stages_per_s": rate("optics.cascade_mc"),
        "optics.cascade_analytic.calls": calls["optics.cascade_analytic"],
        "optics.cascade_analytic.self_s": own["optics.cascade_analytic"],
        "entangle.correlation.self_s": own["entangle.correlation"],
        "entangle.correlation.pairs_per_s": rate("entangle.correlation"),
        "entangle.bob_marginal_counts.self_s": own["entangle.bob_marginal_counts"],
        "entangle.no_signaling_check.self_s": own["entangle.no_signaling_check"],
        "mzi.run_mzi.self_s": own["mzi.run_mzi"],
        "mzi.run_mzi.photons_per_s": rate("mzi.run_mzi"),
        "core.trace_distance.calls": calls["core.trace_distance"],
        "core.collapse.calls": calls["core.collapse"],
        "core.collapse.self_s": own["core.collapse"],
        "entropy.collapse_entropy_report.self_s": own["entropy.collapse_entropy_report"],
        "protocol.encode.self_s": own["protocol.encode"],
        "protocol.encode.photons_per_s": rate("protocol.encode"),
        "protocol.run_protocol.self_s": own["protocol.run_protocol"],
        "protocol.mutual_information.self_s": own["protocol.mutual_information"],
        "stats.permutation_null_mis.self_s": own["stats.permutation_null_mis"],
        "stats.plugin_mi_bits.calls": calls["stats.plugin_mi_bits"],
        "stats.wilson_interval.calls": calls["stats.wilson_interval"],
        "cli.main.overhead_s": own["cli.main"],
        "cli.result_bytes": result_bytes,
        "trace.traced_wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(own.values()),
    }


def run_pass(steps: list, pass_dir: Path, tracer: Tracer | None) -> dict:
    """Call cli.main once per step; returns wall time, exit codes and output paths."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    restore = install(tracer) if tracer is not None else []
    try:
        started = time.perf_counter()
        for step in steps:
            out = pass_dir / step["out_name"]
            argv = step["argv"] + ["--out", str(out)]
            try:
                if tracer is None:
                    rc = photonlab.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", photonlab.cli.main, (argv,), {})
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            outcomes.append({"label": step["label"], "rc": rc, "out": str(out)})
        wall = time.perf_counter() - started
    finally:
        uninstall(restore)
    return {"traced": tracer is not None, "wall_s": wall, "steps": outcomes}


def _elapsed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def microbenchmarks(seed: int, sizes: dict) -> dict:
    from photonlab.optics import cascade_mc
    from photonlab.rng import stream_from_seed

    n_streams = sizes["streams"]
    setup = statistics.median(
        _elapsed(lambda: [stream_from_seed(seed, i) for i in range(n_streams)])
        for _ in range(5))
    n_draws = sizes["draws"]
    stream = stream_from_seed(seed, 0)
    draws = statistics.median(_elapsed(lambda: stream.random(n_draws)) for _ in range(3))
    axes = [math.pi / 2, math.pi / 4, 0.0]
    n_photons = sizes["cascade_photons"]
    w1, w2 = [], []
    for _ in range(3):
        w1.append(_elapsed(lambda: cascade_mc(n_photons, axes, seed=seed, workers=1)))
        w2.append(_elapsed(lambda: cascade_mc(n_photons, axes, seed=seed, workers=2)))
    return {
        "rng.stream_setup_us": setup / n_streams * 1e6,
        "rng.draws_per_s": n_draws / draws,
        "optics.cascade_mc.speedup_w2": statistics.median(w1) / statistics.median(w2),
    }


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    work = Path(spec["work_dir"])
    steps = spec["steps"]
    passes = []
    last_spans: list = []
    started = time.perf_counter()
    for pair in itertools.count():
        pair_started = time.perf_counter()
        # alternate which side runs first so warm-up does not favour one
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            k = len(passes)
            tracer = Tracer() if traced else None
            outcome = run_pass(steps, work / f"pass{k}", tracer)
            if traced:
                result_bytes = sum(Path(s["out"]).stat().st_size for s in outcome["steps"]
                                   if Path(s["out"]).exists())
                outcome["metrics"] = summarise(tracer.spans, outcome["wall_s"], result_bytes)
                last_spans = tracer.spans
            passes.append(outcome)
        elapsed = time.perf_counter() - started
        if elapsed + (time.perf_counter() - pair_started) > spec["seconds"]:
            break
    index = {id(rec): i for i, rec in enumerate(last_spans)}
    spans_out = [[rec[NAME], rec[START], rec[END],
                  index.get(id(rec[PARENT])) if rec[PARENT] is not None else None]
                 for rec in last_spans]
    Path(out_path).with_name("spans.json").write_text(json.dumps(spans_out), encoding="utf-8")
    result = {"passes": passes, "micro": microbenchmarks(spec["seed"], spec["micro"])}
    Path(out_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
