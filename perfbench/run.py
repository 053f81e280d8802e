"""photonlab benchmark: three CLI workloads, end-to-end metrics, one traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-bulk --seed 1 --seconds 30 --trace 0

Each workload is a short sequence of `python -m photonlab.cli <experiment>`
processes, started one after another from this process (closed loop, one
client). A round is one `--help` process (the set-up time) followed by the
workload's steps; rounds repeat until --seconds is spent, and every end-to-end
metric is the median over the rounds. Every result file is checked against a
physics reference (checks.py), and the result files of every round must hash
identically. With --trace 1 the script instead measures the import breakdown
in a separate `-X importtime` process and runs the steps in-process under
span-recording shims (traced.py) for the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one CLI process (or one
in-process CLI call when traced); it fails if it exits non-zero or a check of
its output fails. See README.md in this directory for the workloads, the
metrics and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("mc-bulk", "protocol-stats", "analytic-grid")
MIN_ROUNDS = 2  # the repeat-determinism check needs two rounds
# children still running this long after the start are killed, so a hung
# program fails its operations and the run still ends within 180 s
DEADLINE_S = 150.0

SIZES = {
    "full": {
        "malus_photons": 10_000_000, "bell_per_point": 2_000_000, "bell_per_setting": 4_000_000,
        "mzi_per_phase": 2_000_000, "mzi_timing": 10_000_000,
        "fixed_bits": 300_000, "repetition_bits": 30_000, "oracle_bits": 30_000,
        "sweep_step_deg": 0.01, "entropy_points": 10_000, "nosignal_bases": 300,
        "nosignal_per_basis": 2_000,
        "micro": {"streams": 2_000, "draws": 10_000_000, "cascade_photons": 2_000_000},
    },
    "tiny": {
        "malus_photons": 20_000, "bell_per_point": 2_000, "bell_per_setting": 4_000,
        "mzi_per_phase": 2_000, "mzi_timing": 10_000,
        "fixed_bits": 2_000, "repetition_bits": 200, "oracle_bits": 200,
        "sweep_step_deg": 1.0, "entropy_points": 50, "nosignal_bases": 5,
        "nosignal_per_basis": 200,
        "micro": {"streams": 20, "draws": 100_000, "cascade_photons": 20_000},
    },
}


@dataclass
class Step:
    """One CLI process of a workload; params go through a --config file."""

    label: str
    experiment: str
    workers: int
    params: dict
    check: object
    fmt: str = "json"

    @property
    def out_name(self) -> str:
        return f"{self.label}.{self.fmt}"

    def argv(self, config: Path, seed: int) -> list[str]:
        return [self.experiment, "--config", str(config), "--seed", str(seed),
                "--workers", str(self.workers), "--format", self.fmt]


def build_steps(workload: str, seed: int, size: str) -> list[Step]:
    """The workload's steps; analytic-grid's inputs are drawn from the seed."""
    s = SIZES[size]
    if workload == "mc-bulk":
        # bulk Born sampling, Philox draws and thread partitioning at 2 workers
        return [
            Step("malus-mc", "malus", 2, {"mode": "mc", "n_photons": s["malus_photons"],
                                          "axes_deg": [90.0, 45.0, 0.0], "source": "natural"},
                 checks.malus_mc),
            Step("bell", "bell", 2, {
                "sweep": {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
                "n_per_point": s["bell_per_point"],
                "chsh_angles_deg": [0.0, 45.0, 22.5, 67.5],
                "n_per_setting": s["bell_per_setting"]}, checks.bell),
            Step("mzi", "mzi", 2, {
                "phases_deg": [22.5 * k for k in range(16)], "mode": "mc",
                "n_per_phase": s["mzi_per_phase"],
                "timing": {"phase_deg": 60.0, "p_present": 0.5, "n": s["mzi_timing"]}},
                 checks.mzi),
        ]
    if workload == "protocol-stats":
        # per-photon protocol objects; only the oracle run reaches the shuffle null
        return [
            Step("protocol-fixed", "protocol", 1, {
                "n_bits": s["fixed_bits"], "strategy": "fixed-basis-ml:0"},
                 checks.protocol_standard),
            Step("protocol-repetition", "protocol", 1, {
                "n_bits": s["repetition_bits"],
                "strategy": "repetition:11:fixed-basis-ml:22.5"}, checks.protocol_standard),
            Step("protocol-oracle", "protocol", 2, {
                "n_bits": s["oracle_bits"], "strategy": "basis-oracle",
                "bit_source": "balanced"}, checks.protocol_oracle),
        ]
    if workload == "analytic-grid":
        # many tiny calls and many streams instead of a few huge arrays
        rng = random.Random(seed)
        step = s["sweep_step_deg"]
        # the start offset is a tenth of a step, so one seed in ten puts 45 on the grid
        start = rng.randrange(10) * step / 10.0
        return [
            Step("malus-sweep", "malus", 1, {
                "sweep": {"start_deg": start, "stop_deg": start + 88.0, "step_deg": step}},
                 checks.malus_sweep, fmt="csv"),
            Step("entropy", "entropy", 1, {
                "grid": [rng.random() for _ in range(s["entropy_points"])]}, checks.entropy),
            Step("nosignal", "nosignal", 1, {
                "bases_a_deg": [rng.uniform(0.0, 180.0) for _ in range(s["nosignal_bases"])],
                "probe_basis_deg": 0.0, "n_per_basis": s["nosignal_per_basis"]},
                 checks.nosignal),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int


def spawn(args: list[str], log: Path, deadline: float) -> Proc:
    """Run one child to completion; CPU and peak RSS come from its own wait4."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


def cli_args(argv: list[str]) -> list[str]:
    return ["-m", "photonlab.cli"] + argv


def file_hash(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.first_hash: dict[str, str | None] = {}

    def record(self, what: str, rc: int, problems: list[str]) -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}"] + problems
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems[:3]))

    def check_output(self, what: str, step: Step, out: Path, rc: int) -> None:
        problems = checks.run_check(step.check, out, step.params) if rc == 0 else []
        digest = file_hash(out)
        first = self.first_hash.setdefault(step.label, digest)
        if rc == 0 and digest != first:
            problems.append("result differs from the first repeat at this seed")
        self.record(what, rc, problems)


def write_configs(steps: list[Step], work: Path) -> list[Path]:
    paths = []
    for step in steps:
        path = work / f"{step.label}.config.json"
        path.write_text(json.dumps({"params": step.params}), encoding="utf-8")
        paths.append(path)
    return paths


def run_timed(steps: list[Step], seed: int, seconds: float, work: Path, tally: Tally,
              deadline: float) -> dict:
    """Rounds of one --help process plus the workload's processes."""
    configs = write_configs(steps, work)
    setup, wall, cpu, rss = [], [], [], []
    started = time.perf_counter()
    for k in itertools.count():
        round_started = time.perf_counter()
        experiment = steps[k % len(steps)].experiment
        helped = spawn(cli_args([experiment, "--help"]), work / f"help{k}.log", deadline)
        tally.record(f"round {k} {experiment} --help", helped.rc, [])
        setup.append(helped.wall_s)
        round_dir = work / f"round{k}"
        round_dir.mkdir()
        procs = []
        workload_started = time.perf_counter()
        for step, config in zip(steps, configs):
            out = round_dir / step.out_name
            procs.append(spawn(cli_args(step.argv(config, seed) + ["--out", str(out)]),
                               round_dir / f"{step.label}.log", deadline))
        wall.append(time.perf_counter() - workload_started)
        for step, proc in zip(steps, procs):
            tally.check_output(f"round {k} {step.label}", step, round_dir / step.out_name,
                               proc.rc)
        cpu.append(sum(p.cpu_s for p in procs))
        rss.append(max(p.rss_mb for p in procs))
        elapsed = time.perf_counter() - started
        if k + 1 >= MIN_ROUNDS and elapsed + (time.perf_counter() - round_started) > seconds:
            break
        if time.perf_counter() > deadline:
            break
    med = statistics.median
    return {
        "samples": len(wall),
        "metrics": {
            "wall_s": (med(wall), "s"),
            "cpu_s": (med(cpu), "s"),
            "setup_s": (med(setup), "s"),
            "peak_rss_mb": (med(rss), "MB"),
        },
    }


IMPORT_MODULES = {
    "photonlab.cli": "import.photonlab_cli_s",
    "scipy.stats": "import.scipy_stats_s",
    "numpy": "import.numpy_s",
    "jsonschema": "import.jsonschema_s",
}


def import_breakdown(work: Path, tally: Tally, deadline: float) -> dict:
    """Cumulative import times from a separate `-X importtime` process."""
    log = work / "importtime.log"
    proc = spawn(["-X", "importtime", "-c", "import photonlab.cli"], log, deadline)
    found = {}
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, module = line.split("|")
            if module.strip() in IMPORT_MODULES and cumulative.strip().isdigit():
                found[IMPORT_MODULES[module.strip()]] = int(cumulative) / 1e6
    # a module the package no longer imports costs nothing
    tally.record("import breakdown", proc.rc, [] if "import.photonlab_cli_s" in found
                 else ["photonlab.cli missing from -X importtime output"])
    return {name: (found.get(name, 0.0), "s") for name in IMPORT_MODULES.values()}


LAYER_UNITS = {
    "rng.stream_setup_us": "us", "rng.draws_per_s": "1/s",
    "optics.cascade_mc.speedup_w2": "ratio",
    "optics.cascade_mc.photon_stages_per_s": "1/s", "entangle.correlation.pairs_per_s": "1/s",
    "mzi.run_mzi.photons_per_s": "1/s", "protocol.encode.photons_per_s": "1/s",
    "cli.result_bytes": "bytes",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def run_traced(steps: list[Step], seed: int, seconds: float, size: str, work: Path,
               tally: Tally, deadline: float) -> dict:
    """Import breakdown, then traced and untraced in-process passes in a fresh process."""
    started = time.perf_counter()
    metrics = import_breakdown(work, tally, deadline)
    configs = write_configs(steps, work)
    spec = {
        "work_dir": str(work),
        "seed": seed,
        # leave room for the traced process's own start-up and microbenchmarks
        "seconds": max(0.0, seconds - (time.perf_counter() - started) - 3.0),
        "micro": SIZES[size]["micro"],
        "steps": [{"label": s.label, "out_name": s.out_name, "argv": s.argv(c, seed)}
                  for s, c in zip(steps, configs)],
    }
    spec_path = work / "traced_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path = work / "traced.json"
    proc = spawn([str(HERE / "traced.py"), str(spec_path), str(out_path)], work / "traced.log",
                 deadline)
    try:
        traced = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        tally.record("traced run", proc.rc or 1, [f"no traced output: {exc}"])
        return {"samples": 0, "metrics": metrics}
    by_label = {s.label: s for s in steps}
    for k, outcome in enumerate(traced["passes"]):
        kind = "traced" if outcome["traced"] else "untraced"
        for done in outcome["steps"]:
            step = by_label[done["label"]]
            tally.check_output(f"pass {k} ({kind}) {step.label}", step, Path(done["out"]),
                               done["rc"])
    med = statistics.median
    traced_passes = [p for p in traced["passes"] if p["traced"]]
    plain_wall = med(p["wall_s"] for p in traced["passes"] if not p["traced"])
    for name in traced_passes[0]["metrics"]:
        metrics[name] = (med(p["metrics"][name] for p in traced_passes), layer_unit(name))
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"][0] - plain_wall, "s")
    for name, value in traced["micro"].items():
        metrics[name] = (value, layer_unit(name))
    return {"samples": len(traced_passes), "metrics": metrics}


def environment(workload: str, seed: int, size: str) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "size": size,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny runs every step at toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "photonlab" / "cli.py").is_file():
        print(f"perfbench: no photonlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    seed = args.seed % 2**64
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.workload, seed, args.size)
    (work / "environment.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    print(json.dumps({"environment": env}))

    steps = build_steps(args.workload, seed, args.size)
    tally = Tally()
    if args.trace:
        result = run_traced(steps, seed, args.seconds, args.size, work, tally, deadline)
    else:
        result = run_timed(steps, seed, args.seconds, work, tally, deadline)
    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    fail_frac = len(tally.failures) / max(1, tally.attempted)
    print(f"perfbench: {args.workload} seed {seed}: {result['samples']} samples, "
          f"{tally.attempted} operations, fail_frac {fail_frac:.4g}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:42s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
