"""Tests of the benchmark itself.

Run from the repository root: python -m pytest perfbench -q

Tiny-size runs must emit every metric BENCHMARK.json declares, with its unit,
and every output check must fire on a tampered result file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from photonlab import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_mode_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mc-bulk", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def produce(tmp_path: Path, step: run.Step) -> Path:
    """Run one step in-process at tiny size; the untampered output must pass."""
    config = tmp_path / f"{step.label}.config.json"
    config.write_text(json.dumps({"params": step.params}), encoding="utf-8")
    out = tmp_path / step.out_name
    assert cli.main(step.argv(config, SEED) + ["--out", str(out)]) == 0
    assert checks.run_check(step.check, out, step.params) == []
    return out


def tiny_step(workload: str, label: str) -> run.Step:
    return {s.label: s for s in run.build_steps(workload, SEED, "tiny")}[label]


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    change(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _set(keys, value):
    def change(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value(obj[keys[-1]]) if callable(value) else value
    return change


TAMPERS = {
    "malus final fraction": ("mc-bulk", "malus-mc", ["stages", -1, "count"], lambda c: 2 * c),
    "flipped CHSH value": ("mc-bulk", "bell", ["chsh", "s_value"], lambda s: -s),
    "flipped correlation": ("mc-bulk", "bell", ["sweep_rows", 3, "e_value"], lambda e: -e),
    "mzi closed fraction": ("mc-bulk", "mzi", ["fringe_rows", 2, "closed_fraction_d0"],
                            lambda f: 1.0 - f),
    "mzi open fraction": ("mc-bulk", "mzi", ["fringe_rows", 0, "open_fraction_d0"], 0.8),
    "mzi timing": ("mc-bulk", "mzi", ["timing", "within_4_sigma"], False),
    "entropy after collapse": ("analytic-grid", "entropy", ["rows", 0, "after_bits"], 1e-3),
    "trace distance": ("analytic-grid", "nosignal", ["max_trace_distance"], 1e-6),
    "fixed-basis MI": ("protocol-stats", "protocol-fixed", ["mutual_info_bits"], 0.3),
    "fixed-basis interval": ("protocol-stats", "protocol-fixed",
                             ["mi_confidence_interval", 0], 0.01),
    "fixed-basis ties": ("protocol-stats", "protocol-fixed", ["decode_ties"], lambda t: t - 1),
    "repetition ties": ("protocol-stats", "protocol-repetition", ["decode_ties"],
                        lambda t: t // 11),
    "repetition MI": ("protocol-stats", "protocol-repetition", ["mutual_info_bits"], 0.3),
    "oracle MI": ("protocol-stats", "protocol-oracle", ["mutual_info_bits"], 0.9),
    "oracle BER": ("protocol-stats", "protocol-oracle", ["ber"], 0.1),
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_check_fires_on_tampered_result(tmp_path, case):
    workload, label, keys, value = TAMPERS[case]
    step = tiny_step(workload, label)
    out = produce(tmp_path, step)
    edit_json(out, _set(keys, value))
    assert checks.run_check(step.check, out, step.params)


def sweep_step(start_deg: float) -> run.Step:
    step = tiny_step("analytic-grid", "malus-sweep")
    step.params = {"sweep": {"start_deg": start_deg, "stop_deg": start_deg + 88.0,
                             "step_deg": 1.0}}
    return step


def test_sweep_check_fires_on_a_tampered_csv_value(tmp_path):
    step = sweep_step(0.3)
    out = produce(tmp_path, step)
    lines = out.read_text(encoding="utf-8").splitlines()
    theta, value = lines[10].split(",")
    lines[10] = f"{theta},{float(value) * (1 + 1e-6):.10g}"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.run_check(step.check, out, step.params)


def test_sweep_check_fires_when_the_argmax_misses_45(tmp_path):
    step = sweep_step(0.0)
    out = produce(tmp_path, step)
    edit_json(Path(f"{out}.manifest.json"), _set(["summary", "argmax_deg"], 44.0))
    assert checks.run_check(step.check, out, step.params)


def test_missing_result_is_a_failure_not_a_crash(tmp_path):
    step = tiny_step("analytic-grid", "nosignal")
    assert checks.run_check(step.check, tmp_path / "absent.json", step.params)


def test_repeat_with_different_bytes_fails(tmp_path):
    step = tiny_step("analytic-grid", "nosignal")
    out = produce(tmp_path, step)
    tally = run.Tally()
    tally.check_output("first", step, out, 0)
    edit_json(out, _set(["rows", 0, "n"], lambda n: n))  # same values, new bytes
    tally.check_output("second", step, out, 0)
    assert tally.attempted == 2
    assert len(tally.failures) == 1 and "differs" in tally.failures[0]


def test_non_zero_exit_is_a_failure(tmp_path):
    step = tiny_step("analytic-grid", "nosignal")
    tally = run.Tally()
    tally.check_output("crashed", step, tmp_path / "absent.json", 1)
    assert tally.failures == ["crashed: exit code 1"]


def test_a_child_still_running_at_the_deadline_is_killed(tmp_path):
    proc = run.spawn(["-c", "import time; time.sleep(60)"], tmp_path / "sleep.log",
                     time.perf_counter() + 1.0)
    assert proc.rc != 0
    assert proc.wall_s < 30
