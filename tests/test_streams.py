"""Every Monte Carlo point draws on the calling thread, a CLI process runs on
one OS thread, and no two draws of a run share a stream."""

import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from photonlab import cli, draw, rng
from photonlab.cli import main as cli_main
from photonlab.entangle import correlation
from photonlab.mzi import MziConfig, run_mzi
from photonlab.optics import cascade_mc


def test_no_thread_is_started(monkeypatch):
    def no_thread(self):
        raise AssertionError("a Monte Carlo run must not start a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    # more trials than the three 2^18-trial blocks of 0.7.1
    n = 3 * 2**18 + 5
    assert correlation(0.3, 0.1, n, seed=1).n == n
    assert cascade_mc(n, [0.0, math.pi / 4], seed=1, workers=4).n_source == n
    delayed = MziConfig(phase=0.7, choice_policy="delayed-random")
    assert run_mzi(delayed, n, seed=1).n == n


# small runs of every experiment; mzi runs its timing comparison, and the
# protocol draws its iid bits
RUNS = {
    "malus": ["--set", "mode=mc", "--set", "n_photons=1000"],
    "entropy": [],
    "bell": ["--set", 'sweep={"start_deg": 0, "stop_deg": 90, "step_deg": 45}',
             "--set", "n_per_point=1000", "--set", "n_per_setting=1000"],
    "nosignal": ["--set", "n_per_basis=1000"],
    "protocol": ["--set", f"n_bits={2**18 + 10}"],
    "mzi": ["--set", "phases_deg=[0, 60, 90]", "--set", "n_per_phase=1000",
            "--set", 'timing={"phase_deg": 60, "p_present": 0.5, "n": 1000}'],
}


# the stream indices each run above keyed in photonlab 0.9.0, which built one
# generator per stream: bell points 0-2 and CHSH settings 3-6; nosignal bases
# 0-1; mzi phases 4i (closed) and 4i + 2 (open), then the timing comparison's
# detection, choice and fixed streams 12-14; the iid protocol bits 0
INDICES_0_9_0 = {
    "malus": {0},
    "entropy": set(),
    "bell": set(range(7)),
    "nosignal": {0, 1},
    "protocol": {0},
    "mzi": {0, 2, 4, 6, 8, 10, 12, 13, 14},
}


def _keyed_streams(monkeypatch, tmp_path, experiment) -> list:
    """The (seed, index) of every stream a run keys, in order: rng.stream_keys
    makes the keys of each slice of a sweep's points, and draw.stream_key
    the key of each stream drawn one count at a time (the protocol's bits, a
    Monte Carlo cascade, mzi's delayed-random run and each point of a sweep
    of at most SCALAR_ROWS points)."""
    keyed = []
    make_keys, make_key = rng.stream_keys, draw.stream_key

    def recording_stream_keys(seed, indices):
        key = make_keys(seed, indices)
        keyed.extend(zip(key[0].tolist(), key[1].tolist()))
        return key

    def recording_stream_key(seed, index):
        key = make_key(seed, index)
        keyed.append(key)
        return key

    # the draws look both up in their modules when they run
    monkeypatch.setattr(rng, "stream_keys", recording_stream_keys)
    monkeypatch.setattr(draw, "stream_key", recording_stream_key)
    argv = [experiment, "--seed", "5", "--out", str(tmp_path / "r.json")] + RUNS[experiment]
    assert cli_main(argv) == 0
    return keyed


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_no_stream_is_created_twice_in_one_run(monkeypatch, tmp_path, experiment):
    keyed = _keyed_streams(monkeypatch, tmp_path, experiment)
    assert {seed for seed, _ in keyed} <= {5}
    assert [key for key, uses in Counter(keyed).items() if uses > 1] == []
    if experiment == "entropy":
        assert keyed == []
    else:
        assert keyed


# every run above, and the runs that draw no count besides entropy: analytic
# malus, analytic mzi without the timing comparison, and balanced protocol bits
NAMING_RUNS = sorted(RUNS.items()) + [
    ("malus", []),
    ("mzi", ["--set", "mode=analytic", "--set", "timing=null"]),
    ("protocol", ["--set", "bit_source=balanced"]),
]


@pytest.mark.parametrize("experiment, args", NAMING_RUNS)
def test_a_result_names_the_sampler_exactly_when_its_run_draws(monkeypatch, tmp_path,
                                                              experiment, args):
    monkeypatch.setitem(RUNS, experiment, args)
    keyed = _keyed_streams(monkeypatch, tmp_path, experiment)
    result = json.loads((tmp_path / "r.json").read_text())
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    want = rng.ALGORITHM_ID if keyed else rng.WORDS_ID
    assert result["rng_algorithm"] == manifest["rng_algorithm"] == want


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_a_run_keys_the_streams_of_0_9_0(monkeypatch, tmp_path, experiment):
    keyed = _keyed_streams(monkeypatch, tmp_path, experiment)
    assert sorted(keyed) == sorted((5, i) for i in INDICES_0_9_0[experiment])


def _philox_calls(monkeypatch, tmp_path, step_deg) -> int:
    calls = []
    kernel = rng.philox

    def counting_philox(key, counter):
        calls.append(np.shape(counter)[1])
        return kernel(key, counter)

    monkeypatch.setattr(rng, "philox", counting_philox)
    argv = ["bell", "--out", str(tmp_path / "r.json"), "--set", "n_per_point=1000",
            "--set", f'sweep={{"start_deg": 0, "stop_deg": 90, "step_deg": {step_deg}}}']
    assert cli_main(argv) == 0
    return len(calls)


def test_a_sweeps_philox_calls_do_not_grow_with_its_point_count(monkeypatch, tmp_path):
    # 181 and 9,001 sweep points plus four CHSH settings; each of the three
    # binomial layers of a sweep reads every point's words in one call per
    # rejection round, and a round is left to ever fewer points
    few = _philox_calls(monkeypatch, tmp_path, 0.5)
    many = _philox_calls(monkeypatch, tmp_path, 0.01)
    assert few <= many <= few + 6
    assert many <= 30


# a CLI run in a fresh interpreter; prints its OS thread count and the BLAS
# thread setting it saw, after the run
_THREADS = """
import json, os, sys
from photonlab.cli import main
assert main(sys.argv[1:]) == 0
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _cli_threads(tmp_path, env_value):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if env_value is not None:
        env["OPENBLAS_NUM_THREADS"] = env_value
    argv = ["bell", "--out", str(tmp_path / "r.json"), "--set", "n_per_point=1000"]
    proc = subprocess.run([sys.executable, "-c", _THREADS, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_cli_process_runs_on_one_os_thread(tmp_path):
    assert _cli_threads(tmp_path, None) == [1, "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_an_empty_blas_thread_setting_is_set_to_one(tmp_path):
    # OpenBLAS reads an empty value as unset and would start its worker
    assert _cli_threads(tmp_path, "") == [1, "1"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_user_set_blas_thread_count_is_left_as_it_is(tmp_path):
    assert _cli_threads(tmp_path, "2")[1] == "2"
