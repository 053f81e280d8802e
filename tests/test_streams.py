"""Every Monte Carlo point draws on the calling thread, and no two draws of a
run share a stream."""

import importlib
import math
import pkgutil
import threading
from collections import Counter

import pytest

import photonlab
from photonlab import rng
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


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_no_stream_is_created_twice_in_one_run(monkeypatch, tmp_path, experiment):
    created = []
    original = rng.stream_from_seed

    def recording(seed, index):
        created.append((seed, index))
        return original(seed, index)

    for info in pkgutil.iter_modules(photonlab.__path__):
        module = importlib.import_module(f"photonlab.{info.name}")
        if getattr(module, "stream_from_seed", None) is original:
            monkeypatch.setattr(module, "stream_from_seed", recording)
    argv = [experiment, "--seed", "5", "--out", str(tmp_path / "r.json")] + RUNS[experiment]
    assert cli_main(argv) == 0
    assert {seed for seed, _ in created} <= {5}
    assert [key for key, uses in Counter(created).items() if uses > 1] == []
    if experiment == "entropy":
        assert created == []
    else:
        assert created
