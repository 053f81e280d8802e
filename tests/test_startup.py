"""Start-up contracts of the CLI: what --help, --version, a usage error and a
run load, and the texts they print.

photonlab.cli is the front end: the subcommands, their arguments and main.
photonlab.runner holds all that a run needs once its arguments are parsed,
and main imports it only then. Each contract is checked on
`python -m photonlab.cli` in a fresh interpreter, the way a user starts it.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from photonlab import cli, runner

SRC = str(Path(cli.__file__).parents[1])


def _cli(tmp_path, *argv, importtime=False) -> subprocess.CompletedProcess:
    """`python -m photonlab.cli *argv` in tmp_path, at argparse's default width."""
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable, *flags, "-m", "photonlab.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"})


def _imported(stderr: str) -> list:
    """The modules -X importtime listed: one line each, ending in "| <name>"."""
    return [line.rpartition("|")[2].strip() for line in stderr.splitlines()
            if line.startswith("import time:")]


def test_the_front_end_names_the_experiments_in_order():
    assert list(cli.COMMANDS) == list(runner.EXPERIMENTS)


# argparse alone answers these; a usage error names an unknown subcommand or
# option, or a value argparse itself refuses
_FRONT_END_ONLY = [
    (["--help"], 0),
    (["--version"], 0),
    *[([name, "--help"], 0) for name in cli.COMMANDS],
    ([], 2),
    (["bogus"], 2),
    (["malus", "--bogus"], 2),
    (["malus", "--seed", "x"], 2),
    (["protocol", "--format", "xml"], 2),
]


@pytest.mark.parametrize("argv, code", _FRONT_END_ONLY,
                         ids=[" ".join(argv) or "no arguments" for argv, _ in _FRONT_END_ONLY])
def test_help_version_and_a_usage_error_compile_only_the_front_end(tmp_path, argv, code):
    proc = _cli(tmp_path, *argv, importtime=True)
    assert proc.returncode == code, proc.stderr
    modules = _imported(proc.stderr)
    assert "argparse" in modules
    # under -m the front end is __main__, so photonlab.cli is never imported
    assert [m for m in modules if m.startswith("photonlab.")] == []
    assert {"json", "copy", "numpy", "statistics", "__future__"}.isdisjoint(modules)


_GRID = random.Random(4)
# each benchmark workload's three steps at full size, as perfbench/run.py
# builds them: (argv before --config, params, the library modules the step
# loaded at 0.19.0, read from sys.modules then)
BENCHMARK_STEPS = {
    "mc-bulk malus": (["malus", "--workers", "2"], {
        "mode": "mc", "n_photons": 10_000_000, "axes_deg": [90.0, 45.0, 0.0],
        "source": "natural"}, ["draw", "optics", "scalars"]),
    "mc-bulk bell": (["bell", "--workers", "2"], {
        "sweep": {"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0},
        "n_per_point": 2_000_000, "chsh_angles_deg": [0.0, 45.0, 22.5, 67.5],
        "n_per_setting": 4_000_000}, ["draw", "entangle", "scalars"]),
    "mc-bulk mzi": (["mzi", "--workers", "2"], {
        "phases_deg": [22.5 * k for k in range(16)], "mode": "mc", "n_per_phase": 2_000_000,
        "timing": {"phase_deg": 60.0, "p_present": 0.5, "n": 10_000_000}},
        ["draw", "mzi", "scalars"]),
    "protocol-stats fixed": (["protocol"], {
        "n_bits": 300_000, "strategy": "fixed-basis-ml:0"},
        ["draw", "protocol", "scalars", "stats"]),
    "protocol-stats repetition": (["protocol"], {
        "n_bits": 30_000, "strategy": "repetition:11:fixed-basis-ml:22.5"},
        ["draw", "protocol", "scalars", "stats"]),
    "protocol-stats oracle": (["protocol", "--workers", "2"], {
        "n_bits": 30_000, "strategy": "basis-oracle", "bit_source": "balanced"},
        ["protocol", "scalars", "stats"]),
    "analytic-grid malus": (["malus", "--format", "csv"], {
        "sweep": {"start_deg": 0.003, "stop_deg": 88.003, "step_deg": 0.01}},
        ["optics", "scalars"]),
    "analytic-grid entropy": (["entropy"], {
        "grid": [_GRID.random() for _ in range(10_000)]}, ["entropy", "scalars"]),
    "analytic-grid nosignal": (["nosignal"], {
        "bases_a_deg": [_GRID.uniform(0.0, 180.0) for _ in range(300)],
        "probe_basis_deg": 0.0, "n_per_basis": 2_000},
        ["draw", "entangle", "scalars", "stats"]),
}


# a run loads the run machinery besides the library modules it loaded at
# 0.19.0, and -X importtime lists each of them, since every one is imported
# through the import statement's own path (__import__), not importlib's
@pytest.mark.parametrize("step", list(BENCHMARK_STEPS))
def test_a_benchmark_step_loads_the_library_modules_it_loaded_at_0_19_0(tmp_path, step):
    argv, params, modules = BENCHMARK_STEPS[step]
    (tmp_path / "config.json").write_text(json.dumps({"params": params}))
    proc = _cli(tmp_path, *argv, "--config", "config.json", "--out", "r.out",
                importtime=True)
    assert proc.returncode == 0, proc.stderr
    imported = _imported(proc.stderr)
    listed = sorted(m for m in imported if m.startswith("photonlab."))
    assert listed == sorted(["photonlab.runner", *(f"photonlab.{m}" for m in modules)])
    assert "statistics" not in imported


def test_the_runner_never_imports_the_front_end():
    code = """
import sys
from photonlab import runner

payload, table, summary, streams = runner._run_entropy(
    runner.defaults(runner.EXPERIMENTS["entropy"].fields), 0)
assert summary == {"max_after_bits": 0.0}
sys.exit("photonlab.cli" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


def test_replacing_a_library_name_on_the_front_end_replaces_what_the_runner_calls(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "eigenbasis_entropy", lambda basis: 0.25)
    out = tmp_path / "e.json"
    assert cli.main(["entropy", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"][0]["after_bits"] == 0.25


# the texts of photonlab 0.19.0, whose parser gave every subcommand its
# arguments, at argparse's width of 80 columns
_USAGE = "usage: photonlab [-h] [--version]\n" \
         "                 {malus,entropy,bell,nosignal,protocol,mzi} ...\n"
_HELP = _USAGE + """
Seeded quantum-optics experiments with machine-readable reports.

positional arguments:
  {malus,entropy,bell,nosignal,protocol,mzi}
    malus               polarizer cascades, analytic or Monte Carlo, plus
                        angle sweeps
    entropy             superposition entropy before and after collapse over a
                        weight grid
    bell                singlet correlation sweep and the CHSH statistic
    nosignal            Bob-marginal trace distances and per-basis Bob
                        statistics
    protocol            the entanglement bit-transmission scheme under a
                        receiver model
    mzi                 Mach-Zehnder fringes and delayed-choice timing
                        invariance

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
_RUN_USAGE = {
    "malus": """\
usage: photonlab malus [-h] [--config CONFIG] [--seed SEED]
                       [--workers WORKERS] [--out OUT] [--format {json,csv}]
                       [--set KEY=VALUE]
""",
    "entropy": """\
usage: photonlab entropy [-h] [--config CONFIG] [--seed SEED]
                         [--workers WORKERS] [--out OUT] [--format {json,csv}]
                         [--set KEY=VALUE]
""",
    "bell": """\
usage: photonlab bell [-h] [--config CONFIG] [--seed SEED] [--workers WORKERS]
                      [--out OUT] [--format {json,csv}] [--set KEY=VALUE]
""",
    "nosignal": """\
usage: photonlab nosignal [-h] [--config CONFIG] [--seed SEED]
                          [--workers WORKERS] [--out OUT]
                          [--format {json,csv}] [--set KEY=VALUE]
""",
    "protocol": """\
usage: photonlab protocol [-h] [--config CONFIG] [--seed SEED]
                          [--workers WORKERS] [--out OUT]
                          [--format {json,csv}] [--set KEY=VALUE]
""",
    "mzi": """\
usage: photonlab mzi [-h] [--config CONFIG] [--seed SEED] [--workers WORKERS]
                     [--out OUT] [--format {json,csv}] [--set KEY=VALUE]
""",
}
_RUN_OPTIONS = """
options:
  -h, --help           show this help message and exit
  --config CONFIG      JSON config file; a run manifest also works
  --seed SEED          RNG seed (default 0)
  --workers WORKERS    recorded in the manifest; has no effect since 0.8.0
  --out OUT            result file path
  --format {json,csv}
  --set KEY=VALUE      override one parameter (dotted keys; value parsed as
                       JSON)
"""
_CHOICES = "(choose from 'malus', 'entropy', 'bell', 'nosignal', 'protocol', 'mzi')"

# argv, exit code, stdout, stderr
TEXTS_0_19_0 = [
    (["--help"], 0, _HELP, ""),
    (["-h"], 0, _HELP, ""),
    *[([name, "--help"], 0, _RUN_USAGE[name] + _RUN_OPTIONS, "") for name in _RUN_USAGE],
    (["mzi", "-h"], 0, _RUN_USAGE["mzi"] + _RUN_OPTIONS, ""),
    ([], 2, "", _USAGE + "photonlab: error: the following arguments are required: "
                         "experiment\n"),
    (["bogus"], 2, "", _USAGE + f"photonlab: error: argument experiment: invalid choice: "
                                f"'bogus' {_CHOICES}\n"),
    (["--seed", "3", "malus"], 2, "", _USAGE + f"photonlab: error: argument experiment: "
                                              f"invalid choice: '3' {_CHOICES}\n"),
    (["malus", "--bogus"], 2, "", _USAGE + "photonlab: error: unrecognized arguments: "
                                           "--bogus\n"),
    (["malus", "--seed", "x"], 2, "", _RUN_USAGE["malus"] + "photonlab malus: error: "
                                      "argument --seed: invalid int value: 'x'\n"),
    (["protocol", "--format", "xml"], 2, "", _RUN_USAGE["protocol"] + "photonlab protocol: "
     "error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
    (["mzi", "--set"], 2, "", _RUN_USAGE["mzi"] + "photonlab mzi: error: argument --set: "
                                                  "expected one argument\n"),
    (["protocol", "--set", "n_bits=0"], 2, "",
     "config error: n_bits: 0 is less than the minimum of 1\n"),
    (["nosignal", "--set", "bases_a_deg=[0, 1e400]"], 2, "",
     "config error: bases_a_deg[1]: must be finite, got inf\n"),
    (["malus", "--config", "no-such-config.json"], 2, "",
     "config error: cannot read config no-such-config.json: [Errno 2] No such file or "
     "directory: 'no-such-config.json'\n"),
    (["bell", "--set", 'sweep={"start_deg": 1, "stop_deg": 0, "step_deg": 1}'], 2, "",
     "config error: sweep stop_deg 0.0 must be >= start_deg 1.0\n"),
    (["protocol", "--set", "n_bits=3", "--set", "bit_source=balanced"], 2, "",
     "config error: n_bits: 3 is not a multiple of 2, as the balanced bit source needs\n"),
    (["protocol", "--set", "strategy=repetition:0:basis-oracle"], 2, "",
     "config error: repetition factor must be >= 1, got 0; valid strategies: "
     "'basis-oracle', 'fixed-basis-ml:<angle_deg>', 'repetition:<k>:<inner strategy>'\n"),
    (["protocol", "--format", "csv"], 2, "",
     "config error: the protocol report is not tabular; use --format json\n"),
    (["malus", "--set", "foo"], 2, "", "config error: --set expects KEY=VALUE, got 'foo'\n"),
    (["entropy", "--set", "bogus=1"], 2, "",
     "config error: bogus: unknown parameter; expected one of grid\n"),
    (["mzi", "--seed", "-1"], 2, "", "config error: seed: -1 is less than the minimum of 0\n"),
    (["entropy", "--set", "grid=[2]"], 2, "",
     "config error: grid[0]: 2 is greater than the maximum of 1\n"),
]


# argparse words its errors differently from Python 3.12 on
@pytest.mark.skipif(sys.version_info >= (3, 12), reason="texts pinned from Python 3.10-3.11")
@pytest.mark.parametrize("argv, code, stdout, stderr", TEXTS_0_19_0,
                         ids=[" ".join(t[0]) or "no arguments" for t in TEXTS_0_19_0])
def test_help_usage_and_config_error_texts_are_0_19_0s(tmp_path, argv, code, stdout, stderr):
    proc = _cli(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    assert list(tmp_path.iterdir()) == []


def _parse(parser, argv):
    """What parsing argv gives: the namespace, or the exit code and the text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_TOKENS = [*cli.COMMANDS, "bogus", "--config", "c.json", "--seed", "--seed=4", "3", "-1",
           "x", "--workers", "--out", "--format", "csv", "xml", "--set", "a=1", "--help", "-h",
           "--version", "--vers", "--se", "--", "-", "--bogus", "-x y"]


# main gives arguments only to the subcommand the first argument not starting
# with "-" names; any command line parses as with every subcommand's arguments
@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=6))
def test_the_parser_main_builds_parses_as_the_full_parser(argv):
    assert _parse(cli._build_parser(argv), argv) == _parse(cli._build_parser(), argv)
