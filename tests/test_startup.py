"""Start-up and exit contracts of the CLI: what --help, --version, a usage
error and a run load and compile, the texts they print, and how a process
exits.

photonlab.cli is the front end: the subcommands, their arguments, main and
the process entry point. photonlab.runner holds the machinery a run needs once
its arguments are parsed, and main imports it only then; each experiment's
runner is in its own module, photonlab.runner_<experiment>, which only that
experiment's runs import. Each contract is checked on `python -m photonlab.cli`
in a fresh interpreter, the way a user starts it.
"""

import ast
import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from photonlab import cli, runner

SRC = str(Path(cli.__file__).parents[1])
PACKAGE = Path(cli.__file__).parent


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


def _benchmark_step(tmp_path, step) -> list:
    """The modules -X importtime lists for one benchmark step."""
    argv, params, _ = BENCHMARK_STEPS[step]
    (tmp_path / "config.json").write_text(json.dumps({"params": params}))
    proc = _cli(tmp_path, *argv, "--config", "config.json", "--out", "r.out",
                importtime=True)
    assert proc.returncode == 0, proc.stderr
    return _imported(proc.stderr)


# a run loads the run machinery, its own experiment's runner and no other's,
# the CSV writer only for CSV, and the library modules it loaded at 0.19.0;
# -X importtime lists each of them, since every one is imported through the
# import statement's own path (__import__), not importlib's
@pytest.mark.parametrize("step", list(BENCHMARK_STEPS))
def test_a_benchmark_step_loads_the_library_modules_it_loaded_at_0_19_0(tmp_path, step):
    argv, _, modules = BENCHMARK_STEPS[step]
    imported = _benchmark_step(tmp_path, step)
    listed = sorted(m for m in imported if m.startswith("photonlab."))
    writer = ["csvout"] if "csv" in argv else []
    assert listed == sorted(f"photonlab.{m}" for m in
                            ["runner", f"runner_{argv[0]}", *writer, *modules])
    assert "statistics" not in imported


def _code_lines(path: Path) -> int:
    """The lines of a Python source that hold code: no blanks, comments or
    docstrings."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


# the photonlab code lines each benchmark step compiles, where bytecode writing
# is off: at 0.19.1, which compiled all six runners and the CSV writer in every
# run, and the most it may compile now
CODE_LINES = {
    "mc-bulk malus": (1011, 839),
    "mc-bulk bell": (1106, 916),
    "mc-bulk mzi": (1072, 902),
    "protocol-stats fixed": (1331, 1147),
    "protocol-stats repetition": (1331, 1147),
    "protocol-stats oracle": (1168, 984),
    "analytic-grid malus": (848, 698),
    "analytic-grid entropy": (800, 607),
    "analytic-grid nosignal": (1332, 1117),
}


@pytest.mark.parametrize("step", list(BENCHMARK_STEPS))
def test_a_benchmark_step_compiles_fewer_code_lines_than_at_0_19_1(tmp_path, step):
    # the front end runs as __main__, so -X importtime does not list it
    modules = {"photonlab.cli", *(m for m in _benchmark_step(tmp_path, step)
                                  if m == "photonlab" or m.startswith("photonlab."))}
    compiled = sum(_code_lines(PACKAGE / f"{m.partition('.')[2] or '__init__'}.py")
                   for m in modules)
    at_0_19_1, pinned = CODE_LINES[step]
    assert compiled <= pinned < at_0_19_1


# The process entry point freezes the objects the process holds once main
# returns, so the collection at interpreter exit skips them. main freezes
# nothing: tests and tools call it in processes that go on collecting.
@pytest.mark.parametrize("argv", [["entropy"], ["protocol", "--set", "n_bits=0"], ["--help"]],
                         ids=" ".join)
def test_main_leaves_the_collector_as_it_found_it(tmp_path, argv):
    state = gc.get_freeze_count(), gc.isenabled()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main([*argv, "--out", str(tmp_path / "r.json")])
        except SystemExit:
            pass
    assert (gc.get_freeze_count(), gc.isenabled()) == state


def _main_block_calls() -> str:
    """The function that the `if __name__ == "__main__":` block of cli.py calls."""
    for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (statement,) = node.body
            return statement.value.func.id
    raise AssertionError("cli.py has no __main__ block")


def test_the_installed_script_and_python_m_call_the_same_entry_point():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.partition("[project.scripts]")[2].partition("\n[")[0]
    (script,) = re.findall(r'^photonlab = "(.*)"$', scripts, re.MULTILINE)
    entry = _main_block_calls()
    assert script == f"photonlab.cli:{entry}"
    assert entry != "main" and callable(getattr(cli, entry))


# the process as 0.19.1 ran it: main, and no freeze; its exit code is that of
# the process, also when argparse exits
_MAIN_WITHOUT_FREEZE = "import sys; from photonlab import cli; sys.exit(cli.main())"

# a run, help, the version, a usage error, a config error and a runtime error
# (the result's directory does not exist), with the files each leaves
_EXITS = [
    (["entropy", "--out", "r.json"], 0, ["r.json", "r.json.manifest.json"]),
    (["--help"], 0, []),
    (["--version"], 0, []),
    (["malus", "--bogus"], 2, []),
    (["protocol", "--set", "n_bits=0"], 2, []),
    (["entropy", "--out", "missing/r.json"], 1, []),
]


@pytest.mark.parametrize("argv, code, written", _EXITS,
                         ids=[" ".join(argv) for argv, _, _ in _EXITS])
def test_python_m_exits_as_main_returns(tmp_path, argv, code, written):
    outcomes = []
    for name, flags in (("entry", ["-m", "photonlab.cli"]),
                        ("main", ["-c", _MAIN_WITHOUT_FREEZE])):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True,
                              cwd=cwd, env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"})
        files = {}
        for path in sorted(cwd.iterdir()):
            files[path.name] = path.read_bytes()
            if path.name.endswith(".manifest.json"):  # it records the run's wall time
                files[path.name] = {**json.loads(files[path.name]), "wall_time_s": None}
        outcomes.append((proc.returncode, proc.stdout, proc.stderr, files))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code and list(outcomes[0][3]) == written


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
