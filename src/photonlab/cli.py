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

# no `from __future__ import annotations` here: under -m that statement
# imports the __future__ module, on the --help path too
import argparse
import gc
import os
import sys

from . import _HOME, __version__

# numpy loads only once a run starts, with the first library module that
# needs it, so --help, --version and a configuration error exit without it.
# Most runs never load it: malus, entropy and nosignal compute their closed
# forms in Python floats (0.18.0), as the protocol and the Monte Carlo runs of
# at most SCALAR_ROWS points do; only a longer bell or mzi sweep works on
# arrays. photonlab's linear algebra is all 2x2, so a BLAS worker thread would
# only spin; OpenBLAS reads this variable once, when numpy loads, and takes an
# empty value as unset. Any other value the user set stays as it is.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# This module is the front end: the subcommands and their arguments, main and
# the process entry point. All a run needs once its arguments are parsed (the
# parameters and their checks, the runners and the writers) is in
# photonlab.runner and the modules it imports for the one runner a run calls,
# which main loads only then, so --help, --version and a usage error never
# compile them.
#
# Every public library name resolves as an attribute of this module on first
# use (PEP 562), from the module that photonlab._HOME names for it (imported
# through __import__, as photonlab.__getattr__ imports it), and so
# does every name of photonlab.runner, such as EXPERIMENTS, Table and
# MAX_TRIALS. A runner looks its library names up in this module's namespace
# when it runs (runner._library), so a process imports only the modules of
# the experiment it runs, and whoever replaces cli.<name> (a test's mock, a
# tracer's shim) replaces what the runner calls.
def __getattr__(name):
    if name in _HOME:
        return getattr(__import__(f"{__package__}.{_HOME[name]}", fromlist=[name]), name)
    if name.startswith("__") or not hasattr(runner := _runner(), name):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(runner, name)


def _runner():
    """photonlab.runner, bound to this module's namespace. That is the
    module's own globals, not sys.modules[__name__], which is another module
    when a tool such as cProfile runs this file as __main__; and the runner
    never imports photonlab.cli, which under -m would compile it again."""
    from . import runner

    runner.front = globals()
    return runner


# each subcommand's --help line; photonlab.runner.EXPERIMENTS holds their
# parameters and runners, in the same order
COMMANDS = {
    "malus": "polarizer cascades, analytic or Monte Carlo, plus angle sweeps",
    "entropy": "superposition entropy before and after collapse over a weight grid",
    "bell": "singlet correlation sweep and the CHSH statistic",
    "nosignal": "Bob-marginal trace distances and per-basis Bob statistics",
    "protocol": "the entanglement bit-transmission scheme under a receiver model",
    "mzi": "Mach-Zehnder fringes and delayed-choice timing invariance",
}


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser, for argv if given: then only the subcommands that argv
    names get their arguments, as argparse hands the rest of a command line
    to a subcommand that one of its arguments names, and no other parses
    any."""
    parser = argparse.ArgumentParser(
        prog="photonlab",
        description="Seeded quantum-optics experiments with machine-readable reports.",
    )
    parser.add_argument("--version", action="version", version=f"photonlab {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, help_line in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if argv is None or name in argv:
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    runner = _runner()
    try:
        return runner._run(args)
    except runner.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # some exceptions, MemoryError() for one, carry no text
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry():
    """The process entry point, of `python -m photonlab.cli` and of the
    installed `photonlab` script: main, then gc.freeze() however main ends,
    argparse's exit for --help or a usage error included.

    Frozen objects sit in gc's permanent generation, which the full
    collection at interpreter exit skips (gc.disable() does not stop that
    collection). It would only free memory the OS takes back anyway: files
    close in `with` blocks, stdio flushes outside the collector, and no
    photonlab object needs a finalizer at exit. main freezes nothing, since
    tests and tools call it in processes that go on."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
