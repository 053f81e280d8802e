import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import photonlab
from photonlab import cli
from photonlab.cli import main
from photonlab.rng import ALGORITHM_ID


def run_cli(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_malus_analytic_defaults(tmp_path, capsys):
    out = tmp_path / "malus.json"
    assert run_cli(["malus", "--out", str(out)]) == 0
    result = read_json(out)
    assert result["experiment"] == "malus"
    assert result["seed"] == 0
    fractions = [s["fraction"] for s in result["stages"]]
    assert fractions == pytest.approx([0.5, 0.25, 0.125], abs=1e-12)
    assert result["final_intensity"] == pytest.approx(0.125, abs=1e-12)
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    manifest = read_json(tmp_path / "malus.json.manifest.json")
    assert manifest["experiment"] == "malus"
    assert manifest["format"] == "json"
    assert isinstance(manifest["wall_time_s"], float)
    assert manifest["summary"] == {"final_intensity": result["final_intensity"]}


def test_malus_mc_counts(tmp_path):
    out = tmp_path / "mc.json"
    rc = run_cli(
        ["malus", "--out", str(out), "--set", "mode=mc", "--set", "n_photons=20000"]
    )
    assert rc == 0
    result = read_json(out)
    assert result["n_photons"] == 20000
    counts = [s["count"] for s in result["stages"]]
    assert counts[0] > counts[1] > counts[2] > 0
    assert abs(result["final_intensity"] - 0.125) < 0.02


def test_malus_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        [
            "malus",
            "--out",
            str(out),
            "--format",
            "csv",
            "--set",
            'sweep={"start_deg": 1, "stop_deg": 89, "step_deg": 1}',
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta_deg,final_intensity"
    assert len(lines) == 90
    rows = [line.split(",") for line in lines[1:]]
    best = max(rows, key=lambda r: float(r[1]))
    assert float(best[0]) == 45.0
    assert float(best[1]) == pytest.approx(0.125, abs=1e-12)
    manifest = read_json(tmp_path / "sweep.csv.manifest.json")
    assert manifest["summary"]["argmax_deg"] == 45.0


def test_degree_conversion_is_exact_at_the_boundary(tmp_path):
    out = tmp_path / "aligned.json"
    rc = run_cli(
        [
            "malus",
            "--out",
            str(out),
            "--set",
            "mode=mc",
            "--set",
            "n_photons=5000",
            "--set",
            "source=linear",
            "--set",
            "source_angle_deg=45",
            "--set",
            "axes_deg=[45]",
        ]
    )
    assert rc == 0
    result = read_json(out)
    assert result["stages"][0]["count"] == 5000
    assert result["final_intensity"] == 1.0


def test_entropy_report(tmp_path):
    out = tmp_path / "entropy.json"
    assert run_cli(["entropy", "--out", str(out)]) == 0
    result = read_json(out)
    before = [r["before_bits"] for r in result["rows"]]
    assert before == pytest.approx(
        [0.0, 0.8112781244591328, 1.0, 0.8112781244591328, 0.0], abs=1e-12
    )
    assert all(r["after_bits"] == 0.0 for r in result["rows"])
    assert all(r["delta_bits"] == -r["before_bits"] for r in result["rows"])


def test_entropy_rows_do_not_depend_on_the_seed(tmp_path):
    rows = []
    for seed in ("7", "8"):
        out = tmp_path / f"entropy_{seed}.json"
        assert run_cli(["entropy", "--out", str(out), "--seed", seed]) == 0
        rows.append(read_json(out)["rows"])
    assert rows[0] == rows[1]


def test_entropy_csv_has_ten_significant_digits(tmp_path):
    out = tmp_path / "entropy.csv"
    assert run_cli(["entropy", "--out", str(out), "--format", "csv"]) == 0
    text = out.read_text()
    assert text.startswith("p0,before_bits,after_bits,delta_bits\n")
    assert "0.8112781245" in text


def test_bell_sweep_and_chsh(tmp_path):
    out = tmp_path / "bell.json"
    rc = run_cli(
        [
            "bell",
            "--out",
            str(out),
            "--set",
            'sweep={"start_deg": 0, "stop_deg": 90, "step_deg": 45}',
            "--set",
            "n_per_point=2000",
            "--set",
            "n_per_setting=2000",
        ]
    )
    assert rc == 0
    result = read_json(out)
    rows = result["sweep_rows"]
    assert [r["delta_deg"] for r in rows] == [0.0, 45.0, 90.0]
    assert rows[0]["e_value"] == -1.0
    assert rows[2]["e_value"] == 1.0
    assert abs(rows[1]["e_value"]) < 0.1
    assert 2.0 < result["chsh"]["s_value"] < 3.0


def test_nosignal_report(tmp_path):
    out = tmp_path / "nosignal.json"
    assert run_cli(["nosignal", "--out", str(out), "--set", "n_per_basis=5000"]) == 0
    result = read_json(out)
    assert result["max_trace_distance"] < 1e-12
    assert result["within_atol"] is True
    for row in result["rows"]:
        assert row["n"] == 5000
        assert row["ci_lo"] < 0.5 < row["ci_hi"]
        assert row["ci_lo"] <= row["bob_fraction_d0"] <= row["ci_hi"]


def test_protocol_report(tmp_path):
    out = tmp_path / "protocol.json"
    assert run_cli(["protocol", "--out", str(out), "--set", "n_bits=2000"]) == 0
    result = read_json(out)
    assert result["strategy"] == "fixed-basis-ml:0"
    assert result["n_bits"] == 2000
    assert result["decode_ties"] == 2000
    assert result["mutual_info_bits"] == 0.0
    assert result["rule"] == {"one_deg": 0.0, "zero_deg": 45.0}
    assert result["bit_source"] == "iid"
    assert "n_shuffles" not in result["params"]


def test_protocol_manifest_from_0_1_0_is_refused_naming_n_shuffles(tmp_path, capsys):
    old = tmp_path / "old.manifest.json"
    old.write_text(json.dumps({
        "tool_version": "0.1.0",
        "experiment": "protocol",
        "params": {"n_bits": 2000, "strategy": "fixed-basis-ml:0",
                   "rule": {"one_deg": 0.0, "zero_deg": 45.0},
                   "bit_source": "iid", "n_shuffles": 1000},
        "seed": 0,
        "workers": 1,
        "format": "json",
        "out": "protocol.json",
        "rng_algorithm": "numpy-philox-4x64/block-2^18",
        "wall_time_s": 0.1,
        "summary": {"ber": 0.5, "mutual_info_bits": 0.0},
    }))
    # 0.3.0 removed n_shuffles, which 0.2.0 still accepted and ignored
    check_failure(tmp_path, capsys, ["protocol", "--config", str(old)], "n_shuffles")


def test_protocol_with_more_workers_than_bits(tmp_path):
    out = tmp_path / "protocol.json"
    rc = run_cli(["protocol", "--out", str(out), "--workers", "3", "--set", "n_bits=2"])
    assert rc == 0
    result = read_json(out)
    assert result["n_bits"] == 2
    assert "workers" not in result
    assert read_json(tmp_path / "protocol.json.manifest.json")["workers"] == 3
    assert result["decode_ties"] == 2
    assert result["ber"] in (0.0, 0.5, 1.0)
    lo, hi = result["mi_confidence_interval"]
    assert 0.0 <= lo <= result["mutual_info_bits"] <= hi <= 1.0


def test_balanced_protocol_result_does_not_depend_on_workers(tmp_path):
    outputs = []
    for workers in ("1", "3"):
        out = tmp_path / f"balanced_w{workers}.json"
        args = ["protocol", "--out", str(out), "--workers", workers,
                "--set", "n_bits=2", "--set", "bit_source=balanced"]
        assert run_cli(args) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_balanced_protocol_rejects_odd_bit_counts(tmp_path, capsys):
    check_failure(
        tmp_path, capsys,
        ["protocol", "--set", "n_bits=5", "--set", "bit_source=balanced"],
        "multiple of 2",
    )


@pytest.mark.parametrize("experiment, key", [
    ("malus", "n_photons"),
    ("bell", "n_per_point"),
    ("bell", "n_per_setting"),
    ("nosignal", "n_per_basis"),
    ("protocol", "n_bits"),
    ("mzi", "n_per_phase"),
    ("mzi", "timing.n"),
])
def test_counts_above_max_trials_are_refused(tmp_path, capsys, experiment, key):
    n = cli.MAX_TRIALS + 1
    check_failure(tmp_path, capsys, [experiment, "--set", f"{key}={n}"],
                  f"{key}: {n} is greater than the maximum of {cli.MAX_TRIALS}")


def test_a_quadrillion_photons_are_refused_before_any_work(tmp_path, capsys):
    check_failure(tmp_path, capsys,
                  ["malus", "--set", "mode=mc", "--set", "n_photons=1000000000000000"],
                  "n_photons")


@pytest.mark.parametrize("experiment, key, maximum", [
    ("malus", "axes_deg", cli.MAX_SWEEP_POINTS),
    ("entropy", "grid", cli.MAX_SWEEP_POINTS),
    ("nosignal", "bases_a_deg", cli.MAX_BASES),
    ("mzi", "phases_deg", cli.MAX_SWEEP_POINTS),
])
def test_lists_longer_than_their_maximum_are_refused(tmp_path, capsys, experiment, key,
                                                     maximum):
    check_failure(tmp_path, capsys, [experiment, "--set", f"{key}={[0] * (maximum + 1)}"],
                  f"{key}: length {maximum + 1} is greater than the maximum of {maximum}")


def test_counts_and_lists_at_their_maximum_pass_the_check():
    params = cli.defaults(cli.EXPERIMENTS["nosignal"].fields)
    params["bases_a_deg"] = [0.0] * cli.MAX_BASES
    params["n_per_basis"] = cli.MAX_TRIALS
    cli.check_params(cli.EXPERIMENTS["nosignal"].fields, params)
    # the balanced bit source no longer has a cap of its own
    params = cli.defaults(cli.EXPERIMENTS["protocol"].fields)
    params.update(n_bits=cli.MAX_TRIALS, bit_source="balanced")
    cli.check_params(cli.EXPERIMENTS["protocol"].fields, params)


def test_huge_worker_count_runs_small_jobs(tmp_path):
    out = tmp_path / "malus.json"
    args = ["malus", "--out", str(out), "--workers", "100000",
            "--set", "mode=mc", "--set", "n_photons=1000"]
    assert run_cli(args) == 0
    assert read_json(out)["n_photons"] == 1000


def test_mzi_analytic_fringe(tmp_path):
    out = tmp_path / "mzi.json"
    rc = run_cli(
        [
            "mzi",
            "--out",
            str(out),
            "--set",
            "mode=analytic",
            "--set",
            "phases_deg=[0, 60, 90, 180]",
            "--set",
            "n_per_phase=10000",
            "--set",
            "timing=null",
        ]
    )
    assert rc == 0
    result = read_json(out)
    closed = [r["closed_fraction_d0"] for r in result["fringe_rows"]]
    assert closed == [1.0, 0.75, 0.5, 0.0]
    assert all(r["open_fraction_d0"] == 0.5 for r in result["fringe_rows"])
    assert result["timing"] is None


def test_mzi_timing_payload(tmp_path):
    out = tmp_path / "mzi_timing.json"
    rc = run_cli(
        [
            "mzi",
            "--out",
            str(out),
            "--set",
            "phases_deg=[60]",
            "--set",
            "n_per_phase=2000",
            "--set",
            'timing={"phase_deg": 60, "p_present": 0.5, "n": 20000}',
        ]
    )
    assert rc == 0
    timing = read_json(out)["timing"]
    assert timing["within_4_sigma"] is True
    assert timing["choice"] == "present"
    assert abs(timing["conditional_fraction_d0"] - 0.75) < 0.05


# sha256 of the 0.14.0 result of a one-photon timing comparison at the seeds
# whose delayed photon found the second beamsplitter present
_ONE_PHOTON_TIMING_0_14_0 = {
    0: "9f05b2a37c5a0d1c0d08627504a7bba9fa11b67d36164fa9f305f6746a44a7ea",
    3: "2d287b73113fb069093a6a057745d5b9b94ab57be15832bf7eba073ffc0428f9",
    5: "ccacac75f47d21f4e02c28698893f71a5b31fda7784228f5650844829d982001",
}


@pytest.mark.parametrize("seed", range(6))
def test_a_timing_draw_with_an_empty_branch_reports_no_comparison(tmp_path, seed):
    # the schema accepts one photon at p_present 0.5; at seeds 1, 2 and 4 the
    # photon finds the beamsplitter absent, so no comparison is made (0.14.0
    # exited 1 there)
    out = tmp_path / "mzi.json"
    assert run_cli(["mzi", "--seed", str(seed), "--set", "phases_deg=[0]", "--set",
                    'timing={"phase_deg":60,"p_present":0.5,"n":1}', "--out", str(out)]) == 0
    timing = read_json(out)["timing"]
    manifest = read_json(tmp_path / "mzi.json.manifest.json")
    if seed in _ONE_PHOTON_TIMING_0_14_0:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _ONE_PHOTON_TIMING_0_14_0[seed]
        assert timing["n_conditional"] == 1
        assert manifest["summary"]["timing_within_4_sigma"] is True
    else:
        assert timing["n_conditional"] == 0 and timing["fixed_n"] == 1
        assert timing["conditional_fraction_d0"] is timing["z_value"] is None
        assert timing["within_4_sigma"] is None
        assert manifest["summary"]["timing_within_4_sigma"] is None


def test_results_are_reproducible_byte_for_byte(tmp_path):
    args = ["bell", "--workers", "2", "--set",
            'sweep={"start_deg": 0, "stop_deg": 45, "step_deg": 45}',
            "--set", "n_per_point=2000", "--set", "n_per_setting=2000"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# the default run of every experiment, and a CSV result
@pytest.mark.parametrize("argv", [[experiment] for experiment in cli.EXPERIMENTS]
                         + [["malus", "--format", "csv", "--set", "mode=mc"]],
                         ids=" ".join)
def test_manifest_round_trip(tmp_path, argv):
    ext = "csv" if "csv" in argv else "json"
    first = tmp_path / f"first.{ext}"
    assert run_cli([*argv, "--out", str(first), "--seed", "3"]) == 0
    manifest_path = tmp_path / f"first.{ext}.manifest.json"
    second = tmp_path / f"second.{ext}"
    rc = run_cli([argv[0], "--config", str(manifest_path), "--out", str(second)])
    assert rc == 0
    assert read_json(manifest_path)["seed"] == read_json(f"{second}.manifest.json")["seed"] == 3
    assert first.read_bytes() == second.read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "malus",
                "seed": 5,
                "params": {"mode": "mc", "n_photons": 1000},
            }
        )
    )
    out = tmp_path / "out.json"
    rc = run_cli(
        ["malus", "--config", str(config), "--out", str(out),
         "--seed", "7", "--set", "n_photons=2000"]
    )
    assert rc == 0
    result = read_json(out)
    assert result["seed"] == 7
    assert result["params"]["n_photons"] == 2000
    assert result["params"]["mode"] == "mc"


def test_default_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PHOTONLAB_OUT_DIR", str(tmp_path))
    assert run_cli(["entropy", "--set", "grid=[0.5]"]) == 0
    assert (tmp_path / "entropy.json").exists()
    assert (tmp_path / "entropy.json.manifest.json").exists()


def check_failure(tmp_path, capsys, argv, fragment):
    out = tmp_path / "never.json"
    rc = run_cli(argv + ["--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error:" in err
    assert fragment in err
    return err


def test_unknown_parameter_is_rejected(tmp_path, capsys):
    check_failure(tmp_path, capsys, ["malus", "--set", "bogus=1"], "bogus")


def test_schema_bounds_are_enforced(tmp_path, capsys):
    check_failure(tmp_path, capsys, ["protocol", "--set", "n_shuffles=500"], "n_shuffles")
    check_failure(tmp_path, capsys, ["malus", "--set", "n_photons=0"], "0")
    check_failure(tmp_path, capsys, ["mzi", "--set", "timing.p_present=2"], "maximum")
    check_failure(
        tmp_path, capsys,
        ["mzi", "--set", 'timing={"phase_deg":60,"p_present":0,"n":100}'], "minimum",
    )
    # a partial timing object is completed by the defaults, not rejected
    ok = tmp_path / "partial.json"
    assert run_cli(["mzi", "--out", str(ok), "--set", "phases_deg=[0]",
                    "--set", "n_per_phase=1000", "--set", "timing.n=2000"]) == 0
    assert read_json(ok)["timing"]["n_conditional"] <= 2000


def test_oversized_sweeps_are_refused_before_any_work(tmp_path, capsys):
    sweep = 'sweep={"start_deg":0,"stop_deg":90,"step_deg":1e-7}'
    for experiment in ("malus", "bell"):
        check_failure(tmp_path, capsys, [experiment, "--set", sweep], "1000000 points")
    # finite ends whose difference overflows to an infinite span
    infinite = 'sweep={"start_deg":-1e308,"stop_deg":1e308,"step_deg":1}'
    check_failure(tmp_path, capsys, ["malus", "--set", infinite], "points")


@pytest.mark.parametrize("argv", [
    ["malus", "--set", "axes_deg=[NaN]"],
    ["malus", "--set", "source_angle_deg=Infinity"],
    ["malus", "--set", "source_angle_deg=-Infinity"],
    ["malus", "--set", "source_angle_deg=1e400"],
    ["malus", "--set", 'sweep={"start_deg":0,"stop_deg":Infinity,"step_deg":1}'],
    ["mzi", "--set", "phases_deg=[NaN]"],
    ["mzi", "--set", "timing.phase_deg=NaN"],
    ["nosignal", "--set", "probe_basis_deg=NaN"],
    ["protocol", "--set", "rule.one_deg=Infinity"],
    ["bell", "--set", "chsh_angles_deg=[0, 45, NaN, 67.5]"],
    # an integer too large for a float
    ["malus", "--set", "source=linear", "--set", "source_angle_deg=1" + "0" * 400],
])
def test_non_finite_config_numbers_are_refused(tmp_path, capsys, argv):
    check_failure(tmp_path, capsys, argv, "must be finite")


@pytest.mark.parametrize("argv", [
    # analytic malus never reads n_photons, and 0.3.0 ran it
    ["malus", "--set", "n_photons=1e6"],
    ["bell", "--set", "n_per_point=1e3"],
    ["bell", "--set", "n_per_setting=1000.0"],
    ["nosignal", "--set", "n_per_basis=1e3"],
    ["mzi", "--set", "n_per_phase=1e3"],
    ["mzi", "--set", "timing.n=1e3"],
    ["protocol", "--set", "n_bits=1e3"],
])
def test_integral_floats_in_count_fields_are_refused(tmp_path, capsys, argv):
    err = check_failure(tmp_path, capsys, argv, "is not of type 'integer'")
    assert f"{argv[-1].split('=')[0]}: 1000" in err


def test_oversized_and_deeply_nested_strategies_are_refused(tmp_path, capsys):
    huge = f"strategy=repetition:{cli.MAX_PAIRS_PER_BIT + 1}:fixed-basis-ml:0"
    check_failure(tmp_path, capsys, ["protocol", "--set", huge, "--set", "n_bits=2"],
                  f"more than {cli.MAX_PAIRS_PER_BIT}")
    # each factor alone fits the cap, their product does not
    nested = "strategy=" + "repetition:1000:" * 3 + "basis-oracle"
    check_failure(tmp_path, capsys, ["protocol", "--set", nested, "--set", "n_bits=2"],
                  "1000000000 pairs per bit")
    deep = "strategy=" + "repetition:1:" * 3000 + "basis-oracle"
    check_failure(tmp_path, capsys, ["protocol", "--set", deep], "nests more than")
    # the largest accepted strategy runs at the largest accepted n_bits
    out = tmp_path / "largest.json"
    largest = f"strategy=repetition:{cli.MAX_PAIRS_PER_BIT}:fixed-basis-ml:0"
    assert run_cli(["protocol", "--set", largest, "--set", f"n_bits={cli.MAX_TRIALS}",
                    "--out", str(out)]) == 0
    assert read_json(out)["decode_ties"] == cli.MAX_TRIALS * cli.MAX_PAIRS_PER_BIT
    shallow = "repetition:1:" * cli.MAX_STRATEGY_NESTING + "basis-oracle"
    assert cli._strategy(shallow).pairs_per_bit == 1


def test_runtime_error_without_text_names_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(params, seed):
        raise MemoryError()

    monkeypatch.setitem(cli.EXPERIMENTS, "entropy",
                        cli.EXPERIMENTS["entropy"]._replace(run=out_of_memory))
    out = tmp_path / "never.json"
    assert run_cli(["entropy", "--out", str(out)]) == 1
    assert not out.exists()
    assert "error: MemoryError" in capsys.readouterr().err


def test_bad_strategy_lists_the_valid_forms(tmp_path, capsys):
    err = check_failure(
        tmp_path, capsys, ["protocol", "--set", "strategy=guesswork"], "valid strategies"
    )
    assert "basis-oracle" in err


def test_bad_seed_and_workers(tmp_path, capsys):
    check_failure(tmp_path, capsys, ["entropy", "--seed", "-1"], "seed")
    check_failure(tmp_path, capsys, ["entropy", "--workers", "0"], "workers")


def test_malformed_set_and_config(tmp_path, capsys):
    check_failure(tmp_path, capsys, ["entropy", "--set", "grid"], "KEY=VALUE")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    check_failure(tmp_path, capsys, ["entropy", "--config", str(bad)], "not valid JSON")
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"params": {}, "notes": "hi"}))
    check_failure(tmp_path, capsys, ["entropy", "--config", str(stray)], "notes")
    non_finite = tmp_path / "nan.json"
    non_finite.write_text('{"params": {"probe_basis_deg": NaN}}')
    check_failure(tmp_path, capsys, ["nosignal", "--config", str(non_finite)], "must be finite")
    # Python refuses to parse an integer of more than 4300 digits, where it has that limit
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"params": {"probe_basis_deg": ' + "1" * 5000 + "}}")
    limited = hasattr(sys, "get_int_max_str_digits")
    check_failure(tmp_path, capsys, ["nosignal", "--config", str(long_int)],
                  "not valid JSON" if limited else "must be finite")


def test_config_for_another_experiment_is_rejected(tmp_path, capsys):
    config = tmp_path / "bell.json"
    config.write_text(json.dumps({"experiment": "bell"}))
    check_failure(tmp_path, capsys, ["malus", "--config", str(config)], "bell")


def test_protocol_csv_is_refused(tmp_path, capsys):
    check_failure(
        tmp_path, capsys, ["protocol", "--format", "csv"], "not tabular"
    )


def test_sweep_must_be_ordered(tmp_path, capsys):
    check_failure(
        tmp_path,
        capsys,
        ["bell", "--set", 'sweep={"start_deg": 50, "stop_deg": 10, "step_deg": 5}'],
        "stop_deg",
    )


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_import_leaves_jsonschema_unloaded():
    code = "import sys, photonlab.cli; sys.exit('jsonschema' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def _run_fresh(code: str, *args) -> str:
    """Run code in a new interpreter with this checkout's package; its stdout."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_LOADED = """
import json, sys
import photonlab, photonlab.cli

def loaded():
    return sorted(m[len("photonlab."):] for m in sys.modules if m.startswith("photonlab."))

at_import = loaded()
photonlab.cli.main([*sys.argv[2:], "--out", sys.argv[1]])
print(json.dumps([at_import, loaded()]))
"""


# malus and entropy draw nothing by default, and protocol draws only with its
# default iid bits; every run loads scalars. A run that draws at most
# SCALAR_ROWS points, a cascade and the protocol draw one count at a time with
# draw, and bell, mzi, a Monte Carlo cascade and the protocol, which work on
# scalars alone, load no core; only a sweep of more points loads core and rng
# (the CHSH settings of a long bell sweep still draw with draw)
@pytest.mark.parametrize("experiment, modules", [
    ("malus", ["core", "optics", "scalars"]),
    ("entropy", ["core", "entropy", "scalars"]),
    ("bell", ["draw", "entangle", "scalars"]),
    ("nosignal", ["core", "draw", "entangle", "scalars", "stats"]),
    ("protocol", ["draw", "protocol", "scalars", "stats"]),
    ("mzi", ["draw", "mzi", "scalars"]),
    ("protocol --set bit_source=balanced", ["protocol", "scalars", "stats"]),
    ("malus --set mode=mc", ["draw", "optics", "scalars"]),
    ("bell --set n_per_point=1000 --set sweep={\"start_deg\":0,\"stop_deg\":90,\"step_deg\":1}",
     ["core", "draw", "entangle", "rng", "scalars"]),
])
def test_a_run_imports_only_its_experiment(tmp_path, experiment, modules):
    stdout = _run_fresh(_LOADED, str(tmp_path / "r.json"), *experiment.split())
    at_import, after_run = json.loads(stdout.splitlines()[-1])
    assert at_import == ["cli"]
    assert after_run == ["cli", *modules]


# -X importtime lists every module a process imports, one line each, ending in
# "| <module name>"; a run that draws no count names only the words
@pytest.mark.parametrize("argv", [
    ["entropy"],
    ["malus"],
    ["malus", "--set", 'sweep={"start_deg": 0, "stop_deg": 90, "step_deg": 0.5}',
     "--format", "csv"],
], ids=lambda argv: " ".join(argv[:2]))
def test_a_run_that_draws_nothing_never_imports_rng(tmp_path, argv):
    out = tmp_path / "r.out"
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "photonlab.cli", *argv,
                           "--out", str(out)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    modules = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert "photonlab.core" in modules
    assert "photonlab.rng" not in modules
    manifest = read_json(f"{out}.manifest.json")
    assert manifest["rng_algorithm"] == photonlab.WORDS_ID


# a CLI run in a fresh interpreter; prints which of dataclasses and statistics
# (which brings decimal and fractions) it loaded
_STDLIB_MODULES = """
import json, sys
import photonlab.cli

assert photonlab.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in ("dataclasses", "statistics") if m in sys.modules)))
"""


# the value classes are namedtuples, so no run generates dataclass code; only
# a Wilson interval needs statistics.NormalDist, and of the default runs only
# nosignal computes one
@pytest.mark.parametrize("argv, modules", [
    (["malus"], []),
    (["malus", "--set", "mode=mc"], []),
    (["entropy"], []),
    (["bell"], []),
    (["nosignal"], ["statistics"]),
    (["mzi"], []),
    (["protocol"], []),
    (["protocol", "--set", "bit_source=balanced", "--set", "strategy=basis-oracle"], []),
    (["protocol", "--set", "strategy=repetition:11:fixed-basis-ml:22.5"], []),
], ids=lambda value: (" ".join(value) if value and value[0] in cli.EXPERIMENTS
                      else None))
def test_no_run_loads_dataclasses_and_only_an_interval_loads_statistics(tmp_path, argv,
                                                                          modules):
    stdout = _run_fresh(_STDLIB_MODULES, *argv, "--out", str(tmp_path / "r.json"))
    assert json.loads(stdout.splitlines()[-1]) == modules


def test_a_run_under_cprofile_writes_its_result(tmp_path):
    # cProfile runs the CLI as __main__ but keeps its own module as
    # sys.modules["__main__"], so the runner must find its names elsewhere
    out = tmp_path / "e.json"
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "p.prof"),
                           "-m", "photonlab.cli", "entropy", "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and "error" not in proc.stderr, proc.stderr
    assert read_json(out)["experiment"] == "entropy"
    assert (tmp_path / "p.prof").stat().st_size > 0


# a CLI run in a fresh interpreter; prints the numpy.random modules it loaded
_RANDOM_MODULES = """
import json, sys
import photonlab.cli

assert photonlab.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"])))
"""


@pytest.mark.parametrize("argv", [
    ["malus", "--set", "mode=mc"],
    ["bell"],
    ["nosignal"],
    ["mzi"],
    ["protocol", "--set", "bit_source=iid"],
], ids=lambda argv: " ".join(argv))
def test_a_monte_carlo_run_loads_no_numpy_random(tmp_path, argv):
    stdout = _run_fresh(_RANDOM_MODULES, *argv, "--out", str(tmp_path / "r.json"))
    assert json.loads(stdout.splitlines()[-1]) == []
    assert json.loads((tmp_path / "r.json").read_text())["rng_algorithm"] == ALGORITHM_ID


# a CLI call in a fresh interpreter; prints its exit code and which of numpy,
# dataclasses and photonlab's library modules it loaded
_EXITS = """
import json, sys
import photonlab.cli

try:
    code = photonlab.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m in ("numpy", "dataclasses")
                               or m.startswith("photonlab.") and m != "photonlab.cli")]))
"""


def _exit_and_heavy_modules(*argv):
    return json.loads(_run_fresh(_EXITS, *argv).splitlines()[-1])


_NO_NUMPY_EXITS = [
    (["--help"], 0),
    *[([experiment, "--help"], 0) for experiment in cli.EXPERIMENTS],
    (["--version"], 0),
    (["bogus"], 2),
    (["protocol", "--set", "n_bits=0"], 2),
    (["nosignal", "--set", "bases_a_deg=[0, 1e400]"], 2),
    (["malus", "--config", "no-such-config.json"], 2),
    (["bell", "--set", 'sweep={"start_deg": 1, "stop_deg": 0, "step_deg": 1}'], 2),
    (["protocol", "--set", "n_bits=3", "--set", "bit_source=balanced"], 2),
]

# a strategy is parsed by protocol.parse_strategy, so a bad one loads protocol
# and the two modules it imports, still without numpy
_STRATEGY_EXITS = [
    (["protocol", "--set", "strategy=repetition:0:basis-oracle"], 2),
    (["protocol", "--set", "strategy=" + "repetition:1000:" * 3 + "basis-oracle"], 2),
]
_PARSER_MODULES = ["photonlab.protocol", "photonlab.scalars", "photonlab.stats"]


@pytest.mark.parametrize("argv, code, loaded",
                         [(argv, code, []) for argv, code in _NO_NUMPY_EXITS]
                         + [(argv, code, _PARSER_MODULES) for argv, code in _STRATEGY_EXITS],
                         ids=[" ".join(argv) for argv, _ in _NO_NUMPY_EXITS + _STRATEGY_EXITS])
def test_help_version_and_config_errors_load_no_numpy(tmp_path, argv, code, loaded):
    assert _exit_and_heavy_modules(*argv, "--out", str(tmp_path / "r.json")) == [code, loaded]
    assert not (tmp_path / "r.json").exists()


def test_a_run_in_the_same_harness_loads_numpy(tmp_path):
    code, loaded = _exit_and_heavy_modules("malus", "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert "numpy" in loaded


# CLI runs in a fresh interpreter, one argv per line of stdin; prints, for
# each, its exit code and whether numpy was loaded after it. It reads
# sys.modules, since -X importtime does not list a module importlib loads.
_NUMPY_AFTER_RUNS = """
import json, sys
import photonlab.cli

for line in sys.stdin:
    code = photonlab.cli.main(json.loads(line))
    print(json.dumps([code, "numpy" in sys.modules]))
"""

# the iid bit counts of 1 and 19 bits are inverted cdfs, of 20 and more BTRD
# draws; the oracle's tables reach the MI null, and 2^32 is the CLI's cap
_PROTOCOL_RUNS = [(bits, n_bits) for bits in ("iid", "balanced")
                  for n_bits in (1, 19, 20, 30_000, 2**32) if bits == "iid" or n_bits % 2 == 0]


@pytest.mark.parametrize("strategy", ["fixed-basis-ml:0", "repetition:11:fixed-basis-ml:22.5",
                                      "basis-oracle"])
def test_a_protocol_run_loads_no_numpy(tmp_path, strategy):
    argvs = [["protocol", "--set", f"strategy={strategy}", "--set", f"bit_source={bits}",
              "--set", f"n_bits={n_bits}", "--out", str(tmp_path / f"{bits}-{n_bits}.json")]
             for bits, n_bits in _PROTOCOL_RUNS]
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _NUMPY_AFTER_RUNS],
                          input="".join(json.dumps(argv) + "\n" for argv in argvs),
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    outcomes = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert outcomes == [[0, False]] * len(_PROTOCOL_RUNS)


# the three steps of the mc-bulk benchmark at its full size and --workers 2
MC_BULK = [
    ["malus", "--set", "mode=mc", "--set", "n_photons=10000000",
     "--set", "axes_deg=[90.0, 45.0, 0.0]", "--set", "source=natural"],
    ["bell", "--set", 'sweep={"start_deg": 0.0, "stop_deg": 90.0, "step_deg": 5.0}',
     "--set", "n_per_point=2000000", "--set", "chsh_angles_deg=[0.0, 45.0, 22.5, 67.5]",
     "--set", "n_per_setting=4000000"],
    ["mzi", "--set", f"phases_deg={[22.5 * k for k in range(16)]}", "--set", "mode=mc",
     "--set", "n_per_phase=2000000",
     "--set", 'timing={"phase_deg": 60.0, "p_present": 0.5, "n": 10000000}'],
]


# a Monte Carlo cascade draws one count a stage, and a bell or mzi sweep of
# at most SCALAR_ROWS points one chain a point, all in Python floats
def test_a_monte_carlo_run_of_few_points_loads_no_numpy(tmp_path):
    argvs = [["malus", "--set", "mode=mc"], ["bell"], ["mzi"],
             ["mzi", "--set", "mode=analytic"], ["malus", "--set", "mode=mc",
                                                   "--set", "source=linear"]]
    argvs += [[*argv, "--workers", "2", "--seed", str(seed)] for argv in MC_BULK
              for seed in range(3)]
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _NUMPY_AFTER_RUNS],
                          input="".join(json.dumps([*argv, "--out", str(tmp_path / f"{i}.json")])
                                        + "\n" for i, argv in enumerate(argvs)),
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    outcomes = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert outcomes == [[0, False]] * len(argvs)


# every public name of photonlab 0.7.0, whose __init__ imported them all
NAMES_0_7_0 = [
    "ALGEBRA_ATOL", "ALGORITHM_ID", "BasisOracle", "CascadeResult", "ChoiceStats",
    "CorrelationStats", "DensityOperator", "EncodingRule", "EntropyReport", "FixedBasisML",
    "InvalidStateError", "JointOutcome", "LightBeam", "MeasurementBasis", "MziConfig",
    "MziStats", "OutcomeRecord", "PROB_SNAP", "PairState", "PhotonRecord", "PhotonStream",
    "Polarizer", "Repetition", "RngStream", "StateVector", "TimingInvarianceReport",
    "TransmissionReport", "as_bit_array", "bit_table", "bob_marginal_counts",
    "bob_reduced_state", "born_probabilities", "born_probabilities_array", "canonical_angle",
    "cascade_analytic", "cascade_mc", "choice_timing_invariance", "chsh", "collapse",
    "collapse_entropy_report", "conditional_state", "core", "correlation",
    "detector_probabilities", "eigenvector_array", "encode", "entangle", "entropy",
    "joint_probabilities", "ket_from_angle", "linear_light", "make_pair", "map_partitions",
    "measure_A", "measure_pair", "mi_standard_error", "mutual_information", "mzi",
    "natural_light", "no_signaling_check", "null_quantile", "optics", "partial_trace",
    "permutation_independence_test", "permutation_null_mis", "plugin_mi_bits",
    "projection_probability", "projection_probability_array", "protocol",
    "qubit_superposition_entropy", "receive", "rng", "run_mzi", "run_protocol",
    "shannon_entropy", "standard_strategies", "states_equal", "stats", "stream_from_seed",
    "tensor_product", "trace_distance", "transmit_analytic", "transmit_photon_mc",
    "unit_state_array", "von_neumann_entropy", "wilson_interval",
]

_RESOLVED = """
import importlib, json, sys, types
import photonlab

listed = dir(photonlab)
star = {}
exec("from photonlab import *", star)
missing = {"dir": [], "star": [], "attribute": []}
for name in json.loads(sys.argv[1]):
    value = getattr(photonlab, name, None)
    if isinstance(value, types.ModuleType):
        home = value is importlib.import_module("photonlab." + name)
    else:
        home = any(getattr(m, name, None) is value for m in list(sys.modules.values())
                   if m is not photonlab and getattr(m, "__name__", "").startswith("photonlab."))
    missing["attribute"] += [] if value is not None and home else [name]
    missing["star"] += [] if star.get(name) is value else [name]
    missing["dir"] += [] if name in listed else [name]
print(json.dumps(missing))
"""


# removed on purpose: 0.8.0 draws each Monte Carlo point once, with no blocks to map
REMOVED_IN_0_8_0 = ["map_partitions"]
# removed on purpose: since 0.10.0 a sweep keys all its points at once, with no
# generator to re-key per point
REMOVED_IN_0_10_0 = ["streams"]
# removed on purpose: since 0.11.0 every experiment computes collapse from its
# exact law, and no run sampled photons one by one, so that API went
REMOVED_IN_0_11_0 = {
    "core": ["OutcomeRecord", "collapse", "sample_binary", "sample_categories"],
    "entangle": ["JointOutcome", "measure_A", "measure_pair"],
    "optics": ["PhotonRecord", "transmit_photon_mc"],
    "protocol": ["PhotonStream", "encode", "receive"],
}
# removed on purpose: since 0.13.0 the null's quantile and p-value come from a
# walk out from its mean (stats.permutation_null_quantile), with no array of
# the null's values and probabilities
REMOVED_IN_0_13_0 = {"stats": ["null_quantile", "permutation_null_mis"]}
# removed on purpose from the top level: since 0.15.0 no run draws from a
# stateful stream; photonlab.rng keeps both for perfbench's microbenchmark
REMOVED_IN_0_15_0 = ["RngStream", "stream_from_seed"]
REMOVED = (REMOVED_IN_0_8_0 + REMOVED_IN_0_10_0 + sum(REMOVED_IN_0_11_0.values(), [])
           + sum(REMOVED_IN_0_13_0.values(), []) + REMOVED_IN_0_15_0)


def test_every_0_7_0_name_still_resolves():
    kept = [name for name in NAMES_0_7_0 if name not in REMOVED]
    missing = json.loads(_run_fresh(_RESOLVED, json.dumps(kept)))
    assert missing == {"dir": [], "star": [], "attribute": []}
    for name in REMOVED:
        assert not hasattr(photonlab, name) and name not in photonlab.__all__
        with pytest.raises(AttributeError):
            getattr(cli, name)
    for module, names in [*REMOVED_IN_0_11_0.items(), *REMOVED_IN_0_13_0.items()]:
        for name in names:
            assert not hasattr(getattr(photonlab, module), name), (module, name)
    assert all(hasattr(photonlab.rng, name) for name in REMOVED_IN_0_15_0)


def test_every_library_name_resolves_on_cli_from_its_module():
    for name, module in photonlab._HOME.items():
        assert getattr(cli, name) is getattr(getattr(photonlab, module), name), name
    for name in ("bogus", "_LIBRARY", "_EXPORTS", "_bit_decision", "core", "__path__"):
        with pytest.raises(AttributeError, match="'photonlab.cli' has no attribute"):
            getattr(cli, name)


_NUMBERS = st.one_of(
    st.floats(),
    st.integers(-2**70, 2**70),
    st.sampled_from([10**400, -10**400, -0.0, 0.0, 1.0, 1, 0, True, False, 5e-324,
                     math.inf, -math.inf, math.nan]),
)
_ITEM_FIELDS = [
    cli.Field("number"),
    cli.Field("number", minimum=0, maximum=1),
    cli.Field("number", exclusive_minimum=0),
    cli.Field("number", exclusive_minimum=0, maximum=1),
    cli.Field("integer", minimum=1),
]


def _check_outcome(fields, params):
    try:
        cli.check_params(fields, params)
    except cli.ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=400)
@given(st.sampled_from(_ITEM_FIELDS),
       st.one_of(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=8),
                 st.lists(st.one_of(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=8),
                 st.lists(_NUMBERS, min_size=1, max_size=8),
                 st.lists(st.one_of(_NUMBERS, st.none(), st.text(max_size=2)), min_size=1,
                          max_size=8)))
def test_list_fast_path_agrees_with_the_item_loop(item, values):
    fields = {"xs": cli.Field("list", item=item)}
    fast = _check_outcome(fields, {"xs": values})
    with mock.patch.object(cli, "_numbers_fit", return_value=False):
        assert _check_outcome(fields, {"xs": values}) == fast


@pytest.mark.parametrize("item, values, message", [
    (cli.Field("number"), [], None),
    # finite values whose sum overflows
    (cli.Field("number"), [1e308, 1e308], None),
    (cli.Field("number"), [0.5, 10**400], "xs[1]: must be finite, got an integer too large "
                                          "for a float"),
    # integers add exactly, so these cancel in the sum
    (cli.Field("number"), [10**400, -10**400, 1.0], "xs[0]: must be finite, got an integer "
                                                    "too large for a float"),
    (cli.Field("number", maximum=2**53), [0.0, 2**53 + 1],
     "xs[1]: 9007199254740993 is greater than the maximum of 9007199254740992"),
    (cli.Field("number", exclusive_minimum=0), [1.0, -0.0],
     "xs[1]: -0.0 is less than or equal to the minimum of 0"),
    (cli.Field("number", exclusive_minimum=0), [1, 0],
     "xs[1]: 0 is less than or equal to the minimum of 0"),
])
def test_list_fast_path_edges(item, values, message):
    fields = {"xs": cli.Field("list", item=item)}
    fast = _check_outcome(fields, {"xs": values})
    with mock.patch.object(cli, "_numbers_fit", return_value=False):
        assert _check_outcome(fields, {"xs": values}) == fast
    assert fast == message


def test_a_field_is_immutable_and_takes_keyword_bounds():
    field = cli.Field("number", 0.5, minimum=0, maximum=1)
    assert (field.kind, field.default, field.minimum, field.maximum) == ("number", 0.5, 0, 1)
    assert (field.exclusive_minimum, field.choices, field.item, field.nullable) == \
        (None, (), None, False)
    with pytest.raises(AttributeError):
        field.minimum = 2


def test_module_runs_as_a_script(tmp_path):
    out = tmp_path / "script.json"
    proc = subprocess.run(
        [sys.executable, "-m", "photonlab.cli", "malus", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote" in proc.stdout
