import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from photonlab import cli
from photonlab.cli import main, parse_strategy
from photonlab.protocol import BasisOracle, FixedBasisML, Repetition


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
    params = cli.defaults(cli.SPECS["nosignal"])
    params["bases_a_deg"] = [0.0] * cli.MAX_BASES
    params["n_per_basis"] = cli.MAX_TRIALS
    cli.check_params(cli.SPECS["nosignal"], params)
    # the balanced bit source no longer has a cap of its own
    params = cli.defaults(cli.SPECS["protocol"])
    params.update(n_bits=cli.MAX_TRIALS, bit_source="balanced")
    cli.check_params(cli.SPECS["protocol"], params)


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


def test_results_are_reproducible_byte_for_byte(tmp_path):
    args = ["bell", "--workers", "2", "--set",
            'sweep={"start_deg": 0, "stop_deg": 45, "step_deg": 45}',
            "--set", "n_per_point=2000", "--set", "n_per_setting=2000"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_round_trip(tmp_path):
    first = tmp_path / "first.json"
    args = ["nosignal", "--out", str(first), "--seed", "3", "--set", "n_per_basis=4000"]
    assert run_cli(args) == 0
    manifest_path = tmp_path / "first.json.manifest.json"
    second = tmp_path / "second.json"
    rc = run_cli(["nosignal", "--config", str(manifest_path), "--out", str(second)])
    assert rc == 0
    first_doc = read_json(first)
    second_doc = read_json(second)
    assert first_doc["seed"] == second_doc["seed"] == 3
    assert first.read_text() == second.read_text()


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
    huge = "strategy=repetition:100000000:fixed-basis-ml:0"
    check_failure(tmp_path, capsys, ["protocol", "--set", huge, "--set", "n_bits=2"],
                  f"more than {cli.MAX_BLOCK_PHOTONS}")
    # each factor alone fits the cap, their product does not
    nested = "strategy=" + "repetition:1000:" * 3 + "basis-oracle"
    check_failure(tmp_path, capsys, ["protocol", "--set", nested, "--set", "n_bits=2"],
                  "2000000000 photons")
    deep = "strategy=" + "repetition:1:" * 3000 + "basis-oracle"
    check_failure(tmp_path, capsys, ["protocol", "--set", deep], "nests more than")
    # the shipped repetition strategy at a full block stays within the cap
    assert 11 * cli.BLOCK <= cli.MAX_BLOCK_PHOTONS
    shallow = "repetition:1:" * cli.MAX_STRATEGY_NESTING + "basis-oracle"
    assert parse_strategy(shallow).pairs_per_bit == 1


def test_runtime_error_without_text_names_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(params, seed, workers):
        raise MemoryError()

    monkeypatch.setitem(cli._RUNNERS, "entropy", out_of_memory)
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


def test_parse_strategy_forms():
    assert isinstance(parse_strategy("basis-oracle"), BasisOracle)
    ml = parse_strategy("fixed-basis-ml:22.5")
    assert isinstance(ml, FixedBasisML)
    assert ml.basis.theta == pytest.approx(math.pi / 8, abs=1e-12)
    rep = parse_strategy("repetition:5:fixed-basis-ml:0")
    assert isinstance(rep, Repetition)
    assert rep.k == 5
    nested = parse_strategy("repetition:3:repetition:2:basis-oracle")
    assert nested.pairs_per_bit == 6
    for bad in ("oracle", "fixed-basis-ml:abc", "repetition:x:basis-oracle",
                "repetition:0:basis-oracle", "repetition:2"):
        with pytest.raises(ValueError):
            parse_strategy(bad)


def test_cli_import_leaves_jsonschema_unloaded():
    code = "import sys, photonlab.cli; sys.exit('jsonschema' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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
