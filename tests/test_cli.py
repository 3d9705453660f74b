import json

import pytest

from bepower import cli

DESIGN = ["--mu-diff", "-4", "--sigma1", "18", "--sigma2", "15",
          "--delta", "19.2"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestPowerCommand:
    def test_basic_estimate(self, capsys, tmp_path):
        out_json = tmp_path / "power.json"
        code, out, err = run(capsys, "power", *DESIGN, "--n1", "20",
                             "--n2", "20", "--m", "4096", "--seed", "7",
                             "--json", str(out_json))
        assert code == 0
        assert out.startswith("power = 0.8")
        rec = read_json(out_json)
        assert rec["inputs"]["n1"] == 20
        assert rec["inputs"]["delta_L"] == -19.2
        assert rec["inputs"]["engine"] == "segment"
        assert rec["results"]["power"] == pytest.approx(0.8815, abs=0.02)
        assert "timestamp" in rec["metadata"]
        assert rec["metadata"]["elapsed_s"] >= 0.0

    def test_naive_engine(self, capsys):
        code, out, _ = run(capsys, "power", *DESIGN, "--n1", "10", "--n2",
                           "10", "--m", "512", "--seed", "3",
                           "--engine", "naive")
        assert code == 0
        assert "engine=naive" in out

    def test_invalid_alpha_names_valid_range(self, capsys):
        code, _, err = run(capsys, "power", *DESIGN, "--alpha", "0.6",
                           "--n1", "10", "--n2", "10", "--seed", "1")
        assert code == 2
        assert "(0, 0.5]" in err

    def test_missing_seed(self, capsys):
        code, _, err = run(capsys, "power", *DESIGN, "--n1", "10",
                           "--n2", "10")
        assert code == 2
        assert "--seed" in err

    def test_missing_design_fields_listed(self, capsys):
        code, _, err = run(capsys, "power", "--delta", "19.2", "--n1", "10",
                           "--n2", "10", "--seed", "1")
        assert code == 2
        assert "--mu-diff" in err and "--sigma1" in err and "--sigma2" in err

    def test_delta_expansion_and_override(self, capsys, tmp_path):
        out_json = tmp_path / "p.json"
        code, _, _ = run(capsys, "power", "--mu-diff", "-4", "--sigma1", "18",
                         "--sigma2", "15", "--delta", "19.2",
                         "--delta-l", "-10",
                         "--n1", "10", "--n2", "10", "--m", "64",
                         "--seed", "1", "--json", str(out_json))
        assert code == 0
        rec = read_json(out_json)
        assert rec["inputs"]["delta_L"] == -10.0  # explicit flag wins
        assert rec["inputs"]["delta_U"] == 19.2


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# two-group study\n"
            "mu-diff = -4\n"
            "sigma1 = 18\n"
            "sigma2 = 15   # group 2\n"
            "delta = 19.2\n"
            "m = 64\n"
            "seed = 9\n")
        out_json = tmp_path / "r.json"
        code, _, _ = run(capsys, "power", "--config", str(cfg), "--n1", "10",
                         "--n2", "10", "--m", "256", "--json", str(out_json))
        assert code == 0
        rec = read_json(out_json)
        assert rec["inputs"]["m"] == 256  # flag beats config
        assert rec["inputs"]["seed"] == 9  # config beats nothing
        assert rec["inputs"]["sigma2"] == 15.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma3 = 12\n")
        code, _, err = run(capsys, "power", "--config", str(cfg), *DESIGN,
                           "--n1", "10", "--n2", "10", "--seed", "1")
        assert code == 2
        assert "sigma3" in err

    def test_unparsable_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = many\n")
        code, _, err = run(capsys, "power", "--config", str(cfg), *DESIGN,
                           "--n1", "10", "--n2", "10", "--seed", "1")
        assert code == 2
        assert "cannot parse 'many'" in err

    @pytest.mark.parametrize("command, key, extra", [
        ("power", "engine", ["--n1", "10", "--n2", "10"]),
        ("bench", "engines", ["--grid", "3", "--m", "64", "--reps", "2"]),
    ])
    def test_value_outside_choices_rejected(self, capsys, tmp_path, command,
                                            key, extra):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n")
        code, out, err = run(capsys, command, "--config", str(cfg), *DESIGN,
                             *extra, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert f"invalid choice 'bogus' for '{key}'" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "power", "--config",
                           str(tmp_path / "absent.cfg"), *DESIGN,
                           "--n1", "10", "--n2", "10", "--seed", "1")
        assert code == 2
        assert "cannot read config file" in err


class TestCurveCommand:
    def test_outputs_and_determinism(self, capsys, tmp_path):
        args = ["curve", *DESIGN, "--m", "64", "--seed", "3",
                "--target-power", "0.8"]
        files = {}
        for tag in ("a", "b"):
            j, c, s = (tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv",
                       tmp_path / f"{tag}.svg")
            code, out, _ = run(capsys, *args, "--json", str(j),
                               "--csv", str(c), "--svg", str(s))
            assert code == 0
            assert "recommend n1 =" in out
            files[tag] = (j.read_text(), c.read_bytes(), s.read_bytes())
        # rerun is byte-identical apart from the JSON metadata block
        assert files["a"][1] == files["b"][1]
        assert files["a"][2] == files["b"][2]
        rec_a, rec_b = (json.loads(files[t][0]) for t in ("a", "b"))
        del rec_a["metadata"], rec_b["metadata"]
        assert rec_a == rec_b

        csv_lines = files["a"][1].decode().splitlines()
        assert csv_lines[0] == "n,power"
        rows = [line.split(",") for line in csv_lines[1:]]
        ns = [float(r[0]) for r in rows]
        powers = [float(r[1]) for r in rows]
        assert ns == sorted(ns)
        assert powers == sorted(powers)
        assert powers[-1] <= 1.0

        svg = files["a"][2].decode()
        assert svg.startswith("<svg")
        assert "estimated power" in svg

        assert isinstance(rec_a["results"]["rec_n1"], int)
        assert rec_a["results"]["rec_n1"] >= 2

    def test_unwritable_output_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "curve", *DESIGN, "--m", "16",
                           "--seed", "2",
                           "--csv", str(tmp_path / "no-dir" / "x.csv"))
        assert code == 1
        assert "cannot write" in err

    def test_censoring_reported_as_runtime_failure(self, capsys):
        code, _, err = run(capsys, "curve", *DESIGN, "--m", "32",
                           "--seed", "2", "--bound", "4")
        assert code == 1
        assert "B=4" in err


class TestCrossoverCommand:
    def test_with_chow_comparator(self, capsys, tmp_path):
        j = tmp_path / "x.json"
        code, out, _ = run(capsys, "crossover", "--effect", "0.05",
                           "--sigma-d1", "0.4", "--sigma-d2", "0.3",
                           "--delta", "0.223", "--m", "256", "--seed", "5",
                           "--compare-chow", "--json", str(j))
        assert code == 0
        assert "per sequence" in out
        rec = read_json(j)
        assert rec["results"]["chow_n"] == 24
        assert rec["inputs"]["tol"] == 1e-6
        assert 2 <= rec["results"]["rec_n1"] <= rec["results"]["chow_n"]

    def test_missing_effect(self, capsys):
        code, _, err = run(capsys, "crossover", "--sigma-d1", "0.4",
                           "--sigma-d2", "0.3", "--delta", "0.223",
                           "--seed", "1")
        assert code == 2
        assert "--effect" in err


class TestDiagnoseCommand:
    def test_preset_scenario(self, capsys, tmp_path):
        c = tmp_path / "d.csv"
        code, out, _ = run(capsys, "diagnose", "--scenario", "s1_mu0",
                           "--m", "64", "--reps", "1", "--seed", "4",
                           "--csv", str(c))
        assert code == 0
        assert "s1_mu0" in out
        lines = c.read_text().splitlines()
        assert lines[0].startswith("scenario,mu_diff,sigma1")
        assert len(lines) == 2
        assert lines[1].startswith("s1_mu0,")

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "diagnose", "--scenario", "s9_mu0",
                           "--m", "16", "--reps", "1", "--seed", "4")
        assert code == 2
        assert "unknown scenario" in err

    def test_custom_design_needs_n_max(self, capsys):
        code, _, err = run(capsys, "diagnose", *DESIGN, "--m", "16",
                           "--reps", "1", "--seed", "4")
        assert code == 2
        assert "--n-max" in err

    def test_custom_design(self, capsys):
        code, out, _ = run(capsys, "diagnose", *DESIGN, "--n-max", "40",
                           "--m", "32", "--reps", "1", "--seed", "4")
        assert code == 0
        assert "custom" in out


class TestBenchCommand:
    def test_segment_engine_table(self, capsys, tmp_path):
        c = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", *DESIGN, "--grid", "3,5",
                           "--m", "512", "--reps", "2",
                           "--engines", "segment", "--seed", "8",
                           "--csv", str(c))
        assert code == 0
        lines = c.read_text().splitlines()
        assert lines[0] == "n1,n2,mean_segment,sd_segment"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "3" and first[1] == "3"
        assert 0.0 <= float(first[2]) <= 1.0

    def test_both_engines(self, capsys, tmp_path):
        c = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", *DESIGN, "--grid", "5",
                         "--m", "256", "--reps", "2", "--seed", "8",
                         "--csv", str(c))
        assert code == 0
        header = c.read_text().splitlines()[0]
        assert header == "n1,n2,mean_segment,sd_segment,mean_naive,sd_naive"

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "bench", *DESIGN, "--grid", "3;5",
                           "--seed", "8")
        assert code == 2
        assert "--grid" in err

    def test_json_reruns_identical_outside_metadata(self, capsys, tmp_path):
        records = []
        for tag in ("a", "b"):
            j = tmp_path / f"{tag}.json"
            code, _, _ = run(capsys, "bench", *DESIGN, "--grid", "3,5",
                             "--m", "256", "--reps", "2", "--seed", "8",
                             "--json", str(j))
            assert code == 0
            records.append(read_json(j))
        assert set(records[0]["metadata"]["engine_seconds"]) == {"segment",
                                                                 "naive"}
        for rec in records:
            del rec["metadata"]
        assert records[0] == records[1]


@pytest.mark.parametrize("argv", [
    ["diagnose", *DESIGN, "--n-max", "1", "--m", "16", "--reps", "1",
     "--seed", "4"],
    ["diagnose", *DESIGN, "--n-max", "40", "--m", "0", "--reps", "1",
     "--seed", "4"],
    ["diagnose", "--mu-diff", "-30", "--sigma1", "18", "--sigma2", "15",
     "--delta", "19.2", "--n-max", "40", "--m", "16", "--reps", "1",
     "--seed", "4"],
    ["diagnose", "--scenario", "s1_mu0", "--m", "16", "--reps", "1",
     "--seed", "-1"],
    ["bench", *DESIGN, "--grid", "3", "--m", "16", "--reps", "1",
     "--seed", "-5"],
    ["bench", *DESIGN, "--grid", "1,3", "--m", "16", "--reps", "1",
     "--seed", "1"],
    ["bench", *DESIGN, "--grid", "3", "--m", "16", "--reps", "0",
     "--seed", "1"],
    ["power", "--mu-diff", "-4", "--sigma1", "1e200", "--sigma2", "15",
     "--delta", "19.2", "--n1", "5", "--n2", "5", "--seed", "1"],
], ids=["n_max_1", "m_0", "mu_outside_limits", "diagnose_seed",
        "bench_seed", "group_size_1", "reps_0", "sigma_squared_overflows"])
def test_invalid_input_fails_cleanly(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
