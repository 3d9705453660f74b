import hashlib
import json

import pytest

from bepower import DesignSpec, cli, tost
from bepower.tost import _unit

DESIGN = ["--mu-diff", "-4", "--sigma1", "18", "--sigma2", "15",
          "--delta", "19.2"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


CROSSOVER = ["--effect", "0.05", "--sigma-d1", "0.4", "--sigma-d2", "0.3",
             "--delta", "0.223"]

# stdout, and the SHA-256 of the CSV and SVG bytes and of the JSON
# results (sort_keys=True), of one small run per subcommand
FROZEN = {
    "power": (
        ["power", *DESIGN, "--n1", "20", "--n2", "20", "--m", "4096",
         "--seed", "7"],
        "power = 0.882080  (engine=segment, n1=20, n2=20, m=4096, seed=7)\n",
        "7d3a2fa07f9b656308cf78da4eba4775c0f82b97090b43897f1019e44e095088",
        {}),
    "curve": (
        ["curve", *DESIGN, "--m", "64", "--seed", "3"],
        "recommend n1 = 16, n2 = 16  (n* = 15.7972, target = 0.8, "
        "censored = 0, reinitialized = 0)\n",
        "6a56420ce351eeddcbf8b4c8d124dd725f25ad8c4916653410e697e34ae201d2",
        {"csv": "026ac842ffcc429f9ed49709cbde95b8"
                "1fccdd46b49582aa33636758c01e7509",
         "svg": "1c9e34d0681b5aff5fc48f446641e4e5"
                "9f87e3865dadd7d336eed4b4c90fe471"}),
    "crossover": (
        ["crossover", *CROSSOVER, "--m", "256", "--seed", "5",
         "--compare-chow"],
        "recommend 15 + 15 subjects per sequence (n* = 14.5922); "
        "conservative closed form: 24 per sequence\n",
        "e252c04b5b5d0595d7330c3f7a38e201d688b0cfcca0048cb99d278a8f24d207",
        {}),
    "diagnose": (
        ["diagnose", "--scenario", "s1_mu0,s2_mu4", "--m", "64", "--reps",
         "2", "--seed", "3"],
        "s1_mu0: prevalence = 0.00000%, mean se-argmax = 2.55\n"
        "s2_mu4: prevalence = 0.00000%, mean se-argmax = 2.54\n",
        "6aeb23e13d07685c1efac50b4ceec51d091880138187fb949a409d148cb7ccec",
        {"csv": "522496263b34528003fbdefb40468c06"
                "a86827b5a4cad891aea452aa7460ec1b"}),
    "bench": (
        ["bench", *DESIGN, "--grid", "3,5", "--m", "256", "--reps", "2",
         "--seed", "8"],
        "n1=   3  segment=0.0430 (sd 0.0e+00)  naive=0.0488 (sd 1.4e-02)\n"
        "n1=   5  segment=0.1328 (sd 5.5e-03)  naive=0.1367 (sd 1.1e-02)\n",
        "1eee2f767e469f9fef1891bc1a021e55884e03a3378548e386607ee7c92b035a",
        {"csv": "4a666a7472b74acd2a2f4aa5a5e76558"
                "acc0068178920b1e2b09e3fbd5def411"}),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_outputs_frozen(capsys, tmp_path, name):
    argv, stdout, results, files = FROZEN[name]
    paths = {kind: tmp_path / f"out.{kind}" for kind in files}
    j = tmp_path / "out.json"
    flags = [arg for kind, path in paths.items()
             for arg in (f"--{kind}", str(path))]
    code, out, err = run(capsys, *argv, *flags, "--json", str(j))
    assert (code, out, err) == (0, stdout, "")
    assert sha256(json.dumps(read_json(j)["results"],
                             sort_keys=True).encode()) == results
    assert {kind: sha256(path.read_bytes())
            for kind, path in paths.items()} == files


def test_m_default_per_subcommand():
    subcommands = cli._build_parser()[1]
    assert {name: p.get_default("m") for name, p in subcommands.items()} == {
        "power": 65536, "curve": 1024, "crossover": 1024, "diagnose": 1024,
        "bench": 65536}


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

    @pytest.mark.parametrize("command,extra", [
        ("power", ["--n1", "10", "--n2", "10"]),
        ("curve", ["--m", "64"]),
    ])
    def test_alpha_whose_complement_rounds_to_one(self, capsys, command,
                                                  extra):
        # these used to fail inside t_quantile with "p must lie strictly
        # inside (0, 1)"
        for alpha in ("1e-300", "1e-17"):
            code, out, err = run(capsys, command, *DESIGN, "--alpha", alpha,
                                 *extra, "--seed", "1")
            assert code == 2 and out == ""
            assert "alpha must exceed 2 ** -54" in err

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

    @pytest.mark.parametrize("argv", [
        ["power", *DESIGN, "--n1", "10", "--n2", "10"],
        ["curve", *DESIGN],
        ["crossover", *CROSSOVER],
        ["diagnose", "--scenario", "s1_mu0", "--reps", "1"],
        ["bench", *DESIGN, "--grid", "3", "--reps", "2"],
    ], ids=lambda argv: argv[0])
    def test_config_m_applies(self, capsys, tmp_path, argv):
        # each subcommand has its own --m default; a config file's value
        # replaces it
        cfg = tmp_path / "m.cfg"
        cfg.write_text("m = 64\n")
        j = tmp_path / "r.json"
        code, _, _ = run(capsys, *argv, "--config", str(cfg), "--seed", "2",
                         "--json", str(j))
        assert code == 0
        assert read_json(j)["inputs"]["m"] == 64

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

    @pytest.mark.parametrize("message", ["Unable to allocate 24.0 TiB", ""])
    def test_memory_error_is_reported_without_traceback(self, capsys,
                                                        monkeypatch, message):
        # stands in for the allocation of --m 1099511627776 points, which
        # numpy refuses with a MemoryError
        def refuse(m, seed, sampler):
            raise MemoryError(message)

        monkeypatch.setattr(tost, "_unit_cube_points", refuse)
        code, out, err = run(capsys, "power", *DESIGN, "--n1", "20", "--n2",
                             "20", "--m", "1099511627776", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {message or 'MemoryError'}\n"

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

    def test_chow_comparator_at_huge_scale(self, capsys):
        # sigma_D ** 2 overflowed in the closed form, with a traceback
        code, out, err = run(capsys, "crossover", "--effect", "0",
                             "--sigma-d1", "1e153", "--sigma-d2", "1e153",
                             "--delta", "1e155", "--compare-chow", "--seed",
                             "1", "--m", "256")
        assert code == 0
        assert "Traceback" not in err
        assert "closed form: 2 per sequence" in out

    def test_alpha_whose_complement_rounds_to_one(self, capsys):
        code, out, err = run(capsys, "crossover", "--effect", "0.05",
                             "--sigma-d1", "0.4", "--sigma-d2", "0.3",
                             "--delta", "0.223", "--alpha", "1e-17",
                             "--compare-chow", "--seed", "1", "--m", "64")
        assert code == 2 and out == ""
        assert "alpha must exceed 2 ** -54" in err

    def test_effect_outside_limits(self, capsys):
        # the check names the crossover's own field, not the two-group
        # design's mu_diff
        code, out, err = run(capsys, "crossover", "--effect", "0.3",
                             "--sigma-d1", "0.4", "--sigma-d2", "0.3",
                             "--delta", "0.223", "--seed", "5")
        assert (code, out) == (2, "")
        assert err == ("error: F must lie strictly between delta_L and "
                       "delta_U\n")

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

    def test_preset_rejects_design_and_grid_values(self, capsys, tmp_path):
        # a preset fixes the design and the grid: every flag or config
        # value off its parser default is named, in one line
        code, out, err = run(capsys, "diagnose", "--scenario", "s1_mu0",
                             "--alpha", "0.1", "--delta", "19.2", "--m", "16",
                             "--reps", "1", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == ("error: --scenario presets fix the design and grid: "
                       "drop --delta, --alpha\n")
        cfg = tmp_path / "d.cfg"
        cfg.write_text("q = 2\nalpha = 0.05\nsigma2 = 15\n")
        code, out, err = run(capsys, "diagnose", "--scenario", "s1_mu0,s9",
                             "--config", str(cfg), "--m", "16", "--reps", "1",
                             "--seed", "1")
        assert (code, out) == (2, "")
        assert err == ("error: unknown scenario 's9'\n"
                       "error: --scenario presets fix the design and grid: "
                       "drop --sigma2, --q\n")

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

    def test_q_times_n_max_overflow(self, capsys):
        # q * n_max beyond the float range would scan n2 = inf
        code, out, err = run(capsys, "diagnose", *DESIGN, "--q", "1e308",
                             "--n-max", "10", "--m", "16", "--reps", "1",
                             "--seed", "1")
        assert (code, out) == (2, "")
        assert err == ("error: q * n_max = 1e+308 * 10 overflows the float "
                       "range\n")


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

    @pytest.mark.parametrize("grid", [",", "", " , ,"])
    def test_empty_grid(self, capsys, tmp_path, grid):
        # a grid of no n1 is an input error, not an empty table
        j = tmp_path / "bench.json"
        code, out, err = run(capsys, "bench", *DESIGN, "--grid", grid,
                             "--seed", "8", "--json", str(j))
        assert (code, out) == (2, "")
        assert err == ("error: --grid must list n1 values in the float "
                       "range\n")
        assert not j.exists()

    def test_q_times_n1_overflow(self, capsys):
        # q * n1 beyond the float range has no rounded group-2 size
        code, out, err = run(capsys, "bench", *DESIGN, "--q", "1e308",
                             "--grid", "3,5", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == ("error: q * n1 = 1e+308 * 3 overflows the float range\n"
                       "error: q * n1 = 1e+308 * 5 overflows the float range\n")

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


    def test_outputs_frozen_and_independent_of_cache_state(self, capsys,
                                                           tmp_path):
        # the segment engine runs the grid inside each replicate seed; the
        # stdout, CSV and JSON results are those of running the seeds
        # inside each n, and do not depend on what the stream cache holds
        from bepower.tost import _cached_points
        stdout = (
            "n1=   3  segment=0.0573 (sd 2.3e-03)  naive=0.0586 (sd 2.9e-02)\n"
            "n1=   5  segment=0.2109 (sd 1.7e-02)  naive=0.1875 (sd 2.4e-02)\n"
            "n1=   8  segment=0.4779 (sd 2.3e-03)  naive=0.4870 (sd 2.2e-02)\n")
        csv = ("n1,n2,mean_segment,sd_segment,mean_naive,sd_naive\n"
               "3,4,0.05729166667,0.002255274489,0.05859375,0.02949154076\n"
               "5,8,0.2109375,0.017026949,0.1875,0.02376079113\n"
               "8,12,0.4778645833,0.002255274489,0.4869791667,0.02151394745\n")
        rows = [[3, 4, 0.057291666666666664, 0.0022552744890219755,
                 0.05859375, 0.029491540762776366],
                [5, 8, 0.2109375, 0.017026948998205758, 0.1875,
                 0.02376079113397742],
                [8, 12, 0.4778645833333333, 0.0022552744890219755,
                 0.4869791666666667, 0.021513947450336336]]
        for warm in (False, True):
            if not warm:
                _cached_points.cache_clear()
            c, j = tmp_path / f"{warm}.csv", tmp_path / f"{warm}.json"
            code, out, _ = run(capsys, "bench", *DESIGN, "--q", "1.5",
                               "--grid", "3,5,8", "--m", "256", "--reps", "3",
                               "--seed", "8", "--csv", str(c), "--json", str(j))
            assert code == 0
            assert out == stdout
            assert c.read_text() == csv
            assert read_json(j)["results"]["rows"] == rows


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
    ["power", "--mu-diff", "-4", "--sigma1", "0.5", "--sigma2", "0.5",
     "--delta", "1e308", "--n1", "5", "--n2", "5", "--seed", "1"],
    ["curve", *DESIGN, "--m", "16", "--seed", "2", "--bound", "nan"],
    ["curve", *DESIGN, "--m", "16", "--seed", "2", "--tol", "nan"],
    ["curve", *DESIGN, "--m", "16", "--seed", "2", "--tol", "inf"],
    ["power", *DESIGN, "--n1", "1" + "0" * 400, "--n2", "5", "--seed", "1"],
    ["bench", *DESIGN, "--grid", "1" + "0" * 400, "--m", "16", "--reps",
     "1", "--seed", "1"],
    ["diagnose", "--scenario", "s1_mu0", "--n-max", "20", "--mu-diff", "5",
     "--m", "16", "--reps", "1", "--seed", "1"],
], ids=["n_max_1", "m_0", "mu_outside_limits", "diagnose_seed",
        "bench_seed", "group_size_1", "reps_0", "limit_lost_in_unit_form",
        "bound_nan", "tol_nan", "tol_inf",
        "n1_beyond_float_range", "grid_beyond_float_range",
        "preset_with_design_flags"])
def test_invalid_input_fails_cleanly(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("sigma1, sigma2", [("1e200", "15"), ("18", "2e153")],
                         ids=["sigma_squared_overflows",
                              "sample_variance_overflows"])
def test_former_overflow_designs_print_their_unit_twin(capsys, sigma1,
                                                       sigma2):
    # sigma ** 2, or the largest sample variance, overflows in the
    # design's units; computed in units of 2 ** e, the design prints what
    # its unit twin prints
    spec = _unit(DesignSpec(-4.0, float(sigma1), float(sigma2), -19.2,
                            19.2))[0]
    outs = []
    for design in (["--mu-diff", "-4", "--sigma1", sigma1, "--sigma2", sigma2,
                    "--delta", "19.2"],
                   [f"--mu-diff={spec.mu_diff!r}", "--sigma1",
                    repr(spec.sigma1), "--sigma2", repr(spec.sigma2),
                    "--delta", repr(spec.delta_U)]):
        code, out, err = run(capsys, "power", *design, "--n1", "5", "--n2",
                             "5", "--m", "4096", "--seed", "1")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
