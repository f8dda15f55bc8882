import hashlib
import json

import numpy as np
import pytest

from spaneg import cli
from spaneg.states import family_horodecki, save_state


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code = cli.run(argv + ["--out", str(path)])
    return code, path.read_text() if path.exists() else None


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.run(["analyze", "--bogus"]) == 1

    def test_missing_param_is_usage_error(self, capsys):
        assert cli.run(["analyze", "--family", "horodecki"]) == 1

    def test_missing_state_is_usage_error(self, capsys):
        assert cli.run(["analyze"]) == 1

    def test_bad_state_file_is_input_error(self, tmp_path, capsys):
        bad = np.eye(4) / 4 * 0.9  # trace 0.9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"re": bad.tolist(), "im": np.zeros((4, 4)).tolist()}))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert "trace" in err and "1.000e-01" in err

    def test_out_of_range_param_is_input_error(self, capsys):
        assert cli.run(["analyze", "--family", "horodecki", "--param", "1.5"]) == 2

    def test_non_integral_bell_index_is_input_error(self, capsys):
        assert cli.run(["analyze", "--family", "bell", "--param", "1.9"]) == 2
        assert "bell index" in capsys.readouterr().err

    def test_integral_float_bell_index_is_accepted(self, tmp_path):
        code, text = run_to_file(tmp_path, ["analyze", "--family", "bell", "--param", "2.0"])
        assert code == 0
        assert json.loads(text)["nd"] == pytest.approx(1.0, abs=1e-12)

    def test_nan_state_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        re = (np.eye(4) / 4).tolist()
        re[0][0] = float("nan")
        path.write_text(json.dumps({"re": re, "im": np.zeros((4, 4)).tolist()}))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert "non-finite entries" in err and "mu_min" not in err

    def test_format_flag_is_gone(self, capsys):
        assert cli.run(["spa-verify", "--format", "json"]) == 1


class TestAnalyze:
    def test_bell(self, tmp_path):
        code, text = run_to_file(tmp_path, ["analyze", "--family", "bell"])
        assert code == 0
        payload = json.loads(text)
        assert payload["nd"] == pytest.approx(1.0, abs=1e-12)
        assert payload["nn"] == pytest.approx(1.0, abs=1e-12)
        assert payload["ppt"] is False
        assert "bias" in payload

    def test_horodecki(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["analyze", "--family", "horodecki", "--param", "0.5"]
        )
        assert code == 0
        assert json.loads(text)["nd"] == pytest.approx(0.2071067811865475, abs=1e-12)

    def test_state_file(self, tmp_path):
        path = tmp_path / "h.json"
        save_state(family_horodecki(0.5), path)
        code, text = run_to_file(tmp_path, ["analyze", "--state", str(path)])
        assert code == 0
        assert json.loads(text)["mu_min"] == pytest.approx(0.2107162899340807, abs=1e-12)


class TestSweep:
    def test_header_and_rows(self, tmp_path):
        code, text = run_to_file(tmp_path, ["sweep", "--family", "pure_m", "--points", "11"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "param,nd_definition,nd_closed_form,mu_min,nn_pipeline,nn_closed_form,abs_gap"
        assert len(lines) == 12

    def test_unknown_family(self, capsys):
        assert cli.run(["sweep", "--family", "bell"]) == 1

    def test_requires_family(self, capsys):
        assert cli.run(["sweep"]) == 1

    def test_quasi_closed_form(self, tmp_path):
        code, text = run_to_file(tmp_path, ["sweep", "--family", "quasi", "--points", "21"])
        assert code == 0
        for line in text.strip().split("\n")[1:]:
            cols = [float(x) for x in line.split(",")]
            assert abs(cols[1] - cols[2]) <= 1e-12  # nd vs negconeq closed form
            assert abs(cols[4] - cols[5]) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        _, a = run_to_file(tmp_path, ["sweep", "--family", "horodecki"], "a.csv")
        _, b = run_to_file(tmp_path, ["sweep", "--family", "horodecki"], "b.csv")
        assert a == b
        assert "\r" not in a


class TestRandomStudy:
    # SHA-256 of `random-study --count 600 --seed 7`, recorded from the
    # per-state implementation that preceded the chunked batch path.
    GOLDEN_600_SEED_7 = "a48a02079f70728e53475fd6390491cc634692074d56fc49df0db7daf4c34879"

    def test_golden_bytes(self, tmp_path):
        # 600 states span three chunks, the last one partial.
        assert 2 * cli.STUDY_CHUNK < 600 < 3 * cli.STUDY_CHUNK
        _, text = run_to_file(tmp_path, ["random-study", "--count", "600", "--seed", "7"])
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_600_SEED_7

    def test_shorter_run_is_a_prefix(self, tmp_path):
        _, short = run_to_file(tmp_path, ["random-study", "--count", "300", "--seed", "7"], "a.csv")
        _, long = run_to_file(tmp_path, ["random-study", "--count", "600", "--seed", "7"], "b.csv")
        short_rows = short.split("\n")[:-2]
        long_rows = long.split("\n")[:-2]
        assert len(short_rows) == 301 and len(long_rows) == 601
        assert short_rows == long_rows[:301]

    def test_small_run(self, tmp_path):
        code, text = run_to_file(
            tmp_path, ["random-study", "--count", "200", "--seed", "11"]
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "seed_index,rank,nd,nn,mu_min,concurrence,ppt,neg_pt_eigs"
        assert lines[-1].startswith("# summary,")
        assert len(lines) == 202
        for line in lines[1:-1]:
            cols = line.split(",")
            assert int(cols[7]) <= 1
            assert cols[6] in ("true", "false")

    def test_summary_reports_no_violations(self, tmp_path):
        _, text = run_to_file(tmp_path, ["random-study", "--count", "100", "--seed", "3"])
        summary = text.strip().split("\n")[-1]
        tight = float(summary.split("max_tightness_violation=")[1].split(",")[0])
        universal = float(summary.split("max_universal_relation_violation=")[1].split(",")[0])
        assert tight <= 1e-10 and universal <= 1e-10

    def test_byte_identical_reruns(self, tmp_path):
        _, a = run_to_file(tmp_path, ["random-study", "--count", "50", "--seed", "4"], "a.csv")
        _, b = run_to_file(tmp_path, ["random-study", "--count", "50", "--seed", "4"], "b.csv")
        assert a == b

    def test_bad_count(self, capsys):
        assert cli.run(["random-study", "--count", "0"]) == 1


class TestSimulate:
    def test_bell(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            ["simulate", "--family", "bell", "--shots", "1000000", "--trials", "100",
             "--seed", "5"],
        )
        assert code == 0
        payload = json.loads(text)
        assert abs(payload["mean_nn"] - 1.0) <= 0.01
        assert payload["exact_nn"] == pytest.approx(1.0, abs=1e-12)
        assert payload["clamp_count"] >= 0

    def test_seed_determinism(self, tmp_path):
        args = ["simulate", "--family", "horodecki", "--param", "0.8",
                "--shots", "1000", "--trials", "20", "--seed", "6"]
        _, a = run_to_file(tmp_path, args, "a.json")
        _, b = run_to_file(tmp_path, args, "b.json")
        assert a == b

    def test_bad_counts(self, capsys):
        assert cli.run(["simulate", "--family", "bell", "--shots", "0"]) == 1


class TestSpaVerify:
    # SHA-256 of `spa-verify --seed N`, recorded from the per-state
    # implementation that preceded the chunked batch path.
    GOLDEN = {
        "1": "e5982d5e23649bf6e3ac983c5ea872253a8d736e7231f70b1d707ac4e70caef8",
        "2": "997a4f925734c1a40a9d3d30e646ca68042b37e4ad24cf528c6f433ea206e985",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, seed):
        code, text = run_to_file(tmp_path, ["spa-verify", "--seed", seed])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[seed]

    def test_report_content_and_exit(self, tmp_path):
        code, text = run_to_file(tmp_path, ["spa-verify", "--seed", "1"])
        assert code == 0
        assert "POVM completeness residual" in text
        assert "compositional vs affine" in text
        assert "Choi(pt)" in text and "NOT CP" in text
        assert "affine invariants: PASS" in text

    def test_stable_across_seeds(self, tmp_path):
        for seed in ("1", "2"):
            code, text = run_to_file(tmp_path, ["spa-verify", "--seed", seed], f"v{seed}.txt")
            assert code == 0
            assert "affine invariants: PASS" in text
