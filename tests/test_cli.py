import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spaneg import cli, measures, shotsim
from spaneg.states import family_horodecki, random_mixed, save_state

ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("state", ["missing.json", "a_directory"])
    def test_unreadable_state_path_is_input_error(self, tmp_path, capsys, state):
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / state
        assert cli.run(["analyze", "--state", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unreadable state file {path}" in err
        assert os.listdir(tmp_path) == ["a_directory"]

    @pytest.mark.parametrize("out", ["missing/x.json", "a_directory"])
    def test_unwritable_out_path_is_usage_error(self, tmp_path, capsys, out):
        # A parent directory that does not exist cannot hold the partial
        # file; a directory cannot be replaced by the finished one.
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / out
        assert cli.run(["analyze", "--family", "bell", "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage error: --out {path}: ")
        assert os.listdir(tmp_path) == ["a_directory"]
        assert os.listdir(tmp_path / "a_directory") == []

    def test_format_flag_is_gone(self, capsys):
        assert cli.run(["spa-verify", "--format", "json"]) == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "bell", "--param", "0"],
        ["sweep", "--family", "horodecki"],
    ])
    def test_seed_flag_is_gone_where_unused(self, capsys, argv):
        assert cli.run(argv + ["--seed", "0"]) == 1
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["analyze"], ["sweep"], ["random-study"],
                                         ["simulate"], ["spa-verify"]])
    def test_help_returns_0_with_argparse_text(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            cli.build_parser().parse_args(command + ["--help"])
        assert exited.value.code == 0
        expected = capsys.readouterr().out
        assert cli.run(command + ["--help"]) == 0
        out, err = capsys.readouterr()
        assert out == expected and out.startswith(" ".join(["usage: spaneg", *command]))
        assert err == ""


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

    # SHA-256 of the `analyze` JSON, recorded when the parser was still built
    # per call and the payload went through dataclasses.asdict.
    GOLDEN = {
        "pure_m 0.3": "989334921408e2746961fa282572b81697f7aa657afb08667f5ff9d8fe33ff88",
        "horodecki 0.3": "40f238854f6daf86fb4a2519b347b8bdc617c2c9b8c6ef4e281e687fd373b216",
        "quasi 0.6": "0c0ed5ccbef106811d04c789c1ef56c0ac06baec386c7def552dc2ce0a2cb515",
        "bell 2": "e2b51f39e8c756854ba6fb9d535d11ac7842587c95048d349039e2039ef00304",
        # save_state(random_mixed(default_rng(5)))
        "state file": "2e84b08e13afe8089b52bc1af66c63d549d4c7e5a2e39842471d2e117fa78b6e",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, case):
        if case == "state file":
            path = tmp_path / "f.json"
            save_state(random_mixed(np.random.default_rng(5)), path)
            argv = ["analyze", "--state", str(path)]
        else:
            family, param = case.split()
            argv = ["analyze", "--family", family, "--param", param]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[case]


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        save_state(family_horodecki(0.5), path)
        sequence = [
            ["analyze", "--state", str(path)],
            ["analyze", "--family", "horodecki", "--param", "0.3"],
            ["analyze", "--bogus"],
            ["simulate", "--family", "bell", "--shots", "100", "--trials", "5", "--seed", "3"],
            ["random-study", "--count", "10"],
        ]

        def outcome(argv):
            code = cli.run(argv)
            return (code, *capsys.readouterr())

        shared = [outcome(argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
        assert shared == fresh

    def test_single_workload_matches_recorded_digest(self, tmp_path, monkeypatch):
        # The benchmark's 160 `analyze` requests at its default seed, in one
        # process, must print the bytes recorded in perfbench/reference.json.
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench import bench, workloads

        reference = bench.load_reference()
        rep = workloads.build("single", reference["default_seed"], tmp_path)
        ledger = bench.Ledger()
        _, digest, _ = bench.run_repetition(cli, rep, ledger)
        assert ledger.failed == 0, ledger.reasons
        assert digest == reference["digests"]["single"]


class TestSweep:
    # SHA-256 of `sweep --family F --points 101`, recorded from the per-point
    # implementation that preceded the stacked one.
    GOLDEN_101 = {
        "pure_m": "7e08228ef70fb0e0b3674dfd1eba407ea3a3064c3d4b028d234614e0ea88b211",
        "horodecki": "3cabbfe6d27488a9a39ebc4e3fbf16d5ac33a41b38ee5f992ae20465004e0be5",
        "quasi": "758995434ed2ee49805319ba484192055e8904673fd028f641e85e85b50f87af",
    }

    @pytest.mark.parametrize("family", sorted(GOLDEN_101))
    def test_golden_bytes(self, tmp_path, family):
        code, text = run_to_file(tmp_path, ["sweep", "--family", family, "--points", "101"])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_101[family]

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
        assert "the following arguments are required: --family" in capsys.readouterr().err

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


def _fail_on_call(monkeypatch, module, name, call):
    """Make module.name raise an input error on its call-th call (1-based)."""
    original = getattr(module, name)
    calls = []

    def stub(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise ValueError(f"stubbed failure of {name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, stub)


class TestStreaming:
    # random-study and sweep write one STUDY_CHUNK of rows at a time; the
    # second chunk's measurement is made to fail, after the first was written.
    FAILING = [
        (["random-study", "--count", "600", "--seed", "7"], "batch_report"),
        (["sweep", "--family", "horodecki", "--points", "600"], "pt_spectrum_batch"),
    ]

    @pytest.mark.parametrize("size", [255, 256, 257, 513])
    @pytest.mark.parametrize("argv", [
        ["random-study", "--seed", "3", "--count"],
        ["sweep", "--family", "pure_m", "--points"],
    ])
    def test_out_file_matches_stdout(self, tmp_path, capsys, argv, size):
        assert cli.run(argv + [str(size)]) == 0
        stdout = capsys.readouterr().out
        code, text = run_to_file(tmp_path, argv + [str(size)])
        assert code == 0 and text == stdout
        rows = [line for line in text.splitlines()[1:] if not line.startswith("# summary")]
        assert len(rows) == size
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("earlier", [None, "earlier run\n"])
    @pytest.mark.parametrize("argv, step", FAILING)
    def test_failed_run_leaves_out_path_as_it_was(
        self, tmp_path, monkeypatch, capsys, argv, step, earlier
    ):
        path = tmp_path / "out.csv"
        if earlier:
            path.write_text(earlier)
        _fail_on_call(monkeypatch, measures, step, 2)
        assert cli.run(argv + ["--out", str(path)]) == 2
        assert f"stubbed failure of {step}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == (["out.csv"] if earlier else [])
        if earlier:
            assert path.read_text() == earlier

    @pytest.mark.parametrize("argv, step", FAILING)
    def test_failed_run_on_stdout_has_first_chunk_and_no_summary(
        self, monkeypatch, capsys, argv, step
    ):
        assert cli.run(argv) == 0
        full = capsys.readouterr().out
        _fail_on_call(monkeypatch, measures, step, 2)
        assert cli.run(argv) == 2
        out = capsys.readouterr().out
        lines = out.split("\n")
        assert len(lines) == cli.STUDY_CHUNK + 2 and lines[-1] == ""
        assert full.startswith(out) and "# summary" not in out


class TestPeakRss:
    # Each child prints its exit code and its own peak resident set size (KiB).
    CHILD = (
        "import resource, sys\n"
        "from spaneg import cli\n"
        "code = cli.run(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # Linux carries the peak RSS of the memory a process replaces across exec,
    # so a child started from this test process would report at least this
    # process's peak.  A bare interpreter that imports only subprocess starts
    # each child instead.
    LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"

    def peak_rss_kib(self, tmp_path, argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.LAUNCHER, sys.executable, "-c", self.CHILD,
             *argv, "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, check=True,
        )
        code, kib = map(int, proc.stdout.split())
        assert code == 0
        return kib

    @pytest.mark.parametrize("argv", [
        ["random-study", "--count"],
        ["sweep", "--family", "horodecki", "--points"],
    ])
    def test_memory_does_not_grow_with_run_size(self, tmp_path, argv):
        small = self.peak_rss_kib(tmp_path, argv + ["1000"])
        large = self.peak_rss_kib(tmp_path, argv + ["50000"])
        assert large - small <= 5 * 1024, f"peak RSS {small} KiB at 1000, {large} KiB at 50000"


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


class _Reached(Exception):
    pass


class TestSizeCaps:
    # (argv without the size flag, flag, cap, module and name of the worker it guards)
    CAPS = [
        (["random-study"], "--count", cli.MAX_COUNT, cli, "random_study_rows"),
        (["sweep", "--family", "pure_m"], "--points", cli.MAX_POINTS, cli, "sweep_rows"),
        (["simulate", "--family", "bell"], "--trials", cli.MAX_TRIALS, shotsim, "estimate_negativity"),
        (["simulate", "--family", "bell"], "--shots", cli.MAX_SHOTS, shotsim, "estimate_negativity"),
    ]

    @staticmethod
    def _guard(monkeypatch, module, name):
        def reached(*args, **kwargs):
            raise _Reached(name)

        monkeypatch.setattr(module, name, reached)

    @pytest.mark.parametrize("argv, flag, cap, module, worker", CAPS)
    def test_over_cap_is_usage_error_before_any_work(
        self, monkeypatch, capsys, argv, flag, cap, module, worker
    ):
        self._guard(monkeypatch, module, worker)
        assert cli.run(argv + [flag, str(cap + 1)]) == 1
        assert f"{flag} must be <= {cap}, got {cap + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, cap, module, worker", CAPS)
    def test_cap_itself_is_accepted(self, monkeypatch, argv, flag, cap, module, worker):
        self._guard(monkeypatch, module, worker)
        with pytest.raises(_Reached):
            cli.run(argv + [flag, str(cap)])

    def test_huge_shots_is_a_usage_error_not_a_traceback(self, monkeypatch, capsys):
        self._guard(monkeypatch, shotsim, "estimate_negativity")
        argv = ["simulate", "--family", "bell", "--shots", "100000000000000000000"]
        assert cli.run(argv) == 1
        assert "--shots must be <= 9007199254740992" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, module, worker", [
        (["random-study"], cli, "random_study_rows"),
        (["simulate", "--family", "bell"], shotsim, "estimate_negativity"),
        (["spa-verify"], cli, "spa_verify_report"),
    ])
    def test_negative_seed_is_usage_error(self, monkeypatch, capsys, argv, module, worker):
        self._guard(monkeypatch, module, worker)
        assert cli.run(argv + ["--seed", "-1"]) == 1
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

    # (argv without the flag, flag, least value, module and name of the worker it guards)
    FLOORS = [
        (["random-study"], "--count", 1, cli, "random_study_rows"),
        (["sweep", "--family", "pure_m"], "--points", 2, cli, "sweep_rows"),
        (["simulate", "--family", "bell"], "--trials", 1, shotsim, "estimate_negativity"),
        (["simulate", "--family", "bell"], "--shots", 1, shotsim, "estimate_negativity"),
    ]

    @pytest.mark.parametrize("argv, flag, least, module, worker", FLOORS)
    def test_under_floor_is_usage_error_before_any_work(
        self, monkeypatch, capsys, argv, flag, least, module, worker
    ):
        self._guard(monkeypatch, module, worker)
        assert cli.run(argv + [flag, str(least - 1)]) == 1
        assert f"usage error: {flag} must be >= {least}, got {least - 1}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, least, module, worker", FLOORS)
    def test_floor_itself_is_accepted(self, monkeypatch, argv, flag, least, module, worker):
        self._guard(monkeypatch, module, worker)
        with pytest.raises(_Reached):
            cli.run(argv + [flag, str(least)])

    def test_limits_are_checked_before_the_state_is_read(self, tmp_path, capsys):
        argv = ["simulate", "--state", str(tmp_path / "missing.json"), "--trials", "0"]
        assert cli.run(argv) == 1
        assert "--trials must be >= 1, got 0" in capsys.readouterr().err

    def test_every_integer_flag_has_limits(self):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        int_flags = {
            action.dest
            for parser in subparsers.choices.values()
            for action in parser._actions
            if action.type is int
        }
        assert int_flags == set(cli._LIMITS)


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
