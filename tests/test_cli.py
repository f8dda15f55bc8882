import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spaneg import cli, linalg, measures, shotsim, states
from spaneg.states import DensityMatrix, from_spec, random_mixed_batch, save_state

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

    def test_huge_bell_index_is_echoed_as_given(self, capsys):
        # int(1e300) would print 301 digits.
        assert cli.run(["analyze", "--family", "bell", "--param", "1e300"]) == 2
        assert capsys.readouterr() == ("", "input error: bell index must be an integer 0..3, got 1e+300\n")

    @pytest.mark.parametrize("entries, shown", [
        # np.asarray(dtype=float) parses "0.25", and takes true and false as
        # 1.0 and 0.0: that file read as |00><00|.
        (lambda j, k: str(0.25 * (j == k)), "a string"),
        (lambda j, k: j == k == 0, "a boolean"),
    ], ids=["strings", "booleans"])
    def test_state_file_entry_that_is_not_a_number_is_input_error(self, tmp_path, capsys, entries, shown):
        path = tmp_path / "entries.json"
        re = [[entries(j, k) for k in range(4)] for j in range(4)]
        path.write_text(json.dumps({"re": re, "im": [[0] * 4] * 4}))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"input error: invalid density matrix: unreadable state file {path}: "
            f"re[0][0] is {shown}, not a number\n"
        ))

    def test_state_file_with_a_key_given_twice_is_input_error(self, tmp_path, capsys):
        # json.loads alone keeps the last "re", a valid state, and the first
        # (trace 0.9) would go unseen.
        path = tmp_path / "twice.json"
        zeros, valid = json.dumps(np.zeros((4, 4)).tolist()), json.dumps((np.eye(4) / 4).tolist())
        path.write_text(f'{{"re": {json.dumps((np.eye(4) / 4 * 0.9).tolist())}, "im": {zeros}, "re": {valid}}}')
        assert cli.run(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"input error: invalid density matrix: unreadable state file {path}: duplicate key 're'\n"
        ))

    def test_state_file_with_a_byte_order_mark_is_input_error(self, tmp_path, capsys):
        # json.loads rejects a leading BOM before it decodes; a decoder's own
        # decode() would name the same file "Expecting value".
        path = tmp_path / "bom.json"
        valid = {"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
        path.write_text("\ufeff" + json.dumps(valid), encoding="utf-8")
        assert cli.run(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"input error: invalid density matrix: unreadable state file {path}: "
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
        ))

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

    @pytest.mark.parametrize("entries", [
        {(0, 0): 1.5e308, (1, 1): -1.5e308, (2, 2): 0.5, (3, 3): 0.5},
        {(0, 0): 0.25, (1, 1): 0.25, (2, 2): 0.25, (3, 3): 0.25, (0, 1): 1.5e308, (1, 0): 1.5e308},
    ], ids=["diagonal", "hermitian-pair"])
    def test_overflowing_state_file_is_input_error(self, tmp_path, capsys, entries):
        # Finite entries whose Hermitian part (M + M^dag) / 2 overflows are a
        # named violation, with no eigensolve and no warning (a RuntimeWarning
        # would fail this test).
        re = np.zeros((4, 4))
        for at, value in entries.items():
            re[at] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"re": re.tolist(), "im": np.zeros((4, 4)).tolist()}))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            "input error: invalid density matrix: "
            "entries too large: (M + M^dag) / 2 overflows in 2 of 16\n"
        ))

    @pytest.mark.parametrize("state", ["missing.json", "a_directory"])
    def test_unreadable_state_path_is_input_error(self, tmp_path, capsys, state):
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / state
        assert cli.run(["analyze", "--state", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unreadable state file {path}" in err
        assert os.listdir(tmp_path) == ["a_directory"]

    def test_deeply_nested_state_file_is_input_error(self, tmp_path, capsys):
        # json.loads of 100 000 nested arrays raises RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert cli.run(["analyze", "--state", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unreadable state file {path}" in err
        assert "Traceback" not in err

    def test_integer_literal_past_float_range_is_input_error(self, tmp_path, capsys):
        # A 400-digit integer parses as a Python int; float() of it raises
        # OverflowError, not ValueError.
        path = tmp_path / "big_int.json"
        re = json.dumps((np.eye(4) / 4).tolist()).replace("0.25", "1" * 400, 1)
        path.write_text('{"re": %s, "im": %s}' % (re, json.dumps(np.zeros((4, 4)).tolist())))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unreadable state file {path}" in err

    def test_infinite_imaginary_entry_is_input_error(self, tmp_path, capsys):
        # 1j * inf is NaN; the RuntimeWarning it raises must not reach the
        # caller (here it would be an error) before validate rejects the state.
        path = tmp_path / "inf.json"
        im = np.zeros((4, 4)).tolist()
        im[0][1] = float("inf")
        path.write_text(json.dumps({"re": (np.eye(4) / 4).tolist(), "im": im}))
        assert cli.run(["analyze", "--state", str(path)]) == 2
        assert "non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_state_file_size_cap(self, tmp_path, capsys, extra, code):
        # A valid state padded with trailing whitespace to the cap parses; one
        # byte more is rejected before parsing.
        path = tmp_path / "big.json"
        save_state(from_spec("bell"), path)
        text = path.read_text()
        path.write_text(text + " " * (states.MAX_STATE_BYTES + extra - len(text)))
        assert path.stat().st_size == states.MAX_STATE_BYTES + extra
        assert cli.run(["analyze", "--state", str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == ""
            assert f"unreadable state file {path}: larger than {states.MAX_STATE_BYTES} bytes" in err
        else:
            assert json.loads(out)["nn"] == pytest.approx(1.0)

    @pytest.mark.parametrize("out", ["missing/x.json", "a_directory", "a\0b"])
    def test_unwritable_out_path_is_usage_error(self, tmp_path, capsys, out):
        # A parent directory that does not exist cannot hold the partial
        # file; a directory cannot be replaced by the finished one; no file
        # name holds a NUL byte.
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / out
        # A NUL byte does not print, so the message shows the path's repr.
        shown = repr(str(path)) if "\0" in out else str(path)
        assert cli.run(["analyze", "--family", "bell", "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage error: --out {shown}: ")
        assert os.listdir(tmp_path) == ["a_directory"]
        assert os.listdir(tmp_path / "a_directory") == []

    def test_empty_out_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # An empty --out names no file; only a missing --out is stdout.
        monkeypatch.chdir(tmp_path)
        assert cli.run(["analyze", "--family", "bell", "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "usage error: --out '': empty path\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--state", ""],
        ["analyze", "--family", "bell", "--state", ""],
        ["simulate", "--family", "bell", "--state", ""],
    ])
    def test_empty_state_path_is_usage_error(self, capsys, argv):
        # An empty --state names no file; only a missing --state is absent.
        assert cli.run(argv) == 1
        assert capsys.readouterr() == ("", "usage error: --state '': empty path\n")

    @pytest.mark.parametrize("name", ["a\0b", "a\x01b", "a\ud800b"])
    def test_unprintable_state_path_is_shown_as_its_repr(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert cli.run(["analyze", "--state", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unreadable state file {str(path)!r}: " in err
        assert err.endswith("\n") and err[:-1].isprintable()

    # The \x01 path lies in a directory that does not exist, so that its
    # partial file cannot be created.
    @pytest.mark.parametrize("name", ["a\0b", "a\x01b/out.json", "a\ud800b"])
    def test_unprintable_out_path_is_shown_as_its_repr(self, tmp_path, capsys, name):
        path = tmp_path / name
        assert cli.run(["analyze", "--family", "bell", "--out", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage error: --out {str(path)!r}: ")
        assert err.endswith("\n") and err[:-1].isprintable()
        assert os.listdir(tmp_path) == []

    def test_eigensolve_that_does_not_converge_is_input_error(self, monkeypatch, capsys):
        # A LAPACK run that does not converge sets the invalid flag; the
        # helper's error state turns that into numpy's LinAlgError, exit 2.
        u = np.linalg._umath_linalg
        stub = SimpleNamespace(eigh_lo=lambda a, signature: u.eigh_lo(a * np.nan, signature=signature))
        monkeypatch.setattr(linalg, "_umath_linalg", stub)
        monkeypatch.setattr(linalg, "_gufuncs_match", lambda: True)
        assert cli.run(["analyze", "--family", "bell"]) == 2
        assert capsys.readouterr() == ("", "input error: Eigenvalues did not converge\n")

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
        save_state(from_spec("horodecki", 0.5), path)
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
        # save_state of random_mixed_batch(default_rng(5), 1)[0]
        "state file": "2e84b08e13afe8089b52bc1af66c63d549d4c7e5a2e39842471d2e117fa78b6e",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, case):
        if case == "state file":
            path = tmp_path / "f.json"
            save_state(DensityMatrix(mat=random_mixed_batch(np.random.default_rng(5), 1)[0]), path)
            argv = ["analyze", "--state", str(path)]
        else:
            family, param = case.split()
            argv = ["analyze", "--family", family, "--param", param]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[case]

    @staticmethod
    def _gufuncs_without_svd():
        # numpy 1.x names the values-only SVD gufunc svd_n.
        u = np.linalg._umath_linalg
        return SimpleNamespace(eigh_lo=u.eigh_lo, eigvalsh_lo=u.eigvalsh_lo, svd_n=u.svd)

    @staticmethod
    def _gufuncs_one_ulp_off():
        # An eigh_lo whose eigenvalues are one ulp above np.linalg's: the check
        # must catch it, and its bits must reach no output.
        u = np.linalg._umath_linalg

        def eigh_lo(a, signature):
            w, v = u.eigh_lo(a, signature=signature)
            return np.nextafter(w, np.inf), v
        return SimpleNamespace(eigh_lo=eigh_lo, eigvalsh_lo=u.eigvalsh_lo, svd=u.svd)

    @pytest.mark.parametrize("gufuncs", ["_gufuncs_without_svd", "_gufuncs_one_ulp_off"])
    def test_golden_bytes_through_the_numpy_fallback(self, tmp_path, monkeypatch, gufuncs):
        # A fresh cache, so that this test takes the check again and its
        # verdict is dropped with the patch.
        monkeypatch.setattr(linalg, "_umath_linalg", getattr(self, gufuncs)())
        monkeypatch.setattr(linalg, "_gufuncs_match", functools.cache(linalg._gufuncs_match.__wrapped__))
        for case in sorted(self.GOLDEN):
            self.test_golden_bytes(tmp_path, case)
        assert linalg._gufuncs_match.cache_info().currsize == 1 and linalg._gufuncs_match() is False

    @staticmethod
    def _template_cases():
        rng = np.random.default_rng(1313)
        for rank in (1, 2, 3, 4):
            for rho in random_mixed_batch(rng, 25, rank=rank):
                yield f"random rank {rank}", DensityMatrix(mat=rho)
        for family in ("pure_m", "horodecki", "quasi"):
            for param in (0.0, 1.0, 0.3, 0.5, 0.8, float(rng.uniform())):
                yield f"{family} {param}", from_spec(family, param)
        for index in range(4):
            yield f"bell {index}", states.bell_state(index)

    def test_template_matches_json_dumps(self):
        # The analyze text is a fixed template; json.dumps of the report's
        # non-None fields is its oracle.
        optional = set()
        for case, rho in self._template_cases():
            report = measures.full_report(rho)
            payload = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
            assert cli._analyze_text(report) == json.dumps(payload, indent=1) + "\n", case
            optional.add((report.concurrence_pure_est is None, report.concurrence_quasi_est is None))
        # Every combination of the two optional fields was printed.
        assert optional == {(a, b) for a in (True, False) for b in (True, False)}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "quasi", "--param", "0.4"],
        ["analyze", "--family", "horodecki", "--param", "0.4"],
    ])
    def test_printed_text_matches_json_dumps(self, capsys, argv):
        assert cli.run(argv) == 0
        report = measures.full_report(from_spec(argv[2], float(argv[4])))
        payload = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
        assert capsys.readouterr().out == json.dumps(payload, indent=1) + "\n"


class TestOutTargets:
    # --out follows a symlink to its target and writes a FIFO straight through;
    # a regular PATH is replaced by an atomic rename.
    ARGV = ["analyze", "--family", "bell"]

    @pytest.fixture
    def expected(self, capsys):
        assert cli.run(self.ARGV) == 0
        return capsys.readouterr().out

    def test_fifo_is_written_through(self, tmp_path, expected):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as f:  # blocks until the CLI opens the FIFO
                got.append(f.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert cli.run(self.ARGV + ["--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive(), "the CLI never opened the FIFO"
        assert got == [expected.encode()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    @pytest.mark.parametrize("relative", [False, True])
    def test_symlink_is_followed_to_its_target(self, tmp_path, expected, relative):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "out.json"
        target.write_text("earlier run\n")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("real", "out.json") if relative else target)
        before = os.readlink(link)
        assert cli.run(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == before
        assert target.read_text() == expected
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real"]
        assert os.listdir(tmp_path / "real") == ["out.json"]

    def test_dangling_symlink_creates_its_target(self, tmp_path, expected):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "new.json")
        assert cli.run(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and (tmp_path / "new.json").read_text() == expected

    def test_failed_run_leaves_symlink_target_as_it_was(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "out.csv"
        target.write_text("earlier run\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        _fail_on_call(monkeypatch, measures, "batch_report", 2)
        argv = ["random-study", "--count", "600", "--out", str(link)]
        assert cli.run(argv) == 2
        assert "stubbed failure of batch_report" in capsys.readouterr().err
        assert link.is_symlink() and target.read_text() == "earlier run\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "out.csv"]


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_leaks_between_calls(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        save_state(from_spec("horodecki", 0.5), path)
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


# An argv of each subcommand that runs.
_VALID = {
    "analyze": ["--family", "bell"],
    "sweep": ["--family", "pure_m", "--points", "3"],
    "random-study": ["--count", "3"],
    "simulate": ["--family", "bell", "--shots", "100", "--trials", "3"],
    "spa-verify": ["--seed", "1"],
}


def _routing_argvs():
    """For each subcommand: a valid run, help, an unknown flag, a missing flag,
    bad values, an abbreviated and an ambiguous flag, "--" before a token, a
    repeated flag, and each integer flag at and past the edges of its range."""
    for command, valid in _VALID.items():
        argvs = [valid, ["--help"], valid + ["--bogus"], [], ["--", *valid], valid + ["--", "x"],
                 valid + valid[:2], [valid[0][:5], *valid[1:]], ["--s", "1"]]
        if "--family" in valid:
            argvs += [["--param", "0.5"], ["--family", "horodecki", "--param", "x"]]
        for name in [a.dest for a in cli.build_parser().commands[command]._actions if a.type is int]:
            least, greatest = cli._LIMITS[name]
            edges = [least - 1, least] + ([greatest, greatest + 1] if greatest else [2**64])
            argvs += [valid + [f"--{name}", value] for value in ["1.5", "x", *map(str, edges)]]
        yield from ([command, *argv] for argv in argvs)


class TestRouting:
    # cli.run hands an argv that starts with a subcommand's name to that
    # subcommand's parser alone; every outcome must be the top-level parser's.
    @staticmethod
    def outcome(capsys, argv):
        code = cli.run(argv)
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", list(_routing_argvs()), ids=" ".join)
    def test_same_outcome_as_through_the_top_level_parser(self, monkeypatch, capsys, argv):
        _shrink_workers(monkeypatch)
        routed = self.outcome(capsys, argv)
        monkeypatch.setattr(cli.build_parser(), "commands", {})
        assert self.outcome(capsys, argv) == routed

    @pytest.mark.parametrize("argv, code, text", [
        ([], 1, "the following arguments are required: command"),
        (["-h"], 0, "usage: spaneg [-h] {analyze,sweep,random-study,simulate,spa-verify}"),
        (["bogus"], 1, "argument command: invalid choice: 'bogus'"),
        (["--fam"], 1, "the following arguments are required: command"),
    ])
    def test_other_argv_reaches_the_top_level_parser(self, monkeypatch, capsys, argv, code, text):
        parser = cli.build_parser()
        calls = []
        parse = parser.parse_known_args
        monkeypatch.setattr(parser, "parse_known_args", lambda *args: calls.append(args) or parse(*args))
        outcome = self.outcome(capsys, argv)
        assert len(calls) == 1
        assert outcome[0] == code and text in outcome[1] + outcome[2]

    def test_a_named_command_is_parsed_once(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the top-level parser ran")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert cli.run(["analyze", "--family", "bell"]) == 0

    @staticmethod
    def main(*argv):
        # main() reads sys.argv, which no in-process test sets.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", "from spaneg.cli import main; main()", *argv],
                              env=env, capture_output=True)

    def test_console_entry_point(self):
        proc = self.main("analyze", "--family", "bell")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "0ce2cbb6c8016ab7e5ff17e0dd580d2d1d521088e6261bb7e7c1d1933360f351")
        proc = self.main()
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"usage error: the following arguments are required: command\n"


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

    def test_all_ppt_study_reports_no_negative_eigenvalue(self, tmp_path):
        # The one state of seed 13 is PPT, so the summary's maximum is that of
        # no negative eigenvalue at all, not of a count seen in some row.
        code, text = run_to_file(tmp_path, ["random-study", "--count", "1", "--seed", "13"])
        assert code == 0
        _, row, summary = text.strip().split("\n")
        assert row.split(",")[6:] == ["true", "0"]
        assert summary.endswith(",max_neg_pt_eigs=0")

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


class TestStartup:
    # The child prints, after each step, which of the shot modules it holds.
    # It runs in a fresh interpreter, as this process imported them already.
    CHILD = (
        "import sys\n"
        "shot = ('spaneg.shotsim', 'spaneg.btpe')\n"
        "def loaded(step):\n"
        "    print(step, *[name for name in shot if name in sys.modules])\n"
        "import spaneg\n"
        "loaded('package')\n"
        "import spaneg.cli\n"
        "loaded('cli')\n"
        "from spaneg import ShotEstimate, estimate_negativity\n"
        "from spaneg import shotsim\n"
        "print('same', ShotEstimate is shotsim.ShotEstimate,"
        " estimate_negativity is shotsim.estimate_negativity)\n"
        "try:\n"
        "    getattr(spaneg, 'no_such_name')\n"
        "except AttributeError as exc:\n"
        "    print('missing', exc)\n"
        "print('simulate', spaneg.cli.run(['simulate', '--family', 'bell', '--trials', '20',"
        " '--out', sys.argv[1]]))\n"
    )

    def test_shot_machinery_loads_on_first_use(self, tmp_path):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", self.CHILD, str(tmp_path / "out.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "package",
            "cli",
            "same True True",
            "missing module 'spaneg' has no attribute 'no_such_name'",
            "simulate 0",
        ]
        assert json.loads((tmp_path / "out.json").read_text())["trials"] == 20


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

    # SHA-256 of `simulate --shots 1000 --trials 40 --seed 3`, recorded while
    # estimate_negativity still called the per-state negativity_normalized.
    GOLDEN = {
        "bell": "8806464e7c107ce17a5092c56a7a0431f3ce7b1a13af8043ea5e1cbadab4e6d8",
        "horodecki 0.8": "b7a067bd12537ba2d6878562b92d45e43d15d3b9b5cca9acf88213838a6284ec",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, case):
        family, *param = case.split()
        argv = ["simulate", "--family", family, *(["--param", *param] if param else []),
                "--shots", "1000", "--trials", "40", "--seed", "3"]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN[case]

    # SHA-256 of `simulate --shots 1000 --trials 5000 --seed 2**64 - 2000`, recorded
    # while the seeding was hashed 256 trials at a time and each state was set
    # through bit_generator.state.  The run spans more than one seed chunk
    # (shotsim.SEED_CHUNK), and its seeds carry past 2**64.
    GOLDEN_5000 = {
        "bell": "237e240db918fe751df30323428a71ff98034acdd6ba63932536fe23e9590d6f",
        "horodecki 0.8": "2bb5acc6e47cded69135bff0403eb62c713650e7e2ece80f99d8559eb4e2f291",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_5000))
    def test_golden_bytes_across_seed_chunks(self, tmp_path, case):
        assert 5000 > shotsim.SEED_CHUNK
        family, *param = case.split()
        argv = ["simulate", "--family", family, *(["--param", *param] if param else []),
                "--shots", "1000", "--trials", "5000", "--seed", str(2**64 - 2000)]
        code, text = run_to_file(tmp_path, argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == self.GOLDEN_5000[case]


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


def test_golden_bytes_through_the_trace_fallback(tmp_path, monkeypatch):
    # Adds in the order np.trace takes on a Fortran-ordered stack, which rounds
    # differently: the check must catch it, and its bits must reach no output.
    monkeypatch.setattr(linalg, "_adds", lambda m: np.trace(np.asfortranarray(m), axis1=1, axis2=2))
    monkeypatch.setattr(linalg, "_adds_match", functools.cache(linalg._adds_match.__wrapped__))
    for seed in sorted(TestSpaVerify.GOLDEN):
        TestSpaVerify().test_golden_bytes(tmp_path, seed)
    TestRandomStudy().test_golden_bytes(tmp_path)
    assert linalg._adds_match.cache_info().currsize == 1 and linalg._adds_match() is False


# A property over the whole boundary: state-file texts made by mutating a
# valid file, and argv drawn from each subcommand's flags with values at and
# beyond each _LIMITS edge.  Whatever is drawn, cli.run returns an exit code
# of the contract and raises nothing, leaves no .partial file, and writes
# --out only on exit 0.
_RE = json.dumps((np.eye(4) / 4).tolist()).encode()
_IM = json.dumps(np.zeros((4, 4)).tolist()).encode()
_STATE = b'{"re": ' + _RE + b', "im": ' + _IM + b"}"
_NUMBERS = [m.span() for m in re.finditer(rb"-?[0-9.]+", _STATE)]
# Each a JSON value of a type a state file does not hold where it stands.
_WRONG = [b'"abc"', b"1", b"-2.5", b"{}", b'{"re": 1}', b"null", b"true", b"[]", b'["a"]', b"[[1, 2], [3]]"]


def _with_number(at: int, literal: bytes) -> bytes:
    start, end = _NUMBERS[at % len(_NUMBERS)]
    return _STATE[:start] + literal + _STATE[end:]


def _with_pair(at: int, literal: bytes) -> bytes:
    """The state with entry `at` of its real part and its transpose both set to
    `literal`: still Hermitian where the literal parses to a finite float."""
    row, col = divmod(at % 16, 4)
    text = _STATE
    for k in sorted({4 * row + col, 4 * col + row}, reverse=True):
        start, end = _NUMBERS[k]
        text = text[:start] + literal + text[end:]
    return text


# Entries near float64's maximum: finite ones whose Hermitian part overflows,
# and 1.8e308, which parses to infinity.
_HUGE = [b"1.7976931348623157e308", b"-1.7976931348623157e308", b"1.5e308", b"-1.5e308", b"1.8e308", b"-1.8e308"]


_STATE_TEXTS = st.one_of(
    st.just(_STATE),
    st.integers(0, len(_STATE) - 1).map(lambda k: _STATE[:k]),
    st.integers(1, 5000).map(lambda depth: b'{"re": ' + b"[" * depth + b"]" * depth + b', "im": []}'),
    st.builds(_with_number, st.integers(0, 31), st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e400"])),
    st.builds(_with_number, st.integers(0, 31), st.integers(300, 5000).map(lambda digits: b"9" * digits)),
    st.builds(_with_number, st.integers(0, 31), st.sampled_from(_HUGE)),
    # JSON values that are not numbers, where a number stands.
    st.builds(_with_number, st.integers(0, 31), st.sampled_from([b'"0.25"', b'"0"', b"true", b"false", b"null"])),
    st.builds(_with_pair, st.integers(0, 15), st.sampled_from(_HUGE)),
    st.builds(lambda value, key: _STATE.replace(key, value, 1), st.sampled_from(_WRONG), st.sampled_from([_RE, _IM])),
    st.sampled_from(_WRONG),
    st.builds(
        lambda at, junk: _STATE[:at] + junk + _STATE[at:],
        st.integers(0, len(_STATE)),
        st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]),
    ),
)
_JUNK = ["", "x", "1.5", "1e3", "\u0663", "0x10", " 7 ", "1_0", "-", "--"]


def _int_values(flag: str):
    least, greatest = cli._LIMITS[flag]
    edges = [least - 1, least] + ([greatest, greatest + 1] if greatest is not None else [2**64, 10**400])
    inside = st.integers(least, least + 5)
    return st.one_of(st.sampled_from(edges), inside, inside).map(str) | st.sampled_from(_JUNK)


# Placeholders the test replaces with paths in its directory.
_VALUES = {
    "--family": st.sampled_from(sorted(states.FAMILIES) + ["nope", ""]),
    "--param": st.floats().map(repr) | st.sampled_from(["x", "", "-0", "2.0", "1e300"]),
    "--state": st.sampled_from(["STATE", "STATE", "MISSING", "DIR"]),
    "--out": st.sampled_from(["OUT", "OUT", "OUT_NUL", "OUT_LONG", "OUT_EMPTY", "DIR"]),
    **{f"--{name}": _int_values(name) for name in cli._LIMITS},
}
_FLAGS = {
    "analyze": ["--family", "--param", "--state", "--out"],
    "sweep": ["--family", "--points", "--out"],
    "random-study": ["--count", "--seed", "--out"],
    "simulate": ["--family", "--param", "--state", "--seed", "--shots", "--trials", "--out"],
    "spa-verify": ["--seed", "--out"],
}


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    # Most runs that take a state read the drawn file, so that its mutations
    # reach the parser; a later --state or --family flag may override it.
    if "--state" in _FLAGS[command] and draw(st.integers(0, 3)):
        argv += ["--state", "STATE"]
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), unique=True)):
        argv += [flag, draw(_VALUES[flag])]
    return argv + draw(st.sampled_from([[]] * 5 + [["--bogus"], ["--help"], ["extra"]]))


def _shrink_workers(mp) -> None:
    """Run each size-bound worker on at most 3 items, so that an argv at a size
    cap takes milliseconds; the flags are still parsed and checked in full."""
    study, sweep, estimate = cli.random_study_rows, cli.sweep_rows, shotsim.estimate_negativity
    mp.setattr(cli, "random_study_rows", lambda count, seed: study(min(count, 3), seed))
    mp.setattr(cli, "sweep_rows", lambda family, points: sweep(family, min(points, 3)))
    mp.setattr(shotsim, "estimate_negativity", lambda rho, shots, trials, seed: estimate(rho, shots, min(trials, 3), seed))


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs(), state=_STATE_TEXTS)
def test_any_input_exits_with_a_contract_code(tmp_path, argv, state):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "state.json").write_bytes(state)
    out = work / "out.txt"
    paths = {
        "STATE": work / "state.json",
        "MISSING": work / "missing.json",
        "DIR": work,
        "OUT": out,
        "OUT_NUL": work / "out\x00.txt",
        "OUT_LONG": work / ("o" * 300),
        "OUT_EMPTY": "",
    }
    argv = [str(paths.get(arg, arg)) for arg in argv]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        _shrink_workers(mp)
        code = cli.run(argv)
    assert code in (0, 1, 2, 3)
    for folder in (work, tmp_path):
        assert not [name for name in os.listdir(folder) if name.endswith(".partial")]
    assert code == 0 or not out.exists()
    # A rejected input is named at the boundary, never by LAPACK.
    assert code != 2 or "did not converge" not in err.getvalue()

