import ast
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spaneg import cli, linalg, spa, states
from spaneg.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eigen_batch,
    partial_transpose_batch,
    psd_sqrt_batch,
    trace_batch,
)
from spaneg.states import random_mixed_batch

ROOT = Path(__file__).resolve().parents[1]


def random_hermitian(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def eigen(m):
    """(w, v) of one Hermitian matrix through the batched eigensolve."""
    w, v = herm_eigen_batch(np.asarray(m)[None])
    return w[0], v[0]


def partial_transpose(m):
    """rho^{T_B} of one 4x4 matrix through the batched partial transpose."""
    return partial_transpose_batch(np.asarray(m)[None])[0]


def asymmetry(m):
    """||M - M^dag||_max of one matrix."""
    return np.abs(m - m.conj().T).max()


def kron_by_hand(a, b):
    # Independent multiply-out oracle for the Kronecker product.
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    # numpy's Kronecker product, which spa and measures use for two-qubit
    # operators, checked in the |00>,|01>,|10>,|11> basis.
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.allclose(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]), atol=0)

    def test_matches_multiply_out_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.abs(np.kron(a, b) - kron_by_hand(a, b)).max() < 1e-14
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTranspose:
    def test_diagonal_invariant(self):
        d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(partial_transpose(d), d)

    def test_bell_spectrum(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        lam = np.linalg.eigvalsh(partial_transpose(np.outer(v, v.conj())))
        assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pure_m_entry_relocation(self):
        # t_23 lives on |01><10|; the B-transpose carries it to |00><11|.
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1], m[2, 2] = 0.3, 0.7
        m[1, 2] = m[2, 1] = 0.458
        pt = partial_transpose(m)
        assert pt[0, 3] == 0.458 and pt[3, 0] == 0.458
        assert pt[1, 2] == 0 and pt[2, 1] == 0
        assert np.array_equal(np.diag(pt), np.diag(m))

    def test_involution_bitwise(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(partial_transpose(partial_transpose(m)), m)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng)
        pt = partial_transpose(h)
        assert abs(np.trace(pt) - np.trace(h)) < 1e-14
        assert asymmetry(pt) < 1e-14


class TestHermEigen:
    def test_diagonal(self):
        w, _ = eigen(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert np.allclose(w, [0, 1, 2, 3], atol=0)

    def test_pauli_x(self):
        w, _ = eigen(np.kron(SIGMA_X, np.eye(2)))
        assert np.allclose(w, [-1, -1, 1, 1], atol=1e-14)

    def test_char_poly_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_hermitian(rng)
            got, _ = eigen(m)
            oracle = np.sort(np.roots(np.poly(m)).real)
            assert np.abs(got - oracle).max() < 1e-9

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(linalg.NotHermitianError, match="asymmetry"):
            eigen(m)

    def test_residuals_and_trace_over_ensemble(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            m = random_hermitian(rng)
            w, v = eigen(m)
            res = np.abs(m @ v - v * w).max()
            assert res <= 1e-10
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(4)).max() <= 1e-10


def _overflowing(kind: str) -> np.ndarray:
    """I/4 with a Hermitian pair or diagonal of entries whose sum overflows
    float64, or with one diagonal entry that overflows when doubled."""
    m = np.eye(4, dtype=complex) / 4
    if kind == "diagonal":
        m[0, 0], m[1, 1] = 1.5e308, -1.5e308
    elif kind == "one entry":
        m[0, 0] = 1.5e308
    elif kind == "real pair":
        m[0, 1] = m[1, 0] = 1.5e308
    else:
        m[0, 1], m[1, 0] = 1.5e308j, -1.5e308j
    return m


@pytest.mark.parametrize("kernel", [herm_eigen_batch, psd_sqrt_batch, spa.mu_min_batch, linalg.check_hermitian])
@pytest.mark.parametrize("kind, count", [("diagonal", 2), ("real pair", 2), ("imaginary pair", 2), ("one entry", 1)])
def test_an_overflowing_hermitian_part_is_named(kernel, kind, count):
    # A Hermitian matrix with finite entries near float64's maximum: its
    # Hermitian part overflows, in each entry of a pair or in one diagonal
    # entry alone.  The kernel names it by index and counts the overflowed
    # entries, with no warning (which fails the test) and no eigensolve message.
    stack = np.stack([np.eye(4) / 4, _overflowing(kind), np.eye(4) / 4])
    with pytest.raises(linalg.HermitianOverflowError, match=r"^matrix 1 of 3: entries too large: "
                       rf"\(M \+ M\^dag\) / 2 overflows in {count} of 16$"):
        kernel(stack)


def test_an_overflowing_asymmetry_is_still_not_hermitian():
    # Entries near float64's maximum of opposite sign: M - M^dag overflows,
    # and the matrix is rejected as not Hermitian, as before, with no warning.
    m = np.eye(4, dtype=complex) / 4
    m[0, 1], m[1, 0] = 1.5e308, -1.5e308
    with pytest.raises(linalg.NotHermitianError, match="max asymmetry inf"):
        herm_eigen_batch(m[None])


def _with_asymmetry(a):
    """The maximally mixed state with one entry a above the diagonal, so that
    ||M - M^dag||_max is a exactly."""
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = a
    return m


def test_an_asymmetry_of_exactly_the_tolerance_passes():
    linalg.check_hermitian(_with_asymmetry(linalg.VALIDATE_TOL)[None])
    above = np.nextafter(linalg.VALIDATE_TOL, 1.0)
    with pytest.raises(linalg.NotHermitianError, match=f"^matrix 0 of 1 is not Hermitian: max asymmetry {above:.3e}"):
        linalg.check_hermitian(_with_asymmetry(above)[None])


def test_the_first_matrix_above_the_tolerance_is_named():
    # Matrix 0 sits exactly at the tolerance, so matrix 2 is the first that fails.
    at, above = linalg.VALIDATE_TOL, np.nextafter(linalg.VALIDATE_TOL, 1.0)
    stack = np.stack([_with_asymmetry(at), _with_asymmetry(0.0), _with_asymmetry(above), _with_asymmetry(1.0)])
    with pytest.raises(linalg.NotHermitianError, match="^matrix 2 of 4 is not Hermitian"):
        linalg.check_hermitian(stack)


class TestPsdSqrt:
    def test_identity(self):
        assert np.abs(psd_sqrt_batch(np.eye(4)[None])[0] - np.eye(4)).max() < 1e-14

    def test_diagonal(self):
        s = psd_sqrt_batch(np.diag([4.0, 1.0, 0.0, 9.0])[None])[0]
        assert np.abs(s - np.diag([2.0, 1.0, 0.0, 3.0])).max() < 1e-14

    def test_ginibre_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            s = psd_sqrt_batch(m[None])[0]
            assert np.abs(s @ s - m).max() <= 1e-9 * max(1.0, np.abs(m).max())
            assert asymmetry(s) < 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(linalg.NotPsdError):
            psd_sqrt_batch(np.diag([1.0, 1.0, 1.0, -1e-6])[None])


def test_trace_product_eigenvalue_inequality():
    # For Hermitian F1, F2: sum_i l_i(F1) l_{n+1-i}(F2) <= Tr(F1 F2)
    #                       <= sum_i l_i(F1) l_i(F2).
    rng = np.random.default_rng(10)
    for _ in range(1000):
        f1 = random_hermitian(rng)
        f2 = random_hermitian(rng)
        l1, _ = eigen(f1)
        l2, _ = eigen(f2)
        tr = np.trace(f1 @ f2).real
        lower = float(np.dot(l1, l2[::-1]))
        upper = float(np.dot(l1, l2))
        assert lower <= tr + 1e-10
        assert tr <= upper + 1e-10


def same_bits(ours, theirs):
    """True iff two results (an array or a tuple of arrays) match bit for bit."""
    if isinstance(ours, tuple) or isinstance(theirs, tuple):
        return (isinstance(ours, tuple) and isinstance(theirs, tuple)
                and len(ours) == len(theirs) and all(map(same_bits, ours, theirs)))
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape and (
        ours.tobytes() == theirs.tobytes()
    )


def numpy_calls(h, m):
    """(ours, np.linalg's) result of each helper call: eigh and eigvalsh of the
    Hermitian stack h, singular values of the stack m."""
    return [
        (linalg.eigh(h), tuple(np.linalg.eigh(h))),
        (linalg.eigvalsh(h), np.linalg.eigvalsh(h)),
        (linalg.svdvals(m), np.linalg.svd(m, compute_uv=False)),
    ]


class TestLapack:
    # linalg.eigh, eigvalsh and svdvals call numpy's LAPACK gufuncs without
    # np.linalg's wrappers; every result must be np.linalg's, bit for bit.

    def test_takes_the_gufuncs_here(self):
        # On this numpy the check passes, so the tests below compare the gufunc
        # path itself, not the fallback.
        linalg.eigh(np.eye(4, dtype=complex)[None])
        assert linalg._gufuncs_match() is True

    @pytest.mark.parametrize("n", [1, 256])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_numpy_on_ginibre_states(self, n, rank):
        rhos = random_mixed_batch(np.random.default_rng(1700 + rank), n, rank=rank)
        pts = linalg.partial_transpose_batch(rhos)
        root = psd_sqrt_batch(rhos)
        wootters = root @ np.kron(SIGMA_Y, SIGMA_Y) @ root.conj()
        for h, m in [(rhos, rhos), (pts, wootters)]:
            for ours, theirs in numpy_calls(h, m):
                assert same_bits(ours, theirs)

    @pytest.mark.parametrize("method", spa.CHOI_METHODS)
    def test_matches_numpy_on_choi_matrices(self, method):
        choi = spa.choi_matrix(method)[0]
        for ours, theirs in numpy_calls((choi + choi.conj().T) / 2, choi):
            assert same_bits(ours, theirs)

    # One run of each command, the state-file analyze and the compositional
    # failure included, with the exit code it ends in.
    RUNS = {
        "analyze family": (["analyze", "--family", "horodecki", "--param", "0.5"], 0),
        "analyze state": (["analyze", "--state", "{state}"], 0),
        "sweep": (["sweep", "--family", "pure_m", "--points", "5"], 0),
        "random-study": (["random-study", "--count", "300"], 0),
        "simulate": (["simulate", "--state", "{state}", "--trials", "20", "--shots", "100"], 0),
        "spa-verify": (["spa-verify"], 0),
        "inconsistency": (["spa-verify"], 3),
    }

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_every_caller_passes_complex_square_stacks(self, tmp_path, monkeypatch, run):
        # The three calls test no input; this is the precondition that lets them skip that.
        seen = []
        for name in ("eigh", "eigvalsh", "svdvals"):
            def recorded(a, call=getattr(linalg, name)):
                seen.append((type(a), getattr(a, "dtype", None), np.ndim(a), np.shape(a)[-2:]))
                return call(a)
            monkeypatch.setattr(linalg, name, recorded)
        state = tmp_path / "state.json"
        states.save_state(states.DensityMatrix(mat=random_mixed_batch(np.random.default_rng(41), 1)[0]), state)
        if run == "spa-verify":
            spa.choi_matrix.cache_clear()  # so that the Choi spectra are taken in this run
        if run == "inconsistency":
            real = spa.superoperator("compositional")
            monkeypatch.setattr(spa, "superoperator", lambda method: 1.01 * real)
        argv, code = self.RUNS[run]
        argv = [a.format(state=state) for a in argv] + ["--out", str(tmp_path / "out")]
        assert cli.run(argv) == code
        assert seen
        for kind, dtype, ndim, square in seen:
            assert kind is np.ndarray and dtype == np.complex128
            assert ndim >= 2 and square[0] == square[1]

    @pytest.mark.parametrize("call", ["eigh", "eigvalsh", "svdvals"])
    def test_nan_raises_numpy_error(self, call):
        m = np.full((2, 4, 4), np.nan, dtype=complex)
        reference = {"eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh,
                     "svdvals": lambda a: np.linalg.svd(a, compute_uv=False)}[call]
        with pytest.raises(np.linalg.LinAlgError) as expected:
            reference(m)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            getattr(linalg, call)(m)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) in ("Eigenvalues did not converge", "SVD did not converge")

    def test_check_runs_once_per_process(self, monkeypatch):
        checks = []
        check = linalg._gufuncs_match.__wrapped__
        monkeypatch.setattr(linalg, "_gufuncs_match", functools.cache(lambda: checks.append(1) or check()))
        h = random_mixed_batch(np.random.default_rng(1710), 3)
        for call in [linalg.eigh, linalg.eigvalsh, linalg.svdvals] * 3:
            call(h)
        assert checks == [1] and linalg._gufuncs_match() is True

    def test_check_waits_for_the_first_call(self):
        # Importing the CLI runs no check, so import time stays flat; the first
        # request runs it.
        request = ["analyze", "--family", "bell", "--param", "0"]
        assert checks_around_a_request("linalg._gufuncs_match", request) == ["0", "1"]


@st.composite
def report_inputs(draw):
    """The Hermitian part of a state that reports meet, or of its SPA-PT output:
    a Ginibre state of rank 1-4, a Haar pure state, a family point (an end or
    interior), a Bell state or I/4."""
    kind = draw(st.sampled_from(["ginibre", "haar", "family", "bell", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ginibre":
        m = random_mixed_batch(rng, 1, rank=draw(st.integers(1, 4)))[0]
    elif kind == "haar":
        m = states.random_pure_batch(rng, 1)[0]
    elif kind == "family":
        param = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        m = states.family_batch(draw(st.sampled_from(["pure_m", "horodecki", "quasi"])), [param])[0]
    elif kind == "bell":
        m = states.bell_state(draw(st.integers(0, 3))).mat
    else:
        m = np.eye(4, dtype=complex) / 4
    if draw(st.booleans()):
        m = spa.spa_pt_affine_batch(m[None])[0]
    return linalg.hermitian_split(m[None])[0][0]


@given(st.lists(report_inputs(), min_size=2, max_size=6))
def test_each_matrix_of_a_stack_gets_the_bits_of_its_own_call(parts):
    # full_report diagonalizes a state and its SPA-PT output as one stack, and
    # its bytes rest on each row equalling a call on that matrix alone.
    stack = np.stack(parts)
    for call in (linalg.eigh, linalg.eigvalsh, linalg.svdvals):
        together = call(stack)
        for i, m in enumerate(parts):
            row = tuple(x[i:i + 1] for x in together) if isinstance(together, tuple) else together[i:i + 1]
            assert same_bits(row, call(m[None])), (call.__name__, i)


DIRECT_CALL = re.compile(r"(np|numpy)\.linalg\.(eigh|eigvalsh|svd)")


def checks_around_a_request(check, argv):
    """The cache size of the check predicate `check` (module.name in spaneg)
    in a new process right after importing the CLI, and after one cli.run of
    `argv`, as strings."""
    code = (
        f"from spaneg import cli, {check.split('.')[0]}\n"
        f"before = {check}.cache_info().currsize\n"
        f"cli.run({argv!r} + ['--out', __import__('os').devnull])\n"
        f"print(before, {check}.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def direct_linalg_calls(path):
    """(line, call) of each np.linalg eigh, eigvalsh or svd call in a source
    file, and each import of those names, outside linalg.eigh, linalg.eigvalsh,
    linalg.svdvals and linalg._gufuncs_match."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("eigh", "eigvalsh", "svdvals", "_gufuncs_match"):
            helper.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        if isinstance(node, ast.Call) and DIRECT_CALL.fullmatch(ast.unparse(node.func)):
            found.append((node.lineno, ast.unparse(node.func)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
            found += [(node.lineno, a.name) for a in node.names if a.name in ("eigh", "eigvalsh", "svd")]
    return found


def test_eigensolves_go_through_the_helper():
    # A direct np.linalg call would quietly take the slow N = 1 path again.
    sources = sorted((ROOT / "src" / "spaneg").glob("*.py"))
    assert len(sources) > 5
    found = {p.name: direct_linalg_calls(p) for p in sources}
    assert {name: calls for name, calls in found.items() if calls} == {}


# Module-level names that no production module calls, each kept as public API
# that spaneg/__init__ exports.  A new function or class with no production
# caller fails the test below until it is called, deleted or listed here.
PUBLIC_ONLY = ["measures.ls_upper_bound", "measures.witness_pair", "states.random_pure_batch", "states.save_state"]


def unreferenced_names(folder):
    """'module.name' of each module-level function or class of the package in
    `folder` that no module other than __init__ reads outside its own
    definition, as a bare name or as an attribute of a package module."""
    modules = {path.stem for path in folder.glob("*.py")}
    defined, used = [], set()
    for path in sorted(folder.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append(f"{path.stem}.{own}")
            names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            names |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                      and isinstance(sub.value, ast.Name) and sub.value.id in modules}
            used |= names - {own}
    return sorted(q for q in defined if q.split(".")[1] not in used)


def test_every_unreferenced_name_is_documented_api():
    assert unreferenced_names(ROOT / "src" / "spaneg") == PUBLIC_ONLY


def test_unreferenced_name_scan_sees_unused_names(tmp_path):
    # A re-export, an import, a self-reference, an assigned name and an
    # attribute of anything but a package module are not uses.
    (tmp_path / "__init__.py").write_text("from .a import Cls, unused, used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n"
        "def unused():\n    return unused\n"
        "def field():\n    pass\n"
        "class Cls:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import unused\n"
        "X = a.used()\nfield = X.field\n"
        "def f():\n    return Cls\n"
    )
    assert unreferenced_names(tmp_path) == ["a.field", "a.unused", "b.f"]


# Records whose fields are read whole, not one by one: cli.cmd_simulate
# serializes a ShotEstimate by dataclasses.asdict, and WitnessPair is public
# API, as witness_pair is in PUBLIC_ONLY.
READ_WHOLE = ["measures.WitnessPair", "shotsim.ShotEstimate"]


def is_record(node):
    """True iff a class definition is a @dataclass or a NamedTuple."""
    decorators = [ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
    bases = [ast.unparse(b) for b in node.bases]
    return (any(d in ("dataclass", "dataclasses.dataclass") for d in decorators)
            or any(b in ("NamedTuple", "typing.NamedTuple") for b in bases))


def unread_fields(folder, exempt=()):
    """'module.Class.field' of each field of a @dataclass or NamedTuple class
    of the package in `folder`, other than the classes `exempt`, whose name no
    module of the package loads as an attribute."""
    fields, read = [], set()
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if isinstance(node, ast.ClassDef) and is_record(node) and f"{path.stem}.{node.name}" not in exempt:
                fields += [f"{path.stem}.{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return sorted(f for f in fields if f.rsplit(".", 1)[1] not in read)


def test_every_record_field_is_read():
    assert unread_fields(ROOT / "src" / "spaneg", READ_WHOLE) == []


def test_unread_field_scan_sees_unread_fields(tmp_path):
    # A field that is only built, stored or read through getattr is unread;
    # a plain class's annotations are not fields.
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\nfrom typing import NamedTuple\n"
        "@dataclass(frozen=True)\nclass A:\n    read: int\n    stored: int\n    unread: int = 0\n"
        "@dataclasses.dataclass\nclass B:\n    built: float\n"
        "class C(NamedTuple):\n    x: int\n    y: int\n"
        "class Plain:\n    annotated: int\n"
        "@dataclass\nclass Whole:\n    skipped: int\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import A, B, C\n"
        "def f(a, c):\n    a.stored = 1\n    return a.read, c.x, B(built=1.0), getattr(c, 'y')\n"
    )
    assert unread_fields(tmp_path, ["a.Whole"]) == ["a.A.stored", "a.A.unread", "a.B.built", "a.C.y"]


def test_direct_call_scan_sees_calls(tmp_path):
    # The scan finds what the helper guards against, and np.linalg.norm stays allowed.
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def eigh(a):\n"
        "    return np.linalg.eigh(a)\n"
        "def svdvals(a):\n"
        "    return np.linalg.svd(a, compute_uv=False)\n"
        "def _gufuncs_match():\n"
        "    return np.linalg.eigvalsh(a)\n"
        "def f(a):\n"
        "    return np.linalg.svd(a, compute_uv=False), numpy.linalg.eigh(a), np.linalg.norm(a)\n"
    )
    assert direct_linalg_calls(path) == [(2, "eigvalsh"), (10, "np.linalg.svd"), (10, "numpy.linalg.eigh")]


# linalg's LAPACK calls.  Tests count them by patching linalg's attribute,
# which a from-imported binding would not see.
LAPACK_CALLS = ("eigh", "eigvalsh", "svdvals")


def private_imports(folder):
    """'module:line name' of each name that a module of the package in
    `folder` from-imports from another module of the package, where the
    name starts with an underscore or is one of linalg's LAPACK_CALLS."""
    found = []
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:  # from . import x, from .linalg import x
                source = node.module
            elif node.module == "spaneg" or (node.module or "").startswith("spaneg."):
                source = node.module.partition(".")[2] or None
            else:
                continue
            found += [(path.stem, node.lineno, a.name) for a in node.names
                      if a.name.startswith("_") or (source == "linalg" and a.name in LAPACK_CALLS)]
    return [f"{stem}:{line} {name}" for stem, line, name in sorted(found)]


def test_no_module_imports_private_names_or_lapack_calls():
    assert private_imports(ROOT / "src" / "spaneg") == []


def test_private_import_scan_sees_imports(tmp_path):
    # Public names, linalg itself and underscore names of other packages pass.
    (tmp_path / "linalg.py").write_text("from numpy.linalg import _umath_linalg\ndef eigh(a):\n    return a\n")
    (tmp_path / "b.py").write_text(
        "from . import linalg, _hidden\n"
        "from .linalg import _helper, first_index\n"
        "from .linalg import eigh, eigvalsh as solve\n"
        "from spaneg.states import _x, svdvals\n"
        "def f():\n"
        "    from spaneg.linalg import svdvals\n"
    )
    assert private_imports(tmp_path) == [
        "b:1 _hidden", "b:2 _helper", "b:3 eigh", "b:3 eigvalsh", "b:4 _x", "b:6 svdvals",
    ]


def np_trace(m):
    return np.trace(m, axis1=1, axis2=2)


def sequential_adds(m):
    """A stack's traces summed in sequence: np.trace's order on a Fortran-ordered stack."""
    d = m.reshape(len(m), 16)
    t = ((d[:, 0] + d[:, 5]) + d[:, 10]) + d[:, 15]
    t += 0.0
    return t


def without_plus_zero(m):
    """numpy's pairwise order without the +0 start: a diagonal of -0 sums to -0."""
    d = m.reshape(len(m), 16)
    return (d[:, 0] + d[:, 5]) + (d[:, 10] + d[:, 15])


# Entries of either sign from 1e-8 to 1e8 in magnitude, and signed zeros.
TRACE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0), st.integers(-8, 7)).map(
        lambda t: t[0] * t[1] * 10.0 ** t[2]
    ),
)


@st.composite
def c_stacks(draw):
    """A C-contiguous complex128 (N, 4, 4) stack, N from 1 to 24.  Only the
    diagonals are drawn; the other entries, which no trace reads, are fixed."""
    n = draw(st.integers(1, 24))
    diagonals = draw(arrays(np.float64, (n, 4, 2), elements=TRACE_ENTRIES))
    m = np.sin(np.arange(1.0, 32 * n + 1.0)).reshape(n, 4, 4, 2) @ [1, 1j]
    m[:, range(4), range(4)] = diagonals.view(complex)[..., 0]  # keeps signed zeros
    return m


class TestTraceBatch:
    # linalg.trace_batch sums each diagonal with four elementwise adds in
    # numpy's own order; every result must be np.trace's, bit for bit.

    def test_takes_the_adds_here(self):
        m = random_mixed_batch(np.random.default_rng(1720), 16)
        assert same_bits(trace_batch(m), np_trace(m))
        assert linalg._adds_match() is True

    @given(m=c_stacks())
    def test_adds_match_numpy(self, m):
        assert m.flags.c_contiguous and m.dtype == np.complex128
        assert same_bits(trace_batch(m), np_trace(m))
        assert same_bits(linalg._adds(m), np_trace(m))

    def test_signed_zero_diagonal_sums_to_plus_zero(self):
        m = np.full((8, 4, 4), complex(-0.0, -0.0))
        assert np.signbit(np_trace(m).view(float)).sum() == 0
        assert same_bits(trace_batch(m), np_trace(m))

    def test_fortran_order_would_round_differently(self):
        # numpy sums a Fortran-ordered stack's diagonals in sequence, so the
        # adds must not take it.
        x = np.random.default_rng(1722).standard_normal((64, 4, 4, 2))
        f = np.asfortranarray(x @ [1, 1j])
        assert not same_bits(linalg._adds(np.ascontiguousarray(f)), np_trace(f))
        assert same_bits(sequential_adds(np.ascontiguousarray(f)), np_trace(f))

    @pytest.mark.parametrize("make", [
        lambda m: np.asfortranarray(m),
        lambda m: m.real.copy(),
        lambda m: m.astype(np.complex64),
        lambda m: m[::2],
        lambda m: m.tolist(),
        lambda m: m[:7],
        lambda m: m[:1],
    ], ids=["fortran", "float64", "complex64", "strided", "list", "seven", "one"])
    def test_other_input_goes_to_numpy(self, monkeypatch, make):
        # Other layouts, dtypes, containers and stacks of fewer than 8 take
        # np.trace and give its result, though the check has passed.
        def refuse(m):
            raise AssertionError("the adds were taken")
        m = make(random_mixed_batch(np.random.default_rng(1723), 32))
        expected = np_trace(np.asarray(m))
        monkeypatch.setattr(linalg, "_adds_match", lambda: True)
        monkeypatch.setattr(linalg, "_adds", refuse)
        assert same_bits(trace_batch(m), expected)

    @pytest.mark.parametrize("adds, verdict", [
        (linalg._adds, True),
        (sequential_adds, False),
        (without_plus_zero, False),
    ], ids=["numpy-order", "sequential", "without-plus-zero"])
    def test_check_sees_the_order(self, monkeypatch, adds, verdict):
        # The unwrapped check, so that the process's cached verdict stays.
        monkeypatch.setattr(linalg, "_adds", adds)
        assert linalg._adds_match.__wrapped__() is verdict

    def test_failed_check_falls_back(self, monkeypatch):
        monkeypatch.setattr(linalg, "_adds", sequential_adds)
        monkeypatch.setattr(linalg, "_adds_match", functools.cache(linalg._adds_match.__wrapped__))
        m = random_mixed_batch(np.random.default_rng(1724), 256)
        m = m @ m
        assert not same_bits(sequential_adds(m), np_trace(m))
        assert same_bits(trace_batch(m), np_trace(m))
        assert linalg._adds_match.cache_info().currsize == 1 and linalg._adds_match() is False

    def test_failed_check_keeps_plus_zero(self, monkeypatch):
        # Without its += 0.0 the adds differ from np.trace only on a diagonal
        # of -0, which the check's last matrix holds.
        monkeypatch.setattr(linalg, "_adds", without_plus_zero)
        monkeypatch.setattr(linalg, "_adds_match", functools.cache(linalg._adds_match.__wrapped__))
        m = np.full((linalg._ADDS_MIN, 4, 4), complex(-0.0, -0.0))
        assert not same_bits(without_plus_zero(m), np_trace(m))
        assert same_bits(trace_batch(m), np_trace(m))
        assert linalg._adds_match.cache_info().currsize == 1 and linalg._adds_match() is False

    def test_check_runs_once_per_process(self, monkeypatch):
        checks = []
        check = linalg._adds_match.__wrapped__
        monkeypatch.setattr(linalg, "_adds_match", functools.cache(lambda: checks.append(1) or check()))
        m = random_mixed_batch(np.random.default_rng(1725), 16)
        for _ in range(3):
            trace_batch(m)
        assert checks == [1] and linalg._adds_match() is True

    def test_check_waits_for_the_first_call(self):
        # A random study normalizes its Ginibre draws by trace_batch, in
        # stacks past _ADDS_MIN.
        request = ["random-study", "--count", "16"]
        assert checks_around_a_request("linalg._adds_match", request) == ["0", "1"]


def stacked_traces(path):
    """(line, call) of each trace call over axes 1 and 2 in a source file,
    outside linalg.trace_batch and linalg._adds_match: np.trace(m, axis1=1,
    axis2=2), m.trace(axis1=1, axis2=2), or the same axes passed by position."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("trace_batch", "_adds_match"):
            helper.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        if id(node) in helper or not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "trace"):
            continue
        # np.trace(a, offset, axis1, axis2) against a.trace(offset, axis1, axis2).
        module_call = ast.unparse(func.value) in ("np", "numpy")
        axes_by_position = len(node.args) >= (3 if module_call else 2)
        if axes_by_position or {k.arg for k in node.keywords} & {"axis1", "axis2"}:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_stacked_traces_go_through_the_helper():
    # A direct stacked np.trace would quietly take the slow reduce again.
    sources = sorted((ROOT / "src" / "spaneg").glob("*.py"))
    assert len(sources) > 5
    found = {p.name: stacked_traces(p) for p in sources}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_stacked_trace_scan_sees_calls(tmp_path):
    # The scan finds each form of a stacked trace; a single matrix's
    # np.trace(m) and the helper's own calls stay allowed.
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "def trace_batch(m):\n"
        "    return np.trace(m, axis1=1, axis2=2)\n"
        "def _adds_match():\n"
        "    return np.trace(z, axis1=1, axis2=2)\n"
        "def f(m, x):\n"
        "    a = np.trace(m, axis1=1, axis2=2) + m.trace(axis1=1, axis2=2)\n"
        "    b = numpy.trace(m, 0, 1, 2) + m.trace(0, 1, 2) + np.trace(x) + x.trace()\n"
        "    return a, b\n"
    )
    assert stacked_traces(path) == [
        (7, "np.trace(m, axis1=1, axis2=2)"),
        (7, "m.trace(axis1=1, axis2=2)"),
        (8, "numpy.trace(m, 0, 1, 2)"),
        (8, "m.trace(0, 1, 2)"),
    ]
