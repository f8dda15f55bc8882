import ast
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

from spaneg import linalg, spa
from spaneg.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    herm_eigen_batch,
    lapack,
    partial_transpose_b,
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
        assert np.array_equal(partial_transpose_b(d), d)

    def test_bell_spectrum(self):
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        lam = np.linalg.eigvalsh(partial_transpose_b(np.outer(v, v.conj())))
        assert np.allclose(lam, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_pure_m_entry_relocation(self):
        # t_23 lives on |01><10|; the B-transpose carries it to |00><11|.
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1], m[2, 2] = 0.3, 0.7
        m[1, 2] = m[2, 1] = 0.458
        pt = partial_transpose_b(m)
        assert pt[0, 3] == 0.458 and pt[3, 0] == 0.458
        assert pt[1, 2] == 0 and pt[2, 1] == 0
        assert np.array_equal(np.diag(pt), np.diag(m))

    def test_involution_bitwise(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(partial_transpose_b(partial_transpose_b(m)), m)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng)
        pt = partial_transpose_b(h)
        assert abs(np.trace(pt) - np.trace(h)) < 1e-14
        assert linalg.hermiticity_defect(pt) < 1e-14


class TestHermEigen:
    def test_diagonal(self):
        w, _ = eigen(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert np.allclose(w, [0, 1, 2, 3], atol=0)

    def test_pauli_x(self):
        w, _ = eigen(SIGMA_X)
        assert np.allclose(w, [-1, 1], atol=1e-14)

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
            assert linalg.hermiticity_defect(s) < 1e-12

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
        (lapack.eigh(h), tuple(np.linalg.eigh(h))),
        (lapack.eigvalsh(h), np.linalg.eigvalsh(h)),
        (lapack.svdvals(m), np.linalg.svd(m, compute_uv=False)),
    ]


class TestLapack:
    # linalg.lapack calls numpy's LAPACK gufuncs without np.linalg's wrappers;
    # every result must be np.linalg's, bit for bit.

    def test_takes_the_gufuncs_here(self):
        # On this numpy the check passes, so the tests below compare the gufunc
        # path itself, not the fallback.
        lapack.eigh(np.eye(4, dtype=complex)[None])
        assert lapack.verified is True

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

    @pytest.mark.parametrize("m", [np.eye(4), np.eye(4, dtype=np.complex64)[None],
                                   np.eye(4, dtype=complex)[0], np.ones((1, 4, 3), complex)])
    def test_other_input_goes_to_numpy(self, m):
        # Real, single-precision, 1-D or non-square input: np.linalg's result
        # or np.linalg's error.
        for call, reference in [(lapack.eigvalsh, np.linalg.eigvalsh),
                                (lapack.svdvals, lambda a: np.linalg.svd(a, compute_uv=False))]:
            try:
                expected = reference(m)
            except np.linalg.LinAlgError as exc:
                with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(exc))):
                    call(m)
            else:
                assert same_bits(call(m), expected)

    @pytest.mark.parametrize("call", ["eigh", "eigvalsh", "svdvals"])
    def test_nan_raises_numpy_error(self, call):
        m = np.full((2, 4, 4), np.nan, dtype=complex)
        reference = {"eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh,
                     "svdvals": lambda a: np.linalg.svd(a, compute_uv=False)}[call]
        with pytest.raises(np.linalg.LinAlgError) as expected:
            reference(m)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            getattr(lapack, call)(m)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) in ("Eigenvalues did not converge", "SVD did not converge")

    def test_check_runs_once_per_process(self, monkeypatch):
        checks = []
        check = linalg._Lapack._matches_numpy
        monkeypatch.setattr(linalg._Lapack, "_matches_numpy",
                            lambda self: checks.append(1) or check(self))
        monkeypatch.setattr(lapack, "verified", None)
        h = random_mixed_batch(np.random.default_rng(1710), 3)
        for call in [lapack.eigh, lapack.eigvalsh, lapack.svdvals] * 3:
            call(h)
        assert checks == [1] and lapack.verified is True

    def test_check_waits_for_the_first_call(self):
        # Importing the CLI runs no check, so import time stays flat; the first
        # request runs it.
        code = (
            "from spaneg import cli, linalg\n"
            "before = linalg.lapack.verified\n"
            "cli.run(['analyze', '--family', 'bell', '--param', '0', '--out', __import__('os').devnull])\n"
            "print(before, linalg.lapack.verified)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["None", "True"]


DIRECT_CALL = re.compile(r"(np|numpy)\.linalg\.(eigh|eigvalsh|svd)")


def direct_linalg_calls(path):
    """(line, call) of each np.linalg eigh, eigvalsh or svd call in a source
    file, and each import of those names, outside linalg._Lapack."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Lapack":
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


def test_direct_call_scan_sees_calls(tmp_path):
    # The scan finds what the helper guards against, and np.linalg.norm stays allowed.
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "class _Lapack:\n"
        "    def eigh(self, a):\n"
        "        return np.linalg.eigh(a)\n"
        "def f(a):\n"
        "    return np.linalg.svd(a, compute_uv=False), numpy.linalg.eigh(a), np.linalg.norm(a)\n"
    )
    assert direct_linalg_calls(path) == [(2, "eigvalsh"), (7, "np.linalg.svd"), (7, "numpy.linalg.eigh")]


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
        assert trace_batch.verified is True

    @given(m=c_stacks())
    def test_adds_match_numpy(self, m):
        assert m.flags.c_contiguous and m.dtype == np.complex128
        assert same_bits(trace_batch(m), np_trace(m))
        assert same_bits(linalg._Trace._adds(m), np_trace(m))

    def test_signed_zero_diagonal_sums_to_plus_zero(self):
        m = np.full((8, 4, 4), complex(-0.0, -0.0))
        assert np.signbit(np_trace(m).view(float)).sum() == 0
        assert same_bits(trace_batch(m), np_trace(m))

    def test_fortran_order_would_round_differently(self):
        # numpy sums a Fortran-ordered stack's diagonals in sequence, so the
        # adds must not take it.
        x = np.random.default_rng(1722).standard_normal((64, 4, 4, 2))
        f = np.asfortranarray(x @ [1, 1j])
        assert not same_bits(linalg._Trace._adds(np.ascontiguousarray(f)), np_trace(f))
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
        monkeypatch.setattr(trace_batch, "verified", True)
        monkeypatch.setattr(linalg._Trace, "_adds", staticmethod(refuse))
        assert same_bits(trace_batch(m), expected)

    @pytest.mark.parametrize("adds, verdict", [
        (linalg._Trace._adds, True),
        (sequential_adds, False),
        (without_plus_zero, False),
    ], ids=["numpy-order", "sequential", "without-plus-zero"])
    def test_check_sees_the_order(self, adds, verdict):
        ours = linalg._Trace()
        ours._adds = adds
        assert ours._matches_numpy() is verdict

    def test_failed_check_falls_back(self, monkeypatch):
        monkeypatch.setattr(linalg._Trace, "_adds", staticmethod(sequential_adds))
        monkeypatch.setattr(trace_batch, "verified", None)
        m = random_mixed_batch(np.random.default_rng(1724), 256)
        m = m @ m
        assert not same_bits(sequential_adds(m), np_trace(m))
        assert same_bits(trace_batch(m), np_trace(m))
        assert trace_batch.verified is False

    def test_check_runs_once_per_process(self, monkeypatch):
        checks = []
        check = linalg._Trace._matches_numpy
        monkeypatch.setattr(linalg._Trace, "_matches_numpy",
                            lambda self: checks.append(1) or check(self))
        monkeypatch.setattr(trace_batch, "verified", None)
        m = random_mixed_batch(np.random.default_rng(1725), 16)
        for _ in range(3):
            trace_batch(m)
        assert checks == [1] and trace_batch.verified is True


def stacked_traces(path):
    """(line, call) of each trace call over axes 1 and 2 in a source file,
    outside linalg._Trace: np.trace(m, axis1=1, axis2=2), m.trace(axis1=1,
    axis2=2), or the same axes passed by position."""
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Trace":
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
        "class _Trace:\n"
        "    def __call__(self, m):\n"
        "        return np.trace(m, axis1=1, axis2=2)\n"
        "def f(m, x):\n"
        "    a = np.trace(m, axis1=1, axis2=2) + m.trace(axis1=1, axis2=2)\n"
        "    b = numpy.trace(m, 0, 1, 2) + m.trace(0, 1, 2) + np.trace(x) + x.trace()\n"
        "    return a, b\n"
    )
    assert stacked_traces(path) == [
        (6, "np.trace(m, axis1=1, axis2=2)"),
        (6, "m.trace(axis1=1, axis2=2)"),
        (7, "numpy.trace(m, 0, 1, 2)"),
        (7, "m.trace(0, 1, 2)"),
    ]
