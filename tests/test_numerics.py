import ctypes
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats
from scipy.special import ndtr, ndtri

from gbcausal import numerics
from gbcausal.errors import DomainError, NonFiniteGradient, NotPositiveDefinite
from gbcausal.nuisance import feature_matrix
from gbcausal.numerics import (
    OptimizerConfig,
    Rng,
    adam_minimize,
    blas_threads,
    cholesky_factor,
    cholesky_solve,
    gaussian_tv,
    normal_quantile,
    restore_lower,
    solve_factored,
    solve_triangular,
)


def erf_cdf(z):
    """Independent oracle: standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def erf_quantile(p):
    """Independent oracle: bisection inversion of erf_cdf."""
    lo, hi = -12.0, 12.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        x = cholesky_solve(np.eye(3), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def test_diagonal_hand_solve(self):
        a = np.array([[4.0, 0.0], [0.0, 9.0]])
        b = np.array([[8.0], [18.0]])
        np.testing.assert_allclose(cholesky_solve(a, b), [[2.0], [2.0]], atol=1e-12)

    def test_two_by_two_hand_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([[3.0], [3.0]])
        np.testing.assert_allclose(cholesky_solve(a, b), [[1.0], [1.0]], atol=1e-12)

    @pytest.mark.parametrize("size", [3, 20, 87, 200])
    def test_reconstruction_random_spd(self, size):
        rng = Rng(11, size)
        q = rng.normal((size, size))
        a = q.T @ q + 0.5 * np.eye(size)
        b = rng.normal((size, 3))
        x = cholesky_solve(a, b)
        err = np.max(np.abs(a @ x - b))
        assert err <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_vector_rhs(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        x = cholesky_solve(a, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_jitter_rescues_singular_psd(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        x = cholesky_solve(a, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_asymmetric_raises(self):
        with pytest.raises(DomainError):
            cholesky_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    @pytest.mark.parametrize("a, message", [
        (np.ones((2, 3)), "must be square"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "must be finite"),
        (np.diag([1.0, np.inf]), "must be finite"),
    ], ids=["wide", "nan", "inf"])
    def test_malformed_matrix_raises(self, a, message):
        with pytest.raises(DomainError, match=message):
            cholesky_factor(a)

    @pytest.mark.parametrize("shape", [(4,), (4, 1), (1, 2)])
    def test_rhs_rows_must_match(self, shape):
        # a b whose size n divides is not reshaped into other columns
        for solve in (cholesky_solve, solve_triangular):
            with pytest.raises(DomainError, match="do not match"):
                solve(np.eye(2), np.ones(shape))

    @pytest.mark.parametrize("chol", [np.ones((3, 2)), np.ones(3)], ids=["wide", "vector"])
    def test_solve_factored_needs_a_square_factor(self, chol):
        # checked before a pointer reaches LAPACK, which would read past the end
        for solve in (solve_factored, solve_triangular):
            with pytest.raises(DomainError, match="do not match"):
                solve(chol, np.ones(3))

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_asymmetry_within_tolerance_accepted(self, scale):
        # tolerance 1e-10 * max(1, max|a|): half of it is accepted
        a = scale * np.array([[2.0, 0.5], [0.5, 2.0]])
        a[1, 0] += 0.5e-10 * max(1.0, 2.0 * scale)
        assert not np.array_equal(a, a.T)
        chol, jitter = cholesky_factor(a)
        assert jitter == 0.0
        np.testing.assert_allclose(chol @ chol.T, np.tril(a) + np.tril(a, -1).T, rtol=1e-14)

    def test_factor_reports_jitter(self):
        _, jit = cholesky_factor(np.eye(2))
        assert jit == 0.0


def _use_numpy(monkeypatch, tmp_path):
    """Bind no LAPACK routine: the process map cannot be read, as on a
    platform without /proc, and the cached binding is cleared."""
    monkeypatch.setattr(numerics, "_PROC_MAPS", str(tmp_path / "missing"))
    monkeypatch.setattr(numerics, "_lapack_binding", [])
    assert numerics._lapack() is None


@pytest.fixture
def numpy_fallback(monkeypatch, tmp_path):
    """Run the test on the numpy fallback of the LAPACK calls."""
    _use_numpy(monkeypatch, tmp_path)


@pytest.mark.usefixtures("numpy_fallback")
class TestCholeskySolveOnNumpy(TestCholeskySolve):
    """TestCholeskySolve where no LAPACK routine is bound."""


def _ridge_system(d, seed):
    """The outcome ridge's normal equations Phi^T Phi + 1e-3 I of 400 seeded
    rows of d covariates: 3d + 2 features, 8 at d = 2 and 17 and 152 at the
    d of D9 and D8. Returns the matrix and a right-hand side Phi^T Y of
    three columns."""
    rng = Rng(seed, d)
    phi = feature_matrix(rng.normal((400, d)))
    a = phi.T @ phi
    a = 0.5 * (a + a.T)
    a.flat[:: a.shape[0] + 1] += 1e-3
    return a, phi.T @ rng.normal((400, 3))


class TestCholeskySolveAgainstLu:
    """cholesky_solve solves on its factor; the LU of A + jitter I it
    replaced gives the reference, within 1e-12 of max|x|."""

    @staticmethod
    def check(a, b, tol=1e-12):
        _, jitter = cholesky_factor(a)
        want = np.linalg.solve(a + jitter * np.eye(a.shape[0]), b)
        got = cholesky_solve(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [2, 5, 50], ids=["8_rows", "17_rows", "152_rows"])
    @pytest.mark.parametrize("rhs", ["vector", "three_columns"])
    def test_pipeline_sized_systems(self, d, rhs):
        a, b = _ridge_system(d, 40)
        self.check(a, b[:, 0] if rhs == "vector" else b)

    def test_rank_one_jitter_case(self):
        # A + 1e-10 I has condition 2e10. For b = (1, 1), in A's range, the
        # LU and the factor solve lie 5e-11 and 2.5e-11 relative from the
        # exact solution of that rounded system, so the two agree within
        # 1e-10, not 1e-12; off A's range x is near 5e9 and they agree
        # within 1e-12 of it.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert cholesky_factor(a)[1] == 1e-10
        self.check(a, np.array([1.0, 1.0]), tol=1e-10)
        self.check(a, np.array([1.0, 2.0]))
        self.check(a, np.array([[1.0, 2.0], [1.0, 3.0]]))


@pytest.mark.usefixtures("numpy_fallback")
class TestCholeskySolveAgainstLuOnNumpy(TestCholeskySolveAgainstLu):
    """TestCholeskySolveAgainstLu where no LAPACK routine is bound."""


def _unblocked_factor(a):
    """Reference: cholesky_factor's jitter ladder with one
    np.linalg.cholesky call per level. Returns (L, jitter), or (None, None)
    past the jitter ceiling."""
    jitter = 0.0
    while True:
        try:
            mat = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return np.linalg.cholesky(mat), jitter
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-4:
                return None, None


def _kernel_spd(n, seed):
    """A squared-exponential Gram matrix plus 0.1 I: SPD, well conditioned
    and symmetric bit for bit."""
    x = Rng(seed, n).normal((n, 2))
    sq = np.sum(x * x, axis=1)
    a = np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0))
    a = 0.5 * (a + a.T)
    a.flat[:: n + 1] += 0.1
    return a


def _spectrum_spd(n, smallest, seed):
    """Q diag(1..2, smallest) Q^T for a random orthogonal Q, made exactly
    symmetric: its smallest eigenvalue sets the jitter it needs."""
    q, _ = np.linalg.qr(Rng(seed, n).normal((n, n)))
    lam = np.linspace(1.0, 2.0, n)
    lam[0] = smallest
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


class TestBlockedCholesky:
    """The copying factor against one np.linalg.cholesky call per jitter
    level."""

    @pytest.mark.parametrize("n", [1, 5, 127, 128, 152, 255, 256, 257, 300, 385, 1000])
    def test_matches_unblocked_factor(self, n):
        # one dpotrf('L') on the same values, the call np.linalg.cholesky makes
        a = _kernel_spd(n, 3)
        chol, jitter = cholesky_factor(a)
        want, want_jitter = _unblocked_factor(a)
        assert jitter == want_jitter == 0.0
        assert chol.tobytes() == want.tobytes()
        want, _ = cholesky_factor(np.asfortranarray(a))
        assert chol.tobytes() == want.tobytes()

    def test_strided_input(self):
        # neither C- nor F-contiguous: its lower triangle is copied by a mask
        a = _kernel_spd(152, 3)
        wide = np.zeros((152, 304))
        wide[:, ::2] = a
        chol, jitter = cholesky_factor(wide[:, ::2])
        assert jitter == 0.0 and chol.tobytes() == np.linalg.cholesky(a).tobytes()

    @pytest.mark.parametrize("n", [40, 152, 300, 257])
    @pytest.mark.parametrize("smallest, jitter", [(0.5, 0.0), (-5e-8, 1e-7), (-5e-5, 1e-4),
                                                  (-1e-3, None)])
    def test_same_jitter_or_failure_as_unblocked(self, n, smallest, jitter):
        # each eigenvalue margin is far above the rounding of either factor
        a = _spectrum_spd(n, smallest, 7)
        want, want_jitter = _unblocked_factor(a)
        assert want_jitter == (None if jitter is None else pytest.approx(jitter, rel=1e-9))
        if jitter is None:
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(a)
            return
        chol, got_jitter = cholesky_factor(a)
        assert got_jitter == want_jitter
        # near-singular factors are sensitive to rounding; check the product
        target = a + got_jitter * np.eye(n)
        assert np.max(np.abs(chol @ chol.T - target)) <= 1e-12 * np.max(np.abs(target))

    @pytest.mark.parametrize("smallest", [0.5, -5e-8, -1e-3])
    def test_input_left_unmodified(self, smallest):
        a = _spectrum_spd(300, smallest, 8)
        before = a.copy()
        try:
            cholesky_factor(a)
        except NotPositiveDefinite:
            pass
        assert a.tobytes() == before.tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
    def test_factor_holds_one_copy_of_its_input(self):
        # In a fresh process, the growth of the peak resident set (VmHWM)
        # while factoring an n x n input is the factor's own memory: at most
        # one copy of the input, and the packing buffer OpenBLAS touches at
        # its first factor of that size. One np.linalg.cholesky call holds
        # two copies, its LAPACK working copy and the result.
        n = 1500
        script = textwrap.dedent(f"""
            import numpy as np
            from gbcausal.numerics import blas_threads, cholesky_factor

            def peak():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh
                                if line.startswith("VmHWM:"))

            a = np.full(({n}, {n}), 0.5)
            a.flat[:: {n} + 1] += {n}
            with blas_threads(1):
                before = peak()
                cholesky_factor(a)
                print(peak() - before)
        """)
        src = str(Path(numerics.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 1.3 * 8 * n * n


class TestInPlaceCholesky:
    @pytest.mark.parametrize("n", [200, 255, 256, 700, 1500])
    def test_lower_triangle_is_the_copying_factor(self, n):
        a = _kernel_spd(n, 9)
        want, _ = cholesky_factor(a)
        mat = np.asfortranarray(a)
        chol, jitter = cholesky_factor(mat, in_place=True)
        assert chol is mat and jitter == 0.0
        assert np.tril(chol).tobytes() == want.tobytes()
        assert np.triu(chol, 1).tobytes() == np.triu(a, 1).tobytes()

    def test_f_contiguous_gather(self):
        # k[u][:, u], the exact GP's resample Gram matrix, is F-contiguous:
        # it is factored where it lies, as itself
        k = _kernel_spd(300, 14)
        u = np.sort(Rng(15).permutation(300)[:190])
        gram = k[u][:, u]
        assert gram.flags.f_contiguous and not gram.flags.c_contiguous
        before, diag = gram.copy(), gram.diagonal().copy()
        want, _ = cholesky_factor(before)
        chol, jitter = cholesky_factor(gram, in_place=True)
        assert chol is gram and jitter == 0.0
        assert np.tril(chol).tobytes() == want.tobytes()
        assert np.triu(chol, 1).tobytes() == np.triu(before, 1).tobytes()
        restore_lower(gram, diag)
        assert gram.tobytes() == before.tobytes()

    @pytest.mark.parametrize("smallest, jitter", [(0.5, 0.0), (-5e-8, 1e-7), (-1e-3, None)])
    def test_restore_lower_puts_the_input_back(self, smallest, jitter):
        # a jitter retry, and a failure past the ceiling, restore the input
        # themselves; a factor is undone by restore_lower
        a = _spectrum_spd(300, smallest, 10)
        mat, diag = np.asfortranarray(a), a.diagonal().copy()
        if jitter is None:
            with pytest.raises(NotPositiveDefinite):
                cholesky_factor(mat, in_place=True)
        else:
            chol, got = cholesky_factor(mat, in_place=True)
            want, want_jitter = cholesky_factor(a)
            assert got == want_jitter == pytest.approx(jitter, rel=1e-9)
            assert np.tril(chol).tobytes() == want.tobytes()
            restore_lower(mat, diag)
        assert mat.tobytes() == a.tobytes()

    def test_needs_a_matrix_symmetric_bit_for_bit(self):
        a = np.asfortranarray(_kernel_spd(40, 11))
        a[3, 1] = np.nextafter(a[3, 1], 1.0)
        cholesky_factor(a)  # within the tolerance of the copying factor
        with pytest.raises(DomainError, match="symmetric bit for bit"):
            cholesky_factor(a, in_place=True)

    @pytest.mark.parametrize("layout", ["c_contiguous", "strided", "float32", "read_only"])
    def test_needs_a_writeable_f_contiguous_float64_array(self, layout):
        # LAPACK factors a Fortran array where it lies; a C-contiguous a is
        # passed as a.T, the same values when a is symmetric bit for bit
        a = np.asfortranarray(_kernel_spd(40, 12))
        if layout == "c_contiguous":
            a = np.ascontiguousarray(a)
        elif layout == "strided":
            a = np.asfortranarray(np.kron(a, np.ones((2, 2))))[::2, ::2]
        elif layout == "float32":
            a = a.astype(np.float32)
        else:
            a.setflags(write=False)
        before = a.copy()
        with pytest.raises(DomainError, match="writeable F-contiguous float64"):
            cholesky_factor(a, in_place=True)
        assert a.tobytes() == before.tobytes()

    @pytest.mark.parametrize("solve", [solve_triangular, solve_factored])
    def test_solves_read_one_triangle(self, solve):
        n = 100
        q = Rng(12, n).normal((n, n))
        chol = np.asfortranarray(np.linalg.cholesky(q @ q.T + n * np.eye(n)))
        filled = chol.copy(order="F")  # the same memory layout, so the same products
        filled[np.triu_indices(n, 1)] = np.nan
        b = Rng(13, n).normal((n, 3))
        assert solve(filled, b).tobytes() == solve(chol, b).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_triangular_overwrite_b(self, order):
        # overwrite_b lets the dtrsm write X over a C-contiguous b; the
        # values are those of the copying solve on either path
        n = 60
        chol, _ = cholesky_factor(_kernel_spd(n, 19))
        b = np.array(Rng(20, n).normal((n, 4)), order=order)
        want = solve_triangular(chol, b)
        got = solve_triangular(chol, b, overwrite_b=True)
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, b) == (order == "C" and numerics._lapack() is not None)


@pytest.mark.usefixtures("numpy_fallback")
class TestInPlaceCholeskyOnNumpy(TestInPlaceCholesky):
    """TestInPlaceCholesky where no LAPACK routine is bound."""


@pytest.mark.skipif(numerics._lapack() is None, reason="no LAPACK routine is bound")
class TestLapackAndNumpyAgree:
    """The LAPACK calls and their numpy fallback give the same jitter, the
    same failures and results within 1e-13 relative of each other."""

    @staticmethod
    def _on_both(monkeypatch, tmp_path, fn):
        got = fn()
        with monkeypatch.context() as m:
            _use_numpy(m, tmp_path)
            want = fn()
        return got, want

    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("smallest", [0.5, -5e-8, -5e-5, -1e-3])
    def test_same_jitter_and_failures(self, monkeypatch, tmp_path, n, smallest):
        a = _spectrum_spd(n, smallest, 16)

        def outcome():
            try:
                chol, jitter = cholesky_factor(a)
                cholesky_solve(a, np.ones(n))
            except NotPositiveDefinite:
                return None
            return chol.tobytes(), jitter

        got, want = self._on_both(monkeypatch, tmp_path, outcome)
        assert got == want

    @pytest.mark.parametrize("n", [1, 17, 152, 300])
    def test_results_within_1e_13(self, monkeypatch, tmp_path, n):
        a = _kernel_spd(n, 17)
        b = Rng(18, n).normal((n, 3))
        chol, _ = cholesky_factor(a)

        def results():
            return (cholesky_solve(a, b), cholesky_solve(a, b[:, 0]),
                    solve_triangular(chol, b), solve_factored(chol, b[:, 0]))

        for got, want in zip(*self._on_both(monkeypatch, tmp_path, results)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def ulps_apart(a, b):
    """Distance between float64 arrays in units in the last place."""
    ia = np.asarray(a, dtype=float).view(np.int64)
    ib = np.asarray(b, dtype=float).view(np.int64)
    # map the sign-magnitude bit patterns onto one monotone integer line
    ia = np.where(ia < 0, np.iinfo(np.int64).min - ia, ia)
    ib = np.where(ib < 0, np.iinfo(np.int64).min - ib, ib)
    return np.abs(ia - ib)


_EXP_M2 = 0.13533528323661269189


class TestScipyPorts:
    """The numpy kernels against the scipy functions they replace."""

    def test_ndtri_on_a_million_uniforms_and_the_edges(self):
        edges = [0.0, 1e-300, 5e-324, 1e-20, np.exp(-32.0), 0.5, _EXP_M2, 1.0 - _EXP_M2,
                 1.0 - 2.0**-53, 1.0]
        p = np.concatenate([Rng(31).uniform(1_000_000), edges])
        got, want = numerics.ndtri(p), ndtri(p)
        body = (p > _EXP_M2) & (p <= 1.0 - _EXP_M2)
        np.testing.assert_array_equal(got[body], want[body])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert ulps_apart(got[finite], want[finite]).max() <= 8

    def test_ndtri_outside_the_unit_interval_is_nan(self):
        assert np.isnan(numerics.ndtri(np.array([-0.5, 1.5, np.nan]))).all()
        assert math.isnan(numerics.ndtri(-0.5))

    def test_ndtri_scalars_equal_scipy_bit_for_bit(self):
        for p in [*Rng(32).uniform(2000).tolist(), 1e-300, 0.025, 0.975, 1.0 - 2.0**-53]:
            assert numerics.ndtri(p) == ndtri(p)

    def test_ndtri_keeps_the_shape_and_each_value_across_chunks(self):
        # 18000 elements cross a chunk boundary that the 6000-element rows do not
        u = Rng(33).uniform((3, 6000))
        np.testing.assert_array_equal(numerics.ndtri(u), [numerics.ndtri(row) for row in u])

    def test_ndtr_matches_scipy(self):
        for x in np.concatenate([np.linspace(-9.0, 9.0, 721), [0.0, 0.7071, 0.7072, 40.0]]):
            assert abs(numerics.ndtr(x) - ndtr(x)) <= 2e-16

    def test_expit_within_four_ulp(self):
        x = np.concatenate([Rng(34).normal(200_000) * 8.0, [0.0, -745.0, 710.0, -1e6, 1e6]])
        assert ulps_apart(numerics.expit(x), scipy.special.expit(x)).max() <= 4

    def test_logit_within_four_ulp(self):
        p = np.concatenate([Rng(35).uniform(200_000), [0.3, 0.65, 0.5, 1e-300, 1.0 - 2.0**-53]])
        assert ulps_apart(numerics.logit(p), scipy.special.logit(p)).max() <= 4

    def test_logit_and_expit_edges_without_warnings(self):
        with np.errstate(all="raise"):
            assert numerics.logit(np.array([0.0, 1.0])).tolist() == [-np.inf, np.inf]
            assert numerics.expit(np.array([-1e6])).tolist() == [0.0]

    @pytest.mark.parametrize("n", [1, 21, 32, 33, 152, 190, 1000])
    @pytest.mark.parametrize("rhs", [None, 1, 100], ids=["vector", "one_column", "100_columns"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_triangular_within_1e_13(self, n, rhs, order):
        check_solve_triangular(n, rhs, order)


def check_solve_triangular(n, rhs, order):
    """solve_triangular within 1e-13 relative of scipy's lower solve, with
    L in the given memory order."""
    rng = Rng(38, n)
    q = rng.normal((n, n))
    a = np.array(np.linalg.cholesky(q @ q.T + n * np.eye(n)), order=order)
    b = rng.normal(n if rhs is None else (n, rhs))
    got = solve_triangular(a, b)
    want = scipy.linalg.solve_triangular(a, b, lower=True)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.usefixtures("numpy_fallback")
class TestSolveTriangularOnNumpy:
    @pytest.mark.parametrize("n", [1, 21, 32, 33, 152, 190, 1000])
    @pytest.mark.parametrize("rhs", [None, 1, 100], ids=["vector", "one_column", "100_columns"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_solve_triangular_within_1e_13(self, n, rhs, order):
        check_solve_triangular(n, rhs, order)


class TestPseudoVector:
    def test_a_float64_vector_passes_as_itself(self):
        values = Rng(40).normal(5)
        assert numerics.pseudo_vector(values) is values

    def test_a_list_becomes_a_float_vector(self):
        got = numerics.pseudo_vector([1, 2, 4])
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("bad", [np.ones((2, 2)), np.ones((3, 1)), 1.5], ids=["2x2", "3x1", "scalar"])
    def test_anything_but_one_dimension_is_refused_by_shape(self, bad):
        shape = np.shape(bad)
        with pytest.raises(DomainError, match=f"1-D array, got shape {re.escape(str(shape))}"):
            numerics.pseudo_vector(bad)


class TestNormalQuantile:
    def test_median(self):
        assert abs(normal_quantile(0.5)) <= 1e-12

    def test_upper_tail_against_erf_oracle(self):
        q = normal_quantile(0.975)
        assert abs(q - erf_quantile(0.975)) <= 1e-9
        assert abs(q - 1.959964) <= 5e-7

    def test_symmetry(self):
        assert abs(normal_quantile(0.025) + normal_quantile(0.975)) <= 1e-12

    def test_quantile_cdf_roundtrip(self):
        for z in np.linspace(-5.0, 5.0, 101):
            assert abs(normal_quantile(ndtr(z)) - z) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestGaussianTv:
    def test_equal_means(self):
        assert gaussian_tv(1.0, 1.0, 0.3) == 0.0

    def test_unit_gap_against_erf_oracle(self):
        want = 2.0 * erf_cdf(1.0) - 1.0
        assert abs(gaussian_tv(0.0, 2.0, 1.0) - want) <= 1e-12
        assert abs(gaussian_tv(0.0, 2.0, 1.0) - 0.682689) <= 5e-7

    def test_small_gap_against_erf_oracle(self):
        want = 2.0 * erf_cdf(0.1) - 1.0
        assert abs(gaussian_tv(0.0, 0.2, 1.0) - want) <= 1e-12
        assert abs(gaussian_tv(0.0, 0.2, 1.0) - 0.079656) <= 5e-7

    def test_symmetry_and_monotonicity(self):
        rng = Rng(5)
        for _ in range(50):
            m1, m2 = rng.normal(2) * 3.0
            sd = 0.1 + float(rng.uniform()) * 2.0
            tv = gaussian_tv(m1, m2, sd)
            assert tv == gaussian_tv(m2, m1, sd)
            wider = gaussian_tv(m1, m2 + np.sign(m2 - m1 + 1e-12) * 0.5, sd)
            assert 0.0 <= tv <= 1.0
            assert wider >= tv

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_tv(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            gaussian_tv(0.0, 1.0, -1.0)


class TestAdam:
    def test_quadratic_converges(self):
        config = OptimizerConfig(learning_rate=0.1, epochs=500, batch_size=1)
        theta = adam_minimize(lambda t: 2.0 * t, np.array([1.0]), config)
        assert abs(theta[0]) <= 1e-3

    def test_zero_gradient_is_fixed_point(self):
        config = OptimizerConfig(learning_rate=0.1, epochs=50, batch_size=1)
        theta = adam_minimize(lambda t: np.zeros_like(t), np.array([3.25]), config)
        assert theta[0] == 3.25

    def test_shifted_quadratic_default_rate(self):
        config = OptimizerConfig(learning_rate=0.03, epochs=2000, batch_size=1)
        theta = adam_minimize(lambda t: 2.0 * (t - 3.0), np.array([0.0]), config)
        assert abs(theta[0] - 3.0) <= 1e-2

    def test_non_finite_gradient_aborts_with_last_iterate(self):
        calls = {"n": 0}

        def grad(t):
            calls["n"] += 1
            if calls["n"] >= 4:
                return np.array([np.nan])
            return 2.0 * t

        config = OptimizerConfig(learning_rate=0.1, epochs=100, batch_size=1)
        with pytest.raises(NonFiniteGradient) as err:
            adam_minimize(grad, np.array([1.0]), config)
        assert err.value.epoch == 4
        assert np.all(np.isfinite(err.value.last_iterate))

    def test_deterministic_given_rng(self):
        config = OptimizerConfig(learning_rate=0.05, epochs=100, batch_size=1)

        def run(rng):
            return adam_minimize(
                lambda t: 2.0 * t + rng.normal(t.shape), np.array([1.0, -1.0]), config
            )

        np.testing.assert_array_equal(run(Rng(9, 2)), run(Rng(9, 2)))


class TestOptimizerConfig:
    def test_defaults_match_experiment_settings(self):
        config = OptimizerConfig()
        assert config.learning_rate == 0.03
        assert config.epochs == 2000
        assert config.batch_size == 200
        assert (config.beta1, config.beta2, config.epsilon) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"beta1": 1.0},
            {"beta2": -0.1},
            {"epochs": 0},
            {"batch_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            OptimizerConfig(**kwargs)


class TestRng:
    def test_same_key_same_sequence(self):
        a = Rng(42, 7).uniform(1000)
        b = Rng(42, 7).uniform(1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(42, 0).uniform(100)
        b = Rng(42, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_normal_is_inverse_cdf_of_uniforms(self):
        z = Rng(8, 3).normal(500)
        u = Rng(8, 3).uniform(500)
        np.testing.assert_array_equal(z, ndtri(np.maximum(u, 1e-300)))

    def test_chi_square_uniformity_per_stream(self):
        # 20-bin chi-square statistic on 20k uniforms per stream; df = 19,
        # so values near 19 are expected and 45 is a generous ceiling.
        bins = 20
        for stream in range(8):
            u = Rng(123, stream).uniform(20000)
            counts = np.bincount((u * bins).astype(int), minlength=bins)
            expected = len(u) / bins
            stat = float(np.sum((counts - expected) ** 2 / expected))
            assert stat < 45.0, f"stream {stream} failed uniformity: chi2={stat:.1f}"

    def test_streams_nearly_uncorrelated(self):
        base = Rng(123, 0).uniform(20000)
        for stream in range(1, 6):
            other = Rng(123, stream).uniform(20000)
            rho = np.corrcoef(base, other)[0, 1]
            assert abs(rho) < 0.03

    def test_derive_is_stable_and_keyed(self):
        root = Rng(10)
        a = root.derive(3, 4)
        b = Rng(10).derive(3, 4)
        assert (a.seed, a.stream) == (b.seed, b.stream)
        assert a.stream != root.derive(4, 3).stream

    def test_integers_in_range(self):
        vals = Rng(1).integers(7, 10000)
        assert vals.min() >= 0 and vals.max() <= 6

    def test_integers_without_size_is_a_python_int(self):
        draws = [Rng(1, s).integers(7) for s in range(40)]
        assert all(type(v) is int and 0 <= v <= 6 for v in draws)
        assert draws == [int(Rng(1, s).integers(7, 1)[0]) for s in range(40)]

    def test_permutation(self):
        perm = Rng(2).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_bernoulli_matches_probability(self):
        p = np.full(20000, 0.3)
        draws = Rng(3).bernoulli(p)
        assert abs(draws.mean() - 0.3) < 0.02

    def test_student_t_sample_moments(self):
        # nu = 5: variance nu/(nu-2) = 5/3
        t = Rng(4).student_t(5.0, 200000)
        assert abs(np.mean(t)) < 0.02
        assert abs(np.var(t) - 5.0 / 3.0) < 0.1

    # One-sample Kolmogorov-Smirnov tests of 20000 draws at fixed seeds: a
    # correct sampler fails one with probability 1e-3.
    @pytest.mark.parametrize("df", [2.5, 3.0, 5.0, 10.0, 30.0])
    def test_chi_square_draws_follow_the_chi_square_law(self, df):
        draws = Rng(36).chi_square(df, 20000)
        assert scipy.stats.kstest(draws, scipy.stats.chi2(df).cdf).pvalue >= 1e-3

    @pytest.mark.parametrize("df", [2.5, 3.0, 5.0])
    def test_student_t_draws_follow_the_t_law(self, df):
        draws = Rng(37).student_t(df, 20000)
        assert scipy.stats.kstest(draws, scipy.stats.t(df).cdf).pvalue >= 1e-3

    @pytest.mark.parametrize("draw", ["chi_square", "student_t"])
    def test_gamma_draws_are_a_function_of_seed_and_stream(self, draw):
        first = getattr(Rng(38, 5), draw)(3.0, 1000)
        assert first.tobytes() == getattr(Rng(38, 5), draw)(3.0, 1000).tobytes()
        assert first.tobytes() != getattr(Rng(38, 6), draw)(3.0, 1000).tobytes()

    @pytest.mark.parametrize("draw", ["chi_square", "student_t"])
    def test_gamma_draw_without_size_is_a_scalar(self, draw):
        value = getattr(Rng(39), draw)(3.0)
        assert np.ndim(value) == 0 and isinstance(value, float)


BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def openblas_thread_counts():
    """Independent read of the thread count of each OpenBLAS mapped into
    this process, keyed by library file name."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    counts = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = get()
                break
    return counts


@pytest.fixture
def openblas(monkeypatch):
    """Thread counts before the test, with the user's thread variables
    cleared; skips where no OpenBLAS is mapped or the map is unreadable."""
    for var in BLAS_THREAD_ENV:
        monkeypatch.delenv(var, raising=False)
    try:
        counts = openblas_thread_counts()
    except OSError:
        pytest.skip("no process map to find OpenBLAS in")
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    return counts


class TestBlasThreads:
    def test_every_loaded_openblas_reads_one_inside(self, openblas):
        with blas_threads(2):  # a known count to come back to
            with blas_threads(1):
                inside = openblas_thread_counts()
            after = openblas_thread_counts()
        assert inside == {name: 1 for name in openblas}
        assert after == {name: 2 for name in openblas}
        assert openblas_thread_counts() == openblas

    @pytest.mark.parametrize("var", BLAS_THREAD_ENV)
    def test_user_thread_variable_wins(self, openblas, monkeypatch, var):
        monkeypatch.setenv(var, "2")
        with blas_threads(2):
            pinned = openblas_thread_counts()
            with blas_threads(1):
                unchanged = openblas_thread_counts()
        assert unchanged == pinned == openblas

    def test_no_library_found_is_a_no_op(self, openblas, monkeypatch, tmp_path):
        monkeypatch.setattr(numerics, "_PROC_MAPS", str(tmp_path / "missing"))
        assert numerics._openblas_thread_controls() == []
        ran = []
        with blas_threads(1):
            ran.append(openblas_thread_counts())
        assert ran == [openblas]
