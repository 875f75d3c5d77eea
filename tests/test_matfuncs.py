import bisect
import math
import re
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, linalg, matfuncs, solver
from expnet.matfuncs import PRINCIPAL, expm, logm

from conftest import (
    check_commuting_product,
    eigenvector_condition_estimate,
    jordan_block_log,
    oracle_expm,
    random_complex,
    random_matrix,
    taylor_expm,
)


class TestExpm:
    def test_zero_gives_identity(self):
        assert_allclose(expm(np.zeros((4, 4))), np.eye(4), rtol=0, atol=0)

    def test_matches_taylor_small_norm(self):
        # 30-term Taylor is an exact-enough oracle below unit norm
        for seed in range(40):
            dim = seed % 8 + 1
            a = random_complex(seed, dim)
            a = a / max(1.0, np.linalg.norm(a)) * (0.1 + 0.9 * (seed % 10) / 10)
            ref = taylor_expm(a, terms=30)
            assert np.linalg.norm(expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_matches_oracle_large_norm(self):
        # scaling and squaring must stay accurate far above the threshold
        for seed, scale in ((1, 5.0), (2, 20.0), (3, 60.0)):
            a = random_complex(seed, 4, scale=scale / 4)
            ref = oracle_expm(a)
            rel = np.linalg.norm(expm(a) - ref) / np.linalg.norm(ref)
            assert rel < 1e-10

    def test_diagonal_is_entrywise_exp(self):
        d = np.diag([1.0 + 2.0j, -3.0, 0.25j])
        assert_allclose(expm(d), np.diag(np.exp(np.diag(d))), rtol=1e-14, atol=1e-14)

    def test_block_structure_preserved(self):
        # exp of block-diagonal is block-diagonal of exps
        a = random_complex(7, 2)
        b = random_complex(8, 3)
        blk = np.zeros((5, 5), dtype=complex)
        blk[:2, :2], blk[2:, 2:] = a, b
        out = expm(blk)
        assert_allclose(out[:2, :2], expm(a), atol=1e-13)
        assert_allclose(out[2:, 2:], expm(b), atol=1e-13)
        assert_allclose(out[:2, 2:], 0, atol=1e-14)

    def test_norm_limit_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                expm(np.eye(2) * 2e8)

    @pytest.mark.parametrize("norm", [1e80, 1e100])
    def test_skew_hermitian_past_the_norm_limit_is_refused(self, norm):
        # its exponential is unitary, so nothing overflows; past the limit
        # scipy's Pade picker takes degree 3 without scaling and returns a
        # finite matrix near -I
        g = random_complex(21, 8)
        h = (g - g.conj().T) / 2
        h = h * (norm / linalg.one_norm(h))
        assert np.abs(scipy.linalg.expm(h) + np.eye(8)).max() < 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="exceeds 1e\\+08"):
                expm(h)

    def test_value_overflow(self):
        # norm below the hard input limit but exp overflows double range
        with pytest.raises(OverflowError):
            expm(np.eye(2) * 1e6)

    @pytest.mark.parametrize(
        "a", [np.eye(2) * 800.0, np.array([[800.0, 1.0], [0.0, 800.0]])]
    )
    def test_overflow_raises_without_warning(self, a):
        # just past exp's double range (e^709): an error, never a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                expm(a)

    def test_inverse_relation(self):
        a = random_complex(11, 5)
        assert_allclose(expm(a) @ expm(-a), np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_is_a_value_error(self, bad):
        # the norm guard sees it first; the refusal names the entry, not overflow
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            expm(a)

    def test_dense_overflow_raises_without_warning(self):
        # both corners nonzero, so the squarings run outside scipy's wrapper
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                expm(np.full((3, 3), 400.0))

    @pytest.mark.parametrize(
        "structure", ["dense", "upper", "lower", "diagonal", "corner-zero"]
    )
    def test_matches_scipy_expm_bit_for_bit(self, structure):
        # the dense route calls scipy's kernels directly; a scipy upgrade
        # that changes them must fail here. 1-norms 1e-3 to 5e3 take 0 to
        # 10 squarings; the Hermitian part is small, so nothing overflows
        rng = np.random.default_rng(18)
        for dim in range(1, 41):
            for target in (1e-3, 0.5, 5.0, 60.0, 700.0, 5e3):
                b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                a = (b - b.conj().T) + 0.02 * b
                if structure == "upper":
                    a = np.triu(a)
                elif structure == "lower":
                    a = np.tril(a)
                elif structure == "diagonal":
                    a = np.diag(np.diagonal(a))
                elif structure == "corner-zero" and dim >= 2:
                    a[1, 0] = 0.0
                a *= target / np.abs(a).sum(axis=0).max()
                assert expm(a).tobytes() == scipy.linalg.expm(a).tobytes(), (dim, target)


def mpmath_logm(a, digits=40):
    """V log(D) V^-1 from mpmath's eigendecomposition at ``digits`` digits:
    an oracle that shares no code with logm (distinct eigenvalues only)."""
    with mpmath.workdps(digits):
        eigenvalues, v = mpmath.eig(mpmath.matrix(a.tolist()))
        out = v * mpmath.diag([mpmath.log(e) for e in eigenvalues]) * mpmath.inverse(v)
        return np.array(out.tolist(), dtype=complex)


def label_quotient(dim, seed):
    """e * Y1^-1 Y2 of an admitted instance. The solver takes logm of
    Y1^-1 Y2 itself; the factor e only shifts the logarithm by I, and it
    stays because the pinned square-root counts were measured with it."""
    inst = solver.random_instance(dim, seed)
    return math.e * np.linalg.solve(inst.y1, inst.y2)


def roundtrip_bound(a):
    """Right side of logm's documented roundtrip contract."""
    kappa = eigenvector_condition_estimate(linalg.schur_decompose(a))
    return 1e-8 * np.linalg.norm(a) * max(1.0, kappa)


@st.composite
def logm_inputs(draw):
    """Random d <= 6 inputs over twelve decades of scale. Most with d >= 2
    hold a Jordan block of size >= 2, split by 1e-12 to 1e-1, whose
    eigenvalue sits on, beside or away from the branch cut."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    block = draw(st.integers(0, dim)) if dim >= 2 else 0
    if block >= 2:
        angle = draw(st.sampled_from([math.pi, -math.pi + 1e-9, 3.0, 0.5, 0.0]))
        split = 10.0 ** draw(st.integers(-12, -1))
        jordan = np.exp(1j * angle) * np.eye(block) + np.eye(block, k=1)
        jordan += np.diag(split * rng.standard_normal(block) * (1 + 1j))
        a[:block, :block] = jordan
        a[block:, :block] = 0
        mix = np.eye(dim) + 0.5 * rng.standard_normal((dim, dim))
        a = mix @ a @ np.linalg.inv(mix)
    return a * 10.0 ** draw(st.integers(-6, 6))


@st.composite
def bounded_matrices(draw):
    """d <= 6 matrices of complex entries with |z| <= 10, as hypothesis
    draws them: zeros, repeated entries and rank-deficient forms abound."""
    dim = draw(st.integers(1, 6))
    entries = st.lists(
        st.complex_numbers(max_magnitude=10), min_size=dim * dim, max_size=dim * dim
    )
    return np.array(draw(entries), dtype=np.complex128).reshape(dim, dim)


def precount_logm_triu(t, sqrtm):
    """The logarithm of an upper-triangular matrix, but for its diagonal,
    with the square roots counted in two loops: scalar roots of the
    diagonal until every eigenvalue is within theta_7 of 1, that many
    matrix roots with no test in between, then one alpha_2(X) test per
    further root. Returns the result and the number of roots taken."""
    eye = np.eye(t.shape[0], dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128) + 0.0
    theta = matfuncs.LOGM_PADE_THETA[-1]
    diagonal, roots = t.diagonal(), 0
    while np.abs(diagonal - 1.0).max() > theta:
        if roots >= matfuncs.LOGM_MAX_SQRTS:
            raise errors.ConvergenceError("no Pade region")
        diagonal = np.sqrt(diagonal)
        roots += 1
    work = t
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for _ in range(roots):
            work = sqrtm(work)
        while True:
            x = work - eye
            x2 = x @ x
            alpha = max(
                np.linalg.norm(x2, 1) ** 0.5,
                np.linalg.norm(x2 @ x, 1) ** (1.0 / 3.0),
            )
            if alpha <= theta:
                break
            if roots >= matfuncs.LOGM_MAX_SQRTS:
                raise errors.ConvergenceError("no Pade region")
            work = sqrtm(work)
            roots += 1
    m = bisect.bisect_left(matfuncs.LOGM_PADE_THETA, alpha) + 1
    nodes, weights = matfuncs._pade_nodes(m)
    trtrs = linalg._lapack(x.dtype).trtrs
    out = np.zeros_like(x)
    for node, weight in zip(nodes, weights):
        out += weight * trtrs(eye + node * x, x)[0]
    out *= 2.0**roots
    return out, roots


def exact_diagonal(log_t, t):
    """``log_t`` with the diagonal logm writes, the principal logs of the
    diagonal of t (None stays None)."""
    if log_t is not None:
        np.fill_diagonal(log_t, matfuncs._principal_log(np.diagonal(t)))
    return log_t


def inverse_scaling_log(t):
    """The logarithm of an upper-triangular t by inverse scaling and
    squaring, with logm's diagonal."""
    return exact_diagonal(matfuncs._logm_triu(t), t)


def eigenvector_log(t):
    """The logarithm of an upper-triangular t through its eigenvectors,
    with logm's diagonal, or None where the gate declines."""
    logs = matfuncs._principal_log(np.diagonal(t))
    return exact_diagonal(matfuncs._logm_triu_eigen(t, logs), t)


def straddling_inputs(count, seed):
    """Random inputs with one pair of eigenvalues astride the branch cut,
    -r +- i*gap/2 at random places on the diagonal of a triangular
    factor, with d 2 to 8 and the gap (1e-9 to 1e-1) and the scale of
    the strictly-upper coupling (1e-3 to 10) drawn log-uniformly; the
    factor is rotated by a random unitary."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 9))
        gap = 10.0 ** rng.uniform(-9, -1)
        coupling = 10.0 ** rng.uniform(-3, 1)
        eig = rng.uniform(0.5, 2.0, dim) * np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
        i, j = rng.choice(dim, size=2, replace=False)
        radius = rng.uniform(0.5, 2.0)
        eig[i], eig[j] = -radius + 0.5j * gap, -radius - 0.5j * gap
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = np.diag(eig) + coupling * np.triu(noise, 1)
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(gauss)[0]
        yield q @ t @ q.conj().T


def root_count_inputs():
    """Upper-triangular inputs: random at d 1 to 32, Jordan blocks, and
    pairs of eigenvalues astride the branch cut at -1."""
    for dim in range(1, 33):
        rng = np.random.default_rng([dim, 16])
        for scale in (1e-3, 1.0, 1e3):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            yield np.triu(scale * a)
    for lam in (1e-4, 0.5, -2.0, 3j, 1e4 * (1 - 1j), -1.0):
        for size in (2, 3, 5, 8):
            yield lam * np.eye(size) + np.eye(size, k=1)
    for gap in (1e-1, 1e-4, 1e-8):
        for coupling in (1e-3, 1.0):
            yield np.array(
                [[complex(-1.0, gap / 2), coupling], [0.0, complex(-1.0, -gap / 2)]]
            )


def counted_inverse_scaling(monkeypatch) -> list:
    """Replace matfuncs._logm_triu by a wrapper that records the order of
    each triangular factor it is called on; return the record."""
    calls = []
    real = matfuncs._logm_triu

    def counted(t):
        calls.append(t.shape[0])
        return real(t)

    monkeypatch.setattr(matfuncs, "_logm_triu", counted)
    return calls


def near_defective_triangles(count, seed):
    """Upper-triangular inputs, d 2 to 5, with one pair of eigenvalues at
    a gap of 1e-8 to 1e-1 coupled at 1 to 1e5 times the gap (both drawn
    log-uniformly), half of the pairs astride the branch cut at -1."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        dim = int(rng.integers(2, 6))
        gap = 10.0 ** rng.uniform(-8, -1)
        eig = rng.uniform(0.5, 2.0, dim) * np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        if k % 2:
            eig[i], eig[j] = -1.0 + 0.5j * gap, -1.0 - 0.5j * gap
        else:
            eig[j] = eig[i] + gap * np.exp(1j * rng.uniform(-math.pi, math.pi))
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = np.diag(eig) + 0.3 * np.triu(noise, 1)
        t[i, j] = 10.0 ** rng.uniform(0, 5) * gap
        yield t


def eigenvector_rcond(t):
    """1-norm rcond of the eigenvectors of an upper-triangular t, by
    numpy's eigensolver and an explicit inverse."""
    vectors = np.linalg.eig(t)[1]
    return 1.0 / (np.linalg.norm(vectors, 1) * np.linalg.norm(np.linalg.inv(vectors), 1))


class TestEigenvectorPath:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_solver_quotients_agree_with_inverse_scaling(self, dim):
        for seed in (1, 2, 3):
            t = linalg.schur_decompose(label_quotient(dim, seed)).t
            ref = inverse_scaling_log(t)
            got = eigenvector_log(t)
            assert got is not None
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), seed

    @pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
    def test_solver_quotients_take_the_eigenvector_path(self, dim, monkeypatch):
        # so TestLogm.test_matches_mpmath_oracle holds this path to the
        # oracle at 1e-13
        calls = counted_inverse_scaling(monkeypatch)
        for seed in range(1, 6):
            a = label_quotient(dim, seed)
            lg = logm(a)
            assert np.linalg.norm(expm(lg) - a) <= 1e-13 * np.linalg.norm(a)
        assert calls == []

    def test_repeated_eigenvalues(self, monkeypatch):
        # a repeated eigenvalue with a full set of eigenvectors is no
        # obstacle: W = I for a diagonal, and e1, e2 for the pair below
        calls = counted_inverse_scaling(monkeypatch)
        diagonal = np.diag([2.0, 2.0, -1.0, 2.0, 1j])
        expected = np.diag(np.log(np.diagonal(diagonal) + 0.0))
        assert_allclose(logm(diagonal), expected, rtol=0, atol=1e-15)
        t = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 3.0]], dtype=complex)
        got = eigenvector_log(t)
        ref = inverse_scaling_log(t)
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        a = q @ t @ q.T
        assert np.linalg.norm(expm(logm(a)) - a) <= 1e-13 * np.linalg.norm(a)
        assert calls == [3]  # the direct reference call only

    @pytest.mark.parametrize("branch", [PRINCIPAL, 1, -1, 3])
    def test_diagonal_is_the_exact_logs_on_both_paths(self, branch, monkeypatch):
        # logm writes the principal logs of T's eigenvalues plus 2*pi*i*k
        # on the diagonal of log T, whichever path took the rest; T is
        # upper triangular, so its Schur form is T itself
        rng = np.random.default_rng(35)
        calls = counted_inverse_scaling(monkeypatch)
        floors = (matfuncs.EIGENVECTOR_RCOND_FLOOR, math.inf)  # inf refuses every W
        for dim in (1, 2, 5, 8):
            t = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            exact = matfuncs._principal_log(np.diagonal(t)) + 2j * math.pi * branch
            for floor in floors:
                monkeypatch.setattr(matfuncs, "EIGENVECTOR_RCOND_FLOOR", floor)
                assert_array_equal(np.diagonal(logm(t, branch)), exact)
        assert calls == [1, 2, 5, 8]

    @pytest.mark.parametrize("branch", [-1, 1])
    def test_branch_offset_matches_inverse_scaling(self, branch):
        for dim, seed in ((4, 1), (16, 2)):
            a = label_quotient(dim, seed)
            form = linalg.schur_decompose(a)
            shift = 2j * math.pi * branch * np.eye(dim)
            ref = form.q @ (matfuncs._logm_triu(form.t) + shift) @ form.q.conj().T
            got = logm(a, branch)
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_gate_sends_defective_inputs_to_inverse_scaling(self, monkeypatch):
        calls = counted_inverse_scaling(monkeypatch)
        rng = np.random.default_rng(12)
        count = 0
        # Jordan blocks, exact and rotated
        for lam in (100.0, 0.5 - 0.3j, -0.4 + 0.9j, 3j):
            for size in (2, 3, 5):
                block = lam * np.eye(size) + np.eye(size, k=1)
                q = np.linalg.qr(rng.standard_normal((size, size)))[0]
                for a in (block, q @ block @ q.T):
                    logm(a)
                    count += 1
        # near-defective pairs, off the cut
        for gap in (1e-6, 1e-9, 1e-12):
            t = np.array([[2.0, 1.0], [0.0, 2.0 + gap]], dtype=complex)
            logm(t)
            count += 1
        # straddling clusters: refused after the root chain
        for eps in (1e-12, 6e-9, 8e-9):
            t = np.array([[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]])
            with pytest.raises(errors.IllConditionedError):
                logm(t)
            count += 1
        assert len(calls) == count

    @pytest.mark.parametrize("fault", ["info", "order", "lower"])
    def test_a_misbehaving_eigensolver_falls_back(self, fault, monkeypatch):
        # whatever zgeev returns that is not T's diagonal in order with an
        # upper-triangular W sends the logarithm to inverse scaling
        real = linalg._lapack(np.dtype(np.complex128))

        def geev(t, compute_vl=1):
            w, vl, vr, info = real.geev(t, compute_vl=compute_vl)
            if fault == "info":
                info = 1
            elif fault == "order":
                w = w[::-1]
            else:
                vr = vr.copy()
                vr[-1, 0] = 1e-300
            return w, vl, vr, info

        routines = SimpleNamespace(**{**vars(real), "geev": geev})
        monkeypatch.setattr(matfuncs, "_lapack", lambda dtype: routines)
        a = label_quotient(4, 1)
        t = linalg.schur_decompose(a).t
        assert eigenvector_log(t) is None
        calls = counted_inverse_scaling(monkeypatch)
        form = linalg.schur_decompose(a)
        expected = form.q @ inverse_scaling_log(form.t) @ form.q.conj().T
        assert logm(a).tobytes() == expected.tobytes()
        assert calls == [4, 4]

    def test_eigenvector_path_meets_the_oracle_wherever_the_gate_takes_it(self):
        # near-defective triangles on both sides of the floor: each log the
        # eigenvector path returns meets the 60-digit oracle at 1e-13, and
        # the gate refuses exactly the W below EIGENVECTOR_RCOND_FLOOR
        taken = refused = 0
        for t in near_defective_triangles(40, 33):
            got = eigenvector_log(t)
            rcond = eigenvector_rcond(t)
            if got is None:
                assert rcond < 3 * matfuncs.EIGENVECTOR_RCOND_FLOOR
                refused += 1
                continue
            assert rcond > matfuncs.EIGENVECTOR_RCOND_FLOOR / 3
            truth = mpmath_logm(t, digits=60)
            assert np.linalg.norm(got - truth) <= 1e-13 * np.linalg.norm(truth)
            taken += 1
        assert taken >= 8 and refused >= 8


class TestLogm:
    def test_diagonal_root_count_matches_the_two_stage_loop(self, monkeypatch):
        # counting scalar roots of the diagonal first takes the same
        # matrix roots as testing the diagonal before alpha_2 on each pass
        real_sqrtm = matfuncs._sqrtm_triu
        calls = []

        def counting_sqrtm(t):
            calls.append(1)
            return real_sqrtm(t)

        monkeypatch.setattr(matfuncs, "_sqrtm_triu", counting_sqrtm)
        compared = 0
        for t in root_count_inputs():
            calls.clear()
            try:
                ref, roots = precount_logm_triu(t, real_sqrtm)
            except errors.ExpnetError as err:
                with pytest.raises(type(err)):
                    matfuncs._logm_triu(t)
                continue
            out = matfuncs._logm_triu(t)
            assert len(calls) == roots
            assert out.tobytes() == ref.tobytes()
            compared += 1
        assert compared > 100

    def test_square_root_count(self, monkeypatch):
        # Al-Mohy & Higham's alpha_2(X) <= theta_7 stop, counted on the
        # Schur factors of the solver's own logm inputs (logm itself takes
        # their logarithms through the eigenvectors)
        roots = []
        real_sqrtm = matfuncs._sqrtm_triu

        def counting_sqrtm(t):
            roots.append(t.shape[0])
            return real_sqrtm(t)

        monkeypatch.setattr(matfuncs, "_sqrtm_triu", counting_sqrtm)
        totals = {}
        for dim in (4, 16, 32):
            for seed in range(1, 6):
                matfuncs._logm_triu(linalg.schur_decompose(label_quotient(dim, seed)).t)
            totals[dim] = roots.count(dim)
        assert totals == {4: 23, 16: 26, 32: 30}

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_mpmath_oracle(self, dim):
        for seed in (1, 2, 3):
            a = label_quotient(dim, seed)
            truth = mpmath_logm(a)
            assert np.linalg.norm(logm(a) - truth) <= 1e-13 * np.linalg.norm(truth)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_positive_scale_shifts_log(self, dim):
        # a positive scale keeps every eigenvalue's argument, so
        # logm(alpha A) = ln(alpha) I + logm(A) on each branch
        for seed in (1, 2, 3):
            a = label_quotient(dim, seed)
            for branch in (PRINCIPAL, 1):
                base = logm(a, branch)
                for alpha in (0.5, 2.0, math.e, 4.0, 1e3):
                    shifted = base + math.log(alpha) * np.eye(dim)
                    err = np.linalg.norm(logm(alpha * a, branch) - shifted)
                    assert err <= 1e-13 * np.linalg.norm(shifted), (seed, branch, alpha)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(a=logm_inputs(), branch=st.integers(-3, 3))
    def test_meets_contract_or_raises(self, a, branch):
        try:
            lg = logm(a, branch)
        except (
            errors.NearSingularError,
            errors.IllConditionedError,
            errors.ConvergenceError,
        ):
            return
        assert np.linalg.norm(expm(lg) - a) <= roundtrip_bound(a)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(a=bounded_matrices(), branch=st.integers(-2, 2))
    def test_bounded_entries_meet_contract_or_raise(self, a, branch):
        # a log comes back only for input that clears linalg.SINGULAR_RCOND,
        # and it meets the roundtrip bound
        try:
            lg = logm(a, branch)
        except (
            errors.NearSingularError,
            errors.IllConditionedError,
            errors.ConvergenceError,
        ):
            return
        assert linalg.lu_factor(a).rcond > linalg.SINGULAR_RCOND
        assert np.linalg.norm(expm(lg) - a) <= roundtrip_bound(a)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 10])
    def test_roundtrip_exp_of_log(self, dim):
        for seed in range(8):
            a = random_matrix(dim, seed=1000 * dim + seed)
            if linalg.lu_factor(a).rcond <= 1e-3:
                continue
            back = expm(logm(a))
            assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)

    def test_roundtrip_log_of_exp(self):
        # valid when the spectrum of a stays inside the principal strip
        for seed in range(8):
            a = random_complex(seed, 4, scale=0.4)
            assert np.linalg.norm(logm(expm(a)) - a) <= 1e-9 * np.linalg.norm(a)

    def test_scalar_values(self):
        assert_allclose(logm(np.array([[math.e]])), [[1.0]], rtol=1e-14)
        # principal branch puts the cut argument at +pi
        assert_allclose(logm(np.array([[-1.0]])), [[1j * math.pi]], rtol=1e-14)
        assert_allclose(
            logm(np.array([[1.0j]])), [[1j * math.pi / 2]], rtol=1e-14, atol=1e-16
        )

    def test_eigenvalue_args_in_principal_strip(self):
        for seed in range(6):
            a = random_matrix(5, seed=seed + 60)
            if linalg.lu_factor(a).rcond <= 1e-3:
                continue
            lg = logm(a)
            eigs = linalg.schur_decompose(lg).eigenvalues
            assert np.all(eigs.imag <= math.pi + 1e-12)
            assert np.all(eigs.imag > -math.pi - 1e-12)

    def test_branch_offset_shifts_by_2pi(self):
        a = random_matrix(4, seed=17)
        base = logm(a)
        assert_array_equal(logm(a, PRINCIPAL), base)
        shifted = logm(a, 1)
        assert_allclose(
            shifted - base, 2j * math.pi * np.eye(4), rtol=0, atol=1e-12
        )
        # every branch is still a logarithm
        assert np.linalg.norm(expm(shifted) - a) <= 1e-8 * np.linalg.norm(a)
        down = logm(a, -2)
        assert np.linalg.norm(expm(down) - a) <= 1e-8 * np.linalg.norm(a)

    @pytest.mark.parametrize("branch", [0.5, -1.5, True, False, math.nan, math.inf, "1"])
    def test_branch_must_be_an_integer(self, branch):
        # a half-integer branch would return L + i*pi*I, whose exponential is -a
        with pytest.raises(ValueError, match=f"^branch .*got {re.escape(repr(branch))}$"):
            logm(random_matrix(3, seed=5), branch)

    @pytest.mark.parametrize(
        "branch", [10**400, -(10**400), 10**308, 2.0**1022],
        ids=["10**400", "-10**400", "10**308", "2.0**1022"],
    )
    def test_branch_past_float_range_is_a_value_error(self, branch):
        # 2*pi*branch must be a float, or the shift cannot be written
        with pytest.raises(ValueError, match=r"^branch must keep 2\*pi\*branch in float range"):
            logm(random_matrix(3, seed=5), branch)

    def test_integral_branch_values_give_the_same_bytes(self):
        a = random_matrix(3, seed=5)
        assert logm(a, 1.0).tobytes() == logm(a, 1).tobytes()
        assert logm(a, np.int64(-2)).tobytes() == logm(a, -2).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_non_square_input_is_a_dimension_error(self, shape):
        with pytest.raises(errors.DimensionError):
            logm(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_is_a_value_error(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            logm(a)

    def test_singular_rejected(self):
        with pytest.raises(errors.NearSingularError) as info:
            logm(np.diag([1.0, 2.0, 0.0]))
        assert "singular" in str(info.value).lower()
        assert info.value.rcond <= linalg.SINGULAR_RCOND

    def test_near_singular_rejected(self):
        with pytest.raises(errors.NearSingularError) as info:
            logm(np.diag([1.0, 1e-13]))
        assert info.value.rcond <= linalg.SINGULAR_RCOND

    def test_root_cap_raises_convergence_error(self, monkeypatch):
        # 100 needs more than two square roots to come within theta_7 of 1;
        # a Jordan block has no eigenvector basis, so the roots are taken
        monkeypatch.setattr(matfuncs, "LOGM_MAX_SQRTS", 2)
        with pytest.raises(errors.ConvergenceError, match="square-root chain"):
            logm(np.array([[100.0, 1.0], [0.0, 100.0]]))

    def test_defective_straddling_cluster_rejected(self):
        # coupled near-equal eigenvalues astride the negative real axis:
        # no primary logarithm is accurate here, so refuse loudly, naming
        # the eigenvalues at the ends of the span and the entry's modulus
        eps = 1e-12
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        with pytest.raises(errors.IllConditionedError) as info:
            logm(t)
        assert str(info.value).startswith("eigenvalues -1+1e-12j to -1-1e-12j ")
        assert "modulus 3.142e+12, above 1257" in str(info.value)

    @pytest.mark.parametrize("eps", [6e-9, 8e-9])
    def test_straddling_pair_past_gap_tolerance_rejected(self, eps):
        # the gap 2 * eps is above 1e-8, yet the coupling is 1e8 times it;
        # the guard is a ratio, so a positive scale does not move it
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        for scale in (1.0, 0.5, math.e, 1e3):
            with pytest.raises(errors.IllConditionedError):
                logm(scale * t)

    @pytest.mark.parametrize("eps", [1e-9, 8e-9, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1])
    def test_rotated_straddling_cluster_meets_contract_or_raises(self, eps):
        # rounding in the Schur form moves the computed eigenvalues of a
        # rotated near-defective pair by ~1e-8, so their gap no longer shows
        # how close they are; each call must still meet the roundtrip
        # contract or raise
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
        a = q @ t @ q.T
        try:
            lg = logm(a)
        except errors.IllConditionedError:
            return
        kappa = eigenvector_condition_estimate(linalg.schur_decompose(a))
        bound = 1e-8 * np.linalg.norm(a) * max(1.0, kappa)
        assert np.linalg.norm(expm(lg) - a) <= bound

    @pytest.mark.parametrize(
        "size, delta", [(3, 0.05), (4, 0.05), (4, 0.02), (5, 0.05), (6, 0.05)]
    )
    def test_rotated_straddling_chain_meets_contract_or_raises(self, size, delta):
        # eigenvalues alternate across the cut near -1, each coupled to the
        # next with coupling/gap at most 1 / (2 delta) = 25; the chain
        # grows the log like (coupling/gap)^(size-1)
        steps = np.array([(-1) ** k * (k // 2 + 1) for k in range(size)])
        t = np.diag(np.exp(1j * (math.pi + delta * steps))) + np.eye(size, k=1)
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((size, size)))[0]
        a = q @ t @ q.T
        try:
            lg = logm(a)
        except errors.IllConditionedError:
            return
        assert np.linalg.norm(expm(lg) - a) <= roundtrip_bound(a)

    def test_straddling_sweep_meets_contract_or_raises(self):
        # every input either meets the roundtrip contract or is refused
        # by name; both sides of the branch-cut guard must be exercised
        outcomes = {"met": 0, errors.IllConditionedError: 0, errors.NearSingularError: 0}
        for a in straddling_inputs(300, 21):
            try:
                lg = logm(a)
            except (errors.IllConditionedError, errors.NearSingularError) as err:
                outcomes[type(err)] += 1
                continue
            assert np.linalg.norm(expm(lg) - a) <= roundtrip_bound(a)
            outcomes["met"] += 1
        assert outcomes["met"] >= 50
        assert outcomes[errors.IllConditionedError] >= 50

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_square_root_guard_is_scale_invariant(self, scale):
        # the root of s * a is sqrt(s) times the root of a, so scaling must
        # not turn an accepted input into a refused one
        eps = 5e-3
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((2, 2)))[0]
        a = scale * (q @ t @ q.T)
        lg = logm(a)
        kappa = eigenvector_condition_estimate(linalg.schur_decompose(a))
        bound = 1e-8 * np.linalg.norm(a) * max(1.0, kappa)
        assert np.linalg.norm(expm(lg) - a) <= bound

    def test_square_root_matches_scipy_sqrtm_bit_for_bit(self):
        # _sqrtm_triu calls scipy's kernel directly; pin it to the public
        # function on triangular input, roots that blow up included
        rng = np.random.default_rng(19)
        inputs = list(root_count_inputs())
        for dim in range(1, 41):
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            inputs += [np.triu(b), np.triu(b) + dim * np.eye(dim)]
        for t in inputs:
            t = np.asarray(t, dtype=np.complex128) + 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                ref = scipy.linalg.sqrtm(t)
            assert matfuncs._sqrtm_triu(t).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("eps", [1e-12, 1e-300, 5e-324])
    def test_blown_up_root_is_quiet(self, eps):
        # the straddling pair's root blows up (to inf at the smallest gap):
        # an IllConditionedError, and no warning from scipy or numpy, on the
        # triangular input and on a rotation of it
        t = np.array(
            [[-1.0 + eps * 1j, 1.0, 0.5], [0.0, -1.0 - eps * 1j, 2.0], [0.0, 0.0, 3.0]],
            dtype=complex,
        )
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
        for a in (t, q @ t @ q.T):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(errors.IllConditionedError):
                    logm(a)
            assert caught == []

    @pytest.mark.parametrize("other", [2.0, -1.0 + 1e-6j])
    def test_negative_zero_imaginary_part_on_principal_sheet(self, other):
        # -1 - 0j has principal arg +pi: the root chain must not take
        # sqrt(-1 - 0j) = -i, and a near pair just above the cut does not
        # straddle it
        a = np.array([[complex(-1.0, -0.0), 1.0], [0.0, other]])
        lg = logm(a)
        assert lg[0, 0] == pytest.approx(1j * math.pi)
        kappa = eigenvector_condition_estimate(linalg.schur_decompose(a))
        assert np.linalg.norm(expm(lg) - a) <= 1e-12 * kappa * np.linalg.norm(a)

    def test_decoupled_near_pair_accepted(self):
        # same eigenvalues but zero coupling: exact diagonal log applies
        eps = 1e-12
        t = np.diag([-1.0 + eps * 1j, -1.0 - eps * 1j])
        lg = logm(t)
        assert np.linalg.norm(expm(lg) - t) <= 1e-10

    def test_real_spd_log_is_real(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((5, 5))
        a = b @ b.T + 5 * np.eye(5)
        lg = logm(a)
        assert np.max(np.abs(lg.imag)) < 1e-12


class TestJordanBlockLog:
    def test_shape_and_diagonal(self):
        lg = jordan_block_log(2.0, 4)
        assert lg.shape == (4, 4)
        assert_allclose(np.diag(lg), np.full(4, math.log(2.0)))

    def test_superdiagonal_coefficients(self):
        # log(lam I + N) = log(lam) I + sum_j (-1)^(j+1) (N/lam)^j / j
        lam = 0.5 - 0.3j
        lg = jordan_block_log(lam, 4)
        assert lg[0, 1] == pytest.approx(1.0 / lam)
        assert lg[0, 2] == pytest.approx(-1.0 / (2.0 * lam**2))
        assert lg[0, 3] == pytest.approx(1.0 / (3.0 * lam**3))

    def test_exp_recovers_block(self):
        for lam in (2.0, 1.0 + 1.0j, -0.4 + 0.9j):
            for m in (1, 2, 3, 5):
                block = lam * np.eye(m, dtype=complex) + np.eye(m, k=1, dtype=complex)
                assert_allclose(expm(jordan_block_log(lam, m)), block, atol=1e-12)

    def test_matches_logm_on_conjugated_forms(self):
        # dual route: Schur-based logm vs the closed-form block series
        rng = np.random.default_rng(99)
        for lam in (2.0, 1.0 + 1.0j, 0.5 - 0.3j, 3.0j):
            for m in (2, 3, 4):
                block = lam * np.eye(m, dtype=complex) + np.eye(m, k=1, dtype=complex)
                g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                s = np.eye(m, dtype=complex) + 0.25 * g
                sinv = np.linalg.inv(s)
                expected = s @ jordan_block_log(lam, m) @ sinv
                got = logm(s @ block @ sinv)
                assert (
                    np.linalg.norm(got - expected)
                    <= 1e-7 * np.linalg.norm(expected)
                )

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(errors.NearSingularError) as info:
            jordan_block_log(0.0, 3)
        assert info.value.rcond == 0.0


class TestCommutingProduct:
    def test_polynomial_pairs_commute(self):
        for seed in range(10):
            a = random_complex(seed, 4)
            a = a / np.linalg.norm(a)
            b = 0.7 * a @ a - 1.3 * a + 0.2 * np.eye(4)
            assert check_commuting_product(a, b) <= 1e-9

    def test_noncommuting_pair_fails(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert check_commuting_product(a, b) > 1e-3

    def test_conditioning_estimate_orders(self):
        diag = linalg.schur_decompose(np.diag([1.0, 2.0, 3.0]))
        skewed = linalg.schur_decompose(
            np.array([[1.0, 1e6], [0.0, 1.0 + 1e-9]])
        )
        assert eigenvector_condition_estimate(diag) == 1.0
        assert eigenvector_condition_estimate(skewed) > 1e6
