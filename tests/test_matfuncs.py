import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expnet import errors, linalg, matfuncs
from expnet.matfuncs import PRINCIPAL, BranchSpec, expm, jordan_block_log, logm

from conftest import oracle_expm, random_complex, taylor_expm


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


class TestLogm:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 10])
    def test_roundtrip_exp_of_log(self, dim):
        for seed in range(8):
            a = linalg.random_matrix(dim, seed=1000 * dim + seed)
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
            a = linalg.random_matrix(5, seed=seed + 60)
            if linalg.lu_factor(a).rcond <= 1e-3:
                continue
            lg = logm(a)
            eigs = linalg.schur_decompose(lg).eigenvalues
            assert np.all(eigs.imag <= math.pi + 1e-12)
            assert np.all(eigs.imag > -math.pi - 1e-12)

    def test_branch_offset_shifts_by_2pi(self):
        a = linalg.random_matrix(4, seed=17)
        base = logm(a)
        shifted = logm(a, BranchSpec(1))
        assert_allclose(
            shifted - base, 2j * math.pi * np.eye(4), rtol=0, atol=1e-12
        )
        # every branch is still a logarithm
        assert np.linalg.norm(expm(shifted) - a) <= 1e-8 * np.linalg.norm(a)
        down = logm(a, BranchSpec(-2))
        assert np.linalg.norm(expm(down) - a) <= 1e-8 * np.linalg.norm(a)

    def test_singular_rejected(self):
        with pytest.raises(errors.SingularInputError) as info:
            logm(np.diag([1.0, 2.0, 0.0]))
        assert "singular" in str(info.value).lower()

    def test_near_singular_rejected(self):
        with pytest.raises(errors.SingularInputError):
            logm(np.diag([1.0, 1e-13]))

    def test_defective_straddling_cluster_rejected(self):
        # coupled near-equal eigenvalues astride the negative real axis:
        # no primary logarithm is accurate here, so refuse loudly
        eps = 1e-12
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        with pytest.raises(errors.IllConditionedError):
            logm(t)

    @pytest.mark.parametrize("eps", [6e-9, 8e-9])
    def test_straddling_pair_past_gap_tolerance_rejected(self, eps):
        # the gap 2 * eps is above 1e-8, yet the coupling is 1e8 times it
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        with pytest.raises(errors.IllConditionedError):
            logm(t)

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
        kappa = matfuncs.eigenvector_condition_estimate(linalg.schur_decompose(a))
        bound = 1e-8 * np.linalg.norm(a) * max(1.0, kappa)
        assert np.linalg.norm(expm(lg) - a) <= bound

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
        kappa = matfuncs.eigenvector_condition_estimate(linalg.schur_decompose(a))
        bound = 1e-8 * np.linalg.norm(a) * max(1.0, kappa)
        assert np.linalg.norm(expm(lg) - a) <= bound

    def test_square_root_guard_rejects_blown_up_root(self):
        # the root's coupling entry 1 / (sqrt(l1) + sqrt(l2)) ~ 1.7e8 is past
        # the entry limit, independently of the cluster guard in logm
        eps = 6e-9
        t = np.array(
            [[-1.0 + eps * 1j, 1.0], [0.0, -1.0 - eps * 1j]], dtype=complex
        )
        with pytest.raises(errors.IllConditionedError):
            matfuncs._sqrtm_triu(t)

    @pytest.mark.parametrize("other", [2.0, -1.0 + 1e-6j])
    def test_negative_zero_imaginary_part_on_principal_sheet(self, other):
        # -1 - 0j has principal arg +pi: the root chain must not take
        # sqrt(-1 - 0j) = -i, and a near pair just above the cut does not
        # straddle it
        a = np.array([[complex(-1.0, -0.0), 1.0], [0.0, other]])
        lg = logm(a)
        assert lg[0, 0] == pytest.approx(1j * math.pi)
        kappa = matfuncs.eigenvector_condition_estimate(linalg.schur_decompose(a))
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
        with pytest.raises(errors.SingularInputError):
            jordan_block_log(0.0, 3)


class TestCommutingProduct:
    def test_polynomial_pairs_commute(self):
        for seed in range(10):
            a = random_complex(seed, 4)
            a = a / np.linalg.norm(a)
            b = 0.7 * a @ a - 1.3 * a + 0.2 * np.eye(4)
            assert matfuncs.check_commuting_product(a, b) <= 1e-9

    def test_noncommuting_pair_fails(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert matfuncs.check_commuting_product(a, b) > 1e-3

    def test_conditioning_estimate_orders(self):
        diag = linalg.schur_decompose(np.diag([1.0, 2.0, 3.0]))
        skewed = linalg.schur_decompose(
            np.array([[1.0, 1e6], [0.0, 1.0 + 1e-9]])
        )
        assert matfuncs.eigenvector_condition_estimate(diag) == 1.0
        assert matfuncs.eigenvector_condition_estimate(skewed) > 1e6
