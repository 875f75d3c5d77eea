import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, linalg

from conftest import eigenvalues_reference, matched_distance


class TestCMatrix:
    def test_accepts_real_and_complex(self):
        m = linalg.cmatrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)

    def test_rejects_non_square(self):
        with pytest.raises(errors.DimensionError):
            linalg.cmatrix(np.zeros((2, 3)))
        with pytest.raises(errors.DimensionError):
            linalg.cmatrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.cmatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            linalg.cmatrix([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            linalg.cmatrix(np.array([[1.0, 1j * np.inf], [0.0, 1.0]]))

    def test_result_is_read_only(self):
        m = linalg.cmatrix(np.eye(2))
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


class TestLu:
    def test_identity_rcond_is_one(self):
        f = linalg.lu_factor(np.eye(4))
        assert f.rcond == pytest.approx(1.0)

    def test_singular_rcond_is_zero(self):
        f = linalg.lu_factor(np.diag([1.0, 2.0, 0.0]))
        assert f.rcond == 0.0
        assert linalg.lu_factor(np.zeros((3, 3))).rcond == 0.0

    def test_rcond_range(self):
        for seed in range(10):
            a = linalg.random_matrix(5, seed=seed)
            f = linalg.lu_factor(a)
            assert 0.0 < f.rcond <= 1.0

    def test_solve_multiply_back(self):
        for seed in range(5):
            a = linalg.random_matrix(6, seed=seed)
            rng = np.random.default_rng(seed + 50)
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            x = linalg.lu_solve(linalg.lu_factor(a), b)
            assert_allclose(a @ x, b, rtol=0, atol=1e-10)

    def test_solve_transposed(self):
        a = linalg.random_matrix(5, seed=9)
        b = linalg.random_matrix(5, seed=10)
        x = linalg.lu_solve(linalg.lu_factor(a), b, trans=1)
        assert_allclose(a.T @ x, b, rtol=0, atol=1e-10)

    def test_keeps_the_input_field(self):
        # real input is factored and solved in float64, complex input in
        # complex128; the complex route on the same values is the reference
        def close(x, ref):
            return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

        for seed in range(5):
            a = linalg.random_matrix(6, seed=seed, kind="real-gaussian").real
            b = np.random.default_rng(seed + 50).standard_normal((6, 6))
            real = linalg.lu_factor(a)
            cplx = linalg.lu_factor(a + 0j)
            assert real.lu.dtype == np.float64
            assert cplx.lu.dtype == np.complex128
            assert real.rcond == pytest.approx(cplx.rcond, rel=1e-12)
            for trans in (0, 1):
                x = linalg.lu_solve(real, b, trans=trans)
                ref = linalg.lu_solve(cplx, b, trans=trans)
                assert (x.dtype, ref.dtype) == (np.float64, np.complex128)
                assert close(x, ref)
            inv, ref = linalg.inverse(a), linalg.inverse(a + 0j)
            assert (inv.dtype, ref.dtype) == (np.float64, np.complex128)
            assert close(inv, ref)


class TestInverse:
    def test_multiply_back(self):
        for seed in range(10):
            for dim in (2, 5, 11):
                a = linalg.random_matrix(dim, seed=seed)
                f = linalg.lu_factor(a)
                if f.rcond <= 1e-6:
                    continue
                inv = linalg.inverse(a)
                err = np.linalg.norm(a @ inv - np.eye(dim))
                # loose version of the documented bound c*d*eps/rcond, c < 5
                assert err <= 5 * dim * np.finfo(float).eps / f.rcond

    def test_near_singular_raises(self):
        with pytest.raises(errors.NearSingularError) as info:
            linalg.inverse(np.diag([1.0, 1e-15]))
        assert info.value.rcond <= 1e-10

    def test_floor_is_adjustable(self):
        a = np.diag([1.0, 1e-7])
        with pytest.raises(errors.NearSingularError):
            linalg.inverse(a, rcond_floor=1e-3)
        assert_allclose(linalg.inverse(a, rcond_floor=1e-12) @ a, np.eye(2), atol=1e-8)


class TestSchur:
    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_reconstruction_and_structure(self, dim):
        a = linalg.random_matrix(dim, seed=dim + 30)
        form = linalg.schur_decompose(a)
        q, t = form.q, form.t
        assert_allclose(q @ q.conj().T, np.eye(dim), atol=1e-12)
        assert_array_equal(np.tril(t, -1), np.zeros((dim, dim)))
        assert_allclose(q @ t @ q.conj().T, a, atol=1e-12)

    def test_eigenvalues_match_characteristic_polynomial(self):
        # independent route: Faddeev-LeVerrier coefficients + polynomial roots
        for dim in (2, 3, 5):
            a = linalg.random_matrix(dim, seed=dim)
            form = linalg.schur_decompose(a)
            ref = eigenvalues_reference(a)
            assert matched_distance(form.eigenvalues, ref) < 1e-8
            assert_allclose(form.eigenvalues, np.diag(form.t))


class TestSampling:
    def test_deterministic(self):
        a = linalg.random_matrix(6, seed=123)
        b = linalg.random_matrix(6, seed=123)
        assert_array_equal(a, b)
        c = linalg.random_matrix(6, seed=124)
        assert not np.array_equal(a, c)

    def test_real_kind_has_exact_zero_imag(self):
        a = linalg.random_matrix(5, seed=3, kind="real-gaussian")
        assert_array_equal(a.imag, np.zeros((5, 5)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            linalg.random_matrix(3, seed=1, kind="uniform")

    def test_complex_moments(self):
        # entries ~ CN(0, 2): E|z|^2 = 2 split evenly across parts
        rng = np.random.default_rng(0)
        sample = linalg.gaussian_entries(rng, 64, "complex-gaussian")
        assert abs(np.mean(sample.real)) < 0.1
        assert abs(np.var(sample.real) - 1.0) < 0.1
        assert abs(np.var(sample.imag) - 1.0) < 0.1


class TestMatrixJson:
    def test_roundtrip_exact(self, tmp_path):
        a = linalg.random_matrix(4, seed=77)
        again = linalg.matrix_from_json(linalg.matrix_to_json(a))
        assert_array_equal(a, again)
        path = tmp_path / "m.json"
        linalg.save_matrix(path, a)
        assert_array_equal(linalg.load_matrix(path), a)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        linalg.save_matrix(path, np.eye(2))
        obj = json.loads(path.read_text())
        assert obj["dim"] == 2
        assert obj["entries"][0][0] == [1.0, 0.0]
        assert obj["entries"][0][1] == [0.0, 0.0]

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"dim": 3, "entries": [[[1.0, 0.0]]]})
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"entries": []})

    def test_file_bytes_are_compact_json(self, tmp_path):
        a = linalg.random_matrix(32, seed=6)
        path = tmp_path / "m.json"
        linalg.save_matrix(path, a)
        expected = json.dumps(linalg.matrix_to_json(a)) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        assert_array_equal(linalg.load_matrix(path), a)

    def test_save_deterministic(self, tmp_path):
        a = linalg.random_matrix(3, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        linalg.save_matrix(p1, a)
        linalg.save_matrix(p2, a)
        assert p1.read_bytes() == p2.read_bytes()
