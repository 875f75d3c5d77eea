import gc
import json
import re
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, experiment, linalg, matfuncs, solver

from conftest import eigenvalues_reference, matched_distance, random_matrix


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


@pytest.mark.parametrize(
    "call, error",
    [
        (linalg.cmatrix, errors.DimensionError),
        (linalg.lu_factor, errors.DimensionError),
        (linalg.inverse, errors.DimensionError),
        (linalg.schur_decompose, errors.DimensionError),
        (linalg.matrix_to_json, errors.DimensionError),
        (matfuncs.expm, errors.DimensionError),
        (matfuncs.logm, errors.DimensionError),
        (lambda a: solver.make_instance(a, a, a, a), errors.DimensionError),
        (lambda a: linalg.save_matrix("m.json", a), errors.DimensionError),
        (lambda a: linalg.matrix_from_json({"dim": 0, "entries": a.tolist()}),
         errors.MatrixFormatError),
    ],
    ids=["cmatrix", "lu_factor", "inverse", "schur_decompose", "matrix_to_json", "expm",
         "logm", "make_instance", "save_matrix", "matrix_from_json"],
)
def test_order_zero_matrix_is_refused_quietly(call, error, tmp_path, monkeypatch, capfd):
    # the construction needs invertible d x d matrices, d >= 1; LAPACK
    # would print its own complaint about n = 0 to stderr
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match="order at least 1|0 x 0 matrix"):
        call(np.zeros((0, 0)))
    assert capfd.readouterr() == ("", "")
    assert not (tmp_path / "m.json").exists()


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
            a = random_matrix(5, seed=seed)
            f = linalg.lu_factor(a)
            assert 0.0 < f.rcond <= 1.0

    def test_solve_multiply_back(self):
        for seed in range(5):
            a = random_matrix(6, seed=seed)
            rng = np.random.default_rng(seed + 50)
            b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            x = linalg.lu_solve(linalg.lu_factor(a), b)
            assert_allclose(a @ x, b, rtol=0, atol=1e-10)

    def test_solve_transposed(self):
        a = random_matrix(5, seed=9)
        b = random_matrix(5, seed=10)
        x = linalg.lu_solve(linalg.lu_factor(a), b, trans=1)
        assert_allclose(a.T @ x, b, rtol=0, atol=1e-10)

    def test_keeps_the_input_field(self):
        # real input is factored and solved in float64, complex input in
        # complex128; the complex route on the same values is the reference
        def close(x, ref):
            return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

        for seed in range(5):
            a = random_matrix(6, seed=seed, kind="real-gaussian").real
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

    def test_real_factors_complex_rhs(self):
        # a complex right-hand side promotes real factors: the solution is
        # complex128 and equals the complex route, with no ComplexWarning
        for seed in range(5):
            a = random_matrix(6, seed=seed, kind="real-gaussian").real
            rng = np.random.default_rng(seed + 70)
            b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            real, cplx = linalg.lu_factor(a), linalg.lu_factor(a + 0j)
            for trans in (0, 1, 2):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    x = linalg.lu_solve(real, b, trans=trans)
                ref = linalg.lu_solve(cplx, b, trans=trans)
                assert x.dtype == np.complex128
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @staticmethod
    def numpy_norm_rcond(a):
        # the 1-norm from numpy, into the same gecon
        lu = scipy.linalg.get_lapack_funcs("getrf", (a,))(a)[0]
        anorm = float(np.abs(a).sum(axis=0).max())
        if anorm == 0.0 or np.any(np.diagonal(lu) == 0):
            return 0.0
        gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
        return float(gecon(lu, anorm, norm="1")[0])

    def test_real_rcond_matches_the_numpy_norm(self):
        rng = np.random.default_rng(31)
        cases = [np.zeros((3, 3)), np.arange(16).reshape(4, 4) % 7]
        for dim in range(1, 41):
            for _ in range(3):
                cases.append(rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-6, 7))
            wide = rng.standard_normal((dim, 2 * dim))
            cases += [wide[:, ::2], np.asfortranarray(wide[:, :dim])]
        for a in cases:
            ref = self.numpy_norm_rcond(np.ascontiguousarray(a, dtype=np.float64))
            assert np.float64(linalg.lu_factor(a).rcond).tobytes() == np.float64(ref).tobytes()
        assert linalg.lu_factor(np.zeros((3, 3))).rcond == 0.0

    def test_complex_rcond_takes_the_lapack_norm(self):
        # both fields take the 1-norm from lange, into the same gecon
        rng = np.random.default_rng(32)
        for dim in range(1, 41):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            getrf, gecon, lange = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "lange"), (a,))
            lu = getrf(a)[0]
            ref = gecon(lu, lange("I", a.T), norm="1")[0]
            assert np.float64(linalg.lu_factor(a).rcond).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, dtype, bad):
        a = np.eye(3, dtype=dtype)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            linalg.lu_factor(a)

    @pytest.mark.parametrize("b", [np.ones(4), np.ones((2, 3)), np.float64(1.0), np.ones((3, 3, 1))])
    def test_rhs_of_another_order_raises(self, b):
        with pytest.raises(errors.DimensionError, match=r"^right-hand side of shape"):
            linalg.lu_solve(linalg.lu_factor(np.eye(3)), b)

    def test_right_hand_side_without_columns_is_quiet(self, capfd):
        assert linalg.lu_solve(linalg.lu_factor(np.eye(3)), np.zeros((3, 0))).shape == (3, 0)
        assert capfd.readouterr() == ("", "")


class TestInverse:
    def test_multiply_back(self):
        for seed in range(10):
            for dim in (2, 5, 11):
                a = random_matrix(dim, seed=seed)
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

    def test_inverts_above_the_floor(self):
        a = np.diag([1.0, 1e-7])
        assert_allclose(linalg.inverse(a) @ a, np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("kind", ["real-gaussian", "complex-gaussian"])
    def test_given_factors_give_the_same_bytes(self, kind):
        for dim in range(1, 17):
            a = random_matrix(dim, seed=dim, kind=kind)
            if kind == "real-gaussian":
                a = a.real.copy()
            inv = linalg.inverse(linalg.lu_factor(a))
            ref = linalg.inverse(a)
            assert inv.dtype == ref.dtype == a.dtype
            assert inv.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a", [np.diag([1.0, 1e-15]), np.zeros((3, 3)) + 0j])
    def test_given_singular_factors_raise_with_the_same_rcond(self, a):
        with pytest.raises(errors.NearSingularError) as fresh:
            linalg.inverse(a)
        with pytest.raises(errors.NearSingularError) as given:
            linalg.inverse(linalg.lu_factor(a))
        assert given.value.rcond == fresh.value.rcond == linalg.lu_factor(a).rcond


class TestRequireNonsingular:
    def test_passes_above_the_floor(self):
        assert linalg.require_nonsingular(linalg.lu_factor(np.diag([1.0, 1e-7])).rcond) is None

    @pytest.mark.parametrize("floor", [linalg.SINGULAR_RCOND, 1e-6])
    def test_refuses_at_the_floor(self, floor):
        with pytest.raises(errors.NearSingularError, match="^thing is near-singular") as info:
            linalg.require_nonsingular(floor, floor, "thing")
        assert info.value.rcond == floor
        linalg.require_nonsingular(floor * (1 + 2**-52), floor, "thing")


class TestShown:
    @pytest.mark.parametrize(
        "value, text",
        [
            ([0] * 200_000, "[0, 0, 0, 0, 0, 0, ...]"),
            ([[[[[1]]]]], "[[[[...]]]]"),
            ("x" * 100, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
            (10**299, repr(10**299)),
            (-(10**300), "negative int of 301 digits"),
            ([10**5000], "[int of 5001 digits]"),
            (complex(1e-300, -2e-300), "(1e-300-2e-300j)"),
            ({"a": [1, 2.5]}, "{'a': [1, 2.5]}"),
            (True, "True"),
        ],
        ids=[
            "long-list", "deep-list", "long-string", "299-digits", "301-digits",
            "nested-huge-int", "complex", "dict", "bool",
        ],
    )
    def test_shows_a_short_repr(self, value, text):
        assert linalg._shown(value) == text

    def test_cuts_the_text_at_the_limit(self):
        # six by six by six integers of 300 digits: 65,000 characters
        text = linalg._shown([[[10**299] * 6] * 6] * 6)
        assert len(text) == linalg.SHOWN_LIMIT and text.endswith("...")

    @pytest.mark.parametrize(
        "call",
        [
            lambda v: linalg.matrix_from_json({"dim": v, "entries": []}),
            lambda v: solver.weights_from_json(dict.fromkeys(solver._WEIGHT_FIELDS, v)),
            lambda v: linalg.gaussian_entries(np.random.default_rng(0), 2, v),
            experiment.get_activation,
        ],
        ids=["dim", "alpha", "kind", "activation"],
    )
    def test_refused_values_are_shown_short(self, call):
        with pytest.raises(ValueError, match=re.escape("[0, 0, 0, 0, 0, 0, ...]")) as info:
            call([0] * 200_000)
        assert len(str(info.value)) < 200


# inputs with structure, extreme scales or repeated eigenvalues, on which
# zgees must still return an exactly upper-triangular T
_SCHUR_SPECIAL = {
    "zero": np.zeros((5, 5)),
    "identity": np.eye(6),
    "diagonal": np.diag(np.arange(1.0, 9.0)),
    "upper": np.triu(random_matrix(6, seed=61)),
    "lower": np.tril(random_matrix(6, seed=62)),
    "jordan": (2.0 - 1.0j) * np.eye(7) + np.eye(7, k=1),
    "large": 1e300 * random_matrix(4, seed=63),
    "large-negative": -1e300 * random_matrix(4, seed=64),
    "tiny": 1e-300 * random_matrix(4, seed=65),
    "tiny-negative": -1e-300 * random_matrix(4, seed=66),
    "ones": np.ones((9, 9)),
}


class TestSchur:
    @pytest.mark.parametrize(
        "case",
        [2, 4, 7, *(pytest.param(a, id=name) for name, a in _SCHUR_SPECIAL.items())],
    )
    def test_reconstruction_and_structure(self, case):
        # an int case is the dimension of a random complex matrix
        a = random_matrix(case, seed=case + 30) if isinstance(case, int) else case
        dim = a.shape[0]
        form = linalg.schur_decompose(a)
        q, t = form.q, form.t
        assert_allclose(q @ q.conj().T, np.eye(dim), atol=1e-12)
        assert_array_equal(np.tril(t, -1), np.zeros((dim, dim)))
        scale = max(1.0, float(np.abs(a).max()))
        assert_allclose(q @ t @ q.conj().T, a, atol=1e-12 * scale)

    def test_eigenvalues_match_characteristic_polynomial(self):
        # independent route: Faddeev-LeVerrier coefficients + polynomial roots
        for dim in (2, 3, 5):
            a = random_matrix(dim, seed=dim)
            form = linalg.schur_decompose(a)
            ref = eigenvalues_reference(a)
            assert matched_distance(form.eigenvalues, ref) < 1e-8

    def test_matches_scipy_schur(self):
        rng = np.random.default_rng(41)
        for dim in range(1, 33):
            for a in (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
                rng.standard_normal((dim, dim)),
            ):
                t, q = scipy.linalg.schur(a.astype(np.complex128), output="complex")
                form = linalg.schur_decompose(a)
                assert form.t.tobytes() == t.tobytes()
                assert form.q.tobytes() == q.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.eye(3, dtype=np.complex128)
        a[1, 2] = bad
        with pytest.raises(ValueError):
            linalg.schur_decompose(a)


class TestSampling:
    @staticmethod
    def draw(seed, dim, kind="complex-gaussian"):
        return linalg.gaussian_entries(np.random.default_rng(seed), dim, kind)

    def test_deterministic(self):
        a = self.draw(123, 6)
        b = self.draw(123, 6)
        assert_array_equal(a, b)
        c = self.draw(124, 6)
        assert not np.array_equal(a, c)

    def test_real_kind_has_exact_zero_imag(self):
        a = self.draw(3, 5, "real-gaussian")
        assert_array_equal(a.imag, np.zeros((5, 5)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            self.draw(1, 3, "uniform")

    def test_complex_moments(self):
        # entries ~ CN(0, 2): E|z|^2 = 2 split evenly across parts
        rng = np.random.default_rng(0)
        sample = linalg.gaussian_entries(rng, 64, "complex-gaussian")
        assert abs(np.mean(sample.real)) < 0.1
        assert abs(np.var(sample.real) - 1.0) < 0.1
        assert abs(np.var(sample.imag) - 1.0) < 0.1


SPECIAL_VALUES = np.array([  # signed zeros, subnormals, the ends of the float range
    [complex(-0.0, 5e-324), complex(1e308, -1e308)],
    [complex(-1e308, 0.0), complex(2.5e-310, -0.0)],
])


class TestMatrixJson:
    def test_roundtrip_exact(self, tmp_path, decodes):
        a = random_matrix(4, seed=77)
        again = linalg.matrix_from_json(linalg.matrix_to_json(a))
        assert_array_equal(a, again)
        path = tmp_path / "m.json"
        linalg.save_matrix(path, a)
        linalg._decoded.clear()  # so the load runs the decoder
        decodes["n"] = 0
        assert_array_equal(linalg.load_matrix(path), a)
        assert decodes["n"] == 1

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        linalg.save_matrix(path, np.eye(2))
        obj = json.loads(path.read_text())
        assert obj["dim"] == 2
        assert obj["entries"][0][0] == [1.0, 0.0]
        assert obj["entries"][0][1] == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_not_written(self, tmp_path, bad):
        # load_matrix would refuse the file, so no file is written
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="finite"):
            linalg.save_matrix(path, np.array([[1.0, bad], [0.0, 1.0]]))
        assert not path.exists()

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"dim": 3, "entries": [[[1.0, 0.0]]]})
        with pytest.raises(ValueError):
            linalg.matrix_from_json({"entries": []})

    @pytest.mark.parametrize(
        "entries",
        [
            [[[0.25, 0.0], [True, 0.5]], [[1.0, 1.0], [0.0, 0.5]]],
            [[[0.25, 0.0], [0.5, False]], [[1.0, 1.0], [0.0, 0.5]]],
            [[[0.25, 0.0], [1, True]], [[1.0, 1.0], [0.0, 0.5]]],
            [[[0.25, 0.0], [True, False]], [[1.0, 1.0], [0.0, 0.5]]],
            # the only part holding a 0 or a 1 is the one with the bool
            [[[0.25, 0.0], [-1.5, 0.0]], [[2.5, False], [0.5, 0.0]]],
            [[[0.25, 0.5], [-1.5, 2.5]], [[True, 0.75], [0.5, 3.5]]],
        ],
        ids=["true-re", "false-im", "true-beside-int", "all-bool", "false-im-of-real", "true-re-alone"],
    )
    def test_bool_entries_are_refused(self, entries):
        # numpy would read true as 1.0 and false as 0.0
        with pytest.raises(errors.MatrixFormatError, match="entries"):
            linalg.matrix_from_json({"dim": 2, "entries": entries})

    def test_zero_and_one_entries_are_numbers(self):
        # the entries the bool search looks at, with no bool among them
        entries = [[[1, 0], [0.0, 1.0]], [[-0.0, 0.5], [1, 1]]]
        a = linalg.matrix_from_json({"dim": 2, "entries": entries})
        assert a.tobytes() == np.array([[1, 1j], [complex(-0.0, 0.5), 1 + 1j]]).tobytes()

    def test_file_bytes_are_compact_json(self, tmp_path):
        path = tmp_path / "m.json"
        for a in (random_matrix(32, seed=6), SPECIAL_VALUES, np.eye(3)):
            pairs = np.stack((a.real, a.imag), axis=-1)
            linalg.save_matrix(path, a)
            text = path.read_text(encoding="utf-8")
            # json.loads gives the reference bits, -0.0 included
            obj = json.loads(text)
            assert obj["dim"] == a.shape[0]
            assert np.array(obj["entries"]).tobytes() == pairs.tobytes()
            # one line, no whitespace
            assert text.endswith("\n") and re.search(r"\s", text[:-1]) is None
            # every float has the shortest round-trip digits, those of repr
            tokens = re.findall(r"-?\d[\d.]*(?:e[-+]?\d+)?", text.split('"entries":', 1)[1])
            assert len(tokens) == pairs.size
            for token in tokens:
                assert significant_digits(token) == significant_digits(repr(float(token)))
            # and the decoder gives those bits too
            linalg._decoded.clear()
            assert linalg.load_matrix(path).tobytes() == linalg.cmatrix(a).tobytes()

    def test_save_json_bytes_match_json_dump(self, tmp_path):
        obj = {"dim": 2, "rconds": {"x1": 0.25, "x2": 1e-300}, "files": ["a", "b"],
               "pass": True, "seed": None, "kind": "complex-gaussian"}
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as fh:  # the streaming writer
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        path = tmp_path / "m.json"
        linalg.save_json(path, obj)
        assert path.read_bytes() == reference.read_bytes()

    def test_save_deterministic(self, tmp_path):
        a = random_matrix(3, seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        linalg.save_matrix(p1, a)
        linalg.save_matrix(p2, a)
        assert p1.read_bytes() == p2.read_bytes()


class TestReader:
    """load_decoded parses with orjson, and with json.loads only the text
    orjson refuses."""

    @staticmethod
    def write_files(where):
        """Matrix files at d = 1..32 and of SPECIAL_VALUES, and weights
        files at d = 2, 8 and 32, as the package writes them."""
        matrices = [random_matrix(d, seed=100 + d) for d in range(1, 33)] + [SPECIAL_VALUES]
        paths = []
        for k, a in enumerate(matrices):
            paths.append(("matrix", where / f"m{k}.json"))
            linalg.save_matrix(paths[-1][1], a)
        for d in (2, 8, 32):
            paths.append(("weights", where / f"w{d}.json"))
            weights = solver.solve_three_layer(solver.random_instance(d, 3))
            solver.save_weights(paths[-1][1], weights)
        return paths

    @staticmethod
    def bits(value):
        if isinstance(value, solver.ThreeLayerWeights):
            return [np.array(value.alpha).tobytes()] + [
                getattr(value, name).tobytes() for name in ("w1", "w2", "w3", "z")
            ]
        return [value.tobytes()]

    def test_gives_the_bits_of_json_loads(self, tmp_path, decodes):
        paths = self.write_files(tmp_path)
        linalg._decoded.clear()
        for kind, path in paths:
            load, decode = {
                "matrix": (linalg.load_matrix, linalg.matrix_from_json),
                "weights": (solver.load_weights, solver.weights_from_json),
            }[kind]
            reference = decode(json.loads(path.read_text(encoding="utf-8")))
            assert self.bits(load(path)) == self.bits(reference), path.name
        # every load ran the decoder: none was served from the memo
        assert decodes["n"] == 2 * (33 + 3 * 4)

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xed\xa0\x80", b"\xc3"], ids=["ff", "lone-surrogate", "cut-short"]
    )
    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path, bad):
        # orjson refuses them inside an otherwise valid file, and the
        # fallback names the file
        path = tmp_path / "m.json"
        path.write_bytes(b'{"dim": 1, "entries": [[[1.0, 0.0]]], "note": "' + bad + b'"}')
        with pytest.raises(errors.MatrixFormatError, match="m.json is not UTF-8 text: "):
            linalg.load_matrix(path)

    def test_a_byte_order_mark_is_refused_by_json_loads(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(linalg.matrix_to_json(np.eye(1))).encode())
        with pytest.raises(json.JSONDecodeError, match="BOM"):
            linalg.load_matrix(path)

    def test_clean_files_do_not_reach_json_loads(self, tmp_path, decodes, monkeypatch):
        paths = self.write_files(tmp_path)
        linalg._decoded.clear()

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        for kind, path in paths:
            load = linalg.load_matrix if kind == "matrix" else solver.load_weights
            load(path)
        assert decodes["n"] == 33 + 3 * 4
        # and text orjson refuses does reach it
        nan = tmp_path / "nan.json"
        nan.write_text('{"dim": 1, "entries": [[[NaN, 0.0]]]}')
        with pytest.raises(AssertionError, match="json.loads called"):
            linalg.load_matrix(nan)


class TestCollectorPaused:
    """The cyclic garbage collector stays off while a matrix or weights
    file is encoded or decoded, and its state is restored after."""

    @pytest.fixture
    def collections(self):
        """Collections started while the test runs, with the collector on."""
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            yield started
        finally:
            gc.callbacks.remove(record)
            if not was_enabled:
                gc.disable()

    def test_round_trips_start_no_collection(self, tmp_path, decodes, collections):
        # a d = 32 matrix is 1,056 lists and its weights 4,224, past the
        # first collection threshold of 700 new containers
        a = random_matrix(32, seed=4)
        weights = solver.solve_three_layer(solver.random_instance(32, 5))
        gc.collect()  # so the count of new containers starts from zero
        collections.clear()
        linalg.save_matrix(tmp_path / "m.json", a)
        solver.save_weights(tmp_path / "w.json", weights)
        linalg._decoded.clear()  # so the loads parse and decode
        assert_array_equal(linalg.load_matrix(tmp_path / "m.json"), a)
        assert_array_equal(solver.load_weights(tmp_path / "w.json").w2, weights.w2)
        assert decodes["n"] == 5
        assert collections == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_callers_state_comes_back(self, tmp_path, decodes, enabled):
        path, bad = tmp_path / "m.json", tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "entries": [[[1.0, 0.5]]]}')
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            linalg.save_matrix(path, np.eye(2))
            states = [gc.isenabled()]
            linalg._decoded.clear()  # so the load parses and decodes
            linalg.load_matrix(path)
            states.append(gc.isenabled())
            with pytest.raises(errors.MatrixFormatError):
                linalg.load_matrix(bad)
            states.append(gc.isenabled())
            with pytest.raises(TypeError):  # orjson refuses an integer past 64 bits
                linalg.save_compact_json(path, lambda v: v, 2**70)
            states.append(gc.isenabled())
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert decodes["n"] == 2
        assert states == [enabled] * 4

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_blocks_of_two_threads_take_turns(self, enabled):
        # thread a holds a block while thread b tries to enter one: b
        # enters only after a has left, and the collector ends as it began
        a_in, a_release, b_trying, b_in = (threading.Event() for _ in range(4))
        order, inside = [], []

        def first():
            with linalg._codec():
                order.append("a in")
                a_in.set()
                a_release.wait(timeout=10)
                order.append("a out")

        def second():
            b_trying.set()
            with linalg._codec():
                order.append("b in")
                inside.append(gc.isenabled())
                b_in.set()

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        a, b = threading.Thread(target=first), threading.Thread(target=second)
        try:
            a.start()
            assert a_in.wait(timeout=10)
            inside.append(gc.isenabled())
            b.start()
            assert b_trying.wait(timeout=10)
            entered_early = b_in.wait(timeout=0.2)
            a_release.set()
            assert b_in.wait(timeout=10)
        finally:
            a_release.set()
            a.join(timeout=10)
            b.join(timeout=10)
            after = gc.isenabled()
            (gc.enable if was_enabled else gc.disable)()
        assert not a.is_alive() and not b.is_alive()
        assert not entered_early
        assert order == ["a in", "a out", "b in"]
        assert inside == [False, False]
        assert after == enabled


def significant_digits(token: str) -> str:
    """The significant digits of a JSON number: no sign, point, exponent,
    or leading and trailing zeros."""
    mantissa = token.lstrip("-").split("e")[0].replace(".", "")
    return mantissa.strip("0")


@st.composite
def finite_matrices(draw):
    """d <= 4 complex matrices of any finite float64 parts: signed zeros,
    subnormals and the ends of the float range included."""
    dim = draw(st.integers(1, 4))
    parts = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=2 * dim * dim, max_size=2 * dim * dim)
    pairs = np.array(draw(parts), dtype=np.float64).reshape(dim, dim, 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


class TestDecodeMemo:
    """load_matrix and load_weights read the file on every call and reuse
    the decoded value of bytes they have decoded or written recently."""

    def test_save_matrix_keeps_the_bytes_it_wrote(self, tmp_path, decodes):
        path = tmp_path / "m.json"
        a = linalg.cmatrix(random_matrix(3, seed=1))
        linalg.save_matrix(path, a)
        assert list(linalg._decoded) == [("matrix", path.read_bytes())]
        assert linalg.load_matrix(path) is linalg._decoded["matrix", path.read_bytes()]
        assert decodes["n"] == 0

    def test_a_file_overwritten_through_json_loads_anew(self, tmp_path, decodes):
        path = tmp_path / "m.json"
        a, b = random_matrix(3, seed=1), random_matrix(3, seed=2)
        linalg.save_matrix(path, a)
        assert linalg.load_matrix(path).tobytes() == linalg.cmatrix(a).tobytes()
        assert decodes["n"] == 0  # the bytes save_matrix wrote
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(linalg.matrix_to_json(b), fh)
        assert linalg.load_matrix(path).tobytes() == linalg.cmatrix(b).tobytes()
        assert decodes["n"] == 1

    def test_a_hit_equals_a_fresh_decode_and_is_read_only(self, tmp_path, decodes):
        written, plain = tmp_path / "written.json", tmp_path / "plain.json"
        linalg.save_matrix(written, random_matrix(4, seed=3))
        plain.write_text(json.dumps(linalg.matrix_to_json(random_matrix(4, seed=4))))
        for path in (written, plain, written, plain):
            got = linalg.load_matrix(path)
            fresh = linalg.matrix_from_json(json.loads(path.read_text()))
            assert got.tobytes() == fresh.tobytes()
            assert got.dtype == np.complex128 and not got.flags.writeable
        assert decodes["n"] == 1 + 4  # plain's first load, and the fresh ones

    def test_errors_are_raised_on_every_load(self, tmp_path, decodes):
        nan, bad = tmp_path / "nan.json", tmp_path / "bad.json"
        nan.write_text('{"dim": 2, "entries": [[[1.0, 0.0], [NaN, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}')
        bad.write_text('{"dim": 2, "entries": [[[1.0, 0.0]]]}')
        for path in (nan, bad, nan, bad):
            with pytest.raises(errors.MatrixFormatError):
                linalg.load_matrix(path)
        assert decodes["n"] == 4
        assert not linalg._decoded

    def test_memo_stays_within_its_size(self, tmp_path, decodes):
        size = linalg.DECODE_MEMO_SIZE
        assert size <= 8
        paths = [tmp_path / f"m{i}.json" for i in range(3 * size)]
        for i, path in enumerate(paths):
            path.write_text(json.dumps(linalg.matrix_to_json(np.eye(2) * (i + 1))))
            linalg.load_matrix(path)
            linalg.save_matrix(tmp_path / "out.json", np.eye(2) * -(i + 1))
            assert len(linalg._decoded) <= size
        assert decodes["n"] == len(paths)
        linalg.load_matrix(paths[-1])  # still kept
        linalg.load_matrix(paths[0])  # long since dropped
        assert decodes["n"] == len(paths) + 1

    def test_threads_share_the_memo(self, tmp_path, decodes):
        # more threads than cores, switching often: each load still gives
        # its own file's matrix, and the memo keeps its bound
        matrices = [linalg.cmatrix(np.eye(3) * (k + 1)) for k in range(12)]
        paths = [tmp_path / f"m{k}.json" for k in range(12)]
        for path, a in zip(paths, matrices):
            path.write_text(json.dumps(linalg.matrix_to_json(a)))
        failures = []

        def work(t):
            try:
                for i in range(200):
                    k = (5 * t + i) % 12
                    if linalg.load_matrix(paths[k]).tobytes() != matrices[k].tobytes():
                        failures.append(("wrong matrix", k))
                    if len(linalg._decoded) > linalg.DECODE_MEMO_SIZE:
                        failures.append(("size", len(linalg._decoded)))
                    linalg.save_matrix(tmp_path / f"out{t}.json", matrices[(k + 1) % 12])
            except Exception as exc:  # reported below, not lost with the thread
                failures.append(("raised", repr(exc)))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        enabled = gc.isenabled()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert gc.isenabled() == enabled  # the codec's pauses left it as it was

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(a=finite_matrices())
    @example(a=SPECIAL_VALUES)
    @example(a=np.array([[complex(1.7976931348623157e308, -2.2250738585072014e-308)]]))
    def test_decoding_what_save_matrix_wrote_gives_its_bits(self, a):
        # the premise of keeping cmatrix(a) for the text save_matrix wrote
        with tempfile.TemporaryDirectory() as where:
            path = Path(where) / "m.json"
            linalg.save_matrix(path, a)
            decoded = linalg.matrix_from_json(json.loads(path.read_text()))
            linalg._decoded.clear()
            read = linalg.load_matrix(path)  # through the orjson reader
        assert decoded.tobytes() == read.tobytes() == linalg.cmatrix(a).tobytes()
