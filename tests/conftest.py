"""Shared independent oracles and test helpers.

Every reference here is deliberately implemented by a route different
from the package's own kernels: unscaled Taylor sums, characteristic
polynomials via trace recursion, the finite Jordan-block log series,
central differences. Slow is fine; agreeing with the implementation by
construction is not. The library ships none of them.
"""

import os
from collections import OrderedDict

# One BLAS thread unless the caller chose a count: the tests' matrices are
# small, and OpenBLAS's thread pool makes small LAPACK calls slower. This
# must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

from expnet import expm, linalg, solver  # noqa: E402
from expnet.errors import NearSingularError  # noqa: E402


def taylor_expm(a, terms=30):
    """Plain truncated Taylor sum, no scaling. Accurate for small norms."""
    a = np.asarray(a, dtype=np.complex128)
    out = np.eye(a.shape[0], dtype=np.complex128)
    term = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def oracle_expm(a):
    """Reference exponential: scale to small norm, Taylor, square back."""
    a = np.asarray(a, dtype=np.complex128)
    norm = np.linalg.norm(a, 1)
    s = 0
    while norm > 0.25:
        norm /= 2.0
        s += 1
    out = taylor_expm(a / (2.0**s), terms=30)
    for _ in range(s):
        out = out @ out
    return out


def charpoly_coeffs(a):
    """Characteristic polynomial coefficients by the trace recursion
    (Faddeev-LeVerrier): p(x) = x^n + c[1] x^(n-1) + ... + c[n]."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def eigenvalues_reference(a):
    """Eigenvalues as roots of the characteristic polynomial."""
    return np.roots(charpoly_coeffs(a))


def matched_distance(x, y):
    """Max pairwise distance under the best matching of two spectra."""
    x = np.asarray(x)
    y = np.asarray(y)
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def random_complex(seed, dim, scale=1.0):
    """Test-local complex Gaussian sampler (not the package's)."""
    rng = np.random.default_rng(seed)
    return scale * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )


def random_matrix(dim, seed, kind="complex-gaussian"):
    """The package's Gaussian sampler on a fresh PCG64 stream seeded with ``seed``."""
    return linalg.gaussian_entries(np.random.default_rng(seed), dim, kind)


def jordan_block_log(lam, m):
    """Exact logarithm of the m x m Jordan block with eigenvalue lam.

    The block factors as lam * (I + K) with K the upper shift divided by
    lam, so log = (ln lam) I + K - K^2/2 + ... with exactly m - 1 series
    terms (K^m = 0). Superdiagonal j carries (-1)^(j+1) lam^(-j) / j.
    Principal scalar branch, arg in (-pi, pi].
    """
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    lam = complex(lam)
    if lam == 0:
        raise NearSingularError(
            "Jordan block with zero eigenvalue has no logarithm", rcond=0.0
        )
    out = np.zeros((m, m), dtype=np.complex128)
    # + 0.0 folds a -0.0 imaginary part onto +0.0, so log(-1) = +i pi
    np.fill_diagonal(out, np.log(np.complex128(lam) + 0.0))
    for j in range(1, m):
        np.fill_diagonal(out[:, j:], (-1.0) ** (j + 1) * lam ** (-j) / j)
    return out


def eigenvector_condition_estimate(form):
    """kappa of logm's accuracy contract from a Schur form, by a pair loop:
    max(1, ||strict upper of T||_F / g), with g the smallest pairwise
    eigenvalue gap floored at eps * max|eigenvalue|."""
    eig = form.eigenvalues
    dim = len(eig)
    offdiag = float(np.linalg.norm(np.triu(form.t, 1)))
    if dim < 2 or offdiag == 0.0:
        return 1.0
    gaps = [abs(eig[i] - eig[j]) for i in range(dim) for j in range(i + 1, dim)]
    floor = np.finfo(float).eps * max(abs(eig).max(), 1e-300)
    return max(1.0, offdiag / max(min(gaps), floor))


def check_commuting_product(a, b):
    """Relative defect ``||expm(a) expm(b) - expm(a + b)||_F / ||expm(a + b)||_F``.

    At most ~1e-9 for commuting pairs of moderate norm; order one (the
    size of the Baker-Campbell-Hausdorff correction) otherwise.
    """
    combined = expm(a + b)
    separate = expm(a) @ expm(b)
    return float(np.linalg.norm(separate - combined) / np.linalg.norm(combined))


def central_difference(f, w, h=1e-6):
    """Central finite-difference gradient of the scalar function f at w.

    Makes 2 * w.size calls of f on one working copy of w, each with one
    entry moved by +-h, so f must not keep its argument.
    """
    w = np.array(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for index in np.ndindex(w.shape):
        saved = w[index]
        w[index] = saved + h
        plus = f(w)
        w[index] = saved - h
        minus = f(w)
        w[index] = saved
        grad[index] = (plus - minus) / (2.0 * h)
    return grad


@pytest.fixture
def decodes(monkeypatch):
    """Start from an empty decode memo and count matrix decodes.

    ``matrix_from_json`` is replaced wherever the package binds it (the
    weights decoder calls the binding in ``solver``); the count is
    ``decodes["n"]``.
    """
    monkeypatch.setattr(linalg, "_decoded", OrderedDict())
    count = {"n": 0}
    decode = linalg.matrix_from_json

    def counted(obj):
        count["n"] += 1
        return decode(obj)

    for module in (linalg, solver):
        monkeypatch.setattr(module, "matrix_from_json", counted)
    return count


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
