"""Shared independent oracles.

Every reference here is deliberately implemented by a route different
from the package's own kernels: unscaled Taylor sums, characteristic
polynomials via trace recursion. Slow is fine; agreeing with the
implementation by construction is not.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
