"""Tour of the matrix exponential and logarithm kernels.

Run:  python3 demos/01_matrix_functions.py
"""

import numpy as np

from expnet import expm, logm
from expnet.linalg import gaussian_entries

np.set_printoptions(precision=4, suppress=True, linewidth=100)


def gaussian(seed):
    """A 4x4 matrix of complex standard-Gaussian entries from its own stream."""
    return gaussian_entries(np.random.default_rng(seed), 4, "complex-gaussian")


def commuting_defect(a, b):
    """Relative defect of expm(a) expm(b) = expm(a + b)."""
    combined = expm(a + b)
    defect = np.linalg.norm(expm(a) @ expm(b) - combined)
    return float(defect / np.linalg.norm(combined))


print("== exponential basics ==")
a = gaussian(1)
print("||expm(0) - I|| =", np.linalg.norm(expm(np.zeros((4, 4))) - np.eye(4)))
print("||expm(a) @ expm(-a) - I|| =", np.linalg.norm(expm(a) @ expm(-a) - np.eye(4)))

# the exponential of any matrix is invertible: det(expm a) = exp(tr a) != 0
det = np.linalg.det(expm(a))
print("det(expm a) =", det, " exp(tr a) =", np.exp(np.trace(a)))

print("\n== logarithm and roundtrips ==")
lg = logm(a)
print("||expm(logm(a)) - a|| / ||a|| =",
      np.linalg.norm(expm(lg) - a) / np.linalg.norm(a))

# a matrix has infinitely many logarithms; branches differ by 2*pi*i*k
lg1 = logm(a, 1)
print("branch 1 minus principal (should be 2*pi*i*I):")
print(lg1 - lg)
print("branch 1 still exponentiates back: ",
      np.linalg.norm(expm(lg1) - a) / np.linalg.norm(a))

print("\n== the principal branch cut ==")
neg = np.array([[-1.0]])
print("logm([[-1]]) =", logm(neg)[0, 0], " (argument +pi, not -pi)")

print("\n== defective eigenvalues: Jordan blocks ==")
lam, m = 0.5 - 0.3j, 4
block = lam * np.eye(m, dtype=complex) + np.eye(m, k=1, dtype=complex)
# block = lam (I + K) with K = N / lam nilpotent, so its log is the finite
# series (ln lam) I + K - K^2/2 + ...: superdiagonal j holds (-1)^(j+1) lam^-j / j
closed = np.zeros((m, m), dtype=complex)
np.fill_diagonal(closed, np.log(lam))
for j in range(1, m):
    np.fill_diagonal(closed[:, j:], (-1.0) ** (j + 1) * lam ** (-j) / j)
print("closed-form log of a 4x4 Jordan block at", lam)
print(closed)
print("||expm(closed) - block|| =", np.linalg.norm(expm(closed) - block))
# the Schur-based logm agrees even though the matrix is defective
print("||logm(block) - closed|| =", np.linalg.norm(logm(block) - closed))

print("\n== products of exponentials ==")
# expm(a) expm(b) = expm(a+b) requires commuting arguments
b = 0.7 * a @ a - 1.2 * a + 0.1 * np.eye(4)
print("commuting pair defect:    ", commuting_defect(a, b))
c = gaussian(2)
print("non-commuting pair defect:", commuting_defect(a, c))
