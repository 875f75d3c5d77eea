"""Closed-form two-point interpolation with a three-layer network.

The map f(X) = W3 expm(W2 expm(W1 X)) is made to satisfy f(X1) = Y1 and
f(X2) = Y2 exactly, with weights computed in closed form rather than by
training. Run:  python3 demos/02_closed_form_interpolation.py
"""

import math

import numpy as np

from expnet import (
    eval_three_layer,
    make_instance,
    random_instance,
    solve_three_layer,
    verify,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("== the hand-checkable scalar case ==")
# X1=2, X2=1, Y1=3, Y2=6 at alpha=2 gives W1=ln2, W2=-ln2/2, W3=12
inst = make_instance([[2.0]], [[1.0]], [[3.0]], [[6.0]])
w = solve_three_layer(inst, alpha=2.0)
print("W1 =", w.w1[0, 0].real, " (ln 2 =", math.log(2), ")")
print("W2 =", w.w2[0, 0].real, " (-ln2/2 =", -math.log(2) / 2, ")")
print("W3 =", w.w3[0, 0].real)
print("f(2) =", eval_three_layer(w, inst.x1)[0, 0].real)
print("f(1) =", eval_three_layer(w, inst.x2)[0, 0].real)

print("\n== a random 6x6 complex instance ==")
inst = random_instance(6, seed=42)
print("admission rconds:", {k: f"{v:.1e}" for k, v in inst.rconds.items()})
w = solve_three_layer(inst)
rep = verify(w, inst)
print(f"relative residuals: {rep.residual1:.2e}, {rep.residual2:.2e}")
print("internal identities the construction satisfies:")
for name, value in rep.identity_checks.items():
    print(f"  {name:>20}: {value:.2e}")

print("\n== the free parameter alpha ==")
# every positive alpha != 1 yields different weights, same interpolation
for alpha in (0.5, 2.0, math.e, 20.0):
    w = solve_three_layer(inst, alpha=alpha)
    rep = verify(w, inst)
    print(f"alpha={alpha:<6g} residuals {rep.residual1:.2e} {rep.residual2:.2e} "
          f"||W2||={np.linalg.norm(w.w2):.2f}")

print("\n== logarithm branches give further distinct solutions ==")
for offset in (-1, 0, 2):
    w = solve_three_layer(inst, branch=offset)
    rep = verify(w, inst)
    print(f"branch {offset:+d}: residuals {rep.residual1:.2e} {rep.residual2:.2e} "
          f"||Z||={np.linalg.norm(w.z):.2f}")
