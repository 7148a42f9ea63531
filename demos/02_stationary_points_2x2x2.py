# Enumeration of rank-1 stationary points.
#
# For unit z = (cos t, sin t) the best x o y in min ||X - x o y o z||^2 is
# a singular pair of cos t X1 + sin t X2, so the stationary points are the
# critical points of the two eigenvalues of its Gram matrix along the
# angle.  They are the real roots of one degree-4 trigonometric
# polynomial: eight stationary points (some complex).  The table shows them
# in the chart y = (1, y2), z = (1, z2).  Two of the real ones carry a zero
# mode-1 factor and criterion value ||X||^2; they never win.

import numpy as np

import tensorbit as tb

X = tb.Tensor222.from_entries(-0.4326, 0.1253, -1.6656, 0.2877,
                              -1.1465, 1.1892, 1.1909, -0.0376)

print(f"||X||^2 = {tb.frobenius_norm_sq(X):.6f}, delta(X) = {tb.hyperdet(X):+.6f}")
print()
enum = tb.stationary_points_222(X)
print(f"{len(enum)} real stationary points ({enum.n_complex} complex):")
print(f"{'y2':>12} {'z2':>12} {'psi':>10} {'delta(X-Y)':>12} {'Hessian PD':>11} {'zero x':>7}")
for p in enum:
    print(f"{p.y2:12.6f} {p.z2:12.6f} {p.psi:10.4f} {p.delta_residual:12.3e} "
          f"{str(p.hessian_pd):>11} {str(p.degenerate):>7}")

print()
best = tb.best_rank1_222(X)
print(f"global best: psi = {best.psi:.6f} at y2 = {best.term.y[1]:.6f}, "
      f"z2 = {best.term.z[1]:.6f}")

als = tb.hopm(X, max_iter=2000, tol=1e-15)
print(f"alternating least squares finds the same optimum: psi = {als.psi:.6f}")

print()
print("every non-degenerate stationary point lies on the delta = 0 locus,")
print("so subtracting the best term lands exactly on the boundary orbit:")
Z = tb.Tensor222(X.array - best.term.tensor())
print(f"  classify(X - Y) = {tb.classify(Z, 1e-6).orbit}, "
      f"delta(X - Y) = {tb.hyperdet(Z):.2e}")
