# Symmetric 2x2x2 tensors: rank, decompositions, canonical transforms.
#
# A symmetric tensor (a, b, c, d) is a binary cubic in disguise.  Its
# symmetric rank follows Sylvester's kernel-vector criterion, the rank-2
# decomposition comes from the two real roots of Sylvester's kernel
# quadratic, the rank-3 one from the roots of an apolar cubic, and every
# rank-3 tensor is an explicit (S, S, S) transform of the canonical D3 or
# G3 representative.

import numpy as np

import tensorbit as tb

examples = [
    ("perfect cube", tb.SymTensor222(1, 0, 0, 0)),
    ("two cubes", tb.SymTensor222(1, 0, 0, 1)),
    ("boundary-type", tb.SymTensor222(0, 1, 1, 0)),
    ("spread cubes", tb.SymTensor222(3, 1, 1, 3)),
]
for name, s in examples:
    rank, dec = tb.sylvester_rank(s)
    print(f"  {name:14} {s.as_tuple()}: orbit {tb.classify_sym(s).orbit:2}, "
          f"symmetric rank {rank}, reconstruction error {dec.reconstruction_error:.2e}")

print()
print("rank-2 decomposition recovers planted directions")
rng = np.random.default_rng(4)
a1, a2 = rng.standard_normal((2, 2))
planted = tb.SymTensor222(0, 0, 0, 0).rank1_update(a1).rank1_update(a2)
dec = tb.sym_rank2_decompose(planted)
print(f"  planted {np.round(a1, 4)}, {np.round(a2, 4)}")
print(f"  found   {[np.round(v, 4).tolist() for v in dec.vectors]}  "
      f"(error {dec.reconstruction_error:.2e})")

print()
print("deflating a symmetric tensor also lands on the boundary orbit")
s = tb.SymTensor222(0, 1, 1, 0)
best = tb.best_rank1_sym(s)
print(f"  best symmetric term: y = {np.round(best.term.y, 6)}, psi = {best.psi}")
residual, report = tb.deflate_once(s)
print(f"  orbit {report.orbit_before.orbit} -> {report.orbit_after.orbit}, "
      f"residual pencil double eigenvalue {report.pencil_after.values[0]:.6f}")

print()
print("canonical-form transforms: X = (S, S, S) . Y_canonical")
tr = tb.canonical_transform(s)
print(f"  orbit {tr.orbit}, residual {tr.residual:.2e}, det(S) = "
      f"{np.linalg.det(tr.S):+.6f}")
moved = tb.multilinear_transform(tb.canonical_form(tr.orbit), tr.S, tr.S, tr.S)
# adding 0.0 prints a round-off -0.0 as 0.0
print(f"  rebuilt entries: {np.round([moved.array[0,0,0], moved.array[0,1,0], moved.array[1,1,0], moved.array[1,1,1]], 10) + 0.0}")
shear = tb.transform_from_canonical_D3(0.0, 0.75)
print(f"  boundary normal form (0, 3/4) comes from the unit shear: S = {(shear.S.round(12) + 0.0).tolist()}")
