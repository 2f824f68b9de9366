"""The rank route: pushing an almost-projection through the pair.

From a pair (u, v) the library builds the 2n x 2n self-adjoint matrix

    e(u, v) = [[ f(v),            g(v) + h(v) u* ],
               [ g(v) + u h(v),   1 - f(v)       ]]

with f a tent function of the phase of v and g, h the two halves of the
bump sqrt(f - f^2).  When u and v commute exactly, e is an exact
projection of rank n; when they almost commute, ||e^2 - e|| is small and
the spectrum of e clusters near {0, 1}.  The class

    k(u, v) = rank(spectral projection of e above 1/2) - n

is then a well-defined integer as long as the defect stays below 1/4,
which keeps the spectrum of e off 1/2.  The library takes it wherever the
computed defect is below defect_gate(n): 1/4 less a rounding budget of the
eigensolve, under 1e-12 at these sizes.
Where the Frobenius defect ||e^2 - e||_F is below 1/8, k is read
off the trace formula k = round(-tr (2e - 1)^3 / 4) in v's eigenbasis (the
"trace" route, whose e-defect is that Frobenius norm and whose gap is its
lower bound).  Elsewhere, where the Schatten 8-norm S_8 of e^2 - e is below
1/8, k is read off the degree-7 sign polynomial, k = round(tr p_7(2e - 1) / 2)
with p_7(x) = x(35 - 35x^2 + 21x^4 - 5x^6)/16, also in v's eigenbasis: its
error is at most 35 sqrt(1 + 4 S_8) S_4^4 / (1 - 4 S_8), which must stay
below 1/2 (the "sign7" route, whose e-defect is S_8 and whose gap is its
lower bound 2 sqrt(1/4 - S_8)).  Everywhere else e's spectrum is counted
(the "spectrum" route, whose e-defect is the operator norm of e^2 - e).
Its sign is a property of the construction: k(u, v) equals the winding
number of the determinant loop of [v, u], so reports carry the constant
orientation +1.
"""

import numpy as np

from qrep import (DefectTooLarge, bott_almost_projection, defect_gate, k_invariant,
                  verify_index_formula, voiculescu_pair, voiculescu_qrep)

print("defect ||e^2 - e|| of the shift/phase family:")
print(f"{'n':>5}  {'defect':>10}  {'< gate?':>7}")
for n in (4, 7, 8, 16, 32, 64, 128):
    u, v = voiculescu_pair(n)
    d = bott_almost_projection(u, v).defect
    print(f"{n:>5}  {d:>10.6f}  {str(d < defect_gate(n)):>7}")

print()

for n in (8, 16, 64, 128):
    u, v = voiculescu_pair(n)
    rep = k_invariant(u, v)
    d = rep.defect_data
    print(f"n={n:>3}: k = {rep.rounded:+d} by the {d['route']} route, "
          f"e-defect {d['e_defect']:.6f}, spectral gap {d['spectral_gap']:.4f}")

print()
u7, v7 = voiculescu_pair(7)
try:
    k_invariant(u7, v7)
except DefectTooLarge as exc:
    print(f"n = 7 is honestly refused: defect {exc.details['defect']:.4f} >= "
          f"{exc.details['bound']:.12f} leaves no usable spectral gap.")

print()
print("full three-way identity at n = 64 (rank class vs winding vs trace-log):")
report = verify_index_formula(voiculescu_qrep(64))
print(f"  lhs k = {report.lhs_k}, winding = {report.rhs_wn.rounded}, "
      f"kappa = {report.rhs_kappa.rounded}, equal = {report.equal}")
print(f"  normalized: k/n = {report.normalized_lhs} vs kappa_tau = "
      f"{report.rhs_kappa_tau.value} (trace_close = {report.trace_close})")
