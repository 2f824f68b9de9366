"""Why the integer cannot move under small perturbations.

Take the n = 32 shift/phase pair (commutator distance 2 sin(pi/32), about
0.196) and kick each generator by a random unitary factor exp(K) at a
controlled operator-norm distance.  As long as the base commutator and
the kicks stay under the budget 1/(5g), the straight homotopy

    u(t) = u exp(t log(u* u')),   v(t) likewise

keeps the commutator product within distance 1 of the identity at every
t, so the eigenphase-sum invariant cannot cross a branch and the endpoint
values must agree: the integer is locally constant.  The last column is
the closed-form certificate (relator defects at both ends plus the
homotopy's Lipschitz constant, halved) that bounds ||w(t) - 1|| for all t.
"""

import numpy as np

from qrep import (HypothesisViolated, kazhdan_stability, perturbed_copy,
                  voiculescu_pair)

u, v = voiculescu_pair(32)

print(f"{'radius':>7}  {'seed':>4}  {'kappa0':>6}  {'kappa1':>6}  "
      f"{'homotopy_bound':>14}  {'equal':>5}")
for radius in (0.05, 0.12, 0.19):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        u2 = perturbed_copy(u, radius, rng)
        v2 = perturbed_copy(v, radius, rng)
        rep = kazhdan_stability(1, [(u, v)], [(u2, v2)])
        print(f"{radius:>7.2f}  {seed:>4}  {rep.kappa_start.rounded:>6} "
              f"{rep.kappa_end.rounded:>7}  {rep.homotopy_bound:>14.6f}  "
              f"{str(rep.equal):>5}")

print()
print("Past the budget the hypothesis check fires rather than returning a")
print("number whose meaning is no longer guaranteed:")
try:
    rng = np.random.default_rng(0)
    kazhdan_stability(1, [(u, v)], [(perturbed_copy(u, 0.3, rng), v)])
except HypothesisViolated as exc:
    d = exc.details
    print(f"  HypothesisViolated: {d['which']} moved {d['value']:.3f} >= "
          f"bound {d['bound']:.3f}")

print()
print("(The same experiment is scriptable as:")
print("   qrep stability --g 1 --n 32 --radius 0.19 --seeds 20 --csv runs.csv)")
