"""Words, normal forms, and building new quasi-representations from old.

The word layer is deliberately small: multi-character symbols, integer
exponents, nested commutator brackets, and free reduction.  On top of it
sit two evaluation strategies — the abelian normal form (sort the word
into u^j v^k on a pair, which *forgets* commutators) and raw product
evaluation (which keeps them).  The gap between the two is exactly the
multiplicativity defect that the invariants feed on.
"""

import numpy as np

from qrep import (WordSyntaxError, commutator, direct_sum, evaluate, kappa,
                  mult_defect, parse_word, pullback, relator_defect, render,
                  voiculescu_qrep)

# -- parsing -------------------------------------------------------------------

print("Parsing.  Symbols are whitespace-separated (so 'ab' is ONE letter),")
print("exponents stack, and [x, y] is the group commutator:")
for text in ("a b a^-1 b^-1", "[a, b]", "[a, [a, b]]^2", "a^2^3", "ab"):
    w = parse_word(text)
    print(f"  {text!r:20} -> {render(w)!r}  ({len(w)} letter(s))")

print()
print("Syntax errors point at the byte where parsing stopped:")
try:
    parse_word("[a b]")
except WordSyntaxError as exc:
    print(f"  '[a b]' -> {exc}")

# -- normal form vs raw products -----------------------------------------------

n = 32
qr = voiculescu_qrep(n)
a, b = qr.presentation.generators
comm = commutator(parse_word(a), parse_word(b))

print()
print(f"Shift/phase pair at n = {n}, packaged with the abelian normal form.")
print("The strategy sorts every word into u^j v^k, so the commutator maps")
print("to the identity -- while the raw product of the same four images is")
print("a nontrivial scalar:")
nf = qr.apply(comm)
raw = evaluate(comm, qr.images)
print(f"  normal form of [a, b]: ||pi(w) - 1|| = {np.linalg.norm(nf.m - np.eye(n), 2):.3e}")
print(f"  raw product  of [a, b]: ||prod - 1|| = {np.linalg.norm(raw.m - np.eye(n), 2):.6f}"
      f"   (2 sin(pi/n) = {2 * np.sin(np.pi / n):.6f})")

md = mult_defect(qr, [a, b, f"{a} {b}"])
print(f"  multiplicativity defect on {{a, b, ab}}: epsilon = {md.epsilon:.6f}, "
      f"inverse defect = {md.inverse_defect:.6f}")

# -- pullbacks along substitutions ---------------------------------------------

print()
print("Pulling back along a substitution s -> a, t -> b^2 squares the")
print("commutator scalar, so the integer doubles; swapping the generators")
print("reverses orientation and flips its sign:")
for images in ({"s1": "a", "t1": "b^2"}, {"s1": "b", "t1": "a"}):
    pb = pullback(qr, images)
    rel = pb.presentation.relators[0]
    rep = kappa(evaluate(rel, pb.images))
    print(f"  {images!s:30} relator defect {relator_defect(pb):.6f}, "
          f"kappa(relator image) = {rep.rounded:+d}")

print()
print("A genus-2 substitution works the same way; the surface relator is the")
print("product of both commutators and the defects compound:")
pb2 = pullback(qr, {"s1": "a", "t1": "b", "s2": "b", "t2": "a^-1"})
rel2 = pb2.presentation.relators[0]
rep2 = kappa(evaluate(rel2, pb2.images))
print(f"  genus {pb2.presentation.genus}, relator {render(rel2)!r}")
print(f"  relator defect {relator_defect(pb2):.6f}, "
      f"kappa(relator image) = {rep2.rounded:+d}")

# -- direct sums and additivity --------------------------------------------------

print()
print("Block sums add the invariant.  Summing the n = 32 and n = 48 pairs:")
qsum = direct_sum(voiculescu_qrep(32), voiculescu_qrep(48))
rep_sum = kappa(evaluate(comm, qsum.images))
print(f"  dim {qsum.dim}, kappa([a, b] image) = {rep_sum.rounded:+d}  "
      f"(= -1 + -1)")
