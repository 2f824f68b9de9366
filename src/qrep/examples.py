"""Concrete quasi-representation families and ways to deform them.

The centerpiece is :func:`voiculescu_pair`: the cyclic shift u and the
phase diagonal v = diag(z, z^2, ..., z^n), z = e^{2 pi i / n}.  They satisfy
u v u* = z̄ v exactly, so their commutator is the scalar e^{-2 pi i / n} and
||[u, v] - 1|| = 2 sin(pi / n) -> 0, yet no commuting pair sits nearby: the
obstruction is exactly the invariant machinery in :mod:`qrep.invariants`
and :mod:`qrep.bott`.

Deformations: seeded random unitary perturbations of prescribed operator
norm radius (:func:`perturb`), pullbacks along surface-group-to-abelian
substitutions (:func:`pullback`), and block-diagonal direct sums
(:func:`direct_sum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    PresentationMismatch,
    RadiusTooLarge,
    UnboundGenerator,
)
from .matcore import Unitary, adjoint, herm_eig
from .words import (
    Presentation,
    PullbackThrough,
    QuasiRep,
    WordProduct,
    Z2NormalForm,
    parse_word,
)

__all__ = [
    "voiculescu_pair",
    "voiculescu_qrep",
    "random_unitary",
    "PerturbationSpec",
    "check_radius",
    "perturb",
    "perturbed_copy",
    "pullback",
    "direct_sum",
]


def voiculescu_pair(n: int) -> tuple[Unitary, Unitary]:
    """The cyclic shift u (u e_j = e_{j+1}, indices mod n) and the phase
    diagonal v = diag(z, z^2, ..., z^n) with z = e^{2 pi i / n}.

    Both are exactly unitary up to floating error in the phases; the
    construction is deterministic in n.
    """
    if n < 2:
        raise DimensionMismatch("pair is defined for n >= 2", n=n)
    u = np.zeros((n, n), dtype=np.complex128)
    u[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    phases = np.exp(2j * np.pi * np.arange(1, n + 1) / n)
    v = np.diag(phases)
    return Unitary(u), Unitary(v)


def voiculescu_qrep(n: int) -> QuasiRep:
    """The pair packaged as a two-generator abelian quasi-representation."""
    u, v = voiculescu_pair(n)
    pres = Presentation.z2()
    return QuasiRep(pres, {pres.generators[0]: u, pres.generators[1]: v},
                    Z2NormalForm())


def random_unitary(n: int, rng=None) -> Unitary:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R-diagonal phases absorbed into Q (the standard correction that makes
    the QR draw uniform).  ``rng`` is anything accepted by default_rng.
    """
    gen = np.random.default_rng(rng)
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return Unitary(q * (d / np.abs(d)))


@dataclass(frozen=True)
class PerturbationSpec:
    """Which generators to move, how far (operator norm), and the seed.

    ``targets`` of None means every generator.  The radius is the exact
    resulting distance ||pi'(s) - pi(s)||, not a bound; see :func:`perturb`.
    """

    radius: float
    seed: int
    targets: tuple[str, ...] | None = None


def _random_skew(gen: np.random.Generator, n: int) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return (z - adjoint(z)) / 2


def check_radius(radius: float) -> None:
    """Refuse a perturbation radius outside [0, 2), NaN included."""
    if not 0.0 <= radius < 2.0:
        raise RadiusTooLarge("radius must lie in [0, 2)", radius=radius)


def perturbed_copy(u: Unitary, radius: float, gen: np.random.Generator) -> Unitary:
    """u times exp(K) for a random skew-Hermitian K scaled so that the
    operator-norm distance to u is exactly ``radius`` (see :func:`perturb`)."""
    check_radius(radius)
    if radius == 0.0:
        return u
    k = _random_skew(gen, u.dim)
    # K = iH: one eigensystem of H gives both ||K|| = max |lambda| and
    # exp(tK) = V diag(e^{i t lambda}) V*
    es = herm_eig(-1j * k)
    t = 2.0 * math.asin(radius / 2.0) / max(-es.values[0], es.values[-1])
    return Unitary(u.m @ es.apply(lambda vals: np.exp(1j * t * vals)))


def perturb(qr: QuasiRep, spec: PerturbationSpec) -> QuasiRep:
    """Multiply targeted generator images by independent random exp(K).

    Each K is a Gaussian skew-Hermitian direction scaled so that
    ||exp(K) - 1|| equals the radius exactly: the eigenphases of K have
    magnitude at most ||K||, and |e^{i s} - 1| = 2 sin(|s|/2) is increasing
    on [0, pi], so setting ||K|| = 2 arcsin(radius/2) pins the distance.
    Unitary invariance then gives ||u exp(K) - u|| = radius.

    Deterministic in the seed: draws happen in presentation-generator order
    for exactly the targeted generators.  A perturbed pullback no longer
    factors through its base, so its strategy degrades to word products.
    """
    check_radius(spec.radius)
    gens = qr.presentation.generators
    targets = set(gens) if spec.targets is None else set(spec.targets)
    stray = targets - set(gens)
    if stray:
        raise UnboundGenerator("perturbation target is not a generator",
                               symbols=sorted(stray))
    if spec.radius == 0.0:
        return qr
    gen = np.random.default_rng(spec.seed)
    images = dict(qr.images)
    for sym in gens:
        if sym in targets:
            images[sym] = perturbed_copy(qr.images[sym], spec.radius, gen)
    strategy = qr.strategy
    if isinstance(strategy, PullbackThrough):
        strategy = WordProduct()
    return QuasiRep(qr.presentation, images, strategy)


def pullback(base: QuasiRep, images) -> QuasiRep:
    """Compose a two-generator abelian quasi-representation with a
    surface-group substitution s_i -> word, t_i -> word.

    ``images`` maps the full generator set {s1, t1, ..., sg, tg} (genus
    inferred from the key count) to words over the base generators; words
    may be given as text.  The result holds ``base`` in its
    :class:`PullbackThrough` strategy: its generator images are the base
    applied to those words, and elements evaluate by substitution followed
    by the base normal form.
    """
    if base.presentation.kind != "Z2" or not isinstance(base.strategy, Z2NormalForm):
        raise PresentationMismatch(
            "pullback needs a two-generator abelian base in normal form",
            kind=base.presentation.kind)
    words = {g: parse_word(w) if isinstance(w, str) else w
             for g, w in images.items()}
    if len(words) % 2 != 0 or not words:
        raise PresentationMismatch("need words for pairs s_i, t_i",
                                   count=len(words))
    genus = len(words) // 2
    pres = Presentation.surface(genus)
    if set(words) != set(pres.generators):
        raise PresentationMismatch("generator names must be s1,t1,...,sg,tg",
                                   given=sorted(words), expected=list(pres.generators))
    return QuasiRep(pres, None, PullbackThrough(words, base))


def direct_sum(qr1: QuasiRep, qr2: QuasiRep) -> QuasiRep:
    """Generator-wise block-diagonal sum of two quasi-representations.

    Requires identical presentations and structurally compatible strategies
    (same kind; pullbacks must share the substitution words, in which case
    the sum is the pullback through the direct sum of the two bases, and its
    images derive from that).
    """
    if qr1.presentation != qr2.presentation:
        raise PresentationMismatch("presentations differ",
                                   left=qr1.presentation.kind,
                                   right=qr2.presentation.kind)
    s1, s2 = qr1.strategy, qr2.strategy
    if type(s1) is not type(s2):
        raise PresentationMismatch("strategies of different kinds",
                                   left=type(s1).__name__, right=type(s2).__name__)
    if isinstance(s1, PullbackThrough):
        if s1.words != s2.words:
            raise PresentationMismatch("pullback substitutions differ")
        return QuasiRep(qr1.presentation, None,
                        PullbackThrough(s1.words, direct_sum(s1.base, s2.base)))
    a, b = qr1.images, qr2.images
    return QuasiRep(qr1.presentation, {
        g: Unitary(np.block([[a[g].m, np.zeros((a[g].dim, b[g].dim))],
                             [np.zeros((b[g].dim, a[g].dim)), b[g].m]]))
        for g in qr1.presentation.generators}, s1)
