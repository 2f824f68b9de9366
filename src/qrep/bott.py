"""Bott-element machinery for almost-commuting unitary pairs.

From a pair (u, v) the standard rank-one-obstruction construction builds a
self-adjoint 2n x 2n almost-projection

    e(u, v) = [[ f(v),          g(v) + h(v) u* ],
               [ g(v) + u h(v), 1 - f(v)      ]]

where f is the tent function of the phase angle and g, h are two bump
factors supported on complementary half-circles with g h = 0 and
g^2 + h^2 = f - f^2, so that e is an exact projection whenever u and v
commute.  When they nearly commute, ||e^2 - e|| is small, the spectrum of e
clears a band around 1/2, and the rank of the spectral projection above 1/2
minus n is an integer invariant k(u, v) of the pair: zero for genuinely
commuting pairs, and equal to the winding number of the commutator
determinant loop in general.

The sign of k is a property of this construction, not of the input: k(u, v)
equals the winding number of the determinant loop of the reversed
commutator v u v* u*, so :data:`ORIENTATION` is the constant +1, recorded
in every report.  ``test_orientation_consistency_with_winding`` checks it
on the n = 64 shift/phase pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import DefectTooLarge, DimensionMismatch, PresentationMismatch
from .matcore import Unitary, _hermitize, adjoint, commutator_product, unitary_eig
from .invariants import InvariantReport, _kappa_pair, winding_number_det_segment
from .words import (
    CommutatorDatum,
    FreeWord,
    Presentation,
    PullbackThrough,
    QuasiRep,
    abelianize,
    evaluate,
    relator_defect,
)

__all__ = [
    "AlmostProjection",
    "bott_almost_projection",
    "push_k_class",
    "k_invariant",
    "IndexFormulaReport",
    "verify_index_formula",
]

# Sign convention of k: k(u, v) = winding number of det along [v, u].
ORIENTATION = 1
# How close lhs_k / n and the normalized-trace invariant must be for trace_close.
TRACE_TOL = 1e-9
# k counts e's eigenvalues above 1/2; with ||e^2 - e|| < defect_max < 1/4 none
# lies within sqrt(1/4 - defect_max) of it, so no other threshold gives the class.
PROJECTION_THRESHOLD = 0.5


@dataclass(frozen=True)
class AlmostProjection:
    """Self-adjoint 2n x 2n matrix, its ascending spectrum and ||e^2 - e||."""

    e: np.ndarray
    spectrum: np.ndarray
    defect: float
    base_dim: int


def _circle_functions(theta: np.ndarray):
    # Phase angle -> (f, g, h) on the unit circle, parametrized by
    # t = theta / 2pi mod 1.  f is the descending/ascending tent, g and h
    # split the bump sqrt(f - f^2) between the two half-circles.
    t = np.mod(theta / (2.0 * np.pi), 1.0)
    lower = t <= 0.5
    f = np.where(lower, 1.0 - 2.0 * t, 2.0 * t - 1.0)
    bump = np.sqrt(np.clip(f - f * f, 0.0, None))
    g = np.where(lower, bump, 0.0)
    h = np.where(lower, 0.0, bump)
    return f, g, h


def bott_almost_projection(u: Unitary, v: Unitary,
                           *,
                           tolerances: Tolerances = DEFAULTS) -> AlmostProjection:
    """Build e(u, v) by functional calculus of v (eigenvalues of v clustered
    at ``cluster_width``); its one eigvalsh gives the rank, defect and gap.

    Only e and LAPACK's copy of it are alive during that eigensolve: every
    n x n temporary dies with :func:`_bott_matrix`."""
    if u.dim != v.dim:
        raise DimensionMismatch("pair must share a dimension", u=u.dim, v=v.dim)
    e = _bott_matrix(u, v, tolerances.cluster_width)
    spectrum = np.linalg.eigvalsh(e)
    return AlmostProjection(e, spectrum, float(np.abs(spectrum**2 - spectrum).max()), u.dim)


def _bott_matrix(u: Unitary, v: Unitary, cluster_width: float) -> np.ndarray:
    # [[f, x], [x*, 1 - f]] with x = g + h u*, written block by block into one
    # 2n x 2n array.  x is formed, and v's eigensystem dropped, before e is
    # allocated; h u* + g has the bits of g + h u*, as IEEE addition commutes.
    # e is exactly self-adjoint, so eigvalsh (which reads one triangle) sees
    # all of it.
    n = u.dim
    es = unitary_eig(v, cluster_width)
    f, g, h = (es.apply(lambda z, i=i: _circle_functions(np.angle(z))[i]) for i in range(3))
    del es
    x = h @ adjoint(u.m)
    del h
    x += g
    del g
    f = _hermitize(f)
    e = np.empty((2 * n, 2 * n), dtype=np.complex128)
    e[:n, :n] = f
    np.subtract(np.eye(n), f, out=e[n:, n:])
    e[:n, n:] = x
    e[n:, :n] = adjoint(x)
    return e


def push_k_class(ap: AlmostProjection,
                 *,
                 tolerances: Tolerances = DEFAULTS) -> int:
    """Rank of the spectral projection of e above
    :data:`PROJECTION_THRESHOLD` (1/2), counted on ``ap.spectrum``, minus the
    base rank n.

    Well-defined only when the defect is below ``defect_max`` (default 1/8,
    always below 1/4), else :class:`DefectTooLarge`.  ``ap.defect`` is
    max |lambda^2 - lambda| over the same spectrum, and
    |lambda - 1/2|^2 = 1/4 + lambda^2 - lambda, so every eigenvalue then lies
    at least sqrt(1/4 - defect_max) (0.354 at the default) from 1/2: the
    gate is the spectral gap, and no band needs checking.
    """
    tol = tolerances
    if ap.defect >= tol.defect_max:
        raise DefectTooLarge("almost-projection defect leaves no usable gap",
                             defect=ap.defect, bound=tol.defect_max)
    return int(np.count_nonzero(ap.spectrum > PROJECTION_THRESHOLD)) - ap.base_dim


def k_invariant(u: Unitary, v: Unitary,
                *,
                commutator: Unitary | None = None,
                tolerances: Tolerances = DEFAULTS) -> InvariantReport:
    """The integer class k(u, v) of the pair, with its full error budget.

    ``commutator`` is [u, v] = u v u* v* where the caller has formed it
    already (with ``commutator_product``, so the same bits); its cached
    ||[u, v] - 1|| is then the reported ``commutator_defect``.
    """
    tol = tolerances
    ap = bott_almost_projection(u, v, tolerances=tol)
    k = push_k_class(ap, tolerances=tol)
    below = ap.spectrum[ap.spectrum < PROJECTION_THRESHOLD]
    above = ap.spectrum[ap.spectrum >= PROJECTION_THRESHOLD]
    gap_width = float(above.min() - below.max()) if below.size and above.size else float("inf")
    if commutator is None:
        commutator = Unitary(commutator_product([(u.m, v.m)], u.dim))
    comm_defect = commutator.distance_from_one
    return InvariantReport(
        name="k_invariant",
        value=float(k),
        rounded=k,
        is_integer=True,
        defect_data={
            "commutator_defect": comm_defect,
            "e_defect": ap.defect,
            "spectral_gap": gap_width,
            "orientation": float(ORIENTATION),
        },
        tolerances=tol.subset("defect_max"),
    )


@dataclass(frozen=True)
class IndexFormulaReport:
    """Both sides of the index identity, each computed independently.

    lhs_k comes from the Bott almost-projection rank (``lhs_k_report``);
    rhs_wn from pure determinant tracking; rhs_kappa from the eigenphase
    trace.  ``equal`` asserts rhs_wn = rhs_kappa = datum_class * lhs_k;
    ``trace_close`` compares ``normalized_lhs`` = datum_class * lhs_k / n
    with the normalized-trace invariant of the loop at tolerance
    :data:`TRACE_TOL`.
    """

    case: str
    lhs_k: int
    lhs_k_report: InvariantReport
    rhs_wn: InvariantReport
    rhs_kappa: InvariantReport
    rhs_kappa_tau: InvariantReport
    normalized_lhs: float
    equal: bool
    trace_close: bool
    datum_class: int
    defects: dict
    orientation: ClassVar[int] = ORIENTATION

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "lhs_k": self.lhs_k,
            "rhs_wn": self.rhs_wn.rounded,
            "rhs_kappa": self.rhs_kappa.rounded,
            "normalized_lhs": self.normalized_lhs,
            "rhs_kappa_tau": self.rhs_kappa_tau.value,
            "equal": self.equal,
            "trace_close": self.trace_close,
            "orientation": f"{self.orientation:+d}",
            "datum_class": self.datum_class,
            "defects": dict(self.defects),
            "reports": {
                "lhs_k": self.lhs_k_report.to_json(),
                "rhs_wn": self.rhs_wn.to_json(),
                "rhs_kappa": self.rhs_kappa.to_json(),
                "rhs_kappa_tau": self.rhs_kappa_tau.to_json(),
            },
        }


def _default_datum(pres: Presentation) -> CommutatorDatum:
    gens = [FreeWord(((g, 1),)) for g in pres.generators]
    return CommutatorDatum(tuple(zip(gens[::2], gens[1::2])), pres)


def verify_index_formula(qr: QuasiRep,
                         datum: CommutatorDatum | None = None,
                         *,
                         tolerances: Tolerances = DEFAULTS) -> IndexFormulaReport:
    """Check the index identity wn = kappa = d * k on a datum of class d.

    The base pair (u, v) is read off ``qr``: the two generator images of a
    ``Z2`` presentation, or the two base images of a surface pullback, as
    ``pullback`` and ``qrep gen pullback`` build it.  Anything else, including
    a perturbed pullback, which no longer factors through its base, raises
    :class:`PresentationMismatch`.

    Left side: k(u, v), the pushforward of the rank obstruction class.  The
    datum (default: the canonical pairs (a, b) or (s_i, t_i) of ``qr``'s
    presentation) is a product of commutators prod_i [a_i, b_i]; its class d
    in H_2 of the base is the sum of the 2x2 determinants of the exponent
    sums of the base words of a_i, b_i.  Right side: the loop
    prod_i [pi(b_i), pi(a_i)], evaluated through ``qr``'s strategy and fed
    to the winding tracker and to both trace-logarithm invariants.  By
    naturality the loop's integer is d * k(u, v), which ``equal`` checks.
    """
    pres, strategy = qr.presentation, qr.strategy
    if pres.kind == "Z2":
        base_generators, base_images = pres.generators, qr.images
        substitute = lambda word: word
        label = "z2-bott"
    elif (pres.kind == "surface" and isinstance(strategy, PullbackThrough)
          and len(strategy.base_generators) == 2):
        base_generators, base_images = strategy.base_generators, strategy.base_images
        substitute = strategy.substitute
        label = f"surface-pullback-g{pres.genus}"
    else:
        raise PresentationMismatch(
            "verification needs a two-generator abelian quasi-representation or "
            "a surface pullback of one", kind=pres.kind, strategy=strategy.kind)
    a_sym, b_sym = base_generators
    u, v = base_images[a_sym], base_images[b_sym]
    used = datum if datum is not None else _default_datum(pres)

    datum_class = 0
    for wa, wb in used.pairs:
        (pa, qa) = abelianize(substitute(wa), base_generators)
        (pb, qb) = abelianize(substitute(wb), base_generators)
        datum_class += pa * qb - qa * pb

    # k first, so that the loop is not alive during e's eigensolve
    lhs = k_invariant(u, v, tolerances=tolerances)
    n = u.dim
    images = [(qr.apply(wa).m, qr.apply(wb).m) for wa, wb in used.pairs]
    loop_u = Unitary(commutator_product([(mb, ma) for ma, mb in images], n))

    rhs_wn = winding_number_det_segment(loop_u, tolerances=tolerances)
    rhs_kappa, rhs_tau = _kappa_pair(loop_u, tolerances)
    lhs_k = lhs.rounded
    normalized = datum_class * lhs_k / n
    equal = (rhs_wn.is_integer and rhs_kappa.is_integer
             and datum_class * lhs_k == rhs_wn.rounded == rhs_kappa.rounded)
    trace_close = abs(normalized - rhs_tau.value) <= TRACE_TOL

    # ||pi(word) - 1|| over qr.images, once per distinct word; on a Z2
    # presentation, [a, b] is the product k_invariant measured, bit for bit:
    # both are matcore.product of the factors u, v, u*, v*
    norms = {}
    if pres.kind == "Z2":
        norms[_default_datum(pres).commutator_product()] = \
            lhs.defect_data["commutator_defect"]

    def word_defect(word: FreeWord) -> float:
        if word not in norms:
            norms[word] = evaluate(word, qr.images).distance_from_one
        return norms[word]

    defects = {
        "relator_defect": relator_defect(qr, word_defect),
        "datum_product_defect": word_defect(used.commutator_product()),
        "loop_defect": loop_u.distance_from_one,
        "commutator_defect": lhs.defect_data["commutator_defect"],
        "e_defect": lhs.defect_data["e_defect"],
        "spectral_gap": lhs.defect_data["spectral_gap"],
    }
    return IndexFormulaReport(
        label,
        lhs_k=lhs_k,
        lhs_k_report=lhs,
        rhs_wn=rhs_wn,
        rhs_kappa=rhs_kappa,
        rhs_kappa_tau=rhs_tau,
        normalized_lhs=normalized,
        equal=equal,
        trace_close=trace_close,
        datum_class=datum_class,
        defects=defects,
    )
