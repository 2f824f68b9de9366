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

k is defined exactly where ||e^2 - e|| < 1/4, since |mu - 1/2|^2 =
1/4 + mu^2 - mu keeps e's spectrum off 1/2 there.  qrep refuses it only
where the computed ||e^2 - e|| reaches :func:`defect_gate` (n) = 1/4 - b(n),
with b(n) the rounding budget of an eigensolve of order 2n (below 1e-10 at
n = 512), so a refusal means the mathematics fails or is within rounding of
failing.

k is taken by one of two routes, named by the report's ``route``.  With
X = 2e - 1 and the Newton-Schulz sign step p(x) = (3x - x^3)/2,
|p(x) - sign(x)| <= (x^2 - 1)^2 for real x, so
|tr p(X) - 2k| <= ||X^2 - 1||_F^2 = 16 F^2 with F = ||e^2 - e||_F; and
tr X = 0 since tr e = n.  Hence k = round(-tr X^3 / 4), certified whenever
F < 1/4.  The ``"trace"`` route computes F and tr X^3 in v's eigenbasis,
from two complex products of order n, three real ones and no 2n x 2n
array, and is taken when F < :data:`TRACE_ROUTE_F` = 1/8.  As F bounds
||e^2 - e||, every such pair also passes the gate with the same k.  Every
other pair takes the ``"spectrum"`` route: e is assembled and its one
``eigvalsh`` counts the eigenvalues above 1/2 under the gate.

The sign of k is a property of this construction, not of the input: k(u, v)
equals the winding number of the determinant loop of the reversed
commutator v u v* u*, so :data:`ORIENTATION` is the constant +1, recorded
in every report.  ``test_orientation_consistency_with_winding`` checks it
on the n = 64 shift/phase pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import DefectTooLarge, DimensionMismatch, PresentationMismatch
from .matcore import (EigenSystem, Unitary, _hermitize, adjoint, commutator_product,
                      identity_defect, unitary_eig)
from .invariants import InvariantReport, _kappa_pair, winding_number_det_segment
from .words import (
    CommutatorDatum,
    FreeWord,
    PullbackThrough,
    QuasiRep,
    abelianize,
    evaluate,
    relator_defect,
)

__all__ = [
    "AlmostProjection",
    "bott_almost_projection",
    "defect_gate",
    "push_k_class",
    "k_invariant",
    "IndexFormulaReport",
    "verify_index_formula",
]

# Sign convention of k: k(u, v) = winding number of det along [v, u].
ORIENTATION = 1
# How close lhs_k / n and the normalized-trace invariant must be for trace_close.
TRACE_TOL = 1e-9
# k counts e's eigenvalues above 1/2; under defect_gate(n) none lies within
# sqrt(b(n)) of it, farther than rounding moves one, so no other threshold
# gives the class.
PROJECTION_THRESHOLD = 0.5
# Largest F = ||e^2 - e||_F at which k_invariant takes the trace route.  Like
# invariants.GRID_CAP for the winding, it only picks the cheaper route, and is
# not the gate: F < 1/8 gives |-tr X^3 / 4 - k| <= 8 F^2 < 1/8, far inside
# 1/2 plus any rounding, and as F bounds ||e^2 - e|| the pair passes the gate.
TRACE_ROUTE_F = 0.125
# c in the backward error c 2n eps ||e|| that defect_gate grants eigvalsh
EIGVALSH_BACKWARD_C = 100


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

    Only e and LAPACK's copy of it are alive during that eigensolve: v's
    eigensystem dies before e is allocated, and every n x n temporary with
    :func:`_bott_matrix`."""
    _check_pair(u, v)
    e = _bott_matrix(*_bott_blocks(u, unitary_eig(v, tolerances.cluster_width)))
    return _almost_projection(e)


def _check_pair(u: Unitary, v: Unitary) -> None:
    if u.dim != v.dim:
        raise DimensionMismatch("pair must share a dimension", u=u.dim, v=v.dim)


def _almost_projection(e: np.ndarray) -> AlmostProjection:
    spectrum = np.linalg.eigvalsh(e)
    return AlmostProjection(e, spectrum, float(np.abs(spectrum**2 - spectrum).max()),
                            len(e) // 2)


def _bott_blocks(u: Unitary, es: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    # The blocks f and x = g + h u* of e, by functional calculus of v's
    # eigensystem es, which this frame drops before x is formed; h u* + g has
    # the bits of g + h u*, as IEEE addition commutes.
    f, g, h = (es.apply(lambda z, i=i: _circle_functions(np.angle(z))[i]) for i in range(3))
    del es
    x = h @ adjoint(u.m)
    del h
    x += g
    return _hermitize(f), x


def _bott_matrix(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    # [[f, x], [x*, 1 - f]], written block by block into one 2n x 2n array.
    # e is exactly self-adjoint, so eigvalsh (which reads one triangle) sees
    # all of it.
    n = len(f)
    e = np.empty((2 * n, 2 * n), dtype=np.complex128)
    e[:n, :n] = f
    np.subtract(np.eye(n), f, out=e[n:, n:])
    e[:n, n:] = x
    e[n:, :n] = adjoint(x)
    return e


def _trace_class(u: Unitary, es: EigenSystem) -> tuple[float, float]:
    # (-tr X^3 / 4, F = ||e^2 - e||_F) for X = 2e - 1, without forming e.  In
    # v's eigenbasis V, e's blocks are diag(phi) and x = diag(gamma) +
    # diag(eta) V* u* V, with phi, gamma, eta the circle functions of v's
    # eigenphases.  With r, c the row and column sums of |x_ij|^2 and
    # d = phi^2 - phi, e^2 - e has the blocks d + x x*, [diag(phi), x] and
    # d + x* x, and ||x x*||_F = ||x* x||_F, so
    #   F^2 = 2 ||d + x x*||_F^2 + 2 d.(c - r) + 2 sum (phi_i - phi_j)^2 |x_ij|^2,
    #   -tr X^3 / 4 = -3 (2 phi - 1).(r - c).
    # ||d + x x*||_F is taken whole: expanded into ||d||^2 + 2 d.r +
    # ||x x*||_F^2 it would be terms of size n cancelling to F^2.  With
    # x = p + iq, x x* = (p p^T + q q^T) + i(q p^T - (q p^T)^T), two
    # symmetric products and one general one of real n x n arrays, and no
    # more than three n x n complex arrays' worth is alive beside es.
    phi, gamma, eta = _circle_functions(np.angle(es.values))
    vectors = es.vectors
    uv = u.m @ vectors
    np.conjugate(uv, out=uv)
    x = uv.T @ vectors
    del uv
    x *= eta[:, None]
    diagonal = np.diag_indices(len(x))
    x[diagonal] += gamma
    p, q = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    del x
    weight = p * p
    weight += q * q
    r_minus_c = weight.sum(axis=1) - weight.sum(axis=0)
    spread = np.subtract.outer(phi, phi)
    spread *= spread
    spread *= weight
    off_diagonal = float(spread.sum())
    del weight, spread
    d = phi * phi - phi
    block = p @ p.T
    block += q @ q.T
    block[diagonal] += d
    square = float(np.vdot(block, block))
    block = q @ p.T
    block -= block.T
    square += float(np.vdot(block, block))
    square = 2 * square - 2 * float(d @ r_minus_c) + 2 * off_diagonal
    return float(-3 * (2 * phi - 1) @ r_minus_c), math.sqrt(max(square, 0.0))


def defect_gate(n: int) -> float:
    """1/4 - b(n): the computed ||e^2 - e|| below which the k class of an
    n x n pair is taken, with b(n) = 5 c n eps, c = :data:`EIGVALSH_BACKWARD_C`.

    ``eigvalsh`` of the order-2n e is backward stable: its eigenvalues are
    those of e + E with ||E|| <= c 2n eps ||e||, so each lies within
    delta = c 2n eps ||e|| of one of e's, taken in order (Weyl); c = 100 is
    generous for the Householder tridiagonalization and the tridiagonal
    solver.  A computed lambda with |lambda^2 - lambda| < 1/4 lies in
    ((1 - sqrt 2)/2, (1 + sqrt 2)/2), so under the gate ||e|| <= 5/4,
    delta <= (5/2) c n eps, and lambda's partner mu has
    |mu^2 - mu - (lambda^2 - lambda)| = |mu - lambda| |mu + lambda - 1|
    <= delta (sqrt 2 + delta) <= 2 delta = b(n).  So under the gate e's own
    ||e^2 - e|| is below 1/4, where k is defined, and every computed lambda
    lies more than sqrt(b(n)) > delta from 1/2, on its mu's side: the count
    above 1/2 is e's.  b(512) = 5.7e-11.
    """
    return 0.25 - 5 * EIGVALSH_BACKWARD_C * n * float(np.finfo(float).eps)


def push_k_class(ap: AlmostProjection) -> int:
    """Rank of the spectral projection of e above
    :data:`PROJECTION_THRESHOLD` (1/2), counted on ``ap.spectrum``, minus the
    base rank n.

    Taken only where ``ap.defect``, max |lambda^2 - lambda| over the same
    spectrum, is below :func:`defect_gate` (n), else :class:`DefectTooLarge`
    with that gate as its ``bound``.  Every eigenvalue then lies more than
    sqrt(b(n)) from 1/2: the gate is the spectral gap, and no band needs
    checking.
    """
    bound = defect_gate(ap.base_dim)
    if ap.defect >= bound:
        raise DefectTooLarge("almost-projection defect leaves no usable gap",
                             defect=ap.defect, bound=bound)
    return int(np.count_nonzero(ap.spectrum > PROJECTION_THRESHOLD)) - ap.base_dim


def k_invariant(u: Unitary, v: Unitary,
                *,
                commutator: Unitary | None = None,
                tolerances: Tolerances = DEFAULTS) -> InvariantReport:
    """The integer class k(u, v) of the pair, with its full error budget.

    One eigensystem of v serves both routes (see the module docstring).
    Where F = ||e^2 - e||_F < :data:`TRACE_ROUTE_F`, k = round(-tr X^3 / 4)
    is read off v's eigenbasis: ``route`` is ``"trace"``, ``e_defect`` is F
    and ``spectral_gap`` is 2 sqrt(1/4 - F), a lower bound on the gap of e's
    spectrum around 1/2.  Otherwise e is assembled and :func:`push_k_class`
    counts its spectrum under :func:`defect_gate`: ``route`` is
    ``"spectrum"``, and ``e_defect`` and ``spectral_gap`` are those of
    :func:`bott_almost_projection`, bit for bit.  v's eigensystem and the
    trace route's temporaries are freed before e is allocated.

    ``commutator`` is [u, v] = u v u* v* where the caller has formed it
    already (with ``commutator_product``, so the same bits); its cached
    ||[u, v] - 1|| is then the reported ``commutator_defect``.
    """
    tol = tolerances
    _check_pair(u, v)
    es = unitary_eig(v, tol.cluster_width)
    value, e_defect = _trace_class(u, es)
    if e_defect < TRACE_ROUTE_F:
        del es
        k, route = round(value), "trace"
        gap_width = 2 * math.sqrt(0.25 - e_defect)
    else:
        f, x = _bott_blocks(u, es)
        del es
        e = _bott_matrix(f, x)
        del f, x
        ap = _almost_projection(e)
        k, route = push_k_class(ap), "spectrum"
        e_defect, spectrum = ap.defect, ap.spectrum
        del e, ap
        below = spectrum[spectrum < PROJECTION_THRESHOLD]
        above = spectrum[spectrum >= PROJECTION_THRESHOLD]
        gap_width = float(above.min() - below.max()) if below.size and above.size else float("inf")
    comm_defect = (identity_defect(commutator_product([(u.m, v.m)], u.dim))
                   if commutator is None else commutator.distance_from_one)
    return InvariantReport(
        name="k_invariant",
        value=float(k),
        rounded=k,
        is_integer=True,
        defect_data={
            "commutator_defect": comm_defect,
            "e_defect": e_defect,
            "spectral_gap": gap_width,
            "orientation": float(ORIENTATION),
            "route": route,
        },
        tolerances=tol.subset("cluster_width"),
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


def verify_index_formula(qr: QuasiRep,
                         datum: CommutatorDatum | None = None,
                         *,
                         tolerances: Tolerances = DEFAULTS) -> IndexFormulaReport:
    """Check the index identity wn = kappa = d * k on a datum of class d.

    The base pair (u, v) is read off ``qr`` by one rule: a pullback strategy
    supplies its ``base``, whose two generator images are the pair, and its
    substitution, whatever the presentation; any other strategy makes ``qr``
    its own base.  ``qr`` must be a ``Z2`` presentation, or a surface
    pullback as ``pullback`` and ``qrep gen pullback`` build it.  Anything
    else, including a perturbed pullback, which no longer factors through
    its base, or a base of other than two generators, raises
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
    pulled = isinstance(strategy, PullbackThrough)
    base = strategy.base if pulled else qr
    substitute = strategy.substitute if pulled else (lambda word: word)
    base_generators = base.presentation.generators
    if len(base_generators) != 2 or not (pres.kind == "Z2"
                                         or pres.kind == "surface" and pulled):
        raise PresentationMismatch(
            "verification needs a two-generator abelian quasi-representation or "
            "a surface pullback of one", kind=pres.kind, strategy=strategy.kind)
    label = "z2-bott" if pres.kind == "Z2" else f"surface-pullback-g{pres.genus}"
    u, v = (base.images[g] for g in base_generators)
    used = datum if datum is not None else CommutatorDatum.of_generators(pres.generators)

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

    # ||pi(word) - 1|| over qr.images, once per distinct word; where the base
    # pair is the Z2 presentation's own images, [a, b] is the product
    # k_invariant measured, bit for bit: both are matcore.product of the
    # factors u, v, u*, v*
    norms = {}
    if not pulled:
        norms[pres.relators[0]] = lhs.defect_data["commutator_defect"]

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
