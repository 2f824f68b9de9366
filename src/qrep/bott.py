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

k is taken by one of three routes, named by the report's ``route``.  Put
X = 2e - 1, so that tr X = 0 (tr e = n) and k = tr sign(X) / 2, and
Y = X^2 - 1 = 4(e^2 - e), with eigenvalues y = x^2 - 1 over X's x.  Write
F = ||e^2 - e||_F and S_p for the Schatten p-norm of e^2 - e.

- ``"trace"``: the Newton-Schulz sign step p(x) = (3x - x^3)/2 has
  |p(x) - sign(x)| <= (x^2 - 1)^2, so |tr p(X) - 2k| <= 16 F^2 and
  k = round(-tr X^3 / 4), certified whenever F < 1/4.  F and tr X^3 come
  from v's eigenbasis, two complex products of order n and three real
  ones, and the route is taken when F < :data:`TRACE_ROUTE_F` = 1/8.
- ``"sign7"``: the next Newton-Schulz/Pade sign polynomial (Higham,
  *Functions of Matrices*, ch. 5), p_7(x) = x(35 - 35x^2 + 21x^4 - 5x^6)/16
  = x(1 - y/2 + 3y^2/8 - 5y^3/16), is x times the degree-3 Taylor part of
  (1 + y)^(-1/2), whose coefficients beyond it are at most 35/128.  With
  ||e^2 - e|| <= delta < 1/4, |y| <= 4 delta and
  |p_7(x) - sign(x)| <= sqrt(1 + 4 delta) (35/128) y^4 / (1 - 4 delta);
  summed, |tr p_7(X)/2 - k| <= 35 sqrt(1 + 4 delta) S_4^4 / (1 - 4 delta).
  The route takes delta = S_8 plus a rounding budget c n^2 eps
  (c = :data:`SIGN7_ROUNDING_C`), and is taken when
  S_8 < :data:`SIGN7_ROUTE_S8` = 1/8 and that bound, plus the budget, is
  below 1/2; then k = round(tr p_7(X)/2).  The traces of X Y, X Y^2, X Y^3
  and S_4, S_8 come from about fourteen complex products of order n in v's
  eigenbasis.
- ``"spectrum"``: every other pair.  e is assembled and its one ``eigvalsh``
  counts the eigenvalues above 1/2 under the gate.

F and S_8 both bound ||e^2 - e||, so a pair the first two routes take also
passes the gate, with the same k; the pairs refused are those the spectrum
route refuses.  Neither of the first two builds a 2n x 2n array, and each
starts with free lower bounds on F and S_8 read off e^2 - e's diagonal, so
that a hopeless attempt costs no product.

The sign of k is a property of this construction, not of the input: k(u, v)
equals the winding number of the determinant loop of the reversed
commutator v u v* u*, so :data:`ORIENTATION` is the constant +1, recorded
in every report.  ``test_orientation_consistency_with_winding`` checks it
on the n = 64 shift/phase pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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
# Largest S_8 (the Schatten 8-norm of e^2 - e) at which k_invariant takes the
# "sign7" route.  A route choice too, like TRACE_ROUTE_F, and at 1/8, so that
# the e_defect it reports stays below 1/8 wherever a 1/8 gate took the pair;
# as S_8 bounds ||e^2 - e||, every such pair passes the gate.
SIGN7_ROUTE_S8 = 0.125
# c in the rounding budget c n^2 eps of the sign7 route's S_8 and trace value
SIGN7_ROUNDING_C = 100
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
    # eigensystem es, which this frame drops before x is formed; the circle
    # functions of v's eigenphases are taken once, and each block is
    # EigenSystem.apply's (V diag(c)) V*.  h u* + g has the bits of g + h u*,
    # as IEEE addition commutes.
    vectors, back = es.vectors, adjoint(es.vectors)
    f, g, h = ((vectors * c) @ back for c in _circle_functions(np.angle(es.values)))
    del es, vectors, back
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


def _eigenbasis_blocks(u: Unitary, es: EigenSystem) -> tuple[np.ndarray, np.ndarray]:
    # (phi, x): e's blocks in v's eigenbasis V are diag(phi) and
    # x = diag(gamma) + diag(eta) V* u* V, with phi, gamma, eta the circle
    # functions of v's eigenphases.
    phi, gamma, eta = _circle_functions(np.angle(es.values))
    vectors = es.vectors
    uv = u.m @ vectors
    np.conjugate(uv, out=uv)
    x = uv.T @ vectors
    del uv
    x *= eta[:, None]
    x[np.diag_indices(len(x))] += gamma
    return phi, x


def _gram(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # x x* = (p p^T + q q^T) + i (q p^T - (q p^T)^T) for x = p + i q: two
    # symmetric products and one general one of real arrays, the imaginary
    # part exactly antisymmetric
    re = p @ p.T
    re += q @ q.T
    im = q @ p.T
    im -= im.T
    return re, im


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(re.shape, dtype=np.complex128)
    z.real, z.imag = re, im
    return z


class _Certified(NamedTuple):
    # k read off v's eigenbasis: the route's trace formula, the defect that
    # selected the route (F or S_8) and the bound below 1/2 on |value - k|
    # that certifies it (8 F^2, or the sign7 bound with its rounding budget)
    route: str
    value: float
    e_defect: float
    error: float


def _eigenbasis_class(u: Unitary, es: EigenSystem) -> _Certified | None:
    # k's class read off v's eigenbasis without forming e, by the "trace" or
    # the "sign7" route, or None where neither certifies it.  In v's
    # eigenbasis, with x = p + iq, r, c the row and column sums of |x_ij|^2,
    # d = phi^2 - phi and s_ij = phi_i - phi_j, E = e^2 - e has the blocks
    # P = d + x x*, B = s o x (that is, [diag(phi), x]) and Q = d + x* x, and
    # X = 2e - 1 the blocks diag(a), 2x and -diag(a), a = 2 phi - 1.  E's
    # diagonal, d + r and d + c, is majorized by its spectrum (Schur), so its
    # 2-norm and 8-norm are free lower bounds on F = ||E||_F and on S_8:
    #   F^2 >= ||d + r||^2 + ||d + c||^2 + 2 ||B||_F^2,
    #   S_8^8 >= ||d + r||_8^8 + ||d + c||_8^8.
    phi, x = _eigenbasis_blocks(u, es)
    n = len(x)
    p, q = np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag)
    del x
    weight = p * p
    weight += q * q
    rows, cols = weight.sum(axis=1), weight.sum(axis=0)
    r_minus_c = rows - cols
    spread = np.subtract.outer(phi, phi)
    spread *= spread
    spread *= weight
    off_diagonal = float(spread.sum())
    del weight, spread
    d = phi * phi - phi
    p_diagonal, q_diagonal = d + rows, d + cols
    if (p_diagonal ** 8).sum() + (q_diagonal ** 8).sum() >= SIGN7_ROUTE_S8 ** 8:
        return None
    # -tr X^3 / 4 = -3 a.(r - c), and F^2 = 2 ||P||_F^2 + 2 d.(c - r)
    # + 2 ||B||_F^2, as ||x x*||_F = ||x* x||_F.  ||P||_F is taken whole:
    # expanded into ||d||^2 + 2 d.r + ||x x*||_F^2 it would be terms of size n
    # cancelling to F^2
    cubic = float(-3 * (2 * phi - 1) @ r_minus_c)
    p_re, p_im = _gram(p, q)
    p_re.flat[::n + 1] += d
    low = p_diagonal @ p_diagonal + q_diagonal @ q_diagonal + 2 * off_diagonal
    del rows, cols, p_diagonal, q_diagonal
    if math.sqrt(low) < TRACE_ROUTE_F:
        square = float(np.vdot(p_re, p_re)) + float(np.vdot(p_im, p_im))
        square = 2 * square - 2 * float(d @ r_minus_c) + 2 * off_diagonal
        frobenius = math.sqrt(max(square, 0.0))
        if frobenius < TRACE_ROUTE_F:
            return _Certified("trace", cubic, frobenius, 8 * frobenius ** 2)
    del r_minus_c
    # The degree-7 sign polynomial: tr p_7(X) / 2 = -t_1 + 3 t_2 - 10 t_3
    # with t_j = tr X E^j, and t_1 = -cubic.  W = E^2 has the blocks
    # W11 = P^2 + B B*, W12 = P B + B Q and W22 = B* B + Q^2, and E^3 = W E, so
    #   t_2 = a.(diag W11 - diag W22) + 4 Re <x, W12>,
    #   t_3 = a.(diag (E^3)11 - diag (E^3)22) + 4 Re <x, W11 B + W12 Q>
    #       = Re <W11, a P> + 2 Re <W12, s o B> - Re <W22, a Q>
    #         + 4 Re <x, W11 B + W12 Q>,
    # with a P and a Q the rows of P and Q scaled by a; S_4^4 = ||W||_F^2 and
    # S_8^8 = ||W^2||_F^2, by blocks.  Each array is freed once read, and each
    # B B*-type product taken while the fewest are alive: with es, about
    # seven n x n complex arrays' worth, as many as e's assembly holds.
    big_p = _complex(p_re, p_im)
    del p_re, p_im
    q_re, q_im = _gram(p.T, q.T)
    q_re.flat[::n + 1] += d
    np.negative(q_im, out=q_im)
    big_q = _complex(q_re, q_im)
    del q_re, q_im
    x = _complex(p, q)
    del p, q
    phi_i, phi_j = phi[:, None], phi[None, :]
    b = x * phi_i
    b -= x * phi_j
    a = 2 * phi_i - 1
    w11 = b @ adjoint(b)
    w11 += big_p @ big_p
    scratch = a * big_p
    t3 = np.vdot(w11, scratch).real
    np.matmul(big_p, b, out=scratch)
    del big_p
    w12 = b @ big_q
    w12 += scratch
    t2 = 4 * np.vdot(x, w12).real
    np.multiply(phi_i, b, out=scratch)
    t3 += 2 * np.vdot(w12, scratch).real
    np.multiply(b, phi_j, out=scratch)
    t3 -= 2 * np.vdot(w12, scratch).real
    np.matmul(w11, b, out=scratch)
    t3 += 4 * np.vdot(x, scratch).real
    np.matmul(w12, big_q, out=scratch)
    t3 += 4 * np.vdot(x, scratch).real
    del x, scratch
    w22 = adjoint(b) @ b
    del b
    scratch = big_q @ big_q
    w22 += scratch
    np.multiply(a, big_q, out=scratch)
    t3 -= np.vdot(w22, scratch).real
    del big_q
    t2 += a[:, 0] @ (w11.real.diagonal() - w22.real.diagonal())
    s4_4 = float(np.vdot(w11, w11).real + 2 * np.vdot(w12, w12).real
                 + np.vdot(w22, w22).real)
    square = w11 @ w11
    np.matmul(w12, adjoint(w12), out=scratch)
    square += scratch
    s8_8 = np.vdot(square, square).real
    np.matmul(w11, w12, out=square)
    np.matmul(w12, w22, out=scratch)
    square += scratch
    s8_8 += 2 * np.vdot(square, square).real
    np.matmul(adjoint(w12), w12, out=square)
    np.matmul(w22, w22, out=scratch)
    square += scratch
    s8_8 += np.vdot(square, square).real
    s8 = float(s8_8) ** 0.125
    if s8 >= SIGN7_ROUTE_S8:
        return None
    error = _sign7_error(s4_4, s8, n)
    value = cubic + 3 * float(t2) - 10 * float(t3)
    return _Certified("sign7", value, s8, error) if error < 0.5 else None


def _sign7_error(s4_4: float, s8: float, n: int) -> float:
    # The certified bound on |tr p_7(X) / 2 - k| from S_4^4 and S_8 of e^2 - e
    # computed at order n (see the module docstring): with delta = S_8 + b,
    #   1/2 sqrt(1 + 4 delta) (35/128) 256 S_4^4 / (1 - 4 delta) + b,
    # b = c n^2 eps, c = SIGN7_ROUNDING_C, the rounding budget of S_8 and of
    # the trace value.  Each is a sum of at most (2n)^2 terms, products of
    # e's blocks in v's eigenbasis whose moduli sum to O(1) per row, so its
    # rounding error is a small multiple of n^2 eps, and c = 100 is generous;
    # v's computed eigenbasis is orthonormal to O(n eps), which moves e's
    # eigenvalues by as little, far inside the gap 2 sqrt(1/4 - S_8) >= 0.7
    # the route requires.  b = 5.8e-9 at n = 512.
    budget = SIGN7_ROUNDING_C * n * n * float(np.finfo(float).eps)
    delta = s8 + budget
    return 35 * math.sqrt(1 + 4 * delta) * s4_4 / (1 - 4 * delta) + budget


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

    One eigensystem of v serves the three routes (see the module docstring).
    Where F = ||e^2 - e||_F < :data:`TRACE_ROUTE_F`, k = round(-tr X^3 / 4)
    is read off v's eigenbasis: ``route`` is ``"trace"``, ``e_defect`` is F
    and ``spectral_gap`` is 2 sqrt(1/4 - F), a lower bound on the gap of e's
    spectrum around 1/2.  Otherwise, where the Schatten 8-norm S_8 of
    e^2 - e is below :data:`SIGN7_ROUTE_S8` and certifies the degree-7 sign
    polynomial, k = round(tr p_7(X) / 2), also read off v's eigenbasis:
    ``route`` is ``"sign7"``, ``e_defect`` is S_8 and ``spectral_gap`` is
    2 sqrt(1/4 - S_8).  Otherwise e is assembled and :func:`push_k_class`
    counts its spectrum under :func:`defect_gate`: ``route`` is
    ``"spectrum"``, and ``e_defect`` (the operator norm of e^2 - e) and
    ``spectral_gap`` are those of :func:`bott_almost_projection`, bit for
    bit.  v's eigensystem and the other routes' temporaries are freed
    before e is allocated.

    ``commutator`` is [u, v] = u v u* v* where the caller has formed it
    already (with ``commutator_product``, so the same bits); its cached
    ||[u, v] - 1|| is then the reported ``commutator_defect``.
    """
    tol = tolerances
    _check_pair(u, v)
    es = unitary_eig(v, tol.cluster_width)
    certified = _eigenbasis_class(u, es)
    if certified is not None:
        del es
        k, route, e_defect = round(certified.value), certified.route, certified.e_defect
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
