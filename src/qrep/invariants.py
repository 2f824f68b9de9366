"""Scalar invariants of almost-commuting unitary data.

* :func:`kappa` — the trace-logarithm invariant (1/2pi i) tr(log w), an
  integer whenever det(w) = 1, in its standard and normalized-trace forms.
* :func:`winding_number_det_segment` — the winding number of the loop
  t -> det((1-t) 1 + t w), computed from determinants on a uniform grid
  that Weyl's bound on sigma_min of the path makes certain, or, where that
  grid would be too fine, by steps whose length a second-order bound on the
  phase certifies.  This is the cross-check for kappa: the two must agree
  and share no machinery (the winding code takes norms, traces, solves and
  determinants, never an eigenvalue of w).
* :func:`exel_homotopy_gap` — the maximal deviation between the linear
  segment (1-t) 1 + t w and the one-parameter group exp(t log w), in closed
  form 2 sin^2(max |theta| / 4) over the eigenphases of w (the maximum sits
  at t = 1/2); the identity wn = kappa rests on this staying below 1.
* :func:`kazhdan_stability` — the quantitative stability experiment for
  products of commutators: small hypothesis norms force the invariant of
  the perturbed tuple to match, certified along an explicit homotopy by a
  closed-form Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import DEFAULTS, Tolerances
from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    NotALoop,
    PathSingular,
)
from .matcore import (
    Unitary,
    _log_eigensystem,
    branch_distance,
    commutator_product,
    lu_det,
    op_norm,
    unitary_eig,
)

__all__ = [
    "InvariantReport",
    "kappa",
    "winding_number_det_segment",
    "exel_homotopy_gap",
    "StabilityReport",
    "kazhdan_stability",
]

_TWO_PI = 2.0 * math.pi

# The step route's bound on the phase turned in one step: below pi, so the
# principal argument of the step's determinant is the whole increment
STEP_PHASE = 1.5
# Most intervals of the certified grid; a loop that needs more takes steps.
# Both routes certify the same integer, so this only picks the cheaper: the
# grid costs N - 1 LU determinants, a step one solve and one determinant.
GRID_CAP = 64

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class InvariantReport:
    """A scalar invariant with its integrality verdict and error budget.

    ``rounded`` is present only when integrality is expected (e.g. det = 1
    for the standard trace); ``is_integer`` additionally demands the residual
    |value - rounded| stay within the reported tolerance.
    """

    name: str
    value: float
    rounded: int | None
    is_integer: bool
    defect_data: dict
    tolerances: dict

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["defect_data"] = dict(self.defect_data)
        obj["tolerances"] = dict(self.tolerances)
        if self.rounded is None:
            del obj["rounded"]
        return obj


def _integrality(value: float, expected: bool, integer_tol: float):
    if not expected:
        return None, False
    rounded = int(round(value))
    return rounded, abs(value - rounded) <= integer_tol


def kappa(w: Unitary,
          trace_mode: str = "standard",
          *,
          tolerances: Tolerances = DEFAULTS) -> InvariantReport:
    """Trace-logarithm invariant (1/2pi i) tr(log w) of a unitary.

    ``trace_mode`` "standard" uses the matrix trace, under which the value
    is an integer whenever det(w) = 1; "normalized" divides by the dimension
    (the tracial-state version, integer only in multiples of 1/n).  The
    spectrum must stay ``branch_margin`` away from -1 or :class:`BranchCut`
    is raised.  ``defect_data`` records ||w - 1|| and which norm domain (< 1,
    < 2) the input satisfies; the normalized form is classically stated for
    ||w - 1|| < 1 but is computed whenever the logarithm exists.
    """
    if trace_mode not in ("standard", "normalized"):
        raise ValueError(f"unknown trace_mode {trace_mode!r}")
    standard, normalized = _kappa_pair(w, tolerances)
    return standard if trace_mode == "standard" else normalized


def _kappa_pair(w: Unitary, tol: Tolerances) -> tuple[InvariantReport, InvariantReport]:
    # (kappa, kappa_tau) from one eigensystem; ||w - 1|| and det(w) are w's own
    es = unitary_eig(w, tol.cluster_width)
    nearest = branch_distance(es.values, tol.branch_margin,
                              "spectrum within margin of -1; invariant undefined")
    total = float(np.angle(es.values).sum()) / _TWO_PI
    norm_dev = w.distance_from_one
    det_dev = abs(w.det - 1.0)
    rounded, is_integer = _integrality(total, det_dev <= tol.det_one, tol.integer_residual)
    standard = InvariantReport(
        name="kappa",
        value=total,
        rounded=rounded,
        is_integer=is_integer,
        defect_data={
            "norm_w_minus_1": norm_dev,
            "min_dist_to_minus_1": nearest,
            "det_deviation": det_dev,
            "domain_lt_1": bool(norm_dev < 1.0),
            "domain_lt_2": bool(norm_dev < 2.0),
        },
        tolerances=tol.subset("branch_margin", "cluster_width",
                              "integer_residual", "det_one"),
    )
    return standard, replace(standard, name="kappa_tau", value=total / w.dim,
                             rounded=None, is_integer=False)


def _step_length(m: np.ndarray) -> float:
    # the largest h with h |Im Tr M| + (h ||M||_F)^2 / (2 (1 - h ||M||_F)) <= c:
    # the root in (0, 1/||M||_F) of the quadratic that equality gives, in a
    # form with no cancellation; M = 0 (w = 1) allows any step
    a = abs(float(np.trace(m).imag))
    f = float(np.linalg.norm(m))
    c = STEP_PHASE
    denominator = a + c * f + math.sqrt((a - c * f) ** 2 + 2.0 * c * f * f)
    return 2.0 * c / denominator if denominator else math.inf


def _winding_by_steps(d: np.ndarray, path_floor: float) -> tuple[float, dict]:
    # the step route of winding_number_det_segment; d = w - 1
    n = len(d)
    floor = max(path_floor, _EPS)
    t, total, steps, least, m = 0.0, 0.0, 0, math.inf, d
    while t < 1.0:
        if t > 0.0:
            p = t * d
            p.flat[::n + 1] += 1.0
            m = np.linalg.solve(p, d)
        step = _step_length(m)
        if not step > floor:
            raise PathSingular("segment path may be singular: certified step at "
                               "or below path_floor or machine epsilon",
                               t=t, step=step, path_floor=path_floor)
        least = min(least, step)
        h = min(step, 1.0 - t)
        q = h * m
        q.flat[::n + 1] += 1.0
        total += np.angle(lu_det(q))
        steps += 1
        t = 1.0 if h == 1.0 - t else t + h
    return total, {"det_evaluations": float(steps), "min_step": least, "route": "steps"}


def winding_number_det_segment(w: Unitary,
                               *,
                               tolerances: Tolerances = DEFAULTS) -> InvariantReport:
    """Winding number of t -> det((1-t) 1 + t w) around 0, by determinants only.

    The loop starts and ends at 1 (hence the |det(w) - 1| <= ``det_one``
    gate, the bound under which :func:`kappa` rounds).  With
    p(t) = 1 + t(w - 1), the phase rate is Im Tr(p(t)^-1 (w - 1)).
    Both routes certify their integer; ``defect_data["route"]`` names the one
    that ran.

    * "grid": Weyl's s = 1 - ||w - 1|| <= sigma_min(p(t)) and |Tr(AB)| <=
      ||A|| sqrt(n) ||B||_F bound the rate by L = sqrt(n) ||w - 1||_F / s
      (``sigma_min_bound``, ``phase_rate_bound``).  Where s > ``path_floor``
      and N = ceil(2L/pi) <= :data:`GRID_CAP`, the argument is summed over
      N uniform intervals, none turning by more than pi/2.  t = 0 is not
      evaluated and t = 1 is ``w.det``, shared with :func:`kappa`;
      ``det_evaluations`` counts the N - 1 others.  A sampled determinant
      that is 0 or not finite raises :class:`PathSingular`.
    * "steps", every other loop: at a node t, M = p(t)^-1 (w - 1) (w - 1 at
      t = 0) and p(t + tau) = p(t)(1 + tau M).  The series of
      log det(1 + tau M), with |Tr M^k| <= ||M||_F^k for k >= 2, bounds the
      phase turned on [t, t + h] by h |Im Tr M| + (h ||M||_F)^2 /
      (2 (1 - h ||M||_F)); Im Tr M is the exact rate at t, so turns of
      different directions cancel at first order.  h is the largest step
      (cut at t = 1) with that bound <= ``STEP_PHASE`` < pi, so
      np.angle(det(1 + hM)) is the exact increment, and h ||M|| < 1 keeps the
      path off 0.  det p(t), which underflows at large n, is never formed.
      A step at or below ``path_floor`` or machine epsilon (p(t) singular to
      working precision) raises :class:`PathSingular` with ``t``, ``step``
      and ``path_floor``.  ``det_evaluations`` counts the steps, and
      ``min_step`` is the shortest certified one.

    Deliberately independent of :func:`kappa`: norms, traces, solves and
    determinants only, never an eigenvalue of w.
    """
    tol = tolerances
    det_dev = abs(w.det - 1.0)
    if det_dev > tol.det_one:
        raise NotALoop("det(w) is not 1; the determinant path is not a loop",
                       deviation=det_dev, tol=tol.det_one)
    m, n = w.m, w.dim
    d = m - np.eye(n)
    root_n_fro = math.sqrt(n) * float(np.linalg.norm(d))
    s = 1.0 - w.distance_from_one  # Weyl: sigma_min(1 + t(w - 1)) >= 1 - t ||w - 1||
    needed = 2.0 * root_n_fro / s / math.pi if s > tol.path_floor else math.inf
    if needed > GRID_CAP:
        total, data = _winding_by_steps(d, tol.path_floor)
    else:
        def pencil(t: float) -> complex:
            # (1 - t) 1 + t m built in place: the same bits, no n x n temporaries
            p = t * m
            p.flat[::n + 1] += 1.0 - t
            det = lu_det(p)
            if not 0.0 < abs(det) < math.inf:
                raise PathSingular("determinant vanishes along the segment path",
                                   t=t, abs_det=abs(det), sigma_min_bound=s)
            return det

        ts = np.linspace(0.0, 1.0, max(1, math.ceil(needed)) + 1)
        ds = [1.0 + 0.0j] + [pencil(float(t)) for t in ts[1:-1]] + [w.det]
        total = sum(np.angle(d1 / d0) for d0, d1 in zip(ds, ds[1:]))
        mags = [abs(x) for x in ds]
        data = {"min_abs_det_sampled": min(mags), "max_abs_det_sampled": max(mags),
                "det_evaluations": float(len(ds) - 2), "route": "grid",
                "sigma_min_bound": s, "phase_rate_bound": root_n_fro / s}
    value = total / _TWO_PI
    rounded, is_integer = _integrality(value, True, tol.integer_residual)
    return InvariantReport(
        name="winding_number",
        value=value,
        rounded=rounded,
        is_integer=is_integer,
        defect_data={"det_deviation": det_dev, **data},
        tolerances=tol.subset("det_one", "path_floor", "integer_residual"),
    )


def exel_homotopy_gap(w: Unitary,
                      *,
                      tolerances: Tolerances = DEFAULTS) -> float:
    """Max over t in [0, 1] of ||(1-t) 1 + t w  -  exp(t log w)||, in closed
    form: 2 sin^2(max_j |theta_j| / 4) over the principal eigenphases
    theta_j of w.

    Both paths are functions of w, so in w's eigenbasis the difference is
    diagonal and its norm is the max over eigenphases theta of the scalar
    |(1-t) + t e^{i theta} - e^{i t theta}|.  That distance from the chord to
    the arc is symmetric under t -> 1 - t (multiply by e^{-i theta} and
    conjugate), so t = 1/2 is where it turns, and there it is largest
    (Exel & Loring, J. Funct. Anal. 95, 1991): |cos(theta/2) - 1| =
    2 sin^2(theta/4), increasing in |theta| on [0, pi].  A gap below 1,
    which certifies that the determinant loop of the segment is homotopic to
    the exponential path through invertibles (what ties the winding number
    to kappa), is then the same as no eigenvalue of w at -1; one within
    ``branch_margin`` of -1 raises :class:`BranchCut`.
    """
    theta = _log_eigensystem(w, tolerances.branch_margin, tolerances.cluster_width).values
    return 2.0 * math.sin(float(np.abs(theta).max()) / 4.0) ** 2


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the commutator-product stability experiment.

    ``product_alt`` is the perturbed tuple's commutator product, with the
    det and ||w - 1|| that ``kappa_end`` took cached, for callers that go on
    to other invariants of it; :meth:`to_json` leaves it out.
    """

    genus: int
    dim: int
    bound: float                    # 1/(5 g): the hypothesis budget
    relator_defect: float           # ||prod [u_i, v_i] - 1|| for the base tuple
    relator_defect_alt: float       # same for the perturbed tuple
    max_generator_distance: float   # max over i of ||u_i - u'_i||, ||v_i - v'_i||
    lipschitz: float                # L: a Lipschitz constant of ||w(t) - 1||
    homotopy_bound: float           # (relator_defect + relator_defect_alt + L) / 2
    homotopy_ok: bool               # homotopy_bound < 1: ||w(t) - 1|| < 1 for all t
    kappa_start: InvariantReport
    kappa_end: InvariantReport
    equal: bool
    product_alt: Unitary = field(repr=False, compare=False)

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "product_alt"}
        obj["kappa_start"] = self.kappa_start.to_json()
        obj["kappa_end"] = self.kappa_end.to_json()
        return obj


def kazhdan_stability(g: int,
                      pairs: list[tuple[Unitary, Unitary]],
                      pairs_alt: list[tuple[Unitary, Unitary]],
                      *,
                      tolerances: Tolerances = DEFAULTS) -> StabilityReport:
    """Stability of the trace-logarithm invariant under small perturbations.

    Hypotheses (all strict, all measured and reported): the commutator
    product of the base tuple is within 1/(5g) of 1, and each perturbed
    generator is within 1/(5g) of its original.  Under them, the straight
    homotopy u_i(t) = u_i exp(t log(u_i* u_i')) (likewise v) keeps the
    commutator product w(t) within distance 1 of the identity, so its
    invariant cannot jump (Kazhdan's budget, "On epsilon-representations",
    1982).  The report certifies this for every t in [0, 1], with no sample
    of the homotopy, and carries both endpoint invariants.

    u* u' is unitary, so ||u - u'|| = ||1 - u* u'|| = 2 sin(theta_max / 2)
    over its eigenphases, and u(t) moves at speed theta_max =
    2 arcsin(d / 2), d the generator distance the hypotheses measure.  Each
    of the 4g factors of w(t) moves at its generator's speed, so
    f(t) = ||w(t) - 1|| is Lipschitz with
    L = 4 sum_i (arcsin(d_{u_i} / 2) + arcsin(d_{v_i} / 2)) (``lipschitz``),
    and f(t) <= min(f(0) + L t, f(1) + L (1 - t)) <= (f(0) + f(1) + L) / 2
    (``homotopy_bound``), f(0) and f(1) being the two relator defects.
    ``homotopy_ok`` is ``homotopy_bound < 1``.  Under the hypotheses the
    bound is at most f(0) + L < 1/(5g) + 8g arcsin(1/(10g)) <= 1.0014.

    The bound is formed from computed norms, each within O(g n^2 eps) of
    the exact one, as every other reported norm is.  The inputs are taken
    unitary to working precision, as qrep's constructors make them; an input
    of unitarity defect d changes the speeds and the identity above by a
    relative O(d), so L could then fall short by about d L.

    Raises :class:`HypothesisViolated` naming the first bound that fails.
    """
    pairs = [tuple(p) for p in pairs]
    pairs_alt = [tuple(p) for p in pairs_alt]
    if not (len(pairs) == len(pairs_alt) == g) or g < 1:
        raise DimensionMismatch("expected g pairs in each tuple",
                                g=g, base=len(pairs), perturbed=len(pairs_alt))
    dims = {u.dim for p in pairs + pairs_alt for u in p}
    if len(dims) != 1:
        raise DimensionMismatch("tuple entries of mixed dimensions",
                                dims=sorted(dims))
    n = dims.pop()
    bound = 1.0 / (5.0 * g)

    w0 = Unitary(commutator_product([(u.m, v.m) for u, v in pairs], n))
    if w0.distance_from_one >= bound:
        raise HypothesisViolated("commutator product too far from 1",
                                 which="relator", value=w0.distance_from_one, bound=bound)
    max_dist, lipschitz = 0.0, 0.0
    for i, ((u, v), (u2, v2)) in enumerate(zip(pairs, pairs_alt), start=1):
        for label, a, b in (("u", u, u2), ("v", v, v2)):
            d = op_norm(a.m - b.m)
            max_dist = max(max_dist, d)
            if d >= bound:
                raise HypothesisViolated("generator perturbation too large",
                                         which=f"{label}_{i}", value=d, bound=bound)
            lipschitz += 4.0 * math.asin(d / 2.0)

    w1 = Unitary(commutator_product([(u.m, v.m) for u, v in pairs_alt], n))
    homotopy_bound = (w0.distance_from_one + w1.distance_from_one + lipschitz) / 2.0
    kappa_start = kappa(w0, tolerances=tolerances)
    kappa_end = kappa(w1, tolerances=tolerances)
    equal = (kappa_start.is_integer and kappa_end.is_integer
             and kappa_start.rounded == kappa_end.rounded)
    return StabilityReport(
        genus=g,
        dim=n,
        bound=bound,
        relator_defect=w0.distance_from_one,
        relator_defect_alt=w1.distance_from_one,
        max_generator_distance=max_dist,
        lipschitz=lipschitz,
        homotopy_bound=homotopy_bound,
        homotopy_ok=homotopy_bound < 1.0,
        kappa_start=kappa_start,
        kappa_end=kappa_end,
        equal=equal,
        product_alt=w1,
    )
