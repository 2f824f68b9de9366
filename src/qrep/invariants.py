"""Scalar invariants of almost-commuting unitary data.

* :func:`kappa` — the trace-logarithm invariant (1/2pi i) tr(log w), an
  integer whenever det(w) = 1, in its standard and normalized-trace forms.
* :func:`winding_number_det_segment` — the winding number of the loop
  t -> det((1-t) 1 + t w), computed from determinants by argument tracking
  on a grid that a lower bound on sigma_min of the path makes certain (or,
  where the bound allows no small grid, by adaptive bisection).  This is the
  cross-check for kappa: the two must agree and share no machinery (the
  winding code takes norms and singular values, never an eigenvalue of w).
* :func:`exel_homotopy_gap` — the maximal deviation between the linear
  segment (1-t) 1 + t w and the one-parameter group exp(t log w), in closed
  form 2 sin^2(max |theta| / 4) over the eigenphases of w (the maximum sits
  at t = 1/2); the identity wn = kappa rests on this staying below 1.
* :func:`kazhdan_stability` — the quantitative stability experiment for
  products of commutators: small hypothesis norms force the invariant of
  the perturbed tuple to match, witnessed along an explicit homotopy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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
    adjoint,
    branch_distance,
    commutator_product,
    identity_defect,
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


def _polar_sigma_min_bound(m: np.ndarray) -> float:
    # sigma_min(1 + w)/2 - 1.5 ||w* w - 1||_F <= sigma_min(1 + t(w - 1)) on [0, 1]
    eye = np.eye(len(m))
    return float(np.linalg.svd(m + eye, compute_uv=False)[-1] / 2
                 - 1.5 * np.linalg.norm(adjoint(m) @ m - eye))


def winding_number_det_segment(w: Unitary,
                               *,
                               tolerances: Tolerances = DEFAULTS) -> InvariantReport:
    """Winding number of t -> det((1-t) 1 + t w) around 0, by determinants only.

    The loop starts and ends at 1 (hence the |det(w) - 1| <= loop_closure
    gate).  Before sampling, a lower bound s <= sigma_min(1 + t(w - 1)) on
    [0, 1] is taken, and from it a bound on the phase rate: d/dt log det p(t)
    is Tr(p(t)^-1 (w - 1)), and |Tr(AB)| <= ||A|| ||B||_* with
    ||B||_* <= sqrt(n) ||B||_F gives |d/dt arg det p(t)| <= L =
    sqrt(n) ||w - 1||_F / s.

    * s is Weyl's 1 - ||w - 1||, a bound where ||w - 1|| < 1.  Only where
      that s certifies no grid (below) is s the larger of it and
      sigma_min(1 + w)/2 - 1.5 ||w* w - 1||_F (exact for unitary w, where
      the minimum over t falls at t = 1/2; the second term covers w = U + E
      with U its polar factor and ||E|| <= ||w* w - 1||).
    * If N = ceil(2L/pi) intervals fit in ``winding_samples``, the argument
      is summed over N uniform intervals: every true increment is at most
      pi/2, so no turn can be missed and nothing is bisected (``certified``).
    * Otherwise the argument is accumulated over ``winding_samples``
      intervals, adaptively bisected: an interval is split while its
      increment exceeds pi/2, with the stricter cap pi/16 wherever |det|
      dips below 0.1x the largest magnitude seen.  An increment still
      ambiguous at depth ``winding_max_depth`` raises :class:`PathSingular`.

    ``path_floor`` is a floor on s: unless s > ``path_floor`` the path counts
    as singular and :class:`PathSingular` carries ``sigma_min_bound``.  So
    does a sampled determinant that is 0 or not finite.  t = 0 is not
    evaluated (its determinant is exactly 1), and t = 1 is ``w.det``, shared
    with :func:`kappa` of the same ``Unitary`` like ``w.distance_from_one``;
    ``det_evaluations`` counts the determinants taken at interior points.

    Deliberately independent of :func:`kappa`: no eigenvalues of w are used.
    s and L come from norms and singular values, which are moduli, not
    eigenvalues, so the certificate takes nothing from kappa's spectrum.
    """
    tol = tolerances
    m = w.m
    n = w.dim
    det_w = w.det
    det_dev = abs(det_w - 1.0)
    if det_dev > tol.loop_closure:
        raise NotALoop("det(w) is not 1; the determinant path is not a loop",
                       deviation=det_dev, tol=tol.loop_closure)
    root_n_fro = math.sqrt(n) * float(np.linalg.norm(m - np.eye(n)))

    def intervals(s: float) -> float:
        # the intervals over which the phase turns by at most pi/2
        return 2.0 * root_n_fro / s / math.pi if s > tol.path_floor else math.inf

    s = 1.0 - w.distance_from_one  # Weyl: sigma_min(1 + t(w - 1)) >= 1 - t ||w - 1||
    needed = intervals(s)
    if needed > tol.winding_samples:
        s = max(s, _polar_sigma_min_bound(m))
        needed = intervals(s)
    certified = needed <= tol.winding_samples
    if not (certified or s > tol.path_floor):
        raise PathSingular("segment path may be singular: sigma_min bound at or "
                           "below path_floor",
                           sigma_min_bound=s, path_floor=tol.path_floor)
    samples = max(1, math.ceil(needed)) if certified else tol.winding_samples
    rate = root_n_fro / s
    state = {"runmax": max(1.0, abs(det_w)), "minabs": min(1.0, abs(det_w)), "evals": 0}

    def pencil(t: float) -> complex:
        # (1 - t) 1 + t m built in place: the same bits, no n x n temporaries
        p = t * m
        p.flat[::n + 1] += 1.0 - t
        d = lu_det(p)
        a = abs(d)
        state["runmax"] = max(state["runmax"], a)
        state["minabs"] = min(state["minabs"], a)
        state["evals"] += 1
        if not 0.0 < a < math.inf:
            raise PathSingular("determinant vanishes along the segment path",
                               t=t, abs_det=a, sigma_min_bound=s)
        return d

    def track(t0, d0, t1, d1, depth) -> float:
        step = np.angle(d1 / d0)
        dipped = not certified and min(abs(d0), abs(d1)) < 0.1 * state["runmax"]
        cap = math.pi / 16 if dipped else math.pi / 2
        if abs(step) <= cap:
            return step
        if depth >= tol.winding_max_depth:
            raise PathSingular("argument increment unresolvable at depth cap",
                               t0=t0, t1=t1, increment=float(step), depth=depth,
                               sigma_min_bound=s)
        tm = 0.5 * (t0 + t1)
        dm = pencil(tm)
        return track(t0, d0, tm, dm, depth + 1) + track(tm, dm, t1, d1, depth + 1)

    ts = np.linspace(0.0, 1.0, samples + 1)
    ds = [1.0 + 0.0j] + [pencil(float(t)) for t in ts[1:-1]] + [det_w]
    total = 0.0
    for i in range(samples):
        total += track(float(ts[i]), ds[i], float(ts[i + 1]), ds[i + 1], 0)
    del track  # it refers to itself: a cycle that would keep m alive until a full gc
    value = total / _TWO_PI
    rounded, is_integer = _integrality(value, True, tol.integer_residual)
    return InvariantReport(
        name="winding_number",
        value=value,
        rounded=rounded,
        is_integer=is_integer,
        defect_data={
            "det_deviation": det_dev,
            "min_abs_det_sampled": state["minabs"],
            "max_abs_det_sampled": state["runmax"],
            "det_evaluations": float(state["evals"]),
            "certified": certified,
            "sigma_min_bound": s,
            "phase_rate_bound": rate,
        },
        tolerances=tol.subset("loop_closure", "path_floor", "integer_residual",
                              "winding_samples", "winding_max_depth"),
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
    """Outcome of the commutator-product stability experiment."""

    genus: int
    dim: int
    bound: float                    # 1/(5 g): the hypothesis budget
    relator_defect: float           # ||prod [u_i, v_i] - 1|| for the base tuple
    relator_defect_alt: float       # same for the perturbed tuple
    max_generator_distance: float   # max over i of ||u_i - u'_i||, ||v_i - v'_i||
    homotopy_max_deviation: float   # max sampled ||w(t) - 1|| along the homotopy
    homotopy_ok: bool               # deviation stayed < 1 at every sample
    samples: int
    kappa_start: InvariantReport
    kappa_end: InvariantReport
    equal: bool

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
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
    invariant cannot jump; the report carries the maximum of ||w(t) - 1||
    over ``stability_samples`` values of t plus both endpoint invariants.

    Raises :class:`HypothesisViolated` naming the first bound that fails.
    """
    tol = tolerances
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
    max_dist = 0.0
    for i, ((u, v), (u2, v2)) in enumerate(zip(pairs, pairs_alt), start=1):
        for label, a, b in (("u", u, u2), ("v", v, v2)):
            d = op_norm(a.m - b.m)
            max_dist = max(max_dist, d)
            if d >= bound:
                raise HypothesisViolated("generator perturbation too large",
                                         which=f"{label}_{i}", value=d, bound=bound)

    # Eigendata of the homotopy generators -i log(u_i* u_i'): u_i* u_i' is unitary
    # and close to 1, so its principal log exists with room to spare.
    arcs = [(_log_eigensystem(u.adjoint() @ u2, tol.branch_margin, tol.cluster_width),
             _log_eigensystem(v.adjoint() @ v2, tol.branch_margin, tol.cluster_width))
            for (u, v), (u2, v2) in zip(pairs, pairs_alt)]

    worst = 0.0
    for t in np.linspace(0.0, 1.0, tol.stability_samples):
        moved = [(u.m @ eu.apply(lambda vals: np.exp(1j * t * vals)),
                  v.m @ ev.apply(lambda vals: np.exp(1j * t * vals)))
                 for (u, v), (eu, ev) in zip(pairs, arcs)]
        worst = max(worst, identity_defect(commutator_product(moved, n)))

    w1 = Unitary(commutator_product([(u.m, v.m) for u, v in pairs_alt], n))
    kappa_start = kappa(w0, tolerances=tol)
    kappa_end = kappa(w1, tolerances=tol)
    equal = (kappa_start.is_integer and kappa_end.is_integer
             and kappa_start.rounded == kappa_end.rounded)
    return StabilityReport(
        genus=g,
        dim=n,
        bound=bound,
        relator_defect=w0.distance_from_one,
        relator_defect_alt=w1.distance_from_one,
        max_generator_distance=max_dist,
        homotopy_max_deviation=worst,
        homotopy_ok=worst < 1.0,
        samples=tol.stability_samples,
        kappa_start=kappa_start,
        kappa_end=kappa_end,
        equal=equal,
    )
