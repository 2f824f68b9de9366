"""Dense complex-matrix kernel.

Validation, determinants, operator norms, Hermitian and unitary
eigendecompositions, the principal logarithm of a unitary, spectral
projections, and the matrix JSON format.  Everything downstream (invariants,
Bott machinery, word evaluation) is built on these primitives.

Products are left folds from the first factor (:func:`product`,
:func:`commutator_product`), so none starts from the identity, and every
distance ||x - 1|| is :func:`identity_defect`.

Numerics are delegated to LAPACK through numpy: determinants via LU with
partial pivoting (`getrf`), Hermitian eigenproblems via `eigh`.  Unitary
matrices are diagonalized through their commuting Cartesian parts
H = (w + w*)/2 and K = (w - w*)/2i rather than a general nonsymmetric
solver, which keeps the eigenbasis orthonormal by construction and the
procedure deterministic; see :func:`unitary_eig`.  Its Rayleigh quotients
v* w v come from one BLAS matmul w @ V and a column sum.  Eigenvectors keep
the phases LAPACK gives them: every consumer (:meth:`EigenSystem.apply`,
spectral projectors, Rayleigh quotients) is unchanged by a column phase.

The unitarity gate of :meth:`Unitary.of` and the self-adjointness gate of
:func:`herm_eig` are Frobenius-first: the Frobenius norm is an O(n^2) upper
bound on the operator norm, so the eigensolve of :func:`op_norm` runs only
when that bound exceeds the tolerance, and a refusal still reports the exact
operator-norm defect.  A NaN or overflowed defect matrix is refused with
an infinite defect, and without numpy's overflow warnings: each gate forms
and measures its defect matrix under ``np.errstate(over="ignore",
invalid="ignore")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULTS
from .errors import (
    BranchCut,
    DimensionMismatch,
    FormatError,
    NoSpectralGap,
    NotHermitian,
    NotUnitary,
)

__all__ = [
    "Unitary",
    "EigenSystem",
    "as_cmatrix",
    "adjoint",
    "lu_det",
    "op_norm",
    "identity_defect",
    "product",
    "commutator_product",
    "herm_eig",
    "unitary_eig",
    "principal_log_unitary",
    "branch_distance",
    "exp_skew",
    "spectral_projection",
    "matrix_to_json",
    "matrix_from_json",
]


def as_cmatrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"matrix entries must be numbers: {exc}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch("expected a square matrix", shape=tuple(a.shape))
    if not np.isfinite(a).all():
        raise FormatError("matrix entries must be finite")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def lu_det(m) -> complex:
    """Determinant via LU with partial pivoting."""
    return complex(np.linalg.det(as_cmatrix(m)))


def op_norm(m) -> float:
    """Operator norm: sqrt of the top eigenvalue of m* m."""
    a = as_cmatrix(m)
    top = np.linalg.eigvalsh(adjoint(a) @ a)[-1]
    return math.sqrt(max(float(top), 0.0))


def identity_defect(m: np.ndarray) -> float:
    """||m - 1||_op, the distance of a square array from the identity.

    m's name is rebound to m - 1, so an array passed as a temporary is
    freed before op_norm's Gram product is formed."""
    m = m - np.eye(len(m))
    return op_norm(m)


def product(factors, n: int) -> np.ndarray:
    """Left-to-right product of n x n arrays, folded lazily from the first
    factor; the identity only when there are no factors.  A plain loop, not
    ``functools.reduce``, which keeps the last two operands alive while the
    next factor is formed."""
    factors = iter(factors)
    acc = next(factors, None)
    if acc is None:
        return np.eye(n, dtype=np.complex128)
    for factor in factors:
        acc = acc @ factor
    return acc


def commutator_product(pairs, n: int) -> np.ndarray:
    """prod_i u_i v_i u_i* v_i* over n x n arrays (u_i, v_i), left to right.

    Each adjoint is formed as the fold reaches it, so at most one is alive."""
    return product(_commutator_factors(pairs), n)


def _commutator_factors(pairs):
    for u, v in pairs:
        yield u
        yield v
        yield adjoint(u)
        yield adjoint(v)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + adjoint(m)) / 2


def _gate(defect_matrix: np.ndarray, tol: float, error, message: str) -> None:
    # Refuse when ||defect_matrix||_op > tol.  The Frobenius norm is an O(n^2)
    # upper bound on the operator norm, so the eigensolve of op_norm runs only
    # when that bound exceeds tol, and a refusal reports the exact defect.
    # `not <=` refuses a NaN norm too.  A NaN or inf entry (an overflowed
    # product) is an infinite defect, and from 1e150 on the matrix is scaled
    # by its largest entry so that op_norm's Gram product cannot overflow.
    if not np.linalg.norm(defect_matrix) <= tol:
        top = float(np.abs(defect_matrix).max())
        if top < 1e150:
            defect = op_norm(defect_matrix)
        else:
            defect = top * op_norm(defect_matrix / top) if math.isfinite(top) else math.inf
        if not defect <= tol:
            raise error(message, defect=defect, tol=tol)


@dataclass(frozen=True)
class Unitary:
    """A square complex128 matrix that is unitary up to a checked defect.

    Unitarity is checked once, where a matrix enters qrep: :meth:`of`
    validates ``||m* m - 1||_op <= tol`` (a file load passes
    ``tolerances.unitarity``).  It first takes the Frobenius norm of
    m* m - 1, an O(n^2) upper bound on the operator norm, and runs the
    eigensolve of :func:`op_norm` only when that bound exceeds ``tol``, so
    a refusal still reports the exact operator-norm ``defect``.  Products,
    adjoints and powers of checked unitaries are wrapped as ``Unitary(m)``
    without a second check: their defect is bounded by their factors', since
    (ab)*(ab) - 1 = b*(a*a - 1)b + (b*b - 1) gives
    d_ab <= d_a (1 + d_b) + d_b.  Treat ``m`` as immutable: :attr:`det` and
    :attr:`distance_from_one` are cached, each taken at most once.
    """

    m: np.ndarray

    @classmethod
    def of(cls, m, tol: float = DEFAULTS.unitarity) -> "Unitary":
        a = as_cmatrix(m)
        with np.errstate(over="ignore", invalid="ignore"):
            _gate(adjoint(a) @ a - np.eye(a.shape[0]), tol,
                  NotUnitary, "unitarity defect above tolerance")
        return cls(a)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @cached_property
    def det(self) -> complex:
        return lu_det(self.m)

    @cached_property
    def distance_from_one(self) -> float:
        return identity_defect(self.m)

    def adjoint(self) -> "Unitary":
        return Unitary(self.m.conj().T)

    def __matmul__(self, other: "Unitary") -> "Unitary":
        if not isinstance(other, Unitary):
            return NotImplemented
        if other.dim != self.dim:
            raise DimensionMismatch("product of unitaries of different sizes",
                                    left=self.dim, right=other.dim)
        return Unitary(self.m @ other.m)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues plus an orthonormal eigenbasis (columns of ``vectors``)."""

    values: np.ndarray
    vectors: np.ndarray

    def apply(self, scalar_fn) -> np.ndarray:
        """Functional calculus: scalar_fn maps the eigenvalue array pointwise."""
        return (self.vectors * scalar_fn(self.values)) @ adjoint(self.vectors)


def herm_eig(h, tol: float = 1e-8) -> EigenSystem:
    """Eigendecomposition of a self-adjoint matrix, values real ascending.

    Refuses ``||h - h*||_op > tol`` with :class:`NotHermitian`, gated
    Frobenius-first like :meth:`Unitary.of`.
    """
    a = as_cmatrix(h)
    with np.errstate(over="ignore", invalid="ignore"):
        _gate(a - adjoint(a), tol, NotHermitian, "self-adjointness defect above tolerance")
    return EigenSystem(*np.linalg.eigh(_hermitize(a)))


def unitary_eig(w: Unitary, cluster_width: float = DEFAULTS.cluster_width) -> EigenSystem:
    """Eigendecomposition of a unitary via its commuting Cartesian parts.

    For unitary w the Hermitian matrices H = (w + w*)/2 and K = (w - w*)/2i
    commute, and w = H + iK.  Diagonalizing H alone misreads eigenvectors
    whenever two eigenvalues of w share a real part (e.g. conjugate phases
    e^{i t} and e^{-i t}), so eigenvalues of H are grouped into clusters of
    width ``cluster_width`` and K is compressed to each cluster's eigenspace
    and diagonalized there.  The result is ordered by ascending real part,
    ties broken by ascending imaginary part.  Eigenvectors are as LAPACK
    returns them: no result reads the phase of a single column.
    """
    a = w.m
    h_vals, vectors = np.linalg.eigh(_hermitize(a))
    k = a - adjoint(a)
    k /= 2j
    # split at gaps wider than cluster_width; a singleton cluster's vector is
    # already an eigenvector of w
    stops = (np.flatnonzero(np.diff(h_vals) > cluster_width) + 1).tolist()
    for start, stop in zip([0, *stops], [*stops, len(h_vals)]):
        if stop - start > 1:
            basis = vectors[:, start:stop]
            _, refine = np.linalg.eigh(_hermitize(adjoint(basis) @ k @ basis))
            vectors[:, start:stop] = basis @ refine
    del k
    # Rayleigh quotients v* a v, column by column after one BLAS matmul: exact
    # eigenvalues for exact invariant lines, and the right reporting choice
    # either way.  k lives only while the clusters are refined, and the
    # quotients are multiplied in place, to keep the n x n temporaries few.
    rayleigh = a @ vectors
    np.multiply(vectors.conj(), rayleigh, out=rayleigh)
    return EigenSystem(np.sum(rayleigh, axis=0), vectors)


def principal_log_unitary(w: Unitary,
                          margin: float = DEFAULTS.branch_margin,
                          cluster_width: float = DEFAULTS.cluster_width) -> np.ndarray:
    """Principal logarithm of a unitary: skew-Hermitian L with exp(L) = w.

    Eigenvalue phases are taken in (-pi, pi); any eigenvalue within
    ``margin`` of -1 makes the branch choice meaningless and raises
    :class:`BranchCut`.
    """
    log = _log_eigensystem(w, margin, cluster_width).apply(lambda theta: 1j * theta)
    return (log - adjoint(log)) / 2


def _log_eigensystem(w: Unitary, margin: float, cluster_width: float) -> EigenSystem:
    # -i log w as an eigensystem: w's eigenvectors, its principal phases.
    es = unitary_eig(w, cluster_width)
    branch_distance(es.values, margin,
                    "eigenvalue too close to -1 for the principal logarithm")
    return EigenSystem(np.angle(es.values), es.vectors)


def branch_distance(values: np.ndarray, margin: float, message: str) -> float:
    """Distance from the eigenvalues of a unitary to -1, the branch point.

    A distance within ``margin`` raises :class:`BranchCut` with ``message``
    and the details ``distance``, ``margin`` and the nearest ``eigenvalue``.
    """
    dist = np.abs(values + 1.0)
    worst = int(np.argmin(dist))
    if dist[worst] <= margin:
        raise BranchCut(message, distance=float(dist[worst]), margin=margin,
                        eigenvalue=complex(values[worst]))
    return float(dist[worst])


def exp_skew(l) -> Unitary:
    """Exponential of a skew-Hermitian matrix, returned as a Unitary.

    Computed by Hermitian eigendecomposition of -iL, so the result is
    unitary to working precision by construction.
    """
    a = as_cmatrix(l)
    es = herm_eig(-1j * a)
    return Unitary(es.apply(lambda vals: np.exp(1j * vals)))


def spectral_projection(e,
                        threshold: float = 0.5,
                        gap: float = 0.1) -> tuple[np.ndarray, int]:
    """Spectral projection of a self-adjoint matrix above a threshold.

    Requires the spectrum to clear the band (threshold - gap, threshold + gap);
    an eigenvalue inside the band means the projection is not stable at this
    precision and raises :class:`NoSpectralGap`.  Returns (p, rank).  (The
    Bott class needs no band: ``bott.defect_gate`` keeps e off 1/2.)
    """
    es = herm_eig(e)
    inside = np.abs(es.values - threshold) < gap
    if inside.any():
        raise NoSpectralGap("eigenvalue inside the forbidden band",
                            eigenvalue=float(es.values[inside][0]),
                            threshold=threshold, gap=gap)
    above = es.vectors[:, es.values > threshold]
    p = above @ adjoint(above)
    return _hermitize(p), above.shape[1]


# -- matrix JSON --------------------------------------------------------------
#
# {"dim": n, "re": [n*n reals], "im": [n*n reals]}, row-major.  Python's json
# module prints doubles with repr (shortest round-trip form), so write->read
# is bit-exact for finite values; non-finite values are rejected outright.

def matrix_to_json(m) -> dict:
    a = as_cmatrix(m)
    return {
        "dim": int(a.shape[0]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"dim", "re", "im"} <= set(obj):
        raise FormatError("matrix object must have keys dim, re, im")
    n = obj["dim"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise FormatError("matrix dim must be an integer", dim=n)
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed matrix object: {exc}") from None
    if n < 1 or re.shape != (n * n,) or im.shape != (n * n,):
        raise FormatError("matrix entry count does not match dim",
                          dim=n, re_len=int(re.size), im_len=int(im.size))
    # assigned part by part: re + 1j * im would read an imaginary -0.0 as
    # +0.0, and -0.0 + 0j as 0j
    m = np.empty(n * n, dtype=np.complex128)
    m.real = re
    m.imag = im
    return as_cmatrix(m.reshape(n, n))
