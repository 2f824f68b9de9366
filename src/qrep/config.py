"""Numerical policy in one place.

Every settable tolerance lives in the
:class:`Tolerances` dataclass so that reports can record exactly the policy
under which a number was produced.  The invariant layer (``kappa``,
``winding_number_det_segment``, ``exel_homotopy_gap``,
``kazhdan_stability``, ``bott_almost_projection``, ``k_invariant``,
``verify_index_formula``) takes one keyword-only ``tolerances`` object,
reads the fields it needs and echoes them in its report under their field
names.  ``unitarity`` is checked once, where a
matrix enters qrep: every matrix read from a file (``qrep_from_json`` takes
the object too).  Products, adjoints and powers of checked unitaries are not
checked again; their defect is bounded by their factors',
d_ab <= d_a (1 + d_b) + d_b.  ``det_one`` is the one test of det(w) = 1:
``kappa`` rounds, and ``winding_number_det_segment`` takes w's determinant
path for a loop, only where |det(w) - 1| <= ``det_one``, so the two never
disagree on it.  The ``matcore`` primitives keep scalar
parameters defaulting to ``DEFAULTS``, apart from ``herm_eig``'s fixed
1e-8 and ``spectral_projection``'s threshold 0.5 and gap 0.1.  The CLI
builds its object from ``DEFAULTS`` and its ``--tol-*`` flags alone.

Every ``Tolerances`` is checked when it is made, ``dataclasses.replace``
included: each field must be finite and >= 0.  Anything else would make a
check vacuous or fail only after the work is done, so it raises
``InputError`` (exit 3) naming the field and its value.

Values the mathematics fixes are constants, not fields: the Bott class is
the rank of e's spectral projection above ``bott.PROJECTION_THRESHOLD`` =
1/2, defined wherever ||e^2 - e|| < 1/4, and ``bott.defect_gate`` (n)
refuses it only where the computed defect is within rounding of 1/4, so no
band needs a width; ``k_invariant`` takes its trace route, k =
round(-tr (2e - 1)^3 / 4) with error at most 8 F^2, where the Frobenius
defect F = ||e^2 - e||_F is below ``bott.TRACE_ROUTE_F`` = 1/8, and its
sign7 route, by the degree-7 sign polynomial, where the Schatten 8-norm of
e^2 - e is below ``bott.SIGN7_ROUTE_S8`` = 1/8: each only picks the cheaper
of routes that give the same k;
``exel_homotopy_gap`` and ``kazhdan_stability``'s homotopy bound are closed
forms with no grid of t; the winding number's step route turns by at most
``invariants.STEP_PHASE`` = 1.5 < pi per step, and a loop whose certified
grid needs more than ``invariants.GRID_CAP`` = 64 intervals takes it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    # matrix predicates
    unitarity: float = 1e-8         # max allowed ||m* m - 1||_op
    # logarithms and eigen decompositions
    branch_margin: float = 1e-6     # min allowed distance of spectrum to -1
    cluster_width: float = 1e-7     # eigenvalue clustering width (real parts)
    # integrality
    integer_residual: float = 1e-6  # |value - round(value)| for integer claims
    det_one: float = 1e-6           # |det(w) - 1| for kappa to round, and for a loop
    # determinant path tracking
    path_floor: float = 1e-12       # floor on the grid's sigma_min bound and on a step

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise InputError(f"tolerance {f.name} must be finite and >= 0",
                                 field=f.name, value=value)

    def subset(self, *names: str) -> dict:
        """The named fields with their values, as a report echoes them."""
        return {name: getattr(self, name) for name in names}


DEFAULTS = Tolerances()
