"""Numerical policy in one place.

Every settable tolerance lives in the
:class:`Tolerances` dataclass so that reports can record exactly the policy
under which a number was produced.  The invariant layer (``kappa``,
``winding_number_det_segment``, ``exel_homotopy_gap``,
``kazhdan_stability``, ``bott_almost_projection``, ``push_k_class``,
``k_invariant``, ``verify_index_formula``) takes one keyword-only
``tolerances`` object, reads the fields it needs and echoes them in its
report under their field names.  ``unitarity`` is checked once, where a
matrix enters qrep: every matrix read from a file (``qrep_from_json`` takes
the object too).  Products, adjoints and powers of checked unitaries are not
checked again; their defect is bounded by their factors',
d_ab <= d_a (1 + d_b) + d_b.  The ``matcore`` primitives keep scalar
parameters defaulting to ``DEFAULTS``, apart from ``herm_eig``'s fixed
1e-8 and ``spectral_projection``'s threshold 0.5 and gap 0.1.  The CLI
builds its object from ``DEFAULTS``, ``QREP_TOL_*`` variables and
``--tol-*`` flags.

Every ``Tolerances`` is checked when it is made, ``dataclasses.replace``
included: each field must be finite and >= 0, and ``defect_max`` must be
below 1/4.  Anything else would make a check vacuous (a ``defect_max`` of
1/4 lets an eigenvalue of e sit at 1/2) or fail only after the work is
done, so it raises ``InputError`` (exit 3) naming the field and its value.

Values the mathematics fixes are constants, not fields: the Bott class is
the rank of e's spectral projection above ``bott.PROJECTION_THRESHOLD`` =
1/2, which ||e^2 - e|| < ``defect_max`` keeps every eigenvalue
sqrt(1/4 - ``defect_max``) from, so no band needs a width;
``exel_homotopy_gap`` and ``kazhdan_stability``'s homotopy bound are closed
forms with no grid of t; the winding number's step route turns by at most
``invariants.STEP_PHASE`` = 1.5 < pi per step, and a loop whose certified
grid needs more than ``invariants.GRID_CAP`` = 64 intervals takes it.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    # matrix predicates
    unitarity: float = 1e-8         # max allowed ||m* m - 1||_op
    # logarithms and eigen decompositions
    branch_margin: float = 1e-6     # min allowed distance of spectrum to -1
    cluster_width: float = 1e-7     # eigenvalue clustering width (real parts)
    # almost projections
    defect_max: float = 0.125       # ||e^2 - e|| bound for a usable rank, < 1/4
    # integrality
    integer_residual: float = 1e-6  # |value - round(value)| for integer claims
    det_one: float = 1e-8           # |det(w) - 1| for integrality to apply
    # determinant path tracking
    loop_closure: float = 1e-6      # |det(w) - 1| for the path to be a loop
    path_floor: float = 1e-12       # floor on the grid's sigma_min bound and on a step

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise InputError(f"tolerance {f.name} must be finite and >= 0",
                                 field=f.name, value=value)
        # at 1/4 an eigenvalue |lambda - 1/2|^2 >= 1/4 - defect may sit at 1/2
        if self.defect_max >= 0.25:
            raise InputError("tolerance defect_max must be below 1/4",
                             field="defect_max", value=self.defect_max)

    def subset(self, *names: str) -> dict:
        """The named fields with their values, as a report echoes them."""
        return {name: getattr(self, name) for name in names}


DEFAULTS = Tolerances()

_ENV_PREFIX = "QREP_TOL_"


def from_env() -> Tolerances:
    """Return ``DEFAULTS`` with any ``QREP_TOL_<FIELD>`` overrides from the
    process environment applied.

    Field names map to upper case, e.g. ``QREP_TOL_BRANCH_MARGIN=1e-9``.
    Unknown variables with the prefix raise ``ValueError`` so typos do not
    silently do nothing; a value that is not a number raises ``InputError``
    naming the variable.
    """
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    updates = {}
    for key, raw in os.environ.items():
        if not key.startswith(_ENV_PREFIX):
            continue
        name = key[len(_ENV_PREFIX):].lower()
        if name not in fields:
            raise ValueError(f"unknown tolerance variable {key}")
        try:
            updates[name] = float(raw)
        except ValueError:
            raise InputError(f"{key} must be a number", variable=key, value=raw) from None
    return dataclasses.replace(DEFAULTS, **updates) if updates else DEFAULTS
