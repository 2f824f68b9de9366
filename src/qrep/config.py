"""Numerical policy in one place.

Every settable tolerance and sampling density lives in the
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
1e-8 and ``spectral_projection``'s threshold 0.5.  The CLI builds its object
from ``DEFAULTS``, ``QREP_TOL_*`` variables and ``--tol-*`` flags.

Every ``Tolerances`` is checked when it is made, ``dataclasses.replace``
included: each float field must be finite and >= 0, and the one integer
field, ``winding_samples``, must be >= 1.  Anything else would make a check
vacuous (no winding samples) or fail only after the work is done, so it
raises ``InputError`` (exit 3) naming the field and its value.

Values the mathematics fixes are constants, not fields: the Bott class is
the rank of e's spectral projection above ``bott.PROJECTION_THRESHOLD`` =
1/2 (as ``bott.TRACE_TOL`` and ``bott.ORIENTATION`` are constants),
``exel_homotopy_gap`` is a closed form with no grid to size, and the winding
number's step route turns by at most ``invariants.STEP_PHASE`` = 1.5 < pi
per step, a certificate with no depth to cap, and ``kazhdan_stability``
bounds its homotopy in closed form, with no grid of t.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
from dataclasses import dataclass

from .errors import InputError

# least allowed value of each integer field (every one is listed); every
# float field needs a finite value >= 0
_INT_MINIMUM = {"winding_samples": 1}


@dataclass(frozen=True)
class Tolerances:
    # matrix predicates
    unitarity: float = 1e-8         # max allowed ||m* m - 1||_op
    # logarithms and eigen decompositions
    branch_margin: float = 1e-6     # min allowed distance of spectrum to -1
    cluster_width: float = 1e-7     # eigenvalue clustering width (real parts)
    # almost projections
    projection_gap: float = 0.1     # forbidden half-band around 1/2
    defect_max: float = 0.125       # ||e^2 - e|| bound for a usable rank
    # integrality
    integer_residual: float = 1e-6  # |value - round(value)| for integer claims
    det_one: float = 1e-8           # |det(w) - 1| for integrality to apply
    # determinant path tracking
    loop_closure: float = 1e-6      # |det(w) - 1| for the path to be a loop
    path_floor: float = 1e-12       # floor on the grid's sigma_min bound and on a step
    winding_samples: int = 64       # cap on the grid; loops above it take steps

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                low = _INT_MINIMUM[f.name]
                if not (isinstance(value, numbers.Integral) and value >= low):
                    raise InputError(f"tolerance {f.name} must be an integer >= {low}",
                                     field=f.name, value=value)
            elif not (math.isfinite(value) and value >= 0):
                raise InputError(f"tolerance {f.name} must be finite and >= 0",
                                 field=f.name, value=value)

    def subset(self, *names: str) -> dict:
        """The named fields with their values, as a report echoes them."""
        return {name: getattr(self, name) for name in names}


DEFAULTS = Tolerances()

_ENV_PREFIX = "QREP_TOL_"


def from_env() -> Tolerances:
    """Return ``DEFAULTS`` with any ``QREP_TOL_<FIELD>`` overrides from the
    process environment applied.

    Field names map to upper case, e.g. ``QREP_TOL_BRANCH_MARGIN=1e-9``.
    Integer fields are parsed as integers.  Unknown variables with the
    prefix raise ``ValueError`` so typos do not silently do nothing.
    """
    fields = {f.name: f for f in dataclasses.fields(Tolerances)}
    updates = {}
    for key, raw in os.environ.items():
        if not key.startswith(_ENV_PREFIX):
            continue
        name = key[len(_ENV_PREFIX):].lower()
        if name not in fields:
            raise ValueError(f"unknown tolerance variable {key}")
        caster = int if fields[name].type == "int" else float
        updates[name] = caster(raw)
    return dataclasses.replace(DEFAULTS, **updates) if updates else DEFAULTS
