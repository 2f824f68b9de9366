"""Invariants of almost-commuting unitaries and group quasi-representations.

The library computes and cross-validates three independent routes to the
same integer obstruction for a pair (or tuple) of nearly commuting
unitaries: the trace-logarithm invariant, the winding number of a
determinant loop, and the rank class of a Bott-type almost-projection.
It also bundles the word/presentation bookkeeping needed to talk about
quasi-representations of surface-like groups, a stability experiment for
perturbations of commutator products, and a CLI (``qrep``) for running the
standard verifications.
"""

from .config import DEFAULTS, Tolerances
from .errors import (
    BranchCut,
    DefectTooLarge,
    DimensionMismatch,
    FormatError,
    HypothesisViolated,
    InputError,
    NoSpectralGap,
    NotALoop,
    NotHermitian,
    NotUnitary,
    NumericalError,
    PathSingular,
    PresentationMismatch,
    QrepError,
    RadiusTooLarge,
    StrategyUndefined,
    UnboundGenerator,
    WordSyntaxError,
)
from .matcore import (
    EigenSystem,
    Unitary,
    adjoint,
    as_cmatrix,
    exp_skew,
    herm_eig,
    lu_det,
    matrix_from_json,
    matrix_to_json,
    op_norm,
    principal_log_unitary,
    spectral_projection,
    unitary_eig,
)
from .words import (
    EMPTY_WORD,
    CommutatorDatum,
    FreeWord,
    MultDefect,
    Presentation,
    PullbackThrough,
    QuasiRep,
    WordProduct,
    Z2NormalForm,
    abelianize,
    commutator,
    evaluate,
    mult_defect,
    parse_word,
    qrep_from_json,
    qrep_to_json,
    relator_defect,
    render,
)
from .invariants import (
    InvariantReport,
    StabilityReport,
    exel_homotopy_gap,
    kappa,
    kazhdan_stability,
    winding_number_det_segment,
)
from .examples import (
    PerturbationSpec,
    direct_sum,
    perturb,
    perturbed_copy,
    pullback,
    random_unitary,
    voiculescu_pair,
    voiculescu_qrep,
)
from .bott import (
    AlmostProjection,
    IndexFormulaReport,
    bott_almost_projection,
    defect_gate,
    k_invariant,
    push_k_class,
    verify_index_formula,
)

__version__ = "0.1.0"
