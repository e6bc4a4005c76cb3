"""Exact arithmetic for (q, w)-difference calculus on orthogonal polynomials.

The package builds, from the ground up: exact scalar fields and polynomial
algebra, the Hahn difference calculus, truncated moment functionals with
their induced difference and shift operators, two master families of
q-orthogonal polynomials with the classical families as reductions, the
coherence-pair machinery with its determinant systems, and the constructive
classification of self-coherent sequences.  Every identity is checked with
exact equality; there is no floating point anywhere.
"""

from .algebra import (
    Poly,
    RatFunc,
    affine_substitute,
    rat,
    rat_str,
)
from .classify import (
    ClassificationTrace,
    classify_self_coherent,
    pearson_ttrr,
)
from .coherence import CoherenceConfig, CoherencePair
from .families import (
    FamilySpec,
    TTRRCoeffs,
    check_reduction,
    classical,
    j_coeffs,
    l_coeffs,
    moments_from_ttrr,
    squared_norms,
    structure_coeffs,
    ttrr_generate,
)
from .functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    VerifyReport,
    act,
    dual_basis_functional,
    functional_diff,
    functional_shift,
    hankel_regular,
    left_mult,
    pearson_check,
)
from .qcalc import (
    QParams,
    hahn_diff,
    hahn_power,
    normalized_derivative,
    phi_hat,
    q_binom,
    q_bracket,
    q_factorial,
    shift,
    shift_power,
)

__all__ = [
    "ClassificationTrace",
    "CoherenceConfig",
    "CoherencePair",
    "FamilySpec",
    "MomentFunctional",
    "Poly",
    "QParams",
    "RatFunc",
    "SemiclassicalWitness",
    "TTRRCoeffs",
    "VerifyReport",
    "act",
    "affine_substitute",
    "check_reduction",
    "classical",
    "classify_self_coherent",
    "dual_basis_functional",
    "functional_diff",
    "functional_shift",
    "hahn_diff",
    "hahn_power",
    "hankel_regular",
    "j_coeffs",
    "l_coeffs",
    "left_mult",
    "moments_from_ttrr",
    "normalized_derivative",
    "pearson_check",
    "pearson_ttrr",
    "phi_hat",
    "q_binom",
    "q_bracket",
    "q_factorial",
    "rat",
    "rat_str",
    "shift",
    "shift_power",
    "squared_norms",
    "structure_coeffs",
    "ttrr_generate",
]
