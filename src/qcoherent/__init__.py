"""Exact arithmetic for (q, w)-difference calculus on orthogonal polynomials.

The package builds, from the ground up: exact scalar fields and polynomial
algebra, the Hahn difference calculus, truncated moment functionals with
their induced difference and shift operators, two master families of
q-orthogonal polynomials with the classical families as reductions, the
coherence-pair machinery with its determinant systems, and the constructive
classification of self-coherent sequences.  Every identity is checked with
exact equality; there is no floating point anywhere.

The names below are the public API; everything else is imported from its
module (``qcoherent.algebra``, ``qcoherent.qcalc``, ...).
"""

from .algebra import Poly
from .classify import ClassificationTrace, classify_self_coherent
from .coherence import CoherencePair
from .families import (
    CoherenceConfig,
    FamilySpec,
    TTRRCoeffs,
    check_reduction,
    classical,
    l_coeffs_symmetric,
    moments_from_ttrr,
    structure_coeffs,
)
from .functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    VerifyReport,
    functional_diff,
    left_mult,
    pearson_check,
)
from .qcalc import QParams, hahn_diff, hahn_power, shift, shift_power

__all__ = [
    "ClassificationTrace",
    "CoherenceConfig",
    "CoherencePair",
    "FamilySpec",
    "MomentFunctional",
    "Poly",
    "QParams",
    "SemiclassicalWitness",
    "TTRRCoeffs",
    "VerifyReport",
    "check_reduction",
    "classical",
    "classify_self_coherent",
    "functional_diff",
    "hahn_diff",
    "hahn_power",
    "l_coeffs_symmetric",
    "left_mult",
    "moments_from_ttrr",
    "pearson_check",
    "shift",
    "shift_power",
    "structure_coeffs",
]
