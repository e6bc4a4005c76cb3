"""Exact arithmetic for (q, w)-difference calculus on orthogonal polynomials.

The package builds, from the ground up: exact scalar fields and polynomial
algebra, the Hahn difference calculus, truncated moment functionals with
their induced difference and shift operators, two master families of
q-orthogonal polynomials with the classical families as reductions, the
coherence-pair machinery with its determinant systems, and the constructive
classification of self-coherent sequences.  Every identity is checked with
exact equality; there is no floating point anywhere.

The names of ``__all__`` are the public API, and ``import qcoherent`` loads
none of their modules: a name's module is imported on the name's first read
(PEP 562).  Everything else is imported from its module
(``qcoherent.algebra``, ``qcoherent.qcalc``, ...).
"""

from importlib import import_module

# public name -> the module that defines it
_HOME = {
    "ClassificationTrace": "classify",
    "CoherenceConfig": "families",
    "CoherencePair": "coherence",
    "FamilySpec": "families",
    "MomentFunctional": "functionals",
    "Poly": "algebra",
    "QParams": "qcalc",
    "SemiclassicalWitness": "functionals",
    "TTRRCoeffs": "families",
    "VerifyReport": "functionals",
    "check_reduction": "families",
    "classical": "families",
    "classify_self_coherent": "classify",
    "functional_diff": "functionals",
    "hahn_diff": "qcalc",
    "hahn_power": "qcalc",
    "l_coeffs_symmetric": "families",
    "left_mult": "functionals",
    "moments_from_ttrr": "families",
    "pearson_check": "functionals",
    "shift": "qcalc",
    "shift_power": "qcalc",
    "structure_coeffs": "families",
}
__all__ = list(_HOME)


def __getattr__(name):
    # the absolute name, not __name__: this file is also importable as
    # qcoherent.__init__
    if name not in _HOME:
        raise AttributeError(f"module 'qcoherent' has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f"qcoherent.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
