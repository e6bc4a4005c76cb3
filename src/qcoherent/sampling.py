"""Seeded rational parameter sampling with regularity rejection.

Randomized identity tests draw bounded-height rationals from a seeded
generator and rejection-sample against the regularity conditions of the
target family or case, so every run is reproducible from its seed and
every accepted draw is admissible.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .classify import (
    CaseInstance,
    case_i_instance,
    case_ii_instance,
    case_iiia_instance,
    case_iiib_bessel_instance,
    case_iiib_instance,
)
from .coherence import CoherenceConfig
from .errors import INADMISSIBLE, QCoherentError
from .families import structure_coeffs
from .qcalc import QParams

CASE_LABELS = ("I", "II", "IIIa", "IIIb", "IIIb-bessel", "IIIb-rzero")


def rational(rng: random.Random, num_max: int = 6, den_max: int = 4,
             nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-num_max, num_max),
                         rng.randint(1, den_max))
        if nonzero and value == 0:
            continue
        return value


def sample_q(rng: random.Random) -> Fraction:
    while True:
        q = rational(rng, num_max=5, den_max=4)
        if q not in (0, 1, -1):
            return q


def sample_qparams(rng: random.Random) -> QParams:
    omega = rational(rng, num_max=4, den_max=3)
    return QParams(sample_q(rng), omega)


def sample_poly_coeffs(rng: random.Random, max_degree: int,
                       num_max: int = 5, den_max: int = 4) -> list[Fraction]:
    degree = rng.randint(0, max_degree)
    coeffs = [rational(rng, num_max, den_max) for _ in range(degree + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return coeffs


def _draw(rng: random.Random, label: str, qp: QParams) -> CaseInstance:
    if label == "I":
        return case_i_instance(qp, rational(rng, nonzero=True),
                               rational(rng, nonzero=True))
    if label == "II":
        return case_ii_instance(qp, rational(rng), rational(rng),
                                rational(rng, nonzero=True))
    if label == "IIIa":
        return case_iiia_instance(qp, rational(rng), rational(rng),
                                  rational(rng))
    if label == "IIIb":
        return case_iiib_instance(
            qp, rational(rng, nonzero=True), rational(rng, nonzero=True),
            rational(rng, nonzero=True), rational(rng, nonzero=True))
    if label == "IIIb-rzero":
        return case_iiib_instance(
            qp, rational(rng, nonzero=True), rational(rng),
            Fraction(0), rational(rng, nonzero=True))
    if label == "IIIb-bessel":
        return case_iiib_bessel_instance(
            qp, rational(rng, nonzero=True), rational(rng, nonzero=True))
    raise QCoherentError(f"unknown case label {label!r}")


def sample_case_instance(rng: random.Random, label: str,
                         qp: QParams | None = None,
                         depth: int = 10) -> CaseInstance:
    """Draw an admissible self-coherent instance of the given case.

    Rejects draws whose family fails its regularity conditions (an error
    in ``errors.INADMISSIBLE``) and draws whose structure relation is not
    banded with a non-vanishing band edge at every row that a pair of
    order (1, 0) and index 0 built for ``depth`` holds
    (:meth:`CoherenceConfig.table_rows`); gives up after 400 draws.  Any
    other error propagates.
    """
    for _ in range(400):
        params = qp if qp is not None else sample_qparams(rng)
        try:
            inst = _draw(rng, label, params)
            config = CoherenceConfig(1, 0, 0, inst.pi)
            rows = config.table_rows(depth)
            polys = inst.spec.polynomials(rows + max(1, config.N))
            table = structure_coeffs(polys, polys, inst.pi, 1, 0, 0,
                                     params, n_max=rows)
            if not table.is_coherent:
                continue
        except INADMISSIBLE:
            continue
        return inst
    raise QCoherentError(
        f"could not sample an admissible case {label} instance")
