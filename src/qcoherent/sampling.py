"""Seeded rational parameter sampling with regularity rejection.

Randomized identity tests draw bounded-height rationals from a seeded
generator and rejection-sample against the regularity conditions of the
target family or case, so every run is reproducible from its seed and
every accepted draw is admissible.  The case labels and the draws of a
rational, a q and a polynomial load no other module of the package; the
draws of parameters and case instances import theirs when first called.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import INADMISSIBLE, QCoherentError

if TYPE_CHECKING:  # imported where they are used, when first called
    from .classify import CaseInstance
    from .coherence import CoherencePair
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
    from .qcalc import QParams

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
    from .classify import (
        case_i_instance,
        case_ii_instance,
        case_iiia_instance,
        case_iiib_bessel_instance,
        case_iiib_instance,
    )

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
                         qp: QParams | None = None, order: int = 40,
                         depth: int = 10) -> tuple[CaseInstance, CoherencePair]:
    """Draw an admissible self-coherent instance of the given case, with
    its pair of derivative orders (1, 0) and index 0: moments to ``order``
    and the structure rows that ``verify(depth)`` reads
    (:meth:`CoherencePair.self_coherent`).

    Rejects draws whose family fails its regularity conditions (an error
    in ``errors.INADMISSIBLE``) and draws whose pair's structure table is
    not banded with a non-vanishing band edge; gives up after 400 draws.
    Any other error propagates.
    """
    from .coherence import CoherencePair
    from .families import CoherenceConfig

    for _ in range(400):
        params = qp if qp is not None else sample_qparams(rng)
        try:
            inst = _draw(rng, label, params)
            pair = CoherencePair.self_coherent(
                inst.spec, CoherenceConfig(1, 0, 0, inst.pi), params,
                order, depth)
        except INADMISSIBLE:
            continue
        if pair.table.is_coherent:
            return inst, pair
    raise QCoherentError(
        f"could not sample an admissible case {label} instance")
