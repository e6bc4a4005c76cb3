"""Spans and counts around the calls into each qcoherent layer.

The tracer wraps public functions and methods of the package from outside:
it rebinds each traced function in every ``qcoherent`` module that holds
it (``hahn_power`` lives in ``qcalc`` but is also a global of
``functionals`` and ``coherence``), and replaces traced methods on their
class.  Each call records a span ``[name, parent, start, end]``; spans stay
in memory until the pass ends.  A span's self time is its duration minus
the durations of its direct child spans.

It also counts Fraction arithmetic (``+ - * / **`` and unary minus, either
operand order) by wrapping those methods of :class:`fractions.Fraction`.
Comparisons, hashing and construction are not counted.

Installing the tracer changes the running process for good; the benchmark
does it in a worker process that exits after the traced pass.
"""
from __future__ import annotations

import fractions
import importlib
import sys
import time

# (module, attribute) of every traced callable; the span name is
# "<module>.<attribute>".
TARGETS = (
    ("algebra", "affine_substitute"),
    ("algebra", "poly_gcd"),
    ("algebra", "expand_in_basis"),
    ("algebra", "det_bareiss"),
    ("algebra", "det_cofactor"),
    ("algebra", "RatFunc.__init__"),
    ("qcalc", "hahn_diff"),
    ("qcalc", "hahn_power"),
    ("qcalc", "shift"),
    ("qcalc", "shift_power"),
    ("qcalc", "normalized_derivative"),
    ("functionals", "act"),
    ("functionals", "left_mult"),
    ("functionals", "functional_diff"),
    ("functionals", "functional_diff_n"),
    ("functionals", "functional_shift"),
    ("functionals", "leibniz_expansion"),
    ("functionals", "functional_agree"),
    ("functionals", "pearson_check"),
    ("families", "ttrr_generate"),
    ("families", "l_coeffs"),
    ("families", "j_coeffs"),
    ("families", "moments_from_ttrr"),
    ("families", "structure_coeffs"),
    ("families", "check_reduction"),
    ("families", "classical"),
    ("coherence", "CoherencePair.self_coherent"),
    ("coherence", "CoherencePair.psi"),
    ("coherence", "CoherencePair.phi"),
    ("coherence", "CoherencePair.varphi"),
    ("coherence", "CoherencePair.xi"),
    ("coherence", "CoherencePair.phi_chain"),
    ("coherence", "CoherencePair.dprime"),
    ("coherence", "CoherencePair._det"),
    ("coherence", "CoherencePair.verify_functional_equation"),
    ("coherence", "CoherencePair.verify_varphi_system"),
    ("coherence", "CoherencePair.verify_xi_system"),
    ("coherence", "CoherencePair.verify_phi_chain"),
    ("coherence", "CoherencePair.kzero_psi_oracle"),
    ("coherence", "CoherencePair.kzero_phi_oracle"),
    ("classify", "classify_self_coherent"),
    ("classify", "pearson_ttrr"),
    ("sampling", "sample_case_instance"),
    ("cli", "main"),
)

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                "__rpow__", "__neg__")

TABLES = tuple(f"coherence.CoherencePair.{m}"
               for m in ("psi", "phi", "varphi", "xi", "phi_chain"))


def _incl(*names):
    return ("incl", names)


def _calls(name):
    return ("calls", name)


def _self(name):
    return ("self", name)


# Per-layer metric -> how it is computed from the spans of one pass.
# "incl" sums the spans of the group that have no ancestor in the group.
SPAN_METRICS = {
    "functionals.functional_diff.s": _incl("functionals.functional_diff"),
    "functionals.functional_diff.self_s": _self("functionals.functional_diff"),
    "functionals.functional_diff.calls": _calls("functionals.functional_diff"),
    "functionals.left_mult.s": _incl("functionals.left_mult"),
    "functionals.act.calls": _calls("functionals.act"),
    "functionals.leibniz_expansion.s": _incl("functionals.leibniz_expansion"),
    "coherence.dprime.s": _incl("coherence.CoherencePair.dprime"),
    "coherence.dprime.calls": _calls("coherence.CoherencePair.dprime"),
    "coherence.tables.s": _incl(*TABLES),
    "coherence.det.s": _incl("coherence.CoherencePair._det"),
    "algebra.det_bareiss.s": _incl("algebra.det_bareiss"),
    "algebra.det_bareiss.calls": _calls("algebra.det_bareiss"),
    "algebra.det_cofactor.s": _incl("algebra.det_cofactor"),
    "algebra.det_cofactor.calls": _calls("algebra.det_cofactor"),
    "qcalc.hahn_diff.s": _incl("qcalc.hahn_diff"),
    "qcalc.hahn_diff.self_s": _self("qcalc.hahn_diff"),
    "qcalc.hahn_diff.calls": _calls("qcalc.hahn_diff"),
    "qcalc.shift.s": _incl("qcalc.shift"),
    "algebra.affine_substitute.s": _incl("algebra.affine_substitute"),
    "algebra.affine_substitute.calls": _calls("algebra.affine_substitute"),
    "algebra.RatFunc.init.s": _incl("algebra.RatFunc.__init__"),
    "algebra.poly_gcd.calls": _calls("algebra.poly_gcd"),
    "families.ttrr_generate.s": _incl("families.ttrr_generate"),
    "families.j_coeffs.s": _incl("families.j_coeffs"),
    "families.moments_from_ttrr.s": _incl("families.moments_from_ttrr"),
    "families.structure_coeffs.s": _incl("families.structure_coeffs"),
    "families.check_reduction.s": _incl("families.check_reduction"),
    "algebra.expand_in_basis.s": _incl("algebra.expand_in_basis"),
    "classify.classify_self_coherent.s": _incl("classify.classify_self_coherent"),
    "classify.pearson_ttrr.s": _incl("classify.pearson_ttrr"),
    "sampling.sample_case_instance.s": _incl("sampling.sample_case_instance"),
    "cli.main.self_s": _self("cli.main"),
}


class Tracer:
    """In-memory spans for the traced targets, plus exact counters."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.fraction_ops = 0
        self.moments_out = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qcoherent" or name.startswith("qcoherent.")]
        for module_name, path in TARGETS:
            owner = importlib.import_module(f"qcoherent.{module_name}")
            *cls, attr = path.split(".")
            name = f"{module_name}.{path}"
            if cls:
                klass = getattr(owner, cls[0])
                raw = klass.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(klass, attr, type(raw)(self._wrap(raw.__func__, name)))
                else:
                    setattr(klass, attr, self._wrap(raw, name))
                continue
            raw = getattr(owner, attr)
            traced = self._wrap(raw, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, traced)
        for op in FRACTION_OPS:
            setattr(fractions.Fraction, op,
                    self._count(getattr(fractions.Fraction, op)))

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        moments = name == "functionals.functional_diff"

        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if moments:
                self.moments_out += len(result.moments)
            return result

        return traced

    def _count(self, op):
        def counted(*args):
            self.fraction_ops += 1
            return op(*args)
        return counted

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of :data:`SPAN_METRICS` from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        calls, self_s = {}, {}
        for name, parent, start, end in spans:
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _, start, end) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        out = {}
        for metric, (kind, arg) in SPAN_METRICS.items():
            if kind == "calls":
                out[metric] = calls.get(arg, 0)
            elif kind == "self":
                out[metric] = self_s.get(arg, 0.0)
            else:
                out[metric] = self.inclusive(set(arg))
        out["sampling.draws_per_instance"] = self.draws_per_instance(calls)
        out["functionals.functional_diff.moments_out"] = self.moments_out
        out["algebra.fraction_ops"] = self.fraction_ops
        out["trace.spans"] = len(spans)
        return out

    def inclusive(self, group: set) -> float:
        """Time inside any span of ``group``, nested spans counted once."""
        spans = self.spans
        covered = [False] * len(spans)
        total = 0.0
        for i, (name, parent, start, end) in enumerate(spans):
            inside = parent >= 0 and (covered[parent]
                                      or spans[parent][0] in group)
            covered[i] = inside
            if name in group and not inside:
                total += end - start
        return total

    def draws_per_instance(self, calls: dict) -> float:
        """Structure checks per accepted draw of ``sample_case_instance``."""
        outer = "sampling.sample_case_instance"
        accepted = calls.get(outer, 0)
        if not accepted:
            return 0.0
        checks = sum(1 for name, parent, _, _ in self.spans
                     if name == "families.structure_coeffs" and parent >= 0
                     and self.spans[parent][0] == outer)
        return checks / accepted
