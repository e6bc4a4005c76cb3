"""Names that other code reaches by string (the public API and the
benchmark tracer's targets), no name that nothing reaches, and the value
types' contract: immutable, and a MomentFunctional equal by its moments."""
import ast
import dataclasses
import importlib
import inspect
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import qcoherent
from qcoherent.algebra import Poly, RatFunc
from qcoherent.classify import case_i_instance, classify_self_coherent
from qcoherent.coherence import DeterminantSystem
from qcoherent.families import CoherenceConfig, FamilySpec, TTRRCoeffs
from qcoherent.functionals import (
    MomentFunctional,
    SemiclassicalWitness,
    VerifyReport,
)
from qcoherent.qcalc import QParams

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(qcoherent.__file__).resolve().parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"qcoherent.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_public_names_resolve():
    for name in qcoherent.__all__:
        assert getattr(qcoherent, name, None) is not None, name


def test_all_is_what_init_imports():
    # __init__ imports each public name lazily, from its home module in
    # the one table
    assert qcoherent.__all__ == list(qcoherent._HOME)
    assert qcoherent.__all__ == sorted(qcoherent.__all__)
    for name, home in qcoherent._HOME.items():
        module = importlib.import_module(f"qcoherent.{home}")
        assert getattr(qcoherent, name) is getattr(module, name), name
    assert set(qcoherent.__all__) <= set(dir(qcoherent))
    namespace = {}
    exec("from qcoherent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qcoherent.__all__)
    assert len(qcoherent.__all__) == 23
    assert not hasattr(qcoherent, "nope")


def _tracer_targets() -> tuple:
    """The tracer's (module, attribute) TARGETS.

    perfbench is not a package on the import path: read its source.
    """
    tree = ast.parse(TRACER.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets))


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module, attr in targets:
        assert callable(_resolve(module, attr)), (module, attr)


def test_no_unused_imports_in_src():
    # no linter is installed: every name a module imports must be used in
    # it (``__init__`` only re-exports)
    src = Path(qcoherent.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def _references(path: Path) -> set:
    """NAME tokens of one file, less the name a def or class line binds.

    Tokens, not text: a docstring that says "moment" is no reference.
    """
    names, previous = set(), None
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == tokenize.NAME and previous not in ("def",
                                                                 "class"):
                names.add(token.string)
            previous = token.string
    return names


def test_every_definition_is_referenced():
    # every function, class and method of the library is used somewhere:
    # by the library, its tests or the benchmark
    referenced = set()
    for folder in (SRC, ROOT / "tests", ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            referenced |= _references(path)
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")) \
                    and node.name not in referenced:
                unused.add(f"{path.name}:{node.name}")
    assert not unused, sorted(unused)


def _definitions(body, prefix=""):
    """(qualified name, node) of every function, class and method, and of
    each one defined in their bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def test_every_definition_is_reached_from_src():
    # stricter than test_every_definition_is_referenced: a reference from
    # the tests or the benchmark alone does not count.  A definition is
    # referenced from src/, is public (in __all__, or a method of a class
    # there) or is a tracer target
    referenced = set()
    for path in SRC.glob("*.py"):
        referenced |= _references(path)
    targets = {f"{module}:{attr}" for module, attr in _tracer_targets()}
    unreached = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text()).body):
            name = f"{path.stem}:{qualname}"
            if (node.name.startswith("__") and node.name.endswith("__")) \
                    or node.name in referenced \
                    or qualname.split(".")[0] in qcoherent.__all__ \
                    or name in targets:
                continue
            unreached.add(name)
    assert not unreached, sorted(unreached)


def _value_samples() -> list:
    """One instance of every value type of the library."""
    qp = QParams(Fraction(1, 2), Fraction(0))
    return [
        Poly([1, 2]),
        RatFunc(Poly([1, 2]), Poly([3, 1])),
        qp,
        TTRRCoeffs([Fraction(1), Fraction(2)], [Fraction(3)]),
        FamilySpec("L", (Fraction(2), Fraction(3), Fraction(0)), qp.q),
        CoherenceConfig(1, 0, 0, Poly.one()),
        MomentFunctional([Fraction(1), Fraction(2)]),
        VerifyReport("identity", "holds"),
        SemiclassicalWitness(Poly.one(), Poly.x()),
        DeterminantSystem(Poly.one(), ()),
        case_i_instance(qp, 2, 3),
        classify_self_coherent(Poly.one(), Fraction(5), Fraction(-3), qp, 4),
    ]


def test_value_samples_cover_every_dataclass():
    # a value type added to the library is added to the samples too
    dataclasses_in_src = {
        obj for path in SRC.glob("*.py")
        for _, obj in inspect.getmembers(
            importlib.import_module(f"qcoherent.{path.stem}"),
            inspect.isclass)
        if dataclasses.is_dataclass(obj) and obj.__module__.startswith(
            "qcoherent.")}
    assert dataclasses_in_src <= {type(v) for v in _value_samples()}


@pytest.mark.parametrize("value", _value_samples(),
                         ids=lambda v: type(v).__name__)
def test_value_types_are_immutable(value):
    # the slots across the MRO: a subclass of a slotted base has none of
    # its own
    names = (dataclasses.fields(value) if dataclasses.is_dataclass(value)
             else [name for cls in type(value).__mro__
                   for name in getattr(cls, "__slots__", ())])
    assert names
    # a slotted class's guard names the class, a subclass's its own
    refused = None if dataclasses.is_dataclass(value) else (
        f"^{type(value).__name__} is immutable$")
    for name in (getattr(f, "name", f) for f in names):
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=refused):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=refused):
            delattr(value, name)
        assert getattr(value, name) is before
    # a name that is no field is refused too; on Python 3.11 a frozen
    # dataclass with slots refuses it with TypeError
    with pytest.raises((AttributeError, TypeError)):
        value.added = 1
    assert not hasattr(value, "added")


def test_moment_functionals_equal_by_moments():
    u = MomentFunctional([Fraction(1), Fraction(1, 2)])
    v = MomentFunctional((Fraction(1), Fraction(1, 2)))
    assert u == v and hash(u) == hash(v) and u is not v
    assert u != MomentFunctional([Fraction(1)]) and u != u.moments


@pytest.mark.parametrize("cls", [TTRRCoeffs, MomentFunctional])
def test_slotted_value_types_have_no_dict(cls):
    value = next(v for v in _value_samples() if type(v) is cls)
    assert not hasattr(value, "__dict__")
