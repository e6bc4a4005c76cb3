"""Names that other code reaches by string (the public API and the
benchmark tracer's targets), and no name that nothing reaches."""
import ast
import importlib
import tokenize
from pathlib import Path

import qcoherent

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
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(qcoherent.__all__) == sorted(imported)


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
