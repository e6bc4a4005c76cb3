"""Names that other code reaches by string: the public API and the
benchmark tracer's targets."""
import ast
import importlib
from pathlib import Path

import qcoherent

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"qcoherent.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_public_names_resolve():
    for name in qcoherent.__all__:
        assert getattr(qcoherent, name, None) is not None, name


def test_tracer_targets_resolve():
    # perfbench is not a package on the import path: read its source
    tree = ast.parse(TRACER.read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS"
                           for t in node.targets))
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
