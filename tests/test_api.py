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
