"""The README's examples run as written."""
import json
import re
import shlex
from pathlib import Path

import pytest

from qcoherent.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _cli_examples():
    examples = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("qcoherent "):
                examples.append(shlex.split(line)[1:])
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_its_examples():
    # every line that starts a CLI example is found, so none goes unrun
    assert len(CLI_EXAMPLES) == README.count("\nqcoherent ") == 9
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=[
    f"{i}-" + "-".join(w for w in argv[:2] if not w.startswith("-"))
    for i, argv in enumerate(CLI_EXAMPLES)])
def test_cli_example_runs(argv, capsys):
    assert main(argv) == 0
    json.loads(capsys.readouterr().out)


def test_library_example_runs():
    exec(_blocks("python")[0], {})
