"""Module layering: each module of rankarg imports only modules below it.

The order is framework < orders < game < semantics < catalog < axioms <
fuzz < cli.  Imports inside functions count too, so an import cycle cannot
hide behind a deferred import.
"""

import ast
from pathlib import Path

import pytest

LAYERS = ("framework", "orders", "game", "semantics", "catalog", "axioms", "fuzz", "cli")
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rankarg"


def relative_imports(path):
    """(line, module) for every relative import anywhere in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                yield from ((node.lineno, alias.name) for alias in node.names)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_earlier_layers(module):
    below = LAYERS[:LAYERS.index(module)]
    upward = [f"{module}.py:{line} imports .{target}"
              for line, target in relative_imports(PACKAGE / f"{module}.py")
              if target not in below]
    assert upward == []
