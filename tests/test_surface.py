"""The package is what its own modules run: every top-level function or class
in ``src/deadbeat_observer`` is read by some module of the package, outside its
own definition, with no exception.  Hand derivations that only the tests
read, the reactor's margin hypothesis among them, live in ``tests/oracles.py``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "deadbeat_observer"


def _names(node):
    """The names that ``node`` reads, as a Name or as an Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_has_a_reader_in_the_package():
    statements = []  # (module, top-level statement, the names it reads); __init__ only re-exports
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            statements += [(path.stem, node, _names(node))
                           for node in ast.parse(path.read_text()).body]
    unreached = [f"{module}.{node.name}" for module, node, _ in statements
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not any(node.name in names for _, other, names in statements if other is not node)]
    assert unreached == []
