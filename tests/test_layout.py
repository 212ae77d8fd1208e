"""Layout guards over the package source."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d2doff"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(nodes, strings=False):
    """The names that ``nodes`` and their descendants read: each
    ``ast.Name``, each attribute of an ``ast.Attribute`` and, with
    ``strings``, each string constant."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def test_every_module_level_definition_has_a_reader():
    # a reader is a name or attribute in src/ outside the definition
    # itself, or a name, attribute or string in perfbench/ or tools/: the
    # perfbench tracer names its targets as strings
    outside = set()
    for pattern in ("perfbench/*.py", "tools/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            outside |= _names([_parse(path)], strings=True)
    # every top-level statement of src/ with the names it reads
    statements = [(path, node, _names([node]))
                  for path in sorted(SRC.glob("*.py")) for node in _parse(path).body]
    unread = [f"{path.name}:{node.lineno} {node.name}"
              for path, node, _ in statements
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in outside
              and not any(node.name in names for _, other, names in statements
                          if other is not node)]
    assert unread == []
