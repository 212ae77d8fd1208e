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


def _outside_names():
    # a reader is a name or attribute in src/ outside the definition
    # itself, or a name, attribute or string in perfbench/ or tools/: the
    # perfbench tracer names its targets as strings
    outside = set()
    for pattern in ("perfbench/*.py", "tools/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            outside |= _names([_parse(path)], strings=True)
    return outside


def _unread(units, outside):
    """The definitions among ``units``, (path, statement) pairs, whose name
    no other unit reads and ``outside`` lacks."""
    read = [(node, _names([node])) for _, node in units]
    return [f"{path.name}:{node.lineno} {node.name}"
            for path, node in units
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in outside
            and not any(node.name in names for other, names in read if other is not node)]


def _modules():
    return [(path, _parse(path)) for path in sorted(SRC.glob("*.py"))]


def test_every_module_level_definition_has_a_reader():
    # every top-level statement of src/
    units = [(path, node) for path, tree in _modules() for node in tree.body]
    assert _unread(units, _outside_names()) == []


def test_every_method_and_property_has_a_reader():
    # the same rule one level down: each statement of a class body is a
    # unit of its own, beside every top-level statement that is not a
    # class; a dunder method's reader is Python itself
    units = [(path, sub) for path, tree in _modules() for node in tree.body
             for sub in (node.body if isinstance(node, ast.ClassDef) else [node])]
    unread = [name for name in _unread(units, _outside_names())
              if not name.split()[-1].startswith("__")]
    assert unread == []
