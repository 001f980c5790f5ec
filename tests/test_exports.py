"""Every name the package exports has a reader outside its own definition."""

import ast
import re
from pathlib import Path

import randtile

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "randtile"


def _loads(tree, skip=None) -> set:
    """The names a module reads: loaded names and attributes, and the
    modules it imports from.  The top-level definition named `skip` is
    not walked, so a definition's reference to itself is no reader."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and \
                top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def _home(name) -> str:
    """The stem of the module that defines an exported name."""
    obj = getattr(randtile, name)
    module = obj.__name__ if isinstance(obj, type(randtile)) else \
        obj.__module__
    return module.rsplit(".", 1)[-1]


def test_every_export_has_a_reader():
    """Each name in `randtile.__all__` is read by the package outside its
    own definition and `__init__.py`, by the benchmark, or by the
    acceptance criteria (docstrings do not count), or is named in README.md
    or PAPER.md.  A name that none of them reads is dead weight: delete it
    or give it a reader."""
    trees = {path: ast.parse(path.read_text()) for path in [
        *sorted(_SRC.glob("*.py")), *sorted((_ROOT / "bench").glob("*.py")),
        _ROOT / "tests" / "test_acceptance.py"]}
    docs = "\n".join((_ROOT / doc).read_text()
                     for doc in ("README.md", "PAPER.md"))
    unread = []
    for name in randtile.__all__:
        home = _SRC / f"{_home(name)}.py"
        read = any(name in _loads(tree, skip=name if path == home else None)
                   for path, tree in trees.items()
                   if path.name != "__init__.py" or path.parent != _SRC)
        if not read and not re.search(rf"\b{re.escape(name)}\b", docs):
            unread.append(name)
    assert not unread, f"exported with no reader: {unread}"
