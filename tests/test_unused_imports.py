"""Every top-level import in the package's modules is used, and every
module-level private name is loaded somewhere in the package.

A name counts as used when it appears as a Name node anywhere in its module
(so also as the base of an attribute and inside annotations) or when the
module lists it in __all__. Imports from __future__ are exempt.

A private name (one leading underscore) defined at module level by def,
class or assignment counts as loaded when some module of the package reads
it as a name or as an attribute; an import alone does not load it.
"""

from __future__ import annotations

import ast

import pytest

from helpers import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "finsem").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """"module:name" for each module-level private name no module loads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                loaded.add(n.attr)
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            orphans += [
                f"{module}:{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in loaded
            ]
    return orphans


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found() -> None:
    source = "from __future__ import annotations\nimport os.path\nfrom .denote import eval_int, typecheck\n"
    assert unused_imports(source + "os.sep\n") == ["eval_int", "typecheck"]
    assert unused_imports(source + "__all__ = ['eval_int']\ndef f(x: typecheck): ...\n") == ["os"]


def test_no_orphaned_private_name() -> None:
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert orphaned_private_names(sources) == []


def test_an_orphaned_private_name_is_found() -> None:
    sources = {
        "a.py": "def _used(): ...\ndef _orphan(): ...\n_TABLE = {1: _used}\n"
        "class _Unread: ...\n_x, _y = 1, 2\n",
        "b.py": "from .a import _TABLE, _Unread, _x\n_TABLE[1]()\nprint(a._y)\n",
    }
    assert orphaned_private_names(sources) == ["a.py:_orphan", "a.py:_Unread", "a.py:_x"]
