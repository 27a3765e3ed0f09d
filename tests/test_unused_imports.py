"""Every top-level import in the package's modules is used.

A name counts as used when it appears as a Name node anywhere in its module
(so also as the base of an attribute and inside annotations) or when the
module lists it in __all__. Imports from __future__ are exempt.
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path) -> None:
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found() -> None:
    source = "from __future__ import annotations\nimport os.path\nfrom .denote import eval_int, typecheck\n"
    assert unused_imports(source + "os.sep\n") == ["eval_int", "typecheck"]
    assert unused_imports(source + "__all__ = ['eval_int']\ndef f(x: typecheck): ...\n") == ["os"]
