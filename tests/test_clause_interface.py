"""The evaluator's clauses read a model through four members only.

Each clause of denote._CLAUSES and denote._COLUMNS, and each module-level
function of denote it calls, directly or through another, may read these
attributes of its model parameter m: columns, entities, entity_key_order and
successor_positions. They are the whole interface a model offers the
evaluator, so a clause that reads any other member fails here.
"""

from __future__ import annotations

import ast

from helpers import REPO_ROOT

DENOTE = REPO_ROOT / "src" / "finsem" / "denote.py"
INTERFACE = frozenset({"columns", "entities", "entity_key_order", "successor_positions"})


def clause_model_reads(source: str) -> dict[str, set[str]]:
    """Each function named in the _CLAUSES and _COLUMNS tables, with the
    attributes of m that it and the module functions it calls read."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    clauses = [
        value.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in ("_CLAUSES", "_COLUMNS") for t in node.targets)
        for value in node.value.values
    ]
    reads = {}
    for clause in clauses:
        seen, todo, attrs = set(), [clause], set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for n in ast.walk(functions[name]):
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "m":
                    attrs.add(n.attr)
                elif isinstance(n, ast.Name) and n.id in functions:
                    todo.append(n.id)
        reads[clause] = attrs
    return reads


def test_clauses_read_only_the_model_interface() -> None:
    reads = clause_model_reads(DENOTE.read_text(encoding="utf-8"))
    assert len(reads) == 22  # one clause per term class in each table
    assert {clause: attrs - INTERFACE for clause, attrs in reads.items() if attrs - INTERFACE} == {}


def test_a_clause_reading_another_member_is_found() -> None:
    source = (
        "def _frames_of(m): return m.frames\n"
        "def _eval_a(t, m, env, p): return m.columns[t][p]\n"
        "def _column_b(t, m, env, ps): return _frames_of(m)\n"
        "_CLAUSES = {A: _eval_a}\n"
        "_COLUMNS = {B: _column_b}\n"
    )
    assert clause_model_reads(source) == {"_eval_a": {"columns"}, "_column_b": {"frames"}}
