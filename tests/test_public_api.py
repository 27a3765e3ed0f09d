"""Every public top-level function and class of the package has a caller
outside the tests, or is listed in TEST_ONLY with the reason it stays.

A name defined at module level in src/finsem counts as referenced when
- its own module reads it outside its own definition;
- a module under src/, scripts/ or perfbench/ (not a tests directory) imports
  it from its finsem module, or reads it as an attribute of that module; or
- it is a cli command handler cmd_<name> and cli declares the command
  <name>, with dashes for underscores: cli.main dispatches to it by name.

The listed names must be exactly the unreferenced ones, so a listed name that
gains a caller fails here as well as an unlisted one that loses its last.
"""

from __future__ import annotations

import ast

from helpers import REPO_ROOT

SRC = REPO_ROOT / "src" / "finsem"
CALLER_DIRS = ("src", "scripts", "perfbench")

TEST_ONLY = {
    "relalg.reflexive_iff_id_leq": "Rel law the paper states, checked by criterion 2",
    "relalg.function_characterization": "Rel law the paper states, checked by criterion 2",
    "relalg.modularity_holds": "Rel law the paper states, checked by criterion 1",
    "relalg.graph_projections": "Rel law the paper states, checked by criterion 2",
    "relalg.from_jointly_monic": "Rel law the paper states, checked by criterion 2",
    "relalg.union": "the join of Rel, with which criterion 1 checks that composition is monotone",
    "kripke.identity_map": "category law: identities are bounded maps, criterion 3",
    "kripke.compose_maps": "category law: bounded maps compose, criterion 3",
    "generators.random_carrier": "property-test generator, criteria 1 and 2",
    "generators.random_frame_map": "property-test generator, criterion 3",
    "generators.random_isomorphism": "property-test generator, criterion 3",
}


def public_definitions(sources: dict[str, str]) -> set[str]:
    """"module.name" for each public top-level def and class."""
    return {
        f"{module}.{node.name}"
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def references(sources: dict[str, str], callers: list[str]) -> set[str]:
    """"module.name" for each name of the package's modules that its own
    module or one of the caller sources reads, as the module docstring says."""
    found = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            found |= {
                f"{module}.{n.id}"
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own
            }
    for source in callers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.ImportFrom) and n.module and n.module.rpartition(".")[2] in sources:
                found |= {f"{n.module.rpartition('.')[2]}.{a.name}" for a in n.names}
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in sources:
                found.add(f"{n.value.id}.{n.attr}")
    if "cli" in sources:
        commands = {
            n.value
            for n in ast.walk(ast.parse(sources["cli"]))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
        found |= {
            name
            for name in public_definitions({"cli": sources["cli"]})
            if name.startswith("cli.cmd_") and name[len("cli.cmd_"):].replace("_", "-") in commands
        }
    return found


def test_every_public_name_has_a_caller_outside_the_tests() -> None:
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = [
        p.read_text(encoding="utf-8")
        for d in CALLER_DIRS
        for p in sorted((REPO_ROOT / d).rglob("*.py"))
        if "tests" not in p.relative_to(REPO_ROOT).parts
    ]
    defined = public_definitions(sources)
    assert set(TEST_ONLY) <= defined
    assert defined - references(sources, callers) == set(TEST_ONLY)


def test_the_walk_finds_each_kind_of_caller() -> None:
    sources = {
        "a": "def used(): pass\ndef shown(): pass\ndef alone(): return alone()\ndef caller(): return used()\n",
        "b": "def got(): pass\ndef seen(): pass\n",
        "cli": "def cmd_check_it(mf, args): pass\ndef cmd_gone(mf, args): pass\nNAMES = ['check-it']\n",
    }
    callers = ["from finsem.b import got\n", "from finsem import a\na.shown()\n"]
    assert public_definitions(sources) - references(sources, callers) == {
        "a.alone",
        "a.caller",
        "b.seen",
        "cli.cmd_gone",
    }
