"""A seeded verify_equivalence corpus: outcomes are finsem's own, and pinned.

Two routes that share a bug agree, so agreement alone cannot show that the
checker works. Here every error kind must be one of finsem's own exceptions or
ValueError, enough checks must end in a value, and the records hash to a
pinned digest: a change to any outcome, rendering or order shows. Regenerate
the digest only for an output change that is meant and declared.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import re
import sys
from collections import Counter

from finsem import denote
from finsem.denote import Eq
from finsem.generators import ASSIGNMENT_VARS, random_model, random_term
from finsem.morphisms import trivialize_all, verify_equivalence
from finsem.semmodel import Assignment

from helpers import REPO_ROOT, record_fields

_spec = importlib.util.spec_from_file_location(
    "run_equivalence_sweep", REPO_ROOT / "scripts" / "run_equivalence_sweep.py"
)
sweep = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = sweep  # dataclasses look their module up there
_spec.loader.exec_module(sweep)

CORPUS_SHA256 = "e3b9a7e039b0e4b18ff82a9f3e3dc66f84cc55cfcb8913e9677e6b6198887083"


def corpus_records() -> list:
    """40 collapsed random models, 25 random terms each, under three
    assignments: every variable bound, only x bound, x sent to no entity."""
    rng = random.Random(6)
    records = []
    for _ in range(40):
        m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
        terms = [random_term(rng, m, max_depth=4) for _ in range(25)]
        ents = m.entity_domain.elements
        gs = [
            Assignment(tuple((v, rng.choice(ents)) for v in ASSIGNMENT_VARS)),
            Assignment((("x", rng.choice(ents)),)),
            Assignment((("x", "nowhere"), ("y", ents[0]), ("z", ents[0]))),
        ]
        records.extend(verify_equivalence(m, terms, gs).checks)
    return records


def test_seeded_corpus_has_only_finsem_errors_and_a_pinned_digest() -> None:
    records = corpus_records()
    outcomes = Counter(
        side.removeprefix("error:") if side.startswith("error:") else "value"
        for r in records
        for side in (r.intensional, r.extensional)
    )
    allowed = sweep.finsem_error_kinds()
    assert set(outcomes) - {"value"} <= allowed, outcomes
    assert sweep.internal_errors(records, allowed) == []
    assert outcomes["value"] >= 0.25 * sum(outcomes.values()), outcomes
    assert all(r.agree for r in records)
    text = json.dumps([record_fields(r) for r in records])
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


def test_error_kinds_are_finsem_exceptions_and_value_error() -> None:
    importlib.import_module("finsem.modelfile")  # the walk sees loaded classes only
    kinds = sweep.finsem_error_kinds()
    assert {"ValueError", "TermTypeError", "UnboundVariable", "UnknownEntity",
            "PresuppositionFailure", "ModelFileError"} <= kinds
    assert not kinds & {"TypeError", "KeyError", "AttributeError", "RecursionError"}


SWEEP_STDOUT = """\
composites: 0 mismatches / 20 checks
functions: 0 mismatches / 2 checks
predicates: 0 mismatches / 6 checks
variables: 0 mismatches / 2 checks
total: 0 mismatches / 30 checks (ELAPSED)
"""


def test_sweep_table_is_the_report_summary(capsys) -> None:
    assert sweep.run_sweep(sweep.SweepConfig(seed=1, models=3, terms_per_model=10)) == 0
    out = re.sub(r"\(\d+\.\d\ds\)\n\Z", "(ELAPSED)\n", capsys.readouterr().out)
    assert out == SWEEP_STDOUT


def test_sweep_fails_on_an_error_both_routes_share(monkeypatch, capsys) -> None:
    cfg = sweep.SweepConfig(seed=1, models=3, terms_per_model=10)
    assert sweep.run_sweep(cfg) == 0
    clean = capsys.readouterr().out
    assert "internal error" not in clean

    def broken(term, m, env, p):
        raise TypeError("a bug both routes share")

    monkeypatch.setitem(denote._CLAUSES, Eq, broken)
    assert sweep.run_sweep(cfg) == 1
    out = capsys.readouterr().out
    assert "total: 0 mismatches / 30 checks" in out
    assert "checks failing with an internal error:" in out
    assert "error:TypeError vs error:TypeError" in out
