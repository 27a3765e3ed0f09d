"""Recovering the extension at the designated index: the first check that
sees the collapse.

Criterion 5 compares a collapsed model with the extensionalize of that same
model, two routes over the same value objects, so it cannot see a collapse
that keeps the wrong slice. This check starts from the uncollapsed model: a
term at the designated index s* (each frame at its designated element) must
have the outcome, value or error kind, that it has on the extensionalized
full collapse. The corpus is criterion 5's: the same seed and draws, with the
uncollapsed models the sweep draws and collapses. Like the acceptance checks,
it pins its counts and a time budget and prints one pass/fail line.
"""

from __future__ import annotations

import random
import time

from finsem import morphisms
from finsem.denote import eval_int
from finsem.generators import random_model, random_term
from finsem.morphisms import extensionalize, trivialize_all, verify_equivalence
from finsem.semmodel import Assignment, Index

from test_acceptance import _report

RECOVERY_MODELS = 100    # criterion 5's uncollapsed models
RECOVERY_TERMS = 100     # random terms per model
RECOVERY_BUDGET = 30.0   # seconds, per test
RECOVERY_ERRORS = 3770   # checks where both sides raise the same error kind
WRONG_SLICE_CAUGHT = 2180


def _outcome(term, m, g, s=None):
    try:
        return eval_int(term, m, g, s)
    except Exception as err:
        return type(err).__name__


def _recovery(sweep_mismatches: bool = False) -> tuple[int, int, int, int]:
    """Checks, disagreements and error agreements of the recovery check on
    criterion 5's corpus, with criterion 5's own mismatches if asked."""
    rng = random.Random(505)
    checks = disagreements = errors = sweep = 0
    for _ in range(RECOVERY_MODELS):
        m0 = random_model(rng, max_entities=3, min_frames=1, max_frames=2)
        collapsed = trivialize_all(m0)
        terms = [random_term(rng, collapsed, max_depth=4) for _ in range(RECOVERY_TERMS)]
        g = Assignment(
            tuple((v, rng.choice(collapsed.entity_domain.elements)) for v in ("x", "y", "z"))
        )
        s_star = Index((f.label, m0.designated_for(f.label)) for f in m0.frames)
        ext = extensionalize(collapsed)
        for term in terms:
            left, right = _outcome(term, m0, g, s_star), _outcome(term, ext, g)
            checks += 1
            disagreements += left != right
            errors += left == right and isinstance(left, str)
        if sweep_mismatches:
            sweep += len(verify_equivalence(collapsed, terms, [g]).mismatches)
    return checks, disagreements, errors, sweep


def test_the_designated_extension_is_recovered_from_the_uncollapsed_model(capsys) -> None:
    start = time.perf_counter()
    checks, disagreements, errors, _ = _recovery()
    elapsed = time.perf_counter() - start
    ok = (
        checks == RECOVERY_MODELS * RECOVERY_TERMS
        and disagreements == 0
        and errors == RECOVERY_ERRORS
        and elapsed < RECOVERY_BUDGET
    )
    _report(
        capsys,
        "recovery at s*",
        ok,
        f"{RECOVERY_MODELS} uncollapsed models x {RECOVERY_TERMS} terms = {checks} checks, "
        f"{disagreements} disagreements, {errors} error agreements, "
        f"{elapsed:.2f}s < {RECOVERY_BUDGET}s",
    )


def test_a_collapse_keeping_the_wrong_slice_is_caught(capsys, monkeypatch) -> None:
    # each frame collapses at the element after the chosen one, cyclically in
    # domain order; criterion 5's routes both read the wrong slice and agree
    real = morphisms.section

    def next_slice(f, w):
        elements = f.domain.elements
        return real(f, elements[(elements.index(w) + 1) % len(elements)])

    monkeypatch.setattr(morphisms, "section", next_slice)
    start = time.perf_counter()
    checks, disagreements, _, sweep = _recovery(sweep_mismatches=True)
    elapsed = time.perf_counter() - start
    ok = (
        checks == RECOVERY_MODELS * RECOVERY_TERMS
        and disagreements == WRONG_SLICE_CAUGHT
        and sweep == 0
        and elapsed < RECOVERY_BUDGET
    )
    _report(
        capsys,
        "recovery at s*, wrong-slice mutant",
        ok,
        f"{checks} checks, {disagreements} disagreements (criterion 5's routes: {sweep}), "
        f"{elapsed:.2f}s < {RECOVERY_BUDGET}s",
    )
