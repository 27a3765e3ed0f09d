"""Acceptance gate: seven checks, one printed pass/fail line each.

Each check pins its sample count and wall-clock budget as constants below.
The randomized ones run on fixed seeds so a failure is reproducible; the
printed line bypasses output capture so the verdicts always appear in the
test log.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from finsem.denote import parse_term, render_term
from finsem.fragment import eval_sentence, parse, translate
from finsem.generators import (
    random_carrier,
    random_fn_graph,
    random_frame,
    random_frame_map,
    random_isomorphism,
    random_model,
    random_relation,
    random_term,
)
from finsem.kripke import (
    identity_map,
    compose_maps,
    is_bounded,
    is_monotone,
    is_surjective,
    trivialize,
)
from finsem.modelfile import load_model_file
from finsem.morphisms import (
    TrivializeFrame,
    compose_path,
    trivialize_all,
    verify_equivalence,
)
from finsem.relalg import (
    compose,
    dagger,
    from_jointly_monic,
    function_characterization,
    graph_projections,
    identity,
    intersect,
    leq,
    modularity_holds,
    reflexive_iff_id_leq,
    union,
)
from finsem.semmodel import Assignment, Truth, validate

from helpers import (
    GOLDEN_DIR,
    LEXICON,
    MODELS_DIR,
    SENTENCE_1,
    SENTENCE_2,
    build_extensional,
    build_modal,
    w_index,
)
from test_cli import run as cli_run

LAW_SAMPLES = 500          # criterion 1: random relation triples
LAW_BUDGET = 5.0           # seconds
PROP_SAMPLES = 500         # criterion 2: characterization instances
PROP_BUDGET = 5.0
MAP_SAMPLES = 300          # criterion 3: frame maps examined
MAP_BUDGET = 5.0
SQUARE_SAMPLES = 60        # criterion 4: generated two-frame squares
SQUARE_BUDGET = 10.0
SWEEP_MODELS = 100         # criterion 5: trivialized models
SWEEP_TERMS = 100          # criterion 5: random terms per model
SWEEP_BUDGET = 60.0
FRAGMENT_BUDGET = 1.0      # criterion 6
CLI_BUDGET = 60.0          # criterion 7

BUNDLED = [
    "extensional.json",
    "modal.json",
    "modal_tense.json",
    "modal_tense_location.json",
]


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_relation_algebra_laws(capsys) -> None:
    rng = random.Random(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(LAW_SAMPLES):
        x = random_carrier(rng, "X")
        y = random_carrier(rng, "Y")
        z = random_carrier(rng, "Z")
        u = random_carrier(rng, "U")
        r1 = random_relation(rng, x, y)
        r2 = random_relation(rng, y, z)
        r3 = random_relation(rng, z, u)
        assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))
        assert compose(identity(x), r1) == r1
        assert compose(r1, identity(y)) == r1
        assert dagger(dagger(r1)) == r1
        assert dagger(compose(r1, r2)) == compose(dagger(r2), dagger(r1))
        assert dagger(identity(x)) == identity(x)
        s1 = union(r1, random_relation(rng, x, y))
        s2 = union(r2, random_relation(rng, y, z))
        assert leq(r1, s1) and leq(r2, s2)
        assert leq(compose(r1, r2), compose(s1, s2))
        assert leq(dagger(r1), dagger(s1))
        assert leq(intersect(r1, s1), r1)
        assert modularity_holds(r1, r2, random_relation(rng, x, z))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= LAW_SAMPLES and elapsed < LAW_BUDGET
    _report(
        capsys,
        "criterion 1 (relation algebra laws)",
        ok,
        f"{checked} random triples, all laws held, {elapsed:.2f}s < {LAW_BUDGET}s",
    )


def test_criterion_2_characterizations(capsys) -> None:
    rng = random.Random(202)
    start = time.perf_counter()
    checked = 0
    for _ in range(PROP_SAMPLES):
        x = random_carrier(rng, "X", min_size=1)
        y = random_carrier(rng, "Y", min_size=1)
        z = random_carrier(rng, "Z", min_size=1)

        # reflexivity matches the identity-inclusion reformulation
        endo = random_relation(rng, x, x)
        assert reflexive_iff_id_leq(endo)

        # functionhood and, for functions, injectivity and surjectivity
        r = random_relation(rng, x, y)
        p = function_characterization(r)
        assert p.is_function == (p.dagger_eq_total and p.dagger_eq_single)
        if p.is_function:
            assert p.is_injective == p.inj_eq
            assert p.is_surjective == p.surj_eq
        f = random_fn_graph(rng, x, y)
        pf = function_characterization(f.underlying)
        assert pf.is_function
        assert pf.is_injective == pf.inj_eq
        assert pf.is_surjective == pf.surj_eq

        # composing function graphs agrees with relation composition
        g = random_fn_graph(rng, y, z)
        pointwise = frozenset((a, g(f(a))) for a in x.elements)
        assert compose(f.underlying, g.underlying).pairs == pointwise

        # every relation is tabulated by its jointly monic span
        p1, p2 = graph_projections(r)
        assert compose(dagger(p1.underlying), p2.underlying) == r
        assert from_jointly_monic(p1, p2) == r
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= PROP_SAMPLES and elapsed < PROP_BUDGET
    _report(
        capsys,
        "criterion 2 (function characterizations)",
        ok,
        f"{checked} random instances, all six reformulations agreed, "
        f"{elapsed:.2f}s < {PROP_BUDGET}s",
    )


def test_criterion_3_collapse_maps(capsys) -> None:
    rng = random.Random(303)
    start = time.perf_counter()
    examined = 0
    bounded_seen = 0
    for _ in range(MAP_SAMPLES // 3):
        # collapse of a serial frame: surjective and bounded
        serial = random_frame(rng, "W", serial=True)
        m = trivialize(serial, rng.choice(serial.domain.elements))
        assert is_surjective(m)
        assert is_bounded(m)
        assert is_monotone(m)
        examined += 1

        # arbitrary maps: bounded ones are monotone
        anym = random_frame_map(rng)
        if is_bounded(anym):
            bounded_seen += 1
            assert is_monotone(anym)
        examined += 1

        # composition preserves bounded maps; identity and isos are bounded
        iso = random_isomorphism(rng, serial)
        assert is_bounded(iso)
        tail = trivialize(iso.target, iso.target.domain.elements[0])
        composed = compose_maps(iso, tail)
        assert is_bounded(composed)
        assert is_bounded(compose_maps(identity_map(serial), iso))
        examined += 1
    # the non-serial counterexample stays a counterexample
    non_serial = random_frame(rng, "X", serial=False)
    while all(non_serial.successors(v) for v in non_serial.domain.elements):
        non_serial = random_frame(rng, "X", serial=False)
    broken = trivialize(non_serial, non_serial.domain.elements[0])
    assert not is_bounded(broken)
    elapsed = time.perf_counter() - start
    ok = examined >= MAP_SAMPLES and bounded_seen > 0 and elapsed < MAP_BUDGET
    _report(
        capsys,
        "criterion 3 (collapse maps)",
        ok,
        f"{examined} maps examined ({bounded_seen} random bounded), "
        f"{elapsed:.2f}s < {MAP_BUDGET}s",
    )


def test_criterion_4_commuting_squares(capsys) -> None:
    rng = random.Random(404)
    start = time.perf_counter()
    squares = 0
    while squares < SQUARE_SAMPLES:
        m = random_model(rng, max_entities=3, min_frames=2, max_frames=2, max_frame_size=3)
        labels = [f.label for f in m.frames if not f.trivial]
        if len(labels) < 2:
            continue
        path = tuple(TrivializeFrame(l) for l in labels)
        assert compose_path(m, path) == compose_path(m, path[::-1])
        squares += 1

    # all six collapse orders of the bundled three-frame model coincide
    big = load_model_file(str(MODELS_DIR / "modal_tense_location.json")).model
    outcomes = {
        compose_path(big, tuple(TrivializeFrame(l) for l in perm))
        for perm in itertools.permutations(("W", "T", "L"))
    }
    assert len(outcomes) == 1
    assert validate(collapsed := next(iter(outcomes))) == collapsed.columns
    elapsed = time.perf_counter() - start
    ok = squares >= SQUARE_SAMPLES and elapsed < SQUARE_BUDGET
    _report(
        capsys,
        "criterion 4 (commuting squares)",
        ok,
        f"{squares} generated squares plus 6 orders on the bundled "
        f"three-frame model, {elapsed:.2f}s < {SQUARE_BUDGET}s",
    )


def test_criterion_5_equivalence_sweep(capsys) -> None:
    rng = random.Random(505)
    start = time.perf_counter()
    checks = 0
    mismatches = 0
    categories: set[str] = set()
    for _ in range(SWEEP_MODELS):
        m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
        terms = [random_term(rng, m, max_depth=4) for _ in range(SWEEP_TERMS)]
        g = Assignment(
            tuple((v, rng.choice(m.entity_domain.elements)) for v in ("x", "y", "z"))
        )
        report = verify_equivalence(m, terms, [g])
        checks += report.total
        mismatches += len(report.mismatches)
        categories |= set(report.by_category())
    wanted = {"constants", "variables", "predicates", "functions", "composites"}
    elapsed = time.perf_counter() - start
    ok = (
        checks >= SWEEP_MODELS * SWEEP_TERMS
        and mismatches == 0
        and categories == wanted
        and elapsed < SWEEP_BUDGET
    )
    _report(
        capsys,
        "criterion 5 (equivalence sweep)",
        ok,
        f"{SWEEP_MODELS} trivialized models x {SWEEP_TERMS} terms = {checks} checks, "
        f"{mismatches} mismatches, categories {sorted(categories)}, "
        f"{elapsed:.2f}s < {SWEEP_BUDGET}s",
    )


def test_criterion_6_fragment_goldens(capsys) -> None:
    start = time.perf_counter()
    ext = build_extensional()
    modal = build_modal()

    tree1 = parse(SENTENCE_1.split(), LEXICON)
    tree2 = parse(SENTENCE_2.split(), LEXICON)
    golden1 = (GOLDEN_DIR / "sentence1.tree").read_text()
    golden2 = (GOLDEN_DIR / "sentence2.tree").read_text()
    trees_ok = (tree1.render() + "\n" == golden1) and (tree2.render() + "\n" == golden2)

    term2, _ = translate(tree2, LEXICON)
    term_ok = parse_term(render_term(term2)) == term2

    v1 = eval_sentence(SENTENCE_1, ext, LEXICON).value
    v2_w0 = eval_sentence(SENTENCE_2, modal, LEXICON, s=w_index("w0")).value
    v2_w1 = eval_sentence(SENTENCE_2, modal, LEXICON, s=w_index("w1")).value
    values_ok = (v1, v2_w0, v2_w1) == (Truth(1), Truth(1), Truth(0))

    elapsed = time.perf_counter() - start
    ok = trees_ok and term_ok and values_ok and elapsed < FRAGMENT_BUDGET
    _report(
        capsys,
        "criterion 6 (fragment goldens)",
        ok,
        f"trees byte-identical, sentence values (1, 1@w0, 0@w1), "
        f"{elapsed:.2f}s < {FRAGMENT_BUDGET}s",
    )


def test_criterion_7_cli_determinism(capsys) -> None:
    start = time.perf_counter()
    ext = str(MODELS_DIR / "extensional.json")
    modal = str(MODELS_DIR / "modal.json")
    two = str(MODELS_DIR / "modal_tense.json")
    reads = "(pred read (iota x (pred student x)) (iota y (pred book y)))"
    commands = [
        ("check-rel", modal),
        ("check-map", modal),
        ("eval", modal, "--term", reads, "--index", "w1"),
        ("sentence", ext, "--text", SENTENCE_1),
        ("sentence", modal, "--text", SENTENCE_2, "--index", "w0"),
        ("trivialize", modal, "--frame", "W"),
        ("square", two, "--frames", "W,T"),
        ("diagram", two),
    ]
    deterministic = True
    for argv in commands:
        first = cli_run(*argv, hashseed="1")
        second = cli_run(*argv, hashseed="2")
        if first.stdout != second.stdout or first.returncode != second.returncode:
            deterministic = False
        if first.returncode != 0:
            deterministic = False

    theorem_ok = True
    for name in BUNDLED:
        got = cli_run("verify-theorem", str(MODELS_DIR / name))
        if got.returncode != 0 or "total: 0 mismatches" not in got.stdout:
            theorem_ok = False

    elapsed = time.perf_counter() - start
    ok = deterministic and theorem_ok and elapsed < CLI_BUDGET
    _report(
        capsys,
        "criterion 7 (command line)",
        ok,
        f"{len(commands)} commands byte-stable across hash seeds, theorem "
        f"verified on {len(BUNDLED)} bundled models, {elapsed:.2f}s < {CLI_BUDGET}s",
    )
