"""Collapse morphisms: table slicing, squares, and equivalence reports."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsem import cli, denote, morphisms, semmodel
from finsem.denote import (
    App,
    Const,
    Diamond,
    FuncApp,
    Iota,
    Lam,
    Not,
    PredApp,
    Var,
    eval_int,
    render_term,
)
from finsem.generators import random_fn_graph, random_frame, random_model, random_term
from finsem.modelfile import load_model_file
from finsem.kripke import (
    TRIVIAL_ELEMENT,
    Frame,
    FrameMap,
    UnknownElement,
    compose_maps,
    identity_map,
    section,
    trivialize,
)
from finsem.morphisms import (
    AlreadyTrivial,
    CheckRecord,
    EquivalenceReport,
    FrameTypedConstant,
    NotFullyTrivial,
    TrivializeFrame,
    apply,
    categorize,
    compose_path,
    default_checks,
    diagram_export,
    extensionalize,
    pullback,
    trivialize_all,
    verify_equivalence,
)
from finsem.relalg import EndpointMismatch, FinSet, FnGraph, Relation
from finsem.semmodel import (
    EMPTY_INDEX,
    Assignment,
    Constant,
    EntType,
    IdxType,
    Index,
    IndexElem,
    InvalidModel,
    Model,
    PairType,
    RelType,
    SetType,
    Truth,
    UnknownFrame,
    fn_type,
    index_space,
    render_value,
    type_domain,
)

import random

from helpers import MODELS_DIR, build_extensional, build_modal, record_fields, rel_value, table_of

MODAL = build_modal()
EXT = build_extensional()


def two_frame_model() -> Model:
    """p depends on both components, so collapse order is a real question."""
    ents = FinSet("E", ("e0",))
    wdom = FinSet("W", ("w0", "w1"))
    tdom = FinSet("T", ("t0", "t1"))
    frames = (
        Frame("W", wdom, Relation(wdom, wdom, frozenset({("w0", "w1")}))),
        Frame("T", tdom, Relation(tdom, tdom, frozenset({("t1", "t0")}))),
    )
    rows = tuple(
        (idx, rel_value(("e0",)) if (idx.component("W"), idx.component("T")) in {("w1", "t0"), ("w0", "t1")} else rel_value())
        for idx in index_space(frames)
    )
    return Model(
        ents,
        frames,
        (Constant("p", RelType((EntType(),)), rows),),
        (("W", "w1"), ("T", "t0")),
    )


# ---------------------------------------------------------------------------
# applying morphisms


def test_identity_morphism() -> None:
    assert pullback(MODAL, {}) == MODAL
    assert compose_path(MODAL, ()) == MODAL
    for m in (MODAL, two_frame_model()):
        for f in m.frames:
            along = pullback(m, {f.label: identity_map(f)})
            assert along.frames == m.frames and along.columns == m.columns
            assert along.designated == tuple(d for d in m.designated if d[0] != f.label)


def test_pullback_along_a_composite_is_the_pullback_along_each() -> None:
    """pullback(pullback(n, f), e) == pullback(n, e;f), label by label."""
    rng = random.Random(4242)
    equal = 0
    for _ in range(200):
        n = random_model(rng, max_entities=3, min_frames=1, max_frames=2)
        f, e = {}, {}
        for G in n.frames:
            F1, F2 = random_frame(rng, G.label, max_size=3), random_frame(rng, G.label, max_size=3)
            f[G.label] = FrameMap(F1, G, random_fn_graph(rng, F1.domain, G.domain))
            e[G.label] = FrameMap(F2, F1, random_fn_graph(rng, F2.domain, F1.domain))
        composite = {label: compose_maps(e[label], f[label]) for label in f}
        equal += pullback(pullback(n, f), e) == pullback(n, composite)
    assert equal == 200


def test_pullback_refuses_an_unknown_label_and_a_map_into_another_frame() -> None:
    (W,) = MODAL.frames
    with pytest.raises(UnknownFrame, match="model has no frame 'Q'"):
        pullback(MODAL, {"Q": identity_map(W)})
    point = trivialize(W, "w0").target
    with pytest.raises(EndpointMismatch):
        pullback(MODAL, {"W": identity_map(point)})


def test_a_pullback_refuses_an_s_typed_constant_along_every_map_but_the_identity() -> None:
    """here: s(W) names each index's own element; a swap of w0 and w1 would
    carry it over untransported, so it is refused like a collapse of W."""
    (W,) = MODAL.frames
    here = Constant("here", IdxType("W"), tuple((s, IndexElem("W", s.component("W"))) for s in MODAL.positions))
    m = Model(MODAL.entity_domain, MODAL.frames, (*MODAL.constants, here), MODAL.designated)
    swap = FrameMap(W, W, FnGraph(Relation(W.domain, W.domain, frozenset({("w0", "w1"), ("w1", "w0")}))))
    with pytest.raises(FrameTypedConstant, match="constant 'here' of type s\\(W\\) mentions frame 'W'"):
        pullback(m, {"W": swap})
    along = pullback(m, {"W": identity_map(W)})
    assert along.frames == m.frames and along.columns == m.columns


def test_trivialize_keeps_the_designated_slice() -> None:
    shaved = apply(MODAL, TrivializeFrame("W", "w1"))
    assert shaved.is_extensional
    assert shaved.frame("W").trivial
    assert shaved.designated == ()
    k0 = Index((("W", "k0"),))
    assert table_of(shaved, "read") == ((k0, rel_value(("s1", "b1"))),)
    assert table_of(shaved, "student") == ((k0, rel_value(("s1",))),)


def test_trivialize_defaults_to_model_designated() -> None:
    # the modal model designates w0, where nothing was read
    shaved = apply(MODAL, TrivializeFrame("W"))
    k0 = Index((("W", "k0"),))
    assert table_of(shaved, "read") == ((k0, rel_value()),)


def test_trivialize_errors() -> None:
    with pytest.raises(UnknownFrame):
        apply(MODAL, TrivializeFrame("Q"))
    with pytest.raises(UnknownElement):
        apply(MODAL, TrivializeFrame("W", "w9"))
    once = apply(MODAL, TrivializeFrame("W"))
    with pytest.raises(AlreadyTrivial):
        apply(once, TrivializeFrame("W"))


def test_trivialize_all_collapses_every_frame() -> None:
    m = two_frame_model()
    flat = trivialize_all(m)
    assert flat.is_extensional
    assert [f.label for f in flat.frames] == ["W", "T"]
    # designated slice was (w1, t0), where p holds of e0
    idx = Index((("W", "k0"), ("T", "k0")))
    assert table_of(flat, "p") == ((idx, rel_value(("e0",))),)
    assert trivialize_all(flat) == flat


def test_validation_survives_collapse() -> None:
    from finsem.semmodel import validate

    for m in (trivialize_all(MODAL), trivialize_all(two_frame_model())):
        assert validate(m) == m.columns


# ---------------------------------------------------------------------------
# squares


def test_square_commutes_across_collapse_order() -> None:
    m = two_frame_model()
    assert compose_path(m, (TrivializeFrame("W"), TrivializeFrame("T"))) == compose_path(
        m, (TrivializeFrame("T"), TrivializeFrame("W"))
    )


def test_square_detects_designated_disagreement() -> None:
    # w0 and w1 slices of read differ, so the two collapses disagree
    assert compose_path(MODAL, (TrivializeFrame("W", "w0"),)) != compose_path(
        MODAL, (TrivializeFrame("W", "w1"),)
    )


@given(st.integers(0, 10_000))
def test_random_two_frame_squares_commute(seed: int) -> None:
    rng = random.Random(seed)
    m = random_model(rng, max_entities=3, min_frames=2, max_frames=2, max_frame_size=3)
    labels = [f.label for f in m.frames if not f.trivial]
    forward = compose_path(m, tuple(TrivializeFrame(l) for l in labels))
    assert forward == compose_path(m, tuple(TrivializeFrame(l) for l in reversed(labels)))
    assert forward.is_extensional


# ---------------------------------------------------------------------------
# the collapse against a row-by-row reference


def _outcome_of(build):
    try:
        return build()
    except Exception as err:
        return type(err), str(err)


def _collapsed_by_rows(m: Model, label: str, chosen: str) -> Model:
    """TrivializeFrame(label, chosen) one row at a time: keep each row whose
    label component is chosen, then move it with Index.replace."""
    constants = tuple(
        Constant(c.name, c.semtype, tuple(
            (idx.replace(label, TRIVIAL_ELEMENT), v) for idx, v in c.table if idx.component(label) == chosen
        ))
        for c in m.constants
    )
    frames = tuple(trivialize(f, chosen).target if f.label == label else f for f in m.frames)
    return Model(m.entity_domain, frames, constants, tuple(d for d in m.designated if d[0] != label))


def _extensionalized_by_rows(m: Model) -> Model:
    (s0,) = index_space(m.frames)
    constants = tuple(
        Constant(c.name, c.semtype, tuple((EMPTY_INDEX, v) for idx, v in c.table if idx == s0))
        for c in m.constants
    )
    return Model(m.entity_domain, (), constants, ())


def _assert_collapses_like_the_rows(m: Model) -> int:
    """Every collapse of m, at every element, against the reference; returns
    the number compared."""
    compared = 0
    for f in m.frames:
        if f.trivial:
            continue
        for chosen in f.domain.elements:
            got = _outcome_of(lambda: apply(m, TrivializeFrame(f.label, chosen)))
            want = _outcome_of(lambda: _collapsed_by_rows(m, f.label, chosen))
            assert got == want
            compared += 1
    return compared


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.json")))
def test_collapse_matches_the_row_by_row_reference_on_bundled_models(name: str) -> None:
    m = load_model_file(str(MODELS_DIR / name)).model
    assert _assert_collapses_like_the_rows(m) == sum(len(f.domain) for f in m.frames if not f.trivial)
    flat = trivialize_all(m)
    assert extensionalize(flat) == _extensionalized_by_rows(flat)


def test_collapse_matches_the_row_by_row_reference_on_random_models() -> None:
    rng = random.Random(12)
    compared = 0
    for _ in range(50):
        m = random_model(rng, max_entities=3, max_frames=3)
        compared += _assert_collapses_like_the_rows(m)
        flat = trivialize_all(m)
        assert extensionalize(flat) == _extensionalized_by_rows(flat)
    assert compared > 100


def _with_frame_typed_constant(rng: random.Random, m: Model) -> tuple[Model, str]:
    """m plus a constant "here" whose type mentions s(L) for one of m's frames
    L, valued at random in each index; returns the model and L."""
    label = rng.choice(m.frames).label
    elem = IdxType(label)
    ty = rng.choice(
        [elem, SetType(elem), PairType(EntType(), elem), fn_type([EntType()], elem), RelType((elem, EntType()))]
    )
    values = type_domain(m, ty)
    here = Constant("here", ty, tuple((s, rng.choice(values)) for s in m.positions))
    return Model(m.entity_domain, m.frames, (*m.constants, here), m.designated), label


def test_a_collapse_refuses_exactly_when_it_replaces_or_drops_a_frame_a_type_mentions() -> None:
    rng = random.Random(20)
    outcomes = Counter()
    for _ in range(60):
        m, label = _with_frame_typed_constant(rng, random_model(rng, max_entities=3, max_frames=3))
        nontrivial = {f.label for f in m.frames if not f.trivial}
        steps = [(lambda l=l: apply(m, TrivializeFrame(l)), {l}) for l in sorted(nontrivial)]
        steps.append((lambda: trivialize_all(m), nontrivial))
        while steps:
            step, replaced = steps.pop()
            try:
                out = step()
            except FrameTypedConstant as err:
                assert label in replaced
                assert "'here'" in str(err) and f"frame {label!r}" in str(err)
                outcomes["refused"] += 1
                continue
            assert label not in replaced
            outcomes["kept"] += 1
            if out.is_extensional:
                steps.append((lambda out=out: extensionalize(out), {f.label for f in out.frames}))
    assert outcomes["refused"] > 50 and outcomes["kept"] > 50, outcomes


FAILS_VALIDATION = "^model fails validation"


def test_collapse_refuses_tables_that_are_not_one_row_per_index() -> None:
    m = two_frame_model()
    (p,) = m.constants
    rows = list(p.table)
    off_space = [
        (Index((("W", "w0"), ("T", "t9"))), rel_value()),
        (Index((("T", "t0"), ("W", "w1"))), rel_value(("e0",))),  # components out of order
        (Index((("W", "w1"), ("T", "t9"))), rel_value()),
        (Index((("W", "w0"), ("T", "t9"))), rel_value(("e0",))),  # off the space, twice
    ]
    no_t = [(Index((("W", "w1"),)), rel_value())]  # no T component
    tables = {
        "duplicate": rows + [(rows[0][0], rel_value(("e0",))), rows[-1]],
        "off the space": rows[:1] + off_space + rows[1:],
        "missing": rows[1:],
        "all three": rows[2:] + off_space + [rows[2]],
        "no T component": rows + no_t,
    }
    kinds = set()
    for name, table in tables.items():
        with pytest.raises(InvalidModel, match=FAILS_VALIDATION) as e:
            Model(m.entity_domain, m.frames, (Constant("p", p.semtype, tuple(table)),), m.designated)
        assert e.value.violations, name
        kinds |= {v.kind for v in e.value.violations}
    assert kinds == {"DuplicateIndexEntry", "UnexpectedIndexEntry", "MissingIndexEntry"}
    # a half-collapsed model missing a row
    half = apply(m, TrivializeFrame("W"))
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION):
        Model(half.entity_domain, half.frames, (Constant("p", p.semtype, half.constants[0].table[1:]),))
    # a fully collapsed model whose rows repeat and leave the space
    flat = trivialize_all(m)
    (s0,) = index_space(flat.frames)
    odd = Index((("T", "k0"), ("W", "k0")))
    table = ((odd, rel_value()), (s0, rel_value()), (s0, rel_value(("e0",))), (odd, rel_value()))
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION) as e:
        Model(flat.entity_domain, flat.frames, (Constant("p", p.semtype, table),))
    # reported in table row order
    assert [v.kind for v in e.value.violations] == ["UnexpectedIndexEntry", "DuplicateIndexEntry", "DuplicateIndexEntry"]


def test_a_missing_row_is_refused_not_laundered_by_the_collapse() -> None:
    """Moving rows one by one once turned this model into a valid collapse
    with no violations, whose equivalence check then reported no mismatch."""
    w1 = Index((("W", "w1"),))
    constants = tuple(
        Constant(c.name, c.semtype, tuple(r for r in c.table if r[0] is not w1)) if c.name == "book" else c
        for c in MODAL.constants
    )
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION) as e:
        Model(MODAL.entity_domain, MODAL.frames, constants, MODAL.designated)
    assert [(v.kind, v.constant) for v in e.value.violations] == [("MissingIndexEntry", "book")]
    flat = trivialize_all(MODAL)
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION):
        Model(flat.entity_domain, flat.frames, tuple(
            Constant(c.name, c.semtype, ()) if c.name == "book" else c for c in flat.constants
        ))


def _collapsed_frame_by_frame(m: Model, chosen: dict[str, str]) -> Model:
    for label, element in chosen.items():
        m = _collapsed_by_rows(m, label, element)
    return m


def _assert_one_pullback_is_the_path(m: Model) -> int:
    """trivialize_all against the path of single collapses, and the collapse
    of every nonempty set of nontrivial frames, at every tuple of their
    elements, against the row-by-row reference; returns the number of sets
    and tuples compared."""
    nontrivial = [f for f in m.frames if not f.trivial]
    assert trivialize_all(m) == compose_path(m, [TrivializeFrame(f.label) for f in nontrivial])
    compared = 0
    for size in range(1, len(nontrivial) + 1):
        for frames in itertools.combinations(nontrivial, size):
            for elements in itertools.product(*(f.domain.elements for f in frames)):
                chosen = dict(zip((f.label for f in frames), elements))
                sections = {label: section(m.frame(label), w) for label, w in chosen.items()}
                got, want = pullback(m, sections), _collapsed_frame_by_frame(m, chosen)
                assert got == want
                compared += 1
    return compared


def test_one_pullback_is_the_path_of_single_collapses() -> None:
    compared = {
        p.name: _assert_one_pullback_is_the_path(load_model_file(str(p)).model)
        for p in sorted(MODELS_DIR.glob("*.json"))
    }
    # every set S of the k two-element frames, at each of 2^|S| tuples: 3^k - 1
    assert compared == {"extensional.json": 0, "modal.json": 2, "modal_tense.json": 8, "modal_tense_location.json": 26}
    rng = random.Random(30)
    assert sum(_assert_one_pullback_is_the_path(random_model(rng, max_frames=3)) for _ in range(50)) == 435


def test_each_collapse_and_extensionalize_is_one_pullback(monkeypatch) -> None:
    m = load_model_file(str(MODELS_DIR / "modal_tense_location.json")).model
    calls = []
    real = morphisms._pullback
    monkeypatch.setattr(morphisms, "_pullback", lambda *args: calls.append(args[3]) or real(*args))
    apply(m, TrivializeFrame("T", "t1"))
    flat = trivialize_all(m)
    extensionalize(flat)
    # T at t1 keeps the positions 4w + 2 + l; w0, t0, l0 is position 0
    assert calls == [[2, 3, 6, 7], [0], [0]]


def test_each_collapse_and_extensionalize_builds_one_model(monkeypatch) -> None:
    """The result is the one Model a collapse builds: the target's indices
    come from its frames, not from a second, constant-free Model, and the
    Model keeps the constants it is given, built once each."""
    m = load_model_file(str(MODELS_DIR / "modal_tense_location.json")).model
    flat = trivialize_all(m)
    assert m.columns and flat.columns  # warm: the sources' columns are built
    built, constants = [], []
    real, real_constant = Model.__post_init__, Constant.__post_init__
    monkeypatch.setattr(Model, "__post_init__", lambda self: built.append(self) or real(self))
    monkeypatch.setattr(Constant, "__post_init__", lambda self: constants.append(self) or real_constant(self))
    counts = []
    for collapse in (
        lambda: apply(m, TrivializeFrame("T", "t1")),
        lambda: trivialize_all(m),
        lambda: extensionalize(flat),
    ):
        built.clear()
        constants.clear()
        assert collapse() is built[-1]
        counts.append((len(built), len(constants)))
    assert len(m.constants) == 6
    assert counts == [(1, 6), (1, 6), (1, 6)]


# ---------------------------------------------------------------------------
# extensionalize and the equivalence check


def test_extensionalize() -> None:
    flat = extensionalize(trivialize_all(MODAL))
    assert flat.frames == ()
    assert table_of(flat, "read") == ((EMPTY_INDEX, rel_value()),)
    assert extensionalize(EXT) == EXT
    with pytest.raises(NotFullyTrivial):
        extensionalize(MODAL)


def test_verify_equivalence_needs_trivial_model() -> None:
    with pytest.raises(NotFullyTrivial):
        verify_equivalence(MODAL, [Const("read")])


def test_verify_equivalence_on_collapsed_modal_model() -> None:
    flat = trivialize_all(MODAL)
    terms, gs = default_checks(flat)
    report = verify_equivalence(flat, terms, gs)
    assert report.total == len(terms) * len(gs)
    assert report.mismatches == ()
    # this model's constants are all relation typed, so no bare-entity bucket
    assert {"predicates", "variables", "composites"} <= set(report.by_category())


def test_verify_equivalence_error_agreement() -> None:
    # iota with no witness fails identically on both sides of the comparison
    flat = trivialize_all(MODAL)
    lonely = Iota("v", PredApp("read", (Var("v"), Var("v"))))
    report = verify_equivalence(flat, [lonely])
    (record,) = report.checks
    assert record.agree
    assert record.intensional == "error:PresuppositionFailure"
    assert record.extensional == "error:PresuppositionFailure"


def test_categorize() -> None:
    assert categorize(Const("read"), MODAL) == "predicates"
    assert categorize(Const("zz"), MODAL) == "constants"
    assert categorize(Var("x"), MODAL) == "variables"
    assert categorize(PredApp("read", ()), MODAL) == "predicates"
    assert categorize(Iota("x", Var("x")), MODAL) == "composites"


def test_report_totals_and_summary() -> None:
    ext = extensionalize(trivialize_all(MODAL))
    ok = CheckRecord("predicates", PredApp("p", (Var("x"),)), (), (Truth(1), None, ext), (Truth(1), None, ext), True)
    bad = CheckRecord("variables", Var("x"), (("x", "e0"),), (Truth(0), None, ext), (None, "UnknownEntity", ext), False)
    assert record_fields(ok) == ("predicates", "(pred p x)", (), "1", "1", True)
    assert record_fields(bad) == ("variables", "x", (("x", "e0"),), "0", "error:UnknownEntity", False)
    report = EquivalenceReport((ok, bad, ok))
    assert report.total == 3
    assert report.mismatches == (bad,)
    assert report.by_category() == {"predicates": (2, 0), "variables": (1, 1)}
    assert report.summary_lines() == [
        "predicates: 0 mismatches / 2 checks",
        "variables: 1 mismatches / 1 checks",
        "total: 1 mismatches / 3 checks",
    ]


@given(st.integers(0, 10_000))
def test_equivalence_on_random_models_and_terms(seed: int) -> None:
    rng = random.Random(seed)
    m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
    terms = [random_term(rng, m) for _ in range(10)]
    ents = m.entity_domain.elements
    gs = [Assignment(tuple((v, rng.choice(ents)) for v in ("x", "y", "z")))]
    report = verify_equivalence(m, terms, gs)
    assert report.mismatches == ()
    assert report.total == len(terms)


def _count_renders(monkeypatch) -> Counter:
    """Count render_term and render_value calls where morphisms and cli look them up."""
    calls: Counter = Counter()
    for module in (morphisms, cli):
        for name in ("render_term", "render_value"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    return calls


def test_a_check_renders_its_texts_on_first_read_and_once(monkeypatch) -> None:
    calls = _count_renders(monkeypatch)
    records = [r for m, terms, gs in _differential_corpus(5) for r in verify_equivalence(m, terms, gs).checks]
    assert len(records) > 500 and calls == Counter()
    first = [record_fields(r) for r in records]
    assert [record_fields(r) for r in records] == first
    values = sum(not side.startswith("error:") for *_, left, right, _ in first for side in (left, right))
    assert calls == Counter({"render_term": len(records), "render_value": values})


@pytest.mark.parametrize("name", ["extensional", "modal", "modal_tense", "modal_tense_location"])
def test_verify_theorem_renders_no_text(name: str, monkeypatch, capsys) -> None:
    calls = _count_renders(monkeypatch)
    assert cli.main(["verify-theorem", str(MODELS_DIR / f"{name}.json")]) == 0
    assert capsys.readouterr().out.endswith(" checks\n")
    assert calls == Counter()


# ---------------------------------------------------------------------------
# diagrams


def test_diagram_one_frame() -> None:
    assert diagram_export(MODAL) == "node W\nnode W'\nedge W W' W\n"


def test_diagram_two_frames_golden() -> None:
    got = diagram_export(two_frame_model())
    assert got == (
        "node W'T\n"
        "node W'T'\n"
        "node WT\n"
        "node WT'\n"
        "edge W'T W'T' T\n"
        "edge WT W'T W\n"
        "edge WT WT' T\n"
        "edge WT' W'T' W\n"
    )


def test_diagram_skips_trivial_frames() -> None:
    m = two_frame_model()
    assert diagram_export(apply(m, TrivializeFrame("W"))) == "node T\nnode T'\nedge T T' T\n"
    assert diagram_export(trivialize_all(m)) == "node 1\n"


def test_diagram_three_frames_counts() -> None:
    m = load_model_file(str(MODELS_DIR / "modal_tense_location.json")).model
    assert [f.trivial for f in m.frames] == [False, False, False]
    lines = diagram_export(m).strip().split("\n")
    assert sum(1 for l in lines if l.startswith("node ")) == 8
    assert sum(1 for l in lines if l.startswith("edge ")) == 12


# ---------------------------------------------------------------------------
# the shared typecheck


def _reference_check(m: Model, term, g: Assignment) -> tuple:
    """One check's record_fields as the two public evaluators give them, each
    typechecking, with every text rendered here."""
    ext, (s0,) = extensionalize(m), index_space(m.frames)
    routes = ((lambda: eval_int(term, m, g, s0), m), (lambda: eval_int(term, ext, g), ext))
    outcomes = []
    for route, home in routes:
        try:
            outcomes.append((route(), None, home))
        except Exception as err:
            outcomes.append((None, type(err).__name__, home))
    (val_i, err_i, _), (val_e, err_e, _) = outcomes
    left, right = (
        f"error:{err}" if err else render_value(val, home) for val, err, home in outcomes
    )
    agree = val_i == val_e if err_i is None and err_e is None else err_i == err_e
    return categorize(term, m), render_term(term), g.bindings, left, right, agree


def _differential_corpus(seed: int):
    """(collapsed model, terms, assignments) triples mixing well-typed random
    terms with modal, ill-typed and unbound ones. The one invalid model drawn,
    whose table is not one row per index, is refused instead."""
    rng = random.Random(seed)
    corpus = []
    for i in range(24):
        m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
        ents = m.entity_domain.elements
        terms = [random_term(rng, m) for _ in range(6)]
        label = rng.choice(m.frames).label
        terms += [Diamond(label, t) for t in terms[:3]] + [Diamond("Q", terms[0])]
        pred = next(c for c in m.constants if isinstance(c.semtype, RelType))
        terms += [
            Const("nope"),
            PredApp("nope", (Var("x"),)),
            PredApp(pred.name, ()),
            PredApp(pred.name, (Var("x"),) * (len(pred.semtype.components) + 1)),
            FuncApp("f0", ()),
            Var("unassigned"),
            Not(Var("x")),
        ]
        gs = [
            Assignment(tuple((v, rng.choice(ents)) for v in ("x", "y", "z"))),
            Assignment((("x", "zz"), ("y", ents[0]), ("z", ents[0]))),
        ]
        if i == 0:  # drop a table row: the tables fail validation and build no model to check
            first, *rest = m.constants
            emptied = Constant(first.name, first.semtype, ())
            with pytest.raises(InvalidModel, match=FAILS_VALIDATION):
                Model(m.entity_domain, m.frames, (emptied, *rest))
            continue
        corpus.append((m, terms, gs))
    return corpus


def test_shared_typecheck_matches_the_public_evaluators() -> None:
    kinds: Counter = Counter()
    for m, terms, gs in _differential_corpus(5):
        report = verify_equivalence(m, terms, gs)
        expected = tuple(_reference_check(m, t, g) for t in terms for g in gs)
        assert tuple(map(record_fields, report.checks)) == expected
        right = [extensional for *_, extensional, _ in expected]
        kinds.update(side.removeprefix("error:") for side in right if "error:" in side)
        kinds["value"] += sum("error:" not in side for side in right)
    for kind in ("value", "UngroundedType", "UnboundVariable", "TermTypeError",
                 "UnknownEntity", "PresuppositionFailure"):
        assert kinds[kind] >= 5, kinds


def _count_root_typechecks(monkeypatch) -> list:
    roots = []
    real = denote._type_of

    def counting(term, m, env, path):
        if path == "root":
            roots.append(term)
        return real(term, m, env, path)

    monkeypatch.setattr(denote, "_type_of", counting)
    return roots


def test_each_check_typechecks_once_unless_modal(monkeypatch) -> None:
    rng = random.Random(9)
    m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
    terms = [random_term(rng, m) for _ in range(20)]
    ents = m.entity_domain.elements
    gs = [
        Assignment(tuple((v, rng.choice(ents)) for v in ("x", "y", "z"))),
        Assignment(tuple((v, ents[0]) for v in ("x", "y", "z"))),
    ]
    roots = _count_root_typechecks(monkeypatch)
    verify_equivalence(m, terms, gs)
    assert len(roots) == len(terms) * len(gs)
    roots.clear()
    modal = [Diamond(m.frames[0].label, t) for t in terms]
    verify_equivalence(m, modal, gs)
    assert len(roots) == 2 * len(modal) * len(gs)


def test_each_assignment_environment_is_built_once_per_call(monkeypatch) -> None:
    rng = random.Random(12)
    m = trivialize_all(random_model(rng, max_entities=3, min_frames=1, max_frames=2))
    terms = [random_term(rng, m) for _ in range(10)]
    ents = m.entity_domain.elements
    gs = [Assignment(tuple((v, ents[i % len(ents)]) for v in ("x", "y", "z"))) for i in range(3)]
    built = []
    real = denote._env_of

    def counting(g, model):
        built.append(g)
        return real(g, model)

    for module in (denote, morphisms):
        monkeypatch.setattr(module, "_env_of", counting)
    report = verify_equivalence(m, terms, gs)
    assert report.total == 30 and not report.mismatches
    assert built == gs


def test_a_check_records_the_first_entry_error_on_both_routes() -> None:
    flat = trivialize_all(MODAL)
    first, *rest = flat.constants
    unknown = Assignment((("x", "zz"),))
    # invalid tables are refused where the model is built, before any check, not agreed on
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION):
        Model(flat.entity_domain, flat.frames, (Constant(first.name, first.semtype, ()), *rest))
    ext = extensionalize(flat)
    first, *rest = ext.constants
    with pytest.raises(InvalidModel, match=FAILS_VALIDATION):
        Model(ext.entity_domain, (), (Constant(first.name, first.semtype, ()), *rest))
    assert extensionalize(ext) is ext  # frame-free, a model is its own extensionalization
    # the typecheck error, then the unknown entity
    for m, term, kind in (
        (flat, Not(Var("x")), "TermTypeError"),
        (flat, Var("x"), "UnknownEntity"),
    ):
        (check,) = verify_equivalence(m, [term], [unknown]).checks
        assert check.intensional == check.extensional == f"error:{kind}"


def test_lam_does_not_enumerate_type_domains(monkeypatch) -> None:
    flat = trivialize_all(MODAL)
    ext = extensionalize(flat)
    # validation enumerates function domains; it ran as each model was built
    sized = []
    real = semmodel._card
    monkeypatch.setattr(semmodel, "_card", lambda *a: sized.append(a) or real(*a))
    is_student = Lam("v", EntType(), PredApp("student", (Var("v"),)))
    the_student = Iota("w", PredApp("student", (Var("w"),)))
    assert eval_int(App(is_student, the_student), ext) == Truth(1)
    assert eval_int(is_student, flat) == eval_int(is_student, ext)
    assert sized == []
