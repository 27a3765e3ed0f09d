"""Typed domains: enumeration order, cardinality, validation, assignments.

Every frozen list below was derived by hand from the enumeration rules:
entities in carrier order, truth values 0 then 1, pairs and function graphs
in lexicographic order with the last coordinate varying fastest, and subsets
in ascending bitmask order over the member enumeration.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import itertools
import pickle
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsem import generators, semmodel
from finsem.kripke import Frame
from finsem.modelfile import load_model_file
from finsem.relalg import FinSet, FinsemError, Relation
from finsem.semmodel import (
    EMPTY_INDEX,
    ENT_TYPE,
    MAX_TYPE_DEPTH,
    TRUTH_TYPE,
    Assignment,
    Constant,
    DomainTooLarge,
    EntType,
    Entity,
    FnType,
    FnV,
    IdxType,
    Index,
    IndexElem,
    InvalidModel,
    Model,
    PairType,
    RelType,
    SetType,
    SetV,
    Truth,
    TruthType,
    TupleV,
    UngroundedType,
    UnknownFrame,
    Violation,
    _checker,
    arg_types,
    fn_arity,
    fn_type,
    index_space,
    parse_type,
    render_type,
    render_value,
    type_domain,
    validate,
)

from helpers import MODELS_DIR, REPO_ROOT, child_env


def small_frame(label: str, elements: tuple[str, ...], pairs: set) -> Frame:
    dom = FinSet(label, elements)
    return Frame(label, dom, Relation(dom, dom, frozenset(pairs)))


ENTS = FinSet("E", ("a", "b"))
FRAME_W = small_frame("W", ("w0", "w1"), {("w0", "w1")})
FRAME_T = small_frame("T", ("t0", "t1"), {("t0", "t1")})
M = Model(ENTS, (FRAME_W,), ())
M2 = Model(ENTS, (FRAME_W, FRAME_T), ())
M0 = Model(ENTS, (), ())

A, B = Entity("a"), Entity("b")
T0, T1 = Truth(0), Truth(1)


# ---------------------------------------------------------------------------
# type syntax


@pytest.mark.parametrize(
    "text,ty",
    [
        ("e", EntType()),
        ("t", TruthType()),
        ("s(W)", IdxType("W")),
        ("pair(e,t)", PairType(EntType(), TruthType())),
        ("set(e)", SetType(EntType())),
        ("rel(e,e)", RelType((EntType(), EntType()))),
        ("fn(e,t)", FnType(EntType(), TruthType())),
        (
            "fn(e,e,t)",
            FnType(PairType(EntType(), EntType()), TruthType()),
        ),
        (
            "set(pair(e,s(W)))",
            SetType(PairType(EntType(), IdxType("W"))),
        ),
    ],
)
def test_type_syntax_round_trip(text: str, ty) -> None:
    assert parse_type(text) == ty
    assert render_type(ty) == text
    assert parse_type(render_type(ty)) == ty


def test_type_syntax_accepts_spaces() -> None:
    assert parse_type("fn( e , e , t )") == parse_type("fn(e,e,t)")


@pytest.mark.parametrize(
    "bad", ["", "q", "pair(e)", "set(e,e)", "fn(e)", "s(W", "e)t", "rel()"]
)
def test_type_syntax_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_type(bad)


def test_type_parser_refuses_nesting_past_the_limit() -> None:
    deepest = "set(" * MAX_TYPE_DEPTH + "e" + ")" * MAX_TYPE_DEPTH
    assert render_type(parse_type(deepest)) == deepest
    for depth in (MAX_TYPE_DEPTH + 1, 1200):
        with pytest.raises(ValueError, match="nested deeper"):
            parse_type("set(" * depth + "e" + ")" * depth)


def test_fn_type_helpers() -> None:
    ternary = fn_type([EntType(), EntType(), TruthType()], EntType())
    assert fn_arity(ternary) == 3
    assert arg_types(ternary, 3) == [EntType(), EntType(), TruthType()]
    assert arg_types(ternary, 1) == [ternary.domain]
    with pytest.raises(ValueError):
        arg_types(ternary, 2)
    with pytest.raises(ValueError):
        fn_type([], EntType())


# ---------------------------------------------------------------------------
# value plumbing


def test_truth_values_are_bits() -> None:
    # a bool would be shared as Truth(1) or Truth(0) and render as True or False
    for flag in (2, True, False):
        with pytest.raises(ValueError):
            Truth(flag)


def test_fnv_sorts_entries_and_rejects_duplicates() -> None:
    f = FnV(((B, T1), (A, T0)))
    assert f.entries == ((A, T0), (B, T1))
    assert f.apply(B) == T1
    with pytest.raises(KeyError):
        f.apply(Entity("c"))
    with pytest.raises(ValueError):
        FnV(((A, T0), (A, T1)))


def test_render_value() -> None:
    assert render_value(A, M) == "a"
    assert render_value(T1, M) == "1"
    assert render_value(IndexElem("W", "w0"), M) == "W:w0"
    assert render_value(TupleV((A, T0)), M) == "(a,0)"
    assert render_value(SetV(frozenset({B, A})), M) == "{a, b}"
    assert render_value(FnV(((B, T1), (A, T0))), M) == "{a->0, b->1}"


# ---------------------------------------------------------------------------
# indices


def test_index_space_orders() -> None:
    assert index_space(M0.frames) == [EMPTY_INDEX]
    assert [s.render() for s in index_space(M.frames)] == ["w0", "w1"]
    assert [s.render() for s in index_space(M2.frames)] == [
        "w0,t0",
        "w0,t1",
        "w1,t0",
        "w1,t1",
    ]


def test_the_index() -> None:
    # an extensional-mode model has exactly one index, at position 0, which is
    # where evaluation without an explicit index happens
    assert M0.is_extensional and index_space(M0.frames) == [EMPTY_INDEX]
    assert M0.positions == {EMPTY_INDEX: 0}
    assert not M.is_extensional
    collapsed = Model(ENTS, (small_frame("W", ("k0",), {("k0", "k0")}),), ())
    assert collapsed.is_extensional
    assert index_space(collapsed.frames) == [Index((("W", "k0"),))]
    assert collapsed.positions == {Index((("W", "k0"),)): 0}


def test_index_component_and_replace() -> None:
    s = Index((("W", "w0"), ("T", "t1")))
    assert s.component("T") == "t1"
    assert s.replace("W", "w1") == Index((("W", "w1"), ("T", "t1")))
    with pytest.raises(UnknownFrame):
        s.component("L")
    with pytest.raises(UnknownFrame):
        s.replace("L", "l0")
    assert EMPTY_INDEX.render() == "()"


def test_successor_positions_follow_the_frame_in_its_order() -> None:
    three = small_frame("L", ("l0", "l1", "l2"), {("l0", "l2"), ("l0", "l1"), ("l2", "l0")})
    m = Model(ENTS, (FRAME_W, three, FRAME_T), ())
    assert "successor_positions" not in vars(m)  # nothing is built before first use
    space = list(m.positions)
    for f in m.frames:
        want = tuple(
            tuple(
                m.positions[s.replace(f.label, v)]
                for v in f.successors(s.component(f.label))
            )
            for s in space
        )
        assert m.successor_positions[f.label] == want
    assert m.successor_positions["L"][0] == (1 * 2, 2 * 2)  # l1 then l2, stride 2
    assert "Q" not in m.successor_positions


def test_position_tables_match_the_index_route_on_random_models() -> None:
    """successor_positions and columns against Index.replace, Frame.successors
    and Constant.value_at, on models whose rows arrive shuffled."""
    rng = random.Random(61)
    for nframes in (0, 1, 2, 3):
        for _ in range(12):
            drawn = generators.random_model(rng, min_frames=nframes, max_frames=nframes)
            shuffled = []
            for c in drawn.constants:
                rows = list(c.table)
                rng.shuffle(rows)
                shuffled.append(Constant(c.name, c.semtype, tuple(rows)))
            rng.shuffle(shuffled)
            m = Model(drawn.entity_domain, drawn.frames, tuple(shuffled))
            for f in m.frames:
                table = m.successor_positions[f.label]
                for s, p in m.positions.items():
                    want = tuple(
                        m.positions[s.replace(f.label, v)]
                        for v in f.successors(s.component(f.label))
                    )
                    assert table[p] == want, (f.label, s.render())
            for c in m.constants:
                column = m.columns[c.name]
                assert len(column) == len(m.positions)
                for s, p in m.positions.items():
                    assert column[p] == c.value_at(s), (c.name, s.render())


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_ground_types() -> None:
    assert type_domain(M, EntType()) == [A, B]
    assert type_domain(M, TruthType()) == [T0, T1]
    assert type_domain(M, IdxType("W")) == [IndexElem("W", "w0"), IndexElem("W", "w1")]


def test_enumerate_pairs_last_coordinate_fastest() -> None:
    got = type_domain(M, PairType(EntType(), TruthType()))
    assert got == [TupleV((A, T0)), TupleV((A, T1)), TupleV((B, T0)), TupleV((B, T1))]


def test_enumerate_sets_bitmask_order() -> None:
    got = type_domain(M, SetType(EntType()))
    assert got == [
        SetV(frozenset()),
        SetV(frozenset({A})),
        SetV(frozenset({B})),
        SetV(frozenset({A, B})),
    ]


def test_enumerate_relations() -> None:
    got = type_domain(M, RelType((EntType(), EntType())))
    assert len(got) == 16
    aa, ab, ba, bb = (TupleV(p) for p in ((A, A), (A, B), (B, A), (B, B)))
    assert got[0] == SetV(frozenset())
    assert got[1] == SetV(frozenset({aa}))
    assert got[2] == SetV(frozenset({ab}))
    assert got[3] == SetV(frozenset({aa, ab}))
    assert got[4] == SetV(frozenset({ba}))
    assert got[15] == SetV(frozenset({aa, ab, ba, bb}))


def test_enumerate_functions_lexicographic() -> None:
    got = type_domain(M, FnType(EntType(), TruthType()))
    assert got == [
        FnV(((A, T0), (B, T0))),
        FnV(((A, T0), (B, T1))),
        FnV(((A, T1), (B, T0))),
        FnV(((A, T1), (B, T1))),
    ]


def test_cardinality_formulas() -> None:
    cases = {
        "e": 2,
        "t": 2,
        "s(W)": 2,
        "pair(e,t)": 4,
        "set(e)": 4,
        "rel(e,e)": 16,
        "fn(e,t)": 4,
        "fn(e,e,t)": 16,
        "set(set(e))": 16,
    }
    for text, n in cases.items():
        assert len(type_domain(M, parse_type(text))) == n


def test_domain_too_large(monkeypatch) -> None:
    with pytest.raises(DomainTooLarge):
        type_domain(M, parse_type("set(set(set(set(e))))"))
    monkeypatch.setattr(semmodel, "MAX_DOMAIN_SIZE", 3)
    with pytest.raises(DomainTooLarge):
        type_domain(M, parse_type("set(e)"))
    # the refusal happens before any enumeration of intermediate layers
    monkeypatch.setattr(semmodel, "MAX_DOMAIN_SIZE", 100)
    with pytest.raises(DomainTooLarge):
        type_domain(M, parse_type("rel(set(set(e)),set(set(e)))"))


def test_function_type_refused_before_exponentiating(monkeypatch) -> None:
    # 30**4 = 810000 keys and values each: the power would have millions of digits
    m = Model(FinSet("E", tuple(f"x{i}" for i in range(30))), (), ())
    quad = "pair(pair(e,e),pair(e,e))"
    start = time.perf_counter()
    with pytest.raises(DomainTooLarge):
        type_domain(m, parse_type(f"fn({quad},{quad})"))
    assert time.perf_counter() - start < 0.1
    # the early refusal is exact: 2 ** 4 = 16 fits a limit of 16, not of 15
    monkeypatch.setattr(semmodel, "MAX_DOMAIN_SIZE", 16)
    assert len(type_domain(M, parse_type("fn(set(e),t)"))) == 16
    monkeypatch.setattr(semmodel, "MAX_DOMAIN_SIZE", 15)
    with pytest.raises(DomainTooLarge):
        type_domain(M, parse_type("fn(set(e),t)"))


def test_ungrounded_index_type() -> None:
    with pytest.raises(UngroundedType):
        type_domain(M, IdxType("T"))


def test_inhabits() -> None:
    assert _checker(M, EntType())(A)
    assert not _checker(M, EntType())(Entity("zz"))
    assert not _checker(M, TruthType())(A)
    assert _checker(M, RelType((EntType(), EntType())))(SetV(frozenset({TupleV((A, B))})))
    assert not _checker(M, RelType((EntType(), EntType())))(SetV(frozenset({TupleV((A,))})))
    total = FnV(((A, B), (B, B)))
    partial = FnV(((A, B),))
    assert _checker(M, FnType(EntType(), EntType()))(total)
    assert not _checker(M, FnType(EntType(), EntType()))(partial)
    # as many entries as the domain has values, but one key outside it
    assert not _checker(M, FnType(EntType(), EntType()))(FnV(((A, B), (Entity("zz"), B))))
    # an oversized domain still raises before any size is compared
    with pytest.raises(DomainTooLarge):
        _checker(M, FnType(parse_type("rel(e,e,e,e,e)"), EntType()))(partial)


def test_inhabits_index_elements() -> None:
    assert _checker(M, IdxType("W"))(IndexElem("W", "w0"))
    assert not _checker(M, IdxType("W"))(IndexElem("W", "w9"))
    with pytest.raises(UngroundedType):
        _checker(M, IdxType("T"))(IndexElem("T", "t0"))


@given(st.sampled_from(["e", "t", "set(e)", "pair(e,e)", "fn(e,e)", "rel(e,t)"]))
def test_enumeration_is_exhaustive_and_disjoint(text: str) -> None:
    ty = parse_type(text)
    values = type_domain(M, ty)
    assert len(set(values)) == len(values)
    assert all(_checker(M, ty)(v) for v in values)


# ---------------------------------------------------------------------------
# assignments


def test_assignment_normalizes_and_rejects_duplicates() -> None:
    g = Assignment((("y", "b"), ("x", "a")))
    assert g.bindings == (("x", "a"), ("y", "b"))
    with pytest.raises(FinsemError, match="^variable 'x' is assigned more than once$"):
        Assignment((("x", "a"), ("x", "b")))
    # the first name seen again in the order given, as --assign pairs come
    with pytest.raises(FinsemError, match="^variable 'y' is assigned more than once$"):
        Assignment((("y", "b"), ("x", "a"), ("y", "c"), ("x", "b")))


# ---------------------------------------------------------------------------
# models and validation


def unary(name: str, rows) -> Constant:
    return Constant(name, RelType((EntType(),)), rows)


def test_model_normalizes_constants() -> None:
    rows_w1_first = (
        (Index((("W", "w1"),)), SetV(frozenset())),
        (Index((("W", "w0"),)), SetV(frozenset({TupleV((A,))}))),
    )
    q, p = unary("q", rows_w1_first), unary("p", rows_w1_first)
    m = Model(ENTS, (FRAME_W,), (q, p))
    # constants sorted by name, each kept as given: its rows stay in their order
    assert m.constants == (p, q) and m.constants[0] is p
    assert [idx.render() for idx, _ in m.constants[0].table] == ["w1", "w0"]
    # columns read the tables in position order
    assert list(m.positions) == [Index((("W", "w0"),)), Index((("W", "w1"),))]
    assert m.columns == dict.fromkeys(("p", "q"), (SetV(frozenset({TupleV((A,))})), SetV(frozenset())))


def test_model_rejects_bad_designated_and_duplicates() -> None:
    with pytest.raises(ValueError):
        Model(ENTS, (FRAME_W,), (), (("T", "t0"),))
    with pytest.raises(ValueError):
        Model(ENTS, (FRAME_W,), (), (("W", "w9"),))
    # two for one frame: designated_for and the model file would each pick another
    for designated in ((("W", "w1"), ("W", "w0")), (("W", "w0"), ("W", "w1"))):
        with pytest.raises(ValueError, match="^more than one designated element for a frame$"):
            Model(ENTS, (FRAME_W,), (), designated)
    with pytest.raises(ValueError):
        Model(ENTS, (FRAME_W, FRAME_W), ())
    with pytest.raises(ValueError):
        Model(ENTS, (), (unary("p", ((EMPTY_INDEX, SetV(frozenset())),)),) * 2)


def test_designated_for_defaults_to_first_element() -> None:
    m = Model(ENTS, (FRAME_W,), (), (("W", "w1"),))
    assert m.designated_for("W") == "w1"
    assert M.designated_for("W") == "w0"
    with pytest.raises(UnknownFrame):
        M.designated_for("T")


def test_validate_clean_model() -> None:
    rows = tuple((s, SetV(frozenset({TupleV((A,))}))) for s in index_space(M.frames))
    m = Model(ENTS, (FRAME_W,), (unary("p", rows),))
    assert validate(m) == m.columns


def test_built_lookups_keep_equality_structural() -> None:
    def build() -> Model:
        frame = small_frame("W", ("w0", "w1"), {("w0", "w1")})
        rows = tuple((s, SetV(frozenset({TupleV((A,))}))) for s in index_space(M.frames))
        return Model(ENTS, (frame,), (unary("p", rows),))

    used = build()
    assert used.constants[0].value_at(Index((("W", "w1"),))) == SetV(
        frozenset({TupleV((A,))})
    )
    assert used.frame("W").successors("w0") == ["w1"]
    assert used.signature.types == {"p": RelType((EntType(),))}
    assert "signature" in vars(used)
    fresh = build()
    assert used == fresh
    assert hash(used) == hash(fresh)


def test_validate_reports_every_problem() -> None:
    w0 = Index((("W", "w0"),))
    t0 = Index((("T", "t0"),))
    with pytest.raises(InvalidModel, match="^model fails validation") as e:
        Model(
            ENTS,
            (FRAME_W,),
            (
                unary("gap", ((w0, SetV(frozenset())),)),
                unary("stray", (
                    (w0, SetV(frozenset())),
                    (Index((("W", "w1"),)), SetV(frozenset())),
                    (t0, SetV(frozenset())),
                )),
                unary("wrong", (
                    (w0, A),
                    (Index((("W", "w1"),)), SetV(frozenset())),
                )),
            ),
        )
    kinds = {(v.kind, v.constant) for v in e.value.violations}
    assert kinds == {
        ("MissingIndexEntry", "gap"),
        ("UnexpectedIndexEntry", "stray"),
        ("IllTypedValue", "wrong"),
    }


def test_validate_duplicate_index_entry() -> None:
    w0 = Index((("W", "w0"),))
    w1 = Index((("W", "w1"),))
    p = unary("p", ((w0, SetV(frozenset())), (w0, SetV(frozenset({TupleV((A,))}))), (w1, SetV(frozenset()))))
    with pytest.raises(InvalidModel, match="^model fails validation") as e:
        Model(ENTS, (FRAME_W,), (p,))
    assert {v.kind for v in e.value.violations} == {"DuplicateIndexEntry"}
    # lookups read the first row for an index, as the report counts it
    assert p.value_at(w0) == SetV(frozenset())


def test_validate_empty_entity_domain() -> None:
    with pytest.raises(InvalidModel) as e:
        Model(FinSet("E", ()), (), ())
    assert [v.kind for v in e.value.violations] == ["EmptyEntityDomain"]
    assert str(e.value) == "model fails validation (1 violations; first: EmptyEntityDomain  entity domain is empty)"


def test_validate_checks_each_value_against_its_own_constants_type() -> None:
    # a is a value of x: e and not of y: t; x's verdict on a must not answer for y
    x = Constant("x", ENT_TYPE, ((EMPTY_INDEX, A),))
    y = Constant("y", TRUTH_TYPE, ((EMPTY_INDEX, A),))
    with pytest.raises(InvalidModel) as e:
        Model(ENTS, (), (x, y))
    assert e.value.violations == (Violation("IllTypedValue", "y", "index (): value does not inhabit t"),)


def test_violation_is_plain_data() -> None:
    v = Violation("MissingIndexEntry", "p", "index w0")
    assert (v.kind, v.constant, v.detail) == ("MissingIndexEntry", "p", "index w0")


def _violations_by_rows(m: Model, constants) -> list[tuple[str, str, str]]:
    """validate's table tests one row at a time, on sets of Index rows, for
    constants in place of m's, over m's entities and frames."""
    out, space = [], index_space(m.frames)
    for c in sorted(constants, key=lambda c: c.name):
        seen = set()
        for idx, v in c.table:
            if idx in seen or idx not in space or not _checker(m, c.semtype)(v):
                kind = "DuplicateIndexEntry" if idx in seen else "UnexpectedIndexEntry" if idx not in space else "IllTypedValue"
                tail = f": value does not inhabit {render_type(c.semtype)}" if kind == "IllTypedValue" else ""
                out.append((kind, c.name, f"index {idx.render()}{tail}"))
            seen.add(idx)
        out += [("MissingIndexEntry", c.name, f"index {idx.render()}") for idx in space if idx not in seen]
    return out


def _spoiled(rng: random.Random, m: Model) -> tuple[Constant, ...]:
    """m's constants with rows repeated, dropped, moved off the index space
    and given values that do not inhabit their type; a refused relation row is
    one object shared by several values."""
    constants = []
    for c in m.constants:
        rows = list(c.table)
        if isinstance(c.semtype, RelType):
            stray = TupleV((Entity("zz"),) * len(c.semtype.components))
            rows = [(idx, SetV(v.members | {stray})) if rng.random() < 0.3 else (idx, v) for idx, v in rows]
        elif rng.random() < 0.5:
            rows[rng.randrange(len(rows))] = (rows[0][0], Entity("zz"))
        for _ in range(rng.randint(0, 3)):
            idx, v = rng.choice(rows)
            move = rng.randrange(4)
            if move == 0:
                rows.insert(rng.randrange(len(rows) + 1), (idx, v))
            elif move == 1 and len(rows) > 1:
                rows.remove((idx, v))
            elif move == 2:
                rows.append((Index(idx.components[::-1] + (("X", "x0"),)), v))
            else:
                rows.insert(0, (Index(idx.components[:-1]), v))
        rng.shuffle(rows)
        constants.append(Constant(c.name, c.semtype, tuple(rows)))
    return tuple(constants)


def test_validate_matches_the_row_by_row_reference() -> None:
    rng = random.Random(23)
    kinds: set = set()
    for _ in range(60):
        m = generators.random_model(rng, max_entities=3, min_frames=0, max_frames=3)
        spoiled = _spoiled(rng, m)
        try:
            Model(m.entity_domain, m.frames, spoiled, m.designated)
            got = []
        except InvalidModel as err:
            got = [(v.kind, v.constant, v.detail) for v in err.violations]
        assert got == _violations_by_rows(m, spoiled)
        kinds |= {v[0] for v in got}
    assert kinds == {"DuplicateIndexEntry", "UnexpectedIndexEntry", "MissingIndexEntry", "IllTypedValue"}


# ---------------------------------------------------------------------------
# cached lookups on values


def test_parse_type_shares_its_ground_types() -> None:
    parsed = parse_type("fn(e,rel(e,t),t)")
    assert parsed.domain.first is ENT_TYPE and parsed.codomain is TRUTH_TYPE
    assert parsed.domain.second.components == (ENT_TYPE, TRUTH_TYPE)
    assert parse_type("e") is ENT_TYPE and parse_type("t") is TRUTH_TYPE
    assert parsed is fn_type([EntType(), RelType([EntType(), TruthType()])], TruthType())
    # every instance is the module constant, copied or pickled too; the two ground types differ
    assert EntType() is ENT_TYPE and TruthType() is TRUTH_TYPE
    assert copy.copy(EntType()) is copy.deepcopy(EntType()) is ENT_TYPE
    assert all(pickle.loads(pickle.dumps(EntType(), p)) is ENT_TYPE for p in range(pickle.HIGHEST_PROTOCOL + 1))
    assert EntType() != TruthType() and ENT_TYPE != TRUTH_TYPE


def test_type_constructors_refuse_a_missing_extra_or_unknown_field() -> None:
    assert FnType(ENT_TYPE, codomain=TRUTH_TYPE) is FnType(codomain=TRUTH_TYPE, domain=ENT_TYPE)
    for build in (
        lambda: FnType(ENT_TYPE),
        lambda: FnType(ENT_TYPE, TRUTH_TYPE, TRUTH_TYPE),
        lambda: FnType(ENT_TYPE, domain=ENT_TYPE),
        lambda: FnType(ENT_TYPE, range=TRUTH_TYPE),
        lambda: EntType(ENT_TYPE),
        lambda: IdxType(),
    ):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(ValueError, match="^relation type needs at least one component$"):
        RelType([])


def test_entities_have_one_instance_per_id() -> None:
    assert Entity("a") is Entity("a") is A
    # distinct ids stay distinct: Value's generated methods would make them all equal
    assert len({Entity(x) for x in "abc"}) == 3
    assert Entity("a") != Entity("b") and not Entity("a") == Entity("b")
    assert copy.copy(A) is A and copy.deepcopy(A) is A
    assert all(pickle.loads(pickle.dumps(A, p)) is A for p in range(pickle.HIGHEST_PROTOCOL + 1))
    assert dataclasses.replace(A, ident="b") is B
    assert copy.deepcopy(TupleV((A, B))).items[1] is B
    match A:
        case Entity(ident):
            assert ident == "a"
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.ident = "b"


# one equal structure and one other structure per hash-consed class, built
# from fresh field objects and from ids that no other test holds
SHARED_CASES = {
    "Entity": (lambda: Entity("contract:a"), lambda: Entity("contract:b")),
    "Truth": (lambda: Truth(1), lambda: Truth(0)),
    "IndexElem": (lambda: IndexElem("W", "contract:w0"), lambda: IndexElem("T", "contract:w0")),
    "TupleV": (lambda: TupleV([Entity("contract:a"), Truth(0)]), lambda: TupleV((Truth(0), Entity("contract:a")))),
    "SetV": (
        lambda: SetV([TupleV((Entity("contract:a"),)), TupleV((Entity("contract:b"),))]),
        lambda: SetV([TupleV((Entity("contract:a"),))]),
    ),
    "FnV": (
        lambda: FnV([(Entity("contract:b"), Truth(1)), (Entity("contract:a"), Truth(0))]),
        lambda: FnV([(Entity("contract:a"), Truth(1)), (Entity("contract:b"), Truth(1))]),
    ),
    "Index": (lambda: Index([["W", "contract:w0"], ["T", "t1"]]), lambda: Index([["W", "contract:w1"], ["T", "t1"]])),
    "IdxType": (lambda: IdxType("contract:W"), lambda: IdxType("contract:T")),
    "PairType": (
        lambda: PairType(EntType(), IdxType("contract:W")),
        lambda: PairType(IdxType("contract:W"), EntType()),
    ),
    "SetType": (lambda: SetType(IdxType("contract:W")), lambda: SetType(IdxType("contract:T"))),
    "RelType": (
        lambda: RelType([EntType(), IdxType("contract:W")]),
        lambda: RelType((IdxType("contract:W"), EntType())),
    ),
    "FnType": (
        lambda: FnType(IdxType("contract:W"), TruthType()),
        lambda: FnType(IdxType("contract:W"), EntType()),
    ),
}


def _live(cls: type) -> int:
    """The entries of cls in the intern table."""
    return sum(key[0] is cls for key in list(semmodel._SHARED))


@pytest.mark.parametrize("build,other", SHARED_CASES.values(), ids=SHARED_CASES)
def test_equal_structures_are_one_shared_instance(build, other) -> None:
    v = build()
    cls = type(v)
    assert build() is v and not hasattr(v, "__dict__")
    fields = {name: getattr(v, name) for name in cls.__match_args__}
    assert cls(**fields) is v and dataclasses.replace(v) is v
    assert copy.copy(v) is v and copy.deepcopy(v) is v and copy.deepcopy([v, v])[1] is v
    assert all(pickle.loads(pickle.dumps(v, p)) is v for p in range(pickle.HIGHEST_PROTOCOL + 1))
    w = other()
    assert w is not v and w != v and dataclasses.replace(v, **{n: getattr(w, n) for n in fields}) is w
    match v:  # class patterns bind the last field
        case Entity(x) | Truth(x) | IndexElem(_, x) | TupleV(x) | SetV(x) | FnV(x) | Index(x):
            pass
        case IdxType(x) | PairType(_, x) | SetType(x) | RelType(x) | FnType(_, x):
            pass
    assert x is getattr(v, cls.__match_args__[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(v, cls.__match_args__[0], getattr(w, cls.__match_args__[0]))
    # the table keeps no instance alive: a dropped model leaves it as it was
    del v, w, fields, x
    gc.collect()
    start = _live(cls)
    kept = [build(), other(), generators.random_model(random.Random(5), max_entities=4, max_frames=3)]
    assert _live(cls) > start or cls is Truth  # Truth(0) and Truth(1) live as long as denote
    del kept
    gc.collect()
    assert _live(cls) == start


def test_columns_hold_one_object_per_distinct_value() -> None:
    def fresh(*ids: str) -> SetV:
        return SetV(frozenset(TupleV((Entity(e),)) for e in ids))

    w0, w1 = (Index((("W", w),)) for w in ("w0", "w1"))
    m = Model(ENTS, (FRAME_W,), (
        unary("p", ((w0, fresh("a")), (w1, fresh("a", "b")))),
        unary("q", ((w0, fresh("a", "b")), (w1, fresh()))),
        unary("r", ((w0, fresh()), (w1, fresh("a")))),
    ))
    values = [v for column in m.columns.values() for v in column]
    assert len(values) == 6 and len({id(v) for v in values}) == len(set(values)) == 3
    for c in m.constants:
        for s, p in m.positions.items():
            assert m.columns[c.name][p] == c.value_at(s)


# the CLI and equivalence corpora, each asserting its pinned digest
PINNED_CORPORA = (
    "tests/test_cli_corpus.py::test_every_command_on_the_corpus_gives_its_pinned_outcome",
    "tests/test_equivalence_corpus.py::test_seeded_corpus_has_only_finsem_errors_and_a_pinned_digest",
)


@pytest.mark.parametrize("hashseed,churn", [("0", 0), ("7", 5000)])
def test_pinned_corpora_hold_across_hash_seeds_and_allocation_histories(hashseed, churn) -> None:
    """Values and indices hash by address, so set order may differ between
    processes; outputs must not. One child first interns entities, tuples,
    sets, function values and indices of other ids and frees every other
    object of a list, so later objects land at other addresses."""
    code = (
        "import sys, pytest\n"
        "from finsem.semmodel import Entity, FnV, Index, SetV, TupleV\n"
        f"ents = [Entity(f'churn{{k}}') for k in range({churn})]\n"
        "kept = [*ents, *(TupleV((e, e)) for e in ents), *(SetV([e]) for e in ents),\n"
        "        *(FnV([(e, e)]) for e in ents), *(Index([('W', e.ident)]) for e in ents)]\n"
        f"junk = [object() for _ in range({churn})]\n"
        "del junk[::2]\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *PINNED_CORPORA],
        capture_output=True, text=True, cwd=REPO_ROOT, env=child_env(PYTHONHASHSEED=hashseed),
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert "2 passed" in done.stdout


def test_item_tuples_decide_membership_like_the_members() -> None:
    rng = random.Random(41)
    models = [generators.random_model(rng, max_entities=4, max_frames=2) for _ in range(30)]
    models += [load_model_file(str(path)).model for path in sorted(MODELS_DIR.glob("*.json"))]
    outcomes = []
    for m in models:
        for c in m.constants:
            if not isinstance(c.semtype, RelType):
                continue
            arity = len(c.semtype.components)
            for value in m.columns[c.name]:
                for args in itertools.product(m.entities, repeat=arity):
                    hit = args in value.item_tuples
                    assert hit == (TupleV(args) in value.members)
                    outcomes.append(hit)
    assert len(outcomes) > 500 and 0 < sum(outcomes) < len(outcomes)


def test_a_filled_item_cache_leaves_a_set_value_as_it_was() -> None:
    def build() -> SetV:
        return SetV(frozenset({TupleV((A, B)), TupleV((B,)), A}))

    filled = build()
    with pytest.raises(AttributeError):  # the slot is empty before first use
        SetV.item_tuples.__get__(filled)
    shown = hash(filled), repr(filled), render_value(filled, M)
    assert filled.item_tuples == {(A, B), (B,)}
    assert SetV.item_tuples.__get__(filled) == {(A, B), (B,)}
    fresh = build()
    assert filled == fresh
    assert hash(filled) == hash(fresh) == shown[0]
    assert repr(filled) == repr(fresh) == shown[1]
    assert render_value(filled, M) == render_value(fresh, M) == shown[2]
