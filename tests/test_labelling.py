"""eval_all_indices labels every subterm a column of index positions at a
time through denote._COLUMNS; the per-index clauses of _eval are its oracle.

Outcomes compare by value, or by exception type and message, so the two
routes must agree on errors as well as on values. Both routes read
Model.successor_positions and Model.columns; tests/test_semmodel.py checks
those tables against the Index route. A Diamond-free term, or Diamond body,
runs once per view class of its positions, so models below are built where
many positions share a view and where none do.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from typing import Callable, Optional

import pytest

from finsem import denote, generators
from finsem.denote import (
    MAX_TERM_DEPTH,
    And,
    App,
    Diamond,
    Eq,
    Iota,
    Lam,
    Not,
    PredApp,
    Term,
    Var,
    eval_all_indices,
    parse_term,
    typecheck,
)
from finsem.kripke import Frame
from finsem.relalg import FinSet, Relation
from finsem.semmodel import (
    Assignment,
    Constant,
    EntType,
    Entity,
    FnType,
    FnV,
    Index,
    Model,
    SemType,
    Truth,
    SetV,
    TupleV,
    fn_type,
    index_space,
    render_value,
)

from helpers import BINARY, UNARY, _full_assignment, _wrapped_term, build_modal, rel_value


def oracle(term: Term, m: Model, g: Assignment) -> tuple:
    """The per-index route: one _eval call per index position, in canonical order."""
    typecheck(term, m.signature, [x for x, _ in g.bindings])
    env = denote._env_of(g, m)
    try:
        return ("value", {s: denote._eval(term, m, env, p) for s, p in m.positions.items()})
    except Exception as err:
        return ("error", type(err), str(err))


def labelled(term: Term, m: Model, g: Assignment) -> tuple:
    try:
        return ("value", eval_all_indices(term, m, g))
    except Exception as err:
        return ("error", type(err), str(err))


def assert_routes_agree(term: Term, m: Model, g: Assignment = Assignment()) -> tuple:
    got = labelled(term, m, g)
    assert got == oracle(term, m, g), denote.render_term(term)
    return got


def test_seeded_agreement_with_the_per_index_oracle() -> None:
    rng = random.Random(20240)
    kinds: Counter = Counter()
    for _ in range(80):
        m = generators.random_model(rng, max_frames=3)
        g = _full_assignment(rng, m)
        for _ in range(4):
            kinds[assert_routes_agree(_wrapped_term(rng, m), m, g)[0]] += 1
    # both values and errors are exercised
    assert kinds["value"] >= 100 and kinds["error"] >= 30, kinds


# sha256 of the outcomes of the seeded corpus below; regenerate it only for an
# output change that is meant and declared
LABELLING_CORPUS_SHA256 = "c1724c6e6e3621e41622b6b4761b9ab78e0c583b72402298a3f090ec184bc354"


def corpus_outcomes() -> list:
    """60 random models, each with four wrapped truth terms and two bare random
    terms (entity, truth or function valued): each term's rendering and its
    outcome, every index's rendered value or the error's type and message."""
    rng = random.Random(1986)
    records = []
    for _ in range(60):
        m = generators.random_model(rng, max_frames=3)
        g = _full_assignment(rng, m)
        terms = [_wrapped_term(rng, m) for _ in range(4)]
        terms += [generators.random_term(rng, m, max_depth=3) for _ in range(2)]
        for term in terms:
            try:
                values = eval_all_indices(term, m, g)
            except Exception as err:
                outcome = [type(err).__name__, str(err)]
            else:
                outcome = [[s.render(), render_value(v, m)] for s, v in values.items()]
            records.append([denote.render_term(term), outcome])
    return records


def test_seeded_corpus_outcomes_are_pinned() -> None:
    records = corpus_outcomes()
    errors = Counter(outcome[0] for _, outcome in records if isinstance(outcome[0], str))
    assert len(records) - sum(errors.values()) >= 200 and errors["PresuppositionFailure"] >= 20, errors
    text = json.dumps(records)
    assert hashlib.sha256(text.encode()).hexdigest() == LABELLING_CORPUS_SHA256


def _w(w: str) -> Index:
    return Index((("W", w),))


def line_model(pairs: set[tuple[str, str]], witnesses: dict[str, tuple[str, ...]]) -> Model:
    """Frame W over w0..w2 with the given pairs; `the` holds the listed
    entities at each world, so an iota over it fails where it holds none or two."""
    carrier = FinSet("W", ("w0", "w1", "w2"))
    frame = Frame("W", carrier, Relation(carrier, carrier, frozenset(pairs)))
    return Model(
        FinSet("E", ("a", "b")),
        (frame,),
        (
            Constant("the", UNARY, tuple((_w(w), rel_value(*((e,) for e in es))) for w, es in witnesses.items())),
            Constant("p", UNARY, tuple((_w(w), rel_value(("a",))) for w in witnesses)),
        ),
    )


THE_P = PredApp("p", (Iota("x", PredApp("the", (Var("x"),))),))


def test_failure_at_an_index_no_index_sees_stays_invisible() -> None:
    # nothing sees w2, the only world where the iota fails
    m = line_model({("w0", "w1"), ("w1", "w1"), ("w2", "w1")}, {"w0": ("a",), "w1": ("a",), "w2": ()})
    got = assert_routes_agree(Diamond("W", THE_P), m)
    assert got == ("value", {_w("w0"): Truth(1), _w("w1"): Truth(1), _w("w2"): Truth(1)})


def test_failure_at_one_successor_propagates_the_first_in_frame_order() -> None:
    # w0 sees w1 (two witnesses) before w2 (none): the first error wins
    m = line_model({("w0", "w1"), ("w0", "w2")}, {"w0": ("a",), "w1": ("a", "b"), "w2": ()})
    kind, err_type, message = assert_routes_agree(Diamond("W", THE_P), m)
    assert (kind, err_type) == ("error", denote.PresuppositionFailure)
    assert message.endswith("found 2")
    # under Not and And the error still comes through, the left side's first
    wrapped = And(Not(Diamond("W", THE_P)), Diamond("W", Not(THE_P)))
    assert assert_routes_agree(wrapped, m)[2].endswith("found 2")


def test_diamond_under_a_binder_takes_the_column_route(monkeypatch) -> None:
    m = build_modal()
    g = Assignment((("z", "s1"),))
    under_lam = App(Lam("x", EntType(), Diamond("W", PredApp("student", (Var("x"),)))), Var("z"))
    under_iota = Iota("y", Diamond("W", PredApp("book", (Var("y"),))))
    in_an_argument = Eq(under_iota, Iota("y", PredApp("book", (Var("y"),))))
    calls: list = []
    for cls, clause in list(denote._CLAUSES.items()):
        monkeypatch.setitem(
            denote._CLAUSES, cls, lambda *args, clause=clause: calls.append(args[0]) or clause(*args)
        )
    assert labelled(Diamond("W", PredApp("student", (Var("z"),))), m, g)[0] == "value"
    assert labelled(under_lam, m, g)[0] == "value"
    assert calls == []  # no subterm is evaluated one index at a time
    # w1 sees nothing, so the iota finds no witness there; the per-index
    # clauses, reached only once the columns fail, name the error
    assert labelled(in_an_argument, m, g)[0] == "error"
    assert calls
    assert_routes_agree(under_lam, m, g)
    assert_routes_agree(in_an_argument, m)
    assert calls  # the oracle is


def fn_model() -> Model:
    """Frame W over w0..w2 (w0 sees w1 then w2, w1 and w2 see w2) and entities
    a, b, c, with tables that vary by world. An iota over `the` fails at w1
    (two witnesses) and w2 (none), one over `one` at w1 (none) and w2 (two);
    `r` relates a to two entities, b to one and c to none."""
    carrier = FinSet("W", ("w0", "w1", "w2"))
    pairs = frozenset({("w0", "w1"), ("w0", "w2"), ("w1", "w2"), ("w2", "w2")})
    ents = ("a", "b", "c")
    keys = [TupleV((Entity(x), Entity(y))) for x in ents for y in ents]

    def per_world(*values) -> tuple:
        return tuple((_w(f"w{i}"), v) for i, v in enumerate(values))

    def unary(*rows: str) -> SetV:
        return rel_value(*((e,) for e in rows))

    def shift(i: int) -> FnV:
        return FnV(tuple((Entity(x), Entity(ents[(k + i + 1) % 3])) for k, x in enumerate(ents)))

    def pick(i: int) -> FnV:
        return FnV(tuple((k, k.items[i % 2]) for k in keys))

    return Model(
        FinSet("E", ents),
        (Frame("W", carrier, Relation(carrier, carrier, pairs)),),
        (
            Constant("c", EntType(), per_world(Entity("a"), Entity("b"), Entity("c"))),
            Constant("mentor", FnType(EntType(), EntType()), per_world(shift(0), shift(1), shift(2))),
            Constant("pick", fn_type([EntType(), EntType()], EntType()), per_world(pick(0), pick(1), pick(2))),
            Constant("the", UNARY, per_world(unary("a"), unary("a", "b"), unary())),
            Constant("one", UNARY, per_world(unary("a"), unary(), unary("a", "b"))),
            Constant("p", UNARY, per_world(unary("a"), unary("a", "b"), unary("b"))),
            Constant("r", BINARY, per_world(*[rel_value(("a", "a"), ("a", "b"), ("b", "c"))] * 3)),
        ),
    )


FN_NAMES = frozenset({"c", "mentor", "pick", "the", "one", "p", "r"})


def fn_term(text: str) -> Term:
    return parse_term(text, FN_NAMES)


@pytest.mark.parametrize(
    "text, kind",
    [
        # entity-valued and function-valued terms at the top
        ("(func mentor (func mentor c))", "e"),
        ("(func pick (func mentor c) c)", "e"),
        ("(app (lam x e (func pick x (func mentor x))) c)", "e"),
        ("(lam x e (func pick x (func mentor x)))", "fn"),
        ("(lam x e (lam y e (pred r x y)))", "fn"),
        ("(eq (lam x e (pred p x)) (lam y e (pred the y)))", "t"),
        # Diamond under lam, under iota and in an argument position
        ("(lam x e (might W (pred p x)))", "fn"),
        ("(app (lam x e (might W (pred p x))) c)", "t"),
        ("(iota x (might W (and (pred p x) (not (pred the x)))))", "e"),
        ("(func pick (iota x (and (pred p x) (might W (pred p x)))) c)", "e"),
        ("(pred r c (func mentor (iota x (and (pred p x) (might W (pred p x))))))", "t"),
    ],
)
def test_terms_of_every_type_agree_with_the_oracle(text: str, kind: str) -> None:
    m = fn_model()
    got = assert_routes_agree(fn_term(text), m)
    assert got[0] == "value", got
    expected = {"e": Entity, "t": Truth, "fn": FnV}[kind]
    assert {type(v) for v in got[1].values()} == {expected}


@pytest.mark.parametrize(
    "text, found",
    [
        # an iota failing at some worlds only: the first world's error is raised
        ("(iota x (pred one x))", 0),
        ("(func mentor (iota x (pred the x)))", 2),
        # across arguments the leftmost failing argument wins
        ("(func pick (iota x (pred the x)) (iota y (pred one y)))", 2),
        ("(func pick (iota x (pred one x)) (iota y (pred the y)))", 0),
        ("(pred r (iota x (pred the x)) (iota y (pred one y)))", 2),
        ("(eq (iota x (pred one x)) (iota y (pred the y)))", 0),
        ("(and (pred p (iota x (pred the x))) (pred p (iota y (pred one y))))", 2),
        ("(app (lam x e (pred p x)) (iota y (pred one y)))", 0),
        ("(app (lam x e (pred p (iota y (pred the y)))) (iota z (pred one z)))", 2),
        # across entities the first in domain order wins: a has two r-successors, c none
        ("(lam x e (pred p (iota y (pred r x y))))", 2),
        ("(iota x (pred p (iota y (pred r x y))))", 2),
        ("(lam x e (iota y (and (pred r x y) (not (eq x y)))))", 0),
        # across successors the first in frame order wins: w0 sees w1, then w2
        ("(might W (pred p (iota x (pred the x))))", 2),
        ("(might W (pred p (iota x (pred one x))))", 0),
        ("(not (might W (eq c (iota x (pred the x)))))", 2),
    ],
)
def test_the_first_error_in_evaluation_order_wins(text: str, found: int) -> None:
    kind, err_type, message = assert_routes_agree(fn_term(text), fn_model())
    assert (kind, err_type) == ("error", denote.PresuppositionFailure)
    assert message.endswith(f"found {found}")


def test_an_earlier_index_wins_over_an_earlier_subterm() -> None:
    # the left conjunct fails only at w2, the right one only at w1
    left = "(pred p (iota x (and (eq x c) (pred p x))))"
    term = fn_term(f"(and {left} (pred p (iota y (pred p y))))")
    m = fn_model()
    with pytest.raises(denote.PresuppositionFailure, match="'x' .* found 0"):
        denote._COLUMNS[And](term, m, {}, [0, 1, 2])  # the columns fail left first
    assert assert_routes_agree(term, m) == (
        "error",
        denote.PresuppositionFailure,
        "iota over 'y' needs exactly one witness, found 2",
    )


def test_a_column_error_where_no_index_fails_propagates(monkeypatch) -> None:
    term = fn_term("(not (pred p c))")
    m = fn_model()
    err = RuntimeError("columns disagree")

    def failing(*args):
        raise err

    assert oracle(term, m, Assignment())[0] == "value"
    monkeypatch.setitem(denote._COLUMNS, Not, failing)
    with pytest.raises(RuntimeError) as info:
        eval_all_indices(term, m)
    assert info.value is err


def test_a_binder_over_too_many_entities_fails_only_where_it_runs(monkeypatch) -> None:
    monkeypatch.setattr(denote, "MAX_DOMAIN_SIZE", 1)  # the two entities are too many
    body = parse_term("(eq (lam x e (pred p x)) (lam y e (pred the y)))", frozenset({"p", "the"}))
    seeing = line_model({("w0", "w1")}, {"w0": ("a",), "w1": ("a",), "w2": ("a",)})
    assert assert_routes_agree(Diamond("W", body), seeing)[1] == denote.DomainTooLarge
    # no world sees another, so neither route ever runs the lams
    blind = line_model(set(), {"w0": ("a",), "w1": ("a",), "w2": ("a",)})
    assert assert_routes_agree(Diamond("W", body), blind) == (
        "value", {_w(w): Truth(0) for w in ("w0", "w1", "w2")}
    )


def test_deepest_function_chain_labels_without_recursion_error() -> None:
    chain = "(func mentor " * MAX_TERM_DEPTH + "c" + ")" * MAX_TERM_DEPTH
    got = assert_routes_agree(fn_term(chain), fn_model())
    # the shift at w_i is by i + 1, and 256 steps return to where they started
    assert got == ("value", {_w(f"w{i}"): Entity("abc"[(i + 256 * (i + 1)) % 3]) for i in range(3)})


def frame(label: str, n: int, pairs: Optional[set[tuple[str, str]]] = None) -> Frame:
    """Frame label over points label0..label(n-1) in lower case, with the
    given pairs, or every point related to every point."""
    points = tuple(f"{label.lower()}{i}" for i in range(n))
    carrier = FinSet(label, points)
    pairs = {(u, v) for u in points for v in points} if pairs is None else pairs
    return Frame(label, carrier, Relation(carrier, carrier, frozenset(pairs)))


def coordinate_model(frames: tuple[Frame, ...], tables: dict[str, tuple[SemType, Callable]]) -> Model:
    """Entities a, b, c over the frames; each constant's value at an index is
    its function of the index's coordinates, one point name per frame."""
    ents = FinSet("E", ("a", "b", "c"))
    space = index_space(frames)
    return Model(
        ents,
        frames,
        tuple(
            Constant(name, ty, tuple((s, value(*(e for _, e in s.components))) for s in space))
            for name, (ty, value) in tables.items()
        ),
    )


def grid_model() -> Model:
    """Three two-point frames, every point related to both points."""
    frames = (frame("W", 2), frame("T", 2), frame("L", 2))
    space = index_space(frames)
    return Model(
        FinSet("E", ("a", "b")),
        frames,
        (
            Constant("c", EntType(), tuple((s, Entity("a" if i % 3 else "b")) for i, s in enumerate(space))),
            Constant("p", UNARY, tuple((s, rel_value(("a",))) for s in space)),
        ),
    )


class CountingColumn(tuple):
    """A column of Model.columns that counts its reads by position."""

    def __new__(cls, name: str, values: tuple, reads: Counter):
        column = super().__new__(cls, values)
        column.name, column.reads = name, reads
        return column

    def __getitem__(self, p: int):
        self.reads[self.name, p] += 1
        return super().__getitem__(p)


def test_each_constant_is_read_once_per_index_and_once_per_view_class(monkeypatch) -> None:
    m = grid_model()
    c_values = m.columns["c"]
    reads: Counter = Counter()
    counted = {name: CountingColumn(name, col, reads) for name, col in m.columns.items()}
    vars(m)["columns"] = counted  # the cached column table the clauses read
    runs: list = []
    pred_app = denote._COLUMNS[PredApp]
    monkeypatch.setitem(
        denote._COLUMNS, PredApp, lambda t, m, env, ps: runs.append(ps) or pred_app(t, m, env, ps)
    )
    term = parse_term("(might W (might T (pred p c)))", frozenset({"c", "p"}))
    values = eval_all_indices(term, m)
    assert set(values.values()) == {Truth(1)}
    # c takes two values over the 8 positions and p one, so (pred p c) has two
    # view classes and its clause runs at one position of each
    (reps,) = runs
    assert len(reps) == 2 and c_values[reps[0]] != c_values[reps[1]]
    # both constants are read once per position to form the views, then once
    # more at each representative
    assert reads == Counter({(name, p): 1 + (p in reps) for name in ("c", "p") for p in range(len(m.positions))})


def shared_view_model() -> Model:
    """Frames W (a cycle w0 -> w1 -> w2 -> w0), T and L over 3 * 3 * 2
    positions. k, r and f are rigid; `the` holds one entity, chosen by the W
    point, and p holds a at t0 and t1, a and b at t2. So all constants
    together take 3 * 2 views."""
    frames = (frame("W", 3, {("w0", "w1"), ("w1", "w2"), ("w2", "w0")}), frame("T", 3), frame("L", 2))
    return coordinate_model(
        frames,
        {
            "k": (EntType(), lambda w, t, l: Entity("a")),
            "r": (BINARY, lambda w, t, l: rel_value(("a", "b"), ("b", "c"), ("c", "a"))),
            "f": (FnType(EntType(), EntType()), lambda w, t, l: FnV(tuple((Entity(x), Entity(y)) for x, y in zip("abc", "bca")))),
            "the": (UNARY, lambda w, t, l: rel_value(("abc"[int(w[1])],))),
            "p": (UNARY, lambda w, t, l: rel_value(("a",), ("b",)) if t == "t2" else rel_value(("a",))),
        },
    )


SHARED_VIEW_TERMS = (
    "(pred p (func f (iota x (pred the x))))",
    "(might W (pred p (iota x (pred the x))))",
    "(might T (pred r k (func f (iota x (pred the x)))))",
    "(and (might W (might T (pred p (func f k)))) (not (might L (pred the k))))",
    "(lam y e (might T (and (pred p y) (not (pred the y)))))",
    "(iota x (might W (pred the x)))",
    "(app (lam y e (might L (eq y (iota x (pred the x))))) (func f k))",
)


def views(m: Model, names) -> int:
    """The number of view classes of m's positions over the named constants."""
    return len(set(zip(*(map(id, m.columns[n]) for n in names))))


def check_shared_views() -> None:
    m = shared_view_model()
    names = frozenset(m.columns)
    assert (views(m, names), views(m, ["the"]), len(m.positions)) == (6, 3, 18)
    for text in SHARED_VIEW_TERMS:
        assert assert_routes_agree(parse_term(text, names), m)[0] == "value", text


def test_positions_sharing_a_view_agree_with_the_oracle() -> None:
    check_shared_views()


@pytest.mark.parametrize("left_out", ["the", "p"])
def test_a_support_leaving_a_constant_out_is_caught(monkeypatch, left_out: str) -> None:
    # each constant that varies decides some value; a rigid one, held at every
    # position by one object, splits no class and could be left out unseen
    real = denote._support
    monkeypatch.setattr(denote, "_support", lambda term: real(term) and real(term) - {left_out})
    with pytest.raises(AssertionError):
        check_shared_views()


def test_positions_with_views_of_their_own_agree_with_the_oracle() -> None:
    # u holds a different set at each of the 8 positions: every class is one position
    m = coordinate_model(
        (frame("W", 2), frame("T", 2, {("t0", "t1"), ("t1", "t1")}), frame("L", 2)),
        {
            "k": (EntType(), lambda w, t, l: Entity("a")),
            "u": (UNARY, lambda *pts: rel_value(*((e,) for e, pt in zip("abc", pts) if pt[1] == "1"))),
        },
    )
    assert views(m, ["u"]) == len(m.positions) == 8
    kinds: Counter = Counter()
    for text in (
        "(pred u k)",
        "(might W (pred u k))",
        "(might T (not (might L (pred u (iota x (pred u x))))))",
        "(lam y e (might L (and (pred u y) (might W (pred u k)))))",
        "(iota x (might T (pred u x)))",
    ):
        kinds[assert_routes_agree(parse_term(text, frozenset({"k", "u"})), m)[0]] += 1
    assert kinds == Counter({"value": 3, "error": 2}), kinds


def gappy_model(pairs: set[tuple[str, str]]) -> Model:
    """Frames W, with the given pairs, and T over 3 * 2 positions; `the`
    holds a at w0 and w1 and nothing at w2, so an iota over it fails in the
    view class of w2 alone."""
    return coordinate_model(
        (frame("W", 3, pairs), frame("T", 2)),
        {
            "the": (UNARY, lambda w, t: rel_value() if w == "w2" else rel_value(("a",))),
            "p": (UNARY, lambda w, t: rel_value(("a",))),
        },
    )


GAPPY_TERM = "(might W (pred p (iota x (pred the x))))"


def test_failure_in_a_view_class_no_target_reaches_stays_invisible() -> None:
    m = gappy_model({("w0", "w1"), ("w1", "w1"), ("w2", "w1")})
    assert views(m, ["the", "p"]) == 2
    got = assert_routes_agree(parse_term(GAPPY_TERM, frozenset({"the", "p"})), m)
    assert got == ("value", dict.fromkeys(m.positions, Truth(1)))


def test_failure_in_a_reached_view_class_is_named_per_index() -> None:
    m = gappy_model({("w0", "w1"), ("w1", "w2"), ("w2", "w2")})
    got = assert_routes_agree(parse_term(GAPPY_TERM, frozenset({"the", "p"})), m)
    assert got == ("error", denote.PresuppositionFailure, "iota over 'x' needs exactly one witness, found 0")


def test_deepest_modal_terms_label_without_recursion_error() -> None:
    m = build_modal()
    forms = ["(might W ", "(not "] * (MAX_TERM_DEPTH // 2)
    text = "".join(forms[: MAX_TERM_DEPTH - 1]) + "(pred student x)" + ")" * (MAX_TERM_DEPTH - 1)
    term = parse_term(text, frozenset({"student"}))
    assert assert_routes_agree(term, m, Assignment((("x", "s1"),)))[0] == "value"
