"""eval_all_indices labels a term a set of indices at a time; the per-index
clause of _eval is its oracle.

Outcomes compare by value, or by exception type and message, so the two
routes must agree on errors as well as on values. Both routes read
Model.successor_positions and Model.columns; tests/test_semmodel.py checks
those tables against the Index route.
"""

from __future__ import annotations

import random
from collections import Counter

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
    Index,
    Model,
    Truth,
    TruthType,
)

from helpers import UNARY, build_modal, rel_value


def oracle(term: Term, m: Model, g: Assignment) -> tuple:
    """The per-index route: one _eval call per index position, in canonical order."""
    typecheck(term, m, denote.assignment_types(g))
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


def _truth_term(rng: random.Random, m: Model) -> Term:
    while True:
        term = generators.random_term(rng, m, max_depth=3)
        if typecheck(term, m, {x: EntType() for x in generators.ASSIGNMENT_VARS}) == TruthType():
            return term


def test_seeded_agreement_with_the_per_index_oracle() -> None:
    rng = random.Random(20240)
    kinds: Counter = Counter()
    for _ in range(80):
        m = generators.random_model(rng, max_frames=3)
        labels = [f.label for f in m.frames]
        g = Assignment(
            tuple((x, rng.choice(m.entity_domain.elements)) for x in generators.ASSIGNMENT_VARS)
        )
        for _ in range(4):
            term = _truth_term(rng, m)
            for _ in range(rng.randint(1, 4)):
                roll = rng.random()
                if roll < 0.5:
                    term = Diamond(rng.choice(labels), term)
                elif roll < 0.7:
                    term = Not(term)
                else:
                    other = _truth_term(rng, m)
                    term = And(term, other) if rng.random() < 0.5 else And(other, term)
            kinds[assert_routes_agree(term, m, g)[0]] += 1
    # both values and errors are exercised
    assert kinds["value"] >= 100 and kinds["error"] >= 30, kinds


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


def test_diamond_under_a_binder_takes_the_per_index_route(monkeypatch) -> None:
    m = build_modal()
    g = Assignment((("z", "s1"),))
    under_lam = App(Lam("x", EntType(), Diamond("W", PredApp("student", (Var("x"),)))), Var("z"))
    under_iota = Iota("y", Diamond("W", PredApp("book", (Var("y"),))))
    in_an_argument = Eq(under_iota, Iota("y", PredApp("book", (Var("y"),))))
    calls: list = []
    per_index = denote._CLAUSES[Diamond]
    monkeypatch.setitem(
        denote._CLAUSES, Diamond, lambda *args: calls.append(args[3]) or per_index(*args)
    )
    assert labelled(Diamond("W", PredApp("student", (Var("z"),))), m, g)[0] == "value"
    assert calls == []  # a Diamond at the top is labelled, not evaluated per index
    assert labelled(under_lam, m, g)[0] == "value"
    # w1 sees nothing, so the iota finds no witness there
    assert labelled(in_an_argument, m, g)[0] == "error"
    # each term ran the per-index clause at both positions, once per entity bound
    assert calls == [0, 0, 1, 1] * 2
    calls.clear()
    assert_routes_agree(under_lam, m, g)
    assert_routes_agree(in_an_argument, m)


def grid_model() -> Model:
    """Three two-point frames, every point related to both points."""
    frames = []
    for label in ("W", "T", "L"):
        carrier = FinSet(label, (f"{label.lower()}0", f"{label.lower()}1"))
        pairs = frozenset((u, v) for u in carrier.elements for v in carrier.elements)
        frames.append(Frame(label, carrier, Relation(carrier, carrier, pairs)))
    space = list(Model(FinSet("E", ("a", "b")), tuple(frames), ()).positions)
    return Model(
        FinSet("E", ("a", "b")),
        tuple(frames),
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


def test_each_constant_is_read_once_per_index() -> None:
    m = grid_model()
    reads: Counter = Counter()
    counted = {name: CountingColumn(name, col, reads) for name, col in m.columns.items()}
    vars(m)["columns"] = counted  # the cached column table the clauses read
    term = parse_term("(might W (might T (pred p c)))", frozenset({"c", "p"}))
    values = eval_all_indices(term, m)
    assert set(values.values()) == {Truth(1)}
    # per index the oracle walks four two-step paths and reads both constants on each
    assert reads == Counter({(name, p): 1 for name in ("c", "p") for p in range(len(m.positions))})


def test_deepest_modal_terms_label_without_recursion_error() -> None:
    m = build_modal()
    forms = ["(might W ", "(not "] * (MAX_TERM_DEPTH // 2)
    text = "".join(forms[: MAX_TERM_DEPTH - 1]) + "(pred student x)" + ")" * (MAX_TERM_DEPTH - 1)
    term = parse_term(text, frozenset({"student"}))
    assert assert_routes_agree(term, m, Assignment((("x", "s1"),)))[0] == "value"
