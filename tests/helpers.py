"""Shared builders for the test suite: the two worked models, the lexicon and
random truth terms with a full assignment."""

from __future__ import annotations

import os
import pathlib
import random

from finsem import generators
from finsem.denote import And, Diamond, Not, Term, typecheck
from finsem.fragment import LexEntry
from finsem.kripke import Frame
from finsem.relalg import FinSet, Relation
from finsem.semmodel import (
    EMPTY_INDEX,
    Assignment,
    Constant,
    EntType,
    Entity,
    Index,
    Model,
    RelType,
    SetV,
    TruthType,
    TupleV,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS_DIR = REPO_ROOT / "models"
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"


def child_env(**overrides: str) -> dict[str, str]:
    """The environment, with overrides, for a child interpreter that imports
    finsem from this checkout: REPO_ROOT/src leads its PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH"))))
    return env

ENTITIES = FinSet("E", ("s1", "b1"))

UNARY = RelType((EntType(),))
BINARY = RelType((EntType(), EntType()))


def rel_value(*rows: tuple[str, ...]) -> SetV:
    return SetV(frozenset(TupleV(tuple(Entity(e) for e in row)) for row in rows))


def build_extensional() -> Model:
    """One student s1, one book b1, s1 read b1."""
    return Model(
        ENTITIES,
        (),
        (
            Constant("student", UNARY, ((EMPTY_INDEX, rel_value(("s1",))),)),
            Constant("book", UNARY, ((EMPTY_INDEX, rel_value(("b1",))),)),
            Constant("read", BINARY, ((EMPTY_INDEX, rel_value(("s1", "b1"))),)),
        ),
    )


def w_index(w: str) -> Index:
    return Index((("W", w),))


def build_modal() -> Model:
    """Two worlds, w0 sees w1; the reading only happened at w1."""
    carrier = FinSet("W", ("w0", "w1"))
    frame = Frame("W", carrier, Relation(carrier, carrier, frozenset({("w0", "w1")})))
    per_world = lambda v: ((w_index("w0"), v), (w_index("w1"), v))  # noqa: E731
    return Model(
        ENTITIES,
        (frame,),
        (
            Constant("student", UNARY, per_world(rel_value(("s1",)))),
            Constant("book", UNARY, per_world(rel_value(("b1",)))),
            Constant(
                "read",
                BINARY,
                ((w_index("w0"), rel_value()), (w_index("w1"), rel_value(("s1", "b1")))),
            ),
        ),
        (("W", "w0"),),
    )


LEXICON = {
    "the": LexEntry("the", "D", sem="iota"),
    "student": LexEntry("student", "N", pred="student"),
    "book": LexEntry("book", "N", pred="book"),
    "read": LexEntry("read", "V", pred="read"),
    "might": LexEntry("might", "Mod", frame="W"),
}

SENTENCE_1 = "the student read the book"
SENTENCE_2 = "the student might read the book"


def table_of(m: Model, name: str) -> tuple:
    """The table of m's constant named name."""
    (table,) = (c.table for c in m.constants if c.name == name)
    return table


def _truth_term(rng: random.Random, m: Model) -> Term:
    while True:
        term = generators.random_term(rng, m, max_depth=3)
        if typecheck(term, m.signature, generators.ASSIGNMENT_VARS) == TruthType():
            return term


def _wrapped_term(rng: random.Random, m: Model) -> Term:
    """A random truth term wrapped one to four times in might, not or and."""
    term = _truth_term(rng, m)
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.5:
            term = Diamond(rng.choice([f.label for f in m.frames]), term)
        elif roll < 0.7:
            term = Not(term)
        else:
            other = _truth_term(rng, m)
            term = And(term, other) if rng.random() < 0.5 else And(other, term)
    return term


def _full_assignment(rng: random.Random, m: Model) -> Assignment:
    return Assignment(
        tuple((x, rng.choice(m.entity_domain.elements)) for x in generators.ASSIGNMENT_VARS)
    )
