#!/usr/bin/env python3
"""Rebuild the bundled model corpus under models/.

Four files: a frame-free model, a one-frame modal model, a two-frame
modal+tense model, and a three-frame modal+tense+location model. The
sentence fragments run against any of them; the multi-frame files exist to
exercise collapse squares, the full cube, and the equivalence checker.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from finsem.denote import parse_term
from finsem.fragment import LexEntry
from finsem.kripke import Frame
from finsem.modelfile import ModelFile, dump_model_file
from finsem.relalg import FinSet, Relation
from finsem.semmodel import (
    Constant,
    EntType,
    Entity,
    FnV,
    Index,
    Model,
    RelType,
    SetV,
    TupleV,
    fn_type,
    index_space,
)

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"

ENTITIES = FinSet("E", ("s1", "b1"))


def frame(label: str, elements: tuple[str, ...], pairs: set[tuple[str, str]]) -> Frame:
    carrier = FinSet(label, elements)
    return Frame(label, carrier, Relation(carrier, carrier, frozenset(pairs)))


FRAME_W = frame("W", ("w0", "w1"), {("w0", "w1")})
FRAME_T = frame("T", ("t0", "t1"), {("t0", "t1")})
FRAME_L = frame("L", ("l0", "l1"), {("l0", "l1"), ("l1", "l0")})


def tuples(*rows: tuple[str, ...]) -> SetV:
    return SetV(frozenset(TupleV(tuple(Entity(e) for e in row)) for row in rows))


def read_at(idx: Index) -> SetV:
    # reading happens at w1; at t1 the books also pile up on themselves
    rows = []
    if not idx.components or idx.component("W") == "w1":
        rows.append(("s1", "b1"))
    if any(l == "T" for l, _ in idx.components) and idx.component("T") == "t1":
        rows.append(("b1", "b1"))
    return tuples(*rows)


def mentor_at(idx: Index) -> FnV:
    flip = bool(idx.components) and idx.component("W") == "w1"
    return FnV(
        (
            (Entity("s1"), Entity("b1" if flip else "s1")),
            (Entity("b1"), Entity("s1" if flip else "b1")),
        )
    )


def here_at(idx: Index) -> SetV:
    if idx.component("L") == "l1":
        return tuples(("s1",))
    return tuples()


def build_model(frames: tuple[Frame, ...], with_location: bool) -> Model:
    space = index_space(frames)
    unary = RelType((EntType(),))
    binary = RelType((EntType(), EntType()))
    constants = [
        Constant("alice", EntType(), tuple((s, Entity("s1")) for s in space)),
        Constant("student", unary, tuple((s, tuples(("s1",))) for s in space)),
        Constant("book", unary, tuple((s, tuples(("b1",))) for s in space)),
        Constant("read", binary, tuple((s, read_at(s)) for s in space)),
    ]
    if frames:
        constants.append(
            Constant(
                "mentor",
                fn_type([EntType()], EntType()),
                tuple((s, mentor_at(s)) for s in space),
            )
        )
    if with_location:
        constants.append(Constant("here", unary, tuple((s, here_at(s)) for s in space)))
    designated = tuple((f.label, f.domain.elements[0]) for f in frames)
    return Model(ENTITIES, frames, tuple(constants), designated)


def lexicon(modal: bool) -> dict[str, LexEntry]:
    lex = {
        "the": LexEntry("the", "D", sem="iota"),
        "student": LexEntry("student", "N", pred="student"),
        "book": LexEntry("book", "N", pred="book"),
        "read": LexEntry("read", "V", pred="read"),
    }
    if modal:
        lex["might"] = LexEntry("might", "Mod", frame="W")
    return lex


def terms(model: Model, modal: bool) -> dict[str, str]:
    out = {
        "reads": "(pred read (iota x (pred student x)) (iota y (pred book y)))",
        "the_student": "(iota x (pred student x))",
    }
    if modal:
        out["might_read"] = (
            "(might W (pred read (iota x (pred student x)) (iota y (pred book y))))"
        )
    names = frozenset(c.name for c in model.constants)
    return {k: parse_term(v, names) for k, v in out.items()}


def write(name: str, frames: tuple[Frame, ...], with_location: bool = False) -> None:
    model = build_model(frames, with_location)
    modal = bool(frames)
    mf = ModelFile(model, lexicon(modal), terms(model, modal))
    path = MODELS_DIR / name
    path.write_text(dump_model_file(mf), encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    MODELS_DIR.mkdir(exist_ok=True)
    write("extensional.json", ())
    write("modal.json", (FRAME_W,))
    write("modal_tense.json", (FRAME_W, FRAME_T))
    write("modal_tense_location.json", (FRAME_W, FRAME_T, FRAME_L), with_location=True)


if __name__ == "__main__":
    main()
