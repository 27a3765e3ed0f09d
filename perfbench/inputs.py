"""Seeded inputs for the three workloads, built by the benchmark's own code.

Nothing here uses finsem.generators: those draw model sizes with randint, and
a later change to them (say, teaching random_term to emit Diamond) would
silently change what the benchmark measures.

Request i of a run draws from its own random stream, keyed by workload, seed
and i, so inputs are built one request at a time, outside the timed span, and
repeat exactly for a seed. Warm-up requests use a different seed. Shapes
(model sizes, term skeletons, CLI commands) cycle in a fixed order, one cycle
per block, so every block does the same mix of work and only the seeded
contents differ between seeds.

Every model is first described as a plain document in the model file schema
(see finsem/modelfile.py). Digests are taken over those documents and over
term text, so they do not depend on the program's own renderers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any

from finsem.denote import (
    And,
    App,
    Const,
    Diamond,
    Eq,
    FuncApp,
    Iota,
    Lam,
    Not,
    PredApp,
    Term,
    Var,
)
from finsem.kripke import Frame
from finsem.relalg import FinSet, Relation
from finsem.semmodel import (
    Assignment,
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
)

FRAME_LABELS = ("W", "T", "L")
ASSIGNED = ("x", "y", "z")

Doc = dict[str, Any]


def stream(workload: str, seed: str, i: int) -> random.Random:
    """The random stream of request i; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}:{i}")


def warmup_seed(seed: int) -> str:
    return f"warmup-{seed}"


def digest(parts: list[Any]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# model documents and their conversion to finsem models


TYPES = {
    "e": EntType(),
    "rel(e)": RelType((EntType(),)),
    "rel(e,e)": RelType((EntType(), EntType())),
    "fn(e,e)": fn_type([EntType()], EntType()),
    "fn(e,e,e)": fn_type([EntType(), EntType()], EntType()),
}


def frame_doc(label: str, n: int, pairs: set[tuple[int, int]]) -> Doc:
    names = [f"{label.lower()}{i}" for i in range(n)]
    return {
        "label": label,
        "elements": names,
        "pairs": [[names[a], names[b]] for a, b in sorted(pairs)],
    }


def index_rows(frames: list[Doc]) -> list[list[str]]:
    """Every index in canonical order, as lists of element ids."""
    return [list(combo) for combo in itertools.product(*(f["elements"] for f in frames))]


def model_from_doc(doc: Doc) -> Model:
    ents = FinSet("E", tuple(doc["entities"]))
    frames, designated = [], []
    for f in doc.get("frames", []):
        carrier = FinSet(f["label"], tuple(f["elements"]))
        pairs = frozenset(tuple(p) for p in f["pairs"])
        frames.append(Frame(f["label"], carrier, Relation(carrier, carrier, pairs)))
        if "designated" in f:
            designated.append((f["label"], f["designated"]))
    labels = [f.label for f in frames]
    constants = tuple(
        Constant(
            c["name"],
            TYPES[c["type"]],
            tuple(
                (Index(tuple(zip(labels, row["index"]))), _value(row["value"], c["type"]))
                for row in c["table"]
            ),
        )
        for c in doc["constants"]
    )
    return Model(ents, tuple(frames), constants, tuple(designated))


def _value(j: Any, type_text: str):
    if type_text == "e":
        return Entity(j)
    if type_text.startswith("rel"):
        return SetV(frozenset(TupleV(tuple(Entity(x) for x in row)) for row in j))
    return FnV(tuple((_key(k), Entity(v)) for k, v in j))


def _key(k: Any):
    if isinstance(k, str):
        return Entity(k)
    return TupleV((Entity(k[0]), Entity(k[1])))


def table(name: str, type_text: str, rows: list[list[str]], value_at) -> Doc:
    return {
        "name": name,
        "type": type_text,
        "table": [{"index": row, "value": value_at(row)} for row in rows],
    }


# ---------------------------------------------------------------------------
# terms


def term_text(t: Term) -> str:
    """S-expression text of a term, written here so digests do not depend on
    the program's renderer."""
    match t:
        case Const(name) | Var(name):
            return name
        case PredApp(name, args) | FuncApp(name, args):
            head = "pred" if isinstance(t, PredApp) else "func"
            return f"({head} {name} " + " ".join(term_text(a) for a in args) + ")"
        case Lam(var, _, body):
            return f"(lam {var} e {term_text(body)})"
        case App(f, a):
            return f"(app {term_text(f)} {term_text(a)})"
        case Iota(var, body):
            return f"(iota {var} {term_text(body)})"
        case Diamond(label, body):
            return f"(might {label} {term_text(body)})"
        case And(a, b):
            return f"(and {term_text(a)} {term_text(b)})"
        case Not(body):
            return f"(not {term_text(body)})"
        case Eq(a, b):
            return f"(eq {term_text(a)} {term_text(b)})"
    raise ValueError(f"unknown term {t!r}")


@dataclass(frozen=True)
class Signature:
    """The constants a term generator may use, by kind and arity."""

    entities: tuple[str, ...]
    preds: tuple[tuple[str, int], ...]
    fns: tuple[tuple[str, int], ...]


class TermGen:
    """Random well-typed terms over a signature, without Diamond.

    Variables x, y and z are bound by the request's assignment; lam and iota
    bind fresh v0, v1, ... so every term is closed under that assignment.
    """

    def __init__(self, rng: random.Random, sig: Signature):
        self.rng = rng
        self.sig = sig
        self.fresh = itertools.count()

    def top(self, depth: int) -> Term:
        roll = self.rng.random()
        if roll < 0.55:
            return self.truth(depth, ())
        if roll < 0.9:
            return self.entity(depth, ())
        v = self._var()
        return Lam(v, EntType(), self.truth(depth - 1, (v,)))

    def _var(self) -> str:
        return f"v{next(self.fresh)}"

    def entity(self, depth: int, scope: tuple[str, ...]) -> Term:
        rng = self.rng
        leaves = [Var(v) for v in ASSIGNED + scope] + [Const(c) for c in self.sig.entities]
        kind = "leaf" if depth <= 0 else rng.choice(("leaf", "leaf", "func", "iota", "app"))
        if kind == "leaf":
            return rng.choice(leaves)
        if kind == "func":
            name, arity = rng.choice(self.sig.fns)
            return FuncApp(name, tuple(self.entity(depth - 1, scope) for _ in range(arity)))
        v = self._var()
        if kind == "iota":
            return Iota(v, self.truth(depth - 1, scope + (v,)))
        body = self.entity(depth - 1, scope + (v,))
        return App(Lam(v, EntType(), body), self.entity(depth - 1, scope))

    def truth(self, depth: int, scope: tuple[str, ...]) -> Term:
        rng = self.rng
        kind = "pred" if depth <= 0 else rng.choice(("pred", "pred", "and", "not", "eq", "app"))
        if kind == "pred":
            name, arity = rng.choice(self.sig.preds)
            sub = max(depth - 1, 0)
            return PredApp(name, tuple(self.entity(sub, scope) for _ in range(arity)))
        if kind == "and":
            return And(self.truth(depth - 1, scope), self.truth(depth - 1, scope))
        if kind == "not":
            return Not(self.truth(depth - 1, scope))
        if kind == "eq":
            return Eq(self.entity(depth - 1, scope), self.entity(depth - 1, scope))
        v = self._var()
        body = self.truth(depth - 1, scope + (v,))
        return App(Lam(v, EntType(), body), self.entity(depth - 1, scope))


# ---------------------------------------------------------------------------
# sweep: many small models, each collapsed and then checked term by term

SWEEP_TERMS = 100
SWEEP_DEPTH = 4
# one block: every entity count with every frame layout of 1-2 frames of 1-3 points
SWEEP_SHAPES = tuple(
    itertools.product(
        (1, 2, 3),
        [(n,) for n in (1, 2, 3)] + list(itertools.product((1, 2, 3), repeat=2)),
    )
)


@dataclass(frozen=True)
class SweepInput:
    doc: Doc
    model: Model
    terms: tuple[Term, ...]
    assignment: Assignment

    def parts(self) -> list[Any]:
        return [self.doc, [term_text(t) for t in self.terms], list(self.assignment.bindings)]


def sweep_input(seed: str, i: int) -> SweepInput:
    rng = stream("sweep", seed, i)
    n_ent, sizes = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
    ents = [f"e{k}" for k in range(n_ent)]
    frames = []
    for label, n in zip(FRAME_LABELS, sizes):
        pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.5}
        fd = frame_doc(label, n, pairs)
        if rng.random() < 0.5:
            fd["designated"] = rng.choice(fd["elements"])
        frames.append(fd)
    rows = index_rows(frames)
    constants = []
    entities = tuple(f"c{k}" for k in range(rng.randint(1, 2)))
    for name in entities:
        constants.append(table(name, "e", rows, lambda _: rng.choice(ents)))
    preds = tuple((f"p{k}", rng.randint(1, 2)) for k in range(rng.randint(1, 2)))
    for name, arity in preds:
        tuples = [list(combo) for combo in itertools.product(ents, repeat=arity)]
        constants.append(
            table(
                name,
                "rel(e)" if arity == 1 else "rel(e,e)",
                rows,
                lambda _: [tp for tp in tuples if rng.random() < 0.5],
            )
        )
    arity = rng.randint(1, 2)
    keys = ents if arity == 1 else [list(p) for p in itertools.product(ents, repeat=2)]
    constants.append(
        table(
            "f0",
            "fn(e,e)" if arity == 1 else "fn(e,e,e)",
            rows,
            lambda _: [[k, rng.choice(ents)] for k in keys],
        )
    )
    doc = {"entities": ents, "frames": frames, "constants": constants}
    model = model_from_doc(doc)
    gen = TermGen(rng, Signature(entities, preds, (("f0", arity),)))
    terms = tuple(gen.top(SWEEP_DEPTH) for _ in range(SWEEP_TERMS))
    g = Assignment(tuple((v, rng.choice(ents)) for v in ASSIGNED))
    return SweepInput(doc, model, terms, g)


# ---------------------------------------------------------------------------
# modal_grid: fixed three-frame models, one eval_all_indices call per request

GRID_SIDES = (4, 6, 8)
GRID_ENTITIES = ("e0", "e1", "e2")
# every point has exactly two successors, so which frame a might quantifies
# over does not change the cost of a request
GRID_SUCCESSORS = {
    "W": lambda i: (i + 1, i + 2),
    "T": lambda i: (i, i + 1),
    "L": lambda i: (i + 1, i - 1),
}


def grid_doc(side: int) -> Doc:
    """A model of side**3 indices whose tables follow closed-form rules over the
    index coordinates. s0 and s1 hold exactly one entity at every index, so an
    iota over either never fails."""
    frames = [
        frame_doc(label, side, {(i, j % side) for i in range(side) for j in step(i)})
        for label, step in GRID_SUCCESSORS.items()
    ]
    rows = index_rows(frames)
    ne = len(GRID_ENTITIES)

    def ent(k: int) -> str:
        return GRID_ENTITIES[k % ne]

    def rule(fn):
        return lambda row: fn(*(int(e[1:]) for e in row))

    ks = range(ne)
    constants = [
        table("c0", "e", rows, rule(lambda w, t, l: ent(w + t + l))),
        table("c1", "e", rows, rule(lambda w, t, l: ent(w + 2 * t + l + 1))),
        table("s0", "rel(e)", rows, rule(lambda w, t, l: [[ent(w + l)]])),
        table("s1", "rel(e)", rows, rule(lambda w, t, l: [[ent(t + 2 * l + 1)]])),
        table(
            "p0", "rel(e)", rows,
            rule(lambda w, t, l: [[ent(k)] for k in ks if (k + w + t) % 2 == 0]),
        ),
        table(
            "p1", "rel(e)", rows,
            rule(lambda w, t, l: [[ent(k)] for k in ks if (k + t + l) % 3 != 0]),
        ),
        table(
            "r0", "rel(e,e)", rows,
            rule(
                lambda w, t, l: [
                    [ent(j), ent(k)] for j in ks for k in ks if (j + k + w + l) % 2 == 0
                ]
            ),
        ),
        table(
            "f0", "fn(e,e)", rows,
            rule(lambda w, t, l: [[ent(k), ent(k + w + t + l)] for k in ks]),
        ),
    ]
    return {"entities": list(GRID_ENTITIES), "frames": frames, "constants": constants}


def _grid_skeletons():
    """Term shapes of the modal_grid corpus. Each is (might M phi): the shape is
    fixed per slot, the seed picks frames, predicates and constants. Every
    shape looks up twelve constant values per index, so no shape dominates
    the cost and requests of one model size cost about the same."""

    def pick(rng, *names):
        return rng.choice(names)

    def frame(rng):
        return pick(rng, *FRAME_LABELS)

    def the(rng, var):
        return Iota(var, PredApp(pick(rng, "s0", "s1"), (Var(var),)))

    def unary(rng, arg):
        return PredApp(pick(rng, "p0", "p1"), (arg,))

    def const(rng):
        return Const(pick(rng, "c0", "c1"))

    return (
        lambda r: Diamond(frame(r), Diamond(frame(r), PredApp("r0", (const(r), const(r))))),
        lambda r: Diamond(frame(r), And(unary(r, the(r, "x")), unary(r, const(r)))),
        lambda r: Diamond(frame(r), App(Lam("x", EntType(), unary(r, Var("x"))), the(r, "y"))),
        lambda r: Diamond(
            frame(r), Eq(FuncApp("f0", (FuncApp("f0", (const(r),)),)), the(r, "y"))
        ),
        lambda r: Diamond(
            frame(r), And(unary(r, const(r)), Not(Diamond(frame(r), unary(r, const(r)))))
        ),
    )


GRID_SKELETONS = _grid_skeletons()
# one block: every skeleton, each term evaluated on every model size
GRID_BLOCK = len(GRID_SKELETONS) * len(GRID_SIDES)


@dataclass(frozen=True)
class GridInput:
    side: int
    term: Diamond

    def parts(self) -> list[Any]:
        return [self.side, term_text(self.term)]


def grid_input(seed: str, i: int) -> GridInput:
    """Request i: skeleton i // 3 of its block, on side i % 3; the three sizes
    of a slot share one term, so per-index costs compare like with like."""
    slot, size = divmod(i, len(GRID_SIDES))
    rng = stream("modal_grid", seed, slot)
    return GridInput(GRID_SIDES[size], GRID_SKELETONS[slot % len(GRID_SKELETONS)](rng))


# ---------------------------------------------------------------------------
# cli: one command per request, each on a model file of its own

CLI_COMMANDS = (
    "check-rel",
    "check-map",
    "eval",
    "sentence",
    "trivialize",
    "verify-theorem",
    "square",
    "diagram",
)
# frame sizes (W, T, L); each size from 2 to 6 appears for every frame
CLI_SHAPES = ((2, 3, 4), (3, 4, 2), (4, 2, 3), (5, 2, 2), (2, 6, 2), (2, 2, 5), (6, 2, 2), (2, 5, 2))
CLI_BLOCK = len(CLI_COMMANDS) * len(CLI_SHAPES)
STUDENTS = ("s0", "s1")
BOOKS = ("b0", "b1")
CLI_ENTITIES = STUDENTS + BOOKS
SENTENCE = "the student might read the book"
SENTENCE_TREE = (
    "(S (DP (D the) (NP (N student))) (VP (Mod might) "
    "(V' (V read) (DP (D the) (NP (N book))))))"
)
READS = "(pred read (iota x (pred student x)) (iota y (pred book y)))"
LEXICON = {
    "the": {"cat": "D", "sem": "iota"},
    "student": {"cat": "N", "pred": "student"},
    "book": {"cat": "N", "pred": "book"},
    "read": {"cat": "V", "pred": "read"},
    "might": {"cat": "Mod", "frame": "W"},
}
NAMED_TERMS = {
    "reads": READS,
    "liked": "(func likes alice)",
    "happy_reader": "(app (lam v e (pred happy v)) (iota x (pred student x)))",
    "maybe_happy": "(might T (pred happy alice))",
}
MODAL_NAMED = ("maybe_happy",)


@dataclass(frozen=True)
class CliInput:
    doc: Doc
    command: str
    options: tuple[str, ...]
    index: tuple[str, ...]
    eval_term: str

    def parts(self) -> list[Any]:
        return [self.doc, self.command, list(self.options)]

    def argv(self, model_path: str, out_path: str) -> list[str]:
        extra = ["--out", out_path] if self.command == "trivialize" else []
        return [self.command, model_path, *self.options, *extra]


def cli_doc(rng: random.Random, sizes: tuple[int, ...]) -> Doc:
    """A three-frame model file with a lexicon and named terms. Every frame is
    serial, so each collapse map is bounded; student and book hold one entity
    at every index, so the fragment's definite descriptions never fail."""
    frames = []
    for label, n in zip(FRAME_LABELS, sizes):
        pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        for a in range(n):
            if not any(p[0] == a for p in pairs):
                pairs.add((a, rng.randrange(n)))
        fd = frame_doc(label, n, pairs)
        fd["designated"] = rng.choice(fd["elements"])
        frames.append(fd)
    rows = index_rows(frames)
    pairs = [[a, b] for a in CLI_ENTITIES for b in CLI_ENTITIES]
    constants = [
        table("alice", "e", rows, lambda _: rng.choice(STUDENTS)),
        table("book", "rel(e)", rows, lambda _: [[rng.choice(BOOKS)]]),
        table("happy", "rel(e)", rows, lambda _: [[e] for e in CLI_ENTITIES if rng.random() < 0.5]),
        table("likes", "fn(e,e)", rows, lambda _: [[e, rng.choice(CLI_ENTITIES)] for e in CLI_ENTITIES]),
        table("read", "rel(e,e)", rows, lambda _: [p for p in pairs if rng.random() < 0.5]),
        table("student", "rel(e)", rows, lambda _: [[rng.choice(STUDENTS)]]),
    ]
    return {
        "entities": list(CLI_ENTITIES),
        "frames": frames,
        "constants": constants,
        "lexicon": LEXICON,
        "terms": NAMED_TERMS,
    }


def cli_input(seed: str, i: int) -> CliInput:
    rng = stream("cli", seed, i)
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    doc = cli_doc(rng, CLI_SHAPES[(i // len(CLI_COMMANDS)) % len(CLI_SHAPES)])
    index = tuple(rng.choice(f["elements"]) for f in doc["frames"])
    eval_term = rng.choice((READS, f"(might {rng.choice(FRAME_LABELS)} (pred happy alice))"))
    options: tuple[str, ...] = ()
    if command == "eval":
        options = ("--term", eval_term, "--index", ",".join(index))
    elif command == "sentence":
        options = ("--text", SENTENCE, "--index", ",".join(index))
    elif command == "trivialize":
        options = ("--frame", rng.choice(FRAME_LABELS))
    elif command == "square":
        options = ("--frames", ",".join(FRAME_LABELS))
    return CliInput(doc, command, options, index, eval_term)
