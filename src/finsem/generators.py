"""Seeded random generators for carriers, relations, frames, maps, models,
and well-typed terms.

Everything draws from a caller-supplied random.Random, so sweeps and the
acceptance suite are reproducible from a single seed.
"""

from __future__ import annotations

import itertools
import random

from .denote import (
    And,
    App,
    Const,
    Eq,
    FuncApp,
    Iota,
    Lam,
    Not,
    PredApp,
    Term,
    Var,
)
from .kripke import Frame, FrameMap
from .relalg import FinSet, FnGraph, Relation
from .semmodel import (
    ENT_TYPE,
    Constant,
    Entity,
    FnType,
    FnV,
    Model,
    RelType,
    SetV,
    TupleV,
    fn_arity,
    fn_type,
    index_space,
    type_domain,
)

ASSIGNMENT_VARS = ("x", "y", "z")


def random_carrier(
    rng: random.Random, name: str, max_size: int = 4, min_size: int = 0
) -> FinSet:
    n = rng.randint(min_size, max_size)
    return FinSet(name, tuple(f"{name.lower()}{i}" for i in range(n)))


def random_relation(rng: random.Random, source: FinSet, target: FinSet) -> Relation:
    d = rng.random()
    pairs = frozenset(
        (x, y)
        for x in source.elements
        for y in target.elements
        if rng.random() < d
    )
    return Relation(source, target, pairs)


def random_fn_graph(rng: random.Random, source: FinSet, target: FinSet) -> FnGraph:
    if len(target) == 0 and len(source) > 0:
        raise ValueError("no function into an empty carrier")
    pairs = frozenset((x, rng.choice(target.elements)) for x in source.elements)
    return FnGraph(Relation(source, target, pairs))


def random_frame(
    rng: random.Random,
    label: str,
    max_size: int = 3,
    serial: bool = False,
) -> Frame:
    carrier = FinSet(
        label, tuple(f"{label.lower()}{i}" for i in range(rng.randint(1, max_size)))
    )
    rel = random_relation(rng, carrier, carrier)
    if serial:
        # give every point a successor so the collapse map is bounded
        pairs = set(rel.pairs)
        for u in carrier.elements:
            if not any(a == u for a, _ in pairs):
                pairs.add((u, rng.choice(carrier.elements)))
        rel = Relation(carrier, carrier, frozenset(pairs))
    return Frame(label, carrier, rel)


def random_frame_map(rng: random.Random, max_size: int = 3) -> FrameMap:
    src = random_frame(rng, "X", max_size)
    tgt = random_frame(rng, "Y", max_size)
    return FrameMap(src, tgt, random_fn_graph(rng, src.domain, tgt.domain))


def random_isomorphism(rng: random.Random, frame: Frame) -> FrameMap:
    """Relabelling of a frame along a random permutation of its points."""
    perm = list(frame.domain.elements)
    rng.shuffle(perm)
    mapping = dict(zip(frame.domain.elements, perm))
    moved = Relation(
        frame.domain,
        frame.domain,
        frozenset((mapping[u], mapping[v]) for u, v in frame.rel.pairs),
    )
    target = Frame(frame.label, frame.domain, moved)
    graph = FnGraph(
        Relation(frame.domain, frame.domain, frozenset(mapping.items()))
    )
    return FrameMap(frame, target, graph)


def random_model(
    rng: random.Random,
    max_entities: int = 3,
    min_frames: int = 1,
    max_frames: int = 2,
    max_frame_size: int = 3,
) -> Model:
    """Small model with entity constants, predicates, and one function."""
    ents = FinSet("E", tuple(f"e{i}" for i in range(rng.randint(1, max_entities))))
    nframes = rng.randint(min_frames, max_frames)
    frames = tuple(
        random_frame(rng, ("W", "T", "L")[i], max_frame_size) for i in range(nframes)
    )
    space = index_space(frames)

    constants: list[Constant] = []
    for i in range(rng.randint(1, 2)):
        rows = tuple((s, Entity(rng.choice(ents.elements))) for s in space)
        constants.append(Constant(f"c{i}", ENT_TYPE, rows))
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        ty = RelType((ENT_TYPE,) * arity)
        rows = []
        for s in space:
            combos = itertools.product(ents.elements, repeat=arity)
            rows.append((s, SetV(TupleV(map(Entity, c)) for c in combos if rng.random() < 0.5)))
        constants.append(Constant(f"p{i}", ty, tuple(rows)))
    arity = rng.randint(1, 2)
    fty = fn_type([ENT_TYPE] * arity, ENT_TYPE)
    keys = type_domain(Model(ents, frames, ()), fty.domain)
    rows = []
    for s in space:
        rows.append((s, FnV((k, Entity(rng.choice(ents.elements))) for k in keys)))
    constants.append(Constant("f0", fty, tuple(rows)))

    designated = tuple(
        (f.label, rng.choice(f.domain.elements))
        for f in frames
        if rng.random() < 0.5
    )
    return Model(ents, frames, tuple(constants), designated)


# ---------------------------------------------------------------------------
# terms


def _entity_constants(m: Model) -> list[str]:
    return [c.name for c in m.constants if c.semtype == ENT_TYPE]


def _predicates(m: Model) -> list[Constant]:
    return [c for c in m.constants if isinstance(c.semtype, RelType)]


def _functions(m: Model) -> list[Constant]:
    return [c for c in m.constants if isinstance(c.semtype, FnType)]


def random_term(rng: random.Random, m: Model, max_depth: int = 4) -> Term:
    """Well-typed closed-or-assignment-bound term, entity or truth valued,
    occasionally function valued via a bare lambda."""
    fresh = itertools.count()
    roll = rng.random()
    if roll < 0.55:
        return _t_term(rng, m, max_depth, (), fresh)
    if roll < 0.9:
        return _e_term(rng, m, max_depth, (), fresh)
    v = f"v{next(fresh)}"
    return Lam(v, ENT_TYPE, _t_term(rng, m, max_depth - 1, (v,), fresh))


def _e_term(
    rng: random.Random,
    m: Model,
    depth: int,
    scope: tuple[str, ...],
    fresh,
) -> Term:
    leaves: list[Term] = [Var(v) for v in ASSIGNMENT_VARS + scope]
    leaves.extend(Const(n) for n in _entity_constants(m))
    if depth <= 0:
        return rng.choice(leaves)
    options = ["leaf", "leaf"]
    if _functions(m):
        options.append("func")
    if _predicates(m):
        options.append("iota")
    options.append("app")
    match rng.choice(options):
        case "leaf":
            return rng.choice(leaves)
        case "func":
            f = rng.choice(_functions(m))
            args = tuple(
                _e_term(rng, m, depth - 1, scope, fresh)
                for _ in range(fn_arity(f.semtype))
            )
            return FuncApp(f.name, args)
        case "iota":
            v = f"v{next(fresh)}"
            return Iota(v, _t_term(rng, m, depth - 1, scope + (v,), fresh))
        case _:
            v = f"v{next(fresh)}"
            body = _e_term(rng, m, depth - 1, scope + (v,), fresh)
            arg = _e_term(rng, m, depth - 1, scope, fresh)
            return App(Lam(v, ENT_TYPE, body), arg)


def _t_term(
    rng: random.Random,
    m: Model,
    depth: int,
    scope: tuple[str, ...],
    fresh,
) -> Term:
    preds = _predicates(m)
    if depth <= 0 or not preds:
        if preds:
            p = rng.choice(preds)
            args = tuple(
                _e_term(rng, m, 0, scope, fresh)
                for _ in range(len(p.semtype.components))
            )
            return PredApp(p.name, args)
        left = _e_term(rng, m, 0, scope, fresh)
        right = _e_term(rng, m, 0, scope, fresh)
        return Eq(left, right)
    match rng.choice(["pred", "pred", "and", "not", "eq", "app"]):
        case "pred":
            p = rng.choice(preds)
            args = tuple(
                _e_term(rng, m, depth - 1, scope, fresh)
                for _ in range(len(p.semtype.components))
            )
            return PredApp(p.name, args)
        case "and":
            return And(
                _t_term(rng, m, depth - 1, scope, fresh),
                _t_term(rng, m, depth - 1, scope, fresh),
            )
        case "not":
            return Not(_t_term(rng, m, depth - 1, scope, fresh))
        case "eq":
            return Eq(
                _e_term(rng, m, depth - 1, scope, fresh),
                _e_term(rng, m, depth - 1, scope, fresh),
            )
        case _:
            v = f"v{next(fresh)}"
            body = _t_term(rng, m, depth - 1, scope + (v,), fresh)
            arg = _e_term(rng, m, depth - 1, scope, fresh)
            return App(Lam(v, ENT_TYPE, body), arg)
