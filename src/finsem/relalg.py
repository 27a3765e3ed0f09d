"""Binary relations over finite carriers and their dagger-category operations.

Everything here is desk scale: carriers are tuples of element ids, relations
are frozensets of pairs, and every law is decided by exhaustive enumeration.
The endorelation properties are one ordered table, _PROPERTIES, from each name
to its decision over the carrier's elements and the pairs; its keys are
PROPERTY_NAMES, check-rel's report order. A composite conjoins entries by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class FinsemError(Exception):
    """Base of every exception finsem raises for input it refuses."""


class EndpointMismatch(FinsemError):
    pass


class NotEndorelation(FinsemError):
    pass


class NotJointlyMonic(FinsemError):
    pass


@dataclass(frozen=True)
class FinSet:
    """Finite carrier with a fixed listing order (the canonical order)."""

    name: str
    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"duplicate elements in carrier {self.name!r}")

    def __contains__(self, element: str) -> bool:
        return element in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def position(self, element: str) -> int:
        return self.elements.index(element)


@dataclass(frozen=True)
class Relation:
    """Binary relation between two carriers, kept as a frozenset of id pairs."""

    source: FinSet
    target: FinSet
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        escaping = [(x, y) for x, y in self.pairs if x not in self.source or y not in self.target]
        if escaping:  # name the least, so the message does not depend on set order
            x, y = min(escaping)
            raise ValueError(f"pair ({x!r}, {y!r}) escapes {self.source.name} -> {self.target.name}")

    @property
    def is_endo(self) -> bool:
        return self.source == self.target

    def sorted_pairs(self) -> list[tuple[str, str]]:
        """Pairs in canonical order: source position first, then target position."""
        return sorted(
            self.pairs,
            key=lambda p: (self.source.position(p[0]), self.target.position(p[1])),
        )


@dataclass(frozen=True)
class FnGraph:
    """A total, single-valued relation used as a function between carriers."""

    underlying: Relation

    def __post_init__(self) -> None:
        table: dict[str, str] = {}
        for x, y in self.underlying.pairs:
            if x in table:
                raise ValueError(f"relation is not single-valued at {x!r}")
            table[x] = y
        for x in self.underlying.source.elements:
            if x not in table:
                raise ValueError(f"relation is not total: no value at {x!r}")
        # kept outside the dataclass fields, so == and hash stay structural
        object.__setattr__(self, "_table", table)

    @property
    def source(self) -> FinSet:
        return self.underlying.source

    @property
    def target(self) -> FinSet:
        return self.underlying.target

    def __call__(self, x: str) -> str:
        return self._table[x]


def identity(carrier: FinSet) -> Relation:
    return Relation(carrier, carrier, frozenset((e, e) for e in carrier.elements))


def identity_graph(carrier: FinSet) -> FnGraph:
    return FnGraph(identity(carrier))


def compose(r1: Relation, r2: Relation) -> Relation:
    """Diagram-order composite: first r1, then r2."""
    if r1.target != r2.source:
        raise EndpointMismatch(
            f"cannot compose {r1.source.name} -> {r1.target.name} "
            f"with {r2.source.name} -> {r2.target.name}"
        )
    successors: dict[str, set[str]] = {}
    for y, z in r2.pairs:
        successors.setdefault(y, set()).add(z)
    pairs = frozenset((x, z) for x, y in r1.pairs for z in successors.get(y, ()))
    return Relation(r1.source, r2.target, pairs)


def dagger(r: Relation) -> Relation:
    """Converse relation; swaps source and target."""
    return Relation(r.target, r.source, frozenset((y, x) for x, y in r.pairs))


def intersect(r1: Relation, r2: Relation) -> Relation:
    _require_parallel(r1, r2)
    return Relation(r1.source, r1.target, r1.pairs & r2.pairs)


def union(r1: Relation, r2: Relation) -> Relation:
    _require_parallel(r1, r2)
    return Relation(r1.source, r1.target, r1.pairs | r2.pairs)


def leq(r1: Relation, r2: Relation) -> bool:
    """Containment order on parallel relations."""
    _require_parallel(r1, r2)
    return r1.pairs <= r2.pairs


def _require_parallel(r1: Relation, r2: Relation) -> None:
    if r1.source != r2.source or r1.target != r2.target:
        raise EndpointMismatch(
            f"relations are not parallel: {r1.source.name} -> {r1.target.name} "
            f"vs {r2.source.name} -> {r2.target.name}"
        )


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


_Decision = Callable[[tuple[str, ...], frozenset[tuple[str, str]]], bool]


def _all_of(*names: str) -> _Decision:
    """The conjunction of the named entries of _PROPERTIES."""
    return lambda dom, rp: all(_PROPERTIES[p](dom, rp) for p in names)


_PROPERTIES: dict[str, _Decision] = {
    "serial": lambda dom, rp: all(any((u, v) in rp for v in dom) for u in dom),
    "reflexive": lambda dom, rp: all((u, u) in rp for u in dom),
    "symmetric": lambda dom, rp: all((v, u) in rp for (u, v) in rp),
    "antisymmetric": lambda dom, rp: all(u == v for (u, v) in rp if (v, u) in rp),
    "transitive": lambda dom, rp: all((u, w) in rp for (u, v) in rp for (v2, w) in rp if v == v2),
    # connexity: any two points are comparable (forces reflexivity)
    "total": lambda dom, rp: all((u, v) in rp or (v, u) in rp for u in dom for v in dom),
    "equivalence": _all_of("reflexive", "symmetric", "transitive"),
    "partial_order": _all_of("reflexive", "antisymmetric", "transitive"),
    "total_order": _all_of("partial_order", "total"),
    "strongly_connected": _all_of("total"),
    "weakly_connected": lambda dom, rp: all(
        (v, w) in rp or (w, v) in rp
        for u in dom
        for v in dom
        for w in dom
        if ((u, v) in rp and (u, w) in rp) or ((v, u) in rp and (w, u) in rp)
    ),
}
PROPERTY_NAMES = tuple(_PROPERTIES)


def check_property(r: Relation, prop: str) -> bool:
    """Decide a named property of an endorelation by exhaustive check."""
    if not r.is_endo:
        raise NotEndorelation(f"{r.source.name} -> {r.target.name} is not an endorelation")
    decide = _PROPERTIES.get(prop)
    if decide is None:
        raise ValueError(f"unknown property {prop!r}")
    return decide(r.source.elements, r.pairs)


def reflexive_iff_id_leq(r: Relation) -> bool:
    """True when the pointwise reflexivity check agrees with id <= r."""
    pointwise = check_property(r, "reflexive")
    ordered = leq(identity(r.source), r)
    return pointwise == ordered


@dataclass(frozen=True)
class FunctionProfile:
    """Pointwise function facts next to their relation-algebraic reformulations.

    The dagger fields hold for exactly the relations whose pointwise
    counterparts hold: total+single-valued for is_function, and, restricted
    to functions, inj_eq for is_injective and surj_eq for is_surjective.
    """

    is_function: bool
    is_injective: bool
    is_surjective: bool
    dagger_eq_total: bool
    dagger_eq_single: bool
    inj_eq: bool
    surj_eq: bool


def function_characterization(r: Relation) -> FunctionProfile:
    dom, cod = r.source, r.target
    images = {x: {y for (a, y) in r.pairs if a == x} for x in dom.elements}
    preimages = {y: {x for (x, b) in r.pairs if b == y} for y in cod.elements}
    total = all(len(images[x]) >= 1 for x in dom.elements)
    single = all(len(images[x]) <= 1 for x in dom.elements)
    r_dag = dagger(r)
    return FunctionProfile(
        is_function=total and single,
        is_injective=all(len(preimages[y]) <= 1 for y in cod.elements),
        is_surjective=all(len(preimages[y]) >= 1 for y in cod.elements),
        dagger_eq_total=leq(identity(dom), compose(r, r_dag)),
        dagger_eq_single=leq(compose(r_dag, r), identity(cod)),
        inj_eq=compose(r, r_dag) == identity(dom),
        surj_eq=compose(r_dag, r) == identity(cod),
    )


def modularity_holds(r1: Relation, r2: Relation, r3: Relation) -> bool:
    """Modular law for r1: X -> Y, r2: Y -> Z, r3: X -> Z."""
    lhs = intersect(compose(r1, r2), r3)
    rhs = compose(intersect(r1, compose(r3, dagger(r2))), r2)
    return leq(lhs, rhs)


def graph_projections(r: Relation) -> tuple[FnGraph, FnGraph]:
    """Tabulate r as a span: a carrier of pair elements with its two projections.

    The apex lists one element per related pair, in canonical pair order.
    Composing dagger(p1) with p2 reproduces r.
    """
    ordered = r.sorted_pairs()
    apex = FinSet(
        f"pairs({r.source.name},{r.target.name})",
        tuple(pair_id(x, y) for x, y in ordered),
    )
    p1 = FnGraph(Relation(apex, r.source, frozenset((pair_id(x, y), x) for x, y in ordered)))
    p2 = FnGraph(Relation(apex, r.target, frozenset((pair_id(x, y), y) for x, y in ordered)))
    return p1, p2


def from_jointly_monic(p1: FnGraph, p2: FnGraph) -> Relation:
    """Recover the relation tabulated by a jointly monic span of functions."""
    if p1.source != p2.source:
        raise EndpointMismatch(
            f"span legs disagree on apex: {p1.source.name} vs {p2.source.name}"
        )
    seen: set[tuple[str, str]] = set()
    for z in p1.source.elements:
        image = (p1(z), p2(z))
        if image in seen:
            raise NotJointlyMonic(f"span legs collide at {image}")
        seen.add(image)
    return Relation(p1.target, p2.target, frozenset(seen))
