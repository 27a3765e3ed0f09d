"""Accessibility frames (finite carrier + endorelation) and maps between them.

Monotone and bounded maps each get two independent implementations, one by
quantifier chasing and one by relation algebra; the checkers insist the two
agree so either route can be trusted. trivialize maps a frame onto its
one-point frame, and section maps that point to one element of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .relalg import (
    EndpointMismatch,
    FinSet,
    FinsemError,
    FnGraph,
    Relation,
    compose,
    dagger,
    identity_graph,
    leq,
)


class UnknownElement(FinsemError):
    pass


TRIVIAL_ELEMENT = "k0"


@dataclass(frozen=True)
class Frame:
    """Labelled frame: non-empty carrier plus an accessibility endorelation."""

    label: str
    domain: FinSet
    rel: Relation

    def __post_init__(self) -> None:
        if len(self.domain) == 0:
            raise ValueError(f"frame {self.label!r} needs a non-empty domain")
        if self.rel.source != self.domain or self.rel.target != self.domain:
            raise ValueError(
                f"frame {self.label!r} needs an endorelation on its own domain"
            )

    @property
    def trivial(self) -> bool:
        """One point, related exactly to itself."""
        if len(self.domain) != 1:
            return False
        k = self.domain.elements[0]
        return self.rel.pairs == frozenset({(k, k)})

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        els = self.domain.elements
        return {u: tuple(v for v in els if (u, v) in self.rel.pairs) for u in els}

    def successors(self, element: str) -> list[str]:
        if element not in self._successors:
            raise UnknownElement(f"{element!r} is not in frame {self.label!r}")
        return list(self._successors[element])


@dataclass(frozen=True)
class FrameMap:
    """Function between the carriers of two frames."""

    source: Frame
    target: Frame
    graph: FnGraph

    def __post_init__(self) -> None:
        if (
            self.graph.source != self.source.domain
            or self.graph.target != self.target.domain
        ):
            raise ValueError("graph endpoints must be the two frame domains")

    def __call__(self, element: str) -> str:
        return self.graph(element)


@dataclass(frozen=True)
class MonotoneProfile:
    """Three renderings of monotonicity. They always agree."""

    pointwise: bool
    sandwich: bool
    semicommute: bool


def monotone_inclusions(m: FrameMap) -> MonotoneProfile:
    f = m.graph.underlying
    rx, ry = m.source.rel, m.target.rel
    pointwise = forth_holds(m)
    # rx <= f ; ry ; dagger(f)
    sandwich = leq(rx, compose(compose(f, ry), dagger(f)))
    # rx ; f <= f ; ry
    semicommute = leq(compose(rx, f), compose(f, ry))
    return MonotoneProfile(pointwise, sandwich, semicommute)


def is_monotone(m: FrameMap) -> bool:
    profile = monotone_inclusions(m)
    if not profile.pointwise == profile.sandwich == profile.semicommute:
        raise AssertionError("monotonicity routes disagree")
    return profile.pointwise


def forth_holds(m: FrameMap) -> bool:
    """u R_X v implies f(u) R_Y f(v)."""
    return all((m(u), m(v)) in m.target.rel.pairs for (u, v) in m.source.rel.pairs)


def back_holds(m: FrameMap) -> bool:
    """f(u) R_Y y implies some v with u R_X v and f(v) = y."""
    xs = m.source.domain.elements
    for u in xs:
        for y in m.target.domain.elements:
            if (m(u), y) in m.target.rel.pairs:
                if not any((u, v) in m.source.rel.pairs and m(v) == y for v in xs):
                    return False
    return True


def is_bounded(m: FrameMap) -> bool:
    quantified = forth_holds(m) and back_holds(m)
    relational = compose(m.source.rel, m.graph.underlying) == compose(
        m.graph.underlying, m.target.rel
    )
    if quantified != relational:
        raise AssertionError("bounded-morphism routes disagree")
    return quantified


def is_surjective(m: FrameMap) -> bool:
    image = {m(u) for u in m.source.domain.elements}
    return image == set(m.target.domain.elements)


def identity_map(f: Frame) -> FrameMap:
    return FrameMap(f, f, identity_graph(f.domain))


def compose_maps(m1: FrameMap, m2: FrameMap) -> FrameMap:
    if m1.target != m2.source:
        raise EndpointMismatch(
            f"cannot compose maps through {m1.target.label!r} vs {m2.source.label!r}"
        )
    return FrameMap(
        m1.source,
        m2.target,
        FnGraph(compose(m1.graph.underlying, m2.graph.underlying)),
    )


def _point(f: Frame, element: str) -> Frame:
    """f's label and carrier name over the one point k0, related to itself."""
    if element not in f.domain:
        raise UnknownElement(f"{element!r} is not in frame {f.label!r}")
    point = FinSet(f.domain.name, (TRIVIAL_ELEMENT,))
    return Frame(f.label, point, Relation(point, point, frozenset({(TRIVIAL_ELEMENT, TRIVIAL_ELEMENT)})))


def trivialize(f: Frame, designated: str) -> FrameMap:
    """The map collapsing a frame onto its one-point frame, the single point k0.

    The label and carrier name survive so collapsed frames from different
    routes compare equal. The designated element records which slice of any
    associated interpretation the collapse should keep; the map itself does
    not depend on it, but the choice must exist in the domain.
    """
    point = _point(f, designated)
    to_point = Relation(f.domain, point.domain, frozenset((u, TRIVIAL_ELEMENT) for u in f.domain.elements))
    return FrameMap(f, point, FnGraph(to_point))


def section(f: Frame, w: str) -> FrameMap:
    """The map k0 -> w into f from its one-point frame, which trivialize(f, w) retracts."""
    point = _point(f, w)
    return FrameMap(point, f, FnGraph(Relation(point.domain, f.domain, frozenset({(TRIVIAL_ELEMENT, w)}))))
