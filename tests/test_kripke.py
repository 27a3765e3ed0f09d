"""Frames, frame maps, boundedness, and the collapse to a point."""

from __future__ import annotations

import itertools
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsem import kripke
from finsem.kripke import (
    TRIVIAL_ELEMENT,
    Frame,
    FrameMap,
    UnknownElement,
    back_holds,
    compose_maps,
    forth_holds,
    identity_map,
    is_bounded,
    is_monotone,
    is_surjective,
    monotone_inclusions,
    section,
    trivialize,
)
from finsem.relalg import EndpointMismatch, FinSet, FnGraph, Relation

from helpers import child_env


def frame(label: str, elements: tuple[str, ...], pairs: set[tuple[str, str]]) -> Frame:
    dom = FinSet(label, elements)
    return Frame(label, dom, Relation(dom, dom, frozenset(pairs)))


def frame_map(src: Frame, tgt: Frame, table: dict[str, str]) -> FrameMap:
    graph = FnGraph(Relation(src.domain, tgt.domain, frozenset(table.items())))
    return FrameMap(src, tgt, graph)


# ---------------------------------------------------------------------------
# frames


def test_frame_validation() -> None:
    with pytest.raises(ValueError):
        frame("W", (), set())
    w = FinSet("W", ("w0",))
    t = FinSet("T", ("t0",))
    with pytest.raises(ValueError):
        Frame("W", w, Relation(t, t, frozenset()))


def test_trivial_flag() -> None:
    assert frame("K", ("k0",), {("k0", "k0")}).trivial
    assert not frame("K", ("k0",), set()).trivial
    assert not frame("W", ("w0", "w1"), {("w0", "w0"), ("w1", "w1")}).trivial


def test_successors_in_domain_order() -> None:
    f = frame("W", ("w0", "w1", "w2"), {("w0", "w2"), ("w0", "w0")})
    assert f.successors("w0") == ["w0", "w2"]
    assert f.successors("w1") == []
    with pytest.raises(UnknownElement):
        f.successors("w9")
    # each call returns a fresh list
    f.successors("w0").append("w1")
    assert f.successors("w0") == ["w0", "w2"]


# ---------------------------------------------------------------------------
# frozen map examples


def test_monotone_but_not_bounded() -> None:
    src = frame("X", ("x0",), set())
    tgt = frame("Y", ("y0",), {("y0", "y0")})
    m = frame_map(src, tgt, {"x0": "y0"})
    assert is_monotone(m)
    assert forth_holds(m)
    assert not back_holds(m)
    assert not is_bounded(m)


def test_not_monotone() -> None:
    src = frame("X", ("x0", "x1"), {("x0", "x1")})
    tgt = frame("Y", ("y0", "y1"), set())
    m = frame_map(src, tgt, {"x0": "y0", "x1": "y1"})
    assert not is_monotone(m)
    assert not forth_holds(m)


def test_disagreeing_routes_raise(monkeypatch) -> None:
    m = identity_map(frame("W", ("w0", "w1"), {("w0", "w1")}))
    monkeypatch.setattr(kripke, "forth_holds", lambda m: False)  # wrong: the identity is monotone
    with pytest.raises(AssertionError, match="^monotonicity routes disagree$"):
        is_monotone(m)
    with pytest.raises(AssertionError, match="^bounded-morphism routes disagree$"):
        is_bounded(m)


def test_disagreeing_routes_raise_under_python_o() -> None:
    """python -O drops assert statements; the route checks must not be ones."""
    code = (
        "from finsem import kripke\n"
        "from finsem.relalg import FinSet, Relation\n"
        "dom = FinSet('W', ('w0', 'w1'))\n"
        "m = kripke.identity_map(kripke.Frame('W', dom, Relation(dom, dom, frozenset({('w0', 'w1')}))))\n"
        "kripke.forth_holds = lambda m: False\n"
        "for check in (kripke.is_monotone, kripke.is_bounded):\n"
        "    try:\n"
        "        check(m)\n"
        "    except AssertionError as err:\n"
        "        print(err)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout == "monotonicity routes disagree\nbounded-morphism routes disagree\n"


def test_identity_map_is_bounded() -> None:
    f = frame("W", ("w0", "w1"), {("w0", "w1")})
    m = identity_map(f)
    assert is_monotone(m)
    assert is_bounded(m)
    assert is_surjective(m)


def test_relabelling_is_bounded() -> None:
    src = frame("W", ("w0", "w1"), {("w0", "w1")})
    tgt = frame("W", ("w0", "w1"), {("w1", "w0")})
    swap = frame_map(src, tgt, {"w0": "w1", "w1": "w0"})
    assert is_bounded(swap)


def test_compose_maps() -> None:
    a = frame("A", ("a0", "a1"), {("a0", "a1"), ("a1", "a0")})
    b = frame("B", ("b0",), {("b0", "b0")})
    c = frame("C", ("c0",), {("c0", "c0")})
    ab = frame_map(a, b, {"a0": "b0", "a1": "b0"})
    bc = frame_map(b, c, {"b0": "c0"})
    composed = compose_maps(ab, bc)
    assert composed.source == a
    assert composed.target == c
    assert composed("a0") == "c0"
    assert is_bounded(composed)
    with pytest.raises(EndpointMismatch):
        compose_maps(bc, ab)


# ---------------------------------------------------------------------------
# collapse to a point


def test_trivialize_shape() -> None:
    f = frame("W", ("w0", "w1"), {("w0", "w1"), ("w1", "w0")})
    t = trivialize(f, "w0")
    assert isinstance(t, FrameMap)
    assert t.target.label == "W"
    assert t.target.domain.name == "W"
    assert t.target.domain.elements == (TRIVIAL_ELEMENT,)
    assert t.target.trivial
    assert t.source == f
    assert is_surjective(t)
    with pytest.raises(UnknownElement):
        trivialize(f, "w9")


def test_trivialize_serial_frame_is_bounded() -> None:
    f = frame("W", ("w0", "w1"), {("w0", "w1"), ("w1", "w0")})
    assert is_bounded(trivialize(f, "w0"))


def test_trivialize_non_serial_counterexample() -> None:
    # w2 has no successor, so the back condition fails at w2
    f = frame("X", ("w1", "w2"), {("w1", "w1")})
    m = trivialize(f, "w1")
    assert forth_holds(m)
    assert not back_holds(m)
    assert not is_bounded(m)
    assert is_monotone(m)


def test_sections_of_every_frame_on_one_to_three_points() -> None:
    """section(f, w) is bounded exactly when w's only successor is w, monotone
    exactly when w sees itself, and trivialize(f, w) retracts it."""
    frames_seen = sections = bounded = monotone = 0
    for n in (1, 2, 3):
        elements = tuple(f"w{i}" for i in range(n))
        universe = [(u, v) for u in elements for v in elements]
        for bits in itertools.product((False, True), repeat=len(universe)):
            f = frame("W", elements, {pair for pair, kept in zip(universe, bits) if kept})
            frames_seen += 1
            for w in elements:
                s = section(f, w)
                assert s.source == trivialize(f, w).target and s.target == f
                assert is_bounded(s) == (f.successors(w) == [w])
                assert is_monotone(s) == ((w, w) in f.rel.pairs)
                assert compose_maps(s, trivialize(f, w)) == identity_map(s.source)
                sections += 1
                bounded += is_bounded(s)
                monotone += is_monotone(s)
    assert (frames_seen, sections, bounded, monotone) == (530, 1570, 201, 785)
    with pytest.raises(UnknownElement, match="'w9' is not in frame 'W'"):
        section(f, "w9")


# ---------------------------------------------------------------------------
# randomized checks


@st.composite
def frames(draw, label: str = "F", max_size: int = 3) -> Frame:
    n = draw(st.integers(1, max_size))
    dom = FinSet(label, tuple(f"{label.lower()}{i}" for i in range(n)))
    universe = [(u, v) for u in dom.elements for v in dom.elements]
    pairs = draw(st.frozensets(st.sampled_from(universe)))
    return Frame(label, dom, Relation(dom, dom, pairs))


@st.composite
def frame_maps(draw) -> FrameMap:
    src = draw(frames("X"))
    tgt = draw(frames("Y"))
    table = {u: draw(st.sampled_from(tgt.domain.elements)) for u in src.domain.elements}
    return frame_map(src, tgt, table)


@given(frame_maps())
def test_monotone_routes_agree(m: FrameMap) -> None:
    profile = monotone_inclusions(m)
    assert profile.pointwise == profile.sandwich == profile.semicommute
    assert is_monotone(m) == forth_holds(m)


@given(frame_maps())
def test_bounded_matches_quantifier_oracle(m: FrameMap) -> None:
    fwd = all(
        (m(u), m(v)) in m.target.rel.pairs for u, v in m.source.rel.pairs
    )
    back = all(
        any((u, v) in m.source.rel.pairs and m(v) == y for v in m.source.domain.elements)
        for u in m.source.domain.elements
        for y in m.target.domain.elements
        if (m(u), y) in m.target.rel.pairs
    )
    assert is_bounded(m) == (fwd and back)
    if is_bounded(m):
        assert is_monotone(m)


@given(frames())
def test_trivialization_bounded_iff_serial(f: Frame) -> None:
    m = trivialize(f, f.domain.elements[0])
    assert is_surjective(m)
    assert is_monotone(m)
    serial = all(f.successors(u) for u in f.domain.elements)
    assert is_bounded(m) == serial


@given(frames("A"), frames("B"), frames("C"), st.data())
def test_composition_preserves_bounded(a: Frame, b: Frame, c: Frame, data) -> None:
    ab = frame_map(a, b, {u: data.draw(st.sampled_from(b.domain.elements)) for u in a.domain.elements})
    bc = frame_map(b, c, {u: data.draw(st.sampled_from(c.domain.elements)) for u in b.domain.elements})
    composed = compose_maps(ab, bc)
    assert composed("a0") == bc(ab("a0"))
    if is_monotone(ab) and is_monotone(bc):
        assert is_monotone(composed)
    if is_bounded(ab) and is_bounded(bc):
        assert is_bounded(composed)
