"""Relation algebra: frozen examples plus randomized law checks.

The expected values in the frozen tests were computed by hand from the
pointwise definitions before the implementation existed.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finsem.relalg import (
    EndpointMismatch,
    FinSet,
    FnGraph,
    NotEndorelation,
    NotJointlyMonic,
    PROPERTY_NAMES,
    Relation,
    check_property,
    compose,
    dagger,
    from_jointly_monic,
    function_characterization,
    graph_projections,
    identity,
    identity_graph,
    intersect,
    leq,
    modularity_holds,
    reflexive_iff_id_leq,
    union,
)

X = FinSet("X", ("a", "b"))
Y = FinSet("Y", ("x", "y"))
Z = FinSet("Z", ("u",))


def rel(src: FinSet, tgt: FinSet, *pairs: tuple[str, str]) -> Relation:
    return Relation(src, tgt, frozenset(pairs))


# ---------------------------------------------------------------------------
# frozen examples


def test_compose_example() -> None:
    r1 = rel(X, Y, ("a", "x"), ("b", "y"))
    r2 = rel(Y, Z, ("x", "u"))
    assert compose(r1, r2) == rel(X, Z, ("a", "u"))


def test_compose_rejects_endpoint_mismatch() -> None:
    with pytest.raises(EndpointMismatch):
        compose(rel(X, Y, ("a", "x")), rel(X, Y, ("a", "x")))


def test_dagger_example() -> None:
    r = rel(X, Y, ("a", "x"), ("b", "y"))
    assert dagger(r) == rel(Y, X, ("x", "a"), ("y", "b"))


def test_identity_and_order() -> None:
    assert identity(X) == rel(X, X, ("a", "a"), ("b", "b"))
    small = rel(X, Y, ("a", "x"))
    big = rel(X, Y, ("a", "x"), ("b", "y"))
    assert leq(small, big)
    assert not leq(big, small)
    with pytest.raises(EndpointMismatch):
        leq(small, rel(Y, X, ("x", "a")))


def test_lattice_ops() -> None:
    r = rel(X, Y, ("a", "x"), ("b", "y"))
    s = rel(X, Y, ("a", "x"), ("a", "y"))
    assert intersect(r, s) == rel(X, Y, ("a", "x"))
    assert union(r, s) == rel(X, Y, ("a", "x"), ("a", "y"), ("b", "y"))


def test_sorted_pairs_canonical_order() -> None:
    r = rel(X, Y, ("b", "x"), ("a", "y"), ("a", "x"))
    assert r.sorted_pairs() == [("a", "x"), ("a", "y"), ("b", "x")]


def test_relation_rejects_stray_elements() -> None:
    with pytest.raises(ValueError):
        rel(X, Y, ("a", "nope"))
    # of several stray pairs the least is named, whatever the set's order
    with pytest.raises(ValueError, match=r"pair \('a', 'q'\) escapes X -> Y"):
        rel(X, Y, ("z", "x"), ("b", "p"), ("a", "x"), ("a", "q"))


def test_carrier_rejects_duplicates() -> None:
    with pytest.raises(ValueError):
        FinSet("X", ("a", "a"))


# property decision table, computed by hand from the definitions
ORDER3 = FinSet("P", ("1", "2", "3"))
LE = rel(
    ORDER3, ORDER3, ("1", "1"), ("1", "2"), ("1", "3"), ("2", "2"), ("2", "3"), ("3", "3")
)
TWO = FinSet("W", ("w0", "w1"))
EDGE = rel(TWO, TWO, ("w0", "w1"))
THREE = FinSet("Q", ("a", "b", "c"))
PARTITION = rel(
    THREE, THREE, ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("c", "c")
)

EXPECTED_PROPS = {
    "LE": {
        "serial": True,
        "reflexive": True,
        "symmetric": False,
        "antisymmetric": True,
        "transitive": True,
        "total": True,
        "equivalence": False,
        "partial_order": True,
        "total_order": True,
        "strongly_connected": True,
        "weakly_connected": True,
    },
    "EDGE": {
        "serial": False,
        "reflexive": False,
        "symmetric": False,
        "antisymmetric": True,
        "transitive": True,
        "total": False,
        "equivalence": False,
        "partial_order": False,
        "total_order": False,
        "strongly_connected": False,
        "weakly_connected": False,
    },
    "PARTITION": {
        "serial": True,
        "reflexive": True,
        "symmetric": True,
        "antisymmetric": False,
        "transitive": True,
        "total": False,
        "equivalence": True,
        "partial_order": False,
        "total_order": False,
        "strongly_connected": False,
        "weakly_connected": True,
    },
}


@pytest.mark.parametrize("name,r", [("LE", LE), ("EDGE", EDGE), ("PARTITION", PARTITION)])
def test_property_table(name: str, r: Relation) -> None:
    got = {p: check_property(r, p) for p in PROPERTY_NAMES}
    assert got == EXPECTED_PROPS[name]


def test_property_checks_need_endorelations() -> None:
    with pytest.raises(NotEndorelation):
        check_property(rel(X, Y, ("a", "x")), "reflexive")
    with pytest.raises(ValueError):
        check_property(LE, "euclidean")


def test_reflexivity_routes_need_an_endorelation() -> None:
    with pytest.raises(NotEndorelation, match=r"^X -> Y is not an endorelation$"):
        reflexive_iff_id_leq(rel(X, Y, ("a", "x")))


def test_function_profile_examples() -> None:
    collapse = rel(X, Z, ("a", "u"), ("b", "u"))
    p = function_characterization(collapse)
    assert (p.is_function, p.is_injective, p.is_surjective) == (True, False, True)
    assert (p.dagger_eq_total, p.dagger_eq_single) == (True, True)
    assert (p.inj_eq, p.surj_eq) == (False, True)

    partial = rel(X, Y, ("a", "x"))
    p = function_characterization(partial)
    assert not p.is_function
    assert not p.dagger_eq_total
    assert p.dagger_eq_single

    one = FinSet("O", ("a",))
    multi = rel(one, Y, ("a", "x"), ("a", "y"))
    p = function_characterization(multi)
    assert not p.is_function
    assert p.dagger_eq_total
    assert not p.dagger_eq_single


def test_modularity_example() -> None:
    y2 = FinSet("Y", ("y1", "y2"))
    r1 = rel(X, y2, ("a", "y1"), ("b", "y2"))
    r2 = rel(y2, Z, ("y1", "u"))
    r3 = rel(X, Z, ("a", "u"), ("b", "u"))
    assert modularity_holds(r1, r2, r3)
    lhs = intersect(compose(r1, r2), r3)
    assert lhs == rel(X, Z, ("a", "u"))


def test_span_tabulation_example() -> None:
    r = rel(X, Y, ("a", "x"), ("b", "x"))
    p1, p2 = graph_projections(r)
    assert p1.source.elements == ("(a,x)", "(b,x)")
    assert compose(dagger(p1.underlying), p2.underlying) == r
    assert from_jointly_monic(p1, p2) == r


def test_from_jointly_monic_rejects_collisions() -> None:
    apex = FinSet("A", ("p", "q"))
    to_a = FnGraph(rel(apex, X, ("p", "a"), ("q", "a")))
    to_x = FnGraph(rel(apex, Y, ("p", "x"), ("q", "x")))
    with pytest.raises(NotJointlyMonic):
        from_jointly_monic(to_a, to_x)
    with pytest.raises(EndpointMismatch):
        from_jointly_monic(to_a, FnGraph(rel(X, Y, ("a", "x"), ("b", "x"))))


def test_fn_graph_validation() -> None:
    with pytest.raises(ValueError):
        FnGraph(rel(X, Y, ("a", "x")))  # not total
    with pytest.raises(ValueError):
        FnGraph(rel(X, Y, ("a", "x"), ("a", "y"), ("b", "x")))  # not single-valued
    f = FnGraph(rel(X, Y, ("a", "x"), ("b", "x")))
    assert f("a") == "x"
    assert identity_graph(X)("b") == "b"


# ---------------------------------------------------------------------------
# randomized laws


def carrier(name: str, size: int) -> FinSet:
    return FinSet(name, tuple(f"{name.lower()}{i}" for i in range(size)))


@st.composite
def relation_between(draw, src: FinSet, tgt: FinSet) -> Relation:
    universe = [(x, y) for x in src.elements for y in tgt.elements]
    if not universe:
        return Relation(src, tgt, frozenset())
    return Relation(src, tgt, draw(st.frozensets(st.sampled_from(universe))))


@st.composite
def chains(draw, length: int = 3) -> list[Relation]:
    names = ("X", "Y", "Z", "U")
    sets = [carrier(names[i], draw(st.integers(0, 4))) for i in range(length + 1)]
    return [draw(relation_between(sets[i], sets[i + 1])) for i in range(length)]


@st.composite
def endorelations(draw, max_size: int = 4) -> Relation:
    dom = carrier("D", draw(st.integers(1, max_size)))
    return draw(relation_between(dom, dom))


@st.composite
def fn_graphs(draw, max_size: int = 4) -> FnGraph:
    src = carrier("S", draw(st.integers(0, max_size)))
    tgt = carrier("T", draw(st.integers(1, max_size)))
    pairs = frozenset((x, draw(st.sampled_from(tgt.elements))) for x in src.elements)
    return FnGraph(Relation(src, tgt, pairs))


@given(chains())
def test_composition_associative(rs: list[Relation]) -> None:
    r1, r2, r3 = rs
    assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))


@given(chains(1))
def test_identity_laws(rs: list[Relation]) -> None:
    (r,) = rs
    assert compose(identity(r.source), r) == r
    assert compose(r, identity(r.target)) == r


@given(chains(2))
def test_dagger_axioms(rs: list[Relation]) -> None:
    r1, r2 = rs
    assert dagger(dagger(r1)) == r1
    assert dagger(compose(r1, r2)) == compose(dagger(r2), dagger(r1))
    assert dagger(identity(r1.source)) == identity(r1.source)


@given(chains(1), st.data())
def test_order_is_a_partial_order(rs: list[Relation], data) -> None:
    (r,) = rs
    assert leq(r, r)
    sub = frozenset() if not r.pairs else data.draw(st.frozensets(st.sampled_from(sorted(r.pairs))))
    s = Relation(r.source, r.target, sub)
    assert leq(s, r)
    if leq(r, s):
        assert r == s
    t = data.draw(relation_between(r.source, r.target))
    assert leq(intersect(r, t), r)
    assert leq(r, union(r, t))


@given(chains(2), st.data())
def test_composition_and_dagger_monotone(rs: list[Relation], data) -> None:
    r1, r2 = rs
    bigger1 = union(r1, data.draw(relation_between(r1.source, r1.target)))
    bigger2 = union(r2, data.draw(relation_between(r2.source, r2.target)))
    assert leq(compose(r1, r2), compose(bigger1, bigger2))
    assert leq(dagger(r1), dagger(bigger1))


@given(chains(2), st.data())
def test_modularity_random(rs: list[Relation], data) -> None:
    r1, r2 = rs
    r3 = data.draw(relation_between(r1.source, r2.target))
    assert modularity_holds(r1, r2, r3)


@given(endorelations())
def test_properties_match_pointwise_oracle(r: Relation) -> None:
    dom, rp = r.source.elements, r.pairs
    oracle = {
        "serial": all(any((u, v) in rp for v in dom) for u in dom),
        "reflexive": all((u, u) in rp for u in dom),
        "symmetric": all((b, a) in rp for a, b in rp),
        "antisymmetric": not any((b, a) in rp and a != b for a, b in rp),
        "transitive": all(
            (a, d) in rp for a, b in rp for c, d in rp if b == c
        ),
        "total": all((u, v) in rp or (v, u) in rp for u in dom for v in dom),
    }
    for name, expected in oracle.items():
        assert check_property(r, name) == expected
    assert check_property(r, "equivalence") == (
        oracle["reflexive"] and oracle["symmetric"] and oracle["transitive"]
    )
    assert check_property(r, "partial_order") == (
        oracle["reflexive"] and oracle["antisymmetric"] and oracle["transitive"]
    )
    assert check_property(r, "total_order") == (
        check_property(r, "partial_order") and oracle["total"]
    )
    assert reflexive_iff_id_leq(r)


@given(chains(1))
def test_function_profile_biconditionals(rs: list[Relation]) -> None:
    (r,) = rs
    p = function_characterization(r)
    assert p.is_function == (p.dagger_eq_total and p.dagger_eq_single)
    if p.is_function:
        assert p.is_injective == p.inj_eq
        assert p.is_surjective == p.surj_eq


@given(fn_graphs())
def test_fn_graph_biconditionals(f: FnGraph) -> None:
    p = function_characterization(f.underlying)
    assert p.is_function
    assert p.is_injective == p.inj_eq
    assert p.is_surjective == p.surj_eq


@given(fn_graphs(), st.data())
def test_graph_composition_agrees_with_relation_composition(f: FnGraph, data) -> None:
    tgt2 = carrier("U", data.draw(st.integers(1, 4)))
    pairs = frozenset(
        (y, data.draw(st.sampled_from(tgt2.elements))) for y in f.target.elements
    )
    g = FnGraph(Relation(f.target, tgt2, pairs))
    pointwise = Relation(
        f.source, tgt2, frozenset((x, g(f(x))) for x in f.source.elements)
    )
    assert compose(f.underlying, g.underlying) == pointwise


@given(chains(1))
def test_span_round_trip(rs: list[Relation]) -> None:
    (r,) = rs
    p1, p2 = graph_projections(r)
    assert compose(dagger(p1.underlying), p2.underlying) == r
    assert from_jointly_monic(p1, p2) == r
