"""Modal truth along frame maps: bounded morphisms preserve every term, and
monotone maps do not (Blackburn, de Rijke & Venema, Modal Logic, 2001, §2.1).

A frame map f: F -> G acts on a one-frame model n over G by pullback: the
model m over F whose constants hold, at each u, n's values at f(u). When f is
a bounded morphism, every term, Diamond included, has at u in m the outcome
(a value, or the error's class name) that it has at f(u) in n. A map that is
monotone but not bounded keeps the forth condition and loses the back one, so
a Diamond at f(u) can see a successor that no successor of u maps to.
"""

from __future__ import annotations

import random
from collections import Counter

from finsem import morphisms
from finsem.denote import eval_int, has_modal
from finsem.generators import random_fn_graph, random_frame, random_model
from finsem.kripke import FrameMap, is_bounded, is_monotone
from finsem.semmodel import Index

from helpers import _full_assignment, _wrapped_term

FRAME_MAPS = 300  # draws, each a model n over G, a frame F and a map F -> G
TERMS = 8  # random truth terms per draw, under one assignment


def _outcome(term, m, g, s):
    try:
        return eval_int(term, m, g, s)
    except Exception as err:
        return type(err).__name__


def _tally() -> dict[str, Counter]:
    """Per kind of map, bounded or monotone but not bounded: maps, checks (one
    per term and point u of F), disagreements, error agreements, and maps
    with a disagreement."""
    rng = random.Random(5050)
    tally = {"bounded": Counter(), "monotone": Counter()}
    for _ in range(FRAME_MAPS):
        n = random_model(rng, max_entities=3, min_frames=1, max_frames=1)
        (G,) = n.frames
        F = random_frame(rng, G.label, max_size=3)
        f = FrameMap(F, G, random_fn_graph(rng, F.domain, G.domain))
        at = [n.positions[Index(((G.label, f(u)),))] for u in F.domain.elements]
        m = morphisms._pullback(n, (F,), (), at)
        assert morphisms.pullback(n, {G.label: f}) == m
        g = _full_assignment(rng, m)
        # drawn for every map, kept or not, so each draw takes the same random numbers
        terms = [_wrapped_term(rng, m) for _ in range(TERMS)]
        kind = "bounded" if is_bounded(f) else "monotone" if is_monotone(f) else None
        if kind is None:
            continue
        counts = tally[kind]
        counts["maps"] += 1
        disagreed = False
        for term in terms:
            for u in F.domain.elements:
                here = _outcome(term, m, g, Index(((F.label, u),)))
                there = _outcome(term, n, g, Index(((G.label, f(u)),)))
                counts["checks"] += 1
                if here != there:
                    # the pullback keeps every value, so only a Diamond can tell
                    assert has_modal(term)
                    counts["disagreements"] += 1
                    disagreed = True
                elif isinstance(here, str):
                    counts["error agreements"] += 1
        counts["maps that disagree"] += disagreed
    return tally


def test_bounded_morphisms_preserve_every_term_and_monotone_maps_do_not() -> None:
    tally = _tally()
    assert tally["bounded"] == Counter({"maps": 60, "checks": 800, "error agreements": 272})
    assert tally["monotone"]["maps"] == 118
    assert tally["monotone"]["checks"] == 1856
    assert tally["monotone"]["maps that disagree"] == 101
    assert tally["monotone"]["disagreements"] == 580
