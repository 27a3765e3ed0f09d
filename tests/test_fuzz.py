"""Fuzzed inputs to the parsers and the model-file loader, and the term
syntax and model-file round trips.

Malformed input must end in the documented exception, never another one: a
type or term text in ValueError, a model document in ModelFileError. Every
term renders to text that parses back to the same term, and every model file
dumps to a document that loads back to the same model file.
"""

from __future__ import annotations

import copy
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
    Var,
    parse_term,
    render_term,
)
from finsem.generators import random_model, random_term
from finsem.fragment import LexEntry
from finsem.modelfile import ModelFile, ModelFileError, dump_model_file, model_file_from_doc
from finsem.semmodel import (
    EntType,
    FnType,
    IdxType,
    PairType,
    RelType,
    SetType,
    TruthType,
    parse_type,
)

from helpers import MODELS_DIR

TYPE_PIECES = ["e", "t", "s(", "W", ")", "(", ",", "pair(", "set(", "rel(", "fn(", "x", " ", "_"]
TERM_PIECES = [
    "(", ")", "pred", "func", "lam", "app", "iota", "might", "and", "not", "eq",
    "x", "y", "p", "f", "W", "e", "t", "set(e)", "fn(e,t)", "s(W)", "rel(", "(()",
]
NAMES = ["a", "b", "p", "q", "f", "W", "T", "w0", "w1", "x", ""]
TYPES = [
    "e", "t", "s(W)", "s(Q)", "rel(e)", "rel(e,e)", "rel(e,s(W))", "pair(e,t)",
    "set(e)", "fn(e,e)", "fn(e,t)", "fn(e,e,t)", "fn(set(set(set(set(e)))),t)",
    "set(set(set(set(set(e)))))", "fn(", "wat", "",
]


def pieces(alphabet: list[str]) -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(alphabet), max_size=24).map(" ".join)


texts = st.text(max_size=40)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | st.sampled_from(NAMES + TYPES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES + ["index", "value"]), inner, max_size=3),
    max_leaves=8,
)


def maybe(strategy: st.SearchStrategy) -> st.SearchStrategy:
    """Mostly well-shaped values, sometimes any JSON value in their place."""
    return st.one_of(strategy, strategy, json_values)


frames = st.fixed_dictionaries(
    {
        "label": maybe(st.sampled_from(["W", "T"])),
        "elements": maybe(st.lists(st.sampled_from(["w0", "w1", "t0"]), max_size=3)),
    },
    optional={
        "pairs": maybe(st.lists(st.lists(st.sampled_from(["w0", "w1", "t0"]), max_size=3), max_size=3)),
        "designated": maybe(st.sampled_from(["w0", "w1", "zz"])),
    },
)
rows = st.fixed_dictionaries(
    {"index": maybe(st.lists(st.sampled_from(["w0", "w1", "t0"]), max_size=2))},
    optional={"value": json_values},
)
constants = st.fixed_dictionaries(
    {"name": maybe(st.sampled_from(NAMES)), "type": maybe(st.sampled_from(TYPES))},
    optional={"table": maybe(st.lists(maybe(rows), max_size=3))},
)
lexicon = st.dictionaries(
    st.sampled_from(["the", "student", "read", "might"]),
    maybe(
        st.fixed_dictionaries(
            {"cat": maybe(st.sampled_from(["D", "N", "V", "Mod"]))},
            optional={
                "pred": maybe(st.sampled_from(NAMES)),
                "frame": maybe(st.sampled_from(["W", "Q"])),
                "sem": maybe(st.just("iota")),
            },
        )
    ),
    max_size=3,
)
documents = st.fixed_dictionaries(
    {},
    optional={
        "entities": maybe(st.lists(st.sampled_from(NAMES), max_size=3)),
        "frames": maybe(st.lists(maybe(frames), max_size=2)),
        "constants": maybe(st.lists(maybe(constants), max_size=3)),
        "lexicon": maybe(lexicon),
        "terms": maybe(st.dictionaries(st.sampled_from(NAMES), maybe(pieces(TERM_PIECES)), max_size=2)),
        "extra": json_values,
    },
)

BUNDLED = [json.loads(p.read_text()) for p in sorted(MODELS_DIR.glob("*.json"))]


def _paths(j, prefix: tuple = ()) -> list[tuple]:
    """Every position inside a JSON document, as a key/index path."""
    out = [prefix]
    items = j.items() if isinstance(j, dict) else enumerate(j) if isinstance(j, list) else ()
    for k, v in items:
        out.extend(_paths(v, prefix + (k,)))
    return out


@st.composite
def mutated_bundled(draw) -> object:
    """A bundled model file with one to three positions replaced by fuzzed JSON."""
    doc = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_paths(doc)[1:]))
        holder = doc
        for k in path[:-1]:
            holder = holder[k]
        holder[path[-1]] = draw(json_values)
    return doc


@given(st.one_of(pieces(TYPE_PIECES).map(lambda s: s.replace(" ", "")), texts))
def test_parse_type_raises_only_value_error(text: str) -> None:
    try:
        parse_type(text)
    except ValueError:
        pass


@given(
    st.one_of(pieces(TERM_PIECES), texts),
    st.frozensets(st.sampled_from(["p", "f", "x", "e"])),
)
def test_parse_term_raises_only_value_error(text: str, constants: frozenset[str]) -> None:
    try:
        parse_term(text, constants)
    except ValueError:
        pass


@settings(max_examples=150)
@given(st.one_of(mutated_bundled(), documents, json_values))
def test_model_file_from_doc_raises_only_model_file_error(doc) -> None:
    try:
        model_file_from_doc(doc)
    except ModelFileError as err:
        assert err.problems


# ---------------------------------------------------------------------------
# render_term and parse_term round trip

# declared constants and variable names stay apart, so a bare name's reading
# as Const or Var survives; head words and type names are fair names too
CONSTANTS = frozenset({"a", "b", "pred"})
VARIABLES = st.sampled_from(["x", "y", "e", "t", "lam", "set"])
HEADS = st.sampled_from(["p", "f", "lam", "e", "W"])

sem_types = st.recursive(
    st.sampled_from([EntType(), TruthType(), IdxType("W"), IdxType("T")]),
    lambda inner: st.one_of(
        st.builds(PairType, inner, inner),
        st.builds(SetType, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: RelType(tuple(cs))),
        st.builds(FnType, inner, inner),
    ),
    max_leaves=5,
)

terms = st.recursive(
    st.builds(Const, st.sampled_from(sorted(CONSTANTS))) | st.builds(Var, VARIABLES),
    lambda inner: st.one_of(
        st.builds(PredApp, HEADS, st.lists(inner, max_size=3).map(tuple)),
        st.builds(FuncApp, HEADS, st.lists(inner, max_size=3).map(tuple)),
        st.builds(Lam, VARIABLES, sem_types, inner),
        st.builds(App, inner, inner),
        st.builds(Iota, VARIABLES, inner),
        st.builds(Diamond, st.sampled_from(["W", "T"]), inner),
        st.builds(And, inner, inner),
        st.builds(Not, inner),
        st.builds(Eq, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(terms)
def test_rendered_terms_parse_back(term) -> None:
    assert parse_term(render_term(term), CONSTANTS) == term


@given(st.integers(0, 2**32 - 1))
def test_rendered_random_terms_parse_back(seed: int) -> None:
    rng = random.Random(seed)
    m = random_model(rng, max_frames=2)
    names = frozenset(c.name for c in m.constants)
    for _ in range(5):
        term = random_term(rng, m, max_depth=4)
        assert parse_term(render_term(term), names) == term


def _lexicon_for(m) -> dict[str, LexEntry]:
    """One entry of every category the model can interpret."""
    lexicon = {"the": LexEntry("the", "D", sem="iota")}
    for c in m.constants:
        if isinstance(c.semtype, RelType):
            cat = "N" if len(c.semtype.components) == 1 else "V"
            lexicon[f"w{c.name}"] = LexEntry(f"w{c.name}", cat, pred=c.name)
    for f in m.frames:
        lexicon[f"might{f.label}"] = LexEntry(f"might{f.label}", "Mod", frame=f.label)
    return lexicon


@given(st.integers(0, 2**32 - 1))
def test_dumped_random_model_files_load_back(seed: int) -> None:
    rng = random.Random(seed)
    m = random_model(rng, min_frames=0, max_frames=3)
    terms = {f"t{i}": random_term(rng, m, max_depth=3) for i in range(rng.randint(0, 3))}
    mf = ModelFile(m, _lexicon_for(m), terms)
    assert model_file_from_doc(json.loads(dump_model_file(mf))) == mf
