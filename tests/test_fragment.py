"""The two mini grammars: parsing, translation, and whole-sentence values."""

from __future__ import annotations

import pytest

import finsem.fragment as fragment
from finsem.denote import (
    Diamond,
    Iota,
    PredApp,
    PresuppositionFailure,
    Var,
    render_term,
)
from finsem.fragment import (
    AmbiguousParse,
    LexEntry,
    NoParse,
    ParseTree,
    Rule,
    UnknownWord,
    eval_sentence,
    iter_nodes,
    parse,
    translate,
)
from finsem.morphisms import TrivializeFrame, apply, extensionalize
from finsem.semmodel import Constant, EntType, RelType, Truth, UngroundedType, UnknownIndex

from helpers import (
    EMPTY_INDEX,
    GOLDEN_DIR,
    LEXICON,
    SENTENCE_1,
    SENTENCE_2,
    build_extensional,
    build_modal,
    rel_value,
    w_index,
)
from finsem.relalg import FinSet
from finsem.semmodel import Model

EXT = build_extensional()
MODAL = build_modal()


# ---------------------------------------------------------------------------
# parsing


def test_parse_sentence_one_matches_golden() -> None:
    tree = parse(SENTENCE_1.split(), LEXICON)
    golden = (GOLDEN_DIR / "sentence1.tree").read_text()
    assert tree.render() + "\n" == golden


def test_parse_sentence_two_matches_golden() -> None:
    tree = parse(SENTENCE_2.split(), LEXICON)
    golden = (GOLDEN_DIR / "sentence2.tree").read_text()
    assert tree.render() + "\n" == golden


def test_tree_words_round_trip() -> None:
    tree = parse(SENTENCE_2.split(), LEXICON)
    assert tree.words() == SENTENCE_2.split()


def test_parse_errors() -> None:
    with pytest.raises(UnknownWord, match="wug"):
        parse("the wug read the book".split(), LEXICON)
    with pytest.raises(NoParse):
        parse("read the student".split(), LEXICON)
    with pytest.raises(NoParse):
        parse("the student read".split(), LEXICON)
    with pytest.raises(NoParse):
        parse([], LEXICON)


def test_ambiguous_grammar_is_reported(monkeypatch) -> None:
    monkeypatch.setattr(fragment, "RULES", fragment.RULES + (Rule("NP", ("N",)),))
    with pytest.raises(AmbiguousParse):
        parse(SENTENCE_1.split(), LEXICON)


def test_iter_nodes_is_preorder() -> None:
    tree = parse(SENTENCE_1.split(), LEXICON)
    labels = [node.label for node, _ in iter_nodes(tree)]
    assert labels == ["S", "DP", "D", "NP", "N", "VP", "V", "DP", "D", "NP", "N"]


# ---------------------------------------------------------------------------
# translation


def test_translate_sentence_one() -> None:
    tree = parse(SENTENCE_1.split(), LEXICON)
    term, _ = translate(tree, LEXICON)
    assert render_term(term) == (
        "(pred read (iota x (pred student x)) (iota y (pred book y)))"
    )
    assert term == PredApp(
        "read",
        (
            Iota("x", PredApp("student", (Var("x"),))),
            Iota("y", PredApp("book", (Var("y"),))),
        ),
    )


def test_translate_sentence_two_intensional() -> None:
    tree = parse(SENTENCE_2.split(), LEXICON)
    term, _ = translate(tree, LEXICON)
    assert render_term(term) == (
        "(might W (pred read (iota x (pred student x)) (iota y (pred book y))))"
    )
    assert isinstance(term, Diamond)
    assert term.label == "W"


def test_variables_issued_in_surface_order() -> None:
    # subject binds x, object binds y
    term, _ = translate(parse(SENTENCE_1.split(), LEXICON), LEXICON)
    assert isinstance(term.args[0], Iota) and term.args[0].var == "x"
    assert isinstance(term.args[1], Iota) and term.args[1].var == "y"


# ---------------------------------------------------------------------------
# sentence evaluation


def test_sentence_one_extensional_value() -> None:
    result = eval_sentence(SENTENCE_1, EXT, LEXICON)
    assert result.value == Truth(1)


def test_sentence_one_per_world_values() -> None:
    assert eval_sentence(SENTENCE_1, MODAL, LEXICON, s=w_index("w0")).value == Truth(0)
    assert eval_sentence(SENTENCE_1, MODAL, LEXICON, s=w_index("w1")).value == Truth(1)


def test_sentence_two_displacement() -> None:
    assert eval_sentence(SENTENCE_2, MODAL, LEXICON, s=w_index("w0")).value == Truth(1)
    assert eval_sentence(SENTENCE_2, MODAL, LEXICON, s=w_index("w1")).value == Truth(0)


def test_sentence_needs_index_on_nontrivial_model() -> None:
    with pytest.raises(UnknownIndex):
        eval_sentence(SENTENCE_1, MODAL, LEXICON)


def test_sentence_on_collapsed_model_uses_the_unique_index() -> None:
    at_w1 = apply(MODAL, TrivializeFrame("W", "w1"))
    assert eval_sentence(SENTENCE_2, at_w1, LEXICON).value == Truth(1)
    at_w0 = apply(MODAL, TrivializeFrame("W", "w0"))
    assert eval_sentence(SENTENCE_2, at_w0, LEXICON).value == Truth(0)
    # and the plain sentence matches its extensional counterpart
    assert (
        eval_sentence(SENTENCE_1, at_w1, LEXICON).value
        == eval_sentence(SENTENCE_1, extensionalize(at_w1), LEXICON).value
    )


def test_modal_sentence_on_frame_free_model_is_refused() -> None:
    with pytest.raises(UngroundedType, match="^at root: no frame 'W' in this model$"):
        eval_sentence(SENTENCE_2, EXT, LEXICON)


def test_presupposition_failure_names_the_dp() -> None:
    ents = FinSet("E", ("s1", "s2", "b1"))
    crowded = Model(
        ents,
        (),
        (
            Constant("student", RelType((EntType(),)), ((EMPTY_INDEX, rel_value(("s1",), ("s2",))),)),
            Constant("book", RelType((EntType(),)), ((EMPTY_INDEX, rel_value(("b1",))),)),
            Constant("read", RelType((EntType(), EntType())), ((EMPTY_INDEX, rel_value()),)),
        ),
    )
    with pytest.raises(PresuppositionFailure, match="in DP 'the student'"):
        eval_sentence(SENTENCE_1, crowded, LEXICON)


def test_trace_shows_node_denotations() -> None:
    result = eval_sentence(SENTENCE_2, MODAL, LEXICON, s=w_index("w0"))
    assert result.trace[0] == (
        "S 'the student might read the book' := "
        "(might W (pred read (iota x (pred student x)) (iota y (pred book y)))) = 1"
    )
    vp_lines = [l for l in result.trace if l.strip().startswith("VP")]
    vprime_lines = [l for l in result.trace if l.strip().startswith("V'")]
    assert len(vp_lines) == 1 and vp_lines[0].endswith("= 1")
    # the bare clause is false here even though the possibility claim is true
    assert len(vprime_lines) == 1 and vprime_lines[0].endswith("= 0")
    assert any("DP 'the student' := (iota x (pred student x)) = s1" in l for l in result.trace)
    assert result.trace[1].startswith("  DP")


def test_lexentry_shape() -> None:
    entry = LexEntry("might", "Mod", frame="W")
    assert (entry.word, entry.cat, entry.pred, entry.frame, entry.sem) == (
        "might",
        "Mod",
        None,
        "W",
        None,
    )


def test_parse_tree_render_is_stable() -> None:
    leaf = ParseTree("N", (), "student")
    np = ParseTree("NP", (leaf,), None)
    assert np.render() == "(NP (N student))"
