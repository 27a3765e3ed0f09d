"""JSON model files: loading, error collection, and canonical dumps."""

from __future__ import annotations

import json

import pytest

from finsem.modelfile import (
    ModelFile,
    ModelFileError,
    decode_value,
    dump_model_file,
    encode_value,
    load_model_file,
    model_file_from_doc,
)
from finsem.semmodel import (
    Entity,
    FnV,
    SetV,
    Truth,
    TupleV,
    parse_type,
    validate,
)

from helpers import MODELS_DIR, build_modal

BUNDLED = [
    "extensional.json",
    "modal.json",
    "modal_tense.json",
    "modal_tense_location.json",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_models_load_clean(name: str) -> None:
    mf = load_model_file(str(MODELS_DIR / name))
    assert validate(mf.model) == []
    assert {"the", "student", "book", "read"} <= set(mf.lexicon)
    assert "reads" in mf.terms


def test_bundled_modal_model_matches_handbuilt() -> None:
    # the shipped file also carries alice and mentor; the shared core agrees
    mf = load_model_file(str(MODELS_DIR / "modal.json"))
    hand = build_modal()
    assert mf.model.entity_domain == hand.entity_domain
    assert mf.model.frames == hand.frames
    assert mf.model.designated == hand.designated
    for name in ("student", "book", "read"):
        assert mf.model.constant(name) == hand.constant(name)
    assert "might" in mf.lexicon
    assert mf.lexicon["might"].frame == "W"


@pytest.mark.parametrize("name", BUNDLED)
def test_dump_round_trip(name: str) -> None:
    mf = load_model_file(str(MODELS_DIR / name))
    text = dump_model_file(mf)
    again = model_file_from_doc(json.loads(text))
    assert again.model == mf.model
    assert again.lexicon == mf.lexicon
    assert {k: v for k, v in again.terms.items()} == dict(mf.terms)
    assert dump_model_file(again) == text


def test_bundled_files_are_canonical() -> None:
    # the shipped files equal their own canonical re-dump
    for name in BUNDLED:
        raw = (MODELS_DIR / name).read_text()
        mf = model_file_from_doc(json.loads(raw))
        assert dump_model_file(mf) == raw


def test_minimal_document() -> None:
    mf = model_file_from_doc({"entities": ["a"]})
    assert mf.model.entity_domain.elements == ("a",)
    assert mf.model.frames == ()
    assert mf.lexicon == {}
    assert mf.terms == {}


def test_loader_collects_every_problem() -> None:
    doc = {
        "entities": ["a", "a"],
        "frames": [{"label": "W", "elements": ["w0"], "pairs": [["w0", "w9"]]}],
        "constants": [
            {"name": "p", "type": "rel(e", "table": []},
            {"name": "q", "type": "rel(e)", "table": [{"index": [], "value": 3}]},
        ],
        "lexicon": {"the": {"cat": "Q"}},
        "terms": {"bad": "(pred"},
        "extras": True,
    }
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc(doc)
    text = str(e.value)
    for needle in ("carrier 'E'", "w9", "rel(e", "q", "the", "bad", "extras"):
        assert needle in text, f"missing {needle!r} in:\n{text}"
    assert len(e.value.problems) >= 6


def test_loader_reports_too_deep_terms() -> None:
    deep = "(not " * 1199 + "(eq x x)" + ")" * 1199
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc({"entities": ["a"], "terms": {"deep": deep}})
    assert len(e.value.problems) == 1
    assert e.value.problems[0].startswith("terms['deep']: term nested deeper than")


def test_loader_reports_too_deep_and_non_text_types() -> None:
    deep = "set(" * 1200 + "e" + ")" * 1200
    doc = {
        "entities": ["a"],
        "constants": [{"name": "p", "type": deep}, {"name": "q", "type": 7}],
    }
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc(doc)
    assert e.value.problems == [
        "constant 'p': type nested deeper than 64 levels",
        "constant 'q': type must be a string",
    ]


def test_loader_reports_too_deep_json(tmp_path) -> None:
    path = tmp_path / "deep.json"
    path.write_text('{"entities": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ModelFileError) as e:
        load_model_file(str(path))
    assert e.value.problems == ["JSON nested too deeply to decode"]


def lexicon_doc(lexicon: dict) -> dict:
    row = {"index": [], "value": []}
    return {
        "entities": ["a"],
        "constants": [
            {"name": "happy", "type": "rel(e)", "table": [row]},
            {"name": "likes", "type": "rel(e,e)", "table": [row]},
            {"name": "alice", "type": "e", "table": [{"index": [], "value": "a"}]},
        ],
        "lexicon": lexicon,
    }


def test_loader_accepts_lexicon_preds_of_the_right_type() -> None:
    lexicon = {"happy": {"cat": "N", "pred": "happy"}, "likes": {"cat": "V", "pred": "likes"}}
    assert set(model_file_from_doc(lexicon_doc(lexicon)).lexicon) == {"happy", "likes"}


def test_loader_checks_lexicon_preds() -> None:
    lexicon = {
        "cat": {"cat": "N", "pred": "feline"},
        "sees": {"cat": "V", "pred": "sees"},
        "likes": {"cat": "N", "pred": "likes"},
        "happy": {"cat": "V", "pred": "happy"},
        "alice": {"cat": "N", "pred": "alice"},
    }
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc(lexicon_doc(lexicon))
    assert e.value.problems == [
        "lexicon['cat']: pred 'feline' names no constant",
        "lexicon['sees']: pred 'sees' names no constant",
        "lexicon['likes']: N entries need a rel(e) pred, 'likes' is rel(e,e)",
        "lexicon['happy']: V entries need a rel(e,e) pred, 'happy' is rel(e)",
        "lexicon['alice']: N entries need a rel(e) pred, 'alice' is e",
    ]


def test_loader_reports_validation_violations() -> None:
    doc = {
        "entities": ["a"],
        "frames": [{"label": "W", "elements": ["w0", "w1"], "pairs": []}],
        "constants": [
            {
                "name": "p",
                "type": "rel(e)",
                "table": [{"index": ["w0"], "value": [["a"]]}],
            }
        ],
    }
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc(doc)
    assert any("MissingIndexEntry" in p for p in e.value.problems)


def test_loader_rejects_non_object_documents() -> None:
    with pytest.raises(ModelFileError):
        model_file_from_doc([1, 2, 3])


def test_load_missing_file() -> None:
    with pytest.raises(OSError):
        load_model_file(str(MODELS_DIR / "no_such.json"))


def test_value_codec_round_trips() -> None:
    cases = [
        ("e", "s1", Entity("s1")),
        ("t", 1, Truth(1)),
        ("pair(e,t)", ["s1", 0], TupleV((Entity("s1"), Truth(0)))),
        ("set(e)", ["b1", "s1"], SetV(frozenset({Entity("s1"), Entity("b1")}))),
        (
            "rel(e,e)",
            [["s1", "b1"]],
            SetV(frozenset({TupleV((Entity("s1"), Entity("b1")))})),
        ),
        (
            "fn(e,t)",
            [["b1", 0], ["s1", 1]],
            FnV(((Entity("b1"), Truth(0)), (Entity("s1"), Truth(1)))),
        ),
    ]
    for text, encoded, value in cases:
        ty = parse_type(text)
        errs: list[str] = []
        assert decode_value(encoded, ty, errs, "v") == value
        assert errs == []
        assert encode_value(value, ty) == encoded


def test_value_codec_reports_location() -> None:
    errs: list[str] = []
    assert decode_value([["s1"]], parse_type("rel(e,e)"), errs, "row") is None
    assert errs == ["row[0]: expected a 2-list"]
    errs = []
    assert decode_value(True, parse_type("t"), errs, "v") is None
    assert errs == ["v: expected 0 or 1"]
    errs = []
    assert decode_value(["s1", "s1"], parse_type("set(e)"), errs, "v") is None
    assert errs == ["v: duplicate set member"]


def test_model_file_is_plain_data() -> None:
    mf = load_model_file(str(MODELS_DIR / "extensional.json"))
    assert isinstance(mf, ModelFile)
    clone = ModelFile(mf.model, dict(mf.lexicon), dict(mf.terms))
    assert dump_model_file(clone) == dump_model_file(mf)
