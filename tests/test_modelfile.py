"""JSON model files: loading, error collection, and canonical dumps."""

from __future__ import annotations

import json

import pytest

from finsem.modelfile import (
    ModelFile,
    ModelFileError,
    _decoder,
    dump_model_file,
    encode_value,
    load_model_file,
    model_file_from_doc,
)
from finsem.relalg import FinSet
from finsem.semmodel import (
    EMPTY_INDEX,
    Constant,
    Entity,
    FnV,
    InvalidModel,
    Model,
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
    assert validate(mf.model) == mf.model.columns
    assert {"the", "student", "book", "read"} <= set(mf.lexicon)
    assert "reads" in mf.terms


def test_bundled_modal_model_matches_handbuilt() -> None:
    # the shipped file also carries alice and mentor; the shared core agrees
    mf = load_model_file(str(MODELS_DIR / "modal.json"))
    hand = build_modal()
    assert mf.model.entity_domain == hand.entity_domain
    assert mf.model.frames == hand.frames
    assert mf.model.designated == hand.designated
    loaded, built = ({c.name: c for c in m.constants} for m in (mf.model, hand))
    for name in ("student", "book", "read"):
        assert loaded[name] == built[name]
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


@pytest.mark.parametrize("name", BUNDLED)
def test_filled_item_caches_leave_the_dump_unchanged(name: str) -> None:
    fresh = dump_model_file(load_model_file(str(MODELS_DIR / name)))
    mf = load_model_file(str(MODELS_DIR / name))
    filled = [v.item_tuples for c in mf.model.constants for _, v in c.table if isinstance(v, SetV)]
    assert any(filled)
    assert dump_model_file(mf) == fresh


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


def test_loader_typechecks_named_terms() -> None:
    doc = lexicon_doc({})
    doc["terms"] = {
        "fine": "(pred likes alice (iota y (pred happy y)))",
        "unknown": "(pred sad alice)",
        "ill_typed": "(and (pred happy alice) (not (func alice)))",
        "modal": "(might W (pred happy alice))",
    }
    assert problems_of(doc) == [
        "terms['unknown']: at root: unknown predicate 'sad'",
        "terms['ill_typed']: at root.right.body: expected a function-typed constant, found e",
        "terms['modal']: at root: no frame 'W' in this model",
    ]
    doc["terms"] = {"ill_typed": "(and (pred happy alice) (not (pred likes alice alice alice)))"}
    assert problems_of(doc) == [
        "terms['ill_typed']: at root.right.body: expected 2 arguments to 'likes', found 3 arguments"
    ]


def test_loader_types_free_variables_of_named_terms_as_entities() -> None:
    doc = lexicon_doc({})
    doc["terms"] = {"free": "(and (pred happy x) (eq x alice))", "bound": "(lam x e (pred happy x))"}
    mf = model_file_from_doc(doc)
    assert set(mf.terms) == {"free", "bound"}
    doc["terms"] = {"applied": "(app x alice)"}
    assert problems_of(doc) == ["terms['applied']: at root.func: expected a function type, found e"]


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


def test_named_terms_are_typechecked_without_an_entities_block() -> None:
    # typing reads the signature the constants block declares, not a Model
    doc = {
        "constants": [{"name": "p", "type": "rel(e)", "table": []}],
        "terms": {"t": "(pred q x)"},
    }
    assert problems_of(doc) == [
        "missing required key 'entities'",
        "terms['t']: at root: unknown predicate 'q'",
    ]


def test_named_terms_are_typechecked_when_no_model_can_be_built() -> None:
    p = {"name": "p", "type": "rel(e)", "table": [{"index": [], "value": [["a"]]}]}
    doc = {"entities": ["a"], "constants": [p, p], "terms": {"t": "(might W (pred p x))"}}
    assert problems_of(doc) == [
        "model: duplicate constant names",
        "terms['t']: at root: no frame 'W' in this model",
    ]


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
        assert _decoder(ty)(encoded, errs, "v") == value
        assert errs == []
        assert encode_value(value) == encoded


def test_truth_and_function_members_dump_canonically() -> None:
    """Sets of truth values, functions keyed by truth values and sets of
    functions, written out of order, dump sorted by value_key and load back."""
    shuffled = {
        "entities": ["s1", "b1"],
        "constants": [
            {"name": "flags", "type": "set(t)", "table": [{"index": [], "value": [1, 0]}]},
            {"name": "pick", "type": "fn(t,e)", "table": [{"index": [], "value": [[1, "s1"], [0, "b1"]]}]},
            {
                "name": "tests",
                "type": "set(fn(e,t))",
                "table": [{"index": [], "value": [[["s1", 1], ["b1", 1]], [["s1", 1], ["b1", 0]]]}],
            },
        ],
    }
    mf = model_file_from_doc(shuffled)
    text = dump_model_file(mf)
    values = {c["name"]: c["table"][0]["value"] for c in json.loads(text)["constants"]}
    assert values == {
        "flags": [0, 1],
        "pick": [[0, "b1"], [1, "s1"]],
        "tests": [[["b1", 0], ["s1", 1]], [["b1", 1], ["s1", 1]]],
    }
    again = model_file_from_doc(json.loads(text))
    assert again.model == mf.model
    assert dump_model_file(again) == text


def test_value_codec_reports_location() -> None:
    errs: list[str] = []
    assert _decoder(parse_type("rel(e,e)"))([["s1"]], errs, "row") is None
    assert errs == ["row[0]: expected a 2-list"]
    errs = []
    assert _decoder(parse_type("t"))(True, errs, "v") is None
    assert errs == ["v: expected 0 or 1"]
    errs = []
    assert _decoder(parse_type("set(e)"))(["s1", "s1"], errs, "v") is None
    assert errs == ["v: duplicate set member"]


def test_model_file_is_plain_data() -> None:
    mf = load_model_file(str(MODELS_DIR / "extensional.json"))
    assert isinstance(mf, ModelFile)
    clone = ModelFile(mf.model, dict(mf.lexicon), dict(mf.terms))
    assert dump_model_file(clone) == dump_model_file(mf)


def one_constant_doc(ty: str, *values, entities=("a", "b"), frame=("w0", "w1")) -> dict:
    """A one-frame document whose constant p of type ty has the given values,
    one row per frame element."""
    return {
        "entities": list(entities),
        "frames": [{"label": "W", "elements": list(frame), "pairs": []}],
        "constants": [
            {
                "name": "p",
                "type": ty,
                "table": [{"index": [w], "value": v} for w, v in zip(frame, values)],
            }
        ],
    }


def problems_of(doc: dict) -> list[str]:
    with pytest.raises(ModelFileError) as e:
        model_file_from_doc(doc)
    return e.value.problems


LOCATED_DECODE_PROBLEMS = [
    # a row that is not an index/value object, then a value of the wrong JSON type
    (
        {**one_constant_doc("e", "a"), "constants": [
            {"name": "p", "type": "e", "table": [{"index": ["w0"], "value": "a"}, ["w1", "a"]]},
            {"name": "q", "type": "e", "table": [{"index": ["w0"], "value": 3}]},
        ]},
        [
            "constant 'p' table[1]: rows are objects with index and value",
            "constant 'q' table[0].value: expected an entity id string",
        ],
    ),
    # an index that is missing, one that is not a list of strings, one of the wrong length
    (
        {**one_constant_doc("e"), "constants": [{"name": "p", "type": "e", "table": [
            {"value": "a"}, {"index": [1], "value": "a"}, {"index": [], "value": "a"}]}]},
        [
            "missing required key \"constant 'p' table[0].index\"",
            "constant 'p' table[1].index must be a list of strings",
            "constant 'p' table[2]: index has 0 components, model has 1 frames",
        ],
    ),
    (one_constant_doc("t", True, 2), [
        "constant 'p' table[0].value: expected 0 or 1",
        "constant 'p' table[1].value: expected 0 or 1",
    ]),
    (one_constant_doc("s(W)", 0, ["w0"]), [
        "constant 'p' table[0].value: expected an element id string",
        "constant 'p' table[1].value: expected an element id string",
    ]),
    (one_constant_doc("set(e)", ["a", 7, None], "a"), [
        "constant 'p' table[0].value[1]: expected an entity id string",
        "constant 'p' table[0].value[2]: expected an entity id string",
        "constant 'p' table[1].value: expected a list of members",
    ]),
    (one_constant_doc("set(set(e))", [["a"], ["b", 3]], [["a"], ["a", "a"]]), [
        "constant 'p' table[0].value[1][1]: expected an entity id string",
        "constant 'p' table[1].value[1]: duplicate set member",
    ]),
    (one_constant_doc("set(e)", ["a", "b", "a"], [[]]), [
        "constant 'p' table[0].value: duplicate set member",
        "constant 'p' table[1].value[0]: expected an entity id string",
    ]),
    (one_constant_doc("rel(e,e)", [["a", "b"], ["a", 7], ["b"], "ab"], {"a": "b"}), [
        "constant 'p' table[0].value[1][1]: expected an entity id string",
        "constant 'p' table[0].value[2]: expected a 2-list",
        "constant 'p' table[0].value[3]: expected a 2-list",
        "constant 'p' table[1].value: expected a list of tuples",
    ]),
    (one_constant_doc("rel(e,s(W))", [["a", "w0"], ["a", "w0"]], [[7, 8]]), [
        "constant 'p' table[0].value: duplicate tuple",
        "constant 'p' table[1].value[0][0]: expected an entity id string",
        "constant 'p' table[1].value[0][1]: expected an element id string",
    ]),
    (one_constant_doc("pair(e,t)", [7, "x"], ["a"]), [
        "constant 'p' table[0].value[0]: expected an entity id string",
        "constant 'p' table[0].value[1]: expected 0 or 1",
        "constant 'p' table[1].value: expected a 2-list",
    ]),
    (one_constant_doc("fn(e,t)", [["a", 2], [7, 0], ["b"]], [["a", 1], ["a", 0]]), [
        "constant 'p' table[0].value[0][1]: expected 0 or 1",
        "constant 'p' table[0].value[1][0]: expected an entity id string",
        "constant 'p' table[0].value[2]: expected a [key, value] 2-list",
        "constant 'p' table[1].value: duplicate keys in function value",
    ]),
    (one_constant_doc("fn(e,e,t)", [[["a", 7], 1]], {}), [
        "constant 'p' table[0].value[0][0][1]: expected an entity id string",
        "constant 'p' table[1].value: expected a list of [key, value] 2-lists",
    ]),
    # rows equal to an accepted row once made a tuple, each still refused at its location:
    # an index holding a list, and the string "ab" after the index ["a", "b"]
    (
        {**one_constant_doc("e"), "frames": [
            {"label": "W", "elements": ["a", "w0"], "pairs": []},
            {"label": "T", "elements": ["b", "t0"], "pairs": []},
        ], "constants": [{"name": "p", "type": "e", "table": [
            {"index": ["a", "b"], "value": "a"},
            {"index": [["w0"], "t0"], "value": "a"},
            {"index": "ab", "value": "a"},
            {"index": ["w0", ["t0"]], "value": "a"},
        ]}]},
        [
            "constant 'p' table[1].index must be a list of strings",
            "constant 'p' table[2].index must be a list of strings",
            "constant 'p' table[3].index must be a list of strings",
        ],
    ),
    # the relation row "ab" after ["a", "b"], and a row holding a list
    (one_constant_doc("rel(e,e)", [["a", "b"], "ab", [["a"], "b"]], [["a", "b"], ["a", "b", "a"]]), [
        "constant 'p' table[0].value[1]: expected a 2-list",
        "constant 'p' table[0].value[2][0]: expected an entity id string",
        "constant 'p' table[1].value[1]: expected a 2-list",
    ]),
    (one_constant_doc("fn(e,e)", [["a", "b"], ["b", "a"]], [["a", "b"], "bb"]), [
        "constant 'p' table[1].value[1]: expected a [key, value] 2-list",
    ]),
    (one_constant_doc("pair(e,e)", ["a", "b"], "ab"), [
        "constant 'p' table[1].value: expected a 2-list",
    ]),
    # true and 1.0 equal 1, but only 1 is a truth value
    (one_constant_doc("rel(t)", [[1], [True], [1.0]], [[0], [False], [0.0], [1]]), [
        "constant 'p' table[0].value[1][0]: expected 0 or 1",
        "constant 'p' table[0].value[2][0]: expected 0 or 1",
        "constant 'p' table[1].value[1][0]: expected 0 or 1",
        "constant 'p' table[1].value[2][0]: expected 0 or 1",
    ]),
    (one_constant_doc("rel(e,t)", [["a", 1]], [["a", True], ["b", 1.0]]), [
        "constant 'p' table[1].value[0][1]: expected 0 or 1",
        "constant 'p' table[1].value[1][1]: expected 0 or 1",
    ]),
]


@pytest.mark.parametrize("doc, problems", LOCATED_DECODE_PROBLEMS)
def test_loader_locates_decode_problems_at_depth(doc: dict, problems: list[str]) -> None:
    # a row that fails to decode is also reported missing by validation
    assert [p for p in problems_of(doc) if not p.startswith("validation: ")] == problems


def test_validation_raises_per_row_not_per_type() -> None:
    # s(X) names no frame: each row's value is refused on its own, a repeated one too
    for values in (("x0", "x1"), ("x0", "x0")):
        assert problems_of(one_constant_doc("s(X)", *values)) == [
            "validation: constant 'p': UngroundedType (no frame 'X' in this model)",
            "validation: constant 'p': UngroundedType (no frame 'X' in this model)",
        ]
    # a function domain too large to enumerate is refused per function value
    many = tuple(f"e{i:02}" for i in range(21))
    for values in (([[[], 1]], [[["e00"], 0]]), ([[[], 1]], [[[], 1]])):
        assert problems_of(one_constant_doc("fn(set(e),t)", *values, entities=many)) == [
            "validation: constant 'p': DomainTooLarge (set(e) exceeds 1000000 values)",
            "validation: constant 'p': DomainTooLarge (set(e) exceeds 1000000 values)",
        ]
    # and a value that does not inhabit the type is refused at each of its rows
    assert problems_of(one_constant_doc("rel(e)", [["zz"]], [["zz"]])) == [
        "validation: constant 'p': IllTypedValue (index w0: value does not inhabit rel(e))",
        "validation: constant 'p': IllTypedValue (index w1: value does not inhabit rel(e))",
    ]
    # with no value to check, neither type raises
    for ty, entities in (("s(X)", ("a",)), ("fn(set(e),t)", many), ("set(fn(set(e),t))", many)):
        assert problems_of(one_constant_doc(ty, entities=entities)) == [
            "validation: constant 'p': MissingIndexEntry (index w0)",
            "validation: constant 'p': MissingIndexEntry (index w1)",
        ]
    assert model_file_from_doc(one_constant_doc("set(fn(set(e),t))", [], [], entities=many))


def test_validation_reports_rows_in_document_order() -> None:
    # as decode problems are: the rows are not sorted by index first
    doc = one_constant_doc("rel(e)", [["zz"]], [], [["zz"]], frame=("w1", "w9", "w0"))
    doc["frames"][0]["elements"] = ["w0", "w1"]
    assert problems_of(doc) == [
        "validation: constant 'p': IllTypedValue (index w1: value does not inhabit rel(e))",
        "validation: constant 'p': UnexpectedIndexEntry (index w9)",
        "validation: constant 'p': IllTypedValue (index w0: value does not inhabit rel(e))",
    ]


def test_an_invalid_model_has_no_columns_and_no_dump() -> None:
    # one row per index, but its value names an entity outside the domain:
    # no Model is built, so there are no columns to read and nothing to dump
    ill_typed = SetV({TupleV((Entity("zz"),))})
    with pytest.raises(InvalidModel, match="^model fails validation") as e:
        Model(FinSet("E", ("a",)), (), (Constant("p", parse_type("rel(e)"), ((EMPTY_INDEX, ill_typed),)),))
    assert [(v.kind, v.constant) for v in e.value.violations] == [("IllTypedValue", "p")]


def test_a_shared_row_is_refused_in_every_value_that_holds_it() -> None:
    # equal relation rows of one load are one object, checked once per constant
    doc = one_constant_doc("rel(e,e)", [["a", "zz"], ["a", "b"]], [["a", "b"], ["a", "zz"]])
    doc["constants"].append({**doc["constants"][0], "name": "q"})
    assert problems_of(doc) == [
        f"validation: constant {name!r}: IllTypedValue (index {w}: value does not inhabit rel(e,e))"
        for name in "pq" for w in ("w0", "w1")
    ]


def test_validation_reports_a_partial_function() -> None:
    assert problems_of(one_constant_doc("fn(e,t)", [["a", 1]], [["a", 0], ["b", 1]])) == [
        "validation: constant 'p': IllTypedValue (index w0: value does not inhabit fn(e,t))",
    ]
