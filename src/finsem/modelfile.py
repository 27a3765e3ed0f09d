"""Model files: one JSON document holding a model, a lexicon, and named terms.

Schema (all blocks except "entities" may be omitted):

    {
      "entities": ["s1", "b1"],
      "frames": [
        {"label": "W", "elements": ["w0", "w1"],
         "pairs": [["w0", "w1"]], "designated": "w0"}
      ],
      "constants": [
        {"name": "student", "type": "rel(e)",
         "table": [{"index": ["w0"], "value": [["s1"]]},
                   {"index": ["w1"], "value": [["s1"]]}]}
      ],
      "lexicon": {
        "the": {"cat": "D", "sem": "iota"},
        "student": {"cat": "N", "pred": "student"},
        "might": {"cat": "Mod", "frame": "W"}
      },
      "terms": {"example": "(pred student (iota x (pred student x)))"}
    }

A table row's "index" lists one element per frame, in frame order. Values are
encoded by the constant's type: entities and index elements as id strings,
truth values as 0/1, pairs as 2-lists, sets as lists of member encodings,
relations as lists of tuples (lists), finite functions as lists of
[key, value] 2-lists.

The loader collects every schema problem, every model validation violation,
every lexicon entry whose pred is not a constant of the type its category
needs (rel(e) for N, rel(e,e) for V) and every named term that does not
typecheck on the signature of the decoded constants and frames, whether or
not a Model is built (free variables typed e, as every assignment binds
entities), before failing, so one pass reports all defects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .denote import Term, _at, free_vars, parse_term, render_term, typecheck
from .fragment import LEXICAL_CATEGORIES, LEXICAL_PRED_TYPES, LexEntry
from .kripke import Frame
from .relalg import FinSet, FinsemError, Relation
from .semmodel import (
    Constant,
    EntType,
    Entity,
    FnType,
    FnV,
    IdxType,
    Index,
    IndexElem,
    InvalidModel,
    Model,
    PairType,
    RelType,
    SemType,
    SetType,
    SetV,
    Signature,
    Truth,
    TruthType,
    TupleV,
    Value,
    parse_type,
    render_type,
    value_key,
)

TOP_KEYS = ("entities", "frames", "constants", "lexicon", "terms")
LEXICAL_KEYS = ("cat", "pred", "frame", "sem")  # LexEntry fields besides word, in dump order


class ModelFileError(FinsemError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class ModelFile:
    model: Model
    lexicon: dict[str, LexEntry]
    terms: dict[str, Term]


def load_model_file(path: str) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ModelFileError([f"not valid JSON: {err}"]) from None
        except UnicodeDecodeError as err:
            raise ModelFileError([f"not valid UTF-8: {err}"]) from None
        except RecursionError:
            raise ModelFileError(["JSON nested too deeply to decode"]) from None
    return model_file_from_doc(doc)


def model_file_from_doc(doc: Any) -> ModelFile:
    errs: list[str] = []
    if not isinstance(doc, dict):
        raise ModelFileError(["top level must be a JSON object"])
    for key in doc:
        if key not in TOP_KEYS:
            errs.append(f"unknown top-level key {key!r}")

    entities = _str_list(doc.get("entities"), "entities", errs)
    frames, designated = _load_frames(doc.get("frames", []), errs)
    constants = _load_constants(doc.get("constants", []), frames, errs)
    sig = Signature({c.name: c.semtype for c in constants}, frozenset(f.label for f in frames))

    model: Optional[Model] = None
    if entities is not None:
        try:
            model = Model(
                FinSet("E", tuple(entities)),
                tuple(frames),
                tuple(constants),
                tuple(designated),
            )
        except ValueError as err:
            errs.append(f"model: {err}")
        except InvalidModel as err:
            for v in err.violations:
                where = f"constant {v.constant!r}: " if v.constant else ""
                errs.append(f"validation: {where}{v.kind} ({v.detail})")

    lexicon = _load_lexicon(doc.get("lexicon", {}), sig, errs)
    terms = _load_terms(doc.get("terms", {}), sig, errs)

    if errs:  # model is None only after a problem was recorded
        raise ModelFileError(errs)
    return ModelFile(model, lexicon, terms)


def _str_list(j: Any, where: Any, errs: list[str]) -> Optional[list[str]]:
    if j is None:
        errs.append(f"missing required key {_at(where)!r}")
        return None
    if not isinstance(j, list) or not all(isinstance(x, str) for x in j):
        errs.append(f"{_at(where)} must be a list of strings")
        return None
    return j


def _objects(
    j: Any, block: str, shape: type, keys: tuple[str, ...], errs: list[str]
) -> Iterator[tuple[Any, str, dict]]:
    """The (key, location, entry) of each object entry of a block: a list of
    entries keyed by position, or an object keyed by name. Each entry is
    checked as it is reached, so its problems come before those of the next."""
    if not isinstance(j, shape):
        errs.append(f"{block} must be {'a list' if shape is list else 'an object'}")
        return
    for key, entry in enumerate(j) if shape is list else j.items():
        where = f"{block}[{key!r}]"
        if not isinstance(entry, dict):
            errs.append(f"{where} must be an object")
            continue
        for k in entry:
            if k not in keys:
                errs.append(f"{where}: unknown key {k!r}")
        yield key, where, entry


def _load_frames(j: Any, errs: list[str]) -> tuple[list[Frame], list[tuple[str, str]]]:
    frames: list[Frame] = []
    designated: list[tuple[str, str]] = []
    for _, where, fj in _objects(j, "frames", list, ("label", "elements", "pairs", "designated"), errs):
        label = fj.get("label")
        if not isinstance(label, str):
            errs.append(f"{where}: label must be a string")
            continue
        elements = _str_list(fj.get("elements"), f"{where}.elements", errs)
        if elements is None:
            continue
        pairs = fj.get("pairs", [])
        if not isinstance(pairs, list):
            errs.append(f"{where}.pairs must be a list")
            continue
        if not all(isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in pairs):
            errs.append(f"{where}.pairs entries must be 2-lists of strings")
            continue
        try:
            carrier = FinSet(label, tuple(elements))
            frame = Frame(label, carrier, Relation(carrier, carrier, frozenset(map(tuple, pairs))))
        except ValueError as err:
            errs.append(f"{where}: {err}")
            continue
        frames.append(frame)
        d = fj.get("designated")
        if d is not None:
            if not isinstance(d, str) or d not in carrier:
                errs.append(f"{where}: designated must name one of the elements")
            else:
                designated.append((label, d))
    return frames, designated


def _load_constants(
    j: Any, frames: list[Frame], errs: list[str]
) -> list[Constant]:
    out: list[Constant] = []
    labels = [f.label for f in frames]
    indices: dict[tuple[str, ...], Index] = {}  # a key seen before skips its checks
    decoders: dict[SemType, Decoder] = {}  # one per type, so a row seen before skips decoding
    for _, where, cj in _objects(j, "constants", list, ("name", "type", "table"), errs):
        name = cj.get("name")
        if not isinstance(name, str):
            errs.append(f"{where}: name must be a string")
            continue
        where = f"constant {name!r}"
        type_text = cj.get("type", "")
        if not isinstance(type_text, str):
            errs.append(f"{where}: type must be a string")
            continue
        try:
            semtype = parse_type(type_text)
        except ValueError as err:
            errs.append(f"{where}: {err}")
            continue
        table: list[tuple[Index, Value]] = []
        rows = cj.get("table", [])
        if not isinstance(rows, list):
            errs.append(f"{where}: table must be a list")
            continue
        decode = decoders.get(semtype) or decoders.setdefault(semtype, _decoder(semtype))
        for k, row in enumerate(rows):
            rw = ((where, " table"), k)
            if not isinstance(row, dict) or not row.keys() <= {"index", "value"}:
                _bad(errs, rw, "rows are objects with index and value")
                continue
            idx_j = row.get("index")
            try:  # a key accepted before: a tuple of strings equals only the same strings
                idx = indices[tuple(idx_j)] if type(idx_j) is list else None
            except (KeyError, TypeError):  # a new key, or one holding a list
                idx = None
            if idx is None:
                if _str_list(idx_j, (rw, ".index"), errs) is None:
                    continue
                if len(idx_j) != len(labels):
                    _bad(errs, rw, f"index has {len(idx_j)} components, model has {len(labels)} frames")
                    continue
                idx = indices[tuple(idx_j)] = Index(tuple(zip(labels, idx_j)))
            val = decode(row.get("value"), errs, (rw, ".value"))
            if val is None:
                continue
            table.append((idx, val))
        out.append(Constant(name, semtype, tuple(table)))
    return out


def _load_lexicon(j: Any, sig: Signature, errs: list[str]) -> dict[str, LexEntry]:
    out: dict[str, LexEntry] = {}
    for word, where, ej in _objects(j, "lexicon", dict, LEXICAL_KEYS, errs):
        cat = ej.get("cat")
        if cat not in LEXICAL_CATEGORIES:
            errs.append(f"{where}: cat must be one of {', '.join(LEXICAL_CATEGORIES)}")
            continue
        if cat in ("N", "V"):
            pred = ej.get("pred")
            if not isinstance(pred, str):
                errs.append(f"{where}: {cat} entries need a pred")
                continue
            want = LEXICAL_PRED_TYPES[cat]
            if pred not in sig.types:
                errs.append(f"{where}: pred {pred!r} names no constant")
                continue
            if sig.types[pred] != want:
                errs.append(
                    f"{where}: {cat} entries need a {render_type(want)} pred, "
                    f"{pred!r} is {render_type(sig.types[pred])}"
                )
                continue
        if cat == "Mod":
            frame = ej.get("frame")
            if not isinstance(frame, str) or frame not in sig.labels:
                errs.append(f"{where}: Mod entries need a frame the model declares")
                continue
        if cat == "D" and ej.get("sem") != "iota":
            errs.append(f"{where}: D entries need sem \"iota\"")
            continue
        out[word] = LexEntry(word, **{key: ej.get(key) for key in LEXICAL_KEYS})
    return out


def _load_terms(j: Any, sig: Signature, errs: list[str]) -> dict[str, Term]:
    out: dict[str, Term] = {}
    if not isinstance(j, dict):
        errs.append("terms must be an object")
        return out
    names = frozenset(sig.types)
    for name, tj in j.items():
        if not isinstance(tj, str):
            errs.append(f"terms[{name!r}] must be a string")
            continue
        try:
            term = parse_term(tj, names)
            # free variables are in scope: an assignment may bind them
            typecheck(term, sig, free_vars(term))
            out[name] = term
        except (ValueError, FinsemError) as err:
            errs.append(f"terms[{name!r}]: {err}")
    return out


# ---------------------------------------------------------------------------
# value coding

Decoder = Callable[[Any, list[str], Any], Optional[Value]]


def _bad(errs: list[str], at: Any, problem: str) -> None:
    errs.append(f"{_at(at)}: {problem}")


def _row(types: tuple[SemType, ...], problem: str, build: Callable[[tuple], Any]) -> Decoder:
    """The decoder of a list of one item per type, decoded item by item and
    passed to build. When every item is an id string, a row seen before gives
    its result again without decoding: a tuple of strings equals only the same
    strings. Any other row is decoded again at its own location."""
    decoders = tuple(_decoder(t) for t in types)
    shared: Optional[dict] = {} if all(isinstance(t, (EntType, IdxType)) for t in types) else None

    def row(j: Any, errs: list[str], at: Any) -> Any:
        if shared is not None and type(j) is list:
            try:
                return shared[tuple(j)]
            except (KeyError, TypeError):  # a new row, or one holding a list
                pass
        if not isinstance(j, list) or len(j) != len(decoders):
            return _bad(errs, at, problem)
        start = len(errs)
        items = tuple([decode(x, errs, (at, k)) for k, (decode, x) in enumerate(zip(decoders, j))])
        if len(errs) > start:
            return None
        value = build(items)
        if shared is not None:
            shared[tuple(j)] = value
        return value

    return row


def _list_of(each: Decoder, what: str, build: Callable[[list], Value]) -> Decoder:
    """The decoder of a list whose items each decodes. When every item
    decodes, build makes the value from them; a ValueError it raises (a
    repeated member, tuple or key) is reported at the list's location."""

    def items(j: Any, errs: list[str], at: Any) -> Optional[Value]:
        if not isinstance(j, list):
            return _bad(errs, at, f"expected a list of {what}")
        start = len(errs)
        vals = [each(x, errs, (at, i)) for i, x in enumerate(j)]
        if len(errs) > start:
            return None
        try:
            return build(vals)
        except ValueError as err:
            return _bad(errs, at, str(err))

    return items


def _distinct(duplicate: str) -> Callable[[list], SetV]:
    """A build for _list_of: the set of the decoded items, refusing a repeated one."""

    def build(vals: list) -> SetV:
        members = frozenset(vals)
        if len(members) != len(vals):
            raise ValueError(duplicate)
        return SetV(members)

    return build


def _decoder(t: SemType) -> Decoder:
    """The decoder of values of type t, built once per type. It takes the JSON,
    the error list and the value's location (see denote._at), and returns None
    exactly when it has appended at least one error."""
    match t:
        case EntType():
            return lambda j, errs, at: (
                Entity(j)
                if isinstance(j, str)
                else _bad(errs, at, "expected an entity id string")
            )
        case TruthType():
            return lambda j, errs, at: (
                Truth(j)
                if isinstance(j, int) and not isinstance(j, bool) and j in (0, 1)
                else _bad(errs, at, "expected 0 or 1")
            )
        case IdxType(label):
            return lambda j, errs, at: (
                IndexElem(label, j)
                if isinstance(j, str)
                else _bad(errs, at, "expected an element id string")
            )
        case PairType(a, b):
            return _row((a, b), "expected a 2-list", TupleV)
        case SetType(member):
            return _list_of(_decoder(member), "members", _distinct("duplicate set member"))
        case RelType(components):
            row = _row(components, f"expected a {len(components)}-list", TupleV)
            return _list_of(row, "tuples", _distinct("duplicate tuple"))
        case FnType(domain, codomain):
            entry = _row((domain, codomain), "expected a [key, value] 2-list", tuple)
            return _list_of(entry, "[key, value] 2-lists", FnV)
    return lambda j, errs, at: _bad(errs, at, f"cannot decode type {render_type(t)}")


def encode_value(v: Value) -> Any:
    """The JSON form of a value, read off the value itself: a set's members
    in value_key order, a function's entries in their stored order."""
    match v:
        case Entity(ident) | IndexElem(_, ident):
            return ident
        case Truth(flag):
            return flag
        case TupleV(items):
            return [encode_value(x) for x in items]
        case SetV(members):
            return [encode_value(w) for w in sorted(members, key=value_key)]
        case FnV(entries):
            return [[encode_value(k), encode_value(w)] for k, w in entries]


def dump_model_file(mf: ModelFile) -> str:
    """Canonical JSON text: fixed key order, canonical pair order, and tables
    read off m.columns in position order, one row per index of a valid Model."""
    m = mf.model
    designated = dict(m.designated)
    doc: dict[str, Any] = {"entities": list(m.entity_domain.elements)}
    if m.frames:
        doc["frames"] = []
        for f in m.frames:
            fj: dict[str, Any] = {
                "label": f.label,
                "elements": list(f.domain.elements),
                "pairs": [list(p) for p in f.rel.sorted_pairs()],
            }
            if f.label in designated:
                fj["designated"] = designated[f.label]
            doc["frames"].append(fj)
    if m.constants:
        doc["constants"] = [
            {
                "name": c.name,
                "type": render_type(c.semtype),
                "table": [
                    {
                        "index": [e for _, e in idx.components],
                        "value": encode_value(v),
                    }
                    for idx, v in zip(m.positions, m.columns[c.name])
                ],
            }
            for c in m.constants
        ]
    if mf.lexicon:
        doc["lexicon"] = {}
        for word in sorted(mf.lexicon):
            fields = {key: getattr(mf.lexicon[word], key) for key in LEXICAL_KEYS}
            doc["lexicon"][word] = {key: v for key, v in fields.items() if v is not None}
    if mf.terms:
        doc["terms"] = {name: render_term(mf.terms[name]) for name in sorted(mf.terms)}
    return json.dumps(doc, indent=2) + "\n"
