"""Seeded corpora of corrupted model-file documents with pinned outcomes.

In the first corpus each document is a bundled model, a hand-written document
that uses every type constructor, or a generated model dumped with
dump_model_file. One to three positions inside its "constants" block are
replaced by junk (wrong JSON types, unknown ids), swapped for another id of
the document, deleted, duplicated or given the wrong arity. The outcome of
loading it (the loader's problem list, or the canonical dump and the
validation report of a model that loads) is hashed, and the hash of all
outcomes is pinned, so any change to a decode or validation message, to its
order or to what loads shows here. The count of each problem kind is pinned
too, to show where a change lies. Named terms are left out of its base
documents: whether they typecheck is tested on its own in test_modelfile.py.

The second corpus corrupts the other blocks the same way: each corruption
picks one of the "frames", "lexicon" and "terms" blocks the document has. Its
base documents are the bundled models with their lexicon and named terms, and
generated models with named generated terms.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import re
from collections import Counter
from typing import Any

from finsem.generators import random_model, random_term
from finsem.modelfile import ModelFile, ModelFileError, dump_model_file, model_file_from_doc

from helpers import MODELS_DIR

DOCUMENTS = 2000
SEED = 8
PINNED_DIGEST = "6b522ebcbe4ec7cbf9689d72b227a0d8f8c79aff24048c422438cd50ca37249b"
PINNED_COUNTS = {
    "DuplicateIndexEntry": 66,
    "IllTypedValue": 236,
    "MissingIndexEntry": 2487,
    "UnexpectedIndexEntry": 144,
    "constant Q table[N].index must be a list of strings": 352,
    "constants[N] must be an object": 177,
    "duplicate keys in function value": 32,
    "duplicate set member": 2,
    "duplicate tuple": 37,
    "expected N or N": 6,
    "expected a N-list": 378,
    "expected a [key, value] N-list": 235,
    "expected a list of [key, value] N-lists": 43,
    "expected a list of members": 3,
    "expected a list of tuples": 103,
    "expected a type at position N in Q": 46,
    "expected an element id string": 4,
    "expected an entity id string": 415,
    "index has N components, model has N frames": 203,
    "loads": 59,
    "missing required key \"constant Q table[N].index\"": 78,
    "name must be a string": 139,
    "pred Q names no constant": 125,
    "problems": 1941,
    "rows are objects with index and value": 308,
    "table must be a list": 95,
    "type must be a string": 86,
    "unknown ground type Q": 72,
    "unknown key Q": 11,
}

BLOCKS = ("frames", "lexicon", "terms")
BLOCK_DOCUMENTS = 2000
BLOCK_SEED = 9
BLOCK_DIGEST = "1de41c69f5d567a090a26523fb59281efe290b2860ca2811995936f823a58320"
BLOCK_COUNTS = {
    "D entries need sem \"iota\"": 25,
    "MissingIndexEntry": 5811,
    "Mod entries need a frame the model declares": 117,
    "N entries need a pred": 28,
    "UnexpectedIndexEntry": 53,
    "V entries need a pred": 6,
    "cat must be one of D, N, V, Mod": 146,
    "designated must name one of the elements": 55,
    "duplicate elements in carrier Q": 41,
    "frame Q needs a non-empty domain": 9,
    "frames must be a list": 1,
    "frames[N] must be an object": 117,
    "frames[N].elements must be a list of strings": 137,
    "frames[N].pairs entries must be N-lists of strings": 274,
    "frames[N].pairs must be a list": 54,
    "index has N components, model has N frames": 11135,
    "label must be a string": 91,
    "lexicon[Q] must be an object": 99,
    "loads": 374,
    "missing required key Q": 21,
    "no frame Q in this model": 95,
    "pair (Q, Q) escapes L -> L": 9,
    "pair (Q, Q) escapes T -> T": 61,
    "pair (Q, Q) escapes W -> W": 83,
    "pair (Q, Q) escapes eN -> eN": 3,
    "pair (Q, Q) escapes sN -> sN": 1,
    "pair (Q, Q) escapes tN -> tN": 1,
    "pair (Q, Q) escapes wN -> wN": 2,
    "pred Q names no constant": 26,
    "problems": 1626,
    "terms[Q] must be a string": 912,
    "unexpected end of term": 64,
    "unknown key Q": 11,
}

# wrong JSON types and unknown ids; each document's own ids are added to these
JUNK = (7, -1, 2, 1.5, True, None, "", "zz", [], {}, ["zz"], [[]], [["zz", "zz"]], {"x": 1})

EVERY_TYPE = {
    "entities": ["a", "b"],
    "frames": [{"label": "W", "elements": ["w0", "w1"], "pairs": [["w0", "w1"]]}],
    "constants": [
        {"name": name, "type": ty, "table": [{"index": [w], "value": v} for w, v in rows]}
        for name, ty, rows in (
            ("flag", "t", (("w0", 0), ("w1", 1))),
            ("here", "s(W)", (("w0", "w0"), ("w1", "w0"))),
            ("duo", "pair(e,t)", (("w0", ["a", 1]), ("w1", ["b", 0]))),
            ("some", "set(e)", (("w0", ["a", "b"]), ("w1", []))),
            ("nest", "set(set(e))", (("w0", [[], ["a"]]), ("w1", [["a", "b"]]))),
            ("seen", "rel(e,s(W))", (("w0", [["a", "w1"]]), ("w1", [["b", "w0"], ["a", "w0"]]))),
            ("odd", "fn(e,t)", (("w0", [["a", 1], ["b", 0]]), ("w1", [["a", 0], ["b", 0]]))),
            ("likes", "fn(e,e,e)", (
                ("w0", [[["a", "a"], "a"], [["a", "b"], "b"], [["b", "a"], "a"], [["b", "b"], "b"]]),
                ("w1", [[["a", "a"], "b"], [["a", "b"], "b"], [["b", "a"], "b"], [["b", "b"], "b"]]),
            )),
        )
    ],
}


def base_documents(rng: random.Random) -> list[dict]:
    docs = []
    for path in sorted(MODELS_DIR.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc.pop("terms", None)
        docs.append(doc)
    docs.append(EVERY_TYPE)
    for _ in range(12):
        m = random_model(rng, min_frames=0, max_frames=2)
        docs.append(json.loads(dump_model_file(ModelFile(m, {}, {}))))
    return docs


def block_documents(rng: random.Random) -> list[dict]:
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(MODELS_DIR.glob("*.json"))]
    for _ in range(12):
        m = random_model(rng, min_frames=0, max_frames=3)
        terms = {f"t{i}": random_term(rng, m, max_depth=3) for i in range(3)}
        docs.append(json.loads(dump_model_file(ModelFile(m, {}, terms))))
    return docs


def positions(node: Any, path: tuple = ()) -> list[tuple]:
    """Every path to a node below node, node itself excluded."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append(path + (key,))
        out.extend(positions(child, path + (key,)))
    return out


def corrupt(rng: random.Random, doc: dict, ids: tuple[str, ...], block: str) -> None:
    """Change one position inside doc[block]; ids are the document's entity
    and frame element ids, so a value can turn into another valid one."""
    junk = JUNK + ids
    path = rng.choice(positions(doc[block]) or [()])
    if not path:
        doc[block] = rng.choice(junk)
        return
    parent = doc[block]
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    kind = rng.choice(("junk", "junk", "id", "delete", "duplicate", "arity"))
    if kind == "id" and isinstance(node, str):
        parent[key] = rng.choice(ids)
    elif kind == "delete":
        del parent[key]
    elif kind == "duplicate" and isinstance(node, list) and node:
        node.insert(rng.randrange(len(node) + 1), copy.deepcopy(rng.choice(node)))
    elif kind == "arity" and isinstance(node, list):
        if node and rng.random() < 0.5:
            node.pop(rng.randrange(len(node)))
        else:
            node.append(copy.deepcopy(rng.choice(node)) if node else rng.choice(junk))
    else:
        parent[key] = copy.deepcopy(rng.choice(junk))


def outcome(doc: dict) -> list:
    try:
        mf = model_file_from_doc(doc)
    except ModelFileError as err:
        return ["problems", err.problems]
    dump = hashlib.sha256(dump_model_file(mf).encode()).hexdigest()
    return ["loads", dump, []]  # a loaded Model is valid by construction: no violations


def corpus_outcomes(seed: int, documents: int, bases, block) -> list[list]:
    """The outcomes of documents corrupted copies of the bases(rng) documents;
    block(rng, doc) names the block each corruption changes."""
    rng = random.Random(seed)
    docs = bases(rng)
    outcomes = []
    for _ in range(documents):
        doc = copy.deepcopy(rng.choice(docs))
        ids = tuple(doc["entities"]) + tuple(e for f in doc.get("frames", []) for e in f["elements"])
        for _ in range(rng.randint(1, 3)):
            corrupt(rng, doc, ids, block(rng, doc))
        outcomes.append(outcome(doc))
    return outcomes


def digest(outcomes: list[list]) -> str:
    each = [hashlib.sha256(json.dumps(o).encode()).hexdigest() for o in outcomes]
    return hashlib.sha256("\n".join(each).encode()).hexdigest()


def kind(problem: str) -> str:
    """A violation's kind, or a problem without its location, names and numbers."""
    violation = re.match(r"validation: (?:constant '[^']*': )?(\w+)", problem)
    if violation:
        return violation.group(1)
    return re.sub(r"\d+", "N", re.sub(r"'[^']*'", "Q", problem.rsplit(": ", 1)[-1]))


def counts(outcomes: list[list]) -> dict[str, int]:
    """How many documents load, and how many problems there are of each kind."""
    c: Counter = Counter(o[0] for o in outcomes)
    for o in outcomes:
        if o[0] == "problems":
            c.update(kind(p) for p in o[1])
    return dict(sorted(c.items()))


def test_corrupted_corpus_outcomes_are_pinned() -> None:
    outcomes = corpus_outcomes(SEED, DOCUMENTS, base_documents, lambda rng, doc: "constants")
    assert counts(outcomes) == PINNED_COUNTS
    assert digest(outcomes) == PINNED_DIGEST


def test_corrupted_blocks_corpus_outcomes_are_pinned() -> None:
    def block(rng: random.Random, doc: dict) -> str:
        return rng.choice([b for b in BLOCKS if b in doc])

    outcomes = corpus_outcomes(BLOCK_SEED, BLOCK_DOCUMENTS, block_documents, block)
    assert counts(outcomes) == BLOCK_COUNTS
    assert digest(outcomes) == BLOCK_DIGEST
