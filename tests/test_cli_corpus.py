"""Pinned command line outcomes over a corpus of model files.

Every subcommand runs in process on the four bundled models and on 16 seeded
generated models written with dump_model_file; a broken copy of each generated
file (rows duplicated, dropped, off the index space or malformed) runs
check-rel, which fails in the loader. One sha256 covers each run's
arguments, exit code, stdout, stderr and the bytes it wrote to --out, so a
change to any of them shows. Regenerate the digest only for an output change
that is meant and declared.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from finsem import cli
from finsem.denote import Diamond, PredApp, Var, render_term
from finsem.fragment import LexEntry
from finsem.generators import random_model
from finsem.modelfile import ModelFile, ModelFileError, dump_model_file, load_model_file
from finsem.morphisms import default_checks
from finsem.semmodel import RelType

from helpers import MODELS_DIR

GENERATED = 16
CORPUS_DIGEST = "c778af57d01bf33df5db906029fce25a998be75b0a036c45be9121bbcb9b3ee7"
EXIT_COUNTS = {0: 353, 1: 59, 2: 16}
SENTENCES = ("the student might read the book", "the student read the book")


def _generated_model_file(seed: int) -> ModelFile:
    """A seeded model with a fragment lexicon over its predicates, as far as
    it has them, and named terms from its default checks."""
    m = random_model(random.Random(seed), max_entities=3, min_frames=0, max_frames=3)
    by_arity: dict[int, list[str]] = {1: [], 2: []}
    for c in m.constants:
        if isinstance(c.semtype, RelType):
            by_arity[len(c.semtype.components)].append(c.name)
    lexicon = {"the": LexEntry(word="the", cat="D", sem="iota")}
    for word, arity, k in (("student", 1, 0), ("book", 1, -1), ("read", 2, 0)):
        if by_arity[arity]:
            lexicon[word] = LexEntry(word=word, cat="N" if arity == 1 else "V", pred=by_arity[arity][k])
    if m.frames:
        lexicon["might"] = LexEntry(word="might", cat="Mod", frame=m.frames[-1].label)
    terms, _ = default_checks(m)
    named = {f"n{k}": t for k, t in enumerate(terms[::3])}
    if m.frames and by_arity[1]:
        named["modal"] = Diamond(m.frames[0].label, PredApp(by_arity[1][0], (Var("x"),)))
    return ModelFile(m, lexicon, named)


def _broken(doc: dict) -> dict:
    """doc with table rows duplicated, dropped, moved off the index space and
    malformed, so loading it reports located and validation problems."""
    first, *rest = doc["constants"]
    table = first["table"]
    first["table"] = [table[-1], *table[1:], table[0], {"index": [*table[0]["index"][:-1], "zz"], "value": table[0]["value"]}]
    if not table[0]["index"]:
        first["table"][-1]["index"] = ["zz"]
    for c in rest[:1]:
        c["table"] = c["table"][:1] + [{"index": [["w"]] + c["table"][0]["index"][1:], "value": c["table"][0]["value"]}]
    return doc


def _command_lines(mf: ModelFile) -> list[tuple[str, ...]]:
    """Every subcommand with the options the model gives it something to do with."""
    m = mf.model
    labels = [f.label for f in m.frames]
    last = ("--index", ",".join(f.domain.elements[-1] for f in m.frames)) if labels else ()
    entity = m.entity_domain.elements[-1]
    lines: list[tuple[str, ...]] = [("check-rel",), ("check-rel", "--prop", "serial"), ("check-map",)]
    for c in m.constants:
        lines.append(("eval", "--term", c.name, *last))
    lines.append(("eval", "--term", "x", "--assign", f"x={entity}"))
    for name in sorted(mf.terms):
        lines.append(("eval", "--term", render_term(mf.terms[name]), "--assign", f"x={entity}", *last))
    for text in SENTENCES:
        lines.append(("sentence", "--text", text, *last))
    for label in labels:
        lines.append(("trivialize", "--frame", label))
        lines.append(("trivialize", "--frame", label, "--designate", m.frame(label).domain.elements[-1], "--out"))
    lines += [("verify-theorem",), ("square", "--frames", ",".join(labels)), ("diagram",)]
    return lines


def _run(capsys, path: Path, line: tuple[str, ...], out: Path) -> list:
    """[argument line, exit code, stdout, stderr, --out text] of one run."""
    argv = [line[0], str(path), *line[1:]]
    if argv[-1] == "--out":
        argv.append(str(out))
    code = cli.main(argv)
    got = capsys.readouterr()
    written = out.read_text(encoding="utf-8") if out.exists() else None
    if written is not None:
        out.unlink()
    return [[line[0], path.name, *line[1:]], code, got.out, got.err, written]


def test_every_command_on_the_corpus_gives_its_pinned_outcome(tmp_path, capsys) -> None:
    files = sorted(MODELS_DIR.glob("*.json"))
    for seed in range(GENERATED):
        path = tmp_path / f"generated_{seed:02}.json"
        path.write_text(dump_model_file(_generated_model_file(seed)), encoding="utf-8")
        files.append(path)
        broken = tmp_path / f"broken_{seed:02}.json"
        broken.write_text(json.dumps(_broken(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
        files.append(broken)
    outcomes = []
    for path in files:
        try:
            lines = _command_lines(load_model_file(str(path)))
        except ModelFileError:
            lines = [("check-rel",)]
        for line in lines:
            outcomes.append(_run(capsys, path, line, tmp_path / "out.json"))
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    counts = dict(sorted(Counter(o[1] for o in outcomes).items()))
    assert (digest, counts) == (CORPUS_DIGEST, EXIT_COUNTS)
