"""Command line interface over model files.

Exit codes: 0 success, 1 violated precondition (a command raised a
FinsemError; one-line diagnostic on stderr), 2 unreadable or malformed input,
or an --out file that cannot be written. All stdout is deterministic for a
given input file and arguments.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from typing import Optional, Sequence

from . import kripke, morphisms
from .denote import eval_int, has_modal, parse_term, render_term
from .fragment import eval_sentence
from .modelfile import ModelFile, ModelFileError, dump_model_file, load_model_file
from .morphisms import TrivializeFrame
from .relalg import PROPERTY_NAMES, FinsemError, check_property
from .semmodel import (
    Assignment,
    Index,
    Model,
    UnknownEntity,
    UnknownFrame,
    UnknownIndex,
    render_value,
)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _parse_index(m: Model, text: str) -> Index:
    parts = text.split(",") if text else []
    labels = [f.label for f in m.frames]
    if len(parts) != len(labels):
        raise UnknownIndex(
            f"index needs {len(labels)} components ({','.join(labels)}), got {len(parts)}"
        )
    return Index(tuple(zip(labels, parts)))


def _parse_assignment(pairs: Optional[Sequence[str]]) -> Assignment:
    bindings = []
    for p in pairs or []:
        var, eq, ent = p.partition("=")
        if not (var and eq):
            raise UnknownEntity(f"assignment {p!r} must look like x=entity")
        bindings.append((var, ent))
    return Assignment(tuple(bindings))


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_rel(mf: ModelFile, args: argparse.Namespace) -> int:
    props = [args.prop] if args.prop else list(PROPERTY_NAMES)
    for frame in mf.model.frames:
        for prop in props:
            held = check_property(frame.rel, prop)
            print(f"frame {frame.label} {prop} {_bool(held)}")
    return 0


def cmd_check_map(mf: ModelFile, args: argparse.Namespace) -> int:
    for frame in mf.model.frames:
        if frame.trivial:
            print(f"frame {frame.label} already trivial")
            continue
        designated = mf.model.designated_for(frame.label)
        fm = kripke.trivialize(frame, designated)
        print(
            f"frame {frame.label} designated {designated} "
            f"monotone {_bool(kripke.is_monotone(fm))} "
            f"forth {_bool(kripke.forth_holds(fm))} "
            f"back {_bool(kripke.back_holds(fm))} "
            f"bounded {_bool(kripke.is_bounded(fm))} "
            f"surjective {_bool(kripke.is_surjective(fm))}"
        )
    return 0


def cmd_eval(mf: ModelFile, args: argparse.Namespace) -> int:
    names = frozenset(c.name for c in mf.model.constants)
    try:
        term = parse_term(args.term, names)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    g = _parse_assignment(args.assign)
    s = _parse_index(mf.model, args.index) if args.index is not None else None
    value = eval_int(term, mf.model, g, s)
    print(render_value(value, mf.model))
    return 0


def cmd_sentence(mf: ModelFile, args: argparse.Namespace) -> int:
    s = _parse_index(mf.model, args.index) if args.index is not None else None
    result = eval_sentence(args.text, mf.model, mf.lexicon, Assignment(), s)
    print(f"tree: {result.tree.render()}")
    print(f"term: {render_term(result.term)}")
    for line in result.trace:
        print(line)
    print(f"value: {render_value(result.value, mf.model)}")
    return 0


def cmd_trivialize(mf: ModelFile, args: argparse.Namespace) -> int:
    transformed = morphisms.apply(
        mf.model, TrivializeFrame(args.frame, args.designate)
    )
    text = dump_model_file(ModelFile(transformed, mf.lexicon, mf.terms))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_theorem(mf: ModelFile, args: argparse.Namespace) -> int:
    collapsed = morphisms.trivialize_all(mf.model)
    terms, assignments = morphisms.default_checks(collapsed)
    for name in sorted(mf.terms):
        if has_modal(mf.terms[name]):
            print(f"skipped (modal): {name}")
        else:
            terms.append(mf.terms[name])
    report = morphisms.verify_equivalence(collapsed, terms, assignments)
    for line in report.summary_lines():
        print(line)
    return 0 if not report.mismatches else 1


def cmd_square(mf: ModelFile, args: argparse.Namespace) -> int:
    labels = args.frames.split(",")
    if len(labels) < 2:
        raise UnknownFrame("need at least two frame labels")
    results = []
    for perm in itertools.permutations(labels):
        path = tuple(TrivializeFrame(label) for label in perm)
        results.append(morphisms.compose_path(mf.model, path))
    commutes = all(r == results[0] for r in results)
    print(f"commutes: {_bool(commutes)}")
    return 0


def cmd_diagram(mf: ModelFile, args: argparse.Namespace) -> int:
    sys.stdout.write(morphisms.diagram_export(mf.model))
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser; main finds each command's cmd_ handler by name."""
    parser = argparse.ArgumentParser(
        prog="finsem", description="finite-model semantics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("model")
        return p

    p = command("check-rel", "frame relation property report")
    p.add_argument("--prop", choices=PROPERTY_NAMES)

    command("check-map", "collapse-map monotone/bounded report")

    p = command("eval", "evaluate a term")
    p.add_argument("--term", required=True)
    p.add_argument("--index")
    p.add_argument("--assign", action="append", metavar="VAR=ENTITY")

    p = command("sentence", "parse and evaluate a sentence")
    p.add_argument("--text", required=True)
    p.add_argument("--index")

    p = command("trivialize", "collapse one frame and write the model")
    p.add_argument("--frame", required=True)
    p.add_argument("--designate")
    p.add_argument("--out")

    command("verify-theorem", "collapse all frames and check both evaluators agree on every term")

    p = command("square", "check collapse order does not matter")
    p.add_argument("--frames", required=True, metavar="L1,L2[,...]")

    command("diagram", "emit the collapse hypercube as node/edge lines")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mf = load_model_file(args.model)
    except ModelFileError as err:
        for problem in err.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](mf, args)
    except FinsemError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
