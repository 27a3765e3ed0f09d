"""Two small natural-language fragments over one union grammar.

The grammar is a data table; the lexicon comes from the model file, so new
nouns and verbs need no code change. Translation is the same for every
model: the modal word contributes a Diamond over its frame, scoping over the
fully saturated clause, and the typechecker refuses that Diamond on a model
without the frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from .denote import (
    Const,
    Diamond,
    Iota,
    PredApp,
    PresuppositionFailure,
    Term,
    Var,
    eval_int,
    render_term,
)
from .relalg import FinsemError
from .semmodel import ENT_TYPE, Assignment, Index, Model, RelType, Value, render_value


class UnknownWord(FinsemError):
    pass


class NoParse(FinsemError):
    pass


class AmbiguousParse(FinsemError):
    pass


@dataclass(frozen=True)
class LexEntry:
    word: str
    cat: str
    pred: Optional[str] = None  # N and V: predicate constant interpreted
    frame: Optional[str] = None  # Mod: frame quantified over
    sem: Optional[str] = None  # D: semantic operation, only "iota" exists


Lexicon = Mapping[str, LexEntry]


@dataclass(frozen=True)
class Rule:
    lhs: str
    rhs: tuple[str, ...]


# union of the plain-transitive and modal grammars
RULES = (
    Rule("S", ("DP", "VP")),
    Rule("DP", ("D", "NP")),
    Rule("NP", ("N",)),
    Rule("VP", ("V", "DP")),
    Rule("VP", ("Mod", "V'")),
    Rule("V'", ("V", "DP")),
)

LEXICAL_CATEGORIES = ("D", "N", "V", "Mod")
# the type of the predicate constant an N or V entry interprets
LEXICAL_PRED_TYPES = {"N": RelType((ENT_TYPE,)), "V": RelType((ENT_TYPE, ENT_TYPE))}


@dataclass(frozen=True)
class ParseTree:
    label: str
    children: tuple["ParseTree", ...] = ()
    word: Optional[str] = None

    def render(self) -> str:
        if self.word is not None:
            return f"({self.label} {self.word})"
        return "(" + " ".join([self.label] + [c.render() for c in self.children]) + ")"

    def words(self) -> list[str]:
        if self.word is not None:
            return [self.word]
        return [w for c in self.children for w in c.words()]


def iter_nodes(tree: ParseTree, depth: int = 0) -> Iterator[tuple[ParseTree, int]]:
    yield tree, depth
    for c in tree.children:
        yield from iter_nodes(c, depth + 1)


def parse(tokens: Sequence[str], lexicon: Lexicon) -> ParseTree:
    """Exhaustive parse; exactly one full-span S tree is required."""
    for w in tokens:
        if w not in lexicon:
            raise UnknownWord(f"{w!r} is not in the lexicon")
    full = [t for t, j in _parses("S", list(tokens), 0, lexicon) if j == len(tokens)]
    if not full:
        raise NoParse(f"no parse for {' '.join(tokens)!r}")
    if len(full) > 1:
        raise AmbiguousParse(f"{len(full)} parses for {' '.join(tokens)!r}")
    return full[0]


def _parses(
    symbol: str, tokens: list[str], i: int, lexicon: Lexicon
) -> list[tuple[ParseTree, int]]:
    out: list[tuple[ParseTree, int]] = []
    if symbol in LEXICAL_CATEGORIES:
        if i < len(tokens) and lexicon[tokens[i]].cat == symbol:
            out.append((ParseTree(symbol, (), tokens[i]), i + 1))
        return out
    for rule in RULES:
        if rule.lhs != symbol:
            continue
        partials: list[tuple[list[ParseTree], int]] = [([], i)]
        for sym in rule.rhs:
            grown: list[tuple[list[ParseTree], int]] = []
            for kids, j in partials:
                for t, k in _parses(sym, tokens, j, lexicon):
                    grown.append((kids + [t], k))
            partials = grown
        out.extend((ParseTree(symbol, tuple(kids)), j) for kids, j in partials)
    return out


# ---------------------------------------------------------------------------
# translation


def translate(tree: ParseTree, lexicon: Lexicon) -> tuple[Term, dict[int, Term]]:
    """The term for a parse tree, plus a map from node identity to that node's
    closed term; the same for every model.

    A subject-awaiting node (VP, V') is translated with its subject's term.
    Bound variables are issued in surface order: subject first.
    """
    node_terms: dict[int, Term] = {}
    names = ("xyz"[n] if n < 3 else f"x{n}" for n in itertools.count())

    def go(node: ParseTree, subj: Optional[Term] = None) -> Term:
        kids = node.children
        shape = (node.label, tuple(c.label for c in kids))
        match shape:
            case ("N", ()) | ("V", ()):
                term: Term = Const(lexicon[node.word].pred)
            case ("NP", ("N",)):
                term = go(kids[0])
            case ("DP", ("D", "NP")):
                var = next(names)
                term = Iota(var, PredApp(go(kids[1]).name, (Var(var),)))
            case ("VP", ("V", "DP")) | ("V'", ("V", "DP")):
                term = PredApp(go(kids[0]).name, (subj, go(kids[1])))
            case ("VP", ("Mod", "V'")):
                term = Diamond(lexicon[kids[0].word].frame, go(kids[1], subj))
            case ("S", ("DP", "VP")):
                term = go(kids[1], go(kids[0]))
            case _:
                raise ValueError(f"no translation for node shape {shape!r}")
        node_terms[id(node)] = term
        return term

    return go(tree), node_terms


# ---------------------------------------------------------------------------
# sentence evaluation


@dataclass(frozen=True)
class SentenceResult:
    tree: ParseTree
    term: Term
    value: Value
    trace: tuple[str, ...]


def eval_sentence(
    sentence: Union[str, Sequence[str]],
    m: Model,
    lexicon: Lexicon,
    g: Optional[Assignment] = None,
    s: Optional[Index] = None,
) -> SentenceResult:
    """Parse, translate, and evaluate a sentence against a model.

    An index is required exactly when the model has a nontrivial frame; a
    fully collapsed model evaluates at its unique index, a frame-free one
    extensionally. A failed definite description names the offending DP.
    """
    tokens = sentence.split() if isinstance(sentence, str) else list(sentence)
    tree = parse(tokens, lexicon)
    term, node_terms = translate(tree, lexicon)

    try:
        value = eval_int(term, m, g, s)
    except PresuppositionFailure as err:
        for node, _ in iter_nodes(tree):
            if node.label != "DP":
                continue
            try:
                eval_int(node_terms[id(node)], m, g, s)
            except PresuppositionFailure:
                covered = " ".join(node.words())
                raise PresuppositionFailure(f"{err} in DP '{covered}'") from None
        raise

    lines = []
    for node, depth in iter_nodes(tree):
        covered = " ".join(node.words())
        line = f"{'  ' * depth}{node.label} '{covered}'"
        t = node_terms.get(id(node))
        if t is not None:
            line += f" := {render_term(t)} = {render_value(eval_int(t, m, g, s), m)}"
        lines.append(line)
    return SentenceResult(tree, term, value, tuple(lines))
