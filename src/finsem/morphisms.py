"""Morphisms between models: identity and single-frame collapse.

Applying TrivializeFrame keeps the designated slice of every interpretation
table and replaces the chosen frame by the one-point frame. Squares built
from collapses of different frames commute on the nose, and a fully
collapsed model evaluates exactly like its frame-free extensionalization;
verify_equivalence checks the latter claim exhaustively, term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .denote import (
    And,
    App,
    Const,
    Eq,
    FuncApp,
    Iota,
    Lam,
    Not,
    PredApp,
    Term,
    Var,
    _env_of,
    _eval,
    _prepare,
    _type_error,
    render_term,
)
from .kripke import TRIVIAL_ELEMENT, Frame
from .kripke import trivialize as trivialize_frame
from .relalg import FinsemError
from .semmodel import (
    EMPTY_INDEX,
    ENT_TYPE,
    Assignment,
    Constant,
    FnType,
    Index,
    Model,
    RelType,
    UnknownFrame,
    Value,
    fn_arity,
    render_value,
)


class AlreadyTrivial(FinsemError):
    pass


class NotFullyTrivial(FinsemError):
    pass


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class TrivializeFrame:
    label: str
    designated: Optional[str] = None


Morphism = Union[Identity, TrivializeFrame]


def apply(m: Model, morphism: Morphism) -> Model:
    """Apply one morphism to a model."""
    match morphism:
        case Identity():
            return m
        case TrivializeFrame(label, designated):
            frame = m.frame(label)
            if frame is None:
                raise UnknownFrame(f"model has no frame {label!r}")
            if frame.trivial:
                raise AlreadyTrivial(f"frame {label!r} is already trivial")
            chosen = designated if designated is not None else m.designated_for(label)
            collapsed = trivialize_frame(frame, chosen).frame
            frames = tuple(collapsed if f.label == label else f for f in m.frames)
            designated_left = tuple((l, e) for l, e in m.designated if l != label)

            def move(idx: Index) -> Optional[Index]:
                """A kept row's new index, or None for a row left out."""
                return idx.replace(label, TRIVIAL_ELEMENT) if idx.component(label) == chosen else None

            return _reindex(m, frames, designated_left, move)
    raise ValueError(f"unknown morphism {morphism!r}")


def _reindex(
    m: Model, frames: tuple[Frame, ...], designated: tuple, move: Callable[[Index], Optional[Index]]
) -> Model:
    """m over new frames, each table row moved to move(its index), or left out
    where that is None. move is decided once per position, for every constant,
    and once per row off the space, by its Index."""
    moved = {idx: move(idx) for idx in m.positions}
    constants = tuple(
        Constant(c.name, c.semtype, tuple(
            (to, v)
            for idx, v in c.table
            if (to := moved[idx] if idx in moved else move(idx)) is not None
        ))
        for c in m.constants
    )
    return Model(m.entity_domain, frames, constants, designated)


def compose_path(m: Model, path: Sequence[Morphism]) -> Model:
    """Apply a path of morphisms left to right."""
    out = m
    for morphism in path:
        out = apply(out, morphism)
    return out


def trivialize_all(m: Model) -> Model:
    """Collapse every nontrivial frame, in frame order, at its designated element."""
    path = [TrivializeFrame(f.label) for f in m.frames if not f.trivial]
    return compose_path(m, path)


@dataclass(frozen=True)
class CommutativitySquare:
    start: Model
    path1: tuple[Morphism, ...]
    path2: tuple[Morphism, ...]


def check_square(square: CommutativitySquare) -> bool:
    """Do the two paths from the start model land on structurally equal models?"""
    a = compose_path(square.start, square.path1)
    b = compose_path(square.start, square.path2)
    return a == b


def extensionalize(m: Model) -> Model:
    """Strip the trivial frames, keeping the single-index slice of every table."""
    if not m.is_extensional:
        raise NotFullyTrivial("model still has a nontrivial frame")
    if not m.frames:
        return m
    return _reindex(m, (), (), lambda idx: EMPTY_INDEX if idx in m.positions else None)


# ---------------------------------------------------------------------------
# equivalence checking


@dataclass(frozen=True)
class CheckRecord:
    category: str
    term: str
    assignment: tuple[tuple[str, str], ...]
    intensional: str
    extensional: str
    agree: bool


@dataclass(frozen=True)
class EquivalenceReport:
    checks: tuple[CheckRecord, ...]

    @property
    def total(self) -> int:
        return len(self.checks)

    @property
    def mismatches(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if not c.agree)

    def by_category(self) -> dict[str, tuple[int, int]]:
        """category -> (checked, mismatched), categories sorted by name."""
        out: dict[str, tuple[int, int]] = {}
        for c in sorted(self.checks, key=lambda c: c.category):
            checked, bad = out.get(c.category, (0, 0))
            out[c.category] = (checked + 1, bad + (0 if c.agree else 1))
        return out

    def summary_lines(self) -> list[str]:
        lines = [
            f"{cat}: {bad} mismatches / {checked} checks"
            for cat, (checked, bad) in self.by_category().items()
        ]
        lines.append(f"total: {len(self.mismatches)} mismatches / {self.total} checks")
        return lines


def categorize(term: Term, m: Model) -> str:
    match term:
        case Const(name):
            c = m.constant(name)
            if c is not None and isinstance(c.semtype, RelType):
                return "predicates"
            if c is not None and isinstance(c.semtype, FnType):
                return "functions"
            return "constants"
        case Var(_):
            return "variables"
        case PredApp(_, _):
            return "predicates"
        case FuncApp(_, _):
            return "functions"
    return "composites"


def _outcome(term: Term, m: Model, type_error, env) -> tuple[Optional[Value], Optional[str]]:
    try:
        return _eval(term, m, _prepare(m, type_error, env), 0), None
    except Exception as err:  # evaluation errors are data here
        return None, type(err).__name__


def verify_equivalence(
    m: Model,
    terms: Sequence[Term],
    assignments: Optional[Sequence[Assignment]] = None,
) -> EquivalenceReport:
    """Evaluate every term twice, at the unique index and extensionally.

    The model must be fully trivial. Two outcomes agree when both produce the
    same value or both fail with the same kind of error.

    A term that typechecks on the frame-free model has no Diamond and so
    typechecks alike on the collapsed one, which has the same constants with
    the same types: only a term that fails there is typechecked again. Both
    models share the entity domain, so each assignment's environment is built
    once per call.
    """
    if not m.is_extensional:
        raise NotFullyTrivial("verify_equivalence needs a fully trivial model")
    ext = extensionalize(m)
    gs = list(assignments) if assignments else [Assignment()]
    envs = [(g, _env_of(g, m)) for g in gs]
    records = []
    for term in terms:
        for g, env in envs:
            type_error = _type_error(term, ext, g)
            int_error = type_error and _type_error(term, m, g)
            val_i, err_i = _outcome(term, m, int_error, env)
            val_e, err_e = _outcome(term, ext, type_error, env)
            if err_i is None and err_e is None:
                agree = val_i == val_e
                left, right = render_value(val_i, m), render_value(val_e, ext)
            else:
                agree = err_i == err_e
                left = f"error:{err_i}" if err_i else render_value(val_i, m)
                right = f"error:{err_e}" if err_e else render_value(val_e, ext)
            records.append(
                CheckRecord(
                    category=categorize(term, m),
                    term=render_term(term),
                    assignment=g.bindings,
                    intensional=left,
                    extensional=right,
                    agree=agree,
                )
            )
    return EquivalenceReport(tuple(records))


def default_checks(m: Model) -> tuple[list[Term], list[Assignment]]:
    """Deterministic term corpus and assignments drawn from a model's constants.

    Covers every constant at lemma level (bare Const), variables, applied
    predicates and functions, and a few composite shapes.
    """
    ents = m.entity_domain.elements
    gs = [Assignment((("x", ents[0]),))] if ents else [Assignment()]
    terms: list[Term] = [Const(c.name) for c in m.constants]
    if ents:
        terms.append(Var("x"))
    pool: list[Term] = [
        Const(c.name) for c in m.constants if c.semtype == ENT_TYPE
    ] or ([Var("x")] if ents else [])
    unary_preds = [
        c.name
        for c in m.constants
        if isinstance(c.semtype, RelType) and len(c.semtype.components) == 1
    ]
    if pool:
        for c in m.constants:
            if isinstance(c.semtype, RelType):
                args = tuple(
                    pool[i % len(pool)] for i in range(len(c.semtype.components))
                )
                terms.append(PredApp(c.name, args))
            elif isinstance(c.semtype, FnType):
                args = tuple(pool[i % len(pool)] for i in range(fn_arity(c.semtype)))
                terms.append(FuncApp(c.name, args))
        terms.append(Eq(pool[0], pool[0]))
    for p in unary_preds:
        if pool:
            atom = PredApp(p, (pool[0],))
            terms.append(And(atom, Not(atom)))
        terms.append(Lam("v", ENT_TYPE, PredApp(p, (Var("v"),))))
        if pool:
            terms.append(App(Lam("v", ENT_TYPE, PredApp(p, (Var("v"),))), pool[0]))
        terms.append(Iota("v", PredApp(p, (Var("v"),))))
    return terms, gs


# ---------------------------------------------------------------------------
# diagrams


def diagram_export(m: Model) -> str:
    """Describe the hypercube of collapse stages as node/edge lines.

    Node names list the nontrivial frames' labels in frame order, priming
    collapsed ones; each edge collapses one more frame and carries its label.
    Both blocks come out sorted, nodes before edges.
    """
    labels = [f.label for f in m.frames if not f.trivial]

    def node_name(mask: int) -> str:
        if not labels:
            return "1"
        return "".join(
            label + ("'" if mask >> i & 1 else "") for i, label in enumerate(labels)
        )

    nodes = [f"node {node_name(mask)}" for mask in range(1 << len(labels))]
    edges = []
    for mask in range(1 << len(labels)):
        for i, label in enumerate(labels):
            if not mask >> i & 1:
                edges.append(f"edge {node_name(mask)} {node_name(mask | 1 << i)} {label}")
    return "\n".join(sorted(nodes) + sorted(edges)) + "\n"
