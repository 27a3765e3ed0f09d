"""Morphisms between models: pullback along frame maps, and the collapses.

pullback takes one kripke.FrameMap per label, into the model's frame of that
label, and builds the model over their sources whose columns hold, at each u,
the model's values at the image of u. A collapse at w is the pullback along
kripke.section, k0 -> w; trivialize_all takes every nontrivial frame's
section at once. Each pullback and extensionalize builds one Model. It
refuses a constant whose type mentions s(L) for a frame L it replaces or
drops, so the pullback of a model, valid by construction, is valid too. Two
collapse paths commute when compose_path lands them on equal models, and a
fully collapsed model evaluates exactly like its frame-free
extensionalization, which verify_equivalence checks term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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
from .kripke import Frame, FrameMap, section
from .relalg import EndpointMismatch, FinsemError
from .semmodel import (
    ENT_TYPE,
    Assignment,
    Constant,
    FnType,
    Model,
    RelType,
    UnknownFrame,
    Value,
    fn_arity,
    frame_labels,
    index_space,
    render_type,
    render_value,
)


class AlreadyTrivial(FinsemError):
    pass


class NotFullyTrivial(FinsemError):
    pass


class FrameTypedConstant(FinsemError):
    pass


@dataclass(frozen=True)
class TrivializeFrame:
    label: str
    designated: Optional[str] = None


def apply(m: Model, morphism: TrivializeFrame) -> Model:
    """Collapse one frame at its chosen element, the model's designated one by default."""
    frame = m.frame(morphism.label)
    if frame is None:
        raise UnknownFrame(f"model has no frame {morphism.label!r}")
    if frame.trivial:
        raise AlreadyTrivial(f"frame {frame.label!r} is already trivial")
    chosen = morphism.designated if morphism.designated is not None else m.designated_for(frame.label)
    return pullback(m, {frame.label: section(frame, chosen)})


def pullback(m: Model, maps: Mapping[str, FrameMap]) -> Model:
    """m pulled back along each map in maps, into m's frame of its label: that
    frame becomes the map's source and loses its designated element, and every
    column holds, at each index, m's value at the index's image."""
    for label, fm in maps.items():
        frame = m.frame(label)
        if frame is None:
            raise UnknownFrame(f"model has no frame {label!r}")
        if fm.target != frame:
            raise EndpointMismatch(f"map into {fm.target.label!r} does not end at the model's frame {label!r}")
    # mixed-radix positions, the last frame fastest, as in index_space
    at = [0]
    for f in m.frames:
        fm = maps.get(f.label)
        digits = range(len(f.domain)) if fm is None else [f.domain.position(fm(u)) for u in fm.source.domain.elements]
        at = [p * len(f.domain) + d for p in at for d in digits]
    frames = tuple(maps[f.label].source if f.label in maps else f for f in m.frames)
    designated = tuple(d for d in m.designated if d[0] not in maps)
    return _pullback(m, frames, designated, at)


def _pullback(m: Model, frames: tuple[Frame, ...], designated: tuple, at: Sequence[int]) -> Model:
    """The model over frames whose constant c holds, at each target position q,
    m's value of c at position at[q]: m's columns pulled back along at."""
    gone = {f.label for f in m.frames if f not in frames}
    for c in m.constants:
        for label in frame_labels(c.semtype):
            if label in gone:
                raise FrameTypedConstant(
                    f"constant {c.name!r} of type {render_type(c.semtype)} mentions "
                    f"frame {label!r}, which this collapse replaces or drops"
                )
    indices = index_space(frames)
    constants = tuple(
        Constant(c.name, c.semtype, tuple(zip(indices, map(m.columns[c.name].__getitem__, at))))
        for c in m.constants
    )
    return Model(m.entity_domain, frames, constants, designated)


def compose_path(m: Model, path: Sequence[TrivializeFrame]) -> Model:
    """Apply a path of morphisms left to right."""
    out = m
    for morphism in path:
        out = apply(out, morphism)
    return out


def trivialize_all(m: Model) -> Model:
    """Collapse every nontrivial frame at its designated element, in one pullback."""
    maps = {f.label: section(f, m.designated_for(f.label)) for f in m.frames if not f.trivial}
    return pullback(m, maps) if maps else m


def extensionalize(m: Model) -> Model:
    """Strip the trivial frames, keeping the single-index slice of every table."""
    if not m.is_extensional:
        raise NotFullyTrivial("model still has a nontrivial frame")
    return _pullback(m, (), (), [0]) if m.frames else m


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
            t = m.signature.types.get(name)
            if isinstance(t, RelType):
                return "predicates"
            if isinstance(t, FnType):
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
        return _eval(term, m, _prepare(type_error, env), 0), None
    except Exception as err:  # evaluation errors are data here
        return None, type(err).__name__


def verify_equivalence(
    m: Model,
    terms: Sequence[Term],
    assignments: Optional[Sequence[Assignment]] = None,
) -> EquivalenceReport:
    """Evaluate every term twice, at the unique index and extensionally.

    The model must be fully trivial (extensionalize refuses it otherwise).
    Two outcomes agree when both produce the same value or both fail with the
    same kind of error.

    A term that typechecks on the frame-free model has no Diamond and so
    typechecks alike on the collapsed one, which has the same constants with
    the same types: only a term that fails there is typechecked again. Both
    models share the entity domain, so each assignment's environment is built
    once per call.
    """
    ext = extensionalize(m)
    gs = list(assignments) if assignments else [Assignment()]
    envs = [(g, _env_of(g, m)) for g in gs]
    records = []
    for term in terms:
        for g, env in envs:
            type_error = _type_error(term, ext.signature, g)
            int_error = type_error and _type_error(term, m.signature, g)
            val_i, err_i = _outcome(term, m, int_error, env)
            val_e, err_e = _outcome(term, ext, type_error, env)
            left = f"error:{err_i}" if err_i else render_value(val_i, m)
            right = f"error:{err_e}" if err_e else render_value(val_e, ext)
            agree = (err_i, val_i) == (err_e, val_e)
            records.append(
                CheckRecord(categorize(term, m), render_term(term), g.bindings, left, right, agree)
            )
    return EquivalenceReport(tuple(records))


def default_checks(m: Model) -> tuple[list[Term], list[Assignment]]:
    """Deterministic term corpus and assignments drawn from a model's constants.

    Covers every constant at lemma level (bare Const), variables, applied
    predicates and functions, and a few composite shapes. The one assignment
    sends x to the first entity, which a valid model always has.
    """
    gs = [Assignment((("x", m.entity_domain.elements[0]),))]
    terms: list[Term] = [Const(c.name) for c in m.constants] + [Var("x")]
    pool: list[Term] = [Const(c.name) for c in m.constants if c.semtype == ENT_TYPE] or [Var("x")]
    unary_preds = [
        c.name
        for c in m.constants
        if isinstance(c.semtype, RelType) and len(c.semtype.components) == 1
    ]
    for c in m.constants:
        if isinstance(c.semtype, RelType):
            args = tuple(pool[i % len(pool)] for i in range(len(c.semtype.components)))
            terms.append(PredApp(c.name, args))
        elif isinstance(c.semtype, FnType):
            args = tuple(pool[i % len(pool)] for i in range(fn_arity(c.semtype)))
            terms.append(FuncApp(c.name, args))
    terms.append(Eq(pool[0], pool[0]))
    for p in unary_preds:
        atom = PredApp(p, (pool[0],))
        lam = Lam("v", ENT_TYPE, PredApp(p, (Var("v"),)))
        terms += [And(atom, Not(atom)), lam, App(lam, pool[0]), Iota("v", lam.body)]
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
