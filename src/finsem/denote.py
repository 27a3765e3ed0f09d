"""Term language with a typechecker and two evaluators.

eval_int, the one evaluation entry, interprets a term at an index of any
model; given none, it takes the one index of an extensional-mode model (no
frames, or every frame collapsed), so a trivial intensional model evaluates
as an extensional one. eval_all_indices evaluates at every index. The
evaluators share one entry sequence, _prepare, and one clause table,
_CLAUSES, keyed by term class, as the typing rules are in _TYPES and the
renderers in _RENDER. Clauses evaluate at an index position of
Model.positions, and no clause mutates an environment it is given, so one
environment may serve many checks.

Lambda abstraction evaluates by extending the environment over the bound
variable's finite domain; no textual substitution ever happens, so capture
is a non-issue and every result is a finite first-class value. An applied lam
builds none (deforestation, Wadler 1990): _eval_app runs the body at every
entity, as _eval_lam does, so the same first error wins, and returns the
argument's row; _type_app builds no FnType. _COLUMNS still applies a function
value per position: it runs once per view class, and is the independent route
the applied-lam rule is checked against.

eval_all_indices labels every subterm with a column of values over a list
of index positions, as CTL model checking labels states with subformulas: a
second clause table, _COLUMNS, interprets each node once per column, not once
per position. Column clauses compute values only and raise where evaluation
fails; errors are named by _CLAUSES alone, as eval_all_indices then evaluates
index by index and raises the first index's error. eval_int and _CLAUSES are
the per-index oracle the columns must match.

A Diamond-free term reads the model only through the columns of the constants
it names (its support), env and the entity domain, and only the columns vary by
position. Every type, value and Index is hash-consed (semmodel.Shared) and
compares by identity, held by a weak table only while it is alive elsewhere:
equal column values are one object, so positions whose support columns hold
the same objects, a view class, give the term one outcome, error included.
_column_by_view evaluates the whole term and each Diamond body once per view
class and broadcasts the values back: the constant intension of a rigid
designator is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from .relalg import FinsemError
from .semmodel import (
    ENT_TYPE,
    MAX_DOMAIN_SIZE,
    TRUTH_TYPE,
    Assignment,
    DomainTooLarge,
    Entity,
    FnType,
    FnV,
    Index,
    Model,
    RelType,
    SemType,
    SetV,
    Signature,
    Truth,
    TupleV,
    UngroundedType,
    UnknownEntity,
    UnknownIndex,
    Value,
    _refuse_nesting,
    arg_types,
    parse_type,
    render_type,
)


class TermTypeError(FinsemError):
    def __init__(self, path: str, expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found}")


class UnboundVariable(FinsemError):
    pass


class PresuppositionFailure(FinsemError):
    pass


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class PredApp(Term):
    pred: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class FuncApp(Term):
    fn: str
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Lam(Term):
    var: str
    var_type: SemType
    body: Term


@dataclass(frozen=True)
class App(Term):
    func: Term
    arg: Term


@dataclass(frozen=True)
class Iota(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class Diamond(Term):
    label: str
    body: Term


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Term):
    body: Term


@dataclass(frozen=True)
class Eq(Term):
    left: Term
    right: Term


def _children(term: Term) -> tuple[Term, ...]:
    """The immediate subterms of a term, left to right."""
    match term:
        case PredApp(_, args) | FuncApp(_, args):
            return args
        case Lam(_, _, body) | Iota(_, body) | Diamond(_, body) | Not(body):
            return (body,)
        case App(left, right) | And(left, right) | Eq(left, right):
            return (left, right)
    return ()


def has_modal(term: Term) -> bool:
    return _support(term) is None


def free_vars(term: Term) -> frozenset[str]:
    """The variables term uses outside every lam and iota that binds them."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    free = frozenset().union(*map(free_vars, _children(term)))
    return free - {term.var} if isinstance(term, (Lam, Iota)) else free


# ---------------------------------------------------------------------------
# typechecking


def typecheck(term: Term, sig: Signature, scope: Iterable[str] = ()) -> SemType:
    """Type of a term under sig, or a located TermTypeError / UnboundVariable.
    scope names the free variables in scope. Every variable is entity-typed (a
    lam or iota binds e, an assignment binds entities), so none needs a type."""
    return _type_of(term, sig, frozenset(scope), "root")


_E, _T = ENT_TYPE, TRUTH_TYPE


def _at(path: object) -> str:
    """The text of a location: a string, or a (parent location, step) pair
    whose step is text or an int i, rendered "[i]". Built only for an error."""
    steps = []
    while isinstance(path, tuple):
        path, step = path
        steps.append(f"[{step}]" if isinstance(step, int) else step)
    return path + "".join(reversed(steps))


def _type_of(term: Term, sig: Signature, env: frozenset[str], path: object) -> SemType:
    rule = _TYPES.get(type(term))
    if rule is None:
        raise ValueError(f"unknown term {term!r}")
    return rule(term, sig, env, path)


def _expect(term: Term, sig: Signature, env: frozenset[str], path: object, want: SemType) -> None:
    """Typecheck a subterm at path and refuse it unless its type is want."""
    got = _type_of(term, sig, env, path)
    if got is not want:
        raise TermTypeError(_at(path), render_type(want), render_type(got))


def _declared(sig: Signature, name: str, what: str, path: object) -> SemType:
    """The type sig gives the constant name, refused as an unknown what."""
    t = sig.types.get(name)
    if t is None:
        raise UnboundVariable(f"at {_at(path)}: unknown {what} {name!r}")
    return t


def _type_const(term: Const, sig: Signature, env: frozenset[str], path: object) -> SemType:
    return _declared(sig, term.name, "constant", path)


def _type_var(term: Var, sig: Signature, env: frozenset[str], path: object) -> SemType:
    if term.name not in env:
        raise UnboundVariable(f"at {_at(path)}: variable {term.name!r} is not in scope")
    return _E


def _type_pred_app(term: PredApp, sig: Signature, env: frozenset[str], path: object) -> SemType:
    pred, args = term.pred, term.args
    t = _declared(sig, pred, "predicate", path)
    if not isinstance(t, RelType):
        raise TermTypeError(_at(path), "a relation-typed constant", render_type(t))
    comps = t.components
    if len(args) != len(comps):
        raise TermTypeError(
            _at(path), f"{len(comps)} arguments to {pred!r}", f"{len(args)} arguments"
        )
    for i, (a, want) in enumerate(zip(args, comps)):
        _expect(a, sig, env, ((path, ".args"), i), want)
    return _T


def _type_func_app(term: FuncApp, sig: Signature, env: frozenset[str], path: object) -> SemType:
    args = term.args
    t = _declared(sig, term.fn, "function", path)
    if not isinstance(t, FnType):
        raise TermTypeError(_at(path), "a function-typed constant", render_type(t))
    try:
        wants = arg_types(t, len(args))
    except ValueError:
        raise TermTypeError(
            _at(path), f"arguments matching {render_type(t)}", f"{len(args)} arguments"
        ) from None
    for i, (a, want) in enumerate(zip(args, wants)):
        _expect(a, sig, env, ((path, ".args"), i), want)
    return t.codomain


def _type_body(term: Lam, sig: Signature, env: frozenset[str], path: object) -> SemType:
    """The type of a lam's body, once its bound variable is checked entity-typed."""
    var_type = term.var_type
    if var_type is not _E:
        raise TermTypeError(
            _at(path), "e (bound variables are entity-typed)", render_type(var_type)
        )
    return _type_of(term.body, sig, env | {term.var}, (path, ".body"))


def _type_lam(term: Lam, sig: Signature, env: frozenset[str], path: object) -> SemType:
    return FnType(term.var_type, _type_body(term, sig, env, path))


def _type_app(term: App, sig: Signature, env: frozenset[str], path: object) -> SemType:
    if type(term.func) is Lam:  # an applied lam needs no FnType: its domain is e
        codomain = _type_body(term.func, sig, env, (path, ".func"))
        _expect(term.arg, sig, env, (path, ".arg"), _E)
        return codomain
    ft = _type_of(term.func, sig, env, (path, ".func"))
    if not isinstance(ft, FnType):
        raise TermTypeError(_at((path, ".func")), "a function type", render_type(ft))
    _expect(term.arg, sig, env, (path, ".arg"), ft.domain)
    return ft.codomain


def _type_iota(term: Iota, sig: Signature, env: frozenset[str], path: object) -> SemType:
    _expect(term.body, sig, env | {term.var}, (path, ".body"), _T)
    return _E


def _type_diamond(term: Diamond, sig: Signature, env: frozenset[str], path: object) -> SemType:
    if term.label not in sig.labels:
        raise UngroundedType(f"at {_at(path)}: no frame {term.label!r} in this model")
    _expect(term.body, sig, env, (path, ".body"), _T)
    return _T


def _type_and(term: And, sig: Signature, env: frozenset[str], path: object) -> SemType:
    _expect(term.left, sig, env, (path, ".left"), _T)
    _expect(term.right, sig, env, (path, ".right"), _T)
    return _T


def _type_not(term: Not, sig: Signature, env: frozenset[str], path: object) -> SemType:
    _expect(term.body, sig, env, (path, ".body"), _T)
    return _T


def _type_eq(term: Eq, sig: Signature, env: frozenset[str], path: object) -> SemType:
    lt = _type_of(term.left, sig, env, (path, ".left"))
    _expect(term.right, sig, env, (path, ".right"), lt)
    return _T


_TYPES = {
    Const: _type_const,
    Var: _type_var,
    PredApp: _type_pred_app,
    FuncApp: _type_func_app,
    Lam: _type_lam,
    App: _type_app,
    Iota: _type_iota,
    Diamond: _type_diamond,
    And: _type_and,
    Not: _type_not,
    Eq: _type_eq,
}


# ---------------------------------------------------------------------------
# evaluation


def eval_int(
    term: Term, m: Model, g: Optional[Assignment] = None, s: Optional[Index] = None
) -> Value:
    """Evaluate at s, an index of the model's index space. With no s, evaluate
    at the one index of an extensional-mode model: the empty index of a
    frame-free model, or k0 of a fully collapsed one."""
    if s is None and not m.is_extensional:
        raise UnknownIndex("model has a nontrivial frame; an index is required")
    p = 0 if s is None else m.positions.get(s)
    if p is None:
        raise UnknownIndex(f"{s.render()} is not in the index space")
    g = g if g is not None else Assignment()
    env = _prepare(_type_error(term, m.signature, g), _env_of(g, m))
    return _eval(term, m, env, p)


def eval_all_indices(
    term: Term, m: Model, g: Optional[Assignment] = None
) -> dict[Index, Value]:
    """Evaluate at every index, keyed in canonical index order."""
    g = g if g is not None else Assignment()
    env = _prepare(_type_error(term, m.signature, g), _env_of(g, m))
    ps = list(range(len(m.positions)))
    try:
        values = _column_by_view(term, m, env, ps)
    except Exception:
        # the columns only tell that evaluation fails; the first index where
        # _eval fails names the error, and if none does, the routes disagree
        for p in ps:
            _eval(term, m, env, p)
        raise
    return dict(zip(m.positions, values))


def _env_of(g: Assignment, m: Model) -> dict[str, Value] | UnknownEntity:
    """The assignment as an environment over m's entity domain, or the error
    for an entity outside it, kept for _prepare to raise in its turn."""
    env: dict[str, Value] = {}
    for x, k in g.bindings:
        if k not in m.entity_domain:
            return UnknownEntity(f"assignment sends {x!r} to unknown entity {k!r}")
        env[x] = Entity(k)
    return env


def _type_error(term: Term, sig: Signature, g: Assignment) -> Optional[Exception]:
    """The error typechecking term under sig and g raises, or None. Any error
    is kept, for _prepare to raise unchanged."""
    try:
        typecheck(term, sig, (x for x, _ in g.bindings))
    except Exception as err:
        return err
    return None


def _prepare(
    type_error: Optional[Exception], env: dict[str, Value] | UnknownEntity
) -> dict[str, Value]:
    """The steps every evaluator takes before its clauses (a Model is valid by
    construction): the term's typecheck error, then the environment's error.
    An environment error may be shared by many checks, so each raise starts a
    fresh traceback."""
    if type_error is not None:
        raise type_error
    if isinstance(env, UnknownEntity):
        raise env.with_traceback(None)
    return env


def _nest_tuple(values: Sequence[Value]) -> Value:
    if len(values) == 2:
        return TupleV((values[0], values[1]))
    return TupleV((values[0], _nest_tuple(values[1:])))


TRUE, FALSE = Truth(1), Truth(0)


def _eval(term: Term, m: Model, env: dict[str, Value], p: int) -> Value:
    clause = _CLAUSES.get(type(term))
    if clause is None:
        raise ValueError(f"unknown term {term!r}")
    return clause(term, m, env, p)


# Clauses evaluate at index position p of a valid model and index _CLAUSES
# directly: a term reaching a clause has typechecked, so each subterm has one.


def _eval_const(term: Const, m: Model, env: dict[str, Value], p: int) -> Value:
    return m.columns[term.name][p]


def _eval_var(term: Var, m: Model, env: dict[str, Value], p: int) -> Value:
    return env[term.name]


def _eval_pred_app(term: PredApp, m: Model, env: dict[str, Value], p: int) -> Value:
    table = m.columns[term.pred][p]
    assert isinstance(table, SetV)
    got = tuple([_CLAUSES[type(a)](a, m, env, p) for a in term.args])
    return TRUE if got in table.item_tuples else FALSE


def _eval_func_app(term: FuncApp, m: Model, env: dict[str, Value], p: int) -> Value:
    f = m.columns[term.fn][p]
    assert isinstance(f, FnV)
    vals = [_CLAUSES[type(a)](a, m, env, p) for a in term.args]
    return f.apply(vals[0] if len(vals) == 1 else _nest_tuple(vals))


def _rows(term: Lam | Iota, m: Model, env: dict[str, Value], p: int) -> list[Value]:
    """The body's value at p for each entity, the bound variable's domain, in
    order. Only a lam's domain is bounded, as it becomes a function value."""
    entities = m.entities
    if type(term) is Lam and len(entities) > MAX_DOMAIN_SIZE:
        raise DomainTooLarge(f"{render_type(term.var_type)} exceeds {MAX_DOMAIN_SIZE} values")
    body, var = term.body, term.var
    clause = _CLAUSES[type(body)]
    inner = dict(env)
    values = []
    for dv in entities:
        inner[var] = dv
        values.append(clause(body, m, inner, p))
    return values


def _eval_lam(term: Lam, m: Model, env: dict[str, Value], p: int) -> Value:
    entities, values = m.entities, _rows(term, m, env, p)
    return FnV._shared(tuple([(entities[i], values[i]) for i in m.entity_key_order]))  # in key order


def _eval_app(term: App, m: Model, env: dict[str, Value], p: int) -> Value:
    if type(term.func) is Lam:  # a beta-redex: the argument's row, and no FnV
        values = _rows(term.func, m, env, p)
        av = _CLAUSES[type(term.arg)](term.arg, m, env, p)
        try:
            return values[m.entities.index(av)]
        except ValueError:
            raise KeyError(av) from None
    fv = _CLAUSES[type(term.func)](term.func, m, env, p)
    av = _CLAUSES[type(term.arg)](term.arg, m, env, p)
    assert isinstance(fv, FnV)
    return fv.apply(av)


def _witness(term: Iota, m: Model, row: Sequence[Value]) -> Value:
    """The one entity whose body value in row, one per entity, is true."""
    hits = [k for k, v in zip(m.entities, row) if v.flag]
    if len(hits) != 1:
        raise PresuppositionFailure(
            f"iota over {term.var!r} needs exactly one witness, found {len(hits)}"
        )
    return hits[0]


def _eval_iota(term: Iota, m: Model, env: dict[str, Value], p: int) -> Value:
    return _witness(term, m, _rows(term, m, env, p))


def _eval_diamond(term: Diamond, m: Model, env: dict[str, Value], p: int) -> Value:
    label, body = term.label, term.body
    clause = _CLAUSES[type(body)]
    flags = [clause(body, m, env, t).flag for t in m.successor_positions[label][p]]
    return TRUE if any(flags) else FALSE


def _eval_and(term: And, m: Model, env: dict[str, Value], p: int) -> Value:
    lv = _CLAUSES[type(term.left)](term.left, m, env, p)
    rv = _CLAUSES[type(term.right)](term.right, m, env, p)
    return TRUE if lv.flag and rv.flag else FALSE


def _eval_not(term: Not, m: Model, env: dict[str, Value], p: int) -> Value:
    return FALSE if _CLAUSES[type(term.body)](term.body, m, env, p).flag else TRUE


def _eval_eq(term: Eq, m: Model, env: dict[str, Value], p: int) -> Value:
    lv = _CLAUSES[type(term.left)](term.left, m, env, p)
    rv = _CLAUSES[type(term.right)](term.right, m, env, p)
    return TRUE if lv == rv else FALSE


_CLAUSES = {
    Const: _eval_const,
    Var: _eval_var,
    PredApp: _eval_pred_app,
    FuncApp: _eval_func_app,
    Lam: _eval_lam,
    App: _eval_app,
    Iota: _eval_iota,
    Diamond: _eval_diamond,
    And: _eval_and,
    Not: _eval_not,
    Eq: _eval_eq,
}


# _COLUMNS holds one column clause per term class. A clause evaluates a
# typechecked term of a valid model at a list ps of index positions at once
# and returns its values in the order of ps. It evaluates each subterm at the
# positions and bindings where _eval does, so it raises exactly when _eval
# fails at some position of ps; which error that is, only _CLAUSES says, and
# eval_all_indices asks them.


def _column_const(term: Const, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    col = m.columns[term.name]
    return [col[p] for p in ps]


def _column_var(term: Var, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    return [env[term.name]] * len(ps)


def _column_pred_app(term: PredApp, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    col = m.columns[term.pred]
    cols = [_COLUMNS[type(a)](a, m, env, ps) for a in term.args]
    return [TRUE if got in col[p].item_tuples else FALSE for p, got in zip(ps, zip(*cols))]


def _column_func_app(term: FuncApp, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    col = m.columns[term.fn]
    cols = [_COLUMNS[type(a)](a, m, env, ps) for a in term.args]
    args = cols[0] if len(cols) == 1 else map(_nest_tuple, zip(*cols))
    return [col[p].apply(a) for p, a in zip(ps, args)]


def _per_entity(term: Lam | Iota, m: Model, env: dict[str, Value], ps: list[int]) -> list[tuple]:
    """The body's values at each position of ps, one per entity in domain
    order. The bound variable does not vary by position, so the body runs once
    per entity, under one environment each."""
    body, var = term.body, term.var
    clause = _COLUMNS[type(body)]
    cols = []
    for k in m.entities:
        cols.append(clause(body, m, {**env, var: k}, ps))
    return list(zip(*cols))


def _column_lam(term: Lam, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    entities, order = m.entities, m.entity_key_order
    if len(entities) > MAX_DOMAIN_SIZE and ps:  # where no position is asked for, nothing fails
        raise DomainTooLarge(f"{render_type(term.var_type)} exceeds {MAX_DOMAIN_SIZE} values")
    keys = [entities[i] for i in order]
    rows = _per_entity(term, m, env, ps)
    return [FnV._shared(tuple(zip(keys, [row[i] for i in order]))) for row in rows]  # in key order


def _column_app(term: App, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    fns = _COLUMNS[type(term.func)](term.func, m, env, ps)
    args = _COLUMNS[type(term.arg)](term.arg, m, env, ps)
    return [f.apply(a) for f, a in zip(fns, args)]


def _column_iota(term: Iota, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    return [_witness(term, m, row) for row in _per_entity(term, m, env, ps)]


def _column_diamond(term: Diamond, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    """A preimage: the body runs once over the distinct successors of ps."""
    rows = list(map(m.successor_positions[term.label].__getitem__, ps))
    targets = list(dict.fromkeys(chain.from_iterable(rows)))
    values = _column_by_view(term.body, m, env, targets)
    true = {t for t, v in zip(targets, values) if v.flag}
    return [FALSE if true.isdisjoint(row) else TRUE for row in rows]


def _column_and(term: And, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    left = _COLUMNS[type(term.left)](term.left, m, env, ps)
    right = _COLUMNS[type(term.right)](term.right, m, env, ps)
    return [TRUE if l.flag and r.flag else FALSE for l, r in zip(left, right)]


def _column_not(term: Not, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    return [FALSE if v.flag else TRUE for v in _COLUMNS[type(term.body)](term.body, m, env, ps)]


def _column_eq(term: Eq, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    left = _COLUMNS[type(term.left)](term.left, m, env, ps)
    right = _COLUMNS[type(term.right)](term.right, m, env, ps)
    return [TRUE if l == r else FALSE for l, r in zip(left, right)]


def _support(term: Term) -> Optional[frozenset[str]]:
    """The names of the constants a term reads, or None if it has a Diamond."""
    match term:
        case Diamond():
            return None
        case Const(name) | PredApp(name, _) | FuncApp(name, _):
            own = frozenset((name,))
        case _:
            own = frozenset()
    parts = list(map(_support, _children(term)))
    return None if None in parts else own.union(*parts)


def _column_by_view(term: Term, m: Model, env: dict[str, Value], ps: list[int]) -> list[Value]:
    """The column clause of term, run once per view class of ps when term is
    Diamond-free: one position stands for the positions whose support columns
    hold the same objects, and its value is broadcast back to them."""
    clause = _COLUMNS[type(term)]
    names = _support(term)
    if names is None:
        return clause(term, m, env, ps)
    views = [map(m.columns[n].__getitem__, ps) for n in names]
    keys = list(zip(*views)) if views else [()] * len(ps)
    reps = dict(zip(keys, ps))
    if len(reps) == len(ps):
        return clause(term, m, env, ps)
    value = dict(zip(reps, clause(term, m, env, list(reps.values()))))
    return list(map(value.__getitem__, keys))


_COLUMNS = {
    Const: _column_const,
    Var: _column_var,
    PredApp: _column_pred_app,
    FuncApp: _column_func_app,
    Lam: _column_lam,
    App: _column_app,
    Iota: _column_iota,
    Diamond: _column_diamond,
    And: _column_and,
    Not: _column_not,
    Eq: _column_eq,
}


# ---------------------------------------------------------------------------
# surface syntax


def render_term(term: Term) -> str:
    render = _RENDER.get(type(term))
    if render is None:
        raise ValueError(f"unrenderable term {term!r}")
    return render(term)


_RENDER = {
    Const: lambda t: t.name,
    Var: lambda t: t.name,
    PredApp: lambda t: " ".join(["(pred", t.pred, *map(render_term, t.args)]) + ")",
    FuncApp: lambda t: " ".join(["(func", t.fn, *map(render_term, t.args)]) + ")",
    Lam: lambda t: f"(lam {t.var} {render_type(t.var_type)} {render_term(t.body)})",
    App: lambda t: f"(app {render_term(t.func)} {render_term(t.arg)})",
    Iota: lambda t: f"(iota {t.var} {render_term(t.body)})",
    Diamond: lambda t: f"(might {t.label} {render_term(t.body)})",
    And: lambda t: f"(and {render_term(t.left)} {render_term(t.right)})",
    Not: lambda t: f"(not {render_term(t.body)})",
    Eq: lambda t: f"(eq {render_term(t.left)} {render_term(t.right)})",
}


# The recursive parser, typechecker, per-index evaluator, column clauses and
# renderer take at most two stack frames per level (a clause, and the loop or
# comprehension over an argument list), well within the default recursion
# limit of 1000.
MAX_TERM_DEPTH = 256


def parse_term(text: str, constant_names: frozenset[str] = frozenset()) -> Term:
    """Parse the s-expression term syntax.

    A bare name is a Var when bound by an enclosing lam/iota or when it is
    not a declared constant; declared constant names parse as Const. Nesting
    deeper than MAX_TERM_DEPTH forms raises ValueError.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    _refuse_nesting(tokens, MAX_TERM_DEPTH, "term")
    term, rest = _term_at(tokens, 0, constant_names, frozenset())
    if rest != len(tokens):
        raise ValueError(f"trailing input after term in {text!r}")
    return term


def _tok(tokens: list[str], i: int) -> str:
    if i >= len(tokens):
        raise ValueError("unexpected end of term")
    return tokens[i]


def _term_at(
    tokens: list[str], i: int, constants: frozenset[str], bound: frozenset[str]
) -> tuple[Term, int]:
    tok = _tok(tokens, i)
    if tok == ")":
        raise ValueError("unexpected ')'")
    if tok != "(":
        return _name_term(tok, constants, bound), i + 1
    head = _tok(tokens, i + 1)
    i += 2
    match head:
        case "pred" | "func":
            name = _tok(tokens, i)
            i += 1
            args = []
            while _tok(tokens, i) != ")":
                arg, i = _term_at(tokens, i, constants, bound)
                args.append(arg)
            ctor = PredApp if head == "pred" else FuncApp
            return ctor(name, tuple(args)), i + 1
        case "lam":
            var = _tok(tokens, i)
            tyname, i = _type_text(tokens, i + 1)
            body, i = _term_at(tokens, i, constants, bound | {var})
            return Lam(var, parse_type(tyname), body), _close(tokens, i)
        case "iota":
            var = _tok(tokens, i)
            body, i = _term_at(tokens, i + 1, constants, bound | {var})
            return Iota(var, body), _close(tokens, i)
        case "might":
            label = _tok(tokens, i)
            body, i = _term_at(tokens, i + 1, constants, bound)
            return Diamond(label, body), _close(tokens, i)
        case "app" | "and" | "eq":
            left, i = _term_at(tokens, i, constants, bound)
            right, i = _term_at(tokens, i, constants, bound)
            ctor = App if head == "app" else And if head == "and" else Eq
            return ctor(left, right), _close(tokens, i)
        case "not":
            body, i = _term_at(tokens, i, constants, bound)
            return Not(body), _close(tokens, i)
        case _:
            raise ValueError(f"unknown term form {head!r}")


def _type_text(tokens: list[str], i: int) -> tuple[str, int]:
    """A lam's type at tokens[i]: a ground type name, or a constructor name and
    the balanced parenthesized group after it, as in set(e) or fn(e,t)."""
    name, i = _tok(tokens, i), i + 1
    if name in ("e", "t") or i == len(tokens) or tokens[i] != "(":
        return name, i
    depth, start = 0, i
    while True:
        tok = _tok(tokens, i)
        depth += 1 if tok == "(" else -1 if tok == ")" else 0
        i += 1
        if depth == 0:
            return name + "".join(tokens[start:i]), i


def _close(tokens: list[str], i: int) -> int:
    if i >= len(tokens) or tokens[i] != ")":
        raise ValueError("expected ')'")
    return i + 1


def _name_term(name: str, constants: frozenset[str], bound: frozenset[str]) -> Term:
    if name in bound:
        return Var(name)
    if name in constants:
        return Const(name)
    return Var(name)
