"""Typed interpretation models over finite entity and index domains.

A model fixes one entity carrier, an ordered family of labelled frames, and
an interpretation table per constant, kept as given. validate is the one rule
that a table is a total map from the index space (the product of the frame
domains) to values of the constant's type, and it returns each such map as a
column. A Model runs it as it is built, which raises InvalidModel with the
report of a table that breaks the rule, so every Model is valid, and typing
reads only its Signature. Everything is finite and enumerable, so validation
and evaluation are exhaustive rather than symbolic.

Every type, value and Index is hash-consed (see Shared): one object per
structure, which compares and hashes by identity, so each set value builds its
item lookup once. The intern table is weak, so it holds no more than the
values alive, however many models come and go. A Model keeps the columns
that validate returns, each constant's values in position order, and builds
its other lookup tables once, on first use; all of them lie outside its
dataclass fields, so equality and hashing of a model stay structural.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .kripke import Frame
from .relalg import FinSet, FinsemError


class UnknownEntity(FinsemError):
    pass


class UnknownIndex(FinsemError):
    pass


class UnknownFrame(FinsemError):
    pass


class DomainTooLarge(FinsemError):
    pass


class UngroundedType(FinsemError):
    pass


MAX_DOMAIN_SIZE = 10**6


class Shared:
    """Base of the hash-consed classes (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006): a subclass's __new__ normalizes its fields for _shared."""

    __slots__ = ("__weakref__",)
    # object's: the fields are compared once, as a key of _SHARED, and __new__ sets them
    __eq__, __hash__, __init__ = object.__eq__, object.__hash__, object.__init__

    @classmethod
    def _shared(cls, *fields):
        """The live instance with these fields, in __match_args__ order (not thread-safe)."""
        key = (cls, *fields)
        ref = _SHARED.get(key)
        if ref is None or (obj := ref()) is None:
            obj = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(obj, name, value)
            _SHARED[key] = weakref.KeyedRef(obj, _forget, key)
        return obj

    def __reduce__(self) -> tuple:
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


def _forget(ref: weakref.KeyedRef) -> None:
    if _SHARED.get(ref.key) is ref:  # not yet taken by a new instance
        del _SHARED[ref.key]


_SHARED: dict[tuple, weakref.KeyedRef] = {}  # weak: an instance's entry goes when it dies
# eq=False and init=False keep Shared's identity comparison and do-nothing __init__
_shared_class = dataclass(frozen=True, eq=False, init=False, slots=True)


# ---------------------------------------------------------------------------
# types


class SemType(Shared):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SemType:
        """The shared instance with these fields, given by position or keyword."""
        names = cls.__match_args__
        fields = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or fields.keys() != set(names):
            raise TypeError(f"{cls.__name__} takes the fields {names}, got {args!r} and {kwargs!r}")
        return cls._shared(*map(fields.__getitem__, names))


@_shared_class
class EntType(SemType):
    pass


@_shared_class
class TruthType(SemType):
    pass


ENT_TYPE, TRUTH_TYPE = EntType(), TruthType()


@_shared_class
class IdxType(SemType):
    label: str


@_shared_class
class PairType(SemType):
    first: SemType
    second: SemType


@_shared_class
class SetType(SemType):
    member: SemType


@_shared_class
class RelType(SemType):
    components: tuple[SemType, ...]

    def __new__(cls, components: Iterable[SemType]) -> RelType:
        components = tuple(components)
        if not components:
            raise ValueError("relation type needs at least one component")
        return cls._shared(components)


@_shared_class
class FnType(SemType):
    domain: SemType
    codomain: SemType


def fn_type(arg_types: Iterable[SemType], result: SemType) -> FnType:
    """Function type over an argument list; multiple arguments nest as pairs."""
    args = list(arg_types)
    if not args:
        raise ValueError("function type needs at least one argument")
    return FnType(_nest_pairs(args), result)


def _nest_pairs(types: list[SemType]) -> SemType:
    if len(types) == 1:
        return types[0]
    return PairType(types[0], _nest_pairs(types[1:]))


def _flatten_pairs(t: SemType) -> list[SemType]:
    if isinstance(t, PairType):
        return [t.first] + _flatten_pairs(t.second)
    return [t]


def arg_types(fn: FnType, arity: int) -> list[SemType]:
    """Split a function domain into an argument list of the requested arity."""
    if arity == 1:
        return [fn.domain]
    flat = _flatten_pairs(fn.domain)
    if len(flat) != arity:
        raise ValueError(f"function domain has {len(flat)} components, not {arity}")
    return flat


def fn_arity(fn: FnType) -> int:
    """Argument count of a function type, reading nested pairs as a list."""
    return len(_flatten_pairs(fn.domain))


def frame_labels(t: SemType) -> Iterator[str]:
    """The label of every s(L) in t."""
    match t:
        case IdxType(label):
            yield label
        case PairType(a, b) | FnType(a, b):
            yield from frame_labels(a)
            yield from frame_labels(b)
        case SetType(member):
            yield from frame_labels(member)
        case RelType(components):
            for c in components:
                yield from frame_labels(c)


def render_type(t: SemType) -> str:
    match t:
        case EntType():
            return "e"
        case TruthType():
            return "t"
        case IdxType(label):
            return f"s({label})"
        case PairType(a, b):
            return f"pair({render_type(a)},{render_type(b)})"
        case SetType(member):
            return f"set({render_type(member)})"
        case RelType(components):
            return "rel(" + ",".join(render_type(c) for c in components) + ")"
        case FnType(domain, codomain):
            parts = [render_type(c) for c in _flatten_pairs(domain)]
            return "fn(" + ",".join(parts + [render_type(codomain)]) + ")"
    raise ValueError(f"unrenderable type {t!r}")


# The recursive type parser, renderer, enumerators and value checks take at
# most two stack frames per level, well within the default recursion limit.
MAX_TYPE_DEPTH = 64


def parse_type(text: str) -> SemType:
    """Parse the textual type syntax: e, t, s(W), pair(,), set(), rel(,...), fn(,...,).

    Nesting deeper than MAX_TYPE_DEPTH constructors raises ValueError.
    """
    compact = text.replace(" ", "")
    _refuse_nesting(compact, MAX_TYPE_DEPTH, "type")
    ty, pos = _type_at(compact, 0)
    if pos != len(compact):
        raise ValueError(f"trailing input after type in {text!r}")
    return ty


def _refuse_nesting(tokens: Iterable[str], limit: int, what: str) -> None:
    """Raise ValueError when the parentheses among tokens nest deeper than limit."""
    depth = 0
    for tok in tokens:
        depth += 1 if tok == "(" else -1 if tok == ")" else 0
        if depth > limit:
            raise ValueError(f"{what} nested deeper than {limit} levels")


def _type_at(s: str, i: int) -> tuple[SemType, int]:
    start = i
    while i < len(s) and (s[i].isalnum() or s[i] == "_"):
        i += 1
    name = s[start:i]
    if not name:
        raise ValueError(f"expected a type at position {start} in {s!r}")
    if i == len(s) or s[i] != "(":
        return _ground_type(name), i
    i += 1
    if name == "s":
        # argument is a frame label, not a nested type
        j = i
        while j < len(s) and s[j] not in ",)":
            j += 1
        if j == len(s) or s[j] != ")":
            raise ValueError(f"unterminated s(...) in {s!r}")
        return IdxType(s[i:j]), j + 1
    args: list[SemType] = []
    while True:
        arg, i = _type_at(s, i)
        args.append(arg)
        if i < len(s) and s[i] == ",":
            i += 1
            continue
        if i < len(s) and s[i] == ")":
            i += 1
            break
        raise ValueError(f"unterminated {name}(...) in {s!r}")
    return _compound_type(name, args), i


def _ground_type(name: str) -> SemType:
    if name == "e":
        return ENT_TYPE
    if name == "t":
        return TRUTH_TYPE
    raise ValueError(f"unknown ground type {name!r}")


def _compound_type(name: str, args: list[SemType]) -> SemType:
    if name == "pair" and len(args) == 2:
        return PairType(args[0], args[1])
    if name == "set" and len(args) == 1:
        return SetType(args[0])
    if name == "rel" and args:
        return RelType(tuple(args))
    if name == "fn" and len(args) >= 2:
        return fn_type(args[:-1], args[-1])
    raise ValueError(f"bad type constructor {name!r} with {len(args)} arguments")


# ---------------------------------------------------------------------------
# values


class Value(Shared):
    __slots__ = ()


@_shared_class
class Entity(Value):
    ident: str

    def __new__(cls, ident: str) -> Entity:
        return cls._shared(ident)


@_shared_class
class Truth(Value):
    flag: int

    def __new__(cls, flag: int) -> Truth:
        if type(flag) is not int or flag not in (0, 1):
            raise ValueError(f"truth value must be 0 or 1, got {flag!r}")
        return cls._shared(flag)


@_shared_class
class IndexElem(Value):
    label: str
    ident: str

    def __new__(cls, label: str, ident: str) -> IndexElem:
        return cls._shared(label, ident)


@_shared_class
class TupleV(Value):
    items: tuple[Value, ...]

    def __new__(cls, items: Iterable[Value]) -> TupleV:
        return cls._shared(tuple(items))


@_shared_class
class SetV(Value):
    members: frozenset[Value]
    # the items of the TupleV members, filled on first use: `items in
    # s.item_tuples` exactly when `TupleV(items) in s.members`
    item_tuples: frozenset[tuple[Value, ...]] = field(init=False, repr=False)

    def __new__(cls, members: Iterable[Value]) -> SetV:
        return cls._shared(frozenset(members))

    def __getattr__(self, name: str) -> frozenset[tuple[Value, ...]]:
        if name != "item_tuples":  # reached only while a slot is empty
            raise AttributeError(name)
        object.__setattr__(self, name, frozenset(w.items for w in self.members if isinstance(w, TupleV)))
        return self.item_tuples


@_shared_class
class FnV(Value):
    """Total finite map, entries kept sorted by a structural key."""

    entries: tuple[tuple[Value, Value], ...]

    def __new__(cls, entries: Iterable[tuple[Value, Value]]) -> FnV:
        ordered = tuple(sorted(map(tuple, entries), key=lambda e: value_key(e[0])))
        if len({k for k, _ in ordered}) != len(ordered):
            raise ValueError("duplicate keys in function value")
        return cls._shared(ordered)

    def apply(self, arg: Value) -> Value:
        for k, v in self.entries:
            if k is arg:
                return v
        raise KeyError(arg)


def value_key(v: Value) -> tuple:
    """Deterministic structural sort key, usable without model context."""
    match v:
        case Entity(ident):
            return ("e", ident)
        case Truth(flag):
            return ("t", flag)
        case IndexElem(label, ident):
            return ("s", label, ident)
        case TupleV(items):
            return ("tup", tuple(value_key(i) for i in items))
        case SetV(members):
            return ("set", tuple(sorted(value_key(m) for m in members)))
        case FnV(entries):
            return ("fn", tuple((value_key(k), value_key(w)) for k, w in entries))
    raise ValueError(f"unorderable value {v!r}")


# ---------------------------------------------------------------------------
# indices and assignments


@_shared_class
class Index(Shared):
    """One point of the index space: (frame label, element) per frame, in order."""

    components: tuple[tuple[str, str], ...]

    def __new__(cls, components: Iterable[tuple[str, str]]) -> Index:
        return cls._shared(tuple(map(tuple, components)))

    def component(self, label: str) -> str:
        for l, e in self.components:
            if l == label:
                return e
        raise UnknownFrame(f"index has no component for frame {label!r}")

    def replace(self, label: str, element: str) -> "Index":
        if all(l != label for l, _ in self.components):
            raise UnknownFrame(f"index has no component for frame {label!r}")
        return Index((l, element if l == label else e) for l, e in self.components)

    def render(self) -> str:
        if not self.components:
            return "()"
        return ",".join(e for _, e in self.components)


EMPTY_INDEX = Index(())


@dataclass(frozen=True)
class Assignment:
    """Partial map from variable names to entity ids."""

    bindings: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        bindings = tuple(map(tuple, self.bindings))
        seen: set[str] = set()
        for x, _ in bindings:
            if x in seen:
                raise FinsemError(f"variable {x!r} is assigned more than once")
            seen.add(x)
        object.__setattr__(self, "bindings", tuple(sorted(bindings)))


# ---------------------------------------------------------------------------
# constants and models


@dataclass(frozen=True)
class Constant:
    name: str
    semtype: SemType
    table: tuple[tuple[Index, Value], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))

    @cached_property
    def _rows(self) -> dict[Index, Value]:
        return dict(reversed(self.table))  # the first row for an index wins

    def value_at(self, s: Index) -> Value:
        v = self._rows.get(s)
        if v is None:
            raise UnknownIndex(f"constant {self.name!r} has no entry at {s.render()}")
        return v


@dataclass(frozen=True)
class Violation:
    """One well-formedness defect, reported as data."""

    kind: str
    constant: str
    detail: str


class InvalidModel(FinsemError):
    """Tables that validate refuses, with its report as violations."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        first = self.violations[0]
        super().__init__(
            f"model fails validation ({len(self.violations)} violations; first: "
            f"{first.kind} {first.constant} {first.detail})"
        )


@dataclass(frozen=True)
class Signature:
    """What typing reads of a model: each constant's type by name, and the frame labels."""

    types: Mapping[str, SemType]
    labels: frozenset[str]


@dataclass(frozen=True)
class Model:
    entity_domain: FinSet
    frames: tuple[Frame, ...]
    constants: tuple[Constant, ...]
    designated: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))
        labels = [f.label for f in self.frames]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate frame labels")
        if len({l for l, _ in self.designated}) != len(self.designated):
            raise ValueError("more than one designated element for a frame")
        names = [c.name for c in self.constants]
        if len(set(names)) != len(names):
            raise ValueError("duplicate constant names")
        for l, e in self.designated:
            fr = self.frame(l)
            if fr is None:
                raise ValueError(f"designated element for unknown frame {l!r}")
            if e not in fr.domain:
                raise ValueError(f"designated element {e!r} not in frame {l!r}")
        object.__setattr__(self, "constants", tuple(sorted(self.constants, key=lambda c: c.name)))
        object.__setattr__(
            self, "designated", tuple(sorted(tuple(d) for d in self.designated))
        )
        # each constant's values in position order; outside the dataclass
        # fields, so equality and hashing of a model stay structural
        object.__setattr__(self, "columns", validate(self))

    @cached_property
    def positions(self) -> dict[Index, int]:
        """Each index to its canonical position, its place in index_space."""
        return {s: i for i, s in enumerate(index_space(self.frames))}

    @cached_property
    def entities(self) -> tuple[Entity, ...]:
        """The entity domain as values, in domain order."""
        return tuple(Entity(e) for e in self.entity_domain.elements)

    @cached_property
    def entity_key_order(self) -> tuple[int, ...]:
        """Entity positions in value_key order, the row order of a function value."""
        return tuple(sorted(range(len(self.entities)), key=lambda i: value_key(self.entities[i])))

    @cached_property
    def successor_positions(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Each frame's label to a table: for each index position, the
        positions of that index's label successors, in Frame.successors order."""
        tables, stride = {}, 1
        # positions are mixed-radix numbers, the last frame varying fastest
        for fr in reversed(self.frames):
            size = len(fr.domain)
            steps = [
                [(fr.domain.position(v) - here) * stride for v in fr.successors(u)]
                for here, u in enumerate(fr.domain.elements)
            ]
            tables[fr.label] = tuple(
                [tuple([p + d for d in steps[p // stride % size]]) for p in range(len(self.positions))]
            )
            stride *= size
        return tables

    @cached_property
    def signature(self) -> Signature:
        return Signature({c.name: c.semtype for c in self.constants}, frozenset(self._frames_by_label))

    @cached_property
    def _frames_by_label(self) -> dict[str, Frame]:
        return {f.label: f for f in self.frames}

    def frame(self, label: str) -> Optional[Frame]:
        return self._frames_by_label.get(label)

    @property
    def is_extensional(self) -> bool:
        """Frame-free, or every frame already collapsed to a point."""
        return all(f.trivial for f in self.frames)

    def designated_for(self, label: str) -> str:
        """Chosen collapse element for a frame: explicit entry or first listed."""
        fr = self.frame(label)
        if fr is None:
            raise UnknownFrame(f"model has no frame {label!r}")
        for l, e in self.designated:
            if l == label:
                return e
        return fr.domain.elements[0]


def index_space(frames: Iterable[Frame]) -> list[Index]:
    """Every index over frames, which vary lexicographically, the last one
    fastest; [Index(())] when there are none."""
    axes = [[(f.label, e) for e in f.domain.elements] for f in frames]
    return [Index(combo) for combo in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# enumeration


def _card(m: Model, t: SemType) -> int:
    """Size of the domain of t, refusing early when any layer exceeds MAX_DOMAIN_SIZE."""
    match t:
        case EntType():
            n = len(m.entity_domain)
        case TruthType():
            n = 2
        case IdxType(label):
            fr = m.frame(label)
            if fr is None:
                raise UngroundedType(f"no frame {label!r} in this model")
            n = len(fr.domain)
        case PairType(a, b):
            n = _card(m, a) * _card(m, b)
        case SetType(member):
            n = 2 ** _card(m, member)
        case RelType(components):
            base = 1
            for c in components:
                base *= _card(m, c)
                if base > MAX_DOMAIN_SIZE:
                    raise DomainTooLarge(f"{render_type(t)} exceeds {MAX_DOMAIN_SIZE} values")
            n = 2**base
        case FnType(domain, codomain):
            base, exponent = _card(m, codomain), _card(m, domain)
            # then base ** exponent >= 2 ** bit_length > MAX_DOMAIN_SIZE: skip the power
            if base >= 2 and exponent >= MAX_DOMAIN_SIZE.bit_length():
                raise DomainTooLarge(f"{render_type(t)} exceeds {MAX_DOMAIN_SIZE} values")
            n = base**exponent
        case _:
            raise ValueError(f"unknown type {t!r}")
    if n > MAX_DOMAIN_SIZE:
        raise DomainTooLarge(f"{render_type(t)} exceeds {MAX_DOMAIN_SIZE} values")
    return n


def type_domain(m: Model, t: SemType) -> list[Value]:
    """Canonical enumeration of every value of type t in the model."""
    _card(m, t)
    return _enumerate(m, t)


def _subsets(base: list[Value]) -> list[Value]:
    # bitmask order: bit i is base[i], masks ascending
    return [SetV(x for i, x in enumerate(base) if mask >> i & 1) for mask in range(1 << len(base))]


def _enumerate(m: Model, t: SemType) -> list[Value]:
    match t:
        case EntType():
            return [Entity(e) for e in m.entity_domain.elements]
        case TruthType():
            return [Truth(0), Truth(1)]
        case IdxType(label):
            return [IndexElem(label, k) for k in m.frame(label).domain.elements]
        case PairType(a, b):
            return [TupleV((x, y)) for x in _enumerate(m, a) for y in _enumerate(m, b)]
        case SetType(member):
            return _subsets(_enumerate(m, member))
        case RelType(components):
            columns = [_enumerate(m, c) for c in components]
            base: list[Value] = [TupleV(combo) for combo in itertools.product(*columns)]
            return _subsets(base)
        case FnType(domain, codomain):
            keys = _enumerate(m, domain)
            vals = _enumerate(m, codomain)
            return [FnV(zip(keys, choice)) for choice in itertools.product(vals, repeat=len(keys))]
    raise ValueError(f"unknown type {t!r}")


# ---------------------------------------------------------------------------
# validation


def _checker(m: Model, t: SemType) -> Callable[[Value], bool]:
    """The membership test of type t in m, built once per type. A missing
    frame or an oversized function domain raises when a value is checked, not
    here, so validate reports each such row; a function's keys are built once."""
    match t:
        case EntType():
            ids = frozenset(m.entity_domain.elements)
            return lambda v: isinstance(v, Entity) and v.ident in ids
        case TruthType():
            return lambda v: isinstance(v, Truth)
        case IdxType(label):
            fr = m.frame(label)

            def index_elem(v: Value) -> bool:
                if isinstance(v, IndexElem) and fr is None:
                    raise UngroundedType(f"no frame {label!r} in this model")
                return isinstance(v, IndexElem) and v.label == label and v.ident in fr.domain

            return index_elem
        case PairType(a, b):
            first, second = _checker(m, a), _checker(m, b)
            return lambda v: (
                isinstance(v, TupleV) and len(v.items) == 2 and first(v.items[0]) and second(v.items[1])
            )
        case SetType(member):
            each = _checker(m, member)
            return lambda v: isinstance(v, SetV) and all(map(each, v.members))
        case RelType(components):
            checks, inhabiting = tuple(_checker(m, c) for c in components), set()

            def row(w: Value) -> bool:
                if w in inhabiting:  # a row shared by many sets is checked once
                    return True
                if not isinstance(w, TupleV) or len(w.items) != len(checks):
                    return False
                for check, x in zip(checks, w.items):
                    if not check(x):
                        return False
                inhabiting.add(w)
                return True

            return lambda v: isinstance(v, SetV) and all(map(row, v.members))
        case FnType(domain, codomain):
            value_ok, keys = _checker(m, codomain), []

            def fn(v: Value) -> bool:
                # _card raises where type_domain would; a wrong size needs no keys
                if not isinstance(v, FnV) or len(v.entries) != _card(m, domain):
                    return False
                if not keys:
                    keys.append(set(type_domain(m, domain)))
                return {k for k, _ in v.entries} == keys[0] and all(
                    value_ok(w) for _, w in v.entries
                )

            return fn
    return lambda v: False


def validate(m: Model) -> dict[str, tuple[Value, ...]]:
    """Each constant's column, its values in position order, read in one walk
    of its table. When a table is not a total map from the index space to
    values of its type, raise InvalidModel with every violation: per constant,
    its rows' in row order, then its missing indices in position order."""
    out: list[Violation] = []
    if len(m.entity_domain) == 0:
        out.append(Violation("EmptyEntityDomain", "", "entity domain is empty"))
    columns = {}
    for c in m.constants:
        # one verdict per distinct value, replayed at every row that holds it:
        # the check's result, or the UngroundedType or DomainTooLarge it raised
        check, verdicts = _checker(m, c.semtype), {}
        column, stray = [None] * len(m.positions), set()
        for idx, v in c.table:
            p = m.positions.get(idx)
            if p is None and idx not in stray:
                stray.add(idx)
                out.append(Violation("UnexpectedIndexEntry", c.name, f"index {idx.render()}"))
                continue
            if p is None or column[p] is not None:
                out.append(Violation("DuplicateIndexEntry", c.name, f"index {idx.render()}"))
                continue
            column[p] = v
            if (verdict := verdicts.get(v)) is None:
                try:
                    verdict = check(v)
                except (UngroundedType, DomainTooLarge) as err:
                    verdict = err
                verdicts[v] = verdict
            if isinstance(verdict, FinsemError):
                out.append(Violation(type(verdict).__name__, c.name, str(verdict)))
            elif not verdict:
                detail = f"index {idx.render()}: value does not inhabit {render_type(c.semtype)}"
                out.append(Violation("IllTypedValue", c.name, detail))
        for idx, v in zip(m.positions, column):
            if v is None:
                out.append(Violation("MissingIndexEntry", c.name, f"index {idx.render()}"))
        columns[c.name] = tuple(column)
    if out:
        raise InvalidModel(out)
    return columns


# ---------------------------------------------------------------------------
# rendering


def render_value(v: Value, m: Model) -> str:
    """Deterministic text form; set members sort by m's entity-domain
    position, structurally where that does not decide."""

    def sort_key(w: Value) -> tuple:
        if isinstance(w, Entity) and w.ident in m.entity_domain:
            return ("e", m.entity_domain.position(w.ident))
        if isinstance(w, TupleV):
            return ("tup", tuple(sort_key(i) for i in w.items))
        return value_key(w)

    match v:
        case Entity(ident):
            return ident
        case Truth(flag):
            return str(flag)
        case IndexElem(label, ident):
            return f"{label}:{ident}"
        case TupleV(items):
            return "(" + ",".join(render_value(i, m) for i in items) + ")"
        case SetV(members):
            inner = sorted(members, key=sort_key)
            return "{" + ", ".join(render_value(w, m) for w in inner) + "}"
        case FnV(entries):
            inner = sorted(entries, key=lambda e: sort_key(e[0]))
            return "{" + ", ".join(f"{render_value(k, m)}->{render_value(w, m)}" for k, w in inner) + "}"
    raise ValueError(f"unrenderable value {v!r}")
