"""Terms: typechecking paths, evaluation clauses, and the text syntax.

Expected values come from hand evaluation against the two worked models in
helpers. In the modal model the reading happened only at w1 and w0 sees w1,
so the bare clause is false at w0 while the possibility claim is true there.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from finsem import denote, semmodel
from finsem.denote import (
    MAX_TERM_DEPTH,
    And,
    App,
    Const,
    Diamond,
    Eq,
    FuncApp,
    Iota,
    Lam,
    Not,
    PredApp,
    PresuppositionFailure,
    TermTypeError,
    UnboundVariable,
    Var,
    eval_all_indices,
    eval_int,
    free_vars,
    has_modal,
    parse_term,
    render_term,
    typecheck,
)
from finsem.generators import random_model
from finsem.kripke import Frame
from finsem.modelfile import ModelFile, dump_model_file, load_model_file, model_file_from_doc
from finsem.morphisms import default_checks, extensionalize, trivialize_all
from finsem.relalg import FinSet, Relation
from finsem.semmodel import (
    EMPTY_INDEX,
    ENT_TYPE,
    Assignment,
    Constant,
    EntType,
    Entity,
    FnType,
    FnV,
    Index,
    InvalidModel,
    Model,
    RelType,
    SetType,
    SetV,
    Truth,
    TruthType,
    TupleV,
    UngroundedType,
    UnknownEntity,
    UnknownIndex,
    fn_type,
    index_space,
)

from helpers import MODELS_DIR, build_extensional, build_modal, rel_value, w_index

EXT = build_extensional()
MODAL = build_modal()

THE_STUDENT = Iota("x", PredApp("student", (Var("x"),)))
THE_BOOK = Iota("y", PredApp("book", (Var("y"),)))
READS = PredApp("read", (THE_STUDENT, THE_BOOK))
MIGHT_READ = Diamond("W", READS)


def ext_with_functions() -> Model:
    ents = FinSet("E", ("s1", "b1"))
    mentor = FnV(((Entity("s1"), Entity("b1")), (Entity("b1"), Entity("s1"))))
    keys = [
        TupleV((Entity(a), Entity(b)))
        for a in ("s1", "b1")
        for b in ("s1", "b1")
    ]
    first = FnV(tuple((k, k.items[0]) for k in keys))
    return Model(
        ents,
        (),
        (
            Constant("alice", EntType(), ((EMPTY_INDEX, Entity("s1")),)),
            Constant("mentor", FnType(EntType(), EntType()), ((EMPTY_INDEX, mentor),)),
            Constant("pick", fn_type([EntType(), EntType()], EntType()), ((EMPTY_INDEX, first),)),
            Constant("student", RelType((EntType(),)), ((EMPTY_INDEX, rel_value(("s1",))),)),
        ),
    )


# ---------------------------------------------------------------------------
# typechecking


def test_typecheck_sentence_terms() -> None:
    assert typecheck(READS, EXT.signature) == TruthType()
    assert typecheck(THE_STUDENT, EXT.signature) == EntType()
    assert typecheck(MIGHT_READ, MODAL.signature) == TruthType()
    lam = Lam("x", EntType(), PredApp("student", (Var("x"),)))
    assert typecheck(lam, EXT.signature) == FnType(EntType(), TruthType())


def test_typecheck_uses_assignment_types() -> None:
    assert typecheck(Var("x"), EXT.signature, ["x"]) == EntType()
    with pytest.raises(UnboundVariable):
        typecheck(Var("x"), EXT.signature)


def test_typecheck_arity_mismatch() -> None:
    with pytest.raises(TermTypeError) as e:
        typecheck(PredApp("read", (THE_STUDENT,)), EXT.signature)
    assert e.value.path == "root"
    assert "2 arguments" in e.value.expected


def test_typecheck_argument_position_is_located() -> None:
    bad = PredApp("read", (THE_STUDENT, PredApp("book", (THE_BOOK,))))
    with pytest.raises(TermTypeError) as e:
        typecheck(bad, EXT.signature)
    assert e.value.path == "root.args[1]"
    assert (e.value.expected, e.value.found) == ("e", "t")


def test_typecheck_unknown_names() -> None:
    with pytest.raises(UnboundVariable):
        typecheck(Const("zz"), EXT.signature)
    with pytest.raises(UnboundVariable):
        typecheck(PredApp("zz", ()), EXT.signature)


def test_typecheck_pred_must_be_relation_typed() -> None:
    m = ext_with_functions()
    with pytest.raises(TermTypeError):
        typecheck(PredApp("alice", ()), m.signature)
    with pytest.raises(TermTypeError):
        typecheck(FuncApp("student", (Const("alice"),)), m.signature)


def test_typecheck_lambda_binds_entities_only() -> None:
    with pytest.raises(TermTypeError) as e:
        typecheck(Lam("x", TruthType(), Var("x")), EXT.signature)
    assert "entity-typed" in e.value.expected


def test_typecheck_app() -> None:
    lam = Lam("x", EntType(), PredApp("student", (Var("x"),)))
    assert typecheck(App(lam, THE_STUDENT), EXT.signature) == TruthType()
    with pytest.raises(TermTypeError) as e:
        typecheck(App(THE_STUDENT, THE_BOOK), EXT.signature)
    assert e.value.path == "root.func"
    with pytest.raises(TermTypeError) as e:
        typecheck(App(lam, READS), EXT.signature)
    assert e.value.path == "root.arg"


def test_typecheck_iota_body_must_be_truth() -> None:
    with pytest.raises(TermTypeError) as e:
        typecheck(Iota("x", Var("x")), EXT.signature)
    assert (e.value.path, e.value.expected, e.value.found) == ("root.body", "t", "e")


def test_typecheck_connectives() -> None:
    assert typecheck(And(READS, Not(READS)), EXT.signature) == TruthType()
    assert typecheck(Eq(THE_STUDENT, THE_BOOK), EXT.signature) == TruthType()
    with pytest.raises(TermTypeError) as e:
        typecheck(Eq(THE_STUDENT, READS), EXT.signature)
    assert e.value.path == "root.right"
    with pytest.raises(TermTypeError) as e:
        typecheck(And(THE_STUDENT, READS), EXT.signature)
    assert e.value.path == "root.left"


def test_typecheck_modal_needs_a_frame() -> None:
    with pytest.raises(UngroundedType):
        typecheck(MIGHT_READ, EXT.signature)
    with pytest.raises(TermTypeError):
        typecheck(Diamond("W", THE_STUDENT), MODAL.signature)


def _twice_not(term):
    return Not(Not(term))


FNS = ext_with_functions()
ALICE = Const("alice")

# (term, model, error class, exact message), each located three or more steps
# below the root; every step kind and every located error class appears
NESTED_TYPE_ERRORS = [
    pytest.param(
        PredApp("read", (THE_STUDENT, Iota("y", PredApp("book", (Const("zz"),))))), EXT,
        UnboundVariable, "at root.args[1].body.args[0]: unknown constant 'zz'", id="constant",
    ),
    pytest.param(
        Not(And(READS, PredApp("student", (Var("q"),)))), EXT,
        UnboundVariable, "at root.body.right.args[0]: variable 'q' is not in scope", id="variable",
    ),
    pytest.param(
        App(Lam("x", EntType(), Not(PredApp("zz", (Var("x"),)))), THE_STUDENT), EXT,
        UnboundVariable, "at root.func.body.body: unknown predicate 'zz'", id="predicate",
    ),
    pytest.param(
        Eq(THE_STUDENT, Iota("y", Eq(Var("y"), FuncApp("nofn", (Var("y"),))))), EXT,
        UnboundVariable, "at root.right.body.right: unknown function 'nofn'", id="function",
    ),
    pytest.param(
        And(READS, _twice_not(Diamond("Q", READS))), MODAL,
        UngroundedType, "at root.right.body.body: no frame 'Q' in this model", id="frame",
    ),
    pytest.param(
        _twice_not(PredApp("read", (THE_STUDENT, READS))), EXT,
        TermTypeError, "at root.body.body.args[1]: expected e, found t", id="args",
    ),
    pytest.param(
        _twice_not(Diamond("W", THE_STUDENT)), MODAL,
        TermTypeError, "at root.body.body.body: expected t, found e", id="body",
    ),
    pytest.param(
        _twice_not(App(THE_STUDENT, THE_BOOK)), EXT,
        TermTypeError, "at root.body.body.func: expected a function type, found e", id="func",
    ),
    pytest.param(
        _twice_not(App(Lam("x", EntType(), PredApp("student", (Var("x"),))), READS)), EXT,
        TermTypeError, "at root.body.body.arg: expected e, found t", id="arg",
    ),
    pytest.param(
        Not(Iota("x", And(Var("x"), READS))), EXT,
        TermTypeError, "at root.body.body.left: expected t, found e", id="left",
    ),
    pytest.param(
        Not(Iota("x", And(READS, Var("x")))), EXT,
        TermTypeError, "at root.body.body.right: expected t, found e", id="and-right",
    ),
    pytest.param(
        Eq(THE_STUDENT, Iota("y", Not(Var("y")))), EXT,
        TermTypeError, "at root.right.body.body: expected t, found e", id="not-body",
    ),
    pytest.param(
        _twice_not(Eq(THE_STUDENT, READS)), EXT,
        TermTypeError, "at root.body.body.right: expected e, found t", id="right",
    ),
    pytest.param(
        And(READS, _twice_not(PredApp("read", (THE_STUDENT,)))), EXT,
        TermTypeError, "at root.right.body.body: expected 2 arguments to 'read', found 1 arguments",
        id="pred-arity",
    ),
    pytest.param(
        _twice_not(App(Lam("x", TruthType(), Var("x")), READS)), EXT,
        TermTypeError, "at root.body.body.func: expected e (bound variables are entity-typed), found t",
        id="lam-type",
    ),
    pytest.param(
        _twice_not(PredApp("alice", ())), FNS,
        TermTypeError, "at root.body.body: expected a relation-typed constant, found e",
        id="not-a-relation",
    ),
    pytest.param(
        Not(Eq(ALICE, FuncApp("pick", (ALICE, FuncApp("mentor", (FuncApp("student", (ALICE,)),)))))),
        FNS,
        TermTypeError, "at root.body.right.args[1].args[0]: expected a function-typed constant, found rel(e)",
        id="not-a-function",
    ),
    pytest.param(
        Not(Eq(ALICE, FuncApp("mentor", (PredApp("student", (ALICE,)),)))), FNS,
        TermTypeError, "at root.body.right.args[0]: expected e, found t", id="func-args",
    ),
    pytest.param(
        Not(Eq(ALICE, FuncApp("pick", (ALICE, ALICE, ALICE)))), FNS,
        TermTypeError, "at root.body.right: expected arguments matching fn(e,e,e), found 3 arguments",
        id="fn-arity",
    ),
]


@pytest.mark.parametrize("term, m, kind, message", NESTED_TYPE_ERRORS)
def test_nested_typecheck_errors_are_located_exactly(term, m, kind, message) -> None:
    with pytest.raises(kind) as e:
        typecheck(term, m.signature)
    assert str(e.value) == message
    if kind is TermTypeError:
        assert message.startswith(f"at {e.value.path}: expected {e.value.expected}, found ")


def _typing(term, m: Model, scope=()):
    """The type term gets on m, or the class and message of its error."""
    try:
        return typecheck(term, m.signature, scope)
    except Exception as err:
        return type(err), str(err)


def _reloaded(m: Model) -> Model:
    """m written as a model file and read back, so its types come from parse_type."""
    return model_file_from_doc(json.loads(dump_model_file(ModelFile(m, {}, {})))).model


def _types(m: Model) -> list:
    return [c.semtype for c in m.constants]


def _unshared(t):
    """t rebuilt by a constructor call per type node, fresh ground types included."""
    if isinstance(t, (EntType, TruthType)):
        return type(t)()
    if isinstance(t, tuple):
        return tuple(map(_unshared, t))
    if isinstance(t, semmodel.SemType):
        return type(t)(*(_unshared(getattr(t, f.name)) for f in dataclasses.fields(t)))
    return t


def _with_unshared_types(m: Model) -> Model:
    constants = tuple(Constant(c.name, _unshared(c.semtype), c.table) for c in m.constants)
    return Model(m.entity_domain, m.frames, constants, m.designated)


def test_typing_does_not_depend_on_type_identity() -> None:
    # a generated model rebuilt from fresh type constructor calls, and its
    # reloaded copy, whose types come from parse_type, hold the very type
    # objects of the generated model: _expect compares by identity alone
    rng = random.Random(31)
    for _ in range(12):
        m = random_model(rng, max_entities=3, max_frames=2)
        built = _with_unshared_types(m)
        reloaded = _reloaded(built)
        assert reloaded == built
        assert len(_types(m)) == len(_types(built)) == len(_types(reloaded))
        assert all(a is b is c for a, b, c in zip(_types(m), _types(built), _types(reloaded)))
        terms, gs = default_checks(built)
        scope = [x for x, _ in gs[0].bindings]
        for term in terms:
            assert _typing(term, reloaded, scope) == _typing(term, built, scope)
    for case in NESTED_TYPE_ERRORS:
        term, m, kind, message = case.values
        assert _typing(term, m) == _typing(term, _reloaded(m)) == (kind, message)


def _term_classes() -> set:
    """The Term subclasses denote defines; a test's own stray class is not one."""
    return {c for c in denote.Term.__subclasses__() if c.__module__ == denote.__name__}


def test_typing_evaluation_and_rendering_dispatch_on_every_term_class() -> None:
    assert len(_term_classes()) == 11
    assert set(denote._TYPES) == set(denote._CLAUSES) == set(denote._RENDER) == _term_classes()


def test_an_unknown_term_class_is_refused_by_every_dispatch() -> None:
    class Stray(denote.Term):
        pass

    stray = Stray()
    for term in (stray, Not(And(READS, stray))):
        with pytest.raises(ValueError, match=r"^unknown term .*Stray\(\)$"):
            typecheck(term, EXT.signature)
        with pytest.raises(ValueError, match=r"^unknown term .*Stray\(\)$"):
            eval_int(term, EXT)
        with pytest.raises(ValueError, match=r"^unknown term .*Stray\(\)$"):
            eval_int(term, MODAL, s=w_index("w0"))
    with pytest.raises(ValueError, match=r"^unknown term .*Stray\(\)$"):
        denote._eval(stray, EXT, {}, 0)
    with pytest.raises(ValueError, match=r"^unrenderable term .*Stray\(\)$"):
        render_term(stray)


def test_has_modal() -> None:
    assert has_modal(MIGHT_READ)
    assert has_modal(Not(And(READS, MIGHT_READ)))
    assert has_modal(Lam("x", EntType(), Diamond("W", PredApp("student", (Var("x"),)))))
    assert not has_modal(READS)


@pytest.mark.parametrize(
    "text, free",
    [
        ("(lam x e (pred p x y))", {"y"}),
        ("(iota x (pred p x a z))", {"z"}),
        ("(lam x e (and (iota x (pred p x y)) (pred q x)))", {"y"}),
        ("(and (pred p x) (lam x e (pred p x)))", {"x"}),
        ("(might W (pred p x a))", {"x"}),
        ("(app (lam x e (pred p x y)) z)", {"y", "z"}),
        ("(func f x (func g a y) (not (eq w w)))", {"x", "y", "w"}),
    ],
)
def test_free_vars(text: str, free: set) -> None:
    assert free_vars(parse_term(text, frozenset({"a"}))) == free


# ---------------------------------------------------------------------------
# extensional evaluation


def test_eval_sentence_one() -> None:
    assert eval_int(READS, EXT) == Truth(1)
    assert eval_int(Not(READS), EXT) == Truth(0)
    assert eval_int(And(READS, Not(READS)), EXT) == Truth(0)
    assert eval_int(Eq(THE_STUDENT, THE_BOOK), EXT) == Truth(0)
    assert eval_int(Eq(THE_STUDENT, THE_STUDENT), EXT) == Truth(1)


def test_eval_iota_picks_the_witness() -> None:
    assert eval_int(THE_STUDENT, EXT) == Entity("s1")
    assert eval_int(THE_BOOK, EXT) == Entity("b1")


def test_eval_iota_presupposition_failures() -> None:
    nobody = Iota("x", PredApp("read", (Var("x"), Var("x"))))
    with pytest.raises(PresuppositionFailure) as e:
        eval_int(nobody, EXT)
    assert "found 0" in str(e.value)
    anybody = Iota("x", Eq(Var("x"), Var("x")))
    with pytest.raises(PresuppositionFailure) as e:
        eval_int(anybody, EXT)
    assert "found 2" in str(e.value)


def test_eval_lambda_materializes_graph() -> None:
    got = eval_int(Lam("x", EntType(), PredApp("student", (Var("x"),))), EXT)
    assert got == FnV(((Entity("b1"), Truth(0)), (Entity("s1"), Truth(1))))


def test_lam_rows_match_the_checked_constructor_in_key_order() -> None:
    # domain order e2, e10 differs from key order e10, e2
    m = Model(
        FinSet("E", ("e2", "e10")),
        (),
        (
            Constant("p", RelType((EntType(),)), ((EMPTY_INDEX, rel_value(("e2",))),)),
            Constant("r", RelType((EntType(), EntType())), ((EMPTY_INDEX, rel_value(("e10", "e2"), ("e10", "e10"))),)),
        ),
    )
    got = eval_int(Lam("x", EntType(), PredApp("p", (Var("x"),))), m)
    want = FnV(((Entity("e2"), Truth(1)), (Entity("e10"), Truth(0))))
    assert got == want and got.entries == want.entries
    assert [k for k, _ in got.entries] == [Entity("e10"), Entity("e2")]
    # the body still runs in domain order: e2's failure (no witness) comes first
    with pytest.raises(PresuppositionFailure, match="found 0"):
        eval_int(Lam("x", EntType(), Iota("y", PredApp("r", (Var("x"), Var("y"))))), m)


def test_eval_app_is_beta(monkeypatch) -> None:
    lam_reads = Lam("x", EntType(), PredApp("read", (Var("x"), THE_BOOK)))
    assert eval_int(App(lam_reads, THE_STUDENT), EXT) == Truth(1)
    body = PredApp("read", (Var("x"), THE_BOOK))
    for k in EXT.entity_domain.elements:
        direct = eval_int(body, EXT, Assignment((("x", k),)))
        via_app = eval_int(App(Lam("x", EntType(), body), Var("y")), EXT, Assignment((("y", k),)))
        assert direct == via_app
    # failures: each outcome is the one of evaluating the lam and applying its value
    no_witness_at_b1 = Iota("y", PredApp("read", (Var("x"), Var("y"))))
    cases = [
        (no_witness_at_b1, THE_STUDENT, None, "found 0"),  # the argument's row is fine
        (PredApp("student", (Var("x"),)), THE_STUDENT, 1, "exceeds 1 values"),
        (no_witness_at_b1, Iota("z", Eq(Var("z"), Var("z"))), None, "over 'y'"),  # body first
    ]
    for body, arg, limit, message in cases:
        with monkeypatch.context() as patch:
            if limit is not None:
                patch.setattr(denote, "MAX_DOMAIN_SIZE", limit)
            lam = Lam("x", EntType(), body)
            got = _outcome(lambda: eval_int(App(lam, arg), EXT))
            assert got[0] == "error" and message in got[2]
            assert got == _outcome(lambda: eval_int(lam, EXT).apply(eval_int(arg, EXT)))


def test_an_applied_abstraction_builds_no_function_value(monkeypatch) -> None:
    lam = Lam("x", EntType(), PredApp("student", (Var("x"),)))
    calls = []
    shared = FnV._shared

    def counted(*fields):
        calls.append(fields)
        return shared(*fields)

    monkeypatch.setattr(FnV, "_shared", counted)
    assert eval_int(App(lam, THE_STUDENT), EXT) == Truth(1)
    assert calls == []
    assert eval_int(lam, EXT).apply(Entity("s1")) == Truth(1)
    assert len(calls) == 1


def test_eval_function_application() -> None:
    m = ext_with_functions()
    assert eval_int(FuncApp("mentor", (Const("alice"),)), m) == Entity("b1")
    nested = FuncApp("mentor", (FuncApp("mentor", (Const("alice"),)),))
    assert eval_int(nested, m) == Entity("s1")
    two = FuncApp("pick", (FuncApp("mentor", (Const("alice"),)), Const("alice")))
    assert eval_int(two, m) == Entity("b1")


def test_three_argument_functions_nest_their_arguments() -> None:
    """(func g x y z) applies g to the key (x, (y, z)): at each index, at every
    index at once, and after a model-file round trip, against a table read."""
    rng = random.Random(23)
    ids = ("a", "b")
    dom = FinSet("W", ("w0", "w1", "w2"))
    w = Frame("W", dom, Relation(dom, dom, frozenset({("w0", "w1")})))
    space = index_space((w,))
    keys = [TupleV((Entity(x), TupleV((Entity(y), Entity(z))))) for x in ids for y in ids for z in ids]
    table = tuple((s, FnV(tuple((k, Entity(rng.choice(ids))) for k in keys))) for s in space)
    m = Model(FinSet("E", ids), (w,), (Constant("g", fn_type([ENT_TYPE] * 3, ENT_TYPE), table),))
    term = FuncApp("g", (Var("x"), Var("y"), Var("z")))
    text = dump_model_file(ModelFile(m, {}, {"g3": term}))
    again = model_file_from_doc(json.loads(text))
    assert again.model == m and again.terms == {"g3": term}
    assert dump_model_file(again) == text
    rows = dict(table)
    for key in keys:
        x, (y, z) = key.items[0], key.items[1].items
        g = Assignment((("x", x.ident), ("y", y.ident), ("z", z.ident)))
        everywhere = eval_all_indices(term, m, g)
        for s in space:
            want = dict(rows[s].entries)[key]
            assert eval_int(term, m, g, s) == everywhere[s] == eval_int(term, again.model, g, s) == want


def test_eval_variables_come_from_assignment() -> None:
    g = Assignment((("x", "b1"),))
    assert eval_int(PredApp("book", (Var("x"),)), EXT, g) == Truth(1)
    with pytest.raises(UnknownEntity):
        eval_int(Var("x"), EXT, Assignment((("x", "zz"),)))


def test_eval_rejects_invalid_models() -> None:
    """A gappy table is refused where the Model is built, so no evaluator gets one."""
    with pytest.raises(InvalidModel, match="^model fails validation") as e:
        Model(EXT.entity_domain, (), (Constant("p", RelType((EntType(),)), ()),))
    assert [(v.kind, v.constant) for v in e.value.violations] == [("MissingIndexEntry", "p")]


def test_entry_errors_come_in_order_validity_typecheck_environment() -> None:
    """Validity is checked first, as the Model is built; every evaluator then
    raises the term's typecheck error before the environment's."""
    unknown = Assignment((("x", "zz"),))
    ill_typed = Not(Var("x"))
    first, *rest = MODAL.constants
    for build in (
        lambda: Model(EXT.entity_domain, (), (Constant("p", RelType((EntType(),)), ()),)),
        lambda: Model(MODAL.entity_domain, MODAL.frames, (Constant(first.name, first.semtype, ()), *rest)),
    ):
        with pytest.raises(InvalidModel, match="^model fails validation"):
            build()
    for route in (
        lambda: eval_int(ill_typed, EXT, unknown),
        lambda: eval_int(ill_typed, MODAL, unknown, w_index("w0")),
        lambda: eval_all_indices(ill_typed, MODAL, unknown),
    ):
        with pytest.raises(TermTypeError):
            route()
    with pytest.raises(UnknownEntity):
        eval_all_indices(Var("x"), MODAL, unknown)


# ---------------------------------------------------------------------------
# modal evaluation


def test_eval_int_needs_a_known_index() -> None:
    with pytest.raises(UnknownIndex):
        eval_int(READS, MODAL)
    with pytest.raises(UnknownIndex):
        eval_int(READS, MODAL, s=Index((("W", "w9"),)))
    with pytest.raises(UnknownIndex):
        eval_int(READS, MODAL, s=EMPTY_INDEX)


def test_eval_modal_displacement() -> None:
    w0, w1 = w_index("w0"), w_index("w1")
    assert eval_int(READS, MODAL, s=w0) == Truth(0)
    assert eval_int(READS, MODAL, s=w1) == Truth(1)
    assert eval_int(MIGHT_READ, MODAL, s=w0) == Truth(1)
    assert eval_int(MIGHT_READ, MODAL, s=w1) == Truth(0)


def test_eval_all_indices_in_space_order() -> None:
    got = eval_all_indices(MIGHT_READ, MODAL)
    assert [(s.render(), v) for s, v in got.items()] == [
        ("w0", Truth(1)),
        ("w1", Truth(0)),
    ]


def test_modal_operator_has_no_extensional_clause() -> None:
    # the collapse keeps its frame, so a Diamond still typechecks there; the
    # frame-free model extensionalize makes has no frame for it
    bare = extensionalize(trivialize_all(MODAL))
    with pytest.raises(UngroundedType, match="no frame 'W'"):
        eval_int(Diamond("W", PredApp("student", (THE_STUDENT,))), bare)


def _outcome(thunk) -> tuple:
    try:
        return ("value", thunk())
    except Exception as err:
        return ("error", type(err), str(err))


@pytest.mark.parametrize("name", ["modal.json", "modal_tense.json", "modal_tense_location.json"])
def test_eval_ext_on_a_collapsed_model_matches_both_other_routes(name) -> None:
    """Extensional evaluation, eval_int with no index, on the collapsed model
    matches eval_int at its one index and on its frame-free copy."""
    flat = trivialize_all(load_model_file(str(MODELS_DIR / name)).model)
    assert flat.frames
    bare, (s0,) = extensionalize(flat), index_space(flat.frames)
    terms, gs = default_checks(flat)
    for t in terms:
        for g in gs + [Assignment()]:
            got = _outcome(lambda: eval_int(t, flat, g))
            assert got == _outcome(lambda: eval_int(t, flat, g, s0)), render_term(t)
            assert got == _outcome(lambda: eval_int(t, bare, g)), render_term(t)


def test_diamond_rebinds_only_its_own_frame() -> None:
    # p holds of s1 exactly at (w1, t0); W looks from w0 to w1, T from t0 to t1
    ents = FinSet("E", ("s1",))
    wdom = FinSet("W", ("w0", "w1"))
    tdom = FinSet("T", ("t0", "t1"))
    frames = (
        Frame("W", wdom, Relation(wdom, wdom, frozenset({("w0", "w1")}))),
        Frame("T", tdom, Relation(tdom, tdom, frozenset({("t0", "t1")}))),
    )
    rows = []
    for idx in index_space(frames):
        hit = idx.component("W") == "w1" and idx.component("T") == "t0"
        rows.append((idx, rel_value(("s1",)) if hit else rel_value()))
    m = Model(ents, frames, (Constant("p", RelType((EntType(),)), tuple(rows)),))
    claim = Diamond("W", PredApp("p", (Iota("x", Eq(Var("x"), Var("x"))),)))
    at = lambda w, t: Index((("W", w), ("T", t)))  # noqa: E731
    assert eval_int(claim, m, s=at("w0", "t0")) == Truth(1)
    assert eval_int(claim, m, s=at("w0", "t1")) == Truth(0)
    nested_wt = Diamond("W", Diamond("T", PredApp("p", (Iota("x", Eq(Var("x"), Var("x"))),))))
    assert eval_int(nested_wt, m, s=at("w0", "t0")) == Truth(0)


def test_evaluate_picks_the_evaluator() -> None:
    assert eval_int(READS, MODAL, s=w_index("w1")) == Truth(1)
    assert eval_int(READS, EXT) == Truth(1)
    # the collapse keeps the designated w0 slice, where nobody read anything
    assert eval_int(MIGHT_READ, trivialize_all(MODAL)) == Truth(0)
    with pytest.raises(UnknownIndex, match="index is required"):
        eval_int(READS, MODAL)


def test_validation_runs_once_per_model(monkeypatch) -> None:
    calls = []
    real = semmodel.validate
    monkeypatch.setattr(semmodel, "validate", lambda m: calls.append(m) or real(m))
    m = build_modal()
    assert eval_int(READS, m, s=w_index("w0")) == Truth(0)
    assert eval_int(THE_STUDENT, m, s=w_index("w1")) == Entity("s1")
    assert eval_all_indices(MIGHT_READ, m)[w_index("w0")] == Truth(1)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# text syntax

SYNTAX_CASES = [
    ("(pred read (iota x (pred student x)) (iota y (pred book y)))", READS),
    ("(might W (pred read (iota x (pred student x)) (iota y (pred book y))))", MIGHT_READ),
    ("(lam x e (pred student x))", Lam("x", EntType(), PredApp("student", (Var("x"),)))),
    ("(app (lam x e (pred student x)) (iota y (pred book y)))",
     App(Lam("x", EntType(), PredApp("student", (Var("x"),))), THE_BOOK)),
    ("(and (not (pred student z)) (eq z z))",
     And(Not(PredApp("student", (Var("z"),))), Eq(Var("z"), Var("z")))),
    ("(func mentor alice)", FuncApp("mentor", (Const("alice"),))),
]


@pytest.mark.parametrize("text,term", SYNTAX_CASES)
def test_term_syntax_round_trip(text: str, term) -> None:
    assert parse_term(text, frozenset({"alice"})) == term
    assert render_term(term) == text
    assert parse_term(render_term(term), frozenset({"alice"})) == term


def test_lam_type_with_parentheses_is_one_group() -> None:
    assert parse_term("(lam x set(e) x)") == Lam("x", SetType(EntType()), Var("x"))
    fn_et = parse_term("(lam f fn(e,t) (app f y))")
    assert fn_et == Lam("f", FnType(EntType(), TruthType()), App(Var("f"), Var("y")))
    assert parse_term("(lam x fn(pair(e,e), t) x)").var_type == fn_type([EntType(), EntType()], TruthType())
    # a ground type is one name, even when the body opens a parenthesis
    assert parse_term("(lam x e (not x))") == Lam("x", EntType(), Not(Var("x")))
    with pytest.raises(TermTypeError) as e:
        typecheck(parse_term("(lam x set(e) x)"), EXT.signature)
    assert str(e.value) == "at root: expected e (bound variables are entity-typed), found set(e)"


def test_bare_names_resolve_against_declared_constants() -> None:
    assert parse_term("alice", frozenset({"alice"})) == Const("alice")
    assert parse_term("alice") == Var("alice")
    # binding wins over the constant declaration
    shadowed = parse_term("(iota alice (pred student alice))", frozenset({"alice"}))
    assert shadowed == Iota("alice", PredApp("student", (Var("alice"),)))


@pytest.mark.parametrize(
    "bad",
    [
        "", "(", ")", "(pred)", "(pred p", "(lam x e)", "(quux x)", "(pred p x) y", "(and x)",
        "(lam x set(e)", "(lam x set(e x)", "(lam x set(e) x",
    ],
)
def test_term_syntax_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        parse_term(bad)


def nested_not(depth: int) -> str:
    """(not (not ... (eq x x))) with depth parenthesised forms in all."""
    return "(not " * (depth - 1) + "(eq x x)" + ")" * (depth - 1)


def test_parser_refuses_nesting_past_the_limit() -> None:
    for depth in (MAX_TERM_DEPTH + 1, 1200):
        with pytest.raises(ValueError, match="nested deeper"):
            parse_term(nested_not(depth))


def test_deepest_terms_typecheck_evaluate_and_render() -> None:
    g = Assignment((("x", "s1"),))
    negations = parse_term(nested_not(MAX_TERM_DEPTH))
    assert eval_int(negations, EXT, g) == Truth(MAX_TERM_DEPTH % 2)
    # argument lists cost the evaluator and renderer a comprehension frame per level
    chain = "(func mentor " * MAX_TERM_DEPTH + "alice" + ")" * MAX_TERM_DEPTH
    term = parse_term(chain, frozenset({"alice"}))
    assert eval_int(term, ext_with_functions()) == Entity("s1")
    assert not has_modal(term)
    assert render_term(term) == chain
