"""End-to-end command line checks: output bytes, exit codes, determinism.

Every command runs in a subprocess, except where a test patches a command
handler and calls cli.main in process; determinism checks repeat the run under
different hash seeds and require byte-identical stdout.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import finsem
from finsem import cli, semmodel
from finsem.denote import TermTypeError
from finsem.modelfile import ModelFileError
from finsem.relalg import FinsemError

from helpers import MODELS_DIR, REPO_ROOT, child_env

EXTENSIONAL = str(MODELS_DIR / "extensional.json")
MODAL = str(MODELS_DIR / "modal.json")
MODAL_TENSE = str(MODELS_DIR / "modal_tense.json")
THREE_FRAME = str(MODELS_DIR / "modal_tense_location.json")

READS = "(pred read (iota x (pred student x)) (iota y (pred book y)))"


def run(*argv: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "finsem", *argv],
        capture_output=True,
        text=True,
        env=child_env(PYTHONHASHSEED=hashseed),
        cwd=str(REPO_ROOT),
    )


def run_deterministic(*argv: str) -> subprocess.CompletedProcess:
    first = run(*argv, hashseed="1")
    second = run(*argv, hashseed="2")
    assert first.stdout == second.stdout, f"nondeterministic stdout for {argv}"
    assert first.returncode == second.returncode
    return first


# ---------------------------------------------------------------------------
# happy paths


def test_check_rel_single_property() -> None:
    got = run_deterministic("check-rel", MODAL, "--prop", "serial")
    assert got.returncode == 0
    assert got.stdout == "frame W serial false\n"


def test_check_rel_full_report() -> None:
    got = run_deterministic("check-rel", MODAL_TENSE)
    assert got.returncode == 0
    lines = got.stdout.strip().split("\n")
    assert len(lines) == 22  # 11 properties for each of W and T
    assert lines[0] == "frame W serial false"
    assert all(line.split()[3] in ("true", "false") for line in lines)


def test_check_map_report() -> None:
    got = run_deterministic("check-map", MODAL)
    assert got.returncode == 0
    assert got.stdout == (
        "frame W designated w0 monotone true forth true back false "
        "bounded false surjective true\n"
    )


def test_eval_at_index() -> None:
    assert run_deterministic("eval", MODAL, "--term", READS, "--index", "w1").stdout == "1\n"
    assert run_deterministic("eval", MODAL, "--term", READS, "--index", "w0").stdout == "0\n"


def test_eval_with_assignment() -> None:
    got = run_deterministic(
        "eval", EXTENSIONAL, "--term", "(pred student x)", "--assign", "x=s1"
    )
    assert got.returncode == 0
    assert got.stdout == "1\n"


def test_eval_set_valued_term() -> None:
    got = run_deterministic("eval", EXTENSIONAL, "--term", "student")
    assert got.stdout == "{(s1)}\n"


def test_sentence_extensional() -> None:
    got = run_deterministic(
        "sentence", EXTENSIONAL, "--text", "the student read the book"
    )
    assert got.returncode == 0
    out = got.stdout
    assert out.startswith(
        "tree: (S (DP (D the) (NP (N student))) (VP (V read) (DP (D the) (NP (N book)))))\n"
    )
    assert f"term: {READS}\n" in out
    assert out.endswith("value: 1\n")


def test_sentence_modal_trace_shows_displacement() -> None:
    got = run_deterministic(
        "sentence", MODAL, "--text", "the student might read the book", "--index", "w0"
    )
    assert got.returncode == 0
    assert "value: 1" in got.stdout
    vprime = [l for l in got.stdout.split("\n") if l.strip().startswith("V'")]
    assert len(vprime) == 1 and vprime[0].endswith("= 0")


SENTENCE_OUTPUTS = {
    "extensional": (
        (EXTENSIONAL, "--text", "the student read the book"),
        """\
tree: (S (DP (D the) (NP (N student))) (VP (V read) (DP (D the) (NP (N book)))))
term: (pred read (iota x (pred student x)) (iota y (pred book y)))
S 'the student read the book' := (pred read (iota x (pred student x)) (iota y (pred book y))) = 1
  DP 'the student' := (iota x (pred student x)) = s1
    D 'the'
    NP 'student' := student = {(s1)}
      N 'student' := student = {(s1)}
  VP 'read the book' := (pred read (iota x (pred student x)) (iota y (pred book y))) = 1
    V 'read' := read = {(s1,b1)}
    DP 'the book' := (iota y (pred book y)) = b1
      D 'the'
      NP 'book' := book = {(b1)}
        N 'book' := book = {(b1)}
value: 1
""",
    ),
    "modal": (
        (THREE_FRAME, "--text", "the student might read the book", "--index", "w0,t0,l0"),
        """\
tree: (S (DP (D the) (NP (N student))) (VP (Mod might) (V' (V read) (DP (D the) (NP (N book))))))
term: (might W (pred read (iota x (pred student x)) (iota y (pred book y))))
S 'the student might read the book' := (might W (pred read (iota x (pred student x)) (iota y (pred book y)))) = 1
  DP 'the student' := (iota x (pred student x)) = s1
    D 'the'
    NP 'student' := student = {(s1)}
      N 'student' := student = {(s1)}
  VP 'might read the book' := (might W (pred read (iota x (pred student x)) (iota y (pred book y)))) = 1
    Mod 'might'
    V' 'read the book' := (pred read (iota x (pred student x)) (iota y (pred book y))) = 0
      V 'read' := read = {}
      DP 'the book' := (iota y (pred book y)) = b1
        D 'the'
        NP 'book' := book = {(b1)}
          N 'book' := book = {(b1)}
value: 1
""",
    ),
}


@pytest.mark.parametrize("case", sorted(SENTENCE_OUTPUTS))
def test_sentence_prints_tree_term_every_trace_line_and_value(case) -> None:
    args, want = SENTENCE_OUTPUTS[case]
    got = run_deterministic("sentence", *args)
    assert (got.returncode, got.stdout, got.stderr) == (0, want, "")


def test_trivialize_writes_canonical_model(tmp_path) -> None:
    out = tmp_path / "flat.json"
    got = run_deterministic("trivialize", MODAL, "--frame", "W", "--out", str(out))
    assert got.returncode == 0
    doc = json.loads(out.read_text())
    (frame,) = doc["frames"]
    assert frame["elements"] == ["k0"]
    assert frame["pairs"] == [["k0", "k0"]]
    # designated w0: the read relation is empty on that slice
    read = [c for c in doc["constants"] if c["name"] == "read"]
    assert read[0]["table"] == [{"index": ["k0"], "value": []}]


def test_trivialize_to_stdout_then_again_fails(tmp_path) -> None:
    first = run_deterministic("trivialize", MODAL, "--frame", "W")
    model = tmp_path / "flat.json"
    model.write_text(first.stdout)
    second = run("trivialize", str(model), "--frame", "W")
    assert second.returncode == 1
    assert second.stderr == "error: frame 'W' is already trivial\n"


def test_trivialize_designate_picks_the_slice(tmp_path) -> None:
    out = tmp_path / "flat.json"
    run_deterministic("trivialize", MODAL, "--frame", "W", "--designate", "w1", "--out", str(out))
    got = run_deterministic("eval", str(out), "--term", READS)
    assert got.stdout == "1\n"


@pytest.mark.parametrize(
    "path", [EXTENSIONAL, MODAL, MODAL_TENSE, THREE_FRAME]
)
def test_verify_theorem_bundled_models(path: str) -> None:
    got = run_deterministic("verify-theorem", path)
    assert got.returncode == 0
    lines = got.stdout.strip().split("\n")
    assert lines[-1].startswith("total: 0 mismatches / ")
    if "modal" in os.path.basename(path):
        assert "skipped (modal): might_read" in lines


def test_square_commutes() -> None:
    got = run_deterministic("square", MODAL_TENSE, "--frames", "W,T")
    assert got.returncode == 0
    assert got.stdout == "commutes: true\n"
    got3 = run_deterministic("square", THREE_FRAME, "--frames", "W,T,L")
    assert got3.stdout == "commutes: true\n"


def test_diagram_two_frames() -> None:
    got = run_deterministic("diagram", MODAL_TENSE)
    assert got.returncode == 0
    assert got.stdout == (
        "node W'T\n"
        "node W'T'\n"
        "node WT\n"
        "node WT'\n"
        "edge W'T W'T' T\n"
        "edge WT W'T W\n"
        "edge WT WT' T\n"
        "edge WT' W'T' W\n"
    )


# ---------------------------------------------------------------------------
# failure paths


def test_exit_1_sentence_needs_index() -> None:
    got = run("sentence", MODAL, "--text", "the student read the book")
    assert got.returncode == 1
    assert got.stdout == ""
    assert got.stderr.startswith("error: ")
    assert "index" in got.stderr


def test_exit_1_unknown_frame_and_element() -> None:
    assert run("trivialize", MODAL, "--frame", "Q").returncode == 1
    assert run("trivialize", MODAL, "--frame", "W", "--designate", "w9").returncode == 1
    assert run("square", MODAL, "--frames", "W").returncode == 1
    assert run("square", MODAL_TENSE, "--frames", "W,Q").returncode == 1


def test_exit_1_bad_index_arity() -> None:
    got = run("eval", MODAL_TENSE, "--term", READS, "--index", "w0")
    assert got.returncode == 1
    assert "2 components" in got.stderr


def test_exit_1_type_errors_and_presupposition() -> None:
    got = run("eval", EXTENSIONAL, "--term", "(pred read (iota x (pred student x)))")
    assert got.returncode == 1
    got = run("eval", EXTENSIONAL, "--term", "(iota x (pred read x x))")
    assert got.returncode == 1
    assert "witness" in got.stderr
    got = run("eval", EXTENSIONAL, "--term", "(might W (pred student x))")
    assert got.returncode == 1


def test_exit_2_missing_file() -> None:
    got = run("eval", str(MODELS_DIR / "nope.json"), "--term", "student")
    assert got.returncode == 2
    assert got.stderr.startswith("error: ")


def test_exit_2_malformed_model_lists_all_problems(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "entities": ["a"],
                "frames": [{"label": "W", "elements": [], "pairs": []}],
                "constants": [{"name": "p", "type": "wat", "table": []}],
            }
        )
    )
    got = run("check-rel", str(bad))
    assert got.returncode == 2
    assert got.stderr.count("error: ") >= 2


def test_exit_2_type_nested_too_deep(tmp_path) -> None:
    deep = "set(" * 1200 + "e" + ")" * 1200
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps({"entities": ["a"], "constants": [{"name": "p", "type": deep}]}))
    got = run("check-rel", str(bad))
    assert got.returncode == 2
    assert got.stderr == "error: constant 'p': type nested deeper than 64 levels\n"


def test_exit_2_lexicon_pred_names_no_constant(tmp_path) -> None:
    doc = json.loads((MODELS_DIR / "extensional.json").read_text())
    doc["lexicon"]["read"]["pred"] = "wrote"
    doc["lexicon"]["book"]["pred"] = "read"
    bad = tmp_path / "lexicon.json"
    bad.write_text(json.dumps(doc))
    got = run("check-rel", str(bad))
    assert got.returncode == 2
    assert got.stdout == ""
    assert got.stderr.splitlines() == [
        "error: lexicon['book']: N entries need a rel(e) pred, 'read' is rel(e,e)",
        "error: lexicon['read']: pred 'wrote' names no constant",
    ]


def test_exit_2_unparseable_term() -> None:
    got = run("eval", EXTENSIONAL, "--term", "(pred")
    assert got.returncode == 2


def test_exit_2_term_nested_too_deep() -> None:
    deep = "(not " * 1199 + "(eq x x)" + ")" * 1199
    got = run("eval", EXTENSIONAL, "--term", deep, "--assign", "x=s1")
    assert got.returncode == 2
    assert got.stdout == ""
    assert got.stderr.startswith("error: term nested deeper than")
    assert "Traceback" not in got.stderr


def test_exit_2_usage_error() -> None:
    got = run("no-such-command", EXTENSIONAL)
    assert got.returncode == 2


def test_exit_2_unwritable_out(tmp_path) -> None:
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    got = run("trivialize", MODAL, "--frame", "W", "--out", str(out))
    assert got.returncode == 2
    assert got.stdout == ""
    assert got.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not out.exists()


# {tmp} is replaced by a directory holding the files bad_files writes
BAD_INPUTS = [
    pytest.param(("eval", "{tmp}/nope.json", "--term", "x"), 2, id="missing-model-file"),
    pytest.param(("check-rel", "{tmp}"), 2, id="model-path-is-a-directory"),
    pytest.param(("check-rel", "{tmp}/garbage.json"), 2, id="model-not-json"),
    pytest.param(("check-rel", "{tmp}/latin1.json"), 2, id="model-not-utf8"),
    pytest.param(("check-rel", "{tmp}/list.json"), 2, id="model-not-an-object"),
    pytest.param(
        ("trivialize", MODAL, "--frame", "W", "--out", "{tmp}/no/such/dir/x.json"),
        2,
        id="out-dir-missing",
    ),
    pytest.param(("trivialize", MODAL, "--frame", "W", "--out", "{tmp}"), 2, id="out-is-a-directory"),
    pytest.param(("eval", EXTENSIONAL, "--term", "(pred"), 2, id="unparseable-term"),
    pytest.param(("eval", EXTENSIONAL, "--term", "(lam x wat x)"), 2, id="unparseable-lam-type"),
    pytest.param(("no-such-command", EXTENSIONAL), 2, id="unknown-command"),
    pytest.param(("eval", EXTENSIONAL), 2, id="missing-required-option"),
    pytest.param(
        ("eval", EXTENSIONAL, "--term", "(app (lam x e x) (lam y e y))"), 1, id="ill-typed-term"
    ),
    pytest.param(("eval", EXTENSIONAL, "--term", "(pred nope x)"), 1, id="unknown-constant"),
    pytest.param(("eval", EXTENSIONAL, "--term", "(lam x set(e) x)"), 1, id="lam-over-a-set-type"),
    pytest.param(
        ("eval", EXTENSIONAL, "--term", "(might W (pred student x))", "--assign", "x=s1"),
        1,
        id="modal-term-without-frames",
    ),
    pytest.param(("eval", EXTENSIONAL, "--term", "x", "--assign", "x"), 1, id="assignment-without-="),
    pytest.param(
        ("eval", THREE_FRAME, "--term", "(iota x (pred student x))", "--index", "w0,t0,l0", "--assign", "=s1"),
        1,
        id="assignment-without-variable",
    ),
    pytest.param(
        ("eval", EXTENSIONAL, "--term", "x", "--assign", "x=s1", "--assign", "x=b1"),
        1,
        id="assignment-binds-a-variable-twice",
    ),
    pytest.param(("eval", EXTENSIONAL, "--term", "x", "--assign", "x=zz"), 1, id="unknown-entity"),
    pytest.param(("eval", MODAL, "--term", READS, "--index", "w9"), 1, id="index-not-in-space"),
    pytest.param(("sentence", EXTENSIONAL, "--text", "the zebra"), 1, id="unknown-word"),
    pytest.param(("square", MODAL, "--frames", "W"), 1, id="square-needs-two-frames"),
    pytest.param(("check-rel", "{tmp}/ill_typed_term.json"), 2, id="named-term-ill-typed"),
]

ILL_TYPED_TERM_DOC = {"entities": ["a"], "terms": {"odd": "(not x)"}}


@pytest.mark.parametrize("argv, code", BAD_INPUTS)
def test_bad_input_exits_1_or_2_without_traceback(tmp_path, argv, code) -> None:
    (tmp_path / "garbage.json").write_text("{not json")
    (tmp_path / "latin1.json").write_bytes('{"entities": ["\xe9"]}'.encode("latin-1"))
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "ill_typed_term.json").write_text(json.dumps(ILL_TYPED_TERM_DOC))
    got = run(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert got.returncode == code
    assert "Traceback" not in got.stderr
    assert got.stderr.strip()


def test_repeated_assignment_names_the_variable(capsys) -> None:
    argv = ["eval", EXTENSIONAL, "--term", "x", "--assign", "x=s1", "--assign", "x=b1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: variable 'x' is assigned more than once\n"


def test_ill_typed_named_term_is_malformed_input(tmp_path, capsys) -> None:
    path = tmp_path / "ill_typed_term.json"
    path.write_text(json.dumps(ILL_TYPED_TERM_DOC))
    assert cli.main(["check-rel", str(path)]) == 2
    assert capsys.readouterr().err == "error: terms['odd']: at root.body: expected t, found e\n"


def test_a_wrongly_sized_function_value_is_refused_without_enumerating_its_domain(
    tmp_path, capsys, monkeypatch
) -> None:
    # 30 entities give the argument type 810000 values: listing them took 21 s
    ty = "fn(pair(pair(e,e),pair(e,e)),pair(pair(e,e),pair(e,e)))"
    doc = {
        "entities": [f"e{i}" for i in range(30)],
        "constants": [{"name": "f", "type": ty, "table": [{"index": [], "value": []}]}],
    }
    path = tmp_path / "empty_function.json"
    path.write_text(json.dumps(doc))
    calls = []
    domain = semmodel.type_domain
    monkeypatch.setattr(semmodel, "type_domain", lambda *args: calls.append(args) or domain(*args))
    assert cli.main(["check-rel", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: validation: constant 'f': IllTypedValue (index (): value does not inhabit "
        "fn(pair(e,e),e,e,pair(pair(e,e),pair(e,e))))\n"
    )
    assert calls == []


def _frame_typed_doc(w_elements: list[str]) -> dict:
    """Frames W and T, and a constant here: s(W) naming each index's W element."""
    t_elements = ["t0", "t1"]
    return {
        "entities": ["a"],
        "frames": [
            {"label": "W", "elements": w_elements, "pairs": [[w, w] for w in w_elements]},
            {"label": "T", "elements": t_elements, "pairs": [["t0", "t1"], ["t1", "t1"]]},
        ],
        "constants": [
            {
                "name": "here",
                "type": "s(W)",
                "table": [{"index": [w, t], "value": w} for w in w_elements for t in t_elements],
            }
        ],
    }


def test_a_collapse_that_would_leave_s_values_ill_typed_exits_1(tmp_path, capsys) -> None:
    path, out = tmp_path / "here.json", tmp_path / "out.json"
    path.write_text(json.dumps(_frame_typed_doc(["w0", "w1"])))
    refusal = "error: constant 'here' of type s(W) mentions frame 'W', which this collapse replaces or drops\n"
    for argv in (
        ["verify-theorem", str(path)],
        ["trivialize", str(path), "--frame", "W", "--out", str(out)],
        ["square", str(path), "--frames", "W,T"],
    ):
        assert cli.main(argv) == 1, argv
        assert capsys.readouterr() == ("", refusal)
        assert not out.exists()
    # collapsing T keeps s(W) meaningful, and the written file loads back
    assert cli.main(["trivialize", str(path), "--frame", "T", "--out", str(out)]) == 0
    assert cli.main(["eval", str(out), "--term", "here", "--index", "w1,k0"]) == 0
    assert capsys.readouterr() == ("W:w1\n", "")
    # W already trivial: extensionalizing drops it, so the theorem check refuses
    path.write_text(json.dumps(_frame_typed_doc(["k0"])))
    assert cli.main(["verify-theorem", str(path)]) == 1
    assert capsys.readouterr() == ("", refusal)


def _finsem_exception_classes() -> list[type]:
    """The public exception classes defined in finsem's modules."""
    found = []
    for info in pkgutil.iter_modules(finsem.__path__):
        if info.name.startswith("_"):  # __main__ would run the command line
            continue
        module = importlib.import_module(f"{finsem.__name__}.{info.name}")
        found.extend(
            obj
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
            and obj.__module__ == module.__name__ and not name.startswith("_")
        )
    return found


def test_every_finsem_exception_is_a_finsem_error() -> None:
    classes = _finsem_exception_classes()
    assert len(classes) >= 20
    assert FinsemError in classes
    assert all(issubclass(cls, FinsemError) for cls in classes), classes


@pytest.mark.parametrize(
    "cls",
    [c for c in _finsem_exception_classes() if c is not ModelFileError],
    ids=lambda c: c.__name__,
)
def test_a_finsem_error_from_a_command_exits_1(monkeypatch, capsys, cls) -> None:
    if cls is TermTypeError:
        err = cls("root", "t", "e")
    elif cls is semmodel.InvalidModel:
        err = cls([semmodel.Violation("EmptyEntityDomain", "", "entity domain is empty")])
    else:
        err = cls(f"a {cls.__name__}")

    def handler(mf, args):
        raise err

    monkeypatch.setattr(cli, "cmd_check_rel", handler)
    assert cli.main(["check-rel", EXTENSIONAL]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_two_main_calls_build_one_parser(capsys) -> None:
    cli.build_parser.cache_clear()
    assert cli.main(["check-rel", EXTENSIONAL]) == 0
    assert cli.main(["diagram", EXTENSIONAL]) == 0
    assert cli.build_parser.cache_info().misses == 1


def _modules_after(statement: str) -> set[str]:
    """The finsem modules a fresh interpreter holds after running statement."""
    code = f"{statement}; import sys; print(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=child_env(),
        check=True,
    ).stdout
    return {name for name in out.split() if name.startswith("finsem.")}


def test_importing_the_package_loads_no_module() -> None:
    assert _modules_after("import finsem") == set()
    loaded = _modules_after("import finsem.cli")
    assert "finsem.cli" in loaded
    assert "finsem.generators" not in loaded
