"""The three workloads: what one request is, and how its output is checked.

Every workload is a closed loop: one caller, one process, no threads, the
next request sent only after the previous one returned. The program is
called through module attributes (morphisms.verify_equivalence, cli.main,
...) at call time, so the tracer's wrappers see every call.

Each workload offers:
  prepare(i)           build the inputs of request i (outside the timed span)
  request(inp)         the timed call into the program
  check(inp, out)      -> (work units, failure message or None)
  run_checks()         -> {name: ok} checks over the whole run
  reference_outputs()  -> outputs of the fixed reference requests, which
                          check_reference compares with expected/<name>.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path
from typing import Any, Optional

from finsem import cli, denote, morphisms
from finsem.semmodel import Assignment, Truth

import inputs

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# reference inputs come from this seed whatever seed the run was given
REFERENCE_SEED = "reference"
CATEGORIES = {"constants", "variables", "predicates", "functions", "composites"}


def load_expected(workload: str) -> dict[str, Any]:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_reference(wl, expected=None) -> list[tuple[str, Optional[str]]]:
    """(key, failure message or None) for every reference output of a workload."""
    got = wl.reference_outputs()
    if got and expected is None:
        expected = load_expected(wl.name)
    return [
        (key, None if expected.get(key) == value else f"got {value}, expected {expected.get(key)}")
        for key, value in got.items()
    ]


class Workload:
    """Defaults for what a workload does not need."""

    name: str
    block: int
    warmup: int

    def reset(self) -> None:
        """Forget what warm-up requests counted."""

    def close(self) -> None:
        pass

    def run_checks(self) -> dict[str, bool]:
        return {}

    def reference_outputs(self) -> dict[str, Any]:
        return {}

    def layer_extras(self) -> dict[str, float]:
        return {}


class Sweep(Workload):
    """One request collapses one small model, then verifies its 100 terms."""

    name = "sweep"
    block = len(inputs.SWEEP_SHAPES)
    warmup = 3

    def __init__(self, seed: str):
        self.seed = seed
        self.reset()

    def reset(self) -> None:
        self.categories = set()
        self.checks = 0
        self.both_failed = 0

    def prepare(self, i: int, seed: Optional[str] = None) -> inputs.SweepInput:
        return inputs.sweep_input(seed or self.seed, i)

    def request(self, inp: inputs.SweepInput):
        collapsed = morphisms.trivialize_all(inp.model)
        return morphisms.verify_equivalence(collapsed, inp.terms, [inp.assignment])

    def check(self, inp, report) -> tuple[int, Optional[str]]:
        self.categories |= set(report.by_category())
        self.checks += report.total
        self.both_failed += sum(
            c.intensional.startswith("error:") and c.extensional.startswith("error:")
            for c in report.checks
        )
        if report.total != len(inp.terms):
            return report.total, f"{report.total} checks for {len(inp.terms)} terms"
        if report.mismatches:
            bad = report.mismatches[0]
            return report.total, (
                f"{len(report.mismatches)} mismatches, first {bad.term}: "
                f"{bad.intensional} vs {bad.extensional}"
            )
        return report.total, None

    def run_checks(self) -> dict[str, bool]:
        return {"all five categories": self.categories == CATEGORIES}

    def layer_extras(self) -> dict[str, float]:
        ratio = self.both_failed / self.checks if self.checks else 0.0
        return {"morphisms.error_outcome_ratio": ratio}


class ModalGrid(Workload):
    """One request is one eval_all_indices call on a fixed 4^3, 6^3 or 8^3 model."""

    name = "modal_grid"
    block = inputs.GRID_BLOCK
    warmup = len(inputs.GRID_SIDES)

    def __init__(self, seed: str):
        self.seed = seed
        self.models = {side: inputs.model_from_doc(inputs.grid_doc(side)) for side in inputs.GRID_SIDES}

    def prepare(self, i: int, seed: Optional[str] = None) -> inputs.GridInput:
        return inputs.grid_input(seed or self.seed, i)

    def request(self, inp: inputs.GridInput):
        return denote.eval_all_indices(inp.term, self.models[inp.side], Assignment())

    def check(self, inp, values) -> tuple[int, Optional[str]]:
        """(might L phi) must be true at s exactly when phi is true at some
        L-successor of s, with successors read from frame.rel itself."""
        m = self.models[inp.side]
        n_indices = inp.side ** 3
        if len(values) != n_indices:
            return len(values), f"{len(values)} values for {n_indices} indices"
        body = denote.eval_all_indices(inp.term.body, m, Assignment())
        truth = {_coords(s): v == Truth(1) for s, v in body.items()}
        labels = [f.label for f in m.frames]
        pos = labels.index(inp.term.label)
        succ: dict[str, list[str]] = {}
        for a, b in m.frame(inp.term.label).rel.pairs:
            succ.setdefault(a, []).append(b)
        for s, v in values.items():
            here = _coords(s)
            want = any(
                truth[here[:pos] + (b,) + here[pos + 1:]] for b in succ.get(here[pos], ())
            )
            if v != Truth(1 if want else 0):
                return n_indices, f"{inputs.term_text(inp.term)} wrong at {','.join(here)}"
        return n_indices, None

    def reference_outputs(self) -> dict[str, str]:
        """Digests of the value maps of the reference corpus on the two smaller
        models."""
        out = {}
        for i in range(inputs.GRID_BLOCK):
            inp = inputs.grid_input(REFERENCE_SEED, i)
            if inp.side == inputs.GRID_SIDES[-1]:
                continue
            key = f"i{inp.side ** 3}:{inputs.term_text(inp.term)}"
            try:
                values = denote.eval_all_indices(inp.term, self.models[inp.side], Assignment())
                text = "\n".join(f"{','.join(_coords(s))}={_truth(v)}" for s, v in values.items())
            except Exception as err:  # an expected error is an outcome too
                text = f"error:{type(err).__name__}"
            out[key] = hashlib.sha256(text.encode()).hexdigest()
        return out


def _coords(s) -> tuple[str, ...]:
    return tuple(e for _, e in s.components)


def _truth(v) -> str:
    return {Truth(0): "0", Truth(1): "1"}.get(v, "?")


class Cli(Workload):
    """One request is one finsem.cli.main(argv) call, run in process with stdout
    captured, on a model file written for that request alone."""

    name = "cli"
    block = inputs.CLI_BLOCK
    warmup = len(inputs.CLI_COMMANDS)

    def __init__(self, seed: str, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.reset()

    def reset(self) -> None:
        self.bytes_read = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self, i: int, seed: Optional[str] = None):
        inp = inputs.cli_input(seed or self.seed, i)
        path = self.workdir / f"model-{i}.json"
        text = json.dumps(inp.doc, indent=2) + "\n"
        path.write_text(text, encoding="utf-8")
        self.bytes_read += len(text.encode())
        out = self.workdir / f"out-{i}.json"
        return inp, path, out

    def request(self, prepared):
        inp, path, out = prepared
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(inp.argv(str(path), str(out)))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, prepared, result) -> tuple[int, Optional[str]]:
        inp, path, out = prepared
        code, stdout, stderr = result
        try:
            problem = self._problem(inp, out, code, stdout, stderr)
        finally:
            path.unlink(missing_ok=True)
            out.unlink(missing_ok=True)
        return 1, problem

    def _problem(self, inp, out: Path, code, stdout: str, stderr: str) -> Optional[str]:
        if code != 0:
            return f"{inp.command} exited {code}: {stderr.strip()}"
        lines = stdout.splitlines()
        doc = inp.doc
        labels = [f["label"] for f in doc["frames"]]
        match inp.command:
            case "check-rel":
                ok = len(lines) == 11 * len(labels) and all(
                    f"frame {label} serial true" in lines for label in labels
                )
            case "check-map":
                # every frame is serial, so each collapse map is also bounded
                ok = [line.split(" ", 4)[4] for line in lines] == [
                    "monotone true forth true back true bounded true surjective true"
                ] * len(labels)
            case "eval":
                ok = stdout == f"{_expected_eval(doc, inp.eval_term, inp.index)}\n"
            case "sentence":
                ok = (
                    lines[0] == f"tree: {inputs.SENTENCE_TREE}"
                    and lines[-1] == f"value: {_expected_sentence(doc, inp.index)}"
                )
            case "trivialize":
                frame = next(f for f in json.loads(out.read_text())["frames"] if f["label"] == inp.options[1])
                ok = stdout == "" and frame["elements"] == ["k0"]
            case "verify-theorem":
                skipped = [f"skipped (modal): {name}" for name in inputs.MODAL_NAMED]
                ok = lines[: len(skipped)] == skipped and lines[-1].startswith("total: 0 mismatches")
            case "square":
                ok = stdout == "commutes: true\n"
            case "diagram":
                # the collapse hypercube: one node per subset of frames, one
                # edge per (subset, frame not in it)
                n = len(labels)
                ok = [line.split(" ")[0] for line in lines] == ["node"] * 2**n + ["edge"] * (
                    n * 2 ** (n - 1)
                )
            case _:
                ok = False
        return None if ok else f"{inp.command} printed {stdout[:200]!r}"

    def reference_outputs(self) -> dict[str, Any]:
        """Exit codes and output bytes of one block of reference requests."""
        out = {}
        for i in range(inputs.CLI_BLOCK):
            prepared = self.prepare(i, REFERENCE_SEED)
            inp, path, dumped = prepared
            code, stdout, _ = self.request(prepared)
            written = dumped.read_bytes() if dumped.exists() else b""
            out[f"{i}:{inp.command}"] = {
                "exit": code,
                "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
                "file": hashlib.sha256(written).hexdigest(),
            }
            path.unlink(missing_ok=True)
            dumped.unlink(missing_ok=True)
        return out

    def layer_extras(self) -> dict[str, float]:
        return {"modelfile.bytes_read": float(self.bytes_read)}


def _table(doc, name: str) -> dict[tuple[str, ...], Any]:
    c = next(c for c in doc["constants"] if c["name"] == name)
    return {tuple(row["index"]): row["value"] for row in c["table"]}


def _successor_indices(doc, label: str, index: tuple[str, ...]) -> list[tuple[str, ...]]:
    pos = [f["label"] for f in doc["frames"]].index(label)
    frame = doc["frames"][pos]
    return [
        index[:pos] + (b,) + index[pos + 1:]
        for a, b in frame["pairs"]
        if a == index[pos]
    ]


def _expected_eval(doc, term: str, index: tuple[str, ...]) -> int:
    """The value of the eval request's term, read straight from the tables."""
    if term == inputs.READS:
        return _reads(doc, index)
    label = term.split()[1]
    alice, happy = _table(doc, "alice"), _table(doc, "happy")
    return int(any([alice[s]] in happy[s] for s in _successor_indices(doc, label, index)))


def _reads(doc, s: tuple[str, ...]) -> int:
    student = _table(doc, "student")[s][0][0]
    book = _table(doc, "book")[s][0][0]
    return int([student, book] in _table(doc, "read")[s])


def _expected_sentence(doc, index: tuple[str, ...]) -> int:
    """'the student might read the book': some W-successor where the student
    there reads the book there."""
    frame = inputs.LEXICON["might"]["frame"]
    return int(any(_reads(doc, s) for s in _successor_indices(doc, frame, index)))


def make(name: str, seed: str, workdir: Path):
    if name == "sweep":
        return Sweep(seed)
    if name == "modal_grid":
        return ModalGrid(seed)
    if name == "cli":
        return Cli(seed, workdir / f"cli-{os.getpid()}")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "modal_grid", "cli")


def input_digest(name: str, seed: str, requests: int) -> str:
    """Digest of the inputs of the first requests of a run."""
    make_input = {
        "sweep": inputs.sweep_input,
        "modal_grid": inputs.grid_input,
        "cli": inputs.cli_input,
    }[name]
    parts: list[Any] = []
    if name == "modal_grid":
        parts += [inputs.grid_doc(side) for side in inputs.GRID_SIDES]
    parts += [make_input(seed, i).parts() for i in range(requests)]
    return inputs.digest(parts)
