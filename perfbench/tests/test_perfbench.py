"""Tests of the benchmark itself: seeded inputs, output checks that pass on the
current program and fail on corrupted outputs, and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402

worker.import_program()

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from finsem import morphisms, semmodel  # noqa: E402
from finsem.semmodel import Truth  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_other_seed_other_digest(name: str) -> None:
    first = workloads.input_digest(name, "1", 4)
    assert workloads.input_digest(name, "1", 4) == first
    assert workloads.input_digest(name, "2", 4) != first


def test_warmup_inputs_differ_from_timed_inputs() -> None:
    timed = workloads.input_digest("sweep", "1", 3)
    assert workloads.input_digest("sweep", inputs.warmup_seed(1), 3) != timed


def test_sweep_block_passes_every_check(tmp_path: Path) -> None:
    wl = workloads.make("sweep", "1", tmp_path)
    result = worker.run_requests(wl, blocks=1)
    assert result["failures"] == []
    assert len(result["work"]) == len(inputs.SWEEP_SHAPES)
    assert sum(result["work"]) == len(inputs.SWEEP_SHAPES) * inputs.SWEEP_TERMS
    assert wl.run_checks() == {"all five categories": True}


def test_cli_block_and_reference_pass(tmp_path: Path) -> None:
    wl = workloads.make("cli", "1", tmp_path)
    try:
        result = worker.run_requests(wl, blocks=1)
        assert result["failures"] == []
        assert len(result["work"]) == inputs.CLI_BLOCK
        assert [problem for _, problem in workloads.check_reference(wl) if problem] == []
    finally:
        wl.close()
    assert not (tmp_path / wl.workdir.name).exists()


def test_modal_grid_small_requests_and_reference_pass(tmp_path: Path) -> None:
    wl = workloads.make("modal_grid", "1", tmp_path)
    for i in range(inputs.GRID_BLOCK):
        inp = wl.prepare(i)
        if inp.side == inputs.GRID_SIDES[-1]:
            continue
        units, problem = wl.check(inp, wl.request(inp))
        assert problem is None
        assert units == inp.side**3
    assert [problem for _, problem in workloads.check_reference(wl) if problem] == []


def test_corrupted_expected_output_fails(tmp_path: Path) -> None:
    grid = workloads.make("modal_grid", "1", tmp_path)
    expected = workloads.load_expected("modal_grid")
    key = sorted(expected)[0]
    expected[key] = "0" * 64
    assert [k for k, problem in workloads.check_reference(grid, expected) if problem] == [key]

    cli = workloads.make("cli", "1", tmp_path)
    try:
        expected = workloads.load_expected("cli")
        expected["0:check-rel"] = dict(expected["0:check-rel"], stdout="0" * 64)
        assert [k for k, problem in workloads.check_reference(cli, expected) if problem] == ["0:check-rel"]
    finally:
        cli.close()


def test_modal_grid_check_catches_a_wrong_value(tmp_path: Path) -> None:
    wl = workloads.make("modal_grid", "1", tmp_path)
    inp = wl.prepare(0)
    values = wl.request(inp)
    index = next(iter(values))
    values[index] = Truth(1 - values[index].flag)
    _, problem = wl.check(inp, values)
    assert problem is not None and "wrong at" in problem


def test_sweep_check_catches_disagreeing_evaluators(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.setattr(morphisms, "eval_ext", lambda term, m, g=None: Truth(1))
    wl = workloads.make("sweep", "1", tmp_path)
    inp = wl.prepare(0)
    _, problem = wl.check(inp, wl.request(inp))
    assert problem is not None and "mismatches" in problem


def test_tracer_wraps_callers_bindings_and_restores_them(monkeypatch) -> None:
    from finsem import denote

    original = semmodel.cached_validate
    monkeypatch.setitem(
        tracing.GROUPS, "semmodel.cached_validate", ("semmodel:cached_validate", "semmodel:gone")
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert denote.cached_validate is not original
        assert denote.cached_validate is semmodel.cached_validate
        assert tracer.absent == ["semmodel:gone"]
        inp = inputs.grid_input("1", 0)
        model = inputs.model_from_doc(inputs.grid_doc(inp.side))
        denote.eval_all_indices(inp.term, model)  # outside a request: no spans
        assert len(tracer.start) == 0
        tracer.request = 0
        denote.eval_all_indices(inp.term, model)
        tracer.request = -1
    finally:
        tracer.uninstall()
    assert denote.cached_validate is original
    summary = tracer.summary()
    assert summary["denote.eval.calls"] == 1
    assert summary["semmodel.cached_validate.calls"] == 1
    assert summary["kripke.successors.calls"] > 0
    assert summary["semmodel.validate_cache_hit_ratio"] == 1.0
    assert all(value >= 0 for value in summary.values())


def test_tail_is_the_highest_percentile_with_ten_requests_above() -> None:
    assert run.tail([float(x) for x in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(x) for x in range(1, 76)]) == (86, 65.0)
    assert run.tail([float(x) for x in range(1, 1001)]) == (99, 990.0)
    assert run.tail([float(x) for x in range(1, 10001)]) == (99.9, 9990.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50, 2.0)
