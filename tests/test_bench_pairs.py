"""The verdicts and totals scripts/bench_pairs.py writes, on synthetic runs."""

from __future__ import annotations

import importlib.util
import sys

from helpers import REPO_ROOT

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO_ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pairs
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "work_per_s": {"name": "work_per_s", "better": "higher", "bound": 0.25},
    "latency_p50_ms": {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
}


def runs(base: list[float], head: list[float], metric: str = "work_per_s") -> list[dict]:
    """One run per side and pair; the other metric is constant."""
    out = []
    for i, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            other = "latency_p50_ms" if metric == "work_per_s" else "work_per_s"
            out.append({
                "pair": i,
                "side": side,
                "attempted": 100 + i,
                "failed": i % 2 if side == "head" else 0,
                "metrics": {metric: value, other: 1.0},
            })
    return out


def summary(base: list[float], head: list[float], metric: str = "work_per_s") -> dict:
    return bench_pairs.summarize(runs(base, head, metric), SPEC)[metric]


BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_a_consistent_win_beyond_the_base_spread_is_a_gain() -> None:
    s = summary(BASE, [v * 1.3 for v in BASE])
    assert (s["head_wins"], s["pairs"], s["verdict"]) == (10, 10, "gain")
    assert s["bound"] == 0.25
    # one lost pair still leaves 9 of 10
    head = [v * 1.3 for v in BASE[:9]] + [90.0]
    assert summary(BASE, head)["verdict"] == "gain"


def test_lower_is_better_metrics_win_downwards() -> None:
    s = summary(BASE, [v * 0.7 for v in BASE], metric="latency_p50_ms")
    assert (s["head_wins"], s["verdict"]) == (10, "gain")
    assert summary(BASE, [v * 1.3 for v in BASE], metric="latency_p50_ms")["verdict"] == "worse"


def test_a_win_inside_the_base_spread_is_within_bound() -> None:
    # every pair won, by less than the base IQR
    s = summary(BASE, [v + 0.5 for v in BASE])
    assert (s["head_wins"], s["verdict"]) == (10, "within bound")
    # 8 of 10 pairs won by far is not enough for a gain
    head = [v * 1.5 for v in BASE[:8]] + [v - 1 for v in BASE[8:]]
    assert summary(BASE, head)["verdict"] == "within bound"


def test_a_loss_is_within_bound_up_to_the_bound_and_worse_past_it() -> None:
    assert summary(BASE, [v * 0.8 for v in BASE])["verdict"] == "within bound"
    assert summary(BASE, [v * 0.7 for v in BASE])["verdict"] == "worse"


def test_a_base_spread_wider_than_the_bound_is_unresolved() -> None:
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 65.0, 135.0]
    assert summary(wide, [v * 1.05 for v in wide[:9]] + [10.0])["verdict"] == "unresolved"
    # unless the head wins every pair
    assert summary(wide, [v + 1 for v in wide])["verdict"] == "within bound"


def test_totals_sum_attempted_and_failed_per_side() -> None:
    assert bench_pairs.totals(runs(BASE, BASE)) == {
        "base": {"attempted": 1045, "failed": 0},
        "head": {"attempted": 1045, "failed": 5},
    }
