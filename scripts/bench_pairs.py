#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark, written to a BENCH_*.json record.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --workload sweep --out BENCH_6.json

Exports the --base revision (`git archive`) and the working tree (every tracked
or untracked, not ignored file) into fresh directories, so both sides start
without compiled or cached files.
Pair i runs the unmodified `python3 perfbench/run.py --workload W --seed S+i`
once on each side, the base first on even pairs and the head first on odd
ones, so drift in the machine's speed falls on both sides alike.

The record holds every run (pair, seed, side, whether it ran first, the
benchmark's correct/attempted/failed and its five end-to-end metrics), each
side's attempted and failed totals per workload, and per workload and metric
each side's median and quartiles, the number of pairs the head won (in the
direction BENCHMARK.json gives for the metric) and a verdict:

    gain          the head won at least 9 of 10 pairs and its median is
                  better than the base median by more than the base IQR
    unresolved    the base runs spread wider than the metric's bound
                  (IQR over median) and the head did not win every pair
    within bound  the head median is worse than the base median by at most
                  the metric's bound from BENCHMARK.json, relative to the base
    worse         the head median is worse by more than the bound
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_worktree(dest: Path) -> str:
    """Copy the working tree's files into dest; return a label."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    dirty = bool(git("status", "--porcelain"))
    return f"{git('rev-parse', 'HEAD')}{' + uncommitted changes' if dirty else ''}"


def export_revision(rev: str, dest: Path) -> str:
    """Write rev's files into dest; return its commit."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return git("rev-parse", rev)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run; its last stdout line is the result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(base: dict, head: dict, sign: int, head_wins: int, pairs: int, bound: float) -> str:
    """The verdict on one metric; sign is 1 when higher is better, -1 when lower is."""
    gap = sign * (head["median"] - base["median"])
    if 10 * head_wins >= 9 * pairs and gap > base["iqr"]:
        return "gain"
    if base["iqr"] > bound * abs(base["median"]) and head_wins < pairs:
        return "unresolved"
    return "within bound" if -gap <= bound * abs(base["median"]) else "worse"


def summarize(runs: list[dict], spec: dict[str, dict]) -> dict:
    """Per metric of spec (name -> its BENCHMARK.json entry) the quartiles of
    both sides, the pairs the head won and the verdict."""
    out = {}
    for metric, entry in spec.items():
        by_pair: dict[int, dict[str, float]] = {}
        for r in runs:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][metric]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        sign = 1 if entry["better"] == "higher" else -1
        base, head = quartiles([p["base"] for p in pairs]), quartiles([p["head"] for p in pairs])
        head_wins = sum(sign * (p["head"] - p["base"]) > 0 for p in pairs)
        out[metric] = {
            "base": base,
            "head": head,
            "better": entry["better"],
            "bound": entry["bound"],
            "head_wins": head_wins,
            "pairs": len(pairs),
            "verdict": verdict(base, head, sign, head_wins, len(pairs), entry["bound"]),
        }
    return out


def totals(runs: list[dict]) -> dict:
    """Each side's attempted and failed operations, summed over its runs."""
    return {
        side: {key: sum(r[key] for r in runs if r["side"] == side) for key in ("attempted", "failed")}
        for side in ("base", "head")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", action="append", choices=("sweep", "modal_grid", "cli"),
                        help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record: dict = {
        "command": "python3 perfbench/run.py --workload W --seed S",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        record["base"] = export_revision(args.base, sides["base"])
        record["head"] = export_worktree(sides["head"])
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    result = run_once(sides[side], workload, seed)
                    runs.append({
                        "pair": i,
                        "seed": seed,
                        "side": side,
                        "first": side == order[0],
                        "correct": result["correct"],
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    })
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"work_per_s {runs[-1]['metrics']['work_per_s']:.6g}", flush=True)
            record["workloads"][workload] = {
                "summary": summarize(runs, metrics),
                "totals": totals(runs),
                "runs": runs,
            }
    record["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, data in record["workloads"].items():
        t = data["totals"]
        print(f"{workload}: failed base {t['base']['failed']}/{t['base']['attempted']}, "
              f"head {t['head']['failed']}/{t['head']['attempted']}")
        for metric, s in data["summary"].items():
            print(f"{workload} {metric}: base {s['base']['median']:.6g} (IQR {s['base']['iqr']:.3g}) "
                  f"-> head {s['head']['median']:.6g}, head better {s['head_wins']}/{s['pairs']}: "
                  f"{s['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
