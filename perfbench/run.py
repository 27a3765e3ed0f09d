"""The finsem benchmark: three closed-loop workloads, checked outputs, metrics.

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  sweep       one request collapses one small model and verifies 100 terms
  modal_grid  one request is one eval_all_indices call on a 4^3, 6^3 or 8^3 model
  cli         one request is one finsem.cli.main(argv) call on its own model file

Every measurement runs in a fresh interpreter (worker.py) with PYTHONHASHSEED
pinned. Requests run in whole blocks; a block is one cycle through the
workload's shapes, so every block does the same mix of work. A run does a
fixed amount of work: --seconds times the workload's blocks per second, a rate
measured on the program as this benchmark was written. Every version of the
program then runs the same requests, so request counts, tail percentiles and
the memory held by process-wide caches compare like with like.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
  setup_s         spawn of a worker to its first timed request (import finsem,
                  building the workload's fixed inputs, warm-up on another
                  seed); median over the run's workers
  work_per_s      work done per second of timed request time; work is (term,
                  assignment) checks on sweep, (term, index) evaluations on
                  modal_grid and commands on cli
  latency_p50_ms  median request time
  latency_tail_ms the highest percentile of 99.9, 99, 98, ..., 50 with at least
                  ten requests above it
  peak_rss_mb     ru_maxrss of a worker, median over the run's workers
Each request's inputs are built just before it, outside its timed span.

With --trace 1 a fixed number of blocks runs twice, untraced and then traced,
and the run reports the per-layer metrics of BENCHMARK.json. Layer metrics a
workload's code never reaches read 0. Spans are written to
.perfbench_work/spans-<workload>.tsv.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
A request fails when its output check fails or it raises; the fixed reference
requests checked against expected/ after the timed ones count as requests too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = ROOT / ".perfbench_work" / "results"
WORKLOADS = ("sweep", "modal_grid", "cli")
HASH_SEED = "0"
# workers per end-to-end run; each is a fresh process, so the medians also
# cover how the heap happened to be laid out in each
WORKERS = 5
BLOCKS_PER_SECOND = {"sweep": 0.8, "modal_grid": 0.2, "cli": 1.0}
TRACE_BLOCKS = {"sweep": 4, "modal_grid": 1, "cli": 2}
TAIL_PERCENTILES = (99.9, *range(99, 49, -1))
GRID_INDICES = (64, 216, 512)
WORKER_TIMEOUT_S = 170
# the name each workload gives its own work in the printed report
WORK_NAMES = {"sweep": "checks_per_s", "modal_grid": "index_evals_per_s", "cli": "commands_per_s"}


class BenchError(Exception):
    pass


def spawn(*args: str) -> tuple[float, dict]:
    """Run one worker; return seconds from spawn to its READY line, and its result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
    ) as proc:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} timed out") from None
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "READY" or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return ready, json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    requests above it, by nearest rank."""
    n = len(latencies_ms)
    # rounded, so that 99.9 of 10000 requests leaves exactly ten above
    p = next((p for p in TAIL_PERCENTILES if round(n * (100 - p) / 100, 6) >= 10), 50)
    rank = math.ceil(round(p * n / 100, 6))
    return p, sorted(latencies_ms)[max(rank - 1, 0)]


def pooled(results: list[dict]) -> dict:
    """Outcomes of the workers of one run, taken together."""
    return {
        "requests": sum(len(r["work"]) for r in results),
        "failures": [f for r in results for f in r["failures"]],
        "reference_failures": [f for r in results for f in r.get("reference_failures", [])],
        "reference_checked": sum(r.get("reference_checked", 0) for r in results),
        "run_checks": {k: all(r["run_checks"][k] for r in results) for k in results[0]["run_checks"]},
        "input_digest": next(r["input_digest"] for r in results if "input_digest" in r),
    }


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """WORKERS workers one after another, each on the next blocks of the seed's
    request stream; the last one also checks the reference outputs."""
    blocks = max(WORKERS, round(seconds * BLOCKS_PER_SECOND[workload]))
    bounds = [k * blocks // WORKERS for k in range(WORKERS + 1)]
    setups, results = [], []
    for k in range(WORKERS):
        args = ["--workload", workload, "--seed", str(seed), "--first-block", str(bounds[k])]
        args += ["--blocks", str(bounds[k + 1] - bounds[k])]
        ready, result = spawn(*args, *(["--reference"] if k == WORKERS - 1 else []))
        setups.append(ready)
        results.append(result)
    latencies = [x for r in results for x in r["latencies_ns"]]
    lat_ms = [x / 1e6 for x in latencies]
    pct, tail_ms = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        # a ratio of totals: the machine's speed changes within seconds, and a
        # total over the whole run averages those changes out better than a
        # median of shorter windows
        "work_per_s": sum(w for r in results for w in r["work"]) / (sum(latencies) / 1e9),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in results) / 1024,
    }
    notes = {
        "setup_samples_s": setups,
        "tail_percentile": pct,
        "tail_samples": len(lat_ms),
        "blocks": blocks,
    }
    return metrics, pooled(results), notes


def per_layer(workload: str, seed: int, names: list[str]) -> tuple[dict, dict, dict]:
    """The same fixed blocks twice: untraced, then traced."""
    base = ("--workload", workload, "--seed", str(seed), "--blocks", str(TRACE_BLOCKS[workload]))
    _, plain = spawn(*base, "--reference")
    _, traced = spawn(*base, "--trace", "1")
    layers = dict.fromkeys(names, 0.0)
    layers.update(traced["layers"])
    for n in GRID_INDICES:
        at_n = [t for t, w in zip(plain["latencies_ns"], plain["work"]) if w == n]
        per_index = sum(at_n) / 1e3 / (n * len(at_n)) if workload == "modal_grid" else 0.0
        layers[f"denote.eval.us_per_index.i{n}"] = per_index
    layers["trace.overhead_ratio"] = sum(traced["latencies_ns"]) / sum(plain["latencies_ns"])
    if set(layers) != set(names):
        raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {sorted(set(layers) - set(names))}")
    notes = {"absent_entry_points": traced["absent"], "traced_requests": len(traced["work"])}
    return {name: layers[name] for name in names}, pooled([plain, traced]), notes


def run_one(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    load_start = os.getloadavg()
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, result, notes = per_layer(workload, seed, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, result, notes = end_to_end(workload, seed, seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    failures = result["failures"] + result["reference_failures"]
    attempted = result["requests"] + result["reference_checked"]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": seed,
        "pythonhashseed": HASH_SEED,
        "input_digest": result["input_digest"],
        **notes,
    }
    run_checks = result["run_checks"]
    report = {
        "correct": not failures and all(run_checks.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(f"workload {workload} seed {seed} trace {trace}")
    print("env " + json.dumps(env))
    for name, value in values.items():
        label = name
        if name == "work_per_s":
            label = f"{WORK_NAMES[workload]} (work_per_s)"
        elif name == "latency_tail_ms":
            label = f"{name} (p{notes['tail_percentile']:g} of {notes['tail_samples']} requests)"
        print(f"  {label} {value:.6g} {units[name]}")
    print(f"  failed_ratio {len(failures) / attempted:.6g} 1 ({len(failures)} of {attempted})")
    for check, ok in run_checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    for line in failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"env": env, **report}, indent=1) + "\n"
    )
    print(json.dumps(report), flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "finsem" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a finsem checkout with src/finsem and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        for workload in [args.workload] if args.workload else WORKLOADS:
            run_one(workload, args.seed, seconds, args.trace, spec)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
