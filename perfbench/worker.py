"""One workload process: set up, report readiness, run timed requests, report.

Started by run.py in a fresh interpreter for every measurement, because
finsem.semmodel keeps a process-wide validation cache keyed by structural
equality: a second pass over the same inputs in one process would be served
from it. The last line of stdout is one JSON object of raw measurements;
run.py turns those into metrics.

    python3 perfbench/worker.py --workload sweep --seed 1 --blocks 3 --first-block 6
    python3 perfbench/worker.py --workload cli --seed 1 --blocks 2 --trace 1 --reference
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# a run stops at the first block boundary past this, however many blocks it
# was asked for, so that a much slower program still ends in time
DEADLINE_S = 120


def import_program() -> None:
    """Put the checkout's own src/ first on the path; refuse to run against any
    other copy of finsem."""
    if not (SRC / "finsem" / "__init__.py").is_file():
        sys.exit(f"perfbench: no finsem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import finsem

    if Path(finsem.__file__).resolve().parent != SRC / "finsem":
        sys.exit(f"perfbench: imported finsem from {finsem.__file__}, not {SRC}")


def run_requests(wl, blocks: int, first_block: int = 0, tracer=None) -> dict:
    """A fixed number of whole blocks of timed requests, starting at request
    first_block * block of the seed's request stream."""
    latencies, work, failures = [], [], []
    started = time.perf_counter()
    i = first = first_block * wl.block
    while True:
        if i % wl.block == 0:
            if i - first >= blocks * wl.block or time.perf_counter() - started > DEADLINE_S:
                break
        inp = wl.prepare(i)
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter_ns()
        try:
            out, err = wl.request(inp), None
        except Exception as exc:  # a request that raises counts as failed
            out, err = None, exc
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.request = -1
        if err is None:
            units, problem = wl.check(inp, out)
        else:
            units, problem = 0, f"raised {type(err).__name__}: {err}"
        latencies.append(elapsed)
        work.append(units)
        if problem is not None:
            failures.append(f"request {i}: {problem}")
        i += 1
    return {"block": wl.block, "latencies_ns": latencies, "work": work, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, default=1)
    parser.add_argument("--first-block", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="after the timed requests, check the reference outputs and digest the inputs",
    )
    args = parser.parse_args(argv)

    import_program()
    import inputs
    import workloads

    wl = workloads.make(args.workload, str(args.seed), WORKDIR)
    try:
        warm = inputs.warmup_seed(args.seed)
        for i in range(wl.warmup):
            wl.request(wl.prepare(i, warm))
        wl.reset()
        print("READY", flush=True)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result = run_requests(wl, args.blocks, args.first_block, tracer)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["layers"] = wl.layer_extras()
        if tracer is not None:
            tracer.uninstall()
            result["layers"].update(tracer.summary())
            result["absent"] = tracer.absent
            tracer.write(WORKDIR / f"spans-{args.workload}.tsv")
        result["run_checks"] = wl.run_checks()
        if args.reference:
            reference = workloads.check_reference(wl)
            result["reference_checked"] = len(reference)
            result["reference_failures"] = [
                f"reference {key}: {problem}" for key, problem in reference if problem
            ]
            result["input_digest"] = workloads.input_digest(args.workload, str(args.seed), wl.block)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
