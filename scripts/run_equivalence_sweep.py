#!/usr/bin/env python3
"""Randomized sweep of the collapse-equivalence check.

Generates small random models, collapses every frame, and compares
index-based evaluation against plain extensional evaluation for a batch of
random well-typed terms per model. Prints a per-category table and exits
nonzero on any mismatch, and on any outcome that failed with an exception
other than a FinsemError or ValueError: such an error is a bug in the checker
even when both routes share it and so agree.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, fields

from finsem.generators import random_model, random_term
from finsem.morphisms import EquivalenceReport, trivialize_all, verify_equivalence
from finsem.relalg import FinsemError
from finsem.semmodel import Assignment


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 0
    models: int = 100
    terms_per_model: int = 100
    max_depth: int = 4
    max_entities: int = 3
    max_frames: int = 2


def finsem_error_kinds() -> frozenset[str]:
    """Names of the exceptions an outcome may record: FinsemError and every
    class below it, and ValueError. A class that was raised has been
    imported, so the walk over subclasses sees it."""
    kinds, todo = {"ValueError"}, [FinsemError]
    while todo:
        cls = todo.pop()
        kinds.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return frozenset(kinds)


def check_line(rec) -> str:
    return f"  {rec.term} under {rec.assignment}: {rec.intensional} vs {rec.extensional}"


def internal_errors(records, allowed: frozenset[str]) -> list[str]:
    """One line per check with an error outcome whose kind is not allowed."""
    return [
        check_line(rec)
        for rec in records
        if any(
            side.startswith("error:") and side.removeprefix("error:") not in allowed
            for side in (rec.intensional, rec.extensional)
        )
    ]


def run_sweep(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    start = time.perf_counter()
    records = []
    for _ in range(cfg.models):
        m = trivialize_all(
            random_model(
                rng,
                max_entities=cfg.max_entities,
                min_frames=1,
                max_frames=cfg.max_frames,
            )
        )
        terms = [random_term(rng, m, max_depth=cfg.max_depth) for _ in range(cfg.terms_per_model)]
        g = Assignment(
            tuple((v, rng.choice(m.entity_domain.elements)) for v in ("x", "y", "z"))
        )
        records.extend(verify_equivalence(m, terms, [g]).checks)
    elapsed = time.perf_counter() - start

    report = EquivalenceReport(tuple(records))
    lines = report.summary_lines()
    lines[-1] += f" ({elapsed:.2f}s)"
    mismatch_lines = [check_line(rec) for rec in report.mismatches]
    internal_lines = internal_errors(records, finsem_error_kinds())
    if mismatch_lines:
        lines += ["mismatching checks:", *mismatch_lines]
    if internal_lines:
        lines += ["checks failing with an internal error:", *internal_lines]
    print("\n".join(lines))
    return 0 if not mismatch_lines and not internal_lines else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for f in fields(SweepConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    return run_sweep(SweepConfig(**vars(parser.parse_args())))


if __name__ == "__main__":
    sys.exit(main())
