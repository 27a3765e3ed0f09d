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
from dataclasses import dataclass

from finsem.generators import random_model, random_term
from finsem.morphisms import trivialize_all, verify_equivalence
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
    totals: dict[str, tuple[int, int]] = {}
    mismatch_lines: list[str] = []
    internal_lines: list[str] = []
    allowed = finsem_error_kinds()
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
        report = verify_equivalence(m, terms, [g])
        for cat, (checked, bad) in report.by_category().items():
            c, b = totals.get(cat, (0, 0))
            totals[cat] = (c + checked, b + bad)
        mismatch_lines.extend(check_line(rec) for rec in report.mismatches)
        internal_lines.extend(internal_errors(report.checks, allowed))
    elapsed = time.perf_counter() - start

    checked_total = sum(c for c, _ in totals.values())
    bad_total = sum(b for _, b in totals.values())
    for cat in sorted(totals):
        checked, bad = totals[cat]
        print(f"{cat}: {bad} mismatches / {checked} checks")
    print(f"total: {bad_total} mismatches / {checked_total} checks ({elapsed:.2f}s)")
    if mismatch_lines:
        print("mismatching checks:")
        for line in mismatch_lines:
            print(line)
    if internal_lines:
        print("checks failing with an internal error:")
        for line in internal_lines:
            print(line)
    return 0 if bad_total == 0 and not internal_lines else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--models", type=int, default=100)
    parser.add_argument("--terms-per-model", type=int, default=100)
    parser.add_argument("--max-depth", type=int, default=4)
    parser.add_argument("--max-entities", type=int, default=3)
    parser.add_argument("--max-frames", type=int, default=2)
    args = parser.parse_args()
    cfg = SweepConfig(
        seed=args.seed,
        models=args.models,
        terms_per_model=args.terms_per_model,
        max_depth=args.max_depth,
        max_entities=args.max_entities,
        max_frames=args.max_frames,
    )
    return run_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
