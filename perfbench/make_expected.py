"""Rewrite expected/*.json, the committed outputs of the reference requests,
from the current program.

Run it only when a change to the program's output is intended, and review
the diff of expected/ with the change:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json

from worker import WORKDIR, import_program

import_program()

import workloads  # noqa: E402


def write(name: str, outputs: dict) -> None:
    path = workloads.EXPECTED_DIR / f"{name}.json"
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} reference outputs to {path.name}")


if __name__ == "__main__":
    write("modal_grid", workloads.ModalGrid(workloads.REFERENCE_SEED).reference_outputs())
    cli = workloads.make("cli", workloads.REFERENCE_SEED, WORKDIR)
    try:
        write("cli", cli.reference_outputs())
    finally:
        cli.close()
