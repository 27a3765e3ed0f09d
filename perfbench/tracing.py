"""Spans around the program's layer entry points, recorded from outside.

Each entry point is wrapped where its callers look it up. `from .semmodel
import cached_validate` binds the name inside denote, so wrapping
finsem.semmodel alone would miss denote's calls: the tracer replaces the
function in every finsem module whose namespace holds it. Methods are
wrapped on their class. An entry point that no longer exists is reported as
absent instead of failing the run.

Spans are recorded only while a timed request is open. A call into the group
of the innermost open span (recursion, or one map check calling another)
records no span of its own. Spans stay in memory, in flat arrays, until the
run ends; self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path
from typing import Callable

# metric group -> entry points, as "module:qualified name"
GROUPS: dict[str, tuple[str, ...]] = {
    "modelfile.load": ("modelfile:load_model_file",),
    "modelfile.dump": ("modelfile:dump_model_file",),
    "semmodel.validate": ("semmodel:validate",),
    "semmodel.cached_validate": ("semmodel:cached_validate",),
    "semmodel.index_space": ("semmodel:index_space", "semmodel:the_index"),
    "semmodel.value_at": ("semmodel:Constant.value_at",),
    "semmodel.type_domain": ("semmodel:type_domain",),
    "semmodel.model_init": ("semmodel:Model.__post_init__",),
    "semmodel.render_value": ("semmodel:render_value",),
    "denote.parse_term": ("denote:parse_term",),
    "denote.typecheck": ("denote:typecheck",),
    "denote.eval": ("denote:eval_int", "denote:eval_ext", "denote:eval_all_indices"),
    "denote.render_term": ("denote:render_term",),
    "kripke.successors": ("kripke:Frame.successors",),
    "kripke.map_checks": (
        "kripke:is_monotone",
        "kripke:forth_holds",
        "kripke:back_holds",
        "kripke:is_bounded",
        "kripke:is_surjective",
        "kripke:trivialize",
    ),
    "relalg.check_property": ("relalg:check_property",),
    "relalg.compose": ("relalg:compose",),
    "morphisms.collapse": ("morphisms:apply",),
    "morphisms.verify": ("morphisms:verify_equivalence",),
    "fragment.parse": ("fragment:parse",),
    "fragment.eval_sentence": ("fragment:eval_sentence",),
    "cli.main": ("cli:main",),
}
MODULES = ("relalg", "kripke", "semmodel", "denote", "morphisms", "fragment", "modelfile", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names = list(GROUPS)
        self.request = -1  # id of the open timed request; -1 records nothing
        self.stack: list[int] = []
        self.group = array("h")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("q")
        self.end = array("q")
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"finsem.{m}") for m in MODULES]
        for gid, group in enumerate(self.names):
            for entry in GROUPS[group]:
                module_name, _, qualname = entry.partition(":")
                owner_name, _, attr = qualname.rpartition(".")
                owner = importlib.import_module(f"finsem.{module_name}")
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    self.absent.append(entry)
                    continue
                wrapper = self._wrap(gid, original)
                # a method is looked up on its class; a function in every
                # module namespace that holds it
                holders = [(owner, attr)] if owner_name else [
                    (m, name) for m in modules for name, v in vars(m).items() if v is original
                ]
                for holder, name in holders:
                    self._restore.append((holder, name, getattr(holder, name)))
                    setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def _wrap(self, gid: int, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if tracer.request < 0 or (stack and tracer.group[stack[-1]] == gid):
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.group.append(gid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.req.append(tracer.request)
            tracer.end.append(0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict[str, float]:
        """Per group: calls and self time in ms, plus the validation cache hit
        ratio (cached_validate calls that never reach validate)."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        gid_validate = self.names.index("semmodel.validate")
        gid_cached = self.names.index("semmodel.cached_validate")
        misses = 0
        for i in range(n):
            g = self.group[i]
            calls[g] += 1
            self_ns[g] += end[i] - start[i] - child[i]
            if g == gid_validate and parent[i] >= 0 and self.group[parent[i]] == gid_cached:
                misses += 1
        out: dict[str, float] = {}
        for gid, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[gid])
            out[f"{name}.self_ms"] = self_ns[gid] / 1e6
        cached = calls[gid_cached]
        out["semmodel.validate_cache_hit_ratio"] = (cached - misses) / cached if cached else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans, one per line: request, span, parent span, group, start and
        end in ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tgroup\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.req[i]}\t{i}\t{self.parent[i]}\t{self.names[self.group[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )
