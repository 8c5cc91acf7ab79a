"""Layer spans for the traced run, recorded from outside the program.

The traced run installs a wrapper on every entry point named in
``LAYERS``.  Each wrapper records one span (layer, entry point, start,
end, parent span, op id) in memory; nothing is written until the run
ends.  A layer's self time is the time inside its spans minus the time
inside their child spans, so nested entry points (``verify_patch``
calling ``patched_words``, ``push_update`` calling ``plan``) are not
counted twice.

Only per-update, per-function and per-run entry points are wrapped,
never anything called once per packet or per kernel event, so the
wrappers cost microseconds against calls that take milliseconds.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time

#: layer -> entry points, as (module, attribute or Class.method).
LAYERS = {
    "lang": [("repro.lang", "frontend")],
    "ir": [("repro.ir.builder", "build_ir")],
    "opt": [("repro.opt.passes", "optimize_module")],
    "regalloc": [
        ("repro.regalloc.ucc_ra", "allocate_ucc_greedy"),
        ("repro.regalloc.graph_coloring", "allocate_graph_coloring"),
        ("repro.regalloc.linear_scan", "allocate_linear_scan"),
        ("repro.regalloc.base", "verify_allocation"),
    ],
    "ilp": [
        ("repro.regalloc.ilp_ra", "allocate_ucc_ilp"),
        ("repro.regalloc.ilp_model", "build_chunk_model"),
        ("repro.ilp.solver", "solve"),
    ],
    "datalayout": [
        ("repro.datalayout.ucc_da", "allocate_ucc_da"),
        ("repro.datalayout.gcc_da", "allocate_gcc_da"),
        ("repro.datalayout.layout", "collect_layout_objects"),
    ],
    "codegen": [
        ("repro.codegen.selector", "select_function"),
        ("repro.codegen.placement", "ucc_placement"),
        ("repro.codegen.placement", "baseline_placement"),
        ("repro.codegen.placement", "apply_placement"),
    ],
    "isa": [("repro.isa.assembler", "assemble")],
    "diff": [
        ("repro.diff.differ", "diff_images"),
        ("repro.diff.data_diff", "diff_data"),
        ("repro.diff.patcher", "verify_patch"),
        ("repro.diff.data_diff", "apply_data"),
        ("repro.diff.patcher", "patched_words"),
        ("repro.diff.packets", "packetize"),
    ],
    "analysis": [("repro.analysis.driver", "verify_update")],
    "sim": [("repro.sim.executor", "run_image")],
    "core": [
        ("repro.core.update", "UpdatePlanner.plan"),
        ("repro.core.session", "UpdateSession.push_update"),
        ("repro.core.session", "UpdateSession.push_campaign"),
    ],
    "versioning": [
        ("repro.versioning.graph", "build_version_graph"),
        ("repro.versioning.planner", "plan_cohorts"),
        ("repro.versioning.campaign", "run_versioned_campaign"),
        ("repro.versioning.graph", "VersionGraph.replay"),
    ],
    "net.lossy": [("repro.net.lossy", "disseminate_lossy")],
    "net.campaign": [("repro.net.campaign", "run_campaign")],
    "net.coding": [("repro.net.coding", "run_coded_campaign")],
    "net.trickle": [("repro.net.trickle", "run_trickle")],
}

#: Layers timed by the run itself during set-up, outside the traced
#: pass: ``import repro`` and the topology build.
SETUP_LAYERS = ("import", "net.topology")


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        #: [layer, entry, start, end, parent index, op id]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        #: sha256 of every image handed to ``run_image``, in call order
        self.sim_images: list[str] = []
        #: ``events`` and quarantined counts of every Trickle report
        self.trickle_reports: list[tuple[int, int]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, entry: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = self._observer(entry)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, entry, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", entry)
        traced.__qualname__ = getattr(fn, "__qualname__", entry)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _observer(self, entry: str):
        if entry == "run_image":
            def observe(args, kwargs, result):
                image = args[0] if args else kwargs["image"]
                self.sim_images.append(hashlib.sha256(image.to_bytes()).hexdigest())
            return observe
        if entry == "run_trickle":
            def observe(args, kwargs, result):
                self.trickle_reports.append((result.events, len(result.quarantined)))
            return observe
        return None

    def install(self) -> None:
        """Patch every binding of every entry point in loaded ``repro``
        modules: module globals (``from x import f`` copies the name),
        module-level registries such as ``RA_BASELINES``, and methods
        on their classes."""
        for layer, entries in LAYERS.items():
            for module_name, attr in entries:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._set(cls, method, self._wrap(layer, method, original), False)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, attr, original)
                for loaded in list(sys.modules.values()):
                    name = getattr(loaded, "__name__", "")
                    if not (name == "repro" or name.startswith("repro.")):
                        continue
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, wrapper, False)
                        elif type(value) is dict:
                            for reg_key, reg_value in list(value.items()):
                                if reg_value is original:
                                    self._set(value, reg_key, wrapper, True)

    def _set(self, owner, key, wrapper, is_item: bool) -> None:
        if is_item:
            self._patched.append((owner, key, owner[key], True))
            owner[key] = wrapper
        else:
            self._patched.append((owner, key, owner.__dict__[key], False))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Layer -> self time in ms over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, entry, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for index, (layer, entry, start, end, parent, op) in enumerate(self.spans):
            out[layer] += (end - start - child[index]) * 1e3
        return out

    def top_level_ms(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            (end - start) * 1e3
            for layer, entry, start, end, parent, op in self.spans
            if parent < 0
        )

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def entry_calls(self, entry: str) -> int:
        return sum(1 for span in self.spans if span[1] == entry)

    def jsonl(self) -> str:
        keys = ("layer", "entry", "start", "end", "parent", "op")
        return "".join(
            json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n"
            for span in self.spans
        )
