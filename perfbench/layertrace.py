"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer's public function at the place its
caller looks it up (a module attribute, or the `solver` default of
`repair_round`, which is bound when that function is defined) with a
wrapper that records a span: item id, span id, parent span, layer,
function, start and end. Spans stay in memory until the run ends.

Some wrappers also record counts taken from arguments and results, such
as clause counts or holes made. That work runs after the span closes and
its time is recorded, so self times can leave it out.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: call sites reached only when some item sends holes back to the LLM
HOLEFILL_SITES = ("pipeline.print_child", "pipeline.holefill_prompt")

PER_TASK_TIMES = {
    "maxsmt.solve_ms_per_task": ("maxsmt", "solve_maxsmt"),
    "maxsmt.check_sat_ms_per_task": ("maxsmt", "check_sat"),
    "constraints.ms_per_task": ("constraints", None),
    "frontend.parse_ms_per_task": ("frontend", "parse_tolerant"),
    "frontend.prune_ms_per_task": ("frontend", "prune_to_child"),
    "frontend.print_ms_per_task": ("frontend", "print_child"),
    "repair.self_ms_per_task": ("repair", None),
    "uclid.print_ms_per_task": ("uclid", "print_uclid"),
    "uclid_check.validate_ms_per_task": ("uclid_check", None),
    "llm.ms_per_task": ("llm", None),
    "pipeline.self_ms_per_task": ("pipeline", None),
}

PER_TASK_COUNTS = {
    "maxsmt.falsified_per_task": "falsified",
    "repair.rounds_per_task": "rounds",
    "repair.holes_made_per_task": "holes_made",
    "repair.holes_filled_per_task": "holes_filled",
    "repair.holes_to_llm_per_task": "holes_to_llm",
    "llm.prompt_bytes_per_task": "prompt_bytes",
}


class TraceError(RuntimeError):
    """A function to wrap is missing or no item reached it."""


class Span:
    __slots__ = ("item", "sid", "parent", "layer", "name", "t0", "t1",
                 "attrs", "attr_s")

    def __init__(self, item, sid, parent, layer, name):
        self.item = item
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.t0 = self.t1 = 0.0
        self.attrs: dict = {}
        self.attr_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = -1
        self.reached: Counter = Counter()
        self.solved: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self.sites: list[str] = []

    # -- spans ---------------------------------------------------------------

    def begin_item(self, item: int) -> None:
        self.item = item
        self.solved = set()

    def wrap(self, site: str, layer: str, fn, attrs=None):
        """`fn` with a span around each call, named `layer.fn`; `attrs`
        maps (args, kwargs, result) to a dict of counts for the span."""
        name = fn.__name__
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(tracer.item, len(tracer.spans),
                        tracer.stack[-1] if tracer.stack else None,
                        layer, name)
            tracer.spans.append(span)
            tracer.reached[site] += 1
            tracer.stack.append(span.sid)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                tracer.stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
                span.attr_s = perf_counter() - span.t1
            return result

        return traced

    def _fingerprint(self, clauses) -> dict:
        """Count a solver call, and whether the same clause list was
        already solved for this item."""
        key = tuple(clauses)
        redundant = key in self.solved
        self.solved.add(key)
        return {"clauses": len(key), "redundant": int(redundant)}

    # -- installation --------------------------------------------------------

    def install(self, uclgen) -> None:
        """Wrap every layer function at its call site in `uclgen`'s
        modules. Raises TraceError if one of them is missing."""
        if not self._wrappers:
            self._wrappers = self._build(uclgen)
        self._saved = []
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _build(self, uclgen):
        pipeline, repair, uclid = uclgen.pipeline, uclgen.repair, uclgen.uclid
        max_hole_id = uclgen.ast_core.max_hole_id

        def clause_count(args, kwargs, result):
            return {"clauses_generated": len(result.clauses)}

        def solve_attrs(args, kwargs, result):
            got = self._fingerprint(args[0].clauses)
            got["falsified"] = len(result.falsified)
            return got

        def check_attrs(args, kwargs, result):
            return self._fingerprint(args[0])

        def holes_made(args, kwargs, result):
            return {"holes_made":
                    max(0, max_hole_id(result) - max_hole_id(args[0]))}

        sites = [
            (pipeline, "extract_code", "frontend", None),
            (pipeline, "parse_tolerant", "frontend", None),
            (pipeline, "prune_to_child", "frontend", None),
            (pipeline, "print_child", "frontend", None),
            (pipeline, "repair_round", "repair",
             lambda a, k, r: {"rounds": 1}),
            (pipeline, "run_pipeline", "pipeline", None),
            (pipeline, "compile_program", "uclid", None),
            (pipeline, "print_uclid", "uclid", None),
            (pipeline, "validate_uclid", "uclid_check", None),
            (pipeline, "initial_prompt", "llm", None),
            (pipeline, "holefill_prompt", "llm",
             lambda a, k, r: {"holes_to_llm": a[1].count("??")}),
            (repair, "synthesize_decls", "repair", None),
            (repair, "holeify", "repair", holes_made),
            (repair, "model_repair", "repair",
             lambda a, k, r: {"holes_filled": len(r[1])}),
            (repair, "generate_clauses", "constraints", clause_count),
            (uclid, "generate_clauses", "constraints", clause_count),
            (uclid, "check_sat", "maxsmt", check_attrs),
            (uclid, "lower", "uclid", None),
        ]
        self.sites = [f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                      for mod, attr, _, _ in sites]
        missing = [site for site, (mod, attr, _, _) in zip(self.sites, sites)
                   if not callable(getattr(mod, attr, None))]
        # repair_round binds its solver default when it is defined, so the
        # default itself is what a call reaches
        round_fn = getattr(repair, "repair_round", None)
        params = (list(inspect.signature(round_fn).parameters)
                  if callable(round_fn) else [])
        defaults = list(round_fn.__defaults__ or ())
        pos = (params.index("solver") - (len(params) - len(defaults))
               if "solver" in params else -1)
        if pos < 0:
            missing.append("repair.repair_round(solver=...)")
        if missing:
            raise TraceError(f"cannot wrap {', '.join(missing)}")

        out = [
            (mod, attr, self.wrap(site, layer, getattr(mod, attr), attrs))
            for site, (mod, attr, layer, attrs) in zip(self.sites, sites)
        ]
        self.sites += ["repair.repair_round(solver)", "backend.complete"]
        defaults[pos] = self.wrap("repair.repair_round(solver)", "maxsmt",
                                  defaults[pos], solve_attrs)
        out.append((round_fn, "__defaults__", tuple(defaults)))
        return out

    def wrap_backend(self, backend):
        """Trace `backend.complete`, the LLM layer's one call."""
        backend.complete = self.wrap(
            "backend.complete", "llm", backend.complete,
            lambda a, k, r: {"prompt_bytes": len(a[0].encode())},
        )
        return backend

    def check_reached(self, holefill_used: bool) -> None:
        """Raise TraceError if a wrapped call site was never reached. The
        hole-fill sites count only when some item asked for a fill."""
        never = [s for s in self.sites if not self.reached[s]
                 and (holefill_used or s not in HOLEFILL_SITES)]
        if never:
            raise TraceError(f"wrapped but never reached: {', '.join(never)}")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Seconds each span spent outside its child spans and outside the
    tracer's own counting."""
    out = [s.t1 - s.t0 for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= (s.t1 - s.t0) + s.attr_s
    return out


def layer_metrics(spans: list[Span],
                  scales: list[float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics as (value, unit), each per traced item unless
    named a ratio or per call. `scales[i]` multiplies item i's times."""
    n_items = len(scales)
    selfs = self_times(spans)
    ms_layer: dict[str, float] = defaultdict(float)
    ms_fn: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    for span, st in zip(spans, selfs):
        ms = st * 1000.0 * scales[span.item]
        ms_layer[span.layer] += ms
        ms_fn[(span.layer, span.name)] += ms
        calls[span.name] += 1
        counts.update(span.attrs)
    out = {}
    for metric, (layer, fn) in PER_TASK_TIMES.items():
        total = ms_layer[layer] if fn is None else ms_fn[(layer, fn)]
        out[metric] = (total / n_items, "ms")
    for metric, key in PER_TASK_COUNTS.items():
        unit = "bytes" if key.endswith("bytes") else "count"
        out[metric] = (counts[key] / n_items, unit)
    out["uclid.compile_self_ms_per_task"] = ((
        ms_fn[("uclid", "compile_program")] + ms_fn[("uclid", "lower")]
    ) / n_items, "ms")
    solves = calls["solve_maxsmt"] + calls["check_sat"]
    out["maxsmt.solves_per_task"] = (solves / n_items, "count")
    out["maxsmt.redundant_solve_ratio"] = (
        counts["redundant"] / solves if solves else 0.0, "ratio")
    out["constraints.calls_per_task"] = (
        calls["generate_clauses"] / n_items, "count")
    out["constraints.clauses_per_call"] = (
        counts["clauses_generated"] / calls["generate_clauses"]
        if calls["generate_clauses"] else 0.0, "clauses")
    return out


def scaling_view(spans: list[Span], item_keys: list[str]) -> dict:
    """Mean self milliseconds per layer for each family/size, e.g.
    {"chain/34": {"items": 12, "maxsmt": 20.1, ...}}."""
    selfs = self_times(spans)
    per_key: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span, st in zip(spans, selfs):
        per_key[item_keys[span.item]][span.layer] += st * 1000.0
    n_per_key = Counter(item_keys[i] for i in {s.item for s in spans})
    return {
        key: {"items": n_per_key[key],
              **{layer: round(ms / n_per_key[key], 4)
                 for layer, ms in sorted(layers.items())}}
        for key, layers in sorted(per_key.items(), key=lambda kv: _order(
            kv[0]))
    }


def _order(key: str):
    family, _, size = key.partition("/")
    return family, int(size) if size.isdigit() else 0


def write_spans(spans: list[Span], item_keys: list[str], path: Path) -> None:
    """One JSON object per span; times in milliseconds from the first."""
    origin = spans[0].t0 if spans else 0.0
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "item": s.item, "key": item_keys[s.item], "span": s.sid,
                "parent": s.parent, "layer": s.layer, "name": s.name,
                "start_ms": round((s.t0 - origin) * 1000.0, 4),
                "end_ms": round((s.t1 - origin) * 1000.0, 4),
                **s.attrs,
            }) + "\n")
