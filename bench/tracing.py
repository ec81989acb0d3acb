"""Spans and counters around fundmob's layer functions, installed from
outside the package by swapping module attributes.

``run_pipeline`` reaches every stage through a module attribute
(``disambig.cluster_corpus``, ``periods.label_corpus``, ...), and those
functions find their own callees (``block_authorships``,
``funded_pub_ids``) as module globals, which are the same attributes. So
replacing an attribute with a timing wrapper times every call, and putting
the original back restores the program exactly. ``normalize_text`` is
imported by name into each module, so each module's own binding is
wrapped with a counter that charges the call to the innermost open layer.

Spans stay in memory as (name, start, end, parent, run_id) and are written
out by the caller when the run is over.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable

ROOT_SPAN = "pipeline.run"

#: (module, attribute, span name); a class attribute is "Class.method"
SPANNED = (
    ("corpus", "load_corpus", "corpus.parse"),
    ("corpus", "filter_documents", "corpus.filter"),
    ("disambig", "CorpusIndex.__init__", "disambig.index"),
    ("disambig", "block_authorships", "disambig.block"),
    ("disambig", "cluster_corpus", "disambig.cluster"),
    ("ackminer", "extract_funding_sentences", "ackminer.extract"),
    ("ackminer", "match_funded_authors", "ackminer.match"),
    ("periods", "funded_pub_ids", "periods.funded_ids"),
    ("periods", "label_corpus", "periods.label"),
    ("mobility", "is_mainland_chinese_scholar", "mobility.filter"),
    ("mobility", "assign_mobility", "mobility.assign"),
    ("mobility", "aggregate_flows", "mobility.aggregate"),
    ("mobility", "top_destinations_by_field", "mobility.aggregate"),
    ("indicators", "pp_ic", "indicators.pp_ic"),
    ("indicators", "field_distribution", "indicators.field_dist"),
    ("indicators", "temporal_distribution", "indicators.temporal"),
)

#: modules that import ``normalize_text`` by name
NORMALIZING = ("corpus", "ackminer", "disambig", "periods", "mobility")

LAYERS = ("corpus", "ackminer", "disambig", "periods", "mobility", "indicators", "pipeline")


def patched_attributes() -> list[tuple[str, str]]:
    """Every (module, attribute) that :meth:`Tracer.install` replaces."""
    return [(m, a) for m, a, _ in SPANNED] + [(m, "normalize_text") for m in NORMALIZING]


def resolve(package, module: str, attr: str):
    """``package.module.attr``, where ``attr`` may be ``Class.method``.
    Raises AttributeError when it does not exist."""
    owner = getattr(package, module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _blocks_counted(tracer: "Tracer", blocks) -> None:
    c = tracer.counters
    c["disambig.blocks"] += len(blocks)
    c["disambig.largest_block"] = max([c["disambig.largest_block"]] + [len(b) for b in blocks])
    c["disambig.pairs_considered"] += sum(len(b) * (len(b) - 1) // 2 for b in blocks)


#: span name -> how its return value feeds the counters
RESULT_COUNTERS: dict[str, Callable] = {
    "corpus.parse": lambda t, r: t.counters.update({
        "corpus.records": len(r.records), "corpus.parse_issues": len(r.errors)}),
    "ackminer.extract": lambda t, r: t.counters.update({"ackminer.sentences": len(r)}),
    "ackminer.match": lambda t, r: t.counters.update({"ackminer.matches": len(r)}),
    "disambig.block": _blocks_counted,
    "disambig.cluster": lambda t, r: t.counters.update({"disambig.clusters": len(r)}),
    "periods.funded_ids": lambda t, r: t.counters.update({"periods.funded_ids_calls": 1}),
    "periods.label": lambda t, r: t.counters.update({"periods.pairs": len(r.pairs)}),
    "mobility.assign": lambda t, r: t.counters.update({"mobility.assignments": 1}),
}


class Tracer:
    """Records spans and counters for one traced pipeline run."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: Counter[str] = Counter()
        self.normalize_calls: Counter[str] = Counter()
        self._open: list[int] = []        # indices of open spans
        self._layers: list[str] = []      # layer of each open span
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._open.append(index)
        self._layers.append(name.partition(".")[0])
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self._layers.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)
        count = RESULT_COUNTERS.get(name)
        if count is not None:
            count(self, result)
        return result

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the layer functions of the imported ``fundmob`` package.

        Every attribute in SPANNED and NORMALIZING must exist: a function
        that was renamed or inlined would otherwise read 0, which looks
        like a gain. Nothing is patched unless all of them resolve."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        missing = []
        for module_name, attr in patched_attributes():
            try:
                resolve(package, module_name, attr)
            except AttributeError:
                missing.append(f"{module_name}.{attr}")
        if missing:
            raise AttributeError(f"traced attributes missing, update tracing.SPANNED: {', '.join(missing)}")
        for module_name, attr, span in SPANNED:
            owner = getattr(package, module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._spanning(span, getattr(owner, attr)))
        for module_name in NORMALIZING:
            module = getattr(package, module_name)
            self._patch(module, "normalize_text", self._counting(module.normalize_text))

    def uninstall(self) -> None:
        """Put every original attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _spanning(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)
        return wrapper

    def _counting(self, func: Callable) -> Callable:
        calls, layers = self.normalize_calls, self._layers

        @functools.wraps(func)
        def wrapper(text):
            calls[layers[-1] if layers else "outside"] += 1
            return func(text)
        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "normalize_calls": dict(self.normalize_calls),
        }


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-span-name totals (``<name>_total``) and self times
    (``<name>_self``), per-layer self times (``layer.<layer>_self``) and
    the root duration (``run``). Self time is a span's duration minus its
    direct children's durations, so all self times add up to the root."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter[str] = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        out[f"{name}_total"] += duration
        out[f"{name}_self"] += duration - child_time[i]
        out[f"layer.{name.partition('.')[0]}_self"] += duration - child_time[i]
        if parent < 0:
            out["run"] += duration
    return dict(out)
