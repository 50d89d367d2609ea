"""Spans around the program's layer functions, installed from outside the
package.

Each target function is replaced by a wrapper in every `semibrace` module
namespace that binds it (`classify` imports `verify`, `homomorphisms` and
others by name, `cli` imports the census entry points), or on its class for
a method.  A wrapper records one span (id, parent, name, run id, start,
end) per call and may add to named counters.  Spans stay in memory until
the run writes them out.  A target the program no longer defines is
skipped and reported in `missing`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Circle groups of order 8 by their sorted element orders, which tell the
# five groups apart.  Names, not catalogue indices, label the funnel because
# the catalogue order is an implementation detail.
FUNNEL_GROUPS = {
    (1, 2, 4, 4, 8, 8, 8, 8): "C8",
    (1, 2, 2, 2, 4, 4, 4, 4): "C4xC2",
    (1, 2, 2, 2, 2, 2, 2, 2): "C2xC2xC2",
    (1, 2, 2, 2, 2, 2, 4, 4): "D8",
    (1, 2, 4, 4, 4, 4, 4, 4): "Q8",
}


def group_name(table):
    """FUNNEL_GROUPS name of a circle-group table with identity 0, or None."""
    n = len(table)
    if n != 8:
        return None
    orders = []
    for x in range(n):
        k, y = 1, x
        while y != 0:
            y = int(table[y][x])
            k += 1
        orders.append(k)
    return FUNNEL_GROUPS.get(tuple(sorted(orders)))


# --- counters -----------------------------------------------------------------


def _count_homs(c, args, result):
    c["tables.homomorphisms.found"] += len(result)


def _count_candidates(c, args, result):
    k = int(result[0].shape[0])
    c["classify.generator_images.candidates"] += k
    name = group_name(args[0].table)
    if name:
        c[f"classify.funnel.{name}.candidates"] += k


def _count_survivors(c, args, result):
    c["classify.sweep.survivors"] += len(result)
    name = group_name(args[0].table)
    if name:
        c[f"classify.funnel.{name}.survivors"] += len(result)


def _count_generic_census(c, args, result):
    c["classify.census.classes"] += len(result)
    for entry in result:
        name = group_name(entry.semibrace.circ.table)
        if name:
            c[f"classify.funnel.{name}.classes"] += 1


def _count_census(c, args, result):
    c["classify.census.classes"] += len(result)


def _count_cache_load(c, args, result):
    if args[0] is None:
        return
    if result is None:
        c["classify.cache.misses"] += 1
    else:
        c["classify.cache.hits"] += 1
        c["classify.cache.hit_classes"] += len(result)


# (module, attribute, span name, counter).  A dotted attribute is a method.
TARGETS = (
    ("tables", "check_group", "tables.check_group", None),
    ("tables", "check_left_cancellative_semigroup", "tables.check_left_cancellative_semigroup", None),
    ("tables", "perm_group", "tables.perm_group", None),
    ("tables", "isomorphisms", "tables.isomorphisms", None),
    ("tables", "homomorphisms", "tables.homomorphisms", _count_homs),
    ("core", "verify", "core.verify", None),
    ("core", "skew_part", "core.skew_part", None),
    ("core", "brace_automorphism_group", "core.brace_automorphism_group", None),
    ("construct", "family", "construct.family", None),
    ("construct", "semidirect", "construct.semidirect", None),
    ("classify", "small_groups", "classify.small_groups", None),
    ("classify", "_generator_image_sets", "classify.generator_images", _count_candidates),
    ("classify", "_survivor_tables", "classify.sweep", _count_survivors),
    ("classify", "fingerprint", "classify.fingerprint", None),
    ("classify", "_iso_search", "classify.iso_search", None),
    ("classify", "isomorphic", "classify.isomorphic", None),
    ("classify", "_Dedup.add", "classify.dedup", None),
    ("classify", "enumerate_generic", "classify.census", _count_generic_census),
    ("classify", "enumerate_structural", "classify.census", _count_census),
    ("classify", "verify_classification", "classify.verify_classification", None),
    ("classify", "_cache_load", "classify.cache.load", _count_cache_load),
    ("classify", "_cache_store", "classify.cache.store", None),
    ("nilpotency", "right_series", "nilpotency.series", None),
    ("nilpotency", "left_series", "nilpotency.series", None),
    ("nilpotency", "is_right_nil", "nilpotency.series", None),
    ("nilpotency", "is_left_nil", "nilpotency.series", None),
    ("ybe", "solution_from", "ybe.solution_from", None),
    ("ybe", "check_braid", "ybe.check_braid", None),
    ("ybe", "check_properties", "ybe.check_properties", None),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, run id, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.counter_errors = 0
        self.missing: list[str] = []

    def wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = [sid, tracer.stack[-1] if tracer.stack else None, name, tracer.run_id,
                    time.perf_counter(), None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                try:
                    count(tracer.counters, args, result)
                except (TypeError, AttributeError, IndexError, KeyError, ValueError):
                    # the program changed a signature or a result shape
                    tracer.counter_errors += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded semibrace module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "semibrace" or name.startswith("semibrace."))]
        for modname, attr, name, count in TARGETS:
            owner = sys.modules.get(f"semibrace.{modname}")
            cls_name, _, fn_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, fn_name, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(orig, name, count)
            if cls_name:
                setattr(owner, fn_name, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "counter_errors": self.counter_errors,
            "missing": self.missing,
        }


def aggregate(dumps: list[dict]) -> dict:
    """Per span name: self time (duration minus child spans), inclusive time
    and calls; plus summed counters and the time covered by top-level spans."""
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(float)
    top = 0.0
    errors = 0
    missing = set()
    for dump in dumps:
        child = defaultdict(float)
        for sid, parent, name, run, start, end in dump["spans"]:
            if parent is not None:
                child[parent] += end - start
        for sid, parent, name, run, start, end in dump["spans"]:
            dur = end - start
            self_s[name] += dur - child[sid]
            incl_s[name] += dur
            calls[name] += 1
            if parent is None:
                top += dur
        for key, value in dump["counters"].items():
            counters[key] += value
        errors += dump["counter_errors"]
        missing.update(dump["missing"])
    return {
        "self_s": self_s,
        "incl_s": incl_s,
        "calls": calls,
        "counters": counters,
        "top_s": top,
        "counter_errors": errors,
        "missing": sorted(missing),
    }
