"""Layer wrappers for the traced benchmark run.

``Tracer.install`` replaces public functions of each ordlab module with
wrappers defined here; nothing in the package changes.  A function is
replaced wherever the package holds it: as the module attribute, as a
name another ordlab module imported directly (``ordlab.campaigns``,
``ordlab.cli``, ``ordlab.morphisms`` and ``ordlab.catalog`` do), and on
its class for methods.

Hot functions run millions of times, so a wrapper only adds to
aggregate counters: a call count and the layer's self time, which is
the wrapper's elapsed time minus the time spent in nested wrapped
calls.  Spans (name, start, end, parent) are recorded only at coarse
boundaries: command, campaign, pool build, hom enumeration and the
per-hom checks.  Everything stays in memory until ``export``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

Measure = Callable[["Tracer", object], None]


def _add_len(counter: str) -> Measure:
    def measure(tracer: "Tracer", result: object) -> None:
        tracer.counts[counter] += len(result)

    return measure


def _add_attr(counter: str, attr: str) -> Measure:
    def measure(tracer: "Tracer", result: object) -> None:
        tracer.counts[counter] += getattr(result, attr)

    return measure


def _posets_enumerated(tracer: "Tracer", result: object) -> None:
    # all_posets is cached per carrier size: count each size once, as
    # the enumeration itself runs once per size in a process
    size = result[0].n if result else None
    if size not in tracer.seen_sizes:
        tracer.seen_sizes.add(size)
        tracer.counts["catalog.posets_enumerated"] += len(result)


def _opens_materialized(tracer: "Tracer", result: object) -> None:
    # closed_family() calls opens(); count that family once
    if not tracer.active["closed_family"]:
        tracer.counts["topology.sets_materialized"] += len(result)


@dataclass(frozen=True)
class Hook:
    module: str  # ordlab submodule
    attr: str  # "function", "Class.method" or "Class.cached_property"
    time: Optional[str] = None  # self-time metric; None for count-only hooks
    count: Optional[str] = None  # call-count metric
    measure: Optional[Measure] = None  # adds to a counter from the result
    span: Optional[str] = None  # record a span under this name


def _hooks() -> list[Hook]:
    hooks = []

    def add(module: str, attrs: str, time: Optional[str] = None, count: Optional[str] = None, **kw):
        for attr in attrs.split():
            hooks.append(Hook(module, attr, time, count, **kw))

    bound = "order_core.bound_self_s"
    add("order_core", "Poset.upper_bounds_mask Poset.lower_bounds_mask", bound, "order_core.bound_calls")
    add("order_core", "Poset.infimum_mask Poset.supremum_mask Poset.meet Poset.join", bound, "order_core.bound_calls")
    add("order_core", "Poset.certificate", "order_core.certify_s", "order_core.certify_calls")
    add("order_core", "poset_from_dict build_poset", "order_core.parse_s")
    add("order_core", "boolean_power product", "order_core.construct_s")
    add("order_core", "are_order_isomorphic", "order_core.iso_s", "order_core.iso_calls")

    add("catalog", "all_posets", "catalog.enum_s", measure=_posets_enumerated)
    add("catalog", "all_lattices", "catalog.enum_s")
    add("catalog", "all_posets_up_to", "catalog.enum_s", span="pool")
    add("catalog", "iso_representatives", "catalog.iso_s")
    add("catalog", "library_posets library_lattices random_poset random_lattice", "catalog.pool_s")
    add("campaigns", "_random_posets _random_lattices", "catalog.pool_s")
    add("campaigns", "_lattice_pool", "catalog.pool_s", span="pool")

    gen = "topology.generate_s"
    add("topology", "interval_topology lower_topology upper_topology", gen)
    add("topology", "from_closed_subbasis from_open_subbasis product_topology", gen, "topology.tables_built")
    add("topology", "FiniteTopology.closed_family", measure=_add_len("topology.sets_materialized"))
    add("topology", "FiniteTopology.opens", measure=_opens_materialized)
    add("topology", "is_hausdorff is_t1 is_discrete", "topology.separation_s")

    add("morphisms", "classify", "morphisms.enum_s", "morphisms.maps_classified")
    add(
        "morphisms", "enumerate_homs", "morphisms.enum_s",
        measure=_add_len("morphisms.homs_enumerated"), span="enumerate_homs",
    )
    add(
        "morphisms", "preimage_scan", "morphisms.preimage_s",
        measure=_add_attr("morphisms.intervals_scanned", "intervals_checked"), span="check preimage_scan",
    )
    add("morphisms", "preimage_interval_analysis", "morphisms.preimage_s")
    add(
        "morphisms", "is_continuous", "morphisms.continuity_s", "morphisms.continuity_checks",
        span="check is_continuous",
    )
    conv = "morphisms.convergence_s"
    add("morphisms", "check_image_convergence", conv, "morphisms.convergence_checks", span="check image_convergence")
    add("morphisms", "check_star_preservation", conv, "morphisms.convergence_checks", span="check star_preservation")
    add("morphisms", "image_filter", conv)
    add("morphisms", "check_image_filter_inclusion", "morphisms.inclusion_s", "morphisms.inclusion_checks")

    add("filters", "SetFilter.__post_init__", count="filters.filters_built")
    add("filters", "upper_iff_downset", "filters.fact_s", "filters.fact_checks")
    add("filters", "order_converges", "filters.convergence_self_s", "filters.order_conv_calls")
    add("filters", "star_converges", "filters.convergence_self_s", "filters.star_conv_calls")
    add("filters", "super_filters convergence_points", "filters.convergence_self_s")
    add("filters", "order_convergence_is_pointlike", "filters.pointlike_s")

    add("breadth", "compute_breadth", "breadth.compute_s", "breadth.reports")
    add("breadth", "compute_dual_breadth has_breadth_at_most is_irredundant", "breadth.compute_s")

    add(
        "campaigns", "run_campaign", "campaigns.loop_self_s",
        measure=_add_attr("campaigns.instances_checked", "instances_checked"), span="campaign",
    )
    return hooks


HOOKS = _hooks()

# Every counter and self-time metric a traced command reports, zero when
# the command never reached the layer.
COUNTERS = sorted(
    {h.count for h in HOOKS if h.count}
    | {
        "catalog.posets_enumerated",
        "topology.sets_materialized",
        "morphisms.homs_enumerated",
        "morphisms.intervals_scanned",
        "campaigns.instances_checked",
    }
)
TIMES = sorted({h.time for h in HOOKS if h.time})


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.seen_sizes: set = set()
        self.spans: list[list] = []  # [name, start_s, end_s, parent index or None]
        self._open_spans: list[int] = []
        self._nested: list[float] = []  # per open timed call: time spent in wrapped callees

    # -- spans ------------------------------------------------------------

    def begin_span(self, name: str) -> None:
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end_span(self) -> None:
        self.spans[self._open_spans.pop()][2] = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn: Callable, hook: Hook, name: str) -> Callable:
        counts, times, active, nested = self.counts, self.times, self.active, self._nested
        clock = time.perf_counter
        time_key, count_key, measure, span = hook.time, hook.count, hook.measure, hook.span

        if time_key is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if count_key:
                    counts[count_key] += 1
                active[name] += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    active[name] -= 1
                if measure:
                    measure(self, result)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if count_key:
                counts[count_key] += 1
            if span:
                self.begin_span(span)
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                times[time_key] += elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
                if span:
                    self.end_span()
            if measure:
                measure(self, result)
            return result

        return timed

    def install(self) -> None:
        """Replace every hooked function in the loaded ordlab modules."""
        modules = [m for k, m in sys.modules.items() if k == "ordlab" or k.startswith("ordlab.")]
        for hook in HOOKS:
            owner = sys.modules[f"ordlab.{hook.module}"]
            if "." in hook.attr:
                cls_name, member = hook.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, functools.cached_property):
                    original.func = self._wrap(original.func, hook, member)
                else:
                    setattr(cls, member, self._wrap(original, hook, member))
                continue
            original = getattr(owner, hook.attr)
            wrapper = self._wrap(original, hook, hook.attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def export(self) -> dict:
        return {
            "counts": {k: self.counts.get(k, 0) for k in COUNTERS},
            "times": {k: self.times.get(k, 0.0) for k in TIMES},
            "spans": self.spans,
        }
