"""Verification campaigns: sweep a named check over an instance family.

Each campaign iterates one statement-level check over the deterministic
library (chains, bounded antichains, n-bit vector lattices, M3, N5,
products) plus optional seeded random instances.  Campaigns are expected
to pass; a counterexample signals an implementation bug and is surfaced
loudly with a re-checkable witness.

One table, :data:`CAMPAIGNS`, describes every campaign and one loop,
:func:`run_campaign`, runs it.  The sources and checks look the functions
of ``catalog``, ``topology``, ``morphisms`` and ``breadth`` up through
the module at call time, so replacing such a module attribute (a test
double, a tracing wrapper) reaches every campaign; the ``order_core``
names, the subset tables among them, are imported directly.  A check
builds its subset tables unguarded: its instance source holds each size
to the subset cap once, before the first instance of that size reaches
the check.
"""

from __future__ import annotations

import itertools
import math
from random import Random
from typing import Callable, Iterable, NamedTuple, Optional

from . import breadth as breadth_mod
from . import catalog
from . import morphisms as morph
from . import topology as topo
from .errors import MalformedInputError
from .limits import check_subset_elements
from .order_core import (
    Poset,
    _downset_member_table,
    _image_table,
    boolean_power,
    mask_of,
    poset_to_dict,
    product,
    subset_intersection_table,
)


class _SpecFields(NamedTuple):
    name: str
    size_limit: int
    trials: int
    seed: int


class CampaignSpec(_SpecFields):
    __slots__ = ()

    def __new__(cls, name: str, size_limit: int, trials: int = 0, seed: int = 0) -> CampaignSpec:
        if name not in CAMPAIGN_NAMES:
            raise ValueError(f"unknown campaign {name!r}")
        if size_limit < 1:
            raise ValueError("size limit must be positive")
        if trials < 0:
            raise ValueError("trials must be nonnegative")
        return super().__new__(cls, name, size_limit, trials, seed)

    def to_dict(self) -> dict:
        return self._asdict()


class CampaignResult(NamedTuple):
    spec: CampaignSpec
    instances_checked: int
    status: str  # "pass" | "counterexample"
    witness: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "campaign": self.spec.to_dict(),
            "instances_checked": self.instances_checked,
            "status": self.status,
            "witness": self.witness,
        }


def _random_posets(spec: CampaignSpec) -> list[Poset]:
    rng = Random(spec.seed)
    limit = spec.size_limit
    return [catalog.random_poset(rng.randint(min(2, limit), limit), rng) for _ in range(spec.trials)]


def _random_lattices(spec: CampaignSpec) -> list[Poset]:
    # none at limit 1: the one 1-element lattice is in the library pool
    span = spec.size_limit - 1
    trials = spec.trials if span else 0
    return [catalog.random_lattice(2 + (spec.seed + i) % span, spec.seed + i) for i in range(trials)]


def _lattice_pool(spec: CampaignSpec) -> list[Poset]:
    return [p for _, p in catalog.library_lattices(spec.size_limit)] + _random_lattices(spec)


def _poset_witness(p: Poset, **extra) -> dict:
    return {"poset": poset_to_dict(p), **extra}


# -- instance sources: (spec) -> instances ----------------------------------


def _every_poset(spec: CampaignSpec):
    """Every labelled poset up to the limit, size by size, then the random
    ones.  Each size is held to the subset cap of the check's tables
    before its posets are read; no random poset exceeds the limit."""
    for k in range(1, spec.size_limit + 1):
        check_subset_elements(k, "upper-bounds table")
        yield from catalog.all_posets(k)
    yield from _random_posets(spec)


def _complete_homs(spec: CampaignSpec, with_topologies: bool = False):
    """``(hom, t_dom, t_cod)`` for every complete hom between two pool
    lattices; the interval topologies of its ends are built once per
    lattice when asked for, else None."""
    pool = _lattice_pool(spec)
    tops = [topo.interval_topology(p) if with_topologies else None for p in pool]
    for dom, t_dom in zip(pool, tops):
        for cod, t_cod in zip(pool, tops):
            for hom in morph.enumerate_homs(dom, cod):
                yield hom, t_dom, t_cod


_PRODUCT_FACTORS: tuple[Callable[[], Poset], ...] = (
    lambda: catalog.two(), lambda: catalog.chain(3), lambda: boolean_power(2), lambda: catalog.m3()
)


def _product_factors(spec: CampaignSpec):
    for arity in (2, 3):
        for combo in itertools.combinations_with_replacement(range(len(_PRODUCT_FACTORS)), arity):
            factors = [_PRODUCT_FACTORS[i]() for i in combo]
            if math.prod(f.n for f in factors) <= spec.size_limit:
                yield factors


def _maps_between_carriers(spec: CampaignSpec):
    carriers = [catalog.chain(k) for k in range(1, spec.size_limit + 1)]
    carriers.extend(_random_posets(spec))
    for dom in carriers:
        check_subset_elements(dom.n, "image table")  # the check's table, for every map from dom
        for cod in carriers:
            for mapping in itertools.product(range(cod.n), repeat=dom.n):
                yield dom, cod, mapping


# -- checks: instance -> (checks run, witness or None) ----------------------


def _check_breadth_2n(n: int) -> tuple[int, Optional[dict]]:
    lattice = boolean_power(n)
    report = breadth_mod.compute_breadth(lattice)
    family = mask_of(breadth_mod.coatom_family(n))
    if (
        report.breadth == n
        and breadth_mod.is_irredundant(lattice, report.witness)
        and breadth_mod.is_irredundant(lattice, family)
        and lattice.infimum_mask(family) == lattice.bottom
    ):
        return 1, None
    return 1, _poset_witness(
        lattice,
        check="breadth",
        expected=n,
        computed=report.breadth,
        witness=lattice.labels_of(report.witness),
    )


def _check_fact_1_1(p: Poset) -> tuple[int, Optional[dict]]:
    # all (generator, point) pairs at once: the first failing pair, generator-
    # major and point-minor, is the lowest bit of the first differing entry
    upper = subset_intersection_table(p.up, p.full_mask)
    downs = _downset_member_table(p)
    if upper == downs:
        return p.full_mask * p.n, None
    gen = next(m for m in range(len(upper)) if upper[m] != downs[m])
    diff = upper[gen] ^ downs[gen]
    x = (diff & -diff).bit_length() - 1
    return (gen - 1) * p.n + x + 1, _poset_witness(
        p, check="upper-iff-downset", generator=p.labels_of(gen), point=p.labels[x]
    )


def _check_hausdorff(p: Poset) -> tuple[int, Optional[dict]]:
    t = topo.interval_topology(p)
    if topo.is_discrete(t) and topo.is_hausdorff(t):
        return 1, None
    return 1, _poset_witness(p, check="interval-topology-discrete")


def _check_product_lemma(factors: list[Poset]) -> tuple[int, Optional[dict]]:
    prod = product(factors)
    lhs = topo.interval_topology(prod)
    rhs = topo.product_topology([topo.interval_topology(f) for f in factors])
    if topo.topologies_equal(lhs, rhs):
        return 1, None
    return 1, _poset_witness(prod, check="interval-vs-product-topology")


def _check_prop_2_1(instance) -> tuple[int, Optional[dict]]:
    # the full scan covers the principal intervals [bottom, x] and [x, top]
    hom, t_dom, t_cod = instance
    scan = morph.preimage_scan(hom)
    if scan.all_interval_or_empty and morph.is_continuous(hom.mapping, t_dom, t_cod):
        return 1, None
    return 1, {
        "check": "preimage-intervals-and-continuity",
        "hom": morph.hom_to_dict(hom),
        "failure_interval": scan.failure_interval,
    }


def _limits_preserved(sweep: Callable, check: str, hom) -> tuple[int, Optional[dict]]:
    report = sweep(hom)
    if report.passed:
        return 1, None
    return 1, {"check": check, "hom": morph.hom_to_dict(hom), "witness": report.witness}


def _check_lemma_2(instance) -> tuple[int, Optional[dict]]:
    return _limits_preserved(morph.check_image_convergence, "image-order-convergence", instance[0])


def _check_star_preservation(instance) -> tuple[int, Optional[dict]]:
    return _limits_preserved(morph.check_star_preservation, "image-star-convergence", instance[0])


def _check_lemma_3(instance) -> tuple[int, Optional[dict]]:
    dom, cod, mapping = instance
    images = _image_table(mapping)
    # fine ⊂ coarse is a chain of covers (one point dropped) through subsets of
    # coarse, so the first coarse with a failing pair is the first with a failing
    # cover; only its pairs are then walked, in decreasing order, for the witness
    for coarse in range(3, len(images)):
        outside = ~images[coarse]
        rest = coarse
        while rest:
            low = rest & -rest
            rest ^= low
            if coarse != low and images[coarse ^ low] & outside:
                checked = sum((1 << c.bit_count()) - 1 for c in range(1, coarse))
                fine = coarse
                while not images[fine] & outside:
                    checked += 1
                    fine = (fine - 1) & coarse
                return checked + 1, {
                    "check": "image-filter-inclusion",
                    "domain": poset_to_dict(dom),
                    "codomain": poset_to_dict(cod),
                    "map": list(mapping),
                    "coarse_generator": dom.labels_of(coarse),
                    "fine_generator": dom.labels_of(fine),
                }
    return 3**dom.n - 2**dom.n, None


class Campaign(NamedTuple):
    default_limit: int
    cap: Optional[int]  # largest accepted size limit; None: only the resource guards apply
    instances: Callable[[CampaignSpec], Iterable]
    check: Callable[[object], tuple[int, Optional[dict]]]


CAMPAIGNS = {
    # the exponents n with 2^n <= the limit
    "breadth-2n": Campaign(16, 16, lambda spec: range(1, spec.size_limit.bit_length()), _check_breadth_2n),
    "fact-1-1": Campaign(5, 6, _every_poset, _check_fact_1_1),
    "hausdorff": Campaign(
        8, 64, lambda spec: [p for _, p in catalog.library_posets(spec.size_limit)] + _random_posets(spec),
        _check_hausdorff,
    ),
    "lemma-2": Campaign(5, None, _complete_homs, _check_lemma_2),
    "lemma-3": Campaign(4, 5, _maps_between_carriers, _check_lemma_3),
    "product-lemma": Campaign(64, 64, _product_factors, _check_product_lemma),
    "prop-2-1": Campaign(6, None, lambda spec: _complete_homs(spec, True), _check_prop_2_1),
    "star-preservation": Campaign(5, None, _complete_homs, _check_star_preservation),
}

CAMPAIGN_NAMES = tuple(CAMPAIGNS)


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run the named campaign; pass or first counterexample with witness.

    A size limit above the campaign's cap is rejected, never clamped.
    """
    campaign = CAMPAIGNS[spec.name]
    if campaign.cap is not None and spec.size_limit > campaign.cap:
        raise MalformedInputError(
            f"campaign {spec.name}: size limit {spec.size_limit} is above its cap {campaign.cap}"
        )
    checked = 0
    for instance in campaign.instances(spec):
        runs, witness = campaign.check(instance)
        checked += runs
        if witness is not None:
            return CampaignResult(spec, checked, "counterexample", witness)
    return CampaignResult(spec, checked, "pass", None)
