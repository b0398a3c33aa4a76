"""Verification campaigns: sweep a named check over an instance family.

Each campaign iterates one statement-level check over the deterministic
library (chains, bounded antichains, n-bit vector lattices, M3, N5,
products) plus optional seeded random instances.  Campaigns are expected
to pass; a counterexample signals an implementation bug and is surfaced
loudly with a re-checkable witness.
"""

from __future__ import annotations

from random import Random
from typing import Callable, NamedTuple, Optional

from . import breadth as breadth_mod
from . import filters as filters_mod
from . import morphisms as morph
from . import topology as topo
from .catalog import (
    all_posets_up_to,
    chain,
    library_lattices,
    library_posets,
    m3,
    random_lattice,
    random_poset,
    two,
)
from .limits import Limits
from .order_core import ElementSet, Poset, Record, boolean_power, poset_to_dict, product

CAMPAIGN_NAMES = (
    "breadth-2n",
    "fact-1-1",
    "hausdorff",
    "lemma-2",
    "lemma-3",
    "product-lemma",
    "prop-2-1",
    "star-preservation",
)

DEFAULT_SIZE_LIMITS = {
    "breadth-2n": 16,
    "fact-1-1": 5,
    "hausdorff": 8,
    "lemma-2": 5,
    "lemma-3": 4,
    "product-lemma": 64,
    "prop-2-1": 6,
    "star-preservation": 5,
}


class CampaignSpec(Record):
    __slots__ = _fields = ("name", "size_limit", "trials", "seed")

    def __init__(self, name: str, size_limit: int, trials: int = 0, seed: int = 0) -> None:
        if name not in CAMPAIGN_NAMES:
            raise ValueError(f"unknown campaign {name!r}")
        if size_limit < 1:
            raise ValueError("size limit must be positive")
        if trials < 0:
            raise ValueError("trials must be nonnegative")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "size_limit", size_limit)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "size_limit": self.size_limit,
            "trials": self.trials,
            "seed": self.seed,
        }


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


def _random_posets(spec: CampaignSpec, max_size: int) -> list[Poset]:
    rng = Random(spec.seed)
    hi = max(2, min(spec.size_limit, max_size))
    return [random_poset(rng.randint(2, hi), rng) for _ in range(spec.trials)]


def _random_lattices(spec: CampaignSpec, max_size: int) -> list[Poset]:
    hi = max(2, min(spec.size_limit, max_size))
    out = []
    for i in range(spec.trials):
        size = 2 + (spec.seed + i) % (hi - 1) if hi > 2 else 2
        out.append(random_lattice(size, spec.seed + i))
    return out


def _lattice_pool(spec: CampaignSpec) -> list[Poset]:
    pool = [p for _, p in library_lattices(spec.size_limit)]
    pool.extend(_random_lattices(spec, spec.size_limit))
    return pool


def _poset_witness(p: Poset, **extra) -> dict:
    doc = {"poset": poset_to_dict(p)}
    doc.update(extra)
    return doc


def _run_breadth_2n(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    checked = 0
    n = 1
    while (1 << n) <= spec.size_limit and n <= 4:
        lattice = boolean_power(n, limits)
        report = breadth_mod.compute_breadth(lattice, limits=limits)
        checked += 1
        family = breadth_mod.coatom_family(n)
        family_set = ElementSet.from_indices(lattice, family)
        ok = (
            report.breadth == n
            and breadth_mod.is_irredundant(lattice, report.witness)
            and breadth_mod.is_irredundant(lattice, family_set)
            and lattice.infimum(family_set) == lattice.bottom
        )
        if not ok:
            return checked, _poset_witness(
                lattice,
                check="breadth",
                expected=n,
                computed=report.breadth,
                witness=list(report.witness.member_labels),
            )
        n += 1
    return checked, None


def _run_fact_1_1(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    pool = all_posets_up_to(min(spec.size_limit, 5))
    pool.extend(_random_posets(spec, 8))
    checked = 0
    for p in pool:
        upper_bounds = p.upper_bounds_table(limits)
        for gen in range(1, p.full_mask + 1):
            f = filters_mod.SetFilter(p, gen)
            for x in range(p.n):
                checked += 1
                if not filters_mod.upper_iff_downset(f, x, upper_bounds):
                    return checked, _poset_witness(
                        p,
                        check="upper-iff-downset",
                        generator=list(ElementSet(p, gen).member_labels),
                        point=p.labels[x],
                    )
    return checked, None


def _run_hausdorff(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    cap = min(spec.size_limit, 8)
    pool = [p for _, p in library_posets(cap)]
    pool.extend(_random_posets(spec, cap))
    checked = 0
    for p in pool:
        t = topo.interval_topology(p)
        checked += 1
        if not (topo.is_discrete(t) and topo.is_hausdorff(t)):
            return checked, _poset_witness(p, check="interval-topology-discrete")
    return checked, None


_PRODUCT_FACTORS: tuple[Callable[[], Poset], ...] = (two, lambda: chain(3), lambda: boolean_power(2), m3)


def _run_product_lemma(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    import itertools

    factories = list(_PRODUCT_FACTORS)
    checked = 0
    for arity in (2, 3):
        for combo in itertools.combinations_with_replacement(range(len(factories)), arity):
            factors = [factories[i]() for i in combo]
            size = 1
            for f in factors:
                size *= f.n
            if size > spec.size_limit:
                continue
            prod = product(factors, limits)
            lhs = topo.interval_topology(prod)
            rhs = topo.product_topology([topo.interval_topology(f) for f in factors], limits)
            checked += 1
            if not topo.topologies_equal(lhs, rhs):
                return checked, _poset_witness(prod, check="interval-vs-product-topology")
    return checked, None


def _run_prop_2_1(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    pool = _lattice_pool(spec)
    checked = 0
    for dom in pool:
        t_dom = topo.interval_topology(dom)
        for cod in pool:
            t_cod = topo.interval_topology(cod)
            for hom in morph.enumerate_homs(dom, cod, morph.Classification.COMPLETE_HOM, limits):
                checked += 1
                scan = morph.preimage_scan(hom)
                principal = morph.preimage_scan(hom, principal_only=True)
                continuous = morph.is_continuous(hom, t_dom, t_cod, limits)
                if not (scan.all_interval_or_empty and principal.all_interval_or_empty and continuous):
                    return checked, {
                        "check": "preimage-intervals-and-continuity",
                        "hom": morph.hom_to_dict(hom),
                        "failure_interval": scan.failure_interval or principal.failure_interval,
                    }
    return checked, None


def _run_lemma_2(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    return _run_hom_filter_check(spec, limits, morph.check_image_convergence, "image-order-convergence")


def _run_star_preservation(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    return _run_hom_filter_check(spec, limits, morph.check_star_preservation, "image-star-convergence")


def _run_hom_filter_check(
    spec: CampaignSpec, limits: Limits | None, check, check_name: str
) -> tuple[int, Optional[dict]]:
    pool = _lattice_pool(spec)
    pointlike: dict[int, bool] = {}
    checked = 0
    for i, dom in enumerate(pool):
        if i not in pointlike:
            pointlike[i] = filters_mod.order_convergence_is_pointlike(dom)
        for cod in pool:
            for hom in morph.enumerate_homs(dom, cod, morph.Classification.COMPLETE_HOM, limits):
                checked += 1
                report = check(hom, singleton_only=pointlike[i])
                if not report.passed:
                    return checked, {
                        "check": check_name,
                        "hom": morph.hom_to_dict(hom),
                        "witness": report.witness,
                    }
    return checked, None


def _run_lemma_3(spec: CampaignSpec, limits: Limits | None) -> tuple[int, Optional[dict]]:
    import itertools

    cap = min(spec.size_limit, 4)
    carriers = [chain(k) for k in range(1, cap + 1)]
    carriers.extend(_random_posets(spec, cap))
    checked = 0
    for dom in carriers:
        for cod in carriers:
            for mapping in itertools.product(range(cod.n), repeat=dom.n):
                images = morph.image_table(mapping, limits)
                for gen_coarse in range(1, dom.full_mask + 1):
                    coarse = filters_mod.SetFilter(dom, gen_coarse)
                    gen_fine = gen_coarse
                    while gen_fine:
                        fine = filters_mod.SetFilter(dom, gen_fine)
                        checked += 1
                        if not morph.check_image_filter_inclusion(mapping, coarse, fine, images):
                            return checked, {
                                "check": "image-filter-inclusion",
                                "domain": poset_to_dict(dom),
                                "codomain": poset_to_dict(cod),
                                "map": list(mapping),
                                "coarse_generator": list(ElementSet(dom, gen_coarse).member_labels),
                                "fine_generator": list(ElementSet(dom, gen_fine).member_labels),
                            }
                        gen_fine = (gen_fine - 1) & gen_coarse
    return checked, None


_RUNNERS = {
    "breadth-2n": _run_breadth_2n,
    "fact-1-1": _run_fact_1_1,
    "hausdorff": _run_hausdorff,
    "lemma-2": _run_lemma_2,
    "lemma-3": _run_lemma_3,
    "product-lemma": _run_product_lemma,
    "prop-2-1": _run_prop_2_1,
    "star-preservation": _run_star_preservation,
}


def run_campaign(spec: CampaignSpec, limits: Limits | None = None) -> CampaignResult:
    """Run the named campaign; pass or first counterexample with witness."""
    runner = _RUNNERS[spec.name]
    checked, witness = runner(spec, limits)
    if witness is None:
        return CampaignResult(spec, checked, "pass", None)
    return CampaignResult(spec, checked, "counterexample", witness)
