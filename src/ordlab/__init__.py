"""Finite order-theory laboratory.

Posets and lattices on small carriers, the interval topology and its
relatives, set-filter convergence, lattice homomorphism classification,
and breadth, together with exhaustive verification campaigns over
generated instance families.

Every module of ``_EXPORTS`` is registered in ``sys.modules`` here but
compiled and run only when one of its attributes is first read, and the
names it lists are resolved through that module on each read, so a CLI
process loads only the modules its command uses.
"""

import importlib.util
import sys

_EXPORTS = {
    "breadth": "BreadthCheck BreadthReport coatom coatom_family compute_breadth compute_dual_breadth "
    "has_breadth_at_most is_irredundant",
    "campaigns": "CAMPAIGN_NAMES CampaignResult CampaignSpec run_campaign",
    "catalog": "all_lattices all_posets antichain_bounded chain library_lattices library_posets m3 n5 "
    "named_poset random_lattice random_poset two",
    "errors": "LimitExceededError MalformedInputError OrdlabError",
    "filters": "SetFilter limit_mask order_converges star_converges super_filters upper_iff_downset",
    "limits": "Limits default_limits",
    "morphisms": "Classification LatticeHom check_image_convergence check_image_filter_inclusion "
    "check_star_preservation classify enumerate_homs image_filter is_continuous preimage_interval_analysis "
    "preimage_scan",
    "order_core": "LatticeCert Poset are_order_isomorphic boolean_power build_poset poset_from_dict "
    "poset_to_dict product variant_distributive_identity_holds",
    "topology": "FiniteTopology from_closed_subbasis from_open_subbasis interval_topology is_discrete "
    "is_hausdorff is_t1 lower_topology product_topology topologies_equal topology_to_dict upper_topology",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def _register_lazily(module: str) -> None:
    """Put ``ordlab.<module>`` in ``sys.modules`` and on the package; it
    is compiled and run on the first read of one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[module] = lazy
    loader.exec_module(lazy)


for _module in _EXPORTS:
    _register_lazily(_module)
del _module


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list:
    return sorted(globals().keys() | _OWNER.keys())
