"""Finite order-theory laboratory.

Posets and lattices on small carriers, the interval topology and its
relatives, set-filter convergence, lattice homomorphism classification,
and breadth, together with exhaustive verification campaigns over
generated instance families.
"""

from .breadth import (
    BreadthCheck,
    BreadthReport,
    coatom,
    coatom_family,
    compute_breadth,
    compute_dual_breadth,
    has_breadth_at_most,
    is_irredundant,
)
from .campaigns import CAMPAIGN_NAMES, CampaignResult, CampaignSpec, run_campaign
from .catalog import (
    all_lattices,
    all_posets,
    antichain_bounded,
    chain,
    library_lattices,
    library_posets,
    m3,
    n5,
    named_poset,
    random_lattice,
    random_poset,
    two,
)
from .errors import LimitExceededError, MalformedInputError, OrdlabError
from .filters import (
    SetFilter,
    filter_from_labels,
    order_converges,
    order_limit,
    star_converges,
    star_limit_mask,
    super_filters,
    upper_iff_downset,
)
from .limits import Limits, default_limits
from .morphisms import (
    Classification,
    LatticeHom,
    check_image_convergence,
    check_image_filter_inclusion,
    check_star_preservation,
    classify,
    enumerate_homs,
    image_filter,
    image_table,
    is_continuous,
    preimage_interval_analysis,
    preimage_scan,
)
from .order_core import (
    LatticeCert,
    Poset,
    are_order_isomorphic,
    boolean_power,
    build_poset,
    certify_lattice,
    poset_from_dict,
    poset_to_dict,
    product,
    variant_distributive_identity_holds,
)
from .topology import (
    FiniteTopology,
    from_closed_subbasis,
    from_open_subbasis,
    interval_topology,
    is_discrete,
    is_hausdorff,
    is_t1,
    lower_topology,
    product_topology,
    topologies_equal,
    topology_to_dict,
    upper_topology,
)

__version__ = "0.1.0"
