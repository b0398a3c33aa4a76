"""Command-line interface.

All subcommands print a single JSON document to standard output; errors
go to standard error.  Exit codes: 0 success, 2 malformed input, 3 limit
exceeded, 4 counterexample found by a campaign.  Input preconditions
raise :class:`MalformedInputError` at this boundary; any other exception
is an internal error and is not reported as malformed input.  ``-`` as a
file argument reads standard input, and poset arguments also accept
library names (``M3``, ``2^3``, ``chain4``, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

# the optional modules are held as modules, registered lazily by the
# package, so a command compiles only those it reads from
from . import breadth as breadth_mod
from . import campaigns, catalog
from . import filters as filters_mod
from . import morphisms as morph
from . import topology as topo
from .errors import LimitExceededError, MalformedInputError
from .limits import default_limits
from .order_core import (
    LIBRARY_NAMES,
    Poset,
    boolean_power,
    poset_from_dict,
    poset_to_dict,
    product,
    variant_distributive_identity_holds,
)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_LIMIT = 3
EXIT_COUNTEREXAMPLE = 4


def _emit(doc: object) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _read_json(path: str) -> object:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, over-long ints, deep nesting
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def _resolve_poset(ref: object) -> Poset:
    """Inline object, library name, or file path."""
    if isinstance(ref, dict):
        return poset_from_dict(ref)
    if isinstance(ref, str):
        if ref in LIBRARY_NAMES:
            return catalog.named_poset(ref)
        return poset_from_dict(_read_json(ref))
    raise MalformedInputError(f"cannot interpret poset reference {ref!r}")


def _label(p: Poset, x: Optional[int]) -> Optional[str]:
    return None if x is None else p.labels[x]


def _cmd_check(args) -> int:
    p = _resolve_poset(args.poset)
    cert = p.certificate
    doc = {
        "carrier": p.n,
        "is_lattice": cert.is_lattice,
        "is_complete": cert.is_lattice,  # a finite lattice is complete
        "is_distributive": cert.is_distributive,
        "variant_distributive_identity": (
            variant_distributive_identity_holds(p) if cert.is_lattice else None
        ),
        "bottom": _label(p, p.bottom),
        "top": _label(p, p.top),
    }
    _emit(doc)
    return EXIT_OK


def _cmd_breadth(args) -> int:
    p = _resolve_poset(args.poset)
    if not p.certificate.is_lattice:
        raise MalformedInputError("breadth is defined on complete lattices")
    report = breadth_mod.compute_breadth(p)
    _emit({"breadth": report.breadth, "witness": p.labels_of(report.witness)})
    return EXIT_OK


_TOPOLOGY_KINDS = ("interval", "lower", "upper")


def _make_topology(kind: str, p: Poset) -> topo.FiniteTopology:
    return getattr(topo, f"{kind}_topology")(p)


def _cmd_topology(args) -> int:
    p = _resolve_poset(args.poset)
    t = _make_topology(args.kind, p)
    _emit(topo.topology_to_dict(t))
    return EXIT_OK


def _cmd_hausdorff(args) -> int:
    p = _resolve_poset(args.poset)
    t = _make_topology(args.kind, p)
    _emit(
        {
            "kind": args.kind,
            "hausdorff": topo.is_hausdorff(t),
            "t1": topo.is_t1(t),
            "discrete": topo.is_discrete(t),
        }
    )
    return EXIT_OK


def _cmd_product(args) -> int:
    factors = [_resolve_poset(path) for path in args.posets]
    _emit(poset_to_dict(product(factors)))
    return EXIT_OK


def _cmd_boolean(args) -> int:
    if args.n < 1:
        raise MalformedInputError("boolean needs n >= 1")
    _emit(poset_to_dict(boolean_power(args.n)))
    return EXIT_OK


def _scan_doc(scan: morph.PreimageScan, hom: morph.LatticeHom) -> dict:
    doc = {
        "all_interval_or_empty": scan.all_interval_or_empty,
        "intervals_checked": scan.intervals_checked,
    }
    if scan.failure is not None:
        x, y = scan.failure_interval
        doc["failure"] = {
            "interval": [hom.codomain.labels[x], hom.codomain.labels[y]],
            "preimage": hom.domain.labels_of(scan.failure.preimage),
        }
    return doc


def _cmd_hom(args) -> int:
    hom = morph.hom_from_dict(_read_json(args.hom), _resolve_poset)
    continuity = {}
    for kind in _TOPOLOGY_KINDS:
        t_dom, t_cod = _make_topology(kind, hom.domain), _make_topology(kind, hom.codomain)
        continuity[kind] = morph.is_continuous(hom.mapping, t_dom, t_cod)
    doc = {
        "classification": hom.classification.render(),
        "interval_preimages": _scan_doc(morph.preimage_scan(hom), hom),
        "principal_preimages": _scan_doc(morph.preimage_scan(hom, principal_only=True), hom),
        "continuous": continuity,
    }
    _emit(doc)
    return EXIT_OK


def _generator_labels(p: Poset, text: str) -> list[str]:
    """The labels a comma-separated generator names: from each piece on, the
    shortest run of pieces that is a label of ``p``, such as ``(0,1)``."""
    pieces = [s for s in text.split(",") if s]
    known, labels, i = set(p.labels), [], 0
    while i < len(pieces):
        j = next((j for j in range(i + 1, len(pieces) + 1) if ",".join(pieces[i:j]) in known), None)
        if j is None:
            return pieces  # for mask_of_labels to name the first unknown piece
        labels.append(",".join(pieces[i:j]))
        i = j
    return labels


def _cmd_converge(args) -> int:
    p = _resolve_poset(args.poset)
    labels = _generator_labels(p, args.generator)
    if not labels:
        raise MalformedInputError("empty generator")
    gen = p.mask_of_labels(labels)
    if not p.certificate.is_lattice:
        sys.stderr.write(
            "warning: poset is not a complete lattice; convergence is false wherever a bound is missing\n"
        )
    doc: dict = {"mode": args.mode, "generator": p.labels_of(gen)}
    doc["limits"] = p.labels_of(filters_mod.limit_mask(p, gen))
    if args.mode == "star":
        # the literal-tail reading, order convergence of the filter itself,
        # has the same limits as the star reading (filters.limit_mask)
        doc["limits_literal_tail"] = doc["limits"]
    _emit(doc)
    return EXIT_OK


def _cmd_campaign(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise MalformedInputError("--limit must be positive")
    if args.trials < 0:
        raise MalformedInputError("--trials must be nonnegative")
    spec = campaigns.CampaignSpec(
        name=args.name,
        size_limit=args.limit if args.limit is not None else campaigns.CAMPAIGNS[args.name].default_limit,
        trials=args.trials,
        seed=args.seed,
    )
    result = campaigns.run_campaign(spec)
    _emit(result.to_dict())
    if result.status != "pass":
        sys.stderr.write(f"campaign {spec.name}: counterexample found\n")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


class _CampaignNames:
    """``campaigns.CAMPAIGN_NAMES`` as argparse ``choices``, read only when
    a campaign name is checked or the campaign usage is printed, so that
    building the parser does not load ``campaigns``."""

    def __contains__(self, name: object) -> bool:
        return name in campaigns.CAMPAIGN_NAMES

    def __iter__(self):
        return iter(campaigns.CAMPAIGN_NAMES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordlab",
        description="Finite order-theory laboratory: certificates, topologies, convergence, breadth, campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="lattice certificate for a poset")
    p_check.add_argument("poset")
    p_check.set_defaults(func=_cmd_check)

    p_breadth = sub.add_parser("breadth", help="breadth and an irredundant witness")
    p_breadth.add_argument("poset")
    p_breadth.set_defaults(func=_cmd_breadth)

    p_topology = sub.add_parser("topology", help="dump a generated topology")
    p_topology.add_argument("poset")
    p_topology.add_argument("--kind", choices=_TOPOLOGY_KINDS, default="interval")
    p_topology.set_defaults(func=_cmd_topology)

    p_hausdorff = sub.add_parser("hausdorff", help="separation properties of a generated topology")
    p_hausdorff.add_argument("poset")
    p_hausdorff.add_argument("--kind", choices=_TOPOLOGY_KINDS, default="interval")
    p_hausdorff.set_defaults(func=_cmd_hausdorff)

    p_product = sub.add_parser("product", help="pointwise-ordered product of posets")
    p_product.add_argument("posets", nargs="+")
    p_product.set_defaults(func=_cmd_product)

    p_boolean = sub.add_parser("boolean", help="the lattice of n-bit vectors")
    p_boolean.add_argument("n", type=int)
    p_boolean.set_defaults(func=_cmd_boolean)

    p_hom = sub.add_parser("hom", help="classify a map and analyze preimages/continuity")
    p_hom.add_argument("hom")
    p_hom.set_defaults(func=_cmd_hom)

    p_converge = sub.add_parser("converge", help="order/star convergence points of a filter")
    p_converge.add_argument("poset")
    p_converge.add_argument("--generator", required=True, help="comma-separated labels, e.g. a,b or (0,1),(1,0)")
    p_converge.add_argument("--mode", choices=("order", "star"), default="order")
    p_converge.set_defaults(func=_cmd_converge)

    p_campaign = sub.add_parser("campaign", help="run a verification campaign")
    # set after add_argument, which formats the choices of the argument it adds
    p_campaign.add_argument("name").choices = _CampaignNames()
    p_campaign.add_argument(
        "--limit",
        type=int,
        default=None,
        help="instance size limit; the default and the largest accepted value (the cap) are per campaign",
    )
    p_campaign.add_argument(
        "--trials", type=int, default=0, help="seeded random instances, drawn from --seed (breadth-2n and "
        "product-lemma draw none and only echo --trials and --seed)"
    )
    p_campaign.add_argument("--seed", type=int, default=0)
    p_campaign.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        default_limits()  # validate the environment override early
        return args.func(args)
    except MalformedInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED
    except LimitExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_LIMIT


if __name__ == "__main__":
    sys.exit(main())
