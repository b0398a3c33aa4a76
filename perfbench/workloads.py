"""The benchmark's workloads: the commands each one runs and how their
outputs are checked.

A command is one fresh interpreter (see ``child.py``).  Its ``check``
receives the parsed stdout and returns an error string or None; it holds
on every seed.  Byte-exact pins for the default seed live in
``pins.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("exhaustive", "topology")

Check = Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]  # child.py arguments: "cli" ... or "enumerate"
    expect_exit: int = 0
    checks: tuple[Check, ...] = field(default_factory=tuple)


def _fields(**expected) -> Check:
    def check(doc: object) -> Optional[str]:
        for key, want in expected.items():
            got = doc.get(key) if isinstance(doc, dict) else None
            if got != want:
                return f"{key}={got!r}, expected {want!r}"
        return None

    return check


def _campaign(name: str, seed: int, *extra: str, instances: Optional[int] = None) -> Command:
    checks = [_fields(status="pass")]
    if instances is not None:
        checks.append(_fields(instances_checked=instances))
    return Command(
        f"campaign {name} {' '.join(extra)}".strip(),
        ("cli", "campaign", name, *extra, "--seed", str(seed)),
        checks=tuple(checks),
    )


def _lattice_check(bottom: str, top: str) -> Check:
    return _fields(
        carrier=64, is_lattice=True, is_complete=True, is_distributive=True, bottom=bottom, top=top
    )


def _size(key: str, n: int) -> Check:
    def check(doc: object) -> Optional[str]:
        got = len(doc.get(key, ())) if isinstance(doc, dict) else None
        return None if got == n else f"len({key})={got}, expected {n}"

    return check


_COMPLETE_HOM = _fields(
    classification="complete-hom",
    continuous={"interval": True, "lower": True, "upper": True},
)


def _all_preimages_intervals(doc: object) -> Optional[str]:
    for key in ("interval_preimages", "principal_preimages"):
        if not doc.get(key, {}).get("all_interval_or_empty"):
            return f"{key} has a non-interval preimage"
    return None


def commands(workload: str, seed: int, inputs: Optional[dict] = None) -> list[Command]:
    """The commands of one workload run, in the order they are run."""
    if workload == "exhaustive":
        # sweeps over every small poset; no topology and no hom search
        return [
            _campaign("fact-1-1", seed, instances=669_363),
            _campaign("lemma-3", seed, "--trials", "3"),
            Command(
                "enumerate lattices 6",
                ("enumerate", "6"),
                checks=(_fields(posets=130_023, lattices=6_390, classes=15),),
            ),
        ]
    if workload != "topology":
        raise ValueError(f"unknown workload {workload!r}")

    # hom campaigns, then one-shot CLI commands on the seeded 64-point files
    path = inputs["paths"]
    discrete = _fields(hausdorff=True, t1=True, discrete=True)
    out = [
        _campaign("prop-2-1", seed, "--trials", "10"),
        _campaign("lemma-2", seed, "--trials", "10"),
        _campaign("star-preservation", seed, "--trials", "10"),
        Command("check 2^6", ("cli", "check", path["bool6"]), checks=(_lattice_check("000000", "111111"),)),
        Command(
            "check 2^3x2^3",
            ("cli", "check", path["cube2"]),
            checks=(_lattice_check("(000,000)", "(111,111)"),),
        ),
        Command("check chain64", ("cli", "check", path["chain64"]), checks=(_lattice_check("c0", "c63"),)),
        Command("check dag64", ("cli", "check", path["dag64"]), checks=(_fields(carrier=64),)),
    ]
    for name in ("bool6", "cube2", "chain64", "dag64"):
        out.append(
            Command(
                f"hausdorff interval {name}",
                ("cli", "hausdorff", path[name], "--kind", "interval"),
                checks=(discrete,),
            )
        )
    out += [
        Command(
            "hausdorff lower 2^6",
            ("cli", "hausdorff", path["bool6"], "--kind", "lower"),
            checks=(_fields(kind="lower", discrete=False),),
        ),
        Command(
            "hausdorff upper dag64",
            ("cli", "hausdorff", path["dag64"], "--kind", "upper"),
            checks=(_fields(kind="upper"),),
        ),
        Command("product 2^3 M3", ("cli", "product", path["bool3"], "M3"), checks=(_size("labels", 40),)),
        Command(
            "topology 2^3",
            ("cli", "topology", "2^3"),
            checks=(_fields(carrier=8), _size("opens", 256)),
        ),
        Command("breadth 2^4", ("cli", "breadth", "2^4"), checks=(_fields(breadth=4), _size("witness", 4))),
        Command("breadth 2xM3", ("cli", "breadth", "2xM3"), checks=(_fields(breadth=3), _size("witness", 3))),
        # only a singleton generator star-converges, so a 3-label generator has no limits
        Command(
            "converge star 2^3",
            ("cli", "converge", "2^3", "--generator", inputs["generator"], "--mode", "star"),
            checks=(_fields(mode="star", limits=[], limits_literal_tail=[]),),
        ),
        Command(
            "hom identity 2^4",
            ("cli", "hom", path["hom-identity"]),
            checks=(_COMPLETE_HOM, _all_preimages_intervals),
        ),
        Command(
            "hom projection 2^4->2^2",
            ("cli", "hom", path["hom-projection"]),
            checks=(_COMPLETE_HOM, _all_preimages_intervals),
        ),
        _campaign("hausdorff", seed, instances=17),
        _campaign("product-lemma", seed, instances=26),
        _campaign("breadth-2n", seed, instances=4),
        Command("check cyclic", ("cli", "check", path["cyclic"]), expect_exit=2),
        Command("breadth 2^5", ("cli", "breadth", path["bool5"]), expect_exit=3),
    ]
    return out
