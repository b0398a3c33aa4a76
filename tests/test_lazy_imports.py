"""The package's lazy submodules and its export table.

``import ordlab`` registers every library submodule without running it,
and ``ordlab.<name>`` resolves through the table in ``__init__.py``, so
a CLI process compiles only the modules its command reads from.  Each
case that counts loaded modules runs in a fresh interpreter without a
bytecode cache, as a CLI call does.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordlab

SRC = Path(ordlab.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))

# the names ``ordlab`` exports, by owning module
EXPORTS = {
    "breadth": [
        "BreadthCheck", "BreadthReport", "coatom", "coatom_family", "compute_breadth", "compute_dual_breadth",
        "has_breadth_at_most", "is_irredundant",
    ],
    "campaigns": ["CAMPAIGN_NAMES", "CampaignResult", "CampaignSpec", "run_campaign"],
    "catalog": [
        "all_lattices", "all_posets", "antichain_bounded", "chain", "library_lattices", "library_posets", "m3",
        "n5", "named_poset", "random_lattice", "random_poset", "two",
    ],
    "errors": ["LimitExceededError", "MalformedInputError", "OrdlabError"],
    "filters": [
        "SetFilter", "limit_mask", "order_converges", "star_converges", "super_filters", "upper_iff_downset",
    ],
    "limits": ["Limits", "default_limits"],
    "morphisms": [
        "Classification", "LatticeHom", "check_image_convergence", "check_image_filter_inclusion",
        "check_star_preservation", "classify", "enumerate_homs", "image_filter", "is_continuous",
        "preimage_interval_analysis", "preimage_scan",
    ],
    "order_core": [
        "LatticeCert", "Poset", "are_order_isomorphic", "boolean_power", "build_poset",
        "poset_from_dict", "poset_to_dict", "product", "variant_distributive_identity_holds",
    ],
    "topology": [
        "FiniteTopology", "from_closed_subbasis", "from_open_subbasis", "interval_topology", "is_discrete",
        "is_hausdorff", "is_t1", "lower_topology", "product_topology", "topologies_equal", "topology_to_dict",
        "upper_topology",
    ],
}

FOOTPRINT = """
import io, json, sys, types
from contextlib import redirect_stdout
import ordlab, ordlab.cli

def loaded():
    return sorted(k for k, m in sys.modules.items() if k.split(".")[0] == "ordlab" and type(m) is types.ModuleType)

steps = {"registered": sorted(k for k in sys.modules if k.startswith("ordlab.")), "import": loaded()}
for command in sys.argv[1:]:
    with redirect_stdout(io.StringIO()):
        assert ordlab.cli.main(command.split()) == 0, command
    steps[command] = loaded()
print(json.dumps(steps))
"""


def _fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out


def test_a_command_loads_only_the_modules_it_uses(tmp_path):
    commands = ["check 2^3", "hausdorff 2^3", "campaign lemma-3 --limit 2", "campaign fact-1-1 --limit 2"]
    steps = json.loads(_fresh("-c", FOOTPRINT, *commands).stdout)
    assert steps["registered"] == ["ordlab." + m for m in SUBMODULES]
    assert steps["import"] == ["ordlab", "ordlab.cli", "ordlab.errors", "ordlab.limits", "ordlab.order_core"]
    optional = {"ordlab.topology", "ordlab.morphisms", "ordlab.filters", "ordlab.breadth"}
    assert not optional & set(steps["check 2^3"])
    assert optional & set(steps["hausdorff 2^3"]) == {"ordlab.topology"}
    # lemma-3 and fact-1-1 read their subset tables from order_core, not
    # through morphisms or filters (the steps accumulate: topology is
    # hausdorff's)
    assert optional & set(steps["campaign lemma-3 --limit 2"]) == {"ordlab.topology"}
    assert optional & set(steps["campaign fact-1-1 --limit 2"]) == {"ordlab.topology"}

    # on files, no command reads a library or campaign name, and a hom reads
    # no filter (the steps accumulate in this order)
    square = ordlab.poset_to_dict(ordlab.boolean_power(2))
    poset, hom = tmp_path / "square.json", tmp_path / "hom.json"
    poset.write_text(json.dumps(square))
    hom.write_text(json.dumps({"domain": square, "codomain": square, "map": {x: x for x in square["labels"]}}))
    commands = [f"check {poset}", f"hausdorff {poset}", f"breadth {poset}", f"hom {hom}"]
    steps = json.loads(_fresh("-c", FOOTPRINT, *commands).stdout)
    assert steps["import"] == ["ordlab", "ordlab.cli", "ordlab.errors", "ordlab.limits", "ordlab.order_core"]
    names = {"ordlab.catalog", "ordlab.campaigns"}
    assert not names & set(steps[f"check {poset}"])
    assert (names | optional) & set(steps[f"hausdorff {poset}"]) == {"ordlab.topology"}
    assert (names | optional) & set(steps[f"breadth {poset}"]) == {"ordlab.topology", "ordlab.breadth"}
    assert (names | optional) & set(steps[f"hom {hom}"]) == {"ordlab.topology", "ordlab.breadth", "ordlab.morphisms"}

    # the convergence campaigns build no topology: morphisms imports
    # FiniteTopology only for an annotation (the steps accumulate)
    commands = ["campaign lemma-2 --limit 3", "campaign star-preservation --limit 3"]
    steps = json.loads(_fresh("-c", FOOTPRINT, *commands).stdout)
    for command in commands:
        assert optional & set(steps[command]) == {"ordlab.morphisms", "ordlab.filters"}, command


def test_export_table():
    assert sorted(ordlab.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    assert len(ordlab.__all__) == 67
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"ordlab.{module}")
        for name in names:
            assert getattr(ordlab, name) is getattr(owner, name), name
    assert set(ordlab.__all__) <= set(dir(ordlab))
    with pytest.raises(AttributeError, match="nosuch"):
        ordlab.nosuch  # noqa: B018
    namespace: dict = {}
    exec("from ordlab import *", namespace)
    assert set(ordlab.__all__) <= set(namespace)


def test_package_runs_as_a_module():
    doc = json.loads(_fresh("-m", "ordlab", "check", "M3").stdout)
    assert (doc["carrier"], doc["is_lattice"], doc["is_distributive"]) == (5, True, False)
