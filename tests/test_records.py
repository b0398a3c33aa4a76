"""The record types: immutable, equal and hashed by value, and cheap to import.

Every record is a ``typing.NamedTuple``, and no record caches a derived
table.  The three that validate their fields subclass a NamedTuple of
those fields and check them in ``__new__``, which pickling and ``copy``
go through too; ``_make`` and ``_replace`` do not.  None needs
``dataclasses``, whose import pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize`` at every CLI start.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ordlab
from ordlab.breadth import BreadthReport, compute_breadth
from ordlab.campaigns import CampaignResult, CampaignSpec
from ordlab.catalog import chain, m3
from ordlab.errors import MalformedInputError
from ordlab.filters import SetFilter, limit_mask, super_filters
from ordlab.limits import Limits
from ordlab.morphisms import (
    CheckReport,
    LatticeHom,
    PreimageIntervalReport,
    PreimageScan,
    check_image_convergence,
    check_star_preservation,
    classify,
    image_filter,
    preimage_interval_analysis,
    preimage_scan,
)
from ordlab.order_core import LatticeCert
from ordlab.topology import FiniteTopology, interval_topology

# the fields of each record, in order
FIELDS = {
    Limits: ("max_elements", "max_subset_elements", "max_search_nodes"),
    BreadthReport: ("lattice", "breadth", "witness"),
    CampaignSpec: ("name", "size_limit", "trials", "seed"),
    CampaignResult: ("spec", "instances_checked", "status", "witness"),
    PreimageIntervalReport: ("kind", "low", "high", "preimage", "missing"),
    PreimageScan: ("all_interval_or_empty", "intervals_checked", "failure", "failure_interval"),
    CheckReport: ("passed", "checked", "witness"),
    LatticeCert: ("is_lattice", "is_distributive"),
    SetFilter: ("parent", "generator"),
    LatticeHom: ("domain", "codomain", "mapping", "classification"),
    FiniteTopology: ("carrier_size", "min_nbhd"),
}


def _hom():
    return classify([0, 1, 1], chain(3), chain(2))


def _examples():
    """Per record type: a factory called twice for two equal instances
    built from separate objects, and a different instance."""
    return {
        Limits: (lambda: Limits(max_search_nodes=100), Limits()),
        BreadthReport: (lambda: compute_breadth(m3()), compute_breadth(chain(3))),
        CampaignSpec: (
            lambda: CampaignSpec(name="lemma-2", size_limit=4, trials=2, seed=7),
            CampaignSpec("lemma-2", 4, 2),
        ),
        CampaignResult: (
            lambda: CampaignResult(CampaignSpec("hausdorff", 3), 5, "pass", None),
            CampaignResult(CampaignSpec("hausdorff", 3), 6, "pass", None),
        ),
        PreimageIntervalReport: (
            lambda: preimage_interval_analysis(_hom(), 1, 1),
            preimage_interval_analysis(_hom(), 0, 1),
        ),
        PreimageScan: (lambda: preimage_scan(_hom()), preimage_scan(_hom(), principal_only=True)),
        CheckReport: (lambda: CheckReport(True, 3, None), CheckReport(True, 4, None)),
        LatticeCert: (lambda: m3().certificate, chain(3).certificate),
        SetFilter: (lambda: SetFilter(m3(), 0b110), SetFilter(m3(), 0b100)),
        LatticeHom: (_hom, classify([0, 0, 1], chain(3), chain(2))),
        FiniteTopology: (lambda: interval_topology(m3()), interval_topology(chain(3))),
    }


EXAMPLES = _examples()


def test_every_record_type_is_covered():
    assert set(EXAMPLES) == set(FIELDS) and len(FIELDS) == 11
    # one kind of record: every type is a tuple of its fields, and the three
    # that validate them add no slot to the NamedTuple they subclass
    assert all(issubclass(cls, tuple) for cls in FIELDS)
    for cls in (SetFilter, FiniteTopology, CampaignSpec):
        assert cls.__slots__ == () and cls.__base__.__base__ is tuple


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_record_is_immutable_and_compared_by_value(cls):
    make, other = EXAMPLES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert cls._fields == FIELDS[cls]
    assert a == b and hash(a) == hash(b)
    assert a != other
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(cls.__name__ + "(")


def test_constructor_signatures_and_validation():
    assert Limits(max_search_nodes=100) == Limits(64, 20, 100)
    assert CampaignSpec(name="fact-1-1", size_limit=3).to_dict() == {
        "name": "fact-1-1", "size_limit": 3, "trials": 0, "seed": 0,
    }
    for args, message in (
        (("nope", 4), "unknown campaign"),
        (("fact-1-1", 0), "size limit must be positive"),
        (("fact-1-1", 3, -1), "trials must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            CampaignSpec(*args)
    with pytest.raises(MalformedInputError, match="nonempty"):
        SetFilter(m3(), 0)
    with pytest.raises(MalformedInputError, match="out of range"):
        SetFilter(m3(), 1 << 5)
    with pytest.raises(ValueError, match="not closed"):
        FiniteTopology(3, (0b011, 0b110, 0b100))
    with pytest.raises(ValueError, match="size mismatch"):
        FiniteTopology(2, (0b01,))


def test_pickle_and_copy_validate_through_new():
    # both rebuild a record by calling the class with its fields, so a
    # record whose fields were made invalid behind __new__ is refused
    bad = (
        (tuple.__new__(SetFilter, (m3(), 0)), MalformedInputError, "nonempty"),
        (tuple.__new__(FiniteTopology, (3, (0b011, 0b110, 0b100))), ValueError, "not closed"),
        (tuple.__new__(CampaignSpec, ("fact-1-1", 0, 0, 0)), ValueError, "size limit"),
    )
    for record, error, message in bad:
        data = pickle.dumps(record)
        with pytest.raises(error, match=message):
            pickle.loads(data)
        for clone in (copy.copy, copy.deepcopy):
            with pytest.raises(error, match=message):
                clone(record)


def test_post_init_hook_runs_once_per_filter(monkeypatch):
    # the benchmark's tracer replaces SetFilter.__post_init__ on the class
    # to count the filters built
    calls = []
    original = SetFilter.__post_init__

    def counting(self):
        calls.append(self.generator)
        original(self)

    monkeypatch.setattr(SetFilter, "__post_init__", counting)
    p = m3()
    f = SetFilter(p, 0b11010)
    assert calls == [0b11010]
    supers = super_filters(f)
    assert sorted(calls[1:]) == sorted(g.generator for g in supers) and len(supers) == 7
    del calls[:]
    with pytest.raises(MalformedInputError):
        SetFilter(p, p.mask_of_labels([]))
    assert calls == [0]
    # the limit route and the hom sweeps work on generator masks and
    # build no filter
    del calls[:]
    hom = classify([0, 1, 1, 2], chain(4), chain(3))
    assert image_filter(hom.mapping, 0b110) == 0b010
    assert limit_mask(p, 0b110) == 0 and limit_mask(p, 0b100) == 0b100
    assert check_image_convergence(hom).passed and check_star_preservation(hom).passed
    assert calls == []


def test_cli_import_needs_no_dataclasses():
    src = str(Path(ordlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import ordlab, ordlab.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert "ordlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
