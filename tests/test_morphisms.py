import itertools

import pytest

from ordlab import (
    Classification,
    MalformedInputError,
    SetFilter,
    boolean_power,
    build_poset,
    chain,
    check_image_convergence,
    check_image_filter_inclusion,
    check_star_preservation,
    classify,
    enumerate_homs,
    image_filter,
    interval_topology,
    is_continuous,
    lower_topology,
    preimage_interval_analysis,
    preimage_scan,
    two,
    upper_topology,
)
from ordlab import morphisms as morph
from ordlab.catalog import all_lattices, iso_representatives, library_lattices
from ordlab.errors import LimitExceededError
from ordlab.limits import Limits
from ordlab.morphisms import hom_from_dict, hom_to_dict
from ordlab.topology import from_closed_subbasis

from conftest import mutant
from oracles import filter_from_base, filter_members, iter_monotone_maps


def collapse_hom():
    # bottom of the 2-bit lattice to 0, the other three elements to 1
    return classify([0, 1, 1, 1], boolean_power(2), two())


class TestClassify:
    def test_identity_is_complete(self):
        b3 = boolean_power(3)
        assert classify(range(8), b3, b3).classification == Classification.COMPLETE_HOM

    def test_shift_into_chain3_is_lattice_hom_only(self):
        h = classify([1, 2], two(), chain(3))
        assert h.classification == Classification.LATTICE_HOM

    def test_collapse_is_order_preserving_only(self):
        assert collapse_hom().classification == Classification.ORDER_PRESERVING

    def test_swap_is_not_order_preserving(self):
        h = classify([1, 0], two(), two())
        assert h.classification == Classification.NOT_ORDER_PRESERVING

    def test_rejects_non_lattice(self):
        p = build_poset(["x", "y"], [])
        with pytest.raises(ValueError):
            classify([0, 1], p, p)

    def test_rejects_partial_or_out_of_range(self):
        with pytest.raises(MalformedInputError):
            classify([0], two(), two())
        with pytest.raises(MalformedInputError):
            classify([0, 5], two(), two())


class TestEnumerateHoms:
    def test_counts_between_twos(self):
        (h,) = enumerate_homs(two(), two())
        assert h.mapping == (0, 1) and h.classification == Classification.COMPLETE_HOM
        assert len(list(iter_monotone_maps(two(), two()))) == 3

    def test_unique_complete_hom_into_square(self):
        homs = enumerate_homs(two(), boolean_power(2))
        assert len(homs) == 1
        (h,) = homs
        assert h.mapping == (0, 3)

    def test_one_point_domain_has_a_hom_only_into_one_point(self):
        # bottom and top coincide: both pins apply to the one element
        one = chain(1)
        assert [h.mapping for h in enumerate_homs(one, one)] == [(0,)]
        assert enumerate_homs(one, two()) == []

    def test_rejects_non_lattice_at_every_level(self):
        p = build_poset(["x", "y"], [])
        for dom, cod in ((p, two()), (two(), p)):
            with pytest.raises(ValueError, match="lattices on both sides"):
                enumerate_homs(dom, cod)
            with pytest.raises(ValueError, match="lattices on both sides"):
                classify([0, 0], dom, cod)

    def test_counts_follow_birkhoff_duality(self):
        # by Birkhoff duality the complete homs 2^m -> 2^n are the maps from
        # the codomain's n atoms to the domain's m atoms: m^n of them (Davey
        # & Priestley, ch. 5), a count the search does not read
        for m, n in itertools.product(range(1, 5), repeat=2):
            assert len(enumerate_homs(boolean_power(m), boolean_power(n))) == m**n, (m, n)
        assert len(enumerate_homs(boolean_power(5), boolean_power(5))) == 3_125

    def test_limit_guard(self):
        # the search's node budget: 2^6 -> 2^6 has 46,656 homs in 6,773,165
        # nodes, and is refused after 500,000, in about 2 s
        assert Limits().max_search_nodes == 500_000
        b6 = boolean_power(6)
        with pytest.raises(LimitExceededError, match="^hom search: 64 -> 64 elements exceeds node budget 500000$"):
            enumerate_homs(b6, b6)


# the search for 2^4 -> 2^4 builds 7,230 candidate masks
SQUARE_OF_2_4_NODES = 7_230


def _budget(monkeypatch, nodes):
    monkeypatch.setattr(morph, "default_limits", lambda: Limits(max_search_nodes=nodes))


class TestNodeBudget:
    def test_admits_exactly_the_nodes_visited(self, monkeypatch):
        b4 = boolean_power(4)
        _budget(monkeypatch, SQUARE_OF_2_4_NODES)
        assert len(enumerate_homs(b4, b4)) == 256
        _budget(monkeypatch, SQUARE_OF_2_4_NODES - 1)
        with pytest.raises(LimitExceededError, match="^hom search: 16 -> 16 elements exceeds node budget 7229$"):
            enumerate_homs(b4, b4)

    @pytest.mark.parametrize("edits", [
        [("budget -= 1", "pass")],
        [("            budget -= 1\n", ""), ("yield tuple(values)", "budget -= 1\n            yield tuple(values)")],
    ], ids=["never decremented", "decremented per hom"])
    def test_seeded_mutants_are_caught(self, monkeypatch, edits):
        b4 = boolean_power(4)
        _budget(monkeypatch, SQUARE_OF_2_4_NODES - 1)
        monkeypatch.setattr(morph, "_search", mutant(morph._search, *edits))
        assert len(enumerate_homs(b4, b4)) == 256  # the mutant lets the search past its budget


class TestPreimageIntervals:
    def test_identity_gives_the_interval_back(self):
        b2 = boolean_power(2)
        h = classify(range(4), b2, b2)
        rep = preimage_interval_analysis(h, 0, 3)
        assert rep.kind == "interval" and (rep.low, rep.high) == (0, 3)

    def test_collapse_has_non_interval_preimage(self):
        rep = preimage_interval_analysis(collapse_hom(), 1, 1)
        assert rep.kind == "non_interval"
        assert boolean_power(2).labels_of(rep.preimage) == ["01", "10", "11"]
        assert rep.missing == 0  # the bottom sits inside [low, high] but not in the preimage

    def test_empty_preimage(self):
        h = classify([0, 0], two(), chain(3))  # constant map, not a hom; analysis still works
        rep = preimage_interval_analysis(h, 2, 2)
        assert rep.kind == "empty"

    def test_requires_comparable_endpoints(self):
        b2 = boolean_power(2)
        h = classify(range(4), b2, b2)
        with pytest.raises(ValueError):
            preimage_interval_analysis(h, 1, 2)

    def test_complete_homs_always_interval_or_empty(self):
        for (_, L), (_, M) in itertools.product(library_lattices(5), repeat=2):
            for h in enumerate_homs(L, M):
                scan = preimage_scan(h)
                assert scan.all_interval_or_empty
                principal = preimage_scan(h, principal_only=True)
                assert principal.all_interval_or_empty

    def test_scan_reports_collapse_failure(self):
        h = collapse_hom()
        scan = preimage_scan(h)
        assert not scan.all_interval_or_empty
        assert scan.failure_interval == (1, 1)
        assert scan.failure == preimage_interval_analysis(h, 1, 1)


class TestContinuity:
    def test_complete_homs_interval_continuous(self):
        for (_, L), (_, M) in itertools.product(library_lattices(4), repeat=2):
            for h in enumerate_homs(L, M):
                assert is_continuous(h.mapping, interval_topology(L), interval_topology(M))

    def test_everything_into_indiscrete_is_continuous(self):
        b2 = boolean_power(2)
        indiscrete = from_closed_subbasis(2, [])
        for mapping in itertools.product(range(2), repeat=4):
            assert is_continuous(mapping, interval_topology(b2), indiscrete)

    def test_swap_discontinuous_in_lower_topology(self):
        t = lower_topology(two())
        assert not is_continuous([1, 0], t, t)

    def test_monotone_maps_lower_continuous(self):
        # preimages of down-sets under monotone maps are down-sets, which
        # are closed in the lower topology
        for (_, L), (_, M) in itertools.product(library_lattices(5), repeat=2):
            for mapping in iter_monotone_maps(L, M):
                assert is_continuous(mapping, lower_topology(L), lower_topology(M))
                assert is_continuous(mapping, upper_topology(L), upper_topology(M))

    def test_carrier_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_continuous([0, 1], lower_topology(chain(3)), lower_topology(two()))


class TestImageFilter:
    def test_examples(self):
        b2 = boolean_power(2)
        ident = classify(range(4), b2, b2)
        assert image_filter(ident.mapping, 0b0110) == 0b0110
        col = collapse_hom()
        assert col.codomain.labels_of(image_filter(col.mapping, 0b0110)) == ["1"]
        const = classify([2, 2], two(), chain(3))
        assert image_filter(const.mapping, 0b11) == 0b100

    def test_matches_filter_generated_by_image_base(self):
        for (_, L), (_, M) in itertools.product(library_lattices(4), repeat=2):
            if M.n ** L.n > 300:
                continue
            for mapping in itertools.product(range(M.n), repeat=L.n):
                for gen in range(1, L.full_mask + 1):
                    f = SetFilter(L, gen)
                    base = []
                    for member in filter_members(f):
                        img = 0
                        for i in range(L.n):
                            if (member >> i) & 1:
                                img |= 1 << mapping[i]
                        base.append(img)
                    expected = filter_from_base(M, base)
                    assert image_filter(mapping, gen) == expected.generator

    def test_monotone_image_law(self):
        # order-preserving maps send principal down-sets into the
        # principal down-set of the image point
        for (_, L), (_, M) in itertools.product(library_lattices(5), repeat=2):
            for mapping in iter_monotone_maps(L, M):
                for x in range(L.n):
                    image = 0
                    for i in range(L.n):
                        if (L.down[x] >> i) & 1:
                            image |= 1 << mapping[i]
                    assert image & ~M.down[mapping[x]] == 0


class TestConvergenceChecks:
    def test_identity_on_square(self):
        b2 = boolean_power(2)
        report = check_image_convergence(classify(range(4), b2, b2))
        assert report.passed and report.checked == 4

    def test_bounds_inclusion_into_square(self):
        h = classify([0, 3], two(), boolean_power(2))
        assert h.classification == Classification.COMPLETE_HOM
        assert check_image_convergence(h).passed
        assert check_star_preservation(h).passed

    def test_requires_complete_hom(self):
        with pytest.raises(ValueError):
            check_image_convergence(collapse_hom())
        with pytest.raises(ValueError):
            check_star_preservation(collapse_hom())


class TestImageFilterInclusion:
    def test_reflexive_and_singleton(self):
        assert check_image_filter_inclusion([0, 0, 1], 0b011, 0b011)
        assert check_image_filter_inclusion([2, 1, 0], 0b011, 0b001)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            check_image_filter_inclusion([0, 1, 2], 0b001, 0b110)


class TestStarPreservation:
    def test_identity(self):
        b2 = boolean_power(2)
        assert check_star_preservation(classify(range(4), b2, b2)).passed

    def test_all_complete_homs_small(self):
        reps = iso_representatives([l for n in range(1, 5) for l in all_lattices(n)])
        for L in reps:
            for M in reps:
                for h in enumerate_homs(L, M):
                    assert check_star_preservation(h).passed


class TestHomSerialization:
    def test_round_trip(self):
        h = collapse_hom()
        doc = hom_to_dict(h)
        from ordlab import poset_from_dict

        again = hom_from_dict(doc, lambda ref: poset_from_dict(ref))
        assert again.mapping == h.mapping
        assert again.classification == h.classification

    def test_named_references(self):
        from ordlab.catalog import named_poset

        doc = {"domain": "2", "codomain": "M3", "map": {"0": "0", "1": "1"}}
        h = hom_from_dict(doc, lambda ref: named_poset(ref))
        assert h.classification == Classification.COMPLETE_HOM

    def test_partial_map_rejected(self):
        doc = {"domain": "2", "codomain": "2", "map": {"0": "0"}}
        from ordlab.catalog import named_poset

        with pytest.raises(MalformedInputError):
            hom_from_dict(doc, lambda ref: named_poset(ref))
