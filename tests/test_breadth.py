import pytest

from ordlab import breadth as breadth_mod
from ordlab import (
    boolean_power,
    chain,
    coatom,
    coatom_family,
    compute_breadth,
    compute_dual_breadth,
    has_breadth_at_most,
    is_irredundant,
    m3,
    n5,
    build_poset,
)
from ordlab.catalog import antichain_bounded, library_lattices, named_poset
from ordlab.errors import LimitExceededError
from ordlab.order_core import Poset, mask_of

from oracles import breadth_by_bounds


class TestHasBreadthAtMost:
    def test_chains_have_breadth_one(self):
        for k in (2, 3, 5, 7):
            assert has_breadth_at_most(chain(k), 1).holds

    def test_cube_needs_three(self):
        check = has_breadth_at_most(boolean_power(3), 2)
        assert not check.holds
        assert boolean_power(3).labels_of(check.counterexample) == ["011", "101", "110"]

    def test_bound_at_carrier_size_always_holds(self):
        for p in (m3(), n5(), boolean_power(2)):
            assert has_breadth_at_most(p, p.n).holds
            assert has_breadth_at_most(p, p.n + 3).holds

    def test_monotone_in_the_bound(self):
        for _, p in library_lattices(6):
            prev = False
            for n in range(1, p.n + 2):
                now = has_breadth_at_most(p, n).holds
                assert now or not prev
                prev = now

    def test_requires_complete_lattice(self):
        with pytest.raises(ValueError):
            has_breadth_at_most(build_poset(["x", "y"], []), 1)
        with pytest.raises(ValueError):
            has_breadth_at_most(chain(3), 0)

    @pytest.mark.parametrize("name, n", [("2^4", 4), ("2xM3", 3)])
    def test_bound_that_holds_never_walks_the_carrier(self, monkeypatch, name, n):
        """A bound that holds is decided on the meet-irreducibles' rows alone."""
        lattice, walked = named_poset(name), []
        walk = breadth_mod._irredundant_sets

        def recording(rows, full, most):
            walked.append(tuple(rows))
            return walk(rows, full, most)

        monkeypatch.setattr(breadth_mod, "_irredundant_sets", recording)
        assert has_breadth_at_most(lattice, n) == (True, None)
        assert walked and lattice.down not in walked

    def test_limit_guard(self, monkeypatch):
        cube = boolean_power(3)
        monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "4")
        with pytest.raises(LimitExceededError):
            has_breadth_at_most(cube, 1)


class TestComputeBreadth:
    def test_boolean_powers(self):
        for n in (1, 2, 3):
            report = compute_breadth(boolean_power(n))
            assert report.breadth == n
            assert is_irredundant(report.lattice, report.witness)

    def test_chains(self):
        for k in (2, 4, 6):
            report = compute_breadth(chain(k))
            assert report.breadth == 1
            assert report.lattice.labels_of(report.witness) == ["0"]

    def test_m3(self):
        report = compute_breadth(m3())
        assert report.breadth == 2
        assert report.lattice.labels_of(report.witness) == ["a", "b"]

    def test_singleton_lattice_degenerate(self):
        report = compute_breadth(chain(1))
        assert report.breadth == 1
        assert report.witness == 0

    def test_witness_is_reverified(self):
        for _, p in library_lattices(6):
            report = compute_breadth(p)
            if report.witness:
                assert is_irredundant(p, report.witness)
                assert report.witness.bit_count() == report.breadth

    @pytest.mark.parametrize("lattice", [chain(20), antichain_bounded(18)], ids=["chain20", "M18"])
    def test_meet_irreducibles_cost_no_more_infima_than_the_bounds(self, monkeypatch, lattice):
        # at the subset cap: a 20-chain has 19 meet-irreducibles, M18 has 18
        # atoms and every pair of them is irredundant
        calls = []
        infimum_mask = Poset.infimum_mask

        def counting(self, mask):
            calls.append(mask)
            return infimum_mask(self, mask)

        monkeypatch.setattr(Poset, "infimum_mask", counting)
        report = compute_breadth(lattice)
        searched = len(calls)
        calls.clear()
        assert (report.breadth, report.witness) == breadth_by_bounds(lattice)[:2]
        assert searched <= len(calls)

    @pytest.mark.parametrize("name", ["2^4", "2xM3"])
    def test_only_the_witness_recheck_computes_infima(self, monkeypatch, name):
        # the search ANDs down rows: only is_irredundant's re-check of the
        # witness computes infima, one per subset of it
        lattice = named_poset(name)
        calls = []
        infimum_mask = Poset.infimum_mask

        def counting(self, mask):
            calls.append(mask)
            return infimum_mask(self, mask)

        monkeypatch.setattr(Poset, "infimum_mask", counting)
        report = compute_breadth(lattice)
        assert 0 < len(calls) <= 2 ** report.breadth


class TestCoatoms:
    def test_examples(self):
        b3 = boolean_power(3)
        assert b3.labels[coatom(3, 0)] == "011"
        assert b3.labels[coatom(3, 1)] == "101"
        assert b3.labels[coatom(3, 2)] == "110"
        assert boolean_power(1).labels[coatom(1, 0)] == "0"

    def test_family_meets_to_bottom(self):
        for n in range(1, 5):
            bn = boolean_power(n)
            fam = mask_of(coatom_family(n))
            assert bn.infimum_mask(fam) == bn.bottom
            assert is_irredundant(bn, fam)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coatom(3, 3)


class TestDualBreadth:
    def test_self_dual_lattices_agree(self):
        for p in (boolean_power(2), boolean_power(3), m3(), chain(5)):
            assert compute_dual_breadth(p).breadth == compute_breadth(p).breadth


class TestIrredundance:
    def test_empty_set_is_vacuously_irredundant(self):
        assert is_irredundant(m3(), 0)

    def test_sets_containing_comparable_pairs_are_redundant(self):
        c = chain(3)
        assert not is_irredundant(c, 0b011)

    def test_singleton_top_is_redundant(self):
        # the empty subset already has the top as its infimum
        p = chain(3)
        assert not is_irredundant(p, 0b100)
        assert is_irredundant(p, 0b001)

    def test_mask_out_of_range(self):
        for mask in (-1, 0b1000):
            with pytest.raises(ValueError, match="out of range"):
                is_irredundant(chain(3), mask)
