import tracemalloc
from random import Random

import pytest
from hypothesis import given, strategies as st

from ordlab import (
    boolean_power,
    chain,
    from_closed_subbasis,
    from_open_subbasis,
    interval_topology,
    is_discrete,
    is_hausdorff,
    is_t1,
    lower_topology,
    m3,
    product_topology,
    topologies_equal,
    topology_to_dict,
    two,
    upper_topology,
)
from ordlab.catalog import all_posets_up_to, library_posets
from ordlab.errors import LimitExceededError
from ordlab.topology import FiniteTopology

from conftest import seeded_posets
from oracles import brute_force_closed_generation

INDISCRETE2 = from_closed_subbasis(2, [])
DISCRETE2 = from_closed_subbasis(2, [0b01, 0b10])


def masks_to_lists(opens, carrier):
    return sorted(sorted(i for i in range(carrier) if (m >> i) & 1) for m in opens)


class TestFromClosedSubbasis:
    def test_lower_chain2(self):
        t = from_closed_subbasis(2, [0b01, 0b11])
        assert t.opens() == (0, 0b10, 0b11)

    def test_empty_subbasis_indiscrete(self):
        t = from_closed_subbasis(3, [])
        assert t.opens() == (0, 0b111)

    def test_all_singletons_discrete(self):
        t = from_closed_subbasis(3, [0b001, 0b010, 0b100])
        assert is_discrete(t)
        assert len(t.opens()) == 8

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_closed_subbasis(2, [0b100])
        for bad in (0b100, -1):
            with pytest.raises(ValueError, match="open set out of carrier range"):
                from_open_subbasis(2, [bad])

    @given(st.integers(1, 2), st.data())
    def test_matches_brute_force_exhaustively(self, carrier, data):
        full = (1 << carrier) - 1
        closed = data.draw(st.lists(st.integers(0, full), max_size=4))
        expected = brute_force_closed_generation(carrier, closed)
        assert from_closed_subbasis(carrier, closed).opens() == expected
        # the complements generate the same topology as an open subbasis
        assert from_open_subbasis(carrier, [full & ~c for c in closed]).opens() == expected

    def test_matches_brute_force_seeded(self):
        rng = Random(404)
        for carrier in (3, 4):
            full = (1 << carrier) - 1
            for _ in range(12 if carrier == 3 else 4):
                closed = [rng.randint(0, full) for _ in range(rng.randint(0, 4))]
                expected = brute_force_closed_generation(carrier, closed)
                assert from_closed_subbasis(carrier, closed).opens() == expected
                assert from_open_subbasis(carrier, [full & ~c for c in closed]).opens() == expected

    @given(st.integers(1, 7), st.data())
    def test_output_is_a_topology(self, carrier, data):
        full = (1 << carrier) - 1
        closed = data.draw(st.lists(st.integers(0, full), max_size=6))
        opens = set(from_closed_subbasis(carrier, closed).opens())
        assert 0 in opens and full in opens
        for a in opens:
            for b in opens:
                assert a | b in opens and a & b in opens

    @given(st.integers(1, 6), st.data())
    def test_idempotent_regeneration(self, carrier, data):
        full = (1 << carrier) - 1
        closed = data.draw(st.lists(st.integers(0, full), max_size=5))
        t = from_closed_subbasis(carrier, closed)
        again = from_closed_subbasis(carrier, list(t.closed_family()))
        assert topologies_equal(t, again)

    @given(st.integers(1, 6), st.data())
    def test_generation_monotone(self, carrier, data):
        full = (1 << carrier) - 1
        closed = data.draw(st.lists(st.integers(0, full), max_size=5))
        extra = data.draw(st.integers(0, full))
        smaller = set(from_closed_subbasis(carrier, closed).opens())
        bigger = set(from_closed_subbasis(carrier, closed + [extra]).opens())
        assert smaller <= bigger

    def test_neighborhood_table_determines_family(self):
        rng = Random(77)
        tops = []
        for _ in range(25):
            carrier = rng.randint(1, 5)
            closed = [rng.randint(0, (1 << carrier) - 1) for _ in range(rng.randint(0, 4))]
            tops.append(from_closed_subbasis(carrier, closed))
        for a in tops:
            for b in tops:
                if a.carrier_size != b.carrier_size:
                    continue
                assert topologies_equal(a, b) == (set(a.opens()) == set(b.opens()))


class TestOpenFamily:
    def test_sparse_family_costs_its_size(self):
        # 21 opens on a 20-point carrier, at the subset cap: the walk holds
        # the family, not a table of all 2^20 masks (about 47 MB)
        t = lower_topology(chain(20))
        tracemalloc.start()
        try:
            opens = t.opens()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opens == tuple((1 << 20) - (1 << k) for k in range(20, -1, -1))
        assert peak < 1 << 20, peak


class TestIntervalTopology:
    def test_chain3_discrete_with_8_opens(self):
        t = interval_topology(chain(3))
        assert len(t.opens()) == 8
        assert is_discrete(t)

    def test_every_small_poset_discrete(self):
        pool = list(all_posets_up_to(4))
        pool += [p for _, p in library_posets(8)]
        pool += seeded_posets(80, range(5, 9), seed=23)
        for p in pool:
            t = interval_topology(p)
            assert is_discrete(t)
            assert is_hausdorff(t)

    def test_cube_equals_product_of_interval_factors(self):
        lhs = interval_topology(boolean_power(3))
        rhs = product_topology([interval_topology(two())] * 3)
        assert topologies_equal(lhs, rhs)


class TestProductTopology:
    def test_single_factor_identity(self):
        t = lower_topology(m3())
        assert topologies_equal(product_topology([t]), t)

    def test_discrete_factors_give_discrete(self):
        t = product_topology([DISCRETE2, DISCRETE2, DISCRETE2])
        assert is_discrete(t)

    def test_huge_size_refused_before_it_is_built(self):
        with pytest.raises(LimitExceededError, match=r"^product topology: 2\^20000 or more elements"):
            product_topology([DISCRETE2] * 20000)

    def test_lower_squared_has_six_opens(self):
        t = product_topology([lower_topology(two()), lower_topology(two())])
        opens = t.opens()
        assert len(opens) == 6
        assert masks_to_lists(opens, 4) == [[], [0, 1, 2, 3], [1, 2, 3], [1, 3], [2, 3], [3]]

    def test_matches_open_subbasis_of_preimages(self):
        a, b = lower_topology(chain(3)), upper_topology(two())
        prod = product_topology([a, b])
        subbasis = []
        for u in a.opens():
            mask = 0
            for i in range(6):
                if (u >> (i // 2)) & 1:
                    mask |= 1 << i
            subbasis.append(mask)
        for v in b.opens():
            mask = 0
            for i in range(6):
                if (v >> (i % 2)) & 1:
                    mask |= 1 << i
            subbasis.append(mask)
        assert topologies_equal(prod, from_open_subbasis(6, subbasis))


class TestSeparation:
    def test_equal_examples(self):
        assert topologies_equal(DISCRETE2, DISCRETE2)
        assert not topologies_equal(DISCRETE2, INDISCRETE2)
        with pytest.raises(ValueError):
            topologies_equal(DISCRETE2, from_closed_subbasis(3, []))

    def test_hausdorff_examples(self):
        assert is_hausdorff(DISCRETE2)
        assert not is_hausdorff(INDISCRETE2)
        assert not is_hausdorff(lower_topology(two()))
        assert is_hausdorff(from_closed_subbasis(1, []))

    def test_t1_examples(self):
        assert is_t1(DISCRETE2)
        assert not is_t1(lower_topology(two()))
        assert not is_t1(INDISCRETE2)

    def test_discrete_examples(self):
        assert is_discrete(DISCRETE2)
        assert not is_discrete(lower_topology(chain(3)))

    def test_lower_topology_on_chain_is_not_hausdorff(self):
        for k in (2, 3, 4):
            assert not is_hausdorff(lower_topology(chain(k)))
            assert not is_hausdorff(upper_topology(chain(k)))


class TestDump:
    def test_golden_lower_chain2(self):
        doc = topology_to_dict(lower_topology(two()))
        assert doc == {"carrier": 2, "opens": [[], [0, 1], [1]]}

    def test_golden_interval_chain2(self):
        doc = topology_to_dict(interval_topology(two()))
        assert doc == {"carrier": 2, "opens": [[], [0], [0, 1], [1]]}

    def test_invalid_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteTopology(2, (0b01, 0b01))  # 1 not in its own neighborhood
        with pytest.raises(ValueError):
            FiniteTopology(2, (0b11, 0b10, 0b10))
