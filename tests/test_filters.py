import pytest

from ordlab import (
    MalformedInputError,
    SetFilter,
    boolean_power,
    chain,
    limit_mask,
    m3,
    order_converges,
    star_converges,
    super_filters,
    upper_iff_downset,
)
from ordlab.catalog import all_lattices, all_posets_up_to, iso_representatives, library_posets
from ordlab.filters import convergence_points, order_convergence_is_pointlike

from conftest import seeded_posets
from oracles import (
    filter_lower_definitional,
    filter_members,
    filter_upper_definitional,
    satisfies_filter_axioms,
    star_limits_by_subsets,
)


class TestConstruction:
    def test_generator_must_be_nonempty(self):
        with pytest.raises(MalformedInputError):
            SetFilter(chain(2), 0)

    def test_limit_routes_check_the_generator(self):
        with pytest.raises(MalformedInputError, match="nonempty"):
            limit_mask(chain(2), 0)
        for gen in (0b100, -1):
            with pytest.raises(MalformedInputError, match="out of range"):
                limit_mask(chain(2), gen)

    def test_represented_family_satisfies_axioms(self):
        pool = [p for _, p in library_posets(6)] + seeded_posets(20, range(2, 7), seed=5)
        for p in pool:
            for gen in (1, p.full_mask, (p.full_mask >> 1) or 1):
                f = SetFilter(p, gen)
                assert satisfies_filter_axioms(p.n, filter_members(f))


class TestUpperLower:
    def test_examples(self):
        b2 = boolean_power(2)
        f = SetFilter(b2, b2.mask_of_labels(["01", "10"]))
        assert b2.labels_of(b2.upper_bounds_mask(f.generator)) == ["11"]
        g = SetFilter(b2, 1 << b2.index_of("01"))
        assert b2.upper_bounds_mask(g.generator) == b2.up[b2.index_of("01")]
        c = chain(3)
        assert c.upper_bounds_mask(SetFilter(c, 0b101).generator) == 0b100

    def test_generator_route_equals_definitional_union(self):
        pool = list(all_posets_up_to(4))
        pool += [p for _, p in library_posets(6)]
        pool += seeded_posets(30, range(5, 7), seed=29)
        for p in pool:
            for gen in range(1, p.full_mask + 1):
                f = SetFilter(p, gen)
                assert p.upper_bounds_mask(f.generator) == filter_upper_definitional(f)
                assert p.lower_bounds_mask(f.generator) == filter_lower_definitional(f)


class TestPrincipality:
    def test_axiom_checker_agrees_with_members(self):
        p = chain(4)
        assert satisfies_filter_axioms(4, filter_members(SetFilter(p, 0b0110)))
        assert not satisfies_filter_axioms(4, [0b0110, 0b1111])  # not upward closed
        assert not satisfies_filter_axioms(4, [0, 0b1111])  # empty member
        assert not satisfies_filter_axioms(4, [0b0100, 0b0010, 0b0110, 0b1110, 0b1010, 0b1100, 0b0111, 0b1011, 0b1101, 0b1111])


class TestOrderConvergence:
    def test_singleton_converges_to_its_point(self):
        for p in (boolean_power(2), m3(), chain(4)):
            for x in range(p.n):
                f = SetFilter(p, 1 << x)
                assert order_converges(f, x)
                assert convergence_points(f) == [x]

    def test_atom_pair_converges_nowhere(self):
        b2 = boolean_power(2)
        f = SetFilter(b2, b2.mask_of_labels(["01", "10"]))
        assert convergence_points(f) == []

    def test_whole_chain_converges_nowhere(self):
        c = chain(3)
        f = SetFilter(c, 0b111)
        assert convergence_points(f) == []

    def test_no_convergence_without_bounds(self):
        from ordlab import build_poset

        p = build_poset(["x", "y"], [])
        # the pair {x, y} has no upper bounds at all, so the infimum of
        # the upper-bound set is absent and convergence fails quietly
        f = SetFilter(p, 0b11)
        assert not order_converges(f, 0)
        assert not order_converges(f, 1)
        # a point filter still converges: both bounds exist and equal x
        assert order_converges(SetFilter(p, 0b01), 0)

    def test_limit_unique(self):
        for p in [q for _, q in library_posets(6) if q.certificate.is_lattice]:
            for gen in range(1, p.full_mask + 1):
                pts = convergence_points(SetFilter(p, gen))
                assert len(pts) <= 1

    def test_degeneracy_law_exhaustive(self):
        lattices = iso_representatives(
            [l for n in range(1, 6) for l in all_lattices(n)]
        )
        lattices += [q for _, q in library_posets(6) if q.certificate.is_lattice]
        for p in lattices:
            assert order_convergence_is_pointlike(p)


class TestSuperFilters:
    def test_counts(self):
        p = m3()
        for labels, count in ((["a"], 1), (["a", "b"], 3), (["a", "b", "c"], 7)):
            assert len(super_filters(SetFilter(p, p.mask_of_labels(labels)))) == count

    def test_exactly_the_containing_filters(self):
        for p in [q for _, q in library_posets(5)]:
            for gen in range(1, p.full_mask + 1):
                f = SetFilter(p, gen)
                supers = {g.generator for g in super_filters(f)}
                for other in range(1, p.full_mask + 1):
                    contains = set(filter_members(SetFilter(p, other))) >= set(filter_members(f))
                    assert contains == (other in supers)


class TestStarConvergence:
    def test_singleton_star_converges(self):
        p = boolean_power(2)
        for x in range(p.n):
            assert star_converges(SetFilter(p, 1 << x), x)

    def test_atom_pair_star_converges_nowhere(self):
        b2 = boolean_power(2)
        f = SetFilter(b2, b2.mask_of_labels(["01", "10"]))
        assert all(not star_converges(f, x) for x in range(4))

    def test_star_equals_pointlike_generator(self):
        lattices = iso_representatives([l for n in range(1, 6) for l in all_lattices(n)])
        for p in lattices:
            for gen in range(1, p.full_mask + 1):
                f = SetFilter(p, gen)
                assert star_limits_by_subsets(p, gen) == (0 if gen & (gen - 1) else gen)
                for x in range(p.n):
                    assert star_converges(f, x) == (gen == 1 << x)

    def test_large_generator_stops_early(self):
        # 2^64 super-filters: the closed form walks none of them
        c = chain(64)
        assert limit_mask(c, c.full_mask) == 0
        assert limit_mask(c, 1 << 63) == 1 << 63


class TestUpperIffDownset:
    def test_examples(self):
        b2 = boolean_power(2)
        bot, a, b, top = (b2.index_of(l) for l in ("00", "01", "10", "11"))
        f = SetFilter(b2, 1 << a)
        assert upper_iff_downset(f, top)  # both sides true
        g = SetFilter(b2, (1 << a) | (1 << b))
        assert upper_iff_downset(g, a)  # both sides false
