import itertools
import re
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ordlab import (
    MalformedInputError,
    are_order_isomorphic,
    boolean_power,
    build_poset,
    chain,
    m3,
    poset_from_dict,
    poset_to_dict,
    product,
    variant_distributive_identity_holds,
)
from ordlab.catalog import all_posets_up_to, library_posets, random_poset
from ordlab.errors import LimitExceededError

from conftest import seeded_posets
from oracles import is_complete_literal, naive_infimum, naive_supremum, naive_transitive_closure


def subsets_of(p):
    return range(p.full_mask + 1)


class TestBuildPoset:
    def test_two_chain(self):
        p = build_poset(["0", "1"], [(0, 1)])
        assert p.leq(0, 1) and not p.leq(1, 0)
        assert p.leq(0, 0) and p.leq(1, 1)

    def test_singleton(self):
        p = build_poset(["a"], [])
        assert p.n == 1 and p.leq(0, 0)

    def test_cycle_rejected(self):
        with pytest.raises(MalformedInputError, match="cycle"):
            build_poset(["0", "1"], [(0, 1), (1, 0)])
        with pytest.raises(MalformedInputError, match="cycle"):
            build_poset(["0"], [(0, 0)])

    def test_duplicate_label_rejected(self):
        with pytest.raises(MalformedInputError, match="duplicate label"):
            build_poset(["x", "x"], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInputError, match="out of range"):
            build_poset(["0", "1"], [(0, 2)])

    def test_duplicate_cover_rejected(self):
        with pytest.raises(MalformedInputError, match="duplicate cover"):
            build_poset(["0", "1"], [(0, 1), (0, 1)])

    def test_transitive_edge_rejected(self):
        # full relations must not be accepted as cover input
        with pytest.raises(MalformedInputError, match="implied"):
            build_poset(["0", "1", "2"], [(0, 1), (1, 2), (0, 2)])

    @settings(max_examples=200)  # enough draws to meet a path through the last index
    @given(st.integers(1, 6), st.data())
    def test_closure_matches_naive_oracle(self, n, data):
        # any edges i != j, so cycles and implied edges occur too
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        closure = naive_transitive_closure(n, edges)
        labels = [str(i) for i in range(n)]
        if any((j, i) in closure for i, j in closure if i != j):
            with pytest.raises(MalformedInputError, match="^cycle detected in covers$"):
                build_poset(labels, edges)
            return
        covers = [
            (i, j)
            for (i, j) in closure
            if i != j
            and not any(k != i and k != j and (i, k) in closure and (k, j) in closure for k in range(n))
        ]
        implied = [edge for edge in edges if edge not in covers]
        if implied:
            message = re.escape(f"edge {implied[0]} is implied by other covers")
            with pytest.raises(MalformedInputError, match="^" + message):
                build_poset(labels, edges)
        # the covers of the closure are accepted, and give the closure back
        p = build_poset(labels, covers)
        assert {(i, j) for i in range(n) for j in range(n) if p.leq(i, j)} == closure


class TestDownSetsAndBounds:
    # the principal down-set of x is the row down[x]
    def test_down_set_chain(self):
        c = chain(3)
        assert c.down[1] == 0b011

    def test_down_set_atom(self):
        b2 = boolean_power(2)
        a = b2.index_of("01")
        assert b2.labels_of(b2.down[a]) == ["00", "01"]

    def test_down_set_top_is_carrier(self):
        for p in (chain(4), boolean_power(3), m3()):
            assert p.down[p.top] == p.full_mask

    def test_upper_bounds_examples(self):
        b2 = boolean_power(2)
        atoms = b2.mask_of_labels(["01", "10"])
        assert b2.labels_of(b2.upper_bounds_mask(atoms)) == ["11"]
        assert b2.upper_bounds_mask(0) == b2.full_mask
        assert b2.lower_bounds_mask(0) == b2.full_mask
        c = chain(3)
        assert c.upper_bounds_mask(0b101) == 0b100

    def test_masks_out_of_range_rejected(self):
        p = m3()
        for method in (p.upper_bounds_mask, p.lower_bounds_mask, p.infimum_mask, p.supremum_mask):
            for mask in (-1, 1 << p.n):
                with pytest.raises(ValueError, match="out of range"):
                    method(mask)
        with pytest.raises(ValueError, match="out of range"):
            p.meet(0, p.n)

    def test_labels_of_and_mask_of_labels(self):
        p = m3()
        assert p.labels_of(0) == [] and p.mask_of_labels([]) == 0
        for mask in subsets_of(p):
            assert p.mask_of_labels(p.labels_of(mask)) == mask
        assert p.labels_of(p.mask_of_labels(["c", "a"])) == ["a", "c"]

    def test_bounds_antitone(self):
        p = m3()
        for s in subsets_of(p):
            for t in subsets_of(p):
                if s & ~t == 0:  # s subset of t
                    assert p.upper_bounds_mask(t) & ~p.upper_bounds_mask(s) == 0

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_bounds_match_naive_oracle(self, seed, size):
        p = random_poset(size, Random(seed))
        for mask in subsets_of(p):
            s = frozenset(i for i in range(size) if (mask >> i) & 1)
            assert p.infimum_mask(mask) == naive_infimum(p, s)
            assert p.supremum_mask(mask) == naive_supremum(p, s)


class TestInfimum:
    def test_coatom_family_meets_to_bottom(self):
        b3 = boolean_power(3)
        fam = b3.mask_of_labels(["011", "101", "110"])
        assert b3.infimum_mask(fam) == b3.bottom

    def test_empty_set_conventions(self):
        for p in (chain(4), boolean_power(2), m3()):
            assert p.infimum_mask(0) == p.top
            assert p.supremum_mask(0) == p.bottom

    def test_antichain_has_no_infimum(self):
        p = build_poset(["x", "y"], [])
        assert p.infimum_mask(0b11) is None
        assert p.infimum_mask(0) is None  # no top either

    def test_infimum_is_greatest_lower_bound(self):
        for p in [q for _, q in library_posets(8)] + seeded_posets(20, range(1, 7), seed=3):
            for mask in subsets_of(p):
                inf = p.infimum_mask(mask)
                if inf is None:
                    continue
                lb = p.lower_bounds_mask(mask)
                assert (lb >> inf) & 1
                assert all(p.leq(y, inf) for y in range(p.n) if (lb >> y) & 1)

    def test_sandwich_between_bounds(self):
        # each member of S sits between sup of lower bounds and inf of upper bounds
        pool = list(all_posets_up_to(4))
        pool += [q for _, q in library_posets(6)]
        pool += seeded_posets(100, range(5, 7), seed=11)
        for p in pool:
            for mask in range(1, p.full_mask + 1):
                lo = p.supremum_mask(p.lower_bounds_mask(mask))
                hi = p.infimum_mask(p.upper_bounds_mask(mask))
                for s in range(p.n):
                    if not (mask >> s) & 1:
                        continue
                    if lo is not None:
                        assert p.leq(lo, s)
                    if hi is not None:
                        assert p.leq(s, hi)


class TestCertify:
    def test_boolean_powers(self):
        for n in range(1, 5):
            cert = boolean_power(n).certificate
            assert cert.is_lattice and cert.is_distributive

    def test_m3_not_distributive(self):
        cert = m3().certificate
        assert cert.is_lattice and not cert.is_distributive

    def test_antichain_not_lattice(self):
        cert = build_poset(["x", "y"], []).certificate
        assert not cert.is_lattice

    def test_completeness_shortcut_matches_literal(self):
        pool = list(all_posets_up_to(4))
        pool += [q for _, q in library_posets(6)]
        pool += seeded_posets(60, range(5, 7), seed=17)
        for p in pool:
            assert p.certificate.is_lattice == is_complete_literal(p)

    def test_early_exit_without_bottom(self):
        p = random_poset(64, Random(5))
        assert p.bottom is None
        assert not p.certificate.is_lattice
        assert "join_table" not in p.__dict__ and "meet_table" not in p.__dict__

    def test_early_exit_at_first_missing_join(self):
        # 0 < a, b < c, d < 1: bounded, but a and b have two minimal upper bounds
        p = build_poset(["0", "a", "b", "c", "d", "1"],
                        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
        assert (p.bottom, p.top) == (0, 5)
        assert not p.certificate.is_lattice
        assert "join_table" not in p.__dict__ and "meet_table" not in p.__dict__

    def test_pair_tables_match_naive_oracle(self):
        for p in list(all_posets_up_to(4)) + [m3(), boolean_power(3)]:
            p.certificate  # seeds the join table on lattices
            for i, j in itertools.product(range(p.n), repeat=2):
                pair = frozenset((i, j))
                assert p.meet_table[i][j] == naive_infimum(p, pair)
                assert p.join_table[i][j] == naive_supremum(p, pair)

    def test_variant_identity_cross_check(self):
        # the variant x ^ (y v z) = (x v y) ^ (x v z) fails whenever bottom != top
        assert not variant_distributive_identity_holds(boolean_power(3))
        assert not variant_distributive_identity_holds(m3())
        assert variant_distributive_identity_holds(chain(1))
        with pytest.raises(ValueError):
            variant_distributive_identity_holds(build_poset(["x", "y"], []))


class TestProduct:
    def test_two_by_chain3(self):
        p = product([chain(2), chain(3)])
        assert p.n == 6
        # pointwise order
        i = p.labels.index("(0,1)")
        j = p.labels.index("(1,2)")
        assert p.leq(i, j)
        assert not p.leq(p.labels.index("(1,0)"), p.labels.index("(0,2)"))

    def test_product_of_one_is_isomorphic_copy(self):
        p = m3()
        assert are_order_isomorphic(product([p]), p)

    def test_boolean_power_is_product_of_twos(self):
        for n in (1, 2, 3):
            assert are_order_isomorphic(boolean_power(n), product([chain(2)] * n))

    def test_association_independence(self):
        a, b, c = chain(2), chain(3), boolean_power(2)
        p1 = product([a, b, c])
        p2 = product([product([a, b]), c])
        p3 = product([a, product([b, c])])
        assert are_order_isomorphic(p1, p2)
        assert are_order_isomorphic(p1, p3)

    def test_size_guard(self):
        with pytest.raises(LimitExceededError, match="^product: 256 elements exceeds limit 64$"):
            product([boolean_power(4), boolean_power(4)])

    def test_huge_size_refused_before_it_is_built(self):
        # the full size has 6,021 digits, more than str() renders
        with pytest.raises(LimitExceededError, match=r"^product: 2\^20000 or more elements exceeds limit 64$"):
            product([chain(2)] * 20000)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product([])


class TestBooleanPower:
    def test_small_shapes(self):
        assert are_order_isomorphic(boolean_power(1), chain(2))
        b2 = boolean_power(2)
        assert b2.n == 4 and b2.certificate.is_lattice
        assert are_order_isomorphic(b2, build_poset(["b", "x", "y", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)]))
        b3 = boolean_power(3)
        assert b3.n == 8
        # height: longest chain 000 < 001 < 011 < 111 has 3 covers
        assert b3.leq(b3.index_of("000"), b3.index_of("111"))

    def test_guard(self):
        with pytest.raises(LimitExceededError, match="^boolean power: 512 elements exceeds limit 64$"):
            boolean_power(9)

    def test_huge_size_refused_before_it_is_built(self):
        with pytest.raises(LimitExceededError, match=r"^boolean power: 2\^1000000 elements exceeds limit 64$"):
            boolean_power(10**6)


class TestSerialization:
    def test_round_trip_examples(self):
        for _, p in library_posets(10):
            again = poset_from_dict(poset_to_dict(p))
            assert again.labels == p.labels and again.down == p.down

    @given(st.integers(0, 10**6), st.integers(1, 7))
    def test_round_trip_random(self, seed, size):
        p = random_poset(size, Random(seed))
        again = poset_from_dict(poset_to_dict(p))
        assert again.down == p.down

    def test_malformed_documents(self):
        for doc in (None, [], {}, {"labels": ["a"]}, {"labels": "a", "covers": []},
                    {"labels": ["a"], "covers": [[0]]}, {"labels": ["a"], "covers": [["x", 0]]}):
            with pytest.raises(MalformedInputError):
                poset_from_dict(doc)


class TestIsomorphism:
    def test_rejects_structurally_different(self):
        assert not are_order_isomorphic(chain(4), boolean_power(2))
        assert not are_order_isomorphic(m3(), chain(5))
        from ordlab import n5

        assert not are_order_isomorphic(m3(), n5())

    def test_accepts_relabelings(self):
        p = build_poset(["w", "x", "y", "z"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        q = build_poset(["d", "c", "b", "a"], [(3, 2), (3, 1), (2, 0), (1, 0)])
        assert are_order_isomorphic(p, q)

    def test_same_invariants_different_structure(self):
        # non-isomorphic pair sharing (down, up) size multisets and cover
        # counts, so the decision is forced into the backtracking search:
        # a V plus a reversed V, versus a 4-fence plus a 2-chain
        labels = ["0", "1", "2", "3", "4", "5"]
        a = build_poset(labels, [(2, 5), (3, 5), (4, 0), (4, 1)])
        b = build_poset(labels, [(3, 0), (4, 1), (5, 0), (5, 2)])
        assert not are_order_isomorphic(a, b)


class TestValidation:
    def test_bad_rows_rejected(self):
        from ordlab.order_core import Poset

        with pytest.raises(MalformedInputError, match="reflexive"):
            Poset(["a", "b"], (0b01, 0b01))
        with pytest.raises(MalformedInputError, match="antisymmetric"):
            Poset(["a", "b"], (0b11, 0b11))
        with pytest.raises(MalformedInputError, match="transitive"):
            Poset(["a", "b", "c"], (0b001, 0b011, 0b110))
        with pytest.raises(MalformedInputError, match="relation size"):
            Poset(["a", "b"], [1])
        with pytest.raises(MalformedInputError, match="out of range"):
            Poset(["a", "b"], (0b01, 0b110))
        with pytest.raises(MalformedInputError, match="out of range"):
            Poset(["a", "b"], (-1, 0b10))
        with pytest.raises(MalformedInputError, match="out of range"):
            Poset(["a", "b"], (True, 0b11))

    def test_bad_labels_and_covers_rejected(self):
        from ordlab.order_core import Poset

        # the string test runs before the duplicate test hashes the labels
        with pytest.raises(MalformedInputError, match="labels must be strings"):
            Poset([["a"]], [1])
        with pytest.raises(MalformedInputError, match="labels must be strings"):
            build_poset([1, 2], [(0, 1)])
        # a cover entry is two ints, not bools: the rule the poset files follow
        for entry in ((0, 1, 2), 5, ("x", "y"), (0.0, 1), "ab", (None, 1), (True, 1)):
            with pytest.raises(MalformedInputError, match="^bad cover entry: "):
                build_poset(["a", "b", "c"], [entry])

    def test_unknown_label(self):
        with pytest.raises(MalformedInputError, match="unknown label"):
            chain(2).mask_of_labels(["nope"])


class TestDual:
    def test_involution(self):
        for _, p in library_posets(8):
            assert p.dual().dual() == p

    def test_reverses_order(self):
        c = chain(3)
        d = c.dual()
        assert d.leq(2, 0) and not d.leq(0, 2)
        assert d.bottom == c.top and d.top == c.bottom
