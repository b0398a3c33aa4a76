import pytest
from random import Random

from ordlab import (
    LimitExceededError,
    are_order_isomorphic,
    boolean_power,
    chain,
    m3,
    n5,
    named_poset,
    random_lattice,
    random_poset,
    two,
)
from ordlab.catalog import (
    PosetFamily,
    _random_distributive_lattice,
    all_lattices,
    all_posets,
    antichain_bounded,
    iso_representatives,
    library_lattices,
    library_posets,
    poset_names,
)
from ordlab.order_core import Poset

from oracles import relabelled


def brute_force_labeled_posets(n):
    """Filter every reflexive relation on n points for the poset axioms."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        for k, pq in enumerate(pairs):
            if (bits >> k) & 1:
                rel.add(pq)
        if any((j, i) in rel for (i, j) in rel if i != j):
            continue
        if any((a, d) not in rel for (a, b) in rel for (c, d) in rel if b == c):
            continue
        count += 1
    return count


class TestNamedPosets:
    def test_all_names_resolve(self):
        for name in poset_names():
            p = named_poset(name)
            assert isinstance(p, Poset)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_poset("Z17")

    def test_shapes(self):
        assert two().n == 2 and two().labels == ("0", "1")
        assert m3().n == 5 and not m3().certificate.is_distributive
        assert n5().n == 5 and not n5().certificate.is_distributive
        assert are_order_isomorphic(antichain_bounded(2), boolean_power(2))
        assert antichain_bounded(4).certificate.is_lattice

    def test_library_contains_required_structures(self):
        names = [name for name, _ in library_posets(16)]
        assert "2" in names
        for n in (1, 2, 3, 4):
            assert f"2^{n}" in names or n == 1  # 2^1 deduplicates onto the chain "2"
        assert "2xchain3" in names  # product of chains

    def test_library_sorted_and_capped(self):
        lib = library_posets(6)
        sizes = [p.n for _, p in lib]
        assert sizes == sorted(sizes)
        assert all(s <= 6 for s in sizes)

    def test_library_lattices_are_lattices(self):
        for _, p in library_lattices(16):
            assert p.certificate.is_lattice


class TestAllPosets:
    def test_counts_match_brute_force(self):
        for n in (1, 2, 3):
            assert len(all_posets(n)) == brute_force_labeled_posets(n)

    def test_known_counts(self):
        assert [len(all_posets(n)) for n in range(1, 7)] == [1, 3, 19, 219, 4231, 130023]

    def test_all_valid_and_distinct(self):
        seen = set()
        for p in all_posets(4):
            Poset(p.labels, p.down)  # re-validate the axioms
            assert p.down not in seen
            seen.add(p.down)
        # covers() comes out sorted (i ascending, then j through iter_bits)
        for n in range(1, 6):
            assert all(p.covers() == sorted(p.covers()) for p in all_posets(n))

    def test_lattice_counts(self):
        assert [len(all_lattices(n)) for n in range(1, 7)] == [1, 2, 6, 36, 380, 6390]

    def test_iso_classes_on_64_points(self):
        # the normal code relabels row by row, with no table over the 2^64
        # subsets: two labellings of the chain, 2^6 and a shuffled copy, and
        # a random poset give three classes
        rng = Random(64)
        perm = list(range(64))
        rng.shuffle(perm)
        posets = [
            chain(64),
            relabelled(chain(64), list(range(63, -1, -1))),
            boolean_power(6),
            relabelled(boolean_power(6), perm),
            random_poset(64, rng),
        ]
        reps = iso_representatives(posets)
        assert [p.n for p in reps] == [64, 64, 64]
        assert reps == [posets[0], posets[2], posets[4]]


class TestPackedFamily:
    """Gate for the packed census: the codes of ``all_posets`` read back as
    valid posets, and ``all_lattices`` filters the packed rows as the
    certificate would filter the posets."""

    def test_codes_read_back_as_valid_posets(self):
        for n in range(1, 6):
            family = all_posets(n)
            assert isinstance(family, PosetFamily) and family.n == n
            assert len(family.codes) == len(family)
            read = list(family)
            assert len(read) == len(family)
            for i, p in enumerate(read):
                indexed = family[i]
                assert (p.labels, p.down, p.up) == (indexed.labels, indexed.down, indexed.up)
                # re-validates the axioms and derives up as the transpose of down
                assert Poset(p.labels, p.down).up == p.up
        assert family[-1] == read[-1]
        # the census order on two points: incomparable, then 1 < 0, then 0 < 1
        assert [(p.down, p.up) for p in all_posets(2)] == [
            ((1, 2), (1, 2)), ((3, 2), (1, 3)), ((1, 3), (3, 2))
        ]

    def test_nine_points_exceed_the_packed_limit(self):
        with pytest.raises(LimitExceededError):
            all_posets(9)

    def test_guard_runs_before_the_cache(self, monkeypatch):
        # a cached size is refused too, and the message names the subset
        # tables of the size asked for (5 rows for 6 points)
        all_posets(6)
        monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "2")
        with pytest.raises(
            LimitExceededError, match="^upper-bounds table: 5 elements exceeds subset-enumeration limit 2$"
        ):
            all_posets(6)


class TestRandomPoset:
    def test_deterministic(self):
        assert random_poset(6, Random(11)) == random_poset(6, Random(11))

    def test_valid(self):
        rng = Random(3)
        for _ in range(30):
            p = random_poset(rng.randint(1, 8), rng)
            Poset(p.labels, p.down)


class TestRandomLattice:
    def test_deterministic(self):
        for seed in range(8):
            assert random_lattice(5, seed) == random_lattice(5, seed)

    def test_certified(self):
        for seed in range(25):
            p = random_lattice(2 + seed % 6, seed)
            assert p.certificate.is_lattice
            assert p.n == 2 + seed % 6

    def test_size_two_is_the_chain(self):
        for seed in (0, 1, 2):
            assert are_order_isomorphic(random_lattice(2, seed), chain(2))

    def test_distributive_construction(self):
        # a draw keeps its lattice only when it has the requested size
        rng = Random(0)
        kept = [p for p in (_random_distributive_lattice(5, rng) for _ in range(300)) if p is not None]
        assert len(kept) >= 10 and all(p.n == 5 and p.certificate.is_distributive for p in kept)

    def test_mixed_mode_produces_non_distributive_samples(self):
        found = any(
            not random_lattice(6, seed).certificate.is_distributive for seed in range(40)
        )
        assert found

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_lattice(1, 0)
