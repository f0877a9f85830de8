from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartition import genfun
from qpartition.partitions import KrVariant, brute_series, check_kr, iter_partitions, kr_rule
from qpartition.seeds import (
    expand_seed,
    seed_decomposition,
    staircase,
    to_seed,
)

D = KrVariant.D
DP = KrVariant.DPRIME
DPP = KrVariant.DPRIMEPRIME


def test_to_seed_worked_examples():
    assert to_seed((4, 4, 8, 11, 13, 19, 21, 23, 25), D) == (
        3, 5, 8, 11, 13, 19, 21, 23, 25,
    )
    assert to_seed((2, 2, 6, 12, 12, 16, 18, 24, 24), DP) == (
        1, 3, 6, 11, 13, 16, 18, 23, 25,
    )


def test_to_seed_fixed_point():
    p = (3, 5, 8, 11, 13)
    seed = to_seed(p, D)
    assert seed == p
    assert to_seed(seed, D) == seed
    # the single pass on every class partition of n <= 30
    for n in range(31):
        for parts in iter_partitions(n):
            for variant in (D, DP, DPP):
                if not check_kr(parts, variant):
                    continue
                seed = to_seed(parts, variant)
                assert list(seed) == sorted(seed), parts
                assert (sum(seed), len(seed)) == (n, len(parts))
                assert not any(
                    a == b and a % 2 == 0 for a, b in zip(seed, seed[1:])
                ), parts
                if check_kr(seed, variant):
                    assert to_seed(seed, variant) == seed


def test_to_seed_preserves_weight_and_length():
    p = (4, 4, 8, 12, 12, 20, 20, 24, 24)
    seed = to_seed(p, D)
    assert sum(seed) == sum(p) and len(seed) == len(p)


def test_to_seed_rejects_outside_class():
    with pytest.raises(ValueError):
        to_seed((2, 2), D)


def test_seed_decomposition_groups():
    dec = seed_decomposition((3, 5, 8, 11, 13, 19, 21, 23, 25), D)
    assert dec.base == staircase(9)
    assert dec.mu == (2, 2, 3, 4, 4, 8, 8, 8, 8)
    assert [(g.start, g.stop, g.value) for g in dec.groups] == [
        (0, 2, 2),
        (3, 5, 4),
        (5, 9, 8),
    ]
    assert dec.forced_prefix == 0


def test_seed_decomposition_forced_prefix():
    dec = seed_decomposition((1, 3, 6, 11, 13, 16, 18, 23, 25), DP)
    assert dec.mu == (0, 0, 1, 4, 4, 5, 5, 8, 8)
    assert dec.forced_prefix == 2
    assert [(g.start, g.stop, g.value) for g in dec.groups] == [(3, 5, 4), (7, 9, 8)]


def test_seed_decomposition_rejects_odd_zero_run():
    with pytest.raises(ValueError):
        seed_decomposition((1, 3, 5, 10), DP)  # three leading zeros in mu


def test_expand_seed_worked_lists():
    eight = expand_seed((3, 5, 8, 11, 13, 19, 21, 23, 25), D)
    assert len(eight) == 8
    assert (4, 4, 8, 12, 12, 19, 21, 23, 25) in eight
    assert (4, 4, 8, 12, 12, 20, 20, 24, 24) in eight
    assert all(sum(p) == 128 and len(p) == 9 for p in eight)

    four = expand_seed((1, 3, 6, 11, 13, 16, 18, 23, 25), DP)
    assert four == [
        (2, 2, 6, 11, 13, 16, 18, 23, 25),
        (2, 2, 6, 11, 13, 16, 18, 24, 24),
        (2, 2, 6, 12, 12, 16, 18, 23, 25),
        (2, 2, 6, 12, 12, 16, 18, 24, 24),
    ]


def test_expand_seed_no_groups_is_singleton():
    assert expand_seed((4, 6), D) == [(4, 6)]
    # the whole leading zero run is rewritten pairwise, not just 1+3
    assert expand_seed((1, 3, 5, 7), DP) == [(2, 2, 6, 6)]


def test_odd_multiplicity_even_value_gives_no_toggle():
    # mu = 2,2,2: an odd-length run is not a toggle group
    assert expand_seed((3, 5, 7, 10), D) == [(3, 5, 7, 10)]


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_seed_classes_partition_the_whole_class(variant):
    # every class partition of n <= 30 lands in exactly one seed class, and
    # expanding the seed reproduces the class exactly
    top = 30
    for n in range(top + 1):
        by_seed = defaultdict(list)
        for parts in iter_partitions(n):
            if check_kr(parts, variant):
                by_seed[to_seed(parts, variant)].append(parts)
        for seed, members in by_seed.items():
            assert expand_seed(seed, variant) == sorted(members), (variant, seed)


def test_odd_streaks_cannot_toggle():
    # the streak 3,5,7 in the seed 3+5+7+10 has odd length; rewriting either
    # adjacent odd pair back into repeated evens leaves the class, so the
    # streak carries no toggle and the class is a singleton
    assert check_kr((3, 5, 7, 10), D)
    assert not check_kr((4, 4, 7, 10), D)
    assert not check_kr((3, 6, 6, 10), D)
    assert expand_seed((3, 5, 7, 10), D) == [(3, 5, 7, 10)]


def test_expansions_share_their_seed():
    # every member of an expansion maps back to the seed it came from
    for n in range(26):
        for parts in iter_partitions(n):
            if not check_kr(parts, D):
                continue
            seed = to_seed(parts, D)
            for member in expand_seed(seed, D):
                assert to_seed(member, D) == seed


@st.composite
def _class_partition(draw):
    """A variant and a member of its class, built to satisfy (a)-(c) and the
    initial condition: gaps of at least 2, only even values doubled, a gap
    of at least 4 on both sides of a doubled value, and no 2+2 for D."""
    variant = draw(st.sampled_from([D, DP, DPP]))
    v = draw(st.integers({D: 1, DP: 2, DPP: 4}[variant], 8))
    parts = []
    for _ in range(draw(st.integers(1, 14))):
        double = (
            v % 2 == 0
            and (not parts or v - parts[-1] >= 4)
            and not (variant is D and v == 2)
            and draw(st.booleans())
        )
        parts.extend([v, v] if double else [v])
        v += draw(st.integers(4 if double else 2, 8))
    return variant, tuple(parts)


@settings(max_examples=150, deadline=None)
@given(_class_partition())
def test_seed_round_trip_property(case):
    variant, parts = case
    assert check_kr(parts, variant)
    expansion = expand_seed(to_seed(parts, variant), variant)
    assert parts in expansion
    for member in expansion:
        assert check_kr(member, variant)
        assert (sum(member), len(member)) == (sum(parts), len(parts))


def _weighted_zero_count(a, n, m, even_zeros):
    """Direct enumeration oracle for the marker products."""
    total = 0
    for parts in iter_partitions(n, max_len=m):
        zeros = m - len(parts)
        if even_zeros and zeros % 2:
            continue
        e = 0
        values = set(parts)
        for v in values:
            if v % 2 == 0 and parts.count(v) % 2 == 0:
                e += 1
        total += a**e
    return total


def _marker_product(variant, a, max_q, max_t):
    """The marker product A (D) or B (D') on its window, read off
    ``kr_marker`` by undoing the staircase t^m -> t^m q^{m^2}."""
    s = genfun.kr_marker(variant, a, max_q + max_t * max_t, max_t)
    return lambda n, m: s.coeff(n + m * m, m)


@pytest.mark.parametrize("a", [0, 1, 2])
def test_product_A_matches_weighted_enumeration(a):
    max_q, max_t = 20, 8
    s = _marker_product(D, a, max_q, max_t)
    for n in range(max_q + 1):
        for m in range(max_t + 1):
            assert s(n, m) == _weighted_zero_count(a, n, m, False), (a, n, m)


@pytest.mark.parametrize("a", [0, 2])
def test_product_B_matches_weighted_enumeration(a):
    max_q, max_t = 20, 8
    s = _marker_product(DP, a, max_q, max_t)
    for n in range(max_q + 1):
        for m in range(max_t + 1):
            assert s(n, m) == _weighted_zero_count(a, n, m, True), (a, n, m)


def test_product_B_zero_multiplicity_is_even():
    s = _marker_product(DP, 2, 10, 4)
    assert s(0, 2) == 1  # two zeros
    assert s(0, 1) == 0  # a single zero is barred
    assert s(0, 4) == 1


def test_product_A_at_one_counts_padded_partitions():
    s = _marker_product(D, 1, 10, 6)
    # coefficient of t^m q^n counts partitions of n into at most m parts
    assert s(4, 4) == 5
    assert s(4, 2) == 3  # 4, 1+3, 2+2


@pytest.mark.parametrize("a", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_marker_product_counts_seeds_by_toggle_groups(variant, a):
    # every class partition of the window, from the brute walk, is mapped
    # to its seed; each distinct seed counts a^{#toggle groups}
    max_q, max_t = 30, 8
    admits = kr_rule(variant)
    found = {()}  # the empty partition, which the walk counts unasked

    def record(parts):
        ok = admits(parts)
        if ok:
            found.add(to_seed(parts, variant))
        return ok

    brute_series(record, max_q, max_t)
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    for seed in found:
        rows[len(seed)][sum(seed)] += a ** len(seed_decomposition(seed, variant).groups)
    assert genfun.kr_marker(variant, a, max_q, max_t)._rows == rows
