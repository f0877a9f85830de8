import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import check_kr_literal

from qpartition import genfun, ppoly
from qpartition.genfun import (
    compare,
    h_brute,
    h_positive,
    h_product,
    kr_alternating,
    kr_brute,
    kr_marker,
    kr_positive,
    marginal_max_t,
    product_side,
    product_side_mod12,
)
from qpartition.partitions import KrVariant, check_at_most_twice, check_kr, iter_partitions
from qpartition.series import BiSeries, QPoly, divide_geometric

D = KrVariant.D
DP = KrVariant.DPRIME
DPP = KrVariant.DPRIMEPRIME


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_three_forms_agree_on_a_small_window(variant):
    brute = kr_brute(variant, 18, 7)
    alt = kr_alternating(variant, 18, 7)
    pos = kr_positive(variant, 18, 7)
    assert compare(brute, alt).equal
    assert compare(brute, pos).equal


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_positive_equals_alternating_on_a_wide_window(variant):
    assert kr_positive(variant, 300, 17) == kr_alternating(variant, 300, 17)


def test_kr_positive_divides_by_t_degree(monkeypatch):
    # the per-cell sum divided a copy of the row for every (core, i, j):
    # 5,388 divisions on this window.  Summing by t-degree first leaves 1,145
    # even with one division chain per core; the Horner sums over n12 and K
    # and the Euler sums make it 457
    calls = []
    real = genfun.divide_geometric

    def counted(row, d):
        calls.append(d)
        real(row, d)

    monkeypatch.setattr(genfun, "divide_geometric", counted)
    monkeypatch.setattr(genfun, "_h_plus_memo", [])  # count H+'s divisions too
    kr_positive(D, 300, 17)
    assert 0 < len(calls) <= 1500


def test_kr_alternating_divides_by_t_degree(monkeypatch):
    # one division per (i, j, k) term of the triple sum is 1,029 on this
    # window.  As a numerator over two Euler sums it makes 420; summing the
    # t^2 factor first makes 559, and dividing all-zero rows makes 741
    calls = []
    real = genfun.divide_geometric

    def counted(row, d):
        calls.append(d)
        real(row, d)

    monkeypatch.setattr(genfun, "divide_geometric", counted)
    kr_alternating(D, 1000, 31)
    assert 0 < len(calls) <= 450


def test_pair_product_builds_each_row_by_its_q_difference(monkeypatch):
    # adding every factor into every t-row took thousands of adds on this
    # window; the q-difference equation builds t-row m from rows m - 1 and
    # m - 2 with at most two adds and one division
    calls = {"add": 0, "divide": 0}
    real_add, real_divide = genfun.add_shifted, genfun.divide_geometric

    def add(*args):
        calls["add"] += 1
        real_add(*args)

    def divide(row, d):
        calls["divide"] += 1
        real_divide(row, d)

    monkeypatch.setattr(genfun, "add_shifted", add)
    monkeypatch.setattr(genfun, "divide_geometric", divide)
    h_product(800, 60)
    built = math.isqrt(4 * 800 + 3) - 1  # t-rows 1..built; past them H is zero
    assert 0 < calls["divide"] <= built and calls["add"] <= 2 * built


_ROUTES = {
    "kr_brute": functools.partial(kr_brute, D),
    "kr_alternating": functools.partial(kr_alternating, D),
    "kr_positive": functools.partial(kr_positive, D),
    "kr_marker": functools.partial(kr_marker, D, 2),
    "h_brute": h_brute,
    "h_positive": h_positive,
    "h_product": h_product,
    # the t = 1 products take no t-window, so only a negative max_q is theirs
    "product_side": lambda max_q, max_t: product_side(D, max_q),
    "product_side_mod12": lambda max_q, max_t: product_side_mod12(DP, max_q),
}
_WINDOWS = [(-1, 3), (5, -2), (-3, -4)]


@pytest.mark.parametrize(
    "route,window",
    [
        pytest.param(route, window, id="%s-window%d" % (route, i))
        for route in sorted(_ROUTES)
        for i, window in enumerate(_WINDOWS)
        if window[0] < 0 or not route.startswith("product_side")
    ],
)
def test_routes_reject_negative_windows(route, window):
    with pytest.raises(ValueError, match="max_q and max_t must be >= 0"):
        _ROUTES[route](*window)


def test_positivity_guard_names_the_cell(monkeypatch):
    # a P0 with a negative coefficient for the one core (1, 0, 0, 0) must
    # stop both positive sums at that core's row; the sums read the
    # unchecked recursion entry, so the negative P is planted there
    real_p_parity = ppoly._p_parity

    def broken_p_parity(m1, m2, m3, s, parity):
        if (m1, m2, m3, s, parity) == (1, 0, 0, 2, 0):
            return QPoly((-1,))
        return real_p_parity(m1, m2, m3, s, parity)

    monkeypatch.setattr(ppoly, "_p_parity", broken_p_parity)
    # a kept H+ row would not read P again
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    with pytest.raises(AssertionError, match=r"cell \(1, 0, 0, 0\)$"):
        kr_positive(D, 40, 8)
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    with pytest.raises(AssertionError, match=r"cell \(1, 0, 0, 0\)$"):
        h_positive(20, 8)


def test_positivity_guard_checks_the_rows_after_the_euler_sums(monkeypatch):
    # a denominator that subtracts breaks positivity only after every P is in
    def subtracting_sum(rows, dt, dq, b):
        for row in rows[dt:]:
            row[:] = [c - 1 for c in row]

    monkeypatch.setattr(genfun, "_euler_sum", subtracting_sum)
    with pytest.raises(AssertionError, match=r"t-degree row 1$"):
        kr_positive(DP, 20, 4)


def test_alternating_low_coefficients():
    s = kr_alternating(D, 10, 6)
    assert sum(s.coeff(4, m) for m in range(7)) == 2  # 4 and 1+3
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 1) == 1
    # the alternating sum has nonnegative coefficients after cancellation
    assert s.is_nonnegative()


def test_first_mismatch_between_classes():
    report = compare(kr_alternating(D, 12, 6), kr_alternating(DP, 12, 6))
    assert not report.equal
    n, m, left, right = report.mismatches[0]
    assert (n, m, left, right) == (1, 1, 1, 0)  # the partition "1"


def test_listed_partitions_have_the_right_counts():
    # the eight listed class-1 partitions of 128 with 9 parts, and the four
    # class-2 partitions of 116: checked against the alternating series,
    # which equals the brute count on every window where both are computed
    s1 = kr_alternating(D, 128, 9)
    assert s1.coeff(128, 9) >= 8
    s2 = kr_alternating(DP, 116, 9)
    assert s2.coeff(116, 9) >= 4


def test_staircase_assembles_the_marker_products():
    # at a = 2 the marker numerator is H(t; q^2), so the class series
    for variant in (D, DP, DPP):
        for window in ((200, 14), (1000, 31)):
            assert kr_marker(variant, 2, *window) == kr_alternating(variant, *window)


def test_class3_is_class2_shifted():
    # t -> t q^2: the t^m row of class 2 moves up by 2m
    kr2 = kr_brute(DP, 24, 8)
    rows = [[0] * (2 * m) + row[: 25 - 2 * m] for m, row in enumerate(kr2._rows)]
    assert compare(BiSeries(24, 8, rows), kr_brute(DPP, 24, 8)).equal


def test_h_identities_small():
    brute = h_brute(16, 8)
    assert compare(brute, h_product(16, 8)).equal
    assert compare(brute, h_positive(16, 8)).equal
    assert sum(brute.coeff(3, m) for m in range(9)) == 2
    assert brute.coeff(0, 0) == 1 and all(brute.coeff(n, 0) == 0 for n in range(1, 17))
    assert brute.coeff(1, 1) == 1


def _dense_pair_product(c2, b, max_q, max_t):
    one = acc = BiSeries.one(max_q, max_t)
    for n in range(1, max_q // b + 1):
        factor = one + BiSeries.monomial(1, b * n, 1, max_q, max_t) if max_t else one
        if max_t >= 2 and 2 * b * n <= max_q:
            factor = factor + BiSeries.monomial(c2, 2 * b * n, 2, max_q, max_t)
        acc = acc * factor
    return acc


def test_h_doubled_is_the_marker_numerator():
    # the at-most-twice product at q -> q^2 is the prod (1 + t q^{2n} +
    # t^2 q^{4n}) numerator of the marker products
    rows = genfun._pair_product([21] * 7, 1, 2)
    assert BiSeries(20, 6, rows) == _dense_pair_product(1, 2, 20, 6)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 14), min_size=1, max_size=6),
    st.integers(-3, 4),
    st.integers(1, 3),
)
def test_pair_product_matches_the_dense_product(widths, c2, b):
    # ragged rows, as the class series cut them, agree with the dense
    # product on each row's own window
    sizes = sorted(widths, reverse=True)
    rows = genfun._pair_product(sizes, c2, b)
    dense = _dense_pair_product(c2, b, sizes[0] - 1, len(sizes) - 1)
    assert rows == [row[:size] for row, size in zip(dense._rows, sizes)]


def test_product_routes_on_a_wide_window():
    assert h_product(200, 40) == h_positive(200, 40)
    for variant in (D, DP, DPP):
        # the products share no Euler-sum code with the alternating route
        marg = kr_alternating(variant, 1000, marginal_max_t(1000)).t_marginal()
        assert product_side(variant, 1000) == marg
    assert product_side_mod12(DP, 400) == product_side(DP, 400)


def test_empty_structure_slice_counts_gap_two_partitions():
    # with no pairs at all, the positive sum collapses to the staircase term
    # q^{n12^2} t^{n12} / (q; q)_{n12}: partitions whose adjacent parts
    # differ by at least 2 (the pair-free at-most-twice partitions)
    max_q, max_t = 14, 6
    slice_sum = BiSeries(max_q, max_t)
    for n12 in range(max_t + 1):
        if n12 * n12 > max_q:
            break
        term = BiSeries.monomial(1, n12 * n12, n12, max_q, max_t)
        for r in range(1, n12 + 1):
            term = term.mul_geometric_inverse(0, r)
        slice_sum = slice_sum + term
    from qpartition.partitions import brute_series

    gap_two = brute_series(
        lambda parts: len(parts) < 2 or parts[-1] - parts[-2] >= 2,
        max_q,
        max_t,
    )
    assert slice_sum == gap_two


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_products_at_small_truncation(variant):
    max_q = 30
    marg = kr_alternating(variant, max_q, marginal_max_t(max_q)).t_marginal()
    assert compare(marg, product_side(variant, max_q)).equal


def test_product_low_coefficients_from_residues():
    # independent residue oracle: partitions into parts == 1,4,6,8,11 mod 12
    allowed = {a for a in range(1, 25) if a % 12 in (1, 4, 6, 8, 11)}
    s = product_side(D, 24)
    for n in range(25):
        count = sum(
            1
            for parts in iter_partitions(n)
            if all(x in allowed for x in parts)
        )
        assert s.coeff(n, 0) == count
    assert s.coeff(4, 0) == 2


def test_product_two_printings_agree():
    assert compare(product_side(DP, 36), product_side_mod12(DP, 36)).equal


def test_marginal_window_is_exhaustive():
    # t-degrees above isqrt(max_q) cannot contribute below max_q
    max_q = 25
    wide = kr_alternating(D, max_q, 12).t_marginal()
    tight = kr_alternating(D, max_q, marginal_max_t(max_q)).t_marginal()
    assert wide == tight


def test_compare_reports():
    a = BiSeries.one(6, 2)
    assert compare(a, a).equal
    b = a + BiSeries.monomial(3, 2, 1, 6, 2)
    report = compare(a, b)
    assert report.mismatches == ((2, 1, 0, 3),)
    assert "mismatch at q^2 t^1" in report.lines()[0]
    with pytest.raises(ValueError, match="^1 is not a BiSeries$"):
        compare(1, a)
    with pytest.raises(ValueError, match="^None is not a BiSeries$"):
        compare(a, None)

    def cell_by_cell(a, b):
        mq, mt = min(a.max_q, b.max_q), min(a.max_t, b.max_t)
        cells = ((n, m) for m in range(mt + 1) for n in range(mq + 1))
        return tuple(
            (n, m, a.coeff(n, m), b.coeff(n, m))
            for n, m in cells
            if a.coeff(n, m) != b.coeff(n, m)
        )

    # mismatches in several rows, the first and the last cell among them
    rows = [[n * m + 1 for n in range(7)] for m in range(3)]
    a = BiSeries(6, 2, rows)
    b = a + BiSeries(6, 2, [[5, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, -2]])
    report = compare(a, b)
    assert report.mismatches == cell_by_cell(a, b)
    assert report.mismatches == ((0, 0, 1, 6), (2, 2, 5, 6), (6, 2, 13, 11))
    assert compare(b, a).mismatches == cell_by_cell(b, a)
    # different windows: only the common one is compared, and a difference
    # past it (a q^7 cell, a t^3 row) is not reported
    wide = BiSeries(8, 3, [[n * m + 1 for n in range(9)] for m in range(4)])
    assert compare(a, wide).equal
    assert compare(a, wide) == (6, 2, ())
    wider = wide + BiSeries.monomial(4, 7, 1, 8, 3) + BiSeries.monomial(9, 0, 3, 8, 3)
    assert compare(wider, a).equal
    shifted = wider + BiSeries.monomial(1, 6, 1, 8, 3)
    assert compare(shifted, b).mismatches == cell_by_cell(shifted, b)
    assert compare(shifted, b).mismatches == (
        (0, 0, 1, 6), (6, 1, 8, 7), (2, 2, 5, 6), (6, 2, 13, 11),
    )


def test_brute_matches_explicit_membership():
    # spot check: the listed class-1 partitions all pass the predicate
    listed = [
        (3, 5, 8, 11, 13, 19, 21, 23, 25),
        (4, 4, 8, 12, 12, 20, 20, 24, 24),
    ]
    for parts in listed:
        assert check_kr(parts, D)


# The brute walk against the naive oracle: every partition of the window
# from iter_partitions, filtered by the literal reading of the class.

_ORACLE_Q = 24


@functools.lru_cache(maxsize=None)
def _naive_counts(family):
    pred = check_at_most_twice if family == "h" else (lambda p: check_kr_literal(p, family))
    counts = [[0] * (_ORACLE_Q + 1) for _ in range(_ORACLE_Q + 1)]
    for n in range(_ORACLE_Q + 1):
        for parts in iter_partitions(n):
            if pred(parts):
                counts[len(parts)][n] += 1
    return counts


def _matches_oracle(series, family):
    counts = _naive_counts(family)
    return all(
        series.coeff(n, m) == counts[m][n]
        for m in range(series.max_t + 1)
        for n in range(series.max_q + 1)
    )


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_pruned_kr_brute_matches_the_naive_oracle(variant):
    assert _matches_oracle(kr_brute(variant, _ORACLE_Q, 12), variant)


def test_pruned_h_brute_matches_the_naive_oracle():
    assert _matches_oracle(h_brute(_ORACLE_Q, 12), "h")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([D, DP, DPP, "h"]), st.integers(0, 22), st.integers(0, 8))
def test_pruned_brute_matches_the_naive_oracle_on_any_window(family, max_q, max_t):
    series = h_brute(max_q, max_t) if family == "h" else kr_brute(family, max_q, max_t)
    assert (series.max_q, series.max_t) == (max_q, max_t)
    assert _matches_oracle(series, family)


def test_kr_brute_prunes_the_walk(monkeypatch):
    # the naive walk tests 149,790 partitions on this window; the class rule
    # refuses a part before the walk enters it, so it runs a few thousand
    # times and accepts the class members only
    tally = {"calls": 0, "accepted": 0}
    walk = genfun.brute_series

    def counting_walk(admits, *args):
        def counted(parts):
            tally["calls"] += 1
            ok = admits(parts)
            tally["accepted"] += ok
            return ok

        return walk(counted, *args)

    monkeypatch.setattr(genfun, "brute_series", counting_walk)
    series = kr_brute(D, 40, 12)
    assert sum(series.coeff(n, m) for m in range(13) for n in range(41)) == 3718
    assert tally["accepted"] == 3717  # every member but the empty partition
    assert tally["calls"] <= 5000


# Naive references for the factored sums: every positive-sum cell and every
# alternating term is rebuilt and divided from scratch, shift included.


def _naive_cell(cell, b, shift, steps, max_q):
    m1, m2, m3, n12 = cell[:4]
    row = [0] * (max_q + 1)
    for s in range(1, 2 * (m1 + m2) + 5 * m3 + 2):
        for e, c in ppoly.p(m1, m2, m3, s).terms():
            n = b * ((s - 1) * n12 + n12 * n12 + e) + shift
            if n <= max_q:
                row[n] += c
    for d in range(b, b * n12 + 1, b):
        divide_geometric(row, d)
    for d in range(3 * b, 3 * b * (m1 + m2 + 2 * m3) + 1, 3 * b):
        divide_geometric(row, d)
    for d in steps:
        divide_geometric(row, d)
    assert min(row) >= 0, cell
    return row


def _add_into(dst, src):
    for n, c in enumerate(src):
        dst[n] += c


def _positive_q_shift(variant, m1, m2, m3, n12, i, j):
    if variant is D:
        return i + 4 * j
    if variant is DP:
        return i
    return 3 * i + 4 * j + 4 * m1 + 4 * m2 + 10 * m3 + 2 * n12


def _naive_kr_positive(variant, max_q, max_t):
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    mcap = min(max_t, math.isqrt(max_q))
    for m1 in range(mcap // 2 + 1):
        for m2 in range((mcap - 2 * m1) // 2 + 1):
            for m3 in range((mcap - 2 * m1 - 2 * m2) // 5 + 1):
                room = mcap - 2 * m1 - 2 * m2 - 5 * m3
                for n12 in range(room + 1):
                    for i in range(room - n12 + 1):
                        for j in range((room - n12 - i) // 2 + 1):
                            kmax = room - n12 - i - 2 * j if variant is D else 0
                            for k in range(kmax + 1):
                                cap = 2 * (m1 + m2) + 5 * m3 + n12 + i + 2 * j + k
                                shift = cap * cap + _positive_q_shift(
                                    variant, m1, m2, m3, n12, i, j
                                )
                                steps = [*range(2, 2 * i + 1, 2), *range(4, 4 * j + 1, 4)]
                                cell = (m1, m2, m3, n12, i, j, k)
                                _add_into(rows[cap], _naive_cell(cell, 2, shift, steps, max_q))
    return BiSeries._wrap(max_q, max_t, rows)


def _naive_h_positive(max_q, max_t):
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    for m1 in range(max_t // 2 + 1):
        for m2 in range((max_t - 2 * m1) // 2 + 1):
            for m3 in range((max_t - 2 * m1 - 2 * m2) // 5 + 1):
                for n12 in range(max_t - 2 * m1 - 2 * m2 - 5 * m3 + 1):
                    row = _naive_cell((m1, m2, m3, n12), 1, 0, (), max_q)
                    _add_into(rows[2 * m1 + 2 * m2 + 5 * m3 + n12], row)
    return BiSeries._wrap(max_q, max_t, rows)


# the linear exponents (a, b, c) of the alternating sums' q-exponent
# s(s-1) + a*i + b*j + 3k^2 + c*k, s = i + 2j + 3k
_ALTERNATING_LINEAR = {D: (1, 6, 6), DP: (2, 2, 6), DPP: (4, 6, 12)}


def _naive_kr_alternating(variant, max_q, max_t):
    a, b, c = _ALTERNATING_LINEAR[variant]
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    s = 0
    while s <= max_t and s * (s - 1) <= max_q:
        for k in range(s // 3 + 1):
            for j in range((s - 3 * k) // 2 + 1):
                i = s - 3 * k - 2 * j
                exp = s * (s - 1) + a * i + b * j + 3 * k * k + c * k
                if exp > max_q:
                    continue
                term = [0] * (max_q + 1)
                term[exp] = -1 if k % 2 else 1
                for d in [*range(1, i + 1), *range(4, 4 * j + 1, 4), *range(6, 6 * k + 1, 6)]:
                    divide_geometric(term, d)
                _add_into(rows[s], term)
        s += 1
    return BiSeries._wrap(max_q, max_t, rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([D, DP, DPP]), st.integers(0, 90), st.integers(0, 12))
def test_factored_sums_match_the_naive_references(variant, max_q, max_t):
    assert kr_positive(variant, max_q, max_t) == _naive_kr_positive(variant, max_q, max_t)
    assert kr_alternating(variant, max_q, max_t) == _naive_kr_alternating(
        variant, max_q, max_t
    )
    assert h_positive(max_q, max_t) == _naive_h_positive(max_q, max_t)


def test_h_positive_skips_cores_that_cannot_fit(monkeypatch):
    # 11 parts weigh at least 36 > 30, so every t-degree past 10 is zero
    assert h_positive(30, 30) == h_product(30, 30)
    # with H+'s rows kept, a warm call would read no P at all
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    monkeypatch.setattr(ppoly, "_pmemo", {})
    monkeypatch.setattr(ppoly, "_pbodies", {})
    h_positive(30, 12)
    entries = len(ppoly._pmemo)
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    monkeypatch.setattr(ppoly, "_pmemo", {})
    monkeypatch.setattr(ppoly, "_pbodies", {})
    h_positive(30, 30)
    assert len(ppoly._pmemo) <= entries


# H+'s rows are kept across calls: every served row must equal a cold build
# and the naive references, in whatever order the windows come


def _cold(monkeypatch, route, *args):
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    return route(*args)


@pytest.mark.parametrize("windows", [[(60, 14), (20, 6)], [(20, 6), (60, 14)]])
def test_kept_h_plus_rows_match_a_cold_build(monkeypatch, windows):
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    warm = [(kr_positive(D, q, t), h_positive(q, t)) for q, t in windows]
    for (q, t), (kr, h) in zip(windows, warm):
        assert kr == _naive_kr_positive(D, q, t)
        assert h == _naive_h_positive(q, t)
        assert kr == _cold(monkeypatch, kr_positive, D, q, t)
        assert h == _cold(monkeypatch, h_positive, q, t)


def test_h_positive_then_kr_positive_reads_the_kept_rows(monkeypatch):
    # H+(t; q^2) to q^70 needs rows 0..8 to q^35, all inside H+ to q^40
    cold = {variant: _cold(monkeypatch, kr_positive, variant, 70, 8) for variant in (D, DP, DPP)}
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    h = h_positive(40, 10)

    def rebuilt(L, size):
        raise AssertionError("row %d rebuilt on %d coefficients" % (L, size))

    monkeypatch.setattr(genfun, "_h_plus_row", rebuilt)
    for variant in (D, DP, DPP):
        assert kr_positive(variant, 70, 8) == cold[variant] == _naive_kr_positive(variant, 70, 8)
    assert h == _naive_h_positive(40, 10)


def test_the_three_classes_share_one_h_plus(monkeypatch):
    # D'' needs no longer rows than D and D', so only the first class reads P
    calls = []
    real = genfun._add_numerator

    def counted(dst, core):
        calls.append(core)
        real(dst, core)

    monkeypatch.setattr(genfun, "_add_numerator", counted)
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    kr_positive(D, 120, 12)
    first = len(calls)
    assert first > 0
    kr_positive(DP, 120, 12)
    kr_positive(DPP, 120, 12)
    assert len(calls) == first


def test_changing_a_series_leaves_the_kept_rows_alone(monkeypatch):
    monkeypatch.setattr(genfun, "_h_plus_memo", [])
    first = h_positive(30, 8)
    expected = [list(row) for row in first._rows]
    for row in first._rows:
        row[:] = [c + 7 for c in row]
    assert h_positive(30, 8)._rows == expected
    assert h_positive(20, 8)._rows == [row[:21] for row in expected]
