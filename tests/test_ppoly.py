import functools
import gc
import hashlib
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import p_table, qbinomial_pascal

from qpartition.appendix_data import TABLE_ERRATA, parse_qpoly
from qpartition.moves import enumerate_bases
from qpartition.ppoly import (
    _BRANCHES,
    CLOSED_FORM_KINDS,
    P00X,
    P0X0,
    P0XX,
    PX00,
    PX0X,
    closed_form,
    p,
    p_oracle,
    p_parity,
    qbinomial,
    support,
)
from qpartition.series import QPoly


def test_initial_values():
    assert p_parity(0, 0, 0, 1, 0) == QPoly((1,))
    assert p_parity(0, 0, 0, 1, 1) == QPoly()
    assert p(0, 0, 0, 5) == QPoly()
    assert p(1, 0, 0, 0) == QPoly()
    assert p(-1, 0, 0, 1) == QPoly()


def test_p_refuses_non_integer_arguments():
    # p(1, 0, 0, 2) is q^2 and memoized; True == 1 and 2.0 == 2 must not hit it
    assert p(1, 0, 0, 2).format_q() == "q^2"
    for args, bad in (
        ((1.0, 0, 0, 2), "m1=1.0"),
        ((True, 0, 0, 2), "m1=True"),
        ((1, 0, 0, 2.0), "s=2.0"),
    ):
        with pytest.raises(ValueError, match="%s is not an integer" % bad):
            p(*args)


def test_small_tabulated_values():
    assert p_parity(0, 0, 1, 5, 0).format_q() == "q^13"
    assert p(1, 1, 0, 3).format_q() == "q^7"
    assert p(2, 2, 0, 6).format_q() == "q^30 + 2q^28 + 2q^26 + 2q^24"
    assert p(0, 0, 2, 9).format_q() == "q^46"
    top = dict(p(2, 2, 2, 15).terms())
    assert [top.get(e, 0) for e in range(154, 149, -1)] == [1, 0, 2, 1, 5]


def test_qbinomial_examples():
    assert qbinomial(2, 1, 2).format_q() == "q^2 + 1"
    assert qbinomial(7, 0, 3) == QPoly((1,))
    # independent product route: (1-q^4)(1-q^3)/((1-q)(1-q^2))
    assert qbinomial(4, 2, 1).coeffs == (1, 1, 2, 1, 1)
    assert qbinomial(-1, 0, 2) == QPoly()
    assert qbinomial(3, 5, 1) == QPoly()


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", range(0, 8))
@pytest.mark.parametrize("base", (1, 2, 3))
def test_qbinomial_pascal_relation(n, k, base):
    lhs = qbinomial(n, k, base)
    rhs = qbinomial(n - 1, k, base).shifted(k * base) + qbinomial(n - 1, k - 1, base)
    assert lhs == rhs
    if 0 <= k <= n and lhs:
        assert lhs.degree == k * (n - k) * base


def test_qbinomial_symmetry():
    # k <-> n-k, the binomial at q = 1, and a long row that does not recurse
    for n, k in [(n, k) for n in range(41) for k in range(n + 1)] + [(1200, 3)]:
        value = qbinomial(n, k, 2)
        assert value == qbinomial(n, n - k, 2)
        assert sum(value.body) == math.comb(n, k)
        assert value.degree == 2 * k * (n - k)


def test_qbinomial_matches_the_pascal_reference():
    # the stored form, not only the terms: the lattice step is base
    for base in (1, 2, 3, 5):
        for n in range(-1, 30):
            for k in range(-1, n + 2):
                got, want = qbinomial(n, k, base), qbinomial_pascal(n, k, base)
                assert (got.low, got.step, got.body) == (want.low, want.step, want.body)


def test_p_oracle_examples():
    assert p_oracle(0, 0, 1, 5, 0).format_q() == "q^13"
    assert p_oracle(1, 0, 0, 2, 0).format_q() == "q^2"
    assert p_oracle(0, 1, 0, 2, 1).format_q() == "q^3"
    assert p_oracle(0, 0, 0, 1, 0) == QPoly((1,))
    assert p_oracle(0, 0, 0, 1, 1) == QPoly()


def test_recursion_matches_oracle_small():
    for m1 in range(3):
        for m2 in range(3):
            for m3 in range(2):
                for s in range(1, 10):
                    for parity in (0, 1):
                        assert p_parity(m1, m2, m3, s, parity) == p_oracle(
                            m1, m2, m3, s, parity
                        ), (m1, m2, m3, s, parity)


def test_support_is_exact_against_the_oracle():
    # the support, not just a bound: every s inside has a nonzero component
    # and every s outside a zero one, by brute-force enumeration of the bases
    for m1 in range(6):
        for m2 in range(6 - m1):
            for m3 in range((6 - m1 - m2) // 2):
                for parity in (0, 1):
                    inside = support(m1, m2, m3, parity)
                    for s in range(-1, 2 * (m1 + m2) + 5 * m3 + 4):
                        nonzero = bool(p_oracle(m1, m2, m3, s, parity))
                        assert nonzero == (s in inside), (m1, m2, m3, s, parity)


def _shifted_union(children):
    return frozenset(s + step for child, step in children for s in child)


def test_support_matches_the_set_recursion():
    # every coefficient is nonnegative, so nothing cancels and the set of s
    # where a component is nonzero is the union of its children's sets,
    # shifted by their steps: the recursion of the module docstring on sets
    sets = {}

    def get(m1, m2, m3, parity):
        return sets.get((m1, m2, m3, parity), frozenset())

    for m1 in range(31):  # every child comes earlier in this order
        for m2 in range(31):
            for m3 in range(13):
                if m1 == m2 == m3 == 0:  # the empty base
                    sets[0, 0, 0, 0], sets[0, 0, 0, 1] = frozenset({1}), frozenset()
                    continue
                sets[m1, m2, m3, 0] = _shifted_union([
                    (get(m1 - 1, m2, m3, 0), 1), (get(m1 - 1, m2, m3, 1), 2),
                    (get(m1 - 1, m2, m3, 0), 2), (get(m1, m2, m3 - 1, 1), 4),
                    (get(m1, m2, m3 - 1, 0), 4), (get(m1, m2, m3 - 1, 1), 5),
                ])
                sets[m1, m2, m3, 1] = _shifted_union([
                    (get(m1, m2 - 1, m3, 1), 1), (get(m1, m2 - 1, m3, 0), 1),
                    (get(m1, m2 - 1, m3, 1), 2),
                ])
    assert len(sets) == 24986
    for (m1, m2, m3, parity), found in sets.items():
        assert set(support(m1, m2, m3, parity)) == found, (m1, m2, m3, parity)


def test_every_base_strips_to_one_row_of_the_table():
    # independent of the recursion: take the last shape off each enumerated
    # base and find the row, child and weight the table claims for it
    bases = {}
    for m1 in range(7):
        for m2 in range(7 - m1):
            for m3 in range(7 - m1 - m2):
                records = enumerate_bases(m1, m2, m3)
                bases[m1, m2, m3] = {rec.structure.parts: rec for rec in records}
    for (m1, m2, m3), records in bases.items():
        for parts, rec in records.items():
            if not parts:  # the empty base ends in no shape
                continue
            # a block when parts[-3] is a singleton: no pair starts on it or just below
            n = len(parts)
            if n >= 5 and n - 4 not in rec.structure.starts and n - 3 not in rec.structure.starts:
                prefix, shape, takes = parts[:-5], "block", (0, 0, 1)
            else:
                prefix, shape = parts[:-2], "pair"
                takes = (1, 0, 0) if parts[-1] == parts[-2] else (0, 1, 0)
            s = rec.largest_pair_index + 1
            rows = [row for row in _BRANCHES[rec.parity] if row[:2] == (shape, takes)]
            assert len(rows) == 1, parts
            [(_, (d1, d2, d3), (a, b), children)] = rows
            child = bases[m1 - d1, m2 - d2, m3 - d3][prefix]
            assert (s - child.largest_pair_index - 1, child.parity) in children, parts
            assert sum(parts) - sum(prefix) == a * (s - 1) + b, parts


def test_support_edges():
    assert support(0, 0, 0, 0) == range(1, 2)
    assert not support(0, 0, 0, 1)
    assert not support(0, 3, 0, 0)  # no repeating pair and no block
    assert not support(0, 0, -1, 0)
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        support(1, 1, 1, 2)
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        p_parity(1, 1, 0, 3, 2)  # not read as P1 by the unchecked recursion


def _cold_memo(monkeypatch):
    """Swap in an empty P memo and body table, so that what the test
    computes starts cold; returns the ppoly module."""
    from qpartition import ppoly

    monkeypatch.setattr(ppoly, "_pmemo", {})
    monkeypatch.setattr(ppoly, "_pbodies", {})
    return ppoly


def test_a_memo_entry_handed_out_cannot_be_damaged(monkeypatch):
    # p_parity returns the memo's own value, which later descents read
    ppoly = _cold_memo(monkeypatch)
    value = ppoly.p_parity(1, 0, 0, 2, 0)
    with pytest.raises(AttributeError, match="^QPoly is immutable$"):
        del value.body
    with pytest.raises(AttributeError, match="^QPoly is immutable$"):
        value.body = ()
    assert ppoly._pmemo[(1, 0, 0, 2, 0)] is value
    assert ppoly.p(2, 0, 0, 3).format_q() == "q^6"


def _sweep_from_an_empty_memo(monkeypatch):
    """A fixed grid of p calls from an empty memo; returns the memo."""
    ppoly = _cold_memo(monkeypatch)
    p(40, 0, 0, 60)
    for m in range(31):
        for s in range(1, 2 * m + 3):
            p(m, 0, 0, s)
            p(0, m, 0, s)
    for m1 in range(8):
        for m2 in range(8):
            for m3 in range(5):
                for s in range(1, 2 * (m1 + m2) + 5 * m3 + 3):
                    p(m1, m2, m3, s)
    return ppoly._pmemo


def test_memo_stores_no_zero_polynomial(monkeypatch):
    memo = _sweep_from_an_empty_memo(monkeypatch)
    assert memo
    assert all(value != QPoly() for value in memo.values())


def test_memo_after_a_fixed_sweep_is_pinned(monkeypatch):
    # the keys the descent stores and each value's stored form (low, step,
    # body), not just its terms: a refactor of it must store the same keys
    # in the same forms.  The digest was computed, over these keys, from
    # the forms stored before (III) of the ppoly docstring, when the sweep
    # also stored 12 intermediate P0(m1,0,0,s) under P(40,0,0,60) (5,478
    # keys, digest 37054b61...963a); each key kept has the same form
    memo = _sweep_from_an_empty_memo(monkeypatch)
    digest = hashlib.sha256()
    for key in sorted(memo):
        value = memo[key]
        digest.update(repr((key, value.low, value.step, value.body)).encode())
    assert len(memo) == 5466
    assert digest.hexdigest() == "1a35683e5f3116ac3376eaed310379faac0003f10ce4e792e437fa52f2c6163a"


def test_memo_keeps_one_copy_of_each_distinct_body(monkeypatch):
    # Gaussian binomials are symmetric and the pair families are shifts of
    # the same q^2-binomials, so many values share a body: equal bodies are
    # one tuple
    memo = _sweep_from_an_empty_memo(monkeypatch)
    bodies = [value.body for value in memo.values()]
    assert len(set(bodies)) == len({id(body) for body in bodies}) == 3231


def test_body_table_holds_exactly_the_memo_bodies(monkeypatch):
    # each stored copy is its own key and some memo value's body: no
    # intermediate sum of the descent enters the table
    from qpartition import ppoly

    memo = _sweep_from_an_empty_memo(monkeypatch)
    assert all(key is body for key, body in ppoly._pbodies.items())
    assert {id(body) for body in ppoly._pbodies.values()} == {id(v.body) for v in memo.values()}


def test_a_cold_sweep_pins_its_lattice_sum_calls(monkeypatch):
    # a component with m1 = 0 is its twin shifted and sums nothing, and so
    # does a P0(m1,0,0,s) above the middle of its support, by (III): the
    # fixed sweep made 12,635 lattice sums when every node summed, and
    # 11,872 with the twins alone
    from qpartition import ppoly

    calls = []
    summed = ppoly.lattice_sum

    def counted(*raw):
        calls.append(None)
        return summed(*raw)

    monkeypatch.setattr(ppoly, "lattice_sum", counted)
    memo = _sweep_from_an_empty_memo(monkeypatch)
    assert len(memo) == 5466
    assert len(calls) == 11646


def test_a_stored_palindrome_holds_each_int_once(monkeypatch):
    # a palindromic body is stored as its first half followed by that half's
    # own ints reversed, so no value past the small-int cache is held twice
    ppoly = _cold_memo(monkeypatch)
    p(40, 0, 0, 60)
    palindromes = [body for body in ppoly._pbodies if body == body[::-1]]
    assert any(max(body) > 256 for body in palindromes)
    for body in palindromes:
        assert all(body[i] is body[-1 - i] for i in range(len(body)))


# every component with m1, m2 <= 6 and m3 <= 3, at every s around its support
_GRID = [
    (m1, m2, m3, s, parity)
    for m1 in range(7)
    for m2 in range(7)
    for m3 in range(4)
    for s in range(2 * (m1 + m2) + 5 * m3 + 3)
    for parity in (0, 1)
]


def _form(value):
    return value.low, value.step, value.body


@functools.cache
def _grid_in_order():
    """The stored form of each `_GRID` component, built from cold in grid
    order."""
    with pytest.MonkeyPatch.context() as mp:
        _cold_memo(mp)
        return {key: _form(p_parity(*key)) for key in _GRID}


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32))
def test_a_cold_memo_in_any_call_order_matches_the_references(seed):
    # a stored form must not depend on which key reached it first: from
    # cold, in a random order, each stored form equals the grid-order build,
    # each value equals the dense table, and each value whose bases can be
    # enumerated quickly (p_oracle takes 10 s over the shapes of
    # m1 + m2 + m3 = 9) equals p_oracle
    reference = _grid_in_order()
    order = list(_GRID)
    random.Random(seed).shuffle(order)
    with pytest.MonkeyPatch.context() as mp:
        _cold_memo(mp)
        for key in order:
            value = p_parity(*key)
            assert _form(value) == reference[key], key
            assert value == p_table(*key), key
            if sum(key[:3]) <= 5:
                assert value == p_oracle(*key), key


def test_a_kept_sum_table_outlives_the_memo_it_was_filled_from(monkeypatch):
    # no table outlives the memo: once the memo and the body table are
    # swapped out and their values freed, a second sweep equals a cold build
    ppoly = _cold_memo(monkeypatch)
    for key in _GRID:
        p_parity(*key)
    ppoly._pmemo, ppoly._pbodies = {}, {}  # no undo list keeps the old ones
    gc.collect()
    reference = _grid_in_order()
    for key in reversed(_GRID):
        assert _form(p_parity(*key)) == reference[key], key


def test_a_sum_table_key_never_names_a_freed_body(monkeypatch):
    # P0(2,0,0,4) = q^6 (P0(1,0,0,3) + P0(1,0,0,2)): plant both children on
    # one fresh body and sum; then drop the memo and plant a new body of the
    # same size, which the allocator tends to place where the freed one was
    ppoly = _cold_memo(monkeypatch)
    for start in (1, 2):
        ppoly._pmemo, ppoly._pbodies = {}, {}
        child = QPoly._wrap(4, 1, tuple(range(start, start + 100)))
        ppoly._pmemo[(1, 0, 0, 3, 0)] = ppoly._pmemo[(1, 0, 0, 2, 0)] = child
        del child
        value = p_parity(2, 0, 0, 4, 0)
        assert _form(value) == (10, 1, tuple(range(2 * start, 2 * start + 200, 2)))


def test_memo_stores_only_the_nonzero_span(monkeypatch):
    ppoly = _cold_memo(monkeypatch)
    p(40, 0, 0, 60)
    assert ppoly._pmemo
    for value in ppoly._pmemo.values():
        assert value.body[0] != 0 and value.body[-1] != 0
        assert value.low == value.terms()[0][0] > 0


def test_memo_stores_the_pair_families_on_the_even_lattice(monkeypatch):
    # a repeating pair [k,k] weighs 2k and a consecutive pair [k,k+1] weighs
    # 2k+1, so P(m1, m2, 0, s) is q^c times a polynomial in q^2: the memo
    # holds every second coefficient of the dense span
    ppoly = _cold_memo(monkeypatch)
    for m in range(31):
        for s in range(m + 1, 2 * m + 2):
            p(m, 0, 0, s)
            p(0, m, 0, s)
    values = ppoly._pmemo.values()
    assert all(value.step == 2 for value in values if len(value.body) > 1)
    assert sum(len(value.body) for value in values) == 68385
    assert sum(value.degree - value.low + 1 for value in values if value) == 135810


@pytest.mark.parametrize("planted", [QPoly((0, 0, -1)), QPoly((1, -1)).stretched(2)])
def test_negative_coefficient_guard_fires_on_any_lattice(monkeypatch, planted):
    # a negative child, planted in the memo, reaches its parent's bracket
    ppoly = _cold_memo(monkeypatch)
    ppoly._pmemo[(1, 0, 0, 2, 0)] = planted
    with pytest.raises(AssertionError, match=r"negative coefficient in P at \(2, 0, 0, 3, 0\)"):
        p_parity(2, 0, 0, 3, 0)


def test_negative_block_exponent_guard_fires(monkeypatch):
    # support rules out a block below s = 5.  Widened, the empty base at
    # s < 1 trips a pair guard first, so a nonzero P0(1, 0, 0, -2) is
    # planted: P0(1, 0, 1, 2) reads it at block exponent -2
    def widened(m1, m2, m3, parity):
        return range(-10, 100) if min(m1, m2 - parity, m3) >= 0 else range(0)

    ppoly = _cold_memo(monkeypatch)
    monkeypatch.setattr(ppoly, "_support", widened)
    ppoly._pmemo[(1, 0, 0, -2, 0)] = QPoly((1,))
    with pytest.raises(AssertionError, match=r"negative block exponent .* \(1, 0, 1, 2, 0\)"):
        p_parity(1, 0, 1, 2, 0)


def test_the_recursion_matches_the_dense_table(monkeypatch):
    # every component with m1 <= 3, m2 <= 10 and m3 <= 4, at every s around
    # its support, equals the table read row by row on dense coefficients
    _cold_memo(monkeypatch)
    for m1 in range(4):
        for m2 in range(11):
            for m3 in range(5):
                for s in range(-1, 2 * (m1 + m2) + 5 * m3 + 3):
                    for parity in (0, 1):
                        key = (m1, m2, m3, s, parity)
                        assert p_parity(*key) == p_table(*key), key


def test_a_component_with_no_repeating_pair_is_a_shifted_twin(monkeypatch):
    # (I) and (II) of the ppoly docstring hold for the dense table at every
    # s, and the recursion stores the left side
    _cold_memo(monkeypatch)
    for m2 in range(13):
        for m3 in range(6):
            for s in range(-1, 2 * m2 + 5 * m3 + 3):
                if m2:
                    twin = p_table(m2 - 1, 0, m3, s - 1, 0)
                    value = twin.shifted(3 * m2 + 8 * m3) if twin else twin
                    assert p_table(0, m2, m3, s, 1) == value, (m2, m3, s)
                    assert p_parity(0, m2, m3, s, 1) == value, (m2, m3, s)
                if m3:
                    twin = p_table(m2, 0, m3 - 1, s - 4, 0)
                    value = twin.shifted(3 * m2 + 8 * m3 + 3 * s - 10) if twin else twin
                    assert p_table(0, m2, m3, s, 0) == value, (m2, m3, s)
                    assert p_parity(0, m2, m3, s, 0) == value, (m2, m3, s)


def _mirror(m1, s):
    """(III) of the ppoly docstring: the s' and the shift that read
    P0(m1, 0, 0, s), for 2(s - 1) > 3 m1, off P0(m1, 0, 0, s')."""
    return 3 * m1 + 2 - s, (2 * s - 2 - 3 * m1) * (m1 + 1)


def test_the_upper_half_of_a_repeating_pair_component_is_its_mirror(monkeypatch):
    # (III) holds for the dense table at every s, both sides 0 off the
    # support, and the recursion stores the left side on the mirror's body
    _cold_memo(monkeypatch)
    for m1 in range(1, 15):
        for s in range(-1, 3 * m1 + 4):
            if 2 * (s - 1) <= 3 * m1:
                continue
            below, shift = _mirror(m1, s)
            twin = p_table(m1, 0, 0, below, 0)
            value = twin.shifted(shift) if twin else twin
            assert p_table(m1, 0, 0, s, 0) == value, (m1, s)
            stored = p_parity(m1, 0, 0, s, 0)
            assert stored == value, (m1, s)
            if value:
                assert stored.body is p_parity(m1, 0, 0, below, 0).body, (m1, s)


def test_the_mirror_matches_the_px00_closed_form():
    # the closed form's two sides of the middle, q^(2m1^2-2m m1+m^2+m) times
    # [m1, m - m1] in q^2 with m = s - 1, against each other and the recursion
    for m1 in range(1, 41):
        for s in range(m1 + 1, 2 * m1 + 3):
            if 2 * (s - 1) <= 3 * m1:
                continue
            below, shift = _mirror(m1, s)
            twin = closed_form(PX00, m1=m1, s=below)
            value = twin.shifted(shift) if twin else twin
            assert closed_form(PX00, m1=m1, s=s) == value == p(m1, 0, 0, s), (m1, s)


def test_a_level_of_repeating_pairs_sums_only_its_lower_half(monkeypatch):
    # level m of P(m,0,0,.) has m + 1 nonzero values; by (III) the descent
    # sums at most the ceil((m+1)/2) at or below the middle of the support,
    # where every node with two children summed before (m - 1 of them)
    from qpartition import ppoly

    calls = []
    summed = ppoly.lattice_sum

    def counted(*raw):
        calls.append(None)
        return summed(*raw)

    _cold_memo(monkeypatch)
    monkeypatch.setattr(ppoly, "lattice_sum", counted)
    for m in range(31):
        before = len(calls)
        for s in range(1, 2 * m + 3):
            p(m, 0, 0, s)
        assert len(calls) - before <= (m + 2) // 2, m


def _frames():
    """The number of Python frames on the stack, this one included."""
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_the_mirror_adds_no_depth_to_the_descent(monkeypatch):
    # the mirror is summed in the frame that asked for it, so under a
    # lowered recursion limit the deepest P(m1,0,0,s) that computes from a
    # cold memo is as deep as before (III), 6 levels short of a bare
    # recursion: at the foot of the support, whose chain takes no mirror,
    # at its middle, whose first-child chain crosses it every second level,
    # and at its top, which is its foot's mirror
    ppoly = _cold_memo(monkeypatch)

    def deepest(call):
        n = 0
        while True:
            ppoly._pmemo.clear()
            ppoly._pbodies.clear()
            try:
                call(n + 1)
            except RecursionError:
                return n
            n += 1

    def down(n):
        return n and down(n - 1)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 60)
    try:
        bare = deepest(down)
        assert deepest(lambda m1: p(m1, 0, 0, m1 + 1)) == bare - 6
        assert deepest(lambda m1: p(m1, 0, 0, (3 * m1 + 2) // 2)) == bare - 6
        assert deepest(lambda m1: p(m1, 0, 0, 2 * m1 + 1)) == bare - 6
    finally:
        sys.setrecursionlimit(limit)


def test_a_cold_sweep_builds_each_stored_value_once(monkeypatch):
    # a node sums its children on raw bodies and builds one QPoly, the one
    # it stores; the shifts and partial sums build nothing
    ppoly = _cold_memo(monkeypatch)
    builds = []
    wrap = QPoly._wrap

    def counted(*values):
        builds.append(values)
        return wrap(*values)

    monkeypatch.setattr(QPoly, "_wrap", counted)
    for m1 in range(6):
        for m2 in range(6):
            for m3 in range(4):
                for s in range(1, 2 * (m1 + m2) + 5 * m3 + 3):
                    p_parity(m1, m2, m3, s, 0)
                    p_parity(m1, m2, m3, s, 1)
    assert len(ppoly._pmemo) > 500
    assert len(builds) == len(ppoly._pmemo)


@pytest.mark.parametrize(
    "planted, outcome",
    [
        # -q^6 + q^8 cancels its sibling P0(2,0,0,3) = q^6: the sum is q^8,
        # stored as q^16 on no lattice, as the per-child QPoly sums store it
        (QPoly((0, 0, 0, 0, 0, 0, -1, 0, 1)), (16, 0, (1,))),
        (QPoly((-1, 1, 2)).stretched(2).shifted(6), (16, 2, (1, 2))),
        # the cancellation leaves a negative term behind
        (QPoly((0, 0, 0, 0, 0, 0, -1, -1)), None),
        (QPoly((0, 0, 0, 0, 0, 0, -2, 0, 1)), None),
    ],
)
def test_a_cancelled_lowest_term_is_trimmed_or_refused(monkeypatch, planted, outcome):
    # P0(3,0,0,5) = q^8 (P0(2,0,0,4) + P0(2,0,0,3)); plant the first child.
    # Below the middle of P0(3,0,0,·)'s support, neither child is read as
    # the other's mirror, so the plant is read once
    ppoly = _cold_memo(monkeypatch)
    ppoly._pmemo[(2, 0, 0, 4, 0)] = planted
    if outcome is None:
        with pytest.raises(AssertionError, match=r"negative coefficient in P at \(3, 0, 0, 5, 0\)"):
            p_parity(3, 0, 0, 5, 0)
        return
    value = p_parity(3, 0, 0, 5, 0)
    assert (value.low, value.step, value.body) == outcome
    assert value == (p_parity(2, 0, 0, 3, 0) + planted).shifted(8)
    assert ppoly._pmemo[(3, 0, 0, 5, 0)] is value


@st.composite
def _component(draw):
    """A shape with m1+m2+m3 <= 5, an s around its support, a parity."""
    m1 = draw(st.integers(0, 5))
    m2 = draw(st.integers(0, 5 - m1))
    m3 = draw(st.integers(0, 5 - m1 - m2))
    s = draw(st.integers(-1, 2 * (m1 + m2) + 5 * m3 + 3))
    return m1, m2, m3, s, draw(st.sampled_from((0, 1)))


@settings(max_examples=150, deadline=None)
@given(_component())
def test_recursion_matches_oracle_property(args):
    assert p_parity(*args) == p_oracle(*args)


@settings(max_examples=100, deadline=None)
@given(_component())
def test_values_on_a_shared_body_match_the_oracle(args):
    # a stored value sits on the table's copy of its body, and every small
    # stored value on that same tuple (this one too), whichever key stored
    # it first, is its own component; test_recursion_matches_oracle_property
    # covers the values the memo never stores
    from qpartition import ppoly

    value = p_parity(*args)
    if args in ppoly._pmemo:
        assert ppoly._pbodies[value.body] is value.body
        for key, other in list(ppoly._pmemo.items()):
            if other.body is value.body and sum(key[:3]) <= 5:
                assert other == p_oracle(*key)


# the counts each closed form reads; the others must be 0 for it to be P
_READS = {PX00: (1, 0, 0), P0X0: (0, 1, 0), P00X: (0, 0, 1), PX0X: (1, 0, 1), P0XX: (0, 1, 1)}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(CLOSED_FORM_KINDS),
    st.tuples(st.integers(-3, 8), st.integers(-3, 8), st.integers(-3, 8)),
    st.one_of(st.integers(-3, 40), st.none()),
)
def test_closed_forms_match_recursion_property(kind, counts, s):
    m1, m2, m3 = (count * read for count, read in zip(counts, _READS[kind]))
    if s is None:  # the one s the two-parameter forms accept
        s = m1 + m2 + 4 * m3 + 1
    try:
        value = closed_form(kind, m1, m2, m3, s)
    except ValueError:
        assert kind in (PX0X, P0XX) and s != m1 + m2 + 4 * m3 + 1
        return
    assert value == p(m1, m2, m3, s), (kind, m1, m2, m3, s)


def test_closed_forms_match_recursion_past_the_oracle():
    # m = 60 is far beyond what enumerate_bases can list; the closed forms
    # are the independent check there
    for s in range(60, 123):
        assert closed_form(PX00, m1=60, s=s) == p(60, 0, 0, s), s
        assert closed_form(P0X0, m2=60, s=s) == p(0, 60, 0, s), s


def test_all_coefficients_nonnegative():
    for m1 in range(4):
        for m2 in range(4):
            for m3 in range(3):
                for s in range(1, 2 * (m1 + m2) + 4 * m3 + 2):
                    assert p(m1, m2, m3, s).is_nonnegative()


def test_closed_form_examples():
    # m1 = m: a single tight stack of repeating pairs
    for m in range(6):
        assert closed_form(PX00, m1=m, s=m + 1) == QPoly.monomial(1, m * m + m)
    assert closed_form(P00X, m3=2, s=9).format_q() == "q^46"
    assert closed_form(P00X, m3=2, s=8) == QPoly()  # out of shape: zero
    assert closed_form(P00X, 0, 0, -1, -3) == QPoly()  # a negative count, as for p
    assert closed_form(P0XX, 0, -1, 0, 0) == QPoly()  # before the rule on s
    assert closed_form(PX0X, m1=1, m3=1, s=6).format_q() == "q^23 + q^20"
    with pytest.raises(ValueError):
        closed_form(PX0X, m1=1, m3=1, s=7)
    with pytest.raises(ValueError):
        closed_form("nonsense", m1=1, s=1)


def test_closed_forms_match_recursion():
    for m1 in range(5):
        for s in range(1, 2 * m1 + 3):
            assert closed_form(PX00, m1=m1, s=s) == p(m1, 0, 0, s)
    for m2 in range(5):
        for s in range(1, 2 * m2 + 3):
            assert closed_form(P0X0, m2=m2, s=s) == p(0, m2, 0, s)
    for m3 in range(3):
        for s in range(1, 4 * m3 + 3):
            assert closed_form(P00X, m3=m3, s=s) == p(0, 0, m3, s)
    for m1 in range(4):
        for m3 in range(3):
            s = m1 + 4 * m3 + 1
            assert closed_form(PX0X, m1=m1, m3=m3, s=s) == p(m1, 0, m3, s)
    for m2 in range(4):
        for m3 in range(3):
            s = m2 + 4 * m3 + 1
            assert closed_form(P0XX, m2=m2, m3=m3, s=s) == p(0, m2, m3, s)


def test_exponent_discrepancy_report():
    # the closed-forms suite checks the printed block exponent 10*m3^2 + 23*m3
    # against the recursion and the corrected closed form
    from qpartition import verify

    check = verify.suite_closed_forms().checks[-1]
    assert check.name == "exponent discrepancy report" and check.ok
    assert check.lines == (
        "the block-count exponent is 10*m3^2 + 3*m3, not the printed 10*m3^2 + 23*m3",
        "m3=1, s=5: recursion q^13; corrected q^13 (match=True); printed q^33 (match=False)",
        "m3=2, s=9: recursion q^46; corrected q^46 (match=True); printed q^86 (match=False)",
    )


def test_parse_qpoly():
    assert parse_qpoly("q^7") == QPoly.monomial(1, 7)
    assert parse_qpoly("q^11 + q^9").terms() == [(9, 1), (11, 1)]
    assert parse_qpoly("0") == QPoly()
    assert parse_qpoly("2q + 1").coeffs == (1, 2)
    with pytest.raises(ValueError):
        parse_qpoly("qq^2")
    # a space pads a term or follows its sign, but never joins two digits
    assert parse_qpoly(" - q^3 +  2 ") == parse_qpoly("-q^3+2")
    for text in ("2 3", "q^1 0", "1 2q^3"):
        quoted = re.escape(repr(text))
        with pytest.raises(ValueError, match="^cannot parse term %s in %s$" % (quoted, quoted)):
            parse_qpoly(text)
    for text in ("", " ", "+"):
        with pytest.raises(ValueError, match="^cannot parse %s: no terms$" % re.escape(repr(text))):
            parse_qpoly(text)
    for value in (None, 7, b"q^2", ["q"]):
        with pytest.raises(ValueError, match="^cannot parse %s: not a str$" % re.escape(repr(value))):
            parse_qpoly(value)


def test_table_errata_are_independently_confirmed():
    # the stored corrections must agree with the enumeration oracle, which
    # never touches the recursion
    for erratum in TABLE_ERRATA:
        m1, m2, m3, s = erratum["key"]
        assert p(m1, m2, m3, s) == p_oracle(m1, m2, m3, s, 0) + p_oracle(
            m1, m2, m3, s, 1
        )
