import enum
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import brute_series_walk, check_kr_literal

from qpartition import genfun, moves, ppoly, seeds
from qpartition.partitions import (
    KrVariant,
    as_parts,
    at_most_twice_rule,
    brute_series,
    check_at_most_twice,
    check_kr,
    format_parts,
    iter_partitions,
    kr_rule,
    parse_ints,
    parse_parts,
)
from qpartition.series import BiSeries, QPoly

D = KrVariant.D
DP = KrVariant.DPRIME
DPP = KrVariant.DPRIMEPRIME


def test_variant_labels():
    assert KrVariant.from_label("1") is D
    assert KrVariant.from_label("d''") is DPP
    with pytest.raises(ValueError):
        KrVariant.from_label("4")


def test_partition_parsing_and_str():
    p = parse_parts("1,4,4,5,6,6,9,10,11,12,12,14")
    assert sum(p) == 94 and len(p) == 12
    assert format_parts(p) == "1,4,4,5,6,6,9,10,11,12,12,14"
    assert parse_parts("") == ()
    with pytest.raises(ValueError, match=r"^parts must be non-decreasing: \(3, 2\)$"):
        parse_parts("3,2")
    with pytest.raises(ValueError, match=r"^part 0 must be >= 1: \(0, 1\)$"):
        parse_parts("0,1")
    with pytest.raises(ValueError, match=r"^part -1 must be >= 1: \(-1, 2\)$"):
        parse_parts("-1,2")
    with pytest.raises(ValueError, match=r"^cannot parse partition '1,x'$"):
        parse_parts("1,x")
    # a value that is no str is named, not read through a missing .strip
    with pytest.raises(ValueError, match=r"^cannot parse partition None: not a str$"):
        parse_parts(None)
    with pytest.raises(ValueError, match=r"^cannot parse x 5: not a str$"):
        parse_ints(5, "x")
    with pytest.raises(ValueError, match=r"^cannot parse mu b'3,6': not a str$"):
        parse_ints(b"3,6", "mu")


def test_condition_c_worked_rejections():
    # both rewrites of the odd streak 3,5,7 in a seed break the spacing rule
    assert not check_kr((4, 4, 7, 10), D)
    assert not check_kr((3, 6, 6, 10), D)
    # and the almost-seed analogues
    assert not check_kr((2, 2, 5, 10), DP)
    assert not check_kr((1, 4, 4, 10), DP)


def test_variant_specific_conditions():
    assert check_kr((1, 3), D)
    assert not check_kr((2, 2), D)
    assert check_kr((2, 2), DP)
    assert not check_kr((1, 5), DP)
    assert not check_kr((3, 8), DPP)
    assert check_kr((4, 4, 8, 8), DPP)


def test_check_kr_rejects_zero_parts():
    with pytest.raises(ValueError):
        check_kr((0, 2), D)
    with pytest.raises(ValueError):
        check_at_most_twice((0, 1))


def test_non_integer_parts_are_refused_not_truncated():
    from qpartition import moves, seeds

    with pytest.raises(ValueError, match=r"^part 2.7 is not an integer$"):
        check_kr((2.7, 5.2), D)
    with pytest.raises(ValueError, match=r"^part True is not an integer$"):
        check_at_most_twice([True, True, 1.0])
    with pytest.raises(ValueError, match=r"^part 1.5 is not an integer$"):
        moves.decompose((1.5, 4.9, 4))
    with pytest.raises(ValueError, match=r"^part 0 must be >= 1: \(0, 1\)$"):
        moves.TaggedPartition((0, 1))
    with pytest.raises(ValueError, match=r"^part 0 must be >= 1: \(0, 3\)$"):
        seeds.seed_decomposition((0, 3), DP)


class _One(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: as_parts((_One.ONE, 3)), r"^part <_One.ONE: 1> is not an integer$"),
        (
            lambda: moves.make_decomposition((1, 1), (_One.ONE,), ()),
            r"^mu part <_One.ONE: 1> is not an integer$",
        ),
        (lambda: ppoly.p(_One.ONE, 0, 0, 3), r"^m1=<_One.ONE: 1> is not an integer$"),
    ],
    ids=["as_parts", "make_decomposition", "p"],
)
def test_int_subclasses_are_refused_everywhere(call, message):
    # one integer rule: an int subclass is no int, as for bool
    with pytest.raises(ValueError, match=message):
        call()


def test_at_most_twice_examples():
    assert check_at_most_twice((1, 1, 2))
    assert not check_at_most_twice((1, 1, 1))
    assert check_at_most_twice((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))


def test_enumerate_examples():
    assert [p for p in iter_partitions(4) if check_kr(p, D)] == [(1, 3), (4,)]
    assert list(iter_partitions(0)) == [()]
    assert [p for p in iter_partitions(3) if check_at_most_twice(p)] == [(1, 2), (3,)]
    assert [p for p in iter_partitions(5, max_len=2) if len(p) == 2] == [(1, 4), (2, 3)]


def test_enumerate_is_lexicographic_and_deterministic():
    out = list(iter_partitions(7))
    assert out == sorted(out)
    assert out == list(iter_partitions(7))


def test_counts_match_classical_recurrence():
    # p(n, m) = p(n-1, m-1) + p(n-m, m), checked for all n <= 40
    top = 40
    counts = [[0] * (top + 1) for _ in range(top + 1)]
    for n in range(top + 1):
        for parts in iter_partitions(n):
            counts[n][len(parts)] += 1
    for n in range(1, top + 1):
        for m in range(1, n + 1):
            expected = counts[n - 1][m - 1] + (counts[n - m][m] if n >= m else 0)
            assert counts[n][m] == expected, (n, m)


@pytest.mark.parametrize("n", range(1, 25))
def test_shift_bijection_between_class2_and_class3(n):
    # adding 2 to every part carries class 2 into class 3, and subtracting 2
    # carries class 3 (parts >= 3) back; so the counts at (n, m) match
    # across the shift
    for parts in iter_partitions(n):
        if check_kr(parts, DP):
            assert check_kr(tuple(x + 2 for x in parts), DPP)
        if check_kr(parts, DPP):
            shifted = tuple(x - 2 for x in parts)
            assert all(x >= 2 for x in shifted)
            assert check_kr(shifted, DP)


def test_brute_series_counts():
    s = brute_series(at_most_twice_rule, 10, 10)
    assert sum(s.coeff(3, m) for m in range(11)) == 2
    assert s.coeff(0, 0) == 1
    assert s.is_nonnegative()


def test_brute_series_window_respects_length():
    s = brute_series(lambda p: True, 6, 2)
    # only partitions with at most two parts are counted
    assert s.coeff(3, 2) == 1  # 1+2
    assert s.coeff(6, 2) == 3  # 1+5, 2+4, 3+3


@pytest.mark.parametrize("max_q,max_t", [(-1, 3), (5, -2), (-3, -4)])
def test_series_and_brute_walk_share_the_window_check(max_q, max_t):
    # one validator, with the message the genfun routes give as well
    for build in (BiSeries, lambda q, t: brute_series(at_most_twice_rule, q, t)):
        with pytest.raises(ValueError, match="max_q and max_t must be >= 0"):
            build(max_q, max_t)


@pytest.mark.parametrize("admits", [None, 5, "kr"])
@pytest.mark.parametrize("max_t", [0, 2])
def test_brute_series_refuses_a_rule_it_cannot_call(admits, max_t):
    # even a window that asks the rule nothing
    with pytest.raises(ValueError, match=r"^admits=%s is not callable$" % re.escape(repr(admits))):
        brute_series(admits, 3, max_t)


# Rules for the walk: the class rules, rules that read only the last parts,
# one that reads the whole prefix, and one that admits everything.
_RULES = {
    "kr-d": kr_rule(D),
    "kr-d'": kr_rule(DP),
    "kr-d''": kr_rule(DPP),
    "at-most-twice": at_most_twice_rule,
    "distinct": lambda parts: len(parts) < 2 or parts[-2] < parts[-1],
    "no-prefix-weighs-2-mod-5": lambda parts: sum(parts) % 5 != 2,
    "always": lambda parts: True,
    "gap-two": lambda parts: len(parts) < 2 or parts[-1] - parts[-2] >= 2,
}


@pytest.mark.parametrize("name", ["distinct", "no-prefix-weighs-2-mod-5"])
def test_brute_series_counts_the_partitions_whose_prefixes_all_pass(name):
    rule = _RULES[name]
    max_q, max_t = 16, 6
    counts = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    for n in range(max_q + 1):
        for parts in iter_partitions(n, max_len=max_t):
            if all(rule(parts[:i]) for i in range(1, len(parts) + 1)):
                counts[len(parts)][n] += 1
    s = brute_series(rule, max_q, max_t)
    assert [[s.coeff(n, m) for n in range(max_q + 1)] for m in range(max_t + 1)] == counts
    with pytest.raises(ValueError):
        brute_series(rule, -1, 3)


def _recorded(rule):
    """``rule`` and the list of prefixes it is asked about, in order."""
    asked = []

    def admits(parts):
        asked.append(parts)
        return rule(parts)

    return admits, asked


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_RULES)), st.integers(0, 30), st.integers(0, 10))
def test_brute_series_asks_what_the_reference_walk_asks(name, max_q, max_t):
    # counting leaves in place changes neither the series nor the prefixes
    # the rule sees, nor their order
    admits, asked = _recorded(_RULES[name])
    reference, reference_asked = _recorded(_RULES[name])
    s = brute_series(admits, max_q, max_t)
    assert s == brute_series_walk(reference, max_q, max_t)
    assert asked == reference_asked


@pytest.mark.parametrize("max_q", [0, 1, 7, 30])
def test_brute_series_without_parts_counts_only_the_empty_partition(max_q):
    admits, asked = _recorded(lambda parts: True)
    s = brute_series(admits, max_q, 0)
    assert s._rows == [[1] + [0] * max_q]
    assert asked == []


@pytest.mark.parametrize("variant", [D, DP, DPP])
def test_check_kr_agrees_with_the_literal_reading(variant):
    for n in range(25):
        for parts in iter_partitions(n):
            assert check_kr(parts, variant) == check_kr_literal(parts, variant), parts


@st.composite
def _sorted_parts(draw):
    """Any non-decreasing tuple of positive ints, or a near-member: steps of
    0, 2, 3, 4 and 5 from a small first part meet or just miss each
    condition."""
    if draw(st.booleans()):
        return tuple(sorted(draw(st.lists(st.integers(1, 200), max_size=30))))
    parts = [draw(st.integers(1, 8))]
    for step in draw(st.lists(st.sampled_from([0, 2, 3, 4, 5]), max_size=29)):
        parts.append(parts[-1] + step)
    return tuple(parts)


@settings(max_examples=300, deadline=None)
@given(_sorted_parts())
def test_check_kr_agrees_with_the_literal_reading_on_any_parts(parts):
    for variant in (D, DP, DPP):
        assert check_kr(parts, variant) == check_kr_literal(parts, variant)


@pytest.mark.parametrize("n", range(1, 26))
def test_distinct_equals_odd_smoke(n):
    # classical warm-up identity: as many partitions into distinct parts as
    # into odd parts
    distinct = sum(
        1 for p in iter_partitions(n) if len(set(p)) == len(p)
    )
    odd = sum(1 for p in iter_partitions(n) if all(x % 2 for x in p))
    assert distinct == odd


@pytest.mark.parametrize(
    "given,expected",
    [
        ((3, 1), ValueError("parts must be non-decreasing: (3, 1)")),
        ((-1, 2), ValueError("part -1 must be >= 1: (-1, 2)")),
        ((2, -1), ValueError("part -1 must be >= 1: (2, -1)")),
        (("1", "x"), ValueError("part '1' is not an integer")),
        ([1, 2, 2.0], ValueError("part 2.0 is not an integer")),
        ((1, 2, 2), (1, 2, 2)),
        ((), ()),
        (iter(()), ()),
        ((1.5, 4.9, 4), ValueError("part 1.5 is not an integer")),
        ((True, 2), ValueError("part True is not an integer")),
        ((1, False), ValueError("part False is not an integer")),
        ((0, 2, 2), ValueError("part 0 must be >= 1: (0, 2, 2)")),
        ((2, 0), ValueError("part 0 must be >= 1: (2, 0)")),
        ([1, 4, 4], (1, 4, 4)),
        (None, ValueError("None is not a sequence of parts")),
        (5, ValueError("5 is not a sequence of parts")),
        (1.5, ValueError("1.5 is not a sequence of parts")),
    ],
)
def test_as_parts_contract(given, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            as_parts(given)
        assert str(info.value) == str(expected)
        return
    assert as_parts(given) == expected


_TWO_PAIRS = moves.TaggedPartition((1, 2, 5, 5))

# (name of the checked argument, call with x in its place, and what it must
# be if not "an integer") for the library entry points that take a window, a
# count, an exponent, a P argument, coefficients or a series operand; ppoly.p
# has its own test in test_ppoly.py
_INT_ARGUMENTS = {
    "kr_brute": ("max_q", lambda x: genfun.kr_brute(D, x, 3)),
    "kr_alternating": ("max_t", lambda x: genfun.kr_alternating(D, 10, x)),
    "kr_positive": ("max_q", lambda x: genfun.kr_positive(D, x, 3)),
    "kr_marker": ("a", lambda x: genfun.kr_marker(D, x, 12, 4)),
    "product_side": ("max_q", lambda x: genfun.product_side(D, x)),
    "product_side_mod12": ("max_q", lambda x: genfun.product_side_mod12(DP, x)),
    "h_brute": ("max_t", lambda x: genfun.h_brute(10, x)),
    "h_product": ("max_q", lambda x: genfun.h_product(x, 3)),
    "h_positive": ("max_q", lambda x: genfun.h_positive(x, 3)),
    "brute_series": ("max_q", lambda x: brute_series(at_most_twice_rule, x, 3)),
    "enumerate_bases": ("m3", lambda x: moves.enumerate_bases(0, 0, x)),
    "enumerate_bases_max_weight": ("max_weight", lambda x: moves.enumerate_bases(1, 0, 0, x)),
    "p_oracle": ("m1", lambda x: ppoly.p_oracle(x, 0, 0, 2, 0)),
    "p_oracle_parity": ("parity", lambda x: ppoly.p_oracle(1, 0, 0, 2, x)),
    "p_parity": ("m1", lambda x: ppoly.p_parity(x, 0, 0, 2, 0)),
    "p_parity_parity": ("parity", lambda x: ppoly.p_parity(1, 0, 0, 2, x)),
    "support": ("m1", lambda x: ppoly.support(x, 0, 0, 0)),
    "closed_form": ("m1", lambda x: ppoly.closed_form(ppoly.PX00, x, 0, 0, 3)),
    "qbinomial": ("n", lambda x: ppoly.qbinomial(x, 1)),
    "qbinomial_k": ("k", lambda x: ppoly.qbinomial(3, x)),
    "qbinomial_base": ("base", lambda x: ppoly.qbinomial(3, 1, x)),
    "QPoly.monomial": ("exp", lambda x: QPoly.monomial(1, x)),
    "QPoly": ("coeff", lambda x: QPoly((x, 0, 2))),
    "QPoly_coeffs": ("coeffs", lambda x: QPoly(x), "a sequence of integers"),
    "QPoly.shifted": ("dq", lambda x: QPoly((1, 2)).shifted(x)),
    "QPoly.stretched": ("k", lambda x: QPoly((1, 2)).stretched(x)),
    "BiSeries": ("max_q", lambda x: BiSeries(x, 2)),
    "BiSeries_coeff": ("coeff", lambda x: BiSeries(1, 0, [[0, x]])),
    "BiSeries_rows": ("rows", lambda x: BiSeries(1, 0, x), "a sequence of rows"),
    "BiSeries.coeff": ("n", lambda x: BiSeries(3, 2).coeff(x, 0)),
    "BiSeries.monomial": ("c", lambda x: BiSeries.monomial(x, 1, 0, 3, 2)),
    "BiSeries.monomial_dq": ("dq", lambda x: BiSeries.monomial(1, x, 0, 3, 2)),
    "BiSeries.mul_monomial": ("c", lambda x: BiSeries.one(3, 2).mul_monomial(x, 0, 0)),
    "BiSeries.mul_geometric_inverse": (
        "dt", lambda x: BiSeries.one(3, 2).mul_geometric_inverse(x, 1)
    ),
    "BiSeries.from_qpoly": ("dt", lambda x: BiSeries.from_qpoly(QPoly((1, 2)), 3, 2, dt=x)),
    "BiSeries.from_qpoly_poly": ("poly", lambda x: BiSeries.from_qpoly(x, 3, 2), "a QPoly"),
    "BiSeries.add": ("other", lambda x: BiSeries.one(3, 2).add(x), "a BiSeries"),
    "BiSeries.mul": ("other", lambda x: BiSeries.one(3, 2).mul(x), "a BiSeries"),
    "marginal_max_t": ("max_q", lambda x: genfun.marginal_max_t(x)),
    "staircase": ("m", lambda x: seeds.staircase(x)),
    "iter_partitions": ("n", lambda x: iter_partitions(x)),
    "iter_partitions_max_len": ("max_len", lambda x: iter_partitions(3, x)),
    "backward_move": ("pair_index", lambda x: moves.backward_move(_TWO_PAIRS, x)),
    "forward_move": ("pair_index", lambda x: moves.forward_move(_TWO_PAIRS, x)),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "3"], ids=repr)
@pytest.mark.parametrize("entry", sorted(_INT_ARGUMENTS))
def test_entry_points_refuse_non_integers(entry, bad):
    # 2.0 == 2 and True == 1 would pass a range check or hit a memo keyed by
    # the int, so the int twin is memoized first; the type test comes before
    name, call, *what = _INT_ARGUMENTS[entry]
    ppoly.p_oracle(1, 0, 0, 2, 0)
    ppoly.p(1, 0, 0, 2)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == "%s=%r is not %s" % (name, bad, what[0] if what else "an integer")


@pytest.mark.parametrize(
    "call, message",
    [
        # the length bound stopped only at 0, so -1 yielded every partition
        (lambda: iter_partitions(6, -1), "weight and length must be >= 0"),
        (lambda: iter_partitions(-1), "weight and length must be >= 0"),
        (lambda: seeds.staircase(-2), "staircase length must be >= 0, got -2"),
    ],
    ids=["iter_partitions_max_len", "iter_partitions", "staircase"],
)
def test_negative_lengths_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BiSeries.from_qpoly("x", 3, 2), "poly='x' is not a QPoly"),
        (lambda: BiSeries.one(3, 2) * 5, "other=5 is not a BiSeries"),
        (lambda: BiSeries.one(3, 2) + QPoly((1,)), "other=QPoly(1) is not a BiSeries"),
        (lambda: QPoly((1, 2)) + 5, "other=5 is not a QPoly"),
        (
            lambda: QPoly((1,)) + BiSeries.one(2, 2),
            "other=BiSeries(max_q=2, max_t=2: 1*t^0*q^0) is not a QPoly",
        ),
    ],
    ids=["from_qpoly", "mul", "add", "qpoly_add_int", "qpoly_add_biseries"],
)
def test_series_operations_refuse_a_foreign_operand(call, message):
    # these used to die with AttributeError on the operand's missing fields;
    # the table above calls add and mul by name, these through + and *
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# every class route and seed entry point, called with v as the variant
_VARIANT_ENTRIES = {
    "kr_brute": lambda v: genfun.kr_brute(v, 30, 6),
    "kr_alternating": lambda v: genfun.kr_alternating(v, 30, 6),
    "kr_positive": lambda v: genfun.kr_positive(v, 30, 6),
    "kr_marker": lambda v: genfun.kr_marker(v, 2, 30, 6),
    "product_side": lambda v: genfun.product_side(v, 30),
    "product_side_mod12": lambda v: genfun.product_side_mod12(v, 30),
    "check_kr": lambda v: check_kr((4, 4, 8), v),
    "to_seed": lambda v: seeds.to_seed((4, 4, 8), v),
    "seed_decomposition": lambda v: seeds.seed_decomposition((3, 5, 7), v),
    "expand_seed": lambda v: seeds.expand_seed((3, 5, 7), v),
}


@pytest.mark.parametrize("bad", ["d", 1, None], ids=repr)
def test_class_routes_and_seed_entries_refuse_a_non_variant(bad):
    # 'd' and 1 name a class in the CLI, but a library call given one used to
    # return another class's series or fail with AttributeError or KeyError
    for entry, call in _VARIANT_ENTRIES.items():
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == "variant %r is not a KrVariant" % (bad,), entry
