import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive import inv_product, product

from qpartition.moves import Decomposition, TaggedPartition, decompose
from qpartition.partitions import iter_partitions
from qpartition.series import (
    BiSeries,
    Frozen,
    QPoly,
    add_shifted,
    divide_geometric,
    lattice_sum,
    trim,
)


def euler_sum(x_dt, x_dq, base, max_q, max_t, alternating):
    """The Euler expansions sum_n x^n / (q^base; q^base)_n of 1/(x; q^base)_inf
    and, alternating, sum_n (-1)^n x^n q^{base n(n-1)/2} / (q^base; q^base)_n
    of (x; q^base)_inf."""
    acc = term = BiSeries.one(max_q, max_t)
    n = 1
    while n * x_dt <= max_t and n * x_dq <= max_q:
        if alternating:
            term = term.mul_monomial(-1, x_dq + base * (n - 1), x_dt)
        else:
            term = term.mul_monomial(1, x_dq, x_dt)
        term = term.mul_geometric_inverse(0, base * n)
        acc = acc + term
        n += 1
    return acc


def test_monomial_basics():
    one = BiSeries.monomial(1, 0, 0, 10, 5)
    assert one.coeff(0, 0) == 1
    assert one.coeff(10, 5) == 0

    m = BiSeries.monomial(-1, 6, 3, 20, 5)
    assert m.coeff(6, 3) == -1

    twice = BiSeries.monomial(2, 4, 2, 10, 4)
    assert (twice + twice).coeff(4, 2) == 4


def test_monomial_out_of_window_rejected():
    with pytest.raises(ValueError):
        BiSeries.monomial(1, 11, 0, 10, 5)
    with pytest.raises(ValueError):
        BiSeries.monomial(1, 0, 6, 10, 5)


def test_add_identity_and_inverse():
    one = BiSeries.one(8, 3)
    zero = BiSeries(8, 3)
    tq = BiSeries.monomial(1, 1, 1, 8, 3)
    assert one + zero == one
    assert (tq + tq).coeff(1, 1) == 2
    minus = BiSeries.monomial(-1, 0, 0, 8, 3) + BiSeries.monomial(-1, 1, 1, 8, 3)
    assert ((one + tq) + minus).is_zero()


def test_mul_square_and_annihilator():
    one_plus_tq = BiSeries.one(8, 3) + BiSeries.monomial(1, 1, 1, 8, 3)
    sq = one_plus_tq * one_plus_tq
    assert sq.coeff(0, 0) == 1 and sq.coeff(1, 1) == 2 and sq.coeff(2, 2) == 1
    assert (one_plus_tq * BiSeries(8, 3)).is_zero()


def test_mul_telescoping():
    max_q = 12
    one = BiSeries.one(max_q, 0)
    geometric = one.mul_geometric_inverse(0, 1)  # 1 + q + q^2 + ...
    one_minus_q = one + BiSeries.monomial(-1, 1, 0, max_q, 0)
    assert one_minus_q * geometric == one


def test_windows_shrink_to_common():
    a = BiSeries.one(10, 5)
    b = BiSeries.one(7, 3)
    assert (a + b).max_q == 7 and (a + b).max_t == 3
    assert (a * b).max_q == 7 and (a * b).max_t == 3


def test_geometric_inverse_examples():
    s = BiSeries.one(6, 4).mul_geometric_inverse(1, 0)  # 1/(1-t)
    assert all(s.coeff(0, m) == 1 for m in range(5))
    s = BiSeries.one(6, 0).mul_geometric_inverse(0, 1)  # 1/(1-q)
    assert all(s.coeff(n, 0) == 1 for n in range(7))
    a = BiSeries.one(6, 3) + BiSeries.monomial(-1, 1, 1, 6, 3)
    assert a.mul_geometric_inverse(1, 1) == BiSeries.one(6, 3)


def test_inv_pochhammer_counts_partitions():
    # independent oracle: count all partitions of n by enumeration
    s = inv_product(0, 1, 1, 12, 0)
    for n in range(13):
        assert s.coeff(n, 0) == sum(1 for _ in iter_partitions(n))


def test_inv_pochhammer_single_part_odd():
    # 1/(tq; q^2): the t^1 slice is q + q^3 + q^5 + ...
    s = inv_product(1, 1, 2, 9, 3)
    assert [s.coeff(n, 1) for n in range(10)] == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_inv_pochhammer_pairs_of_multiples_of_four():
    # 1/(t^2 q^4; q^4): coefficient of t^{2j} q^n counts partitions of n
    # into j parts divisible by 4
    s = inv_product(2, 4, 4, 20, 6)

    def count(n, j):
        return sum(
            1
            for parts in iter_partitions(n, max_len=j)
            if len(parts) == j and all(x % 4 == 0 for x in parts)
        )

    for n in range(21):
        for j in range(3):
            assert s.coeff(n, 2 * j) == count(n, j)
        assert s.coeff(n, 1) == 0


def test_pochhammer_rejects_nonterminating():
    one = BiSeries.one(5, 5)
    with pytest.raises(ValueError):
        one.mul_geometric_inverse(0, 0)
    with pytest.raises(ValueError):
        divide_geometric([1, 0, 0], 0)


@pytest.mark.parametrize(
    "x_dt,x_dq,base",
    [(0, 1, 1), (0, 2, 3), (1, 1, 2), (2, 4, 4), (3, 6, 6), (1, 0, 1), (0, 6, 12)],
)
def test_euler_sums_match_products(x_dt, x_dq, base):
    max_q, max_t = 18, 7
    args = (x_dt, x_dq, base, max_q, max_t)
    assert euler_sum(*args, alternating=False) == inv_product(*args)
    assert euler_sum(*args, alternating=True) == product(*args)


@pytest.mark.parametrize(
    "x_dt,x_dq,base",
    [(0, 1, 1), (1, 1, 2), (2, 4, 4), (3, 6, 6), (1, 2, 3)],
)
def test_mutual_inverses(x_dt, x_dq, base):
    max_q, max_t = 16, 6
    a = inv_product(x_dt, x_dq, base, max_q, max_t)
    b = product(x_dt, x_dq, base, max_q, max_t)
    assert a * b == BiSeries.one(max_q, max_t)


def test_alternating_pentagonal_signs():
    # (q; q)_inf = 1 - q - q^2 + q^5 + q^7 - q^12 - ...
    s = product(0, 1, 1, 15, 0)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(16):
        assert s.coeff(n, 0) == expected.get(n, 0)


def test_alternating_beyond_window_is_one():
    one = BiSeries.one(8, 2)
    assert product(0, 9, 2, 8, 2) == one
    assert product(3, 1, 1, 8, 2) == one


def test_finite_pochhammer_conventions():
    one = BiSeries.one(8, 0)
    # (q; q)_2 = (1-q)(1-q^2)
    s = (one + BiSeries.monomial(-1, 1, 0, 8, 0)) * (one + BiSeries.monomial(-1, 2, 0, 8, 0))
    assert [s.coeff(n, 0) for n in range(4)] == [1, -1, -1, 1]
    # denominator usage: 1/(q; q)_1 is the geometric series
    geom = one.mul_geometric_inverse(0, 1)
    assert (one + BiSeries.monomial(-1, 1, 0, 8, 0)) * geom == one
    row = [1] + [0] * 8
    divide_geometric(row, 1)
    assert row == [1] * 9


def test_algebra_properties():
    max_q, max_t = 10, 4
    a = inv_product(1, 1, 2, max_q, max_t)
    b = product(1, 2, 2, max_q, max_t)
    c = BiSeries.monomial(2, 1, 1, max_q, max_t) + BiSeries.one(max_q, max_t)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_coeff_out_of_window_rejected():
    s = BiSeries.one(5, 2)
    with pytest.raises(ValueError):
        s.coeff(6, 0)
    with pytest.raises(ValueError):
        s.coeff(0, 3)
    assert BiSeries(5, 2).coeff(5, 2) == 0


def test_json_round_trip_with_big_coefficients():
    # the wire form writes coefficients as decimal strings, so a JSON round
    # trip keeps them exact however large they are
    s = BiSeries.monomial(10**40 + 7, 3, 1, 5, 2) + BiSeries.monomial(-5, 0, 0, 5, 2)
    d = s.to_json_dict()
    assert d == {"max_q": 5, "max_t": 2, "terms": [[0, 0, "-5"], [1, 3, str(10**40 + 7)]]}
    assert json.loads(json.dumps(d)) == d


def test_recomputation_is_bit_identical():
    a = inv_product(1, 1, 2, 14, 6) * product(3, 6, 6, 14, 6)
    b = inv_product(1, 1, 2, 14, 6) * product(3, 6, 6, 14, 6)
    assert a == b and a.to_json_dict() == b.to_json_dict()


def test_qpoly_basics():
    p = QPoly((1, 0, 2))
    assert p.degree == 2 and p.terms() == [(0, 1), (2, 2)]
    assert QPoly().degree is None
    assert QPoly((0, 0)).degree is None
    q7 = QPoly.monomial(1, 7)
    assert q7.format_q() == "q^7"
    assert QPoly((1, 2)).stretched(3).coeffs == (1, 0, 0, 2)
    assert (QPoly((1, 1)) + QPoly((-1, -1))).coeffs == ()
    assert QPoly((2, 0, 1)).format_q() == "q^2 + 2"


_coeff = st.integers(-5, 5)


def _naive_geometric_t_pass(rows, dt, dq):
    """rows times 1/(1 - t^dt q^dq), dt >= 1, one cell at a time."""
    for m in range(dt, len(rows)):
        src, dst = rows[m - dt], rows[m]
        for n in range(dq, len(dst)):
            if src[n - dq]:
                dst[n] += src[n - dq]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda w: st.lists(st.lists(_coeff, min_size=w, max_size=w), min_size=1, max_size=6)
    ),
    st.integers(1, 4),
    st.integers(0, 10),
)
def test_geometric_t_pass_matches_the_naive_loop(rows, dt, dq):
    expected = [row[:] for row in rows]
    _naive_geometric_t_pass(expected, dt, dq)
    s = BiSeries(len(rows[0]) - 1, len(rows) - 1, rows)
    assert s.mul_geometric_inverse(dt, dq)._rows == expected
    # and multiplying by 1 - t^dt q^dq undoes it
    factor = BiSeries.one(s.max_q, s.max_t)
    if dt <= s.max_t and dq <= s.max_q:
        factor = factor + BiSeries.monomial(-1, dq, dt, s.max_q, s.max_t)
    assert s.mul_geometric_inverse(dt, dq) * factor == s


def test_geometric_t_pass_rejects_a_constant_t_step():
    # (0, 0) is the constant step 1/(1 - 1); negative steps leave the window
    s = BiSeries(0, 1, [[1], [0]])
    for dt, dq in ((0, 0), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match=r"\(dt, dq\) != \(0, 0\), both >= 0"):
            s.mul_geometric_inverse(dt, dq)


# The row kernel against per-cell loops: entry n of a row is the
# coefficient of q^n, and the row's length is its window.


def _naive_add_shifted(dst, src, shift, coeff, low):
    for n, c in enumerate(src):
        if n >= low and shift + n < len(dst):
            dst[shift + n] += coeff * c


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_coeff, max_size=12),
    st.lists(_coeff, max_size=12),
    st.integers(0, 15),
    st.sampled_from([1, -1, 0, 2, -3, 10**30]),
    st.integers(0, 6),
)
def test_add_shifted_matches_the_naive_loop(dst, src, shift, coeff, low):
    src = [0] * min(low, len(src)) + src[low:]  # zero below low, as promised
    expected = dst[:]
    _naive_add_shifted(expected, src, shift, coeff, low)
    before = src[:]
    add_shifted(dst, src, shift, coeff, low)
    assert dst == expected
    assert src == before


# QPoly against a plain dense list: entry e is the coefficient of q^e.


def _ref_trim(dense):
    dense = list(dense)
    while dense and dense[-1] == 0:
        dense.pop()
    return tuple(dense)


def _ref_add(a, b):
    out = [0] * max(len(a), len(b))
    for e, c in [*enumerate(a), *enumerate(b)]:
        out[e] += c
    return _ref_trim(out)


def _ref_format(dense):
    out = []
    for e in reversed(range(len(dense))):
        c = dense[e]
        if c:
            mono = "" if e == 0 else "q" if e == 1 else "q^%d" % e
            mag = "" if abs(c) == 1 and e else str(abs(c))
            sign = ("- " if c < 0 else "+ ") if out else ("-" if c < 0 else "")
            out.append(sign + mag + mono)
    return " ".join(out) or "0"


_dense = st.builds(
    lambda lead, mid, trail: [0] * lead + mid + [0] * trail,
    st.integers(0, 6),
    st.lists(st.integers(-3, 3), max_size=8),
    st.integers(0, 3),
)


@st.composite
def _dense_pair(draw):
    """Two dense lists; often the second cancels the first at its low end,
    its high end, both, or entirely, outside a block of fresh values."""
    a = draw(_dense)
    if draw(st.booleans()):
        return a, draw(_dense)
    b = [-c for c in a] + [0] * draw(st.integers(0, 2))
    lo = draw(st.integers(0, len(b)))
    hi = draw(st.integers(lo, len(b)))
    b[lo:hi] = draw(st.lists(st.integers(-3, 3), min_size=hi - lo, max_size=hi - lo))
    return a, b


def _ref_lattice(dense, k, d):
    """``dense`` under q -> q^k, times q^d."""
    out = [0] * (d + len(dense) * k)
    out[d::k] = dense
    return out


def _assert_matches(poly, dense):
    dense = _ref_trim(dense)
    nonzero = [e for e, c in enumerate(dense) if c]
    if poly.body:  # stored from the lowest term to the highest, both nonzero
        assert poly.body[0] and poly.body[-1]
        assert poly.low == nonzero[0]
    else:
        assert (poly.low, dense) == (0, ())
    assert (poly.step == 0) == (len(poly.body) <= 1)  # a monomial has no lattice
    assert poly.coeffs == dense
    assert poly.degree == (len(dense) - 1 if dense else None)
    assert poly.terms() == [(e, dense[e]) for e in nonzero]
    assert poly.format_q() == _ref_format(dense)
    assert poly.is_nonnegative() == all(c >= 0 for c in dense)
    assert bool(poly) == bool(dense)


@settings(max_examples=200, deadline=None)
@given(_dense_pair(), st.integers(0, 5), st.integers(1, 4))
def test_qpoly_matches_dense_reference(pair, dq, k):
    a, b = pair
    pa, pb = QPoly(a), QPoly(b)
    _assert_matches(pa, a)
    _assert_matches(pa + pb, _ref_add(a, b))
    _assert_matches(pa.shifted(dq), [0] * dq + a)
    _assert_matches(pa.stretched(k), _ref_lattice(a, k, 0))
    assert (pa == pb) == (_ref_trim(a) == _ref_trim(b))
    if pa == pb:
        assert hash(pa) == hash(pb)
    back = pa + pb + QPoly([-c for c in b])
    assert back == pa and hash(back) == hash(pa)


@settings(max_examples=300, deadline=None)
@given(
    _dense_pair(), _dense,
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
)
def test_qpoly_on_different_lattices_matches_dense_reference(pair, c, k1, k2, d1, d2):
    a, b = pair
    da, db = _ref_lattice(a, k1, d1), _ref_lattice(b, k2, d2)
    pa, pb, pc = QPoly(a).stretched(k1).shifted(d1), QPoly(b).stretched(k2).shifted(d2), QPoly(c)
    _assert_matches(pa, da)
    _assert_matches(pa + pb, _ref_add(da, db))
    _assert_matches(pb + pa + pc, _ref_add(_ref_add(da, db), c))
    assert (pa == pb) == (_ref_trim(da) == _ref_trim(db))
    assert (pa == pc) == (_ref_trim(da) == _ref_trim(c))
    dense = QPoly(da)  # the same polynomial on the dense lattice
    assert pa == dense and dense == pa and hash(pa) == hash(dense)
    back = pa + pb + QPoly([-x for x in db])
    assert back == pa and hash(back) == hash(pa)
    # sums that cancel down to one term and to zero, across lattices
    _assert_matches(pa + QPoly([-x for x in da]), ())
    _assert_matches(pa + QPoly([-x for x in a]).stretched(k1).shifted(d1), ())
    if pa:
        e, coeff = pa.terms()[-1]
        rest = [-x for x in da]
        rest[e] = 0
        one = [0] * e + [coeff]
        _assert_matches(pa + QPoly(rest), one)
        _assert_matches(QPoly(rest) + pa + pb.stretched(2), _ref_add(one, _ref_lattice(db, 2, 0)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_dense, st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=4))
def test_raw_lattice_sums_trimmed_once_match_dense_reference(summands):
    # the P recursion's pattern: nonzero operands summed raw, one after
    # another, without trimming the partial sums, then trimmed once
    expected, total = [], None
    for dense, k, d in summands:
        expected = _ref_add(expected, _ref_lattice(dense, k, d))
        poly = QPoly(dense).stretched(k).shifted(d)
        if not poly:
            continue
        raw = (poly.low, poly.step, poly.body)
        total = raw if total is None else lattice_sum(*total, *raw)
    _assert_matches(QPoly._wrap(*trim(*total)) if total else QPoly(), expected)


def test_qpoly_equality_reads_terms_across_lattices():
    dense, strided = QPoly((1, 0, 1)), QPoly((1, 1)).stretched(2)
    assert (strided.step, strided.body) == (2, (1, 1))
    assert dense == strided and hash(dense) == hash(strided)
    assert QPoly((1, 0, 2)) != strided
    assert QPoly.monomial(3, 4) == QPoly((0, 0, 0, 0, 3)) == QPoly((3,)).stretched(2).shifted(4)


@settings(max_examples=300, deadline=None)
@given(
    _dense, st.integers(0, 3), st.integers(0, 4), st.lists(_coeff, max_size=20), st.integers(0, 20)
)
def test_qpoly_add_into_matches_the_naive_loop(dense, step, low, row, shift):
    # a monomial has step 0; otherwise dense's terms lie every step-th
    # exponent from q^low
    if step:
        poly = QPoly(dense).stretched(step).shifted(low)
        terms = [(low + step * n, c) for n, c in enumerate(dense)]
    else:
        terms = [(low, dense[-1] if dense else 0)]
        poly = QPoly.monomial(terms[0][1], low)
    expected = row[:]
    for e, c in terms:
        if shift + e < len(row):
            expected[shift + e] += c
    poly.add_into(row, shift)
    assert row == expected


_VALUES = {
    "qpoly-dense": QPoly((0, 2, 0, 1)),
    "qpoly-strided": QPoly((1,)).shifted(3) + QPoly((0, 0, 5)).shifted(7),
    "qpoly-step-2": QPoly((1, 3, 0, 2)).stretched(2).shifted(1),
    "qpoly-zero": QPoly(),
    "biseries": BiSeries(3, 1, [[1, 0, 2, 0], [0, 1, 0, 4]]),
    "tagged": TaggedPartition((1, 2, 4, 6, 6, 9)),
    "decomposition": decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14)),
}
_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _fields(value):
    # the stored form, which == alone does not pin for QPoly
    if isinstance(value, QPoly):
        return value.low, value.step, value.body
    if isinstance(value, TaggedPartition):
        return value.parts, value.starts
    if isinstance(value, Decomposition):
        return _fields(value.base), value.mu, value.theta
    return value.max_q, value.max_t, [row[:] for row in value._rows]


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize("name", sorted(_VALUES))
def test_values_copy_and_pickle(name, how):
    value = _VALUES[name]
    again = _COPIES[how](value)
    assert type(again) is type(value)
    assert again == value
    assert _fields(again) == _fields(value)


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_values_refuse_setattr_and_del(name):
    # one frozen base: no slot can be set or deleted, and there is no
    # instance dict to take a new attribute
    value = _VALUES[name]
    before = _fields(value)
    message = "^%s is immutable$" % type(value).__name__
    assert not hasattr(value, "__dict__")
    for slot in type(value).__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=message):
            setattr(value, slot, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, slot)
    assert _fields(value) == before


_BUILT = {
    QPoly: (5, 2, (1, 0, 3)),
    BiSeries: (2, 0, [[1, 0, 4]]),
    TaggedPartition: ((1, 2, 4), (0,)),
    Decomposition: (TaggedPartition((1, 2)), (3,), (0, 1)),
}


@pytest.mark.parametrize("cls", list(_BUILT), ids=lambda cls: cls.__name__)
def test_each_value_type_has_a_positional_builder(cls):
    # _wrap takes one value per slot, in slot order, and stores each as given
    values = _BUILT[cls]
    built = cls._wrap(*values)
    assert type(built) is cls
    assert all(getattr(built, name) is value for name, value in zip(cls.__slots__, values))
    with pytest.raises(TypeError):
        cls._wrap(*values, None)


@pytest.mark.parametrize("slots", [("only",), ("a", "b", "c", "d")])
def test_any_frozen_subclass_gets_a_builder(slots):
    cls = type("Throwaway", (Frozen,), {"__slots__": slots, "__module__": __name__})
    values = [object() for _ in slots]
    built = cls._wrap(*values)
    assert type(built) is cls
    assert [getattr(built, name) for name in slots] == values
    assert cls._wrap.__qualname__ == "Throwaway._wrap"
    with pytest.raises(AttributeError, match="^Throwaway is immutable$"):
        setattr(built, slots[0], None)


@pytest.mark.parametrize("cls", list(_BUILT), ids=lambda cls: cls.__name__)
def test_a_value_type_can_be_subclassed(cls):
    # a subclass that declares no slots reads its parent's slot setters
    # through the MRO, and its own _wrap builds instances of the subclass
    sub = type("Sub", (cls,), {"__module__": __name__})
    values = _BUILT[cls]
    built = sub._wrap(*values)
    assert type(built) is sub
    assert all(getattr(built, name) is value for name, value in zip(cls.__slots__, values))
    assert sub._wrap.__qualname__ == "Sub._wrap"
    with pytest.raises(AttributeError, match="^Sub is immutable$"):
        setattr(built, cls.__slots__[0], None)


def test_a_qpoly_subclass_builds_through_the_checked_constructor():
    class P2(QPoly):
        pass

    value = P2((0, 1, 2))
    assert type(value) is P2 and type(copy.copy(value)) is P2
    assert (value.low, value.step, value.body) == (1, 1, (1, 2))
    assert value == QPoly((0, 1, 2))
