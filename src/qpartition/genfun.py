"""The generating-function routes and their cross-verification.

Each partition class has four series routes that must agree coefficient
for coefficient on any shared window:

* ``kr_brute``       -- count partitions directly (`partitions.brute_series`
                        walking the class's prefix rule `partitions.kr_rule`);
* ``kr_alternating`` -- Kanade and Russell's triple sum over (i, j, k) with
                        a (-1)^k sign;
* ``kr_positive``    -- the evidently positive multi-sum built from the base
                        polynomials P(m1,m2,m3,s;q^2); every term is
                        nonnegative, which is asserted during accumulation;
* ``kr_marker``      -- the marker product of the seed construction.

At t = 1 the three classes also equal infinite products with moduli 6/12
(``product_side``, which takes no t-window).  The at-most-twice class H has
its own product prod (1 + t q^n + t^2 q^2n) (``h_product``), positive sum
(``h_positive``, the series H+ below) and brute count (``h_brute``).  The
class routes take a `KrVariant` and refuse anything else, every route
rejects a window that is negative or not an ``int``, both with
``ValueError``, and ``compare`` diffs any two of them.

No class condition looks more than two parts back, so a partition is in
its class iff each part passes the prefix rule after the parts before it
(`partitions`), and the brute walk enters members only.

Every term of every sum is homogeneous in t, so it is built on one q-row
and added into its t-row.  Division by 1 - q^d is causal (coefficient n
depends only on coefficients <= n), so it commutes with multiplication by
q^e on a window truncated from above: a row divided on the first
max_q + 1 - e coefficients and then shifted by e equals the row shifted
first and divided on the whole window.  So each sum extends a row by one
division on a copy cut to the window it is shifted into (`_divided`), and
`series.add_shifted` adds the copy at its shift.  The exponent grows with
every index, so each sum stops at the first term past the window and rows
shrink as it grows.

The positive sums follow the paper's construction.  H+ is a sum over
cores (m1, m2, m3, n12) at t-degree L = 2(m1+m2) + 5m3 + n12: the sum over
s of P, q-shifted, over (q;q)_{n12} (q^3;q^3)_{m1+m2+2m3}.  Every P added
is asserted nonnegative; the sum over s runs, one parity at a time, over
``ppoly.support``, exactly the s where that component of P is nonzero.
`_h_plus_row` builds H+ one t-degree row at a time.  The denominators
nest, so it sums over n12 and over K = m1+m2+2m3 in Horner form, one
division per index step, and ``h_positive`` is those rows at full width.
By the causality above, a row's prefix does not depend on how far the row
was built, so H+ is built once per process and shared by all four
positive routes (``h_positive`` and ``kr_positive`` for each class):
`_h_plus_rows` keeps each row at the longest prefix asked for so far and
hands every caller a copy of a slice of it.  Only this shared numerator
is kept; no route's output is.

Every class series is a numerator N(t;q) times Euler factors, then a
staircase t^M -> t^M q^{M^2 + extra*M}.  One engine, `_class_series`,
builds them all and takes the staircase and the factors as data; the
positive and marker sums read theirs from `_CLASSES`:

* D:   N / (tq;q^2)_inf (t^2q^4;q^4)_inf (1 - t);
* D':  N / (tq;q^2)_inf (t^2;q^4)_inf;
* D'': D' at t -> t q^2, so its staircase is M^2 + 2M.

``kr_positive`` takes N = H+(t;q^2) and ``kr_marker`` the marker numerator
prod (1 + t q^{2n} + (a-1) t^2 q^{4n}), built by `_pair_product` like
``h_product``; at a = 2 it is H(t;q^2).

Kanade and Russell's alternating sum is the same engine on another
staircase.  Its (i, j, k) term is

    (-1)^k t^s q^{s(s-1) + a*i + b*j + 3k^2 + c*k} / (q;q)_i (q^4;q^4)_j (q^6;q^6)_k,

s = i + 2j + 3k, with (a, b, c) = (1, 6, 6) for D, (2, 2, 6) for D' and
(4, 6, 12) for D'' (`_ALTERNATING`).  The part s(s-1) is the staircase
t^M -> t^M q^{M(M-1)} (extra = -1); the sums over i and j are the Euler
factors 1/(t q^a; q)_inf and 1/(t^2 q^b; q^4)_inf; and the sum over k is
the numerator sum_k (-1)^k t^{3k} q^{3k^2 + ck} / (q^6;q^6)_k, one division
per k.  That numerator is zero off the t-degrees 0, 3, 6, ..., and
`_euler_sum` skips a zero row, so the t-degree-1 factor goes first: it
fills the rows the t^2 factor then reads.

Each 1/(x;q^b)_inf is expanded by Euler's sum_k x^k/(q^b;q^b)_k (Andrews,
*The Theory of Partitions*, 1976, ch. 2), `_euler_sum`: row L reaches row
L + k*deg_t(x) through k divisions on a copy.  For the positive sum of D
these are the sums over the multi-sum's indices i and j, and 1/(1 - t),
its k index, adds each t-row into the next, in ascending order.
Truncating each t-degree on its own is exact.  Before the staircase, row M
is needed only on its first size_M = max_q + 1 - M^2 - extra*M
coefficients.  Every factor raises the t-degree and never lowers the
q-degree, so row M depends only on rows L <= M, on the same prefix, and
size_L >= size_M.  So the numerator's row L is built on its first size_L
coefficients (H+'s on ceil(size_L / 2), which q -> q^2 stretches to
size_L).  The t-degree M is bounded by M^2 <= max_q; `_class_series`
proves the bound for each sum.  ``kr_positive`` asserts every row
nonnegative again after the Euler sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import ppoly
from .partitions import KrVariant, at_most_twice_rule, brute_series, check_variant, kr_rule
from .series import BiSeries, add_shifted, check_ints, check_window, divide_geometric


# ----------------------------------------------------------------- brute

def kr_brute(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    return brute_series(kr_rule(variant), max_q, max_t)


def h_brute(max_q: int, max_t: int) -> BiSeries:
    return brute_series(at_most_twice_rule, max_q, max_t)


# ----------------------------------------------------------------- rows

def _divided(row: list, d: int, size: int) -> list:
    """The first ``size`` coefficients of ``row`` times 1/(1 - q^d), as a new row."""
    out = row[:size]
    divide_geometric(out, d)
    return out


def _pair_product(sizes: list, c2: int, b: int) -> list:
    """The t-rows p_m of P(t) = prod_{n>=1} (1 + t q^{bn} + c2 t^2 q^{2bn}),
    row m on its first sizes[m] >= 1 coefficients (non-increasing), from
    P(t) = (1 + t q^b + c2 t^2 q^{2b}) P(t q^b) (Andrews, ch. 2).  Its t^m
    coefficient is (1 - q^{bm}) p_m = q^{bm} (p_{m-1} + c2 p_{m-2}), p_0 = 1;
    1 - q^{bm} is a unit for m >= 1, so the rows are unique, hence the
    product's.  Division is causal, so row m on its window reads rows m - 1
    and m - 2 only on theirs, which are no shorter: each row is exact.  Row
    k has parts b, 2b, ..., each at most twice, so it is zero below
    b * ((k+1)^2 // 4), and the adds start there."""
    rows = [[1] + [0] * (sizes[0] - 1)]
    for m in range(1, len(sizes)):
        row = [0] * sizes[m]
        add_shifted(row, rows[m - 1], b * m, 1, b * (m * m // 4))
        if m > 1 and c2:
            add_shifted(row, rows[m - 2], b * m, c2, b * ((m - 1) ** 2 // 4))
        divide_geometric(row, b * m)
        rows.append(row)
    return rows


def _euler_sum(rows: list, dt: int, dq: int, b: int) -> None:
    """rows times 1/(t^dt q^dq; q^b)_inf in place, as Euler's sum
    sum_k t^{dt k} q^{dq k} / (q^b; q^b)_k: row L reaches row L + dt*k
    through k divisions.  Rows are taken from the top down, so each is read
    before anything is added into it; an all-zero row adds nothing and is
    skipped, and each row's window bounds the copies added into it.  b = 0
    stands for 1/(1 - t^dt q^dq): each row is added into the row dt above
    it, from the bottom up, so it is final when it is read."""
    if not b:
        for L in range(dt, len(rows)):
            add_shifted(rows[L], rows[L - dt], dq)
        return
    for L in range(len(rows) - 1 - dt, -1, -1):
        term = rows[L]
        if not any(term):
            continue
        for k in range(1, (len(rows) - 1 - L) // dt + 1):
            dst = rows[L + dt * k]
            size = len(dst) - dq * k
            if size <= 0:
                break
            term = _divided(term, b * k, size)
            add_shifted(dst, term, dq * k)


def _class_series(max_q: int, max_t: int, numerator, extra: int, factors) -> BiSeries:
    """The numerator N times the Euler ``factors``, each `_euler_sum`'s
    (dt, dq, b) and summed in order, on the staircase
    t^M -> t^M q^{M^2 + extra*M} (see the module docstring).

    Row M is needed only on its first size_M = max_q + 1 - M^2 - extra*M
    coefficients, so ``numerator(sizes)`` returns N's t-rows, row M exactly
    sizes[M] long, and the staircase puts M^2 + extra*M zeros before it.
    Rows with M^2 > max_q are zero and are not built.  For extra >= 0 the
    staircase alone moves them past the window.  For the alternating sum
    (extra = -1) every term has q-exponent at least s^2: in
    s(s-1) + a*i + b*j + 3k^2 + c*k, a >= 1, b >= 2 and 3k^2 + ck >= 3k,
    so the linear part is at least i + 2j + 3k = s."""
    check_window(max_q, max_t)
    shifts = [m * (m + extra) for m in range(min(max_t, math.isqrt(max_q)) + 1)]
    rows = numerator([max_q + 1 - shift for shift in shifts if shift <= max_q])
    for factor in factors:
        _euler_sum(rows, *factor)
    out = [[0] * shift + row for shift, row in zip(shifts, rows)]
    out += [[0] * (max_q + 1) for _ in range(max_t + 1 - len(out))]
    return BiSeries._wrap(max_q, max_t, out)


# ----------------------------------------------------------- alternating

# the linear exponents (a, b, c) of the alternating term's q-exponent
# s(s-1) + a*i + b*j + 3k^2 + c*k, s = i + 2j + 3k
_ALTERNATING = {
    KrVariant.D: (1, 6, 6),
    KrVariant.DPRIME: (2, 2, 6),
    KrVariant.DPRIMEPRIME: (4, 6, 12),
}


def kr_alternating(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    """The signed triple sum over (i, j, k) of
    (-1)^k t^s q^{s(s-1) + a*i + b*j + 3k^2 + c*k} / (q;q)_i (q^4;q^4)_j (q^6;q^6)_k,
    s = i + 2j + 3k, as `_class_series` on the staircase t^M -> t^M q^{M(M-1)}:
    the sums over i and j are 1/(t q^a; q)_inf and 1/(t^2 q^b; q^4)_inf,
    and the numerator is the sum over k, one division per k."""
    check_variant(variant)
    a, b, c = _ALTERNATING[variant]

    def numerator(sizes):
        rows = [[0] * size for size in sizes]
        rows[0][0] = 1
        term = rows[0]
        for k in range(1, (len(rows) + 2) // 3):
            shift = 3 * k * k + c * k
            size = sizes[3 * k] - shift
            if size <= 0:
                break
            term = _divided(term, 6 * k, size)
            add_shifted(rows[3 * k], term, shift, -1 if k % 2 else 1)
        return rows

    # the t-degree-1 factor first: it skips the numerator's zero rows
    return _class_series(max_q, max_t, numerator, -1, ((1, a, 1), (2, b, 4)))


# --------------------------------------------------------------- positive

def _add_numerator(dst: list, core: tuple) -> None:
    """dst += sum_s P(m1,m2,m3,s; q) q^{(s-1)n12 + n12^2}, the numerator of
    the core (m1, m2, m3, n12), truncated to dst's window.  P = P0 + P1 is
    added one parity at a time over that parity's support, and each
    component is checked nonnegative and goes in on its own exponent
    lattice (`QPoly.add_into`).  The counts are ints built here, so the
    support and P are read without `ppoly.support`'s and `ppoly.p_parity`'s
    type tests, as the recursion reads them."""
    m1, m2, m3, n12 = core
    for parity in (0, 1):
        for s in ppoly._support(m1, m2, m3, parity):
            start = (s - 1) * n12 + n12 * n12
            if start >= len(dst):
                break
            poly = ppoly._p_parity(m1, m2, m3, s, parity)
            if not poly.is_nonnegative():
                raise AssertionError("negative coefficient in the positive-sum cell %s" % (core,))
            poly.add_into(dst, start)


# row L of H+ on the longest prefix built so far in this process
_h_plus_memo: list = []


def _h_plus_row(L: int, size: int) -> list:
    """H+'s t-degree row L on its first ``size`` >= 1 coefficients.

    The row sums the cores (m1, m2, m3, n12) with 2(m1+m2) + 5m3 + n12 = L,
    each its numerator over (q;q)_{n12} (q^3;q^3)_K, K = m1+m2+2m3.  These
    denominators nest, so both sums run in Horner form from the top index
    down, one division per index step: sum_n x_n/(q;q)_n is
    x_0 + (x_1 + (x_2 + ...)/(1 - q^2))/(1 - q).  For a given n12, K fixes
    m3 = L - n12 - 2K, leaving the split of m1 + m2.
    """
    row = [0] * size  # sum over n12, from n12 = L down
    for n12 in range(L, -1, -1):
        if any(row):
            divide_geometric(row, n12 + 1)
        inner = [0] * size  # sum over K, from the largest K down
        for K in range((L - n12) // 2, -1, -1):
            if any(inner):
                divide_geometric(inner, 3 * (K + 1))
            m3 = L - n12 - 2 * K
            for m1 in range(K - 2 * m3 + 1):
                _add_numerator(inner, (m1, K - 2 * m3 - m1, m3, n12))
        add_shifted(row, inner, 0)
    return row


def _h_plus_rows(sizes: list) -> list:
    """H+'s t-degree rows, row L on its first sizes[L] >= 1 coefficients,
    as fresh lists the caller may change.

    Row L on its first n coefficients depends on (L, n) alone and is the
    prefix of the same row on any n' >= n: every step of `_h_plus_row`
    only truncates above the window, since `divide_geometric` is causal,
    `add_shifted` and `QPoly.add_into` drop what falls past the row, and
    `_add_numerator` stops at the first P that starts past it.  So
    `_h_plus_memo` keeps each row at the longest size built so far: a row
    no longer than the kept one is a slice of it, and a longer one is built
    (its every P checked) and replaces it.
    """
    memo = _h_plus_memo
    rows = []
    for L, size in enumerate(sizes):
        if L == len(memo):
            memo.append([])
        if len(memo[L]) < size:
            memo[L] = _h_plus_row(L, size)
        rows.append(memo[L][:size])
    return rows


# each class's staircase t^M -> t^M q^{M^2 + extra*M} and Euler factors
# (dt, dq, b), as `_class_series` takes them
_CLASSES = {
    KrVariant.D: (0, ((1, 1, 2), (2, 4, 4), (1, 0, 0))),  # (tq;q^2) (t^2q^4;q^4) (1-t)
    KrVariant.DPRIME: (0, ((1, 1, 2), (2, 0, 4))),  # (tq;q^2) (t^2;q^4)
    KrVariant.DPRIMEPRIME: (2, ((1, 1, 2), (2, 0, 4))),  # D' at t -> t q^2
}


def _h_plus_stretched(sizes: list) -> list:
    """H+(t; q^2)'s t-rows, row L on its first sizes[L] coefficients."""
    rows = []
    for size, h_row in zip(sizes, _h_plus_rows([(size + 1) // 2 for size in sizes])):
        row = [0] * size
        row[::2] = h_row  # q -> q^2
        rows.append(row)
    return rows


def kr_positive(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    """The evidently positive multi-sum: `_class_series` of H+(t; q^2), with
    every P and every t-degree row after the Euler sums checked nonnegative."""
    check_variant(variant)
    series = _class_series(max_q, max_t, _h_plus_stretched, *_CLASSES[variant])
    for m, row in enumerate(series._rows):
        if min(row) < 0:
            raise AssertionError("negative coefficient in the positive-sum t-degree row %s" % m)
    return series


def kr_marker(variant: KrVariant, a: int, max_q: int, max_t: int) -> BiSeries:
    """`_class_series` of prod_{n>=1} (1 + t q^{2n} + (a-1) t^2 q^{4n}): the
    marker product A(t;q;a) (D) or B(t;q;a) (D', and D'' at t -> t q^2) on
    the staircase.  It counts each seed a^{#toggle groups} (`seeds`), so at
    a = 2 it is the class series."""
    check_ints(a=a)
    check_variant(variant)
    return _class_series(
        max_q, max_t, lambda sizes: _pair_product(sizes, a - 1, 2), *_CLASSES[variant]
    )


def _h_series(max_q: int, max_t: int, build) -> BiSeries:
    """An at-most-twice series from its full-width t-rows ``build(sizes)``.
    M parts, each at most twice, weigh at least 1+1+2+2+... = (M+1)^2 // 4,
    so t-degrees past isqrt(4*max_q + 3) - 1 are zero and are not built."""
    check_window(max_q, max_t)
    mcap = min(max_t, math.isqrt(4 * max_q + 3) - 1)
    rows = build([max_q + 1] * (mcap + 1))
    rows += [[0] * (max_q + 1) for _ in range(max_t - mcap)]
    return BiSeries._wrap(max_q, max_t, rows)


def h_product(max_q: int, max_t: int) -> BiSeries:
    """prod_{n>=1} (1 + t q^n + t^2 q^{2n}), truncated."""
    return _h_series(max_q, max_t, lambda sizes: _pair_product(sizes, 1, 1))


def h_positive(max_q: int, max_t: int) -> BiSeries:
    """H+ = sum P(m1,m2,m3,s;q) q^{m*n12 + n12^2} t^{2m1+2m2+5m3+n12} over
    cells, divided by (q;q)_{n12} (q^3;q^3)_{m1+m2+2m3}: `_h_plus_rows`."""
    return _h_series(max_q, max_t, _h_plus_rows)


# ---------------------------------------------------------------- product

_PRODUCTS = {
    # residues a of the 1/(q^a; q^mod)_inf factors, mod, and whether the
    # (q^6; q^12)_inf numerator is present
    KrVariant.D: ((1, 4, 6, 8, 11), 12, False),
    KrVariant.DPRIME: ((2, 3, 4), 6, True),
    KrVariant.DPRIMEPRIME: ((4, 5, 6, 7, 8), 12, False),
}
_KR2_MOD12 = ((2, 3, 4, 8, 9, 10), 12, True)


def _infinite_product(residues, mod: int, numerator: bool, max_q: int) -> BiSeries:
    """[(q^6; q^12)_inf] / prod_a (q^a; q^mod)_inf, expanded to max_q on one
    q-row in place."""
    row = [1] + [0] * max_q
    if numerator:
        for d in range(6, max_q + 1, 12):
            add_shifted(row, row[:-d], d, -1)  # times 1 - q^d
    for a in residues:
        for d in range(a, max_q + 1, mod):
            divide_geometric(row, d)
    return BiSeries._wrap(max_q, 0, [row])


def product_side(variant: KrVariant, max_q: int) -> BiSeries:
    """The t = 1 infinite product of the class, expanded to max_q."""
    check_variant(variant)
    check_window(max_q, 0)
    return _infinite_product(*_PRODUCTS[variant], max_q)


def product_side_mod12(variant: KrVariant, max_q: int) -> BiSeries:
    """The kr2 product in its modulus-12 printing; other classes unchanged."""
    check_variant(variant)
    check_window(max_q, 0)
    factors = _KR2_MOD12 if variant is KrVariant.DPRIME else _PRODUCTS[variant]
    return _infinite_product(*factors, max_q)


def marginal_max_t(max_q: int) -> int:
    """Smallest t-window that is exhaustive for a t = 1 evaluation:
    a class partition with m parts weighs at least m^2."""
    check_ints(max_q=max_q)
    return math.isqrt(max_q)


# ---------------------------------------------------------------- compare

class CompareReport(NamedTuple):
    """Coefficientwise diff of two series on their common window."""

    max_q: int
    max_t: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (n, m, left, right)

    @property
    def equal(self) -> bool:
        return not self.mismatches

    def lines(self, label_a: str = "left", label_b: str = "right") -> list[str]:
        if self.equal:
            return [
                "equal on the window q <= %d, t <= %d" % (self.max_q, self.max_t)
            ]
        out = []
        for n, m, a, b in self.mismatches:
            out.append(
                "mismatch at q^%d t^%d: %s=%d, %s=%d" % (n, m, label_a, a, label_b, b)
            )
        return out


def compare(a: BiSeries, b: BiSeries) -> CompareReport:
    for x in (a, b):
        if not isinstance(x, BiSeries):
            raise ValueError("%r is not a BiSeries" % (x,))
    mq = min(a.max_q, b.max_q)
    mt = min(a.max_t, b.max_t)
    mismatches = []
    for m in range(mt + 1):
        ra, rb = a._rows[m], b._rows[m]
        if ra[: mq + 1] == rb[: mq + 1]:
            continue
        for n in range(mq + 1):
            if ra[n] != rb[n]:
                mismatches.append((n, m, ra[n], rb[n]))
    return CompareReport(mq, mt, tuple(mismatches))
