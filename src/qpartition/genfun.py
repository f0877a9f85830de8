"""The generating-function routes and their cross-verification.

Each partition class has four series routes that must agree coefficient
for coefficient on any shared window:

* ``kr_brute``       -- count partitions directly (`partitions.brute_series`
                        walking the class's prefix rule `partitions.kr_rule`);
* ``kr_alternating`` -- the triple sum over (i, j, k) with a (-1)^k sign;
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

Every term of both sums is homogeneous in t, so it is built on one q-row
and added into its t-row.  Division by 1 - q^d is causal (coefficient n
depends only on coefficients <= n), so it commutes with multiplication by
q^e on a window truncated from above: a row divided on the first
max_q + 1 - e coefficients and then shifted by e equals the row shifted
first and divided on the whole window.  The alternating sum uses this
directly: the index loops extend a parent row by one division on a copy
(`_divided`), and `series.add_shifted` adds the row at its shift.  The
exponent grows with every index, so each loop stops at the first term past
the window and rows shrink as it grows.

The positive sums follow the paper's construction.  H+ is a sum over
cores (m1, m2, m3, n12) at t-degree L = 2(m1+m2) + 5m3 + n12: the sum over
s of P, q-shifted, over (q;q)_{n12} (q^3;q^3)_{m1+m2+2m3}.  Every P added
is asserted nonnegative.  `_h_plus_row` builds H+ one t-degree row at a
time.  The denominators nest, so it sums over n12 and over
K = m1+m2+2m3 in Horner form, one division per index step, and
``h_positive`` is those rows at full width.  By the causality above, a
row's prefix does not depend on how far the row was built, so H+ is built
once per process and shared by all four positive routes (``h_positive``
and ``kr_positive`` for each class): `_h_plus_rows` keeps each row at the
longest prefix asked for so far and hands every caller a copy of a slice
of it.  Only this shared numerator is kept; no route's output is.

Each class series is a numerator N(t;q) over Euler denominators, then the
staircase t^M -> t^M q^{M^2} (`_class_series`):

* D:   N / (tq;q^2)_inf (t^2q^4;q^4)_inf (1 - t);
* D':  N / (tq;q^2)_inf (t^2;q^4)_inf;
* D'': D' at t -> t q^2, so its staircase is M^2 + 2M.

``kr_positive`` takes N = H+(t;q^2) and ``kr_marker`` the marker numerator
prod (1 + t q^{2n} + (a-1) t^2 q^{4n}), built in place by `_pair_product`
like ``h_product``; at a = 2 it is H(t;q^2).

Each 1/(x;q^b)_inf is expanded by Euler's sum_k x^k/(q^b;q^b)_k (Andrews,
*The Theory of Partitions*, 1976, ch. 2), `_euler_sum`: row L reaches row
L + k*deg_t(x) through k divisions on a copy.  For D these are the sums
over the multi-sum's indices i and j, and 1/(1 - t), its k index, adds
each t-row into the next, in ascending order.  Truncating each t-degree
on its own is exact.  Before the staircase, row M is needed
only on its first size_M = max_q + 1 - M^2 - extra*M coefficients (extra
is 2 for D'' and 0 otherwise).  Every factor raises the t-degree and never
lowers the q-degree, so row M depends only on rows L <= M, on the same
prefix, and size_L >= size_M.  So the numerator's row L is built on its
first size_L coefficients (H+'s on ceil(size_L / 2), which q -> q^2
stretches to size_L).  ``kr_positive`` asserts every row nonnegative again
after the Euler sums.

The alternating sums stop at t-degree max_t and at the first q-exponent
past max_q.  The class series bound the t-degree M by M^2 <= max_q (a
class partition with M parts weighs at least M^2), and the inner sum over s
runs, one parity at a time, over ``ppoly.support``, exactly the s where
that component of P is nonzero.
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
    """The t-rows of prod_{n>=1} (1 + t q^{bn} + c2 t^2 q^{2bn}), row m on its
    first sizes[m] coefficients (non-increasing).  Each factor is added in
    from the top row down, so rows m - 1 and m - 2 are read before they
    change.  Row m - 1 holds parts b, 2b, ..., each at most twice, so it is
    zero below b * (m^2 // 4), and the adds start there.  Once the t term of
    factor n starts past row m's window, the rest of the product does too:
    the t^2 term starts no lower (row m - 2 is zero before factor n unless
    m <= 2n), and later factors start higher.  So rows drop off the top."""
    rows = [[0] * size for size in sizes]
    rows[0][0] = 1
    top = len(rows) - 1
    n = 1
    while top:
        shift = b * n
        while top and shift + b * (top * top // 4) >= sizes[top]:
            top -= 1
        for m in range(top, 0, -1):
            add_shifted(rows[m], rows[m - 1], shift, 1, b * (m * m // 4))
            if m > 1 and c2:
                add_shifted(rows[m], rows[m - 2], 2 * shift, c2, b * ((m - 1) ** 2 // 4))
        n += 1
    return rows


# ----------------------------------------------------------- alternating

def _alternating_q_exponent(variant: KrVariant, i: int, j: int, k: int) -> int:
    s = i + 2 * j + 3 * k
    base = s * (s - 1)
    if variant is KrVariant.D:
        return base + i + 6 * j + 3 * k * k + 6 * k
    if variant is KrVariant.DPRIME:
        return base + 2 * i + 2 * j + 3 * k * k + 6 * k
    return base + 4 * i + 6 * j + 3 * k * k + 12 * k


def kr_alternating(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    """The signed triple sum over (i, j, k); t-degree is i + 2j + 3k.

    The (i, j, k) term is (-1)^k q^e / (q^6;q^6)_k (q^4;q^4)_j (q;q)_i with
    e = ``_alternating_q_exponent``, which grows with each index, so each
    loop stops at the first term past the window and extends its parent's
    row by one division.
    """
    check_variant(variant)
    check_window(max_q, max_t)
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    row_k = [1] + [0] * max_q
    for k in range(max_t // 3 + 1):
        size = max_q + 1 - _alternating_q_exponent(variant, 0, 0, k)
        if size <= 0:
            break
        if k:
            row_k = _divided(row_k, 6 * k, size)
        row_j = row_k
        for j in range((max_t - 3 * k) // 2 + 1):
            size = max_q + 1 - _alternating_q_exponent(variant, 0, j, k)
            if size <= 0:
                break
            if j:
                row_j = _divided(row_j, 4 * j, size)
            row = row_j
            for i in range(max_t - 3 * k - 2 * j + 1):
                exp = _alternating_q_exponent(variant, i, j, k)
                if exp > max_q:
                    break
                if i:
                    row = _divided(row, i, max_q + 1 - exp)
                add_shifted(rows[i + 2 * j + 3 * k], row, exp, -1 if k % 2 else 1)
    return BiSeries._wrap(max_q, max_t, rows)


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


def _euler_sum(rows: list, dt: int, dq: int, b: int) -> None:
    """rows times 1/(t^dt q^dq; q^b)_inf in place, as Euler's sum
    sum_k t^{dt k} q^{dq k} / (q^b; q^b)_k: row L reaches row L + dt*k
    through k divisions.  Rows are taken from the top down, so each is read
    before anything is added into it, and each row's window bounds the
    copies added into it."""
    for L in range(len(rows) - 1 - dt, -1, -1):
        term = rows[L]
        for k in range(1, (len(rows) - 1 - L) // dt + 1):
            dst = rows[L + dt * k]
            size = len(dst) - dq * k
            if size <= 0:
                break
            term = _divided(term, b * k, size)
            add_shifted(dst, term, dq * k)


def _class_series(variant: KrVariant, max_q: int, max_t: int, numerator) -> BiSeries:
    """The class series of the numerator N (see the module docstring).

    ``numerator(sizes)`` returns N's t-rows, row M on its first sizes[M]
    coefficients: before its staircase shift q^{M^2 + extra*M} (extra = 2
    for D'', else 0), row M is needed only up to q^{max_q - M^2 - extra*M}."""
    check_variant(variant)
    check_window(max_q, max_t)
    extra = 2 if variant is KrVariant.DPRIMEPRIME else 0  # t -> t q^2
    sizes = [
        max_q + 1 - m * (m + extra) for m in range(min(max_t, math.isqrt(max_q)) + 1)
    ]
    rows = numerator([size for size in sizes if size > 0])  # decreasing, so a prefix
    _euler_sum(rows, 1, 1, 2)  # 1/(t q; q^2)_inf
    if variant is KrVariant.D:
        _euler_sum(rows, 2, 4, 4)  # 1/(t^2 q^4; q^4)_inf
        for m in range(1, len(rows)):  # 1/(1 - t), ascending: row m - 1 is final
            add_shifted(rows[m], rows[m - 1], 0)
    else:
        _euler_sum(rows, 2, 0, 4)  # 1/(t^2; q^4)_inf
    out = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    for m, row in enumerate(rows):
        add_shifted(out[m], row, m * (m + extra))
    return BiSeries._wrap(max_q, max_t, out)


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
    series = _class_series(variant, max_q, max_t, _h_plus_stretched)
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
    return _class_series(variant, max_q, max_t, lambda sizes: _pair_product(sizes, a - 1, 2))


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
