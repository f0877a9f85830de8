"""The generating-function routes and their cross-verification.

Each partition class has three series routes that must agree coefficient
for coefficient on any shared window:

* ``kr_brute``       -- count partitions directly (`partitions.brute_series`,
                        pruned by the local class rules);
* ``kr_alternating`` -- the triple sum over (i, j, k) with a (-1)^k sign;
* ``kr_positive``    -- the evidently positive multi-sum built from the base
                        polynomials P(m1,m2,m3,s;q^2); every term is
                        nonnegative, which is asserted during accumulation.

At t = 1 the three classes also equal infinite products with moduli 6/12
(``product_side``, which takes no t-window).  The at-most-twice class H has
its own product prod (1 + t q^n + t^2 q^2n) (``h_product``), positive sum
(``h_positive``) and brute count (``h_brute``).  The class routes take a
`KrVariant`, every route rejects a negative window with ``ValueError``,
and ``compare`` diffs any two of them.

Every term of both sums is homogeneous in t, so it is built on one q-row
and added into its t-row.  A term is a product of three kinds of factor: a
core that depends on (m1, m2, m3, n12) only (positive sums: the sum over s
of P, divided by (q^2;q^2)_{n12} (q^6;q^6)_{m1+m2+2m3}), Euler-type
factors 1/(q^a;q^a)_i that grow by one division per index step, and a
monomial q^e t^M.  Division by 1 - q^d is causal (coefficient n depends
only on coefficients <= n), so it commutes with multiplication by q^e on a
window truncated from above: a row divided on the first max_q + 1 - e
coefficients and then shifted by e equals the row shifted first and
divided on the whole window.  So each core row is built and divided once
with shift 0, the index loops extend a parent row by one division on a
copy (`_divided`), and `_add_shifted` adds the row at its shift.  The
exponent grows with every index, so each loop stops at the first term
past the window and rows shrink as it grows.  In the positive sums the
k index of class D changes only the shift, so one (core, i, j) row serves
every k; each such row is asserted nonnegative before it is added, and
every k-row is a truncation of it.

The alternating sums stop at t-degree max_t and at the first q-exponent
past max_q.  The positive sums bound the t-degree M by M^2 <= max_q (a
class partition with M parts weighs at least M^2) and the inner s-range by
``ppoly.s_range``, outside which the recursion proves P vanishes.

The staircase step all class series share (multiply the t^M slice by
q^{M^2}) is `apply_staircase`; composing it with the marker products
A(t;q;2) / B(t;q;2) must reproduce the kr1/kr2 series, which is one of the
cross-checks in the test suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import ppoly
from .partitions import KrVariant, brute_series, has_triple
from .series import BiSeries, divide_geometric


# ----------------------------------------------------------------- brute

def _third_copy(parts: tuple, x: int) -> bool:
    return len(parts) >= 2 and parts[-2] == x


# the smallest part each variant allows (D also bars 2+2)
_FIRST_MIN = {KrVariant.D: 1, KrVariant.DPRIME: 2, KrVariant.DPRIMEPRIME: 4}


def _kr_extends(variant: KrVariant):
    """The local class rules as a prefix rule for ``brute_series``: a prefix
    that breaks one of them cannot extend into the class.  Rule (c) is left
    to ``_kr_member``."""
    first_min = _FIRST_MIN[variant]

    def extends(parts: tuple, x: int) -> bool:
        if not parts:
            return x >= first_min
        last = parts[-1]
        if x == last:  # (b), and a third copy breaks (c)
            if x % 2 or _third_copy(parts, x):
                return False
            return not (x == 2 and variant is KrVariant.D)  # D bars 2+2
        return x != last + 1  # (a)

    return extends


def _kr_member(variant: KrVariant):
    """``check_kr`` for the walk's nodes, which are sorted and zero-free, so
    nothing is validated: a value repeats exactly when it equals a sorted
    neighbour, and the smallest part is the first."""
    first_min = _FIRST_MIN[variant]

    def member(parts: tuple) -> bool:
        for a, b in zip(parts, parts[1:]):
            if b - a == 1 or (a == b and a % 2):  # (a), (b)
                return False
        for a, mid, c in zip(parts, parts[1:], parts[2:]):
            if c - a < 4 and not mid % 2 and (a == mid or mid == c):  # (c)
                return False
        if parts and parts[0] < first_min:
            return False
        return variant is not KrVariant.D or parts.count(2) < 2  # D bars 2+2

    return member


def kr_brute(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    return brute_series(
        _kr_member(variant), max_q, max_t, extends=_kr_extends(variant)
    )


def h_brute(max_q: int, max_t: int) -> BiSeries:
    return brute_series(
        lambda parts: not has_triple(parts),
        max_q,
        max_t,
        extends=lambda parts, x: not _third_copy(parts, x),
    )


# ----------------------------------------------------------------- rows

def _check_window(max_q: int, max_t: int) -> None:
    if max_q < 0 or max_t < 0:
        raise ValueError("max_q and max_t must be >= 0")


def _divided(row: list, d: int, size: int) -> list:
    """The first ``size`` coefficients of ``row`` times 1/(1 - q^d), as a new row."""
    out = row[:size]
    divide_geometric(out, d)
    return out


def _add_shifted(dst: list, src: list, shift: int, sign: int = 1) -> None:
    """dst += sign * q^shift * src, truncated to dst's window."""
    stop = min(len(dst), shift + len(src))
    if shift < stop:
        op = operator.add if sign > 0 else operator.sub
        dst[shift:stop] = map(op, dst[shift:stop], src)


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
    _check_window(max_q, max_t)
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
                _add_shifted(rows[i + 2 * j + 3 * k], row, exp, -1 if k % 2 else 1)
    return BiSeries._wrap(max_q, max_t, rows)


# --------------------------------------------------------------- positive

def _core_row(core: tuple, b: int, size: int) -> list | None:
    """The core (m1, m2, m3, n12) of a positive sum as a q-row of ``size``
    coefficients, or None when it is zero there:
    sum_s P(m1,m2,m3,s; q^b) q^{b((s-1)n12 + n12^2)} divided by
    (q^b; q^b)_{n12} (q^{3b}; q^{3b})_{m1+m2+2m3}.
    """
    m1, m2, m3, n12 = core
    row = [0] * size
    for s in ppoly.s_range(m1, m2, m3):
        poly = ppoly.p(m1, m2, m3, s)
        if not poly:
            continue
        start = b * ((s - 1) * n12 + n12 * n12 + poly.low)
        if start >= size:
            continue
        for e, c in enumerate(poly.body[: (size - 1 - start) // b + 1]):
            row[start + b * e] += c
    if not any(row):
        return None
    for d in range(b, b * n12 + 1, b):
        divide_geometric(row, d)
    for d in range(3 * b, 3 * b * (m1 + m2 + 2 * m3) + 1, 3 * b):
        divide_geometric(row, d)
    return row


def _check_nonnegative(row: list, cell: tuple) -> None:
    if min(row) < 0:
        raise AssertionError("negative coefficient in the positive-sum cell %s" % (cell,))


def _positive_q_shift(variant: KrVariant, m1, m2, m3, n12, i, j) -> int:
    if variant is KrVariant.D:
        return i + 4 * j
    if variant is KrVariant.DPRIME:
        return i
    return 3 * i + 4 * j + 4 * m1 + 4 * m2 + 10 * m3 + 2 * n12


def kr_positive(variant: KrVariant, max_q: int, max_t: int) -> BiSeries:
    """The evidently positive multi-sum; every row added is checked nonnegative.

    The cell (core, i, j, k) is the core row (``_core_row`` with b = 2)
    divided by (q^2;q^2)_i (q^4;q^4)_j and shifted by cap^2 plus
    ``_positive_q_shift``, where cap = 2(m1+m2) + 5m3 + n12 + i + 2j + k is
    its t-degree; k (class D only) changes nothing but cap.
    """
    _check_window(max_q, max_t)
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    mcap = min(max_t, math.isqrt(max_q))
    has_k = variant is KrVariant.D  # the free 1/(1-t) index
    for m1 in range(mcap // 2 + 1):
        for m2 in range((mcap - 2 * m1) // 2 + 1):
            for m3 in range((mcap - 2 * m1 - 2 * m2) // 5 + 1):
                for n12 in range(mcap - 2 * m1 - 2 * m2 - 5 * m3 + 1):
                    core = (m1, m2, m3, n12)
                    lowest = 2 * (m1 + m2) + 5 * m3 + n12

                    def shift(i, j, k=0):
                        cap = lowest + i + 2 * j + k
                        return cap * cap + _positive_q_shift(variant, *core, i, j)

                    size = max_q + 1 - shift(0, 0)
                    row_j = _core_row(core, 2, size) if size > 0 else None
                    if row_j is None:
                        continue
                    for j in range((mcap - lowest) // 2 + 1):
                        size = max_q + 1 - shift(0, j)
                        if size <= 0:
                            break
                        if j:
                            row_j = _divided(row_j, 4 * j, size)
                        row = row_j
                        for i in range(mcap - lowest - 2 * j + 1):
                            size = max_q + 1 - shift(i, j)
                            if size <= 0:
                                break
                            if i:
                                row = _divided(row, 2 * i, size)
                            # every k row below is a truncation of this one
                            _check_nonnegative(row, core + (i, j))
                            cap = lowest + i + 2 * j
                            for k in range(mcap - cap + 1 if has_k else 1):
                                _add_shifted(rows[cap + k], row, shift(i, j, k))
    return BiSeries._wrap(max_q, max_t, rows)


def h_product(max_q: int, max_t: int) -> BiSeries:
    """prod_{n>=1} (1 + t q^n + t^2 q^{2n}), truncated."""
    _check_window(max_q, max_t)
    acc = BiSeries.one(max_q, max_t)
    for n in range(1, max_q + 1):
        acc = acc.mul_sparse([(1, 1, n), (1, 2, 2 * n)])
    return acc


def h_positive(max_q: int, max_t: int) -> BiSeries:
    """sum P(m1,m2,m3,s;q) q^{m*n12 + n12^2} t^{2m1+2m2+5m3+n12} over cells,
    divided by (q;q)_{n12} (q^3;q^3)_{m1+m2+2m3}: one core row per cell.

    M parts, each at most twice, weigh at least 1+1+2+2+... = (M+1)^2 // 4,
    so t-degrees past isqrt(4*max_q + 3) - 1 are zero and are not visited."""
    _check_window(max_q, max_t)
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    mcap = min(max_t, math.isqrt(4 * max_q + 3) - 1)
    for m1 in range(mcap // 2 + 1):
        for m2 in range((mcap - 2 * m1) // 2 + 1):
            for m3 in range((mcap - 2 * m1 - 2 * m2) // 5 + 1):
                for n12 in range(mcap - 2 * m1 - 2 * m2 - 5 * m3 + 1):
                    core = (m1, m2, m3, n12)
                    row = _core_row(core, 1, max_q + 1)
                    if row is not None:
                        _check_nonnegative(row, core)
                        _add_shifted(rows[2 * m1 + 2 * m2 + 5 * m3 + n12], row, 0)
    return BiSeries._wrap(max_q, max_t, rows)


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
    """[(q^6; q^12)_inf] / prod_a (q^a; q^mod)_inf, expanded to max_q."""
    acc = BiSeries.one(max_q, 0)
    if numerator:
        for d in range(6, max_q + 1, 12):
            acc = acc.mul_sparse([(-1, 0, d)])
    for a in residues:
        for d in range(a, max_q + 1, mod):
            acc = acc.mul_geometric_inverse(0, d)
    return acc


def product_side(variant: KrVariant, max_q: int) -> BiSeries:
    """The t = 1 infinite product of the class, expanded to max_q."""
    _check_window(max_q, 0)
    return _infinite_product(*_PRODUCTS[variant], max_q)


def product_side_mod12(variant: KrVariant, max_q: int) -> BiSeries:
    """The kr2 product in its modulus-12 printing; other classes unchanged."""
    _check_window(max_q, 0)
    factors = _KR2_MOD12 if variant is KrVariant.DPRIME else _PRODUCTS[variant]
    return _infinite_product(*factors, max_q)


def marginal_max_t(max_q: int) -> int:
    """Smallest t-window that is exhaustive for a t = 1 evaluation:
    a class partition with m parts weighs at least m^2."""
    return math.isqrt(max_q)


def apply_staircase(series: BiSeries) -> BiSeries:
    """Multiply the t^m slice by q^{m^2} for every m (the base-weight step)."""
    rows = [[0] * (series.max_q + 1) for _ in range(series.max_t + 1)]
    for m, row in enumerate(series._rows):
        shift = m * m
        dst = rows[m]
        for n, c in enumerate(row):
            if c and n + shift <= series.max_q:
                dst[n + shift] = c
    return BiSeries._wrap(series.max_q, series.max_t, rows)


# ---------------------------------------------------------------- compare

@dataclass(frozen=True)
class CompareReport:
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
    mq = min(a.max_q, b.max_q)
    mt = min(a.max_t, b.max_t)
    mismatches = []
    for m in range(mt + 1):
        ra, rb = a._rows[m], b._rows[m]
        for n in range(mq + 1):
            if ra[n] != rb[n]:
                mismatches.append((n, m, ra[n], rb[n]))
    return CompareReport(mq, mt, tuple(mismatches))
