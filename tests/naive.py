"""Naive references the tests check the library against.

``check_kr_literal`` reads the class conditions (a)-(d) (see
`qpartition.partitions`) word for word over the whole partition, with a
multiplicity count, and shares no code with the library's prefix rule.
``brute_series_walk`` enters every admitted node, counts it there and
loops over its candidate parts, where ``brute_series`` counts leaves in
their parent's loop; it is the reference for both the series and the order
of the prefixes ``admits`` is asked about.
``qbinomial_pascal`` builds a Gaussian binomial by the Pascal recurrence in
``QPoly`` sums, where the library divides one Pochhammer quotient on a row.
``inv_product`` and ``product`` expand 1/(x; q^base)_inf and (x; q^base)_inf
one factor per n on dense ``BiSeries``, where the library sums Euler's
series on t-rows.
``p_table`` is the recursion table of `qpartition.ppoly`'s docstring on
dense coefficient lists, its rows written out by hand: no recursion table,
no shifted twins and no lattice sums.
"""

from collections import Counter
from functools import lru_cache

from qpartition.partitions import KrVariant
from qpartition.series import BiSeries, QPoly


def check_kr_literal(parts, variant):
    """True iff the sorted ``parts`` lie in the class named by ``variant``."""
    parts = tuple(parts)
    for i in range(len(parts) - 1):
        if parts[i + 1] - parts[i] == 1:
            return False  # (a)
    counts = Counter(parts)
    for v, c in counts.items():
        if v % 2 == 1 and c > 1:
            return False  # (b)
    for i in range(len(parts) - 2):
        mid = parts[i + 1]
        if mid % 2 == 0 and counts[mid] > 1 and parts[i + 2] - parts[i] < 4:
            return False  # (c); parts are sorted so the gap is the abs difference
    if variant is KrVariant.D:
        return counts[2] < 2
    if variant is KrVariant.DPRIME:
        return counts[1] == 0
    return counts[1] == 0 and counts[2] == 0 and counts[3] == 0


def brute_series_walk(admits, max_q, max_t):
    """Counting series of the partitions whose every nonempty prefix
    ``admits`` passes, by a walk that enters every admitted node."""
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]

    def visit(parts, weight):
        rows[len(parts)][weight] += 1
        if len(parts) == max_t:
            return
        for x in range(parts[-1] if parts else 1, max_q - weight + 1):
            child = parts + (x,)
            if admits(child):
                visit(child, weight + x)

    visit((), 0)
    return BiSeries._wrap(max_q, max_t, rows)


def inv_product(x_dt, x_dq, base, max_q, max_t):
    """1/(x; q^base)_inf for x = t^x_dt q^x_dq, one geometric factor per n."""
    s = BiSeries.one(max_q, max_t)
    for dq in range(x_dq, max_q + 1, base):
        s = s.mul_geometric_inverse(x_dt, dq)
    return s


def product(x_dt, x_dq, base, max_q, max_t):
    """(x; q^base)_inf through the dense Cauchy product, one factor
    (1 - x q^{base n}) per n."""
    one = s = BiSeries.one(max_q, max_t)
    for dq in range(x_dq, max_q + 1, base):
        if x_dt <= max_t:
            s = s * (one + BiSeries.monomial(-1, dq, x_dt, max_q, max_t))
    return s


@lru_cache(maxsize=None)
def qbinomial_pascal(n, k, base):
    """Gaussian binomial [n over k] in q^base by the Pascal recurrence
    [n, k] = q^(k*base) [n-1, k] + [n-1, k-1]; zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return QPoly()
    if k == 0:
        return QPoly((1,))
    return qbinomial_pascal(n - 1, k, base).shifted(k * base) + qbinomial_pascal(
        n - 1, k - 1, base
    )


def p_table(m1, m2, m3, s, parity):
    """P_parity(m1, m2, m3, s) by the module docstring's table of
    `qpartition.ppoly`, every row read at every s."""
    return QPoly(_p_dense(m1, m2, m3, s, parity))


@lru_cache(maxsize=None)
def _p_dense(m1, m2, m3, s, parity):
    # dense coefficients from q^0; no base has s < 1, as every row lowers s
    if min(m1, m2, m3) < 0 or s < 1 or (parity and not m2):
        return ()
    if not parity and m1 == m2 == m3 == 0:
        return (1,) if s == 1 else ()
    m = s - 1
    if parity:  # a consecutive pair [m, m+1]
        return _shifted_sum(
            2 * m + 1,
            _p_dense(m1, m2 - 1, m3, s - 1, 0),
            _p_dense(m1, m2 - 1, m3, s - 1, 1),
            _p_dense(m1, m2 - 1, m3, s - 2, 1),
        )
    pair = _shifted_sum(  # a repeating pair [m, m]
        2 * m,
        _p_dense(m1 - 1, m2, m3, s - 1, 0),
        _p_dense(m1 - 1, m2, m3, s - 2, 0),
        _p_dense(m1 - 1, m2, m3, s - 2, 1),
    )
    block = _shifted_sum(  # a block [m-3, m-2], m-2, [m, m]
        5 * m - 7,
        _p_dense(m1, m2, m3 - 1, s - 4, 0),
        _p_dense(m1, m2, m3 - 1, s - 4, 1),
        _p_dense(m1, m2, m3 - 1, s - 5, 1),
    )
    return _shifted_sum(0, pair, block)


def _shifted_sum(exp, *polys):
    """q^exp times the sum of the dense ``polys``; () if they are all zero."""
    width = max(map(len, polys))
    if not width:
        return ()
    assert exp >= 0, "negative exponent against a nonzero child"
    out = [0] * (exp + width)
    for poly in polys:
        for e, c in enumerate(poly):
            out[exp + e] += c
    return tuple(out)
