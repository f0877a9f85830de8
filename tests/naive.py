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
