"""Naive references the tests check the library against.

``check_kr_literal`` reads the class conditions (a)-(d) (see
`qpartition.partitions`) word for word over the whole partition, with a
multiplicity count, and shares no code with the library's prefix rule.
"""

from collections import Counter

from qpartition.partitions import KrVariant


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
