"""Seeded input generators, an independent class predicate, and digests.

Nothing here imports qpartition: the generators and the predicate are the
benchmark's own, so the library under test never shapes its inputs and the
membership check is an independent route.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

VARIANTS = ("1", "2", "3")  # kr1 (D), kr2 (D'), kr3 (D'')


def in_class(parts, variant: str) -> bool:
    """Membership in the class kr<variant>, written from the definitions.

    (a) no two adjacent parts differ by exactly 1; (b) no odd value twice;
    (c) a repeated even middle part needs its two neighbours 4 apart;
    kr1: 2+2 never occurs; kr2: no part 1; kr3: no part in {1, 2, 3}.
    """
    parts = list(parts)
    if parts != sorted(parts) or (parts and parts[0] < 1):
        return False
    counts = Counter(parts)
    if any(b - a == 1 for a, b in zip(parts, parts[1:])):
        return False
    if any(v % 2 and c > 1 for v, c in counts.items()):
        return False
    for a, mid, b in zip(parts, parts[1:], parts[2:]):
        if mid % 2 == 0 and counts[mid] > 1 and b - a < 4:
            return False
    if variant == "1":
        return counts[2] < 2
    if variant == "2":
        return counts[1] == 0
    return not (counts[1] or counts[2] or counts[3])


class AtMostTwiceSampler:
    """Uniform sampler for partitions of n whose parts appear at most twice.

    ``_count[k][n]`` is the number of such partitions of n with every part
    >= k; sampling walks k upward, choosing a multiplicity 0, 1 or 2 with
    probability proportional to the completions each choice leaves.
    """

    def __init__(self, max_weight: int):
        top = max_weight + 2
        self._count = [[0] * (max_weight + 1) for _ in range(top + 1)]
        for k in range(top, 0, -1):
            row, nxt = self._count[k], self._count[min(k + 1, top)]
            for n in range(max_weight + 1):
                if n == 0:
                    row[n] = 1
                elif k > n or k == top:
                    row[n] = 0
                else:
                    row[n] = nxt[n] + nxt[n - k] + (nxt[n - 2 * k] if 2 * k <= n else 0)

    def sample(self, rng: random.Random, n: int) -> tuple[int, ...]:
        parts: list[int] = []
        k = 1
        while n:
            nxt = self._count[k + 1]
            r = rng.randrange(self._count[k][n])
            for mult in (0, 1, 2):
                rest = n - mult * k
                ways = nxt[rest] if rest >= 0 else 0
                if r < ways:
                    break
                r -= ways
            parts.extend([k] * mult)
            n -= mult * k
            k += 1
        return tuple(parts)


def random_class_partition(rng: random.Random, variant: str, target: int) -> tuple[int, ...]:
    """A random kr<variant> partition of weight at most ``target``.

    Distinct values climb by gaps of 2..4 (rule (a)); even values are doubled
    at random, and a doubling survives only where both neighbouring values
    are at least 4 away (rule (c)) and the variant allows it.
    """
    v = {"1": 1, "2": 2, "3": 4}[variant] + rng.randrange(3)
    values: list[list[int]] = []
    weight = 0
    while weight + v <= target:
        mult = 2 if v % 2 == 0 and weight + 2 * v <= target and rng.random() < 0.4 else 1
        values.append([v, mult])
        weight += mult * v
        v += 2 + rng.randrange(3)
    for i, (v, mult) in enumerate(values):
        if mult == 2:
            lo_ok = i == 0 or v - values[i - 1][0] >= 4
            hi_ok = i == len(values) - 1 or values[i + 1][0] - v >= 4
            if not (lo_ok and hi_ok) or (variant == "1" and v == 2):
                values[i][1] = 1
    parts = tuple(x for v, mult in values for x in [v] * mult)
    if not in_class(parts, variant):
        raise AssertionError("generator produced a non-class partition %s" % (parts,))
    return parts


def digest(obj) -> str:
    """SHA-256 of the canonical JSON text of ``obj`` (first 16 hex digits)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
