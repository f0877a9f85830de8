"""Partitions, class predicates, and brute-force counting oracles.

A partition is a plain non-decreasing tuple of positive integers.
``as_parts`` validates any iterable of parts and is the one check of parts
from outside; ``parse_parts`` reads the comma-separated text form the CLI
takes, e.g. ``1,4,4,5``.
The three restricted classes share conditions (a)-(c) and differ in one
initial condition:

    (a) no two adjacent parts differ by exactly 1;
    (b) no odd value occurs twice;
    (c) in any window (p_i, p_{i+1}, p_{i+2}): if the middle part is even and
        occurs more than once in the whole partition, then
        p_{i+2} - p_i >= 4;
    variant D:            2+2 never occurs;
    variant D':           no part equals 1;
    variant D'':          no part lies in {1, 2, 3}.

``brute_series`` turns any predicate into a bivariate counting series and is
the enumeration oracle every generating-function identity in this package is
checked against.  It is one depth-first walk: parts are appended in
non-decreasing order, every node (weight <= max_q, length <= max_t) is a
partition, and each node the predicate accepts is counted, so one pass
covers every weight.  An optional prefix rule ``extends(parts, x)`` skips
the subtree below ``parts + (x,)``; it must return False only when no
partition in that subtree satisfies the predicate.  The predicate still
decides every counted partition, so a wrong prefix rule can only lose
partitions, never add one.  ``iter_partitions`` is the unpruned enumeration
the prefix rules are tested against.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

from .series import BiSeries


class KrVariant(Enum):
    """Which initial condition completes conditions (a)-(c)."""

    D = "d"
    DPRIME = "d'"
    DPRIMEPRIME = "d''"

    @classmethod
    def from_label(cls, label: str) -> "KrVariant":
        table = {
            "1": cls.D,
            "2": cls.DPRIME,
            "3": cls.DPRIMEPRIME,
            "d": cls.D,
            "d'": cls.DPRIME,
            "d''": cls.DPRIMEPRIME,
        }
        try:
            return table[str(label).strip().lower()]
        except KeyError:
            raise ValueError("unknown variant %r (use 1, 2 or 3)" % (label,)) from None

    @property
    def index(self) -> int:
        return {"d": 1, "d'": 2, "d''": 3}[self.value]


def as_parts(p) -> tuple[int, ...]:
    """The parts of an iterable as a tuple, checked in one pass: each part is
    an ``int`` (not a ``bool``) and at least 1, and the parts never decrease.
    """
    parts = tuple(p)
    prev = 1
    for x in parts:
        if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
            raise ValueError("part %r is not an integer" % (x,))
        if x < prev:
            if x < 1:
                raise ValueError("part %d must be >= 1: %s" % (x, parts))
            raise ValueError("parts must be non-decreasing: %s" % (parts,))
        prev = x
    return parts


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse the comma-separated form of a partition, e.g. ``1,4,4,5``."""
    text = text.strip()
    if not text:
        return ()
    try:
        ints = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError("cannot parse partition %r" % text) from None
    return as_parts(ints)


def format_parts(parts: Iterable[int]) -> str:
    return ",".join(str(x) for x in parts)


def check_kr(p, variant: KrVariant) -> bool:
    """True iff the partition lies in the class named by ``variant``."""
    parts = as_parts(p)
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


def check_at_most_twice(p) -> bool:
    """True iff every value has multiplicity <= 2."""
    parts = as_parts(p)
    return not has_triple(parts)


def has_triple(parts: tuple[int, ...]) -> bool:
    """True iff some value of the sorted parts appears three times or more
    (unchecked: the parts must already be sorted)."""
    return any(a == b for a, b in zip(parts, parts[2:]))


def iter_partitions(n: int, max_len: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-decreasing tuples, lexicographic order."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    limit = n if max_len is None else max_len

    def gen(remaining: int, min_part: int, room: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if room == 0 or min_part > remaining:
            return
        for first in range(min_part, remaining + 1):
            for rest in gen(remaining - first, first, room - 1):
                yield (first,) + rest

    return gen(n, 1, limit)


def brute_series(
    pred: Callable[[tuple[int, ...]], bool],
    max_q: int,
    max_t: int,
    extends: Optional[Callable[[tuple[int, ...], int], bool]] = None,
) -> BiSeries:
    """Counting series sum_{n,m} #{partitions of n into m parts, pred} q^n t^m.

    The walk enters ``parts + (x,)`` only when ``extends(parts, x)`` holds
    (see the module docstring for what a prefix rule may skip).
    """
    if max_q < 0 or max_t < 0:
        raise ValueError("max_q and max_t must be >= 0")
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]

    def visit(parts: tuple[int, ...], weight: int) -> None:
        if pred(parts):
            rows[len(parts)][weight] += 1
        if len(parts) == max_t:
            return
        for x in range(parts[-1] if parts else 1, max_q - weight + 1):
            if extends is None or extends(parts, x):
                visit(parts + (x,), weight + x)

    visit((), 0)
    return BiSeries._wrap(max_q, max_t, rows)
