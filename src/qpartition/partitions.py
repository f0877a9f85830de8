"""Partitions, class rules, and the brute-force counting oracle.

A partition is a plain non-decreasing tuple of positive integers.
``as_parts`` validates any iterable of parts and is the one check of parts
from outside; ``parse_parts`` reads the comma-separated text form the CLI
takes, e.g. ``1,4,4,5``.  ``check_kr``/``kr_member`` and
``check_at_most_twice``/``has_triple`` are checked/unchecked pairs: the first
runs ``as_parts`` on outside input, the second takes parts already valid.
The three restricted classes share conditions (a)-(c) and differ in one
initial condition (d):

    (a) no two adjacent parts differ by exactly 1;
    (b) no odd value occurs twice;
    (c) in any window (p_i, p_{i+1}, p_{i+2}): if the middle part is even and
        occurs more than once in the whole partition, then
        p_{i+2} - p_i >= 4;
    (d) variant D:   2+2 never occurs;
        variant D':  no part equals 1;
        variant D'': no part lies in {1, 2, 3}.

Each family has one prefix rule ``admits(parts)``, true iff the last part
of the sorted ``parts`` may follow the parts before it; it reads only
``parts[-3:]``.  That decides membership one part at a time because no
condition looks more than two parts back: in sorted parts a value repeats
only next to itself, so a (c) window's middle part repeats iff it equals a
neighbour inside the window, and the smallest part is the first.

``brute_series`` turns a prefix rule into a bivariate counting series and is
the enumeration oracle every generating-function identity in this package
is checked against.  It is one depth-first walk: parts are appended in
non-decreasing order, and each node the rule admits (weight <= max_q,
length <= max_t) is counted where it is found, so one pass covers every
weight.  The walk enters a node only when a further part fits, so most
nodes, the leaves, cost no call of their own; ``admits`` still sees the
same prefixes in the same order as a walk that enters every node.
"""

from __future__ import annotations

import operator
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .series import BiSeries, check_ints, check_window

Rule = Callable[[tuple[int, ...]], bool]


class KrVariant(Enum):
    """Which initial condition completes conditions (a)-(c)."""

    D = "d"
    DPRIME = "d'"
    DPRIMEPRIME = "d''"

    @classmethod
    def from_label(cls, label: str) -> "KrVariant":
        try:
            return _VARIANT_LABELS[str(label).strip().lower()]
        except KeyError:
            raise ValueError("unknown variant %r (use 1, 2 or 3)" % (label,)) from None

    @property
    def index(self) -> int:
        return _VARIANT_INDEX[self]


_VARIANT_INDEX = {KrVariant.D: 1, KrVariant.DPRIME: 2, KrVariant.DPRIMEPRIME: 3}
# each variant under its value and its index, as the CLI spells them
_VARIANT_LABELS = {key: v for v, i in _VARIANT_INDEX.items() for key in (v.value, str(i))}


def as_parts(p) -> tuple[int, ...]:
    """The parts of an iterable as a tuple, checked in one pass: each part is
    exactly an ``int`` (a ``bool`` or other subclass is refused, as in
    `series.check_ints`) and at least 1, and the parts never decrease."""
    try:
        parts = tuple(p)
    except TypeError:
        raise ValueError("%r is not a sequence of parts" % (p,)) from None
    prev = 1
    for x in parts:
        if type(x) is not int:
            raise ValueError("part %r is not an integer" % (x,))
        if x < prev:
            if x < 1:
                raise ValueError("part %d must be >= 1: %s" % (x, parts))
            raise ValueError("parts must be non-decreasing: %s" % (parts,))
        prev = x
    return parts


def parse_ints(text: str, name: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers; ``name`` labels the error."""
    if not isinstance(text, str):
        raise ValueError("cannot parse %s %r: not a str" % (name, text))
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError("cannot parse %s %r" % (name, text)) from None


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse the comma-separated form of a partition, e.g. ``1,4,4,5``."""
    return as_parts(parse_ints(text, "partition"))


def format_parts(parts: Iterable[int]) -> str:
    return ",".join(str(x) for x in parts)


def _prefix_rule(low: int, barred: int) -> Rule:
    """The prefix rule of a class with smallest part ``low`` whose (d) bars
    ``barred`` + ``barred`` (0 for none)."""

    def admits(parts: tuple[int, ...]) -> bool:
        x = parts[-1]
        if len(parts) == 1:
            return x >= low  # (d)
        last = parts[-2]
        if x == last:  # (b), (d), and (c) on (before, x, x), a third copy too
            return not (x % 2 or x == barred or len(parts) > 2 and x - parts[-3] < 4)
        # (a), and (c) on (last, last, x)
        return x != last + 1 and (len(parts) < 3 or parts[-3] != last or x - last >= 4)

    return admits


# one rule per class, built once: D bars 2+2, D' parts below 2, D'' parts below 4
_KR_RULES = {
    KrVariant.D: _prefix_rule(1, 2),
    KrVariant.DPRIME: _prefix_rule(2, 0),
    KrVariant.DPRIMEPRIME: _prefix_rule(4, 0),
}


def check_variant(variant) -> None:
    """Raise ValueError, naming the value, unless ``variant`` is a KrVariant:
    the one check of a variant, made by every class route and seed entry."""
    if not isinstance(variant, KrVariant):
        raise ValueError("variant %r is not a KrVariant" % (variant,))


def kr_rule(variant: KrVariant) -> Rule:
    """The prefix rule of the class named by ``variant``: True iff the last
    part of the sorted, zero-free ``parts`` may follow the parts before it.
    The rule reads only ``parts[-3:]`` and validates nothing; the lookup
    refuses a ``variant`` that is not a KrVariant (`check_variant`)."""
    try:
        return _KR_RULES[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        check_variant(variant)
        raise


def check_kr(p, variant: KrVariant) -> bool:
    """True iff the partition lies in the class named by ``variant``."""
    return kr_member(as_parts(p), variant)


def kr_member(parts: tuple[int, ...], variant: KrVariant) -> bool:
    """`check_kr` on parts already valid (unchecked): the rule admits every window."""
    heads = (parts[:1], parts[:2])[: len(parts)]
    return all(map(kr_rule(variant), chain(heads, zip(parts, parts[1:], parts[2:]))))


def check_at_most_twice(p) -> bool:
    """True iff every value has multiplicity <= 2."""
    return not has_triple(as_parts(p))


def has_triple(parts: tuple[int, ...]) -> bool:
    """True iff some value of the sorted parts appears three times or more
    (unchecked: the parts must already be sorted)."""
    return any(map(operator.eq, parts, parts[2:]))


def at_most_twice_rule(parts: tuple[int, ...]) -> bool:
    """The prefix rule of the at-most-twice class: the last part of the
    sorted ``parts`` is not a third copy (unchecked, like ``has_triple``)."""
    return len(parts) < 3 or parts[-3] != parts[-1]


def iter_partitions(n: int, max_len: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-decreasing tuples, lexicographic order: the
    unpruned enumeration the tests hold ``brute_series`` to.  ``n`` and
    ``max_len`` must be ints, neither negative."""
    limit = n if max_len is None else max_len
    check_ints(n=n, max_len=limit)
    if n < 0 or limit < 0:
        raise ValueError("weight and length must be >= 0")

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


def brute_series(admits: Rule, max_q: int, max_t: int) -> BiSeries:
    """Counting series sum_{n,m} #{partitions of n into m parts} q^n t^m over
    the partitions whose every nonempty prefix ``admits`` passes.

    Each admitted node is counted where its parent's loop finds it, and
    entered only when a further part fits: it is shorter than ``max_t`` and
    its weight plus its last part again is at most ``max_q`` (every later
    part is at least that last part).  A node that fails either test would
    loop over no candidate, so ``admits`` sees the same prefixes, in the same
    order, as a walk that enters every admitted node."""
    check_window(max_q, max_t)
    if not callable(admits):
        raise ValueError("admits=%r is not callable" % (admits,))
    rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
    rows[0][0] = 1  # the empty partition

    def visit(parts: tuple[int, ...], weight: int) -> None:
        row = rows[len(parts) + 1]
        deeper = len(parts) + 1 < max_t
        for x in range(parts[-1] if parts else 1, max_q - weight + 1):
            child = parts + (x,)
            if admits(child):
                row[weight + x] += 1
                if deeper and weight + 2 * x <= max_q:
                    visit(child, weight + x)

    if max_t:
        visit((), 0)
    return BiSeries._wrap(max_q, max_t, rows)
