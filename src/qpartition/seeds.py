"""Seed-partition transforms.

Every class partition is reached from a unique *seed*: rewrite each adjacent
pair of equal even parts (2k)+(2k) as the consecutive odd parts
(2k-1)+(2k+1).  Against the odd staircase beta = 1,3,5,...,2m-1 the seed
leaves a difference partition mu (zeros allowed); maximal runs of one
non-zero even mu-value with even multiplicity are the *toggle groups*, and
flipping any subset of the groups back to repeated evens enumerates the whole
class -- 2^e partitions for e groups.

Variant quirks at the bottom end:

* D: a leading run of mu-zeros (seed starting 1,3,5,...) is left alone;
  rewriting 1+3 into 2+2 is exactly what condition (d) forbids.
* D': the seed may start 1,3,... even though 1 is banned in the class; the
  leading zero run must have even length and is rewritten pairwise
  (1,3 -> 2,2; 5,7 -> 6,6; ...) in every output.
* D'': classes are the D' classes shifted up by 2 per part, so the mandatory
  run is the leading mu-value-2 run (seed starting 3,5,...), rewritten the
  same way; higher even-valued groups stay optional.

The seeds of a class, each counted a^e for its e toggle groups, have the
generating function `genfun.kr_marker`; at a = 2 each seed counts its 2^e
partitions, so this is the class series.
"""

from __future__ import annotations

import operator
from itertools import groupby
from typing import NamedTuple

from .partitions import KrVariant, as_parts, check_variant, kr_member
from .series import check_ints


def staircase(m: int) -> tuple[int, ...]:
    """The base partition 1, 3, 5, ..., 2m-1."""
    check_ints(m=m)
    return tuple(range(1, 2 * m, 2))


class SeedGroup(NamedTuple):
    """A toggleable run mu[start:stop] of one even value (even multiplicity)."""

    start: int
    stop: int
    value: int


class SeedDecomposition(NamedTuple):
    """Seed split against the odd staircase: seed = base + mu, with groups."""

    seed: tuple[int, ...]
    base: tuple[int, ...]
    mu: tuple[int, ...]
    groups: tuple[SeedGroup, ...]
    forced_prefix: int  # leading mu entries rewritten unconditionally


def to_seed(p, variant: KrVariant) -> tuple[int, ...]:
    """Rewrite every repeated even pair (2k)+(2k) as (2k-1)+(2k+1).

    Requires a partition in the class; the result is sorted, has the same
    weight and length, and is a fixed point of this map.  One left-to-right
    pass suffices: by rule (c) a repeated even 2k has no other part within
    3 of it, so 2k-1, 2k+1 keep the order and form no new even pair.
    """
    parts = as_parts(p)
    if not kr_member(parts, variant):
        raise ValueError("not a class-%s partition: %s" % (variant.value, parts))
    out = list(parts)
    i = 0
    while i < len(out) - 1:
        if out[i] == out[i + 1] and out[i] % 2 == 0:
            out[i] -= 1
            out[i + 1] += 1
            i += 2
        else:
            i += 1
    return tuple(out)


def _is_seed_shape(parts: tuple[int, ...]) -> bool:
    """Fixed point of the even-pair rewrite with legally spaced parts: no
    two adjacent parts 1 apart, and no even part twice."""
    gaps = tuple(map(operator.sub, parts[1:], parts))
    if 1 in gaps:
        return False
    return 0 not in gaps or all(x % 2 for x, gap in zip(parts, gaps) if not gap)


# the mu value of each variant's mandatory leading run (module docstring)
_FORCED_VALUE = {KrVariant.D: None, KrVariant.DPRIME: 0, KrVariant.DPRIMEPRIME: 2}


def seed_decomposition(seed, variant: KrVariant) -> SeedDecomposition:
    """Validate a seed and locate its toggle groups.

    Raises ValueError when ``seed`` cannot be the seed of any partition in
    the class (negative mu, ill-shaped runs, odd mandatory runs, ...).
    """
    check_variant(variant)
    parts = as_parts(seed)
    if not _is_seed_shape(parts):
        raise ValueError("not a seed: %s" % (parts,))
    base = tuple(range(1, 2 * len(parts), 2))  # staircase(len(parts))
    mu = tuple(map(operator.sub, parts, base))
    if mu and min(mu) < 0:
        raise ValueError("seed lies below the odd staircase: %s" % (parts,))
    if any(map(operator.gt, mu, mu[1:])):
        raise ValueError("seed gaps out of order: %s" % (parts,))

    forced_value = _FORCED_VALUE[variant]
    forced_prefix = 0
    if mu and forced_value is not None and mu[0] == forced_value:
        forced_prefix = mu.count(forced_value)  # mu is sorted: the leading run
        if forced_prefix % 2 != 0:
            raise ValueError(
                "leading run of %d must have even length for variant %s: %s"
                % (forced_value, variant.value, parts)
            )

    groups = []
    i = forced_prefix
    for v, run in groupby(mu[forced_prefix:]):
        j = i + len(tuple(run))
        if v > 0 and v % 2 == 0 and (j - i) % 2 == 0:
            groups.append(SeedGroup(i, j, v))
        i = j
    return SeedDecomposition(parts, base, mu, tuple(groups), forced_prefix)


def _toggle(parts: list[int], start: int, stop: int) -> None:
    # (w, w+2) -> (w+1, w+1) pairwise over an even-length streak
    for r in range(start, stop, 2):
        v = parts[r]
        parts[r], parts[r + 1] = v + 1, v + 1


def expand_seed(seed, variant: KrVariant) -> list[tuple[int, ...]]:
    """All 2^e class partitions generated by a seed, sorted lexicographically.

    Every output is verified against ``kr_member``; a seed that generates any
    invalid partition is rejected as ill-formed.
    """
    dec = seed_decomposition(seed, variant)
    outputs = []
    e = len(dec.groups)
    for mask in range(1 << e):
        parts = list(dec.seed)
        if dec.forced_prefix:
            _toggle(parts, 0, dec.forced_prefix)
        for g_index in range(e):
            if mask >> g_index & 1:
                g = dec.groups[g_index]
                _toggle(parts, g.start, g.stop)
        candidate = tuple(sorted(parts))
        if not kr_member(candidate, variant):
            raise ValueError(
                "ill-formed seed %s: toggle produced %s outside the class"
                % (dec.seed, candidate)
            )
        outputs.append(candidate)
    if len(set(outputs)) != len(outputs):
        raise ValueError("ill-formed seed %s: duplicate expansions" % (dec.seed,))
    return sorted(outputs)
