"""Backward/forward move bijection for partitions with parts at most twice.

Tagging.  Scanning a sorted partition left to right, two adjacent unbound
parts differing by at most 1 bind into a *pair* (repeating [k,k] or
consecutive [k,k+1]); leftmost parts pair first.  Unbound parts are
*singletons*.  Tagging is a pure function of the part multiset.  `tag`
validates outside input; a move checks only the multiplicities of the
multiset it rewrites and re-tags that multiset greedily from scratch.

Backward moves.  A pair rewrites [k,k+1] -> [k-1,k-1] or [k,k] -> [k-2,k-1],
dropping the weight by exactly 3.  The move is legal iff

  (i)   the rewritten parts stay >= 1,
  (ii)  no value reaches multiplicity 3 afterwards, and
  (iii) the rewritten low part does not fall strictly below the top part of
        the pair immediately beneath (pairs move through singletons, never
        through pairs).

Re-tagging realizes the regrouping: when a rewritten pair lands next to a
preceding singleton within distance 1, greedy pairing absorbs the singleton
and ejects the pair's top part.  Configurations that look stuck for other
reasons (an immobile singleton wedged before a repeating pair, and the
undrawn variants thereof) are all caught by the same predicate; there is no
case table in the code.

Decomposition.  Pairs are driven to their blocked position smallest-first,
recording 3x(move count) in mu.  A singleton's role then follows from its
position, so nothing stores it: singletons before the last pair are
*immobile* and the trailing ones *moveable*.  The moveables slide down
(weight -1 per step) onto the staircase k+1, k+3, ..., k+2*n12-1 above the
largest pair index k, recording their offsets in theta (immobile singletons
contribute forced zeros).  Composition inverts everything:
theta is added back largest-to-largest, then pairs move forward
([k-1,k-1] -> [k,k+1], [k-2,k-1] -> [k,k]) largest-first, where a pair with
a singleton right behind its top regroups (a,[b,s] for [a,b],s) before
moving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .partitions import as_parts, check_at_most_twice, has_triple


@dataclass(frozen=True)
class Pair:
    lo: int
    hi: int

    def __post_init__(self):
        if self.hi - self.lo not in (0, 1):
            raise ValueError("pair parts must be equal or consecutive")

    @property
    def repeating(self) -> bool:
        return self.hi == self.lo

    @property
    def parity(self) -> int:
        """0 for [k,k], 1 for [k,k+1]."""
        return self.hi - self.lo

    def __str__(self) -> str:
        return "[%d,%d]" % (self.lo, self.hi)


@dataclass(frozen=True)
class Singleton:
    value: int

    def __str__(self) -> str:
        return str(self.value)


Item = Union[Pair, Singleton]


class TaggedPartition:
    """A partition together with its greedy pair/singleton structure."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Item]):
        object.__setattr__(self, "items", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("TaggedPartition is immutable")

    @property
    def parts(self) -> tuple[int, ...]:
        out = []
        for it in self.items:
            if isinstance(it, Pair):
                out.append(it.lo)
                out.append(it.hi)
            else:
                out.append(it.value)
        return tuple(out)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def pairs(self) -> list[Pair]:
        return [it for it in self.items if isinstance(it, Pair)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaggedPartition):
            return NotImplemented
        return self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __str__(self) -> str:
        return ",".join(str(it) for it in self.items)

    def __repr__(self) -> str:
        return "TaggedPartition(%s)" % self


def tag(p) -> TaggedPartition:
    """Greedy leftmost tagging of an at-most-twice partition."""
    parts = as_parts(p)
    if parts and parts[0] < 1:
        raise ValueError("parts must be >= 1")
    if has_triple(parts):
        raise ValueError("some part appears more than twice: %s" % (parts,))
    return _greedy(parts)


def _greedy(parts) -> TaggedPartition:
    """Leftmost pairing of sorted parts already known to be valid."""
    items: list[Item] = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts) and parts[i + 1] - parts[i] <= 1:
            items.append(Pair(parts[i], parts[i + 1]))
            i += 2
        else:
            items.append(Singleton(parts[i]))
            i += 1
    return TaggedPartition(items)


def parse_structure(text: str) -> TaggedPartition:
    """Parse the bracket form ``[1,2],[3,4],4,[6,6]`` (or plain parts)."""
    text = text.replace(" ", "")
    if "[" not in text:
        from .partitions import Partition

        return tag(Partition.parse(text).parts)
    items: list[Item] = []
    i = 0
    while i < len(text):
        if text[i] == ",":
            i += 1
            continue
        if text[i] == "[":
            j = text.index("]", i)
            lo, hi = (int(tok) for tok in text[i + 1 : j].split(","))
            items.append(Pair(lo, hi))
            i = j + 1
        else:
            j = i
            while j < len(text) and text[j] != ",":
                j += 1
            items.append(Singleton(int(text[i:j])))
            i = j
    tp = TaggedPartition(items)
    if tag(sorted(tp.parts)) != tp:
        raise ValueError("structure %r is not the greedy tagging of its parts" % text)
    return tp


def _pair_positions(tp: TaggedPartition) -> list[int]:
    return [i for i, it in enumerate(tp.items) if isinstance(it, Pair)]


def _rebuilt(tp: TaggedPartition, drop: tuple[int, int], put: tuple[int, int]):
    """Tagging after replacing the two dropped values; None if mult > 2."""
    parts = list(tp.parts)
    parts.remove(drop[0])
    parts.remove(drop[1])
    parts.extend(put)
    parts.sort()
    return None if has_triple(parts) else _greedy(parts)


def _check_stability(old: TaggedPartition, new: TaggedPartition, pair_index: int) -> None:
    old_pairs, new_pairs = old.pairs(), new.pairs()
    if len(old_pairs) != len(new_pairs):
        raise AssertionError(
            "move changed the pair count: %s -> %s" % (old, new)
        )
    if old_pairs[:pair_index] != new_pairs[:pair_index]:
        raise AssertionError(
            "move disturbed a finalized pair: %s -> %s" % (old, new)
        )


def backward_move(
    tp: TaggedPartition, pair_index: int, trace: Optional[list] = None
) -> Optional[TaggedPartition]:
    """One weight-3 backward move on the pair with the given ordinal.

    Returns the re-tagged partition, or None when the move is blocked.
    """
    positions = _pair_positions(tp)
    if not (0 <= pair_index < len(positions)):
        raise ValueError("no pair with index %d in %s" % (pair_index, tp))
    pair = tp.items[positions[pair_index]]
    if pair.repeating:
        put = (pair.lo - 2, pair.lo - 1)
    else:
        put = (pair.lo - 1, pair.lo - 1)
    if put[0] < 1:
        return None
    if pair_index > 0:
        below = tp.items[positions[pair_index - 1]]
        if put[0] < below.hi:
            return None  # pairs do not move through pairs
    new_tp = _rebuilt(tp, (pair.lo, pair.hi), put)
    if new_tp is None:
        return None
    _check_stability(tp, new_tp, pair_index)
    if trace is not None:
        moved = new_tp.pairs()[pair_index]
        trace.append(
            {
                "op": "backward",
                "pair": [pair.lo, pair.hi],
                "result": [put[0], put[1]],
                "regroup": (moved.lo, moved.hi) != put,
            }
        )
    return new_tp


def forward_move(
    tp: TaggedPartition, pair_index: int, trace: Optional[list] = None
) -> TaggedPartition:
    """One weight+3 forward move on the pair with the given ordinal.

    Regroups first when a singleton trails the pair within distance 1.
    Raises ValueError when the move would push some value past multiplicity
    2 (which signals a malformed decomposition triple).
    """
    positions = _pair_positions(tp)
    if not (0 <= pair_index < len(positions)):
        raise ValueError("no pair with index %d in %s" % (pair_index, tp))
    pos = positions[pair_index]
    pair = tp.items[pos]
    moving = (pair.lo, pair.hi)
    regrouped = False
    nxt = tp.items[pos + 1] if pos + 1 < len(tp.items) else None
    if isinstance(nxt, Singleton) and nxt.value - pair.hi <= 1:
        moving = (pair.hi, nxt.value)  # a,[b,s] regrouping; pair.lo stays behind
        regrouped = True
    if moving[0] == moving[1]:
        put = (moving[0] + 1, moving[0] + 2)
    else:
        put = (moving[1] + 1, moving[1] + 1)
    new_tp = _rebuilt(tp, moving, put)
    if new_tp is None:
        raise ValueError(
            "forward move on %s of %s would repeat a part more than twice"
            % (Pair(*moving), tp)
        )
    _check_stability(tp, new_tp, pair_index)
    if trace is not None:
        trace.append(
            {
                "op": "forward",
                "pair": [moving[0], moving[1]],
                "result": [put[0], put[1]],
                "regroup": regrouped,
            }
        )
    return new_tp


@dataclass(frozen=True)
class Decomposition:
    """The bijection image (base, mu, theta); the counts follow from the base."""

    base: TaggedPartition
    mu: tuple[int, ...]
    theta: tuple[int, ...]

    @property
    def n2(self) -> int:
        """Number of pairs."""
        return len(self.base.pairs())

    @property
    def n12(self) -> int:
        """Number of moveable singletons: those after the last pair."""
        return len(self.base.items) - _past_last_pair(self.base)

    @property
    def n11(self) -> int:
        """Number of immobile singletons: those before the last pair."""
        return len(self.base.items) - self.n2 - self.n12

    @property
    def base_weight(self) -> int:
        return self.base.weight

    @property
    def mu_weight(self) -> int:
        return sum(self.mu)

    @property
    def theta_weight(self) -> int:
        return sum(self.theta)

    @property
    def total_weight(self) -> int:
        return self.base_weight + self.mu_weight + self.theta_weight


def _past_last_pair(tp: TaggedPartition) -> int:
    """Index just past the last pair (0 without pairs): the singletons before
    it are immobile, the ones from it on moveable."""
    positions = _pair_positions(tp)
    return positions[-1] + 1 if positions else 0


def _largest_pair_lo(tp: TaggedPartition) -> int:
    pairs = tp.pairs()
    return pairs[-1].lo if pairs else 0


def decompose(p, trace: Optional[list] = None) -> Decomposition:
    """Drive every pair to its blocked position, then stow the singletons."""
    tp = tag(p)
    mu = []
    for i in range(len(tp.pairs())):
        count = 0
        while True:
            nxt = backward_move(tp, i, trace)
            if nxt is None:
                break
            tp = nxt
            count += 1
        mu.append(3 * count)

    end = _past_last_pair(tp)
    k = _largest_pair_lo(tp)
    base_items = list(tp.items[:end])
    theta = [0] * (end - len(mu))  # forced zeros for the immobile singletons
    for rank, it in enumerate(tp.items[end:], start=1):
        s, target = it.value, k + 2 * rank - 1
        if s < target:
            raise AssertionError("moveable singleton %d below its slot %d" % (s, target))
        theta.append(s - target)
        if trace is not None and s != target:
            trace.append({"op": "backward", "singleton": s, "result": target})
        base_items.append(Singleton(target))
    base = TaggedPartition(base_items)
    if tag(sorted(base.parts)) != base:
        raise AssertionError("stowing singletons disturbed the structure: %s" % base)
    return Decomposition(base, tuple(mu), tuple(theta))


def is_base(p) -> bool:
    """No pair can move backward and every moveable singleton sits in its slot."""
    d = decompose(p)
    return all(x == 0 for x in d.mu) and all(x == 0 for x in d.theta)


def make_decomposition(base, mu, theta) -> Decomposition:
    """Validate and assemble a (base, mu, theta) triple.

    ``base`` may be parts or a TaggedPartition; mu/theta are sequences.
    Raises ValueError on any broken invariant.
    """
    if isinstance(base, TaggedPartition):
        base_parts = tuple(sorted(base.parts))
        if tag(base_parts) != base:
            raise ValueError("structure %s is not the greedy tagging of its parts" % base)
    else:
        base_parts = as_parts(base)
    d0 = decompose(base_parts)
    if any(x != 0 for x in d0.mu) or any(x != 0 for x in d0.theta):
        raise ValueError("not a base partition: %s" % (base_parts,))
    mu = tuple(int(x) for x in mu)
    theta = tuple(int(x) for x in theta)
    if len(mu) != d0.n2:
        raise ValueError("mu must have %d parts, got %d" % (d0.n2, len(mu)))
    if any(x < 0 or x % 3 for x in mu):
        raise ValueError("mu parts must be non-negative multiples of 3: %s" % (mu,))
    if any(mu[i] > mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError("mu must be non-decreasing: %s" % (mu,))
    n1 = len(d0.theta)
    if len(theta) != n1:
        raise ValueError("theta must have %d parts, got %d" % (n1, len(theta)))
    if any(x < 0 for x in theta):
        raise ValueError("theta parts must be >= 0: %s" % (theta,))
    if any(theta[i] > theta[i + 1] for i in range(len(theta) - 1)):
        raise ValueError("theta must be non-decreasing: %s" % (theta,))
    if any(theta[i] != 0 for i in range(d0.n11)):
        raise ValueError(
            "theta needs at least %d zeros for the immobile singletons: %s"
            % (d0.n11, (theta,))
        )
    return Decomposition(d0.base, mu, theta)


def compose(d: Decomposition, trace: Optional[list] = None) -> tuple[int, ...]:
    """Rebuild the unique at-most-twice partition from a valid triple."""
    d = make_decomposition(d.base, d.mu, d.theta)

    # forward moves on moveable singletons: i-th largest theta part onto the
    # i-th largest singleton (the trailing ones; the rest of theta is zero)
    items = list(d.base.items)
    moveable_pos = range(len(items) - 1, _past_last_pair(d.base) - 1, -1)
    for pos, t in zip(moveable_pos, reversed(d.theta)):
        s = items[pos].value
        if t:
            if trace is not None:
                trace.append({"op": "forward", "singleton": s, "result": s + t})
            items[pos] = Singleton(s + t)
    tp = tag(sorted(TaggedPartition(items).parts))
    if len(tp.pairs()) != d.n2:
        raise ValueError("theta placement broke the pair structure")

    # forward moves on pairs, largest pair first with the largest mu part
    for idx in reversed(range(d.n2)):
        for _ in range(d.mu[idx] // 3):
            tp = forward_move(tp, idx, trace)
    out = tuple(sorted(tp.parts))
    if not check_at_most_twice(out):
        raise AssertionError("composition left the at-most-twice class: %s" % (out,))
    if sum(out) != d.total_weight:
        raise AssertionError("composition lost weight: %s" % (out,))
    return out


@dataclass(frozen=True)
class BaseRecord:
    """One enumerated base structure (moveable singletons excluded)."""

    structure: TaggedPartition

    @property
    def weight(self) -> int:
        return self.structure.weight

    @property
    def largest_pair_index(self) -> int:
        """The m of the largest pair [m,m] / [m,m+1]; 0 for the empty base."""
        return _largest_pair_lo(self.structure)

    @property
    def parity(self) -> int:
        """0 repeating, 1 consecutive (0 for the empty base)."""
        pairs = self.structure.pairs()
        return pairs[-1].parity if pairs else 0


def enumerate_bases(m1: int, m2: int, m3: int, max_weight: int) -> list[BaseRecord]:
    """All bases with m1 repeating pairs, m2 consecutive pairs, m3 blocks.

    A block is the locked five-part shape [k-1,k], k, [k+2,k+2].  Structures
    carry no moveable singletons; every pair must admit no backward move.
    Output is sorted by (weight, parts) and deterministic.
    """
    if min(m1, m2, m3) < 0:
        raise ValueError("counts must be >= 0")
    if max_weight < 0:
        return []
    results: list[BaseRecord] = []

    def item_candidates(kind: str, last: int):
        # any item placed further than +3 above the prefix can always move
        # backward, so the blocked check prunes it; the window is generous
        lo = max(1, last)
        for v in range(lo, last + 5):
            if kind == "r":
                yield (v, v), [Pair(v, v)]
            elif kind == "c":
                yield (v, v + 1), [Pair(v, v + 1)]
            elif v >= 2:
                yield (
                    (v - 1, v, v, v + 2, v + 2),
                    [Pair(v - 1, v), Singleton(v), Pair(v + 2, v + 2)],
                )

    def dfs(parts: tuple[int, ...], items: tuple[Item, ...], r1: int, r2: int, r3: int):
        if r1 == r2 == r3 == 0:
            # every prefix was tagged and checked when its items arrived
            results.append(BaseRecord(TaggedPartition(items)))
            return
        last = parts[-1] if parts else 0
        weight = sum(parts)
        for kind, rest in (("r", (r1 - 1, r2, r3)), ("c", (r1, r2 - 1, r3)), ("b", (r1, r2, r3 - 1))):
            if min(rest) < 0:
                continue
            for new_parts, new_items in item_candidates(kind, last):
                if new_parts[0] < last or weight + sum(new_parts) > max_weight:
                    continue
                cand_parts = parts + new_parts
                if has_triple(cand_parts):
                    continue
                # prefix tagging is stable: every item ends in a pair
                tp = TaggedPartition(items + tuple(new_items))
                if _greedy(cand_parts) != tp:
                    continue
                # whether a pair can move backward depends only on the parts
                # up to its top, and every later item is at least `last`, so
                # a pair blocked now stays blocked; prune as soon as one moves
                npairs = len(tp.pairs())
                fresh = 2 if kind == "b" else 1
                if any(
                    backward_move(tp, i) is not None
                    for i in range(npairs - fresh, npairs)
                ):
                    continue
                dfs(cand_parts, tp.items, *rest)

    dfs((), (), m1, m2, m3)
    results.sort(key=lambda r: (r.weight, r.structure.parts))
    return results
