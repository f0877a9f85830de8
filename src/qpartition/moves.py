"""Backward/forward move bijection for partitions with parts at most twice.

Tagging.  Scanning a sorted partition left to right, two adjacent unbound
parts differing by at most 1 bind into a *pair* (repeating [k,k] or
consecutive [k,k+1]); leftmost parts pair first.  Unbound parts are
*singletons*.  Tagging is a pure function of the part multiset, so a
`TaggedPartition` stores only its sorted parts; the pair start indices are
derived from them by the greedy scan, and the bracket form
``[1,2],3,[5,5]`` is only printed and parsed.  ``TaggedPartition(p)`` checks
outside parts (`as_parts`, no triple); the partitions this module builds
itself are valid by construction and skip the check through `_tagged`.

Local moves.  A move writes two parts ``put`` over ``parts[j:j+2]`` of one
list, in place: the result is already sorted.  A backward move writes below
its pair but not below the pair beneath (rule (iii) below), and a singleton
right below the pair is at least 2 below its low part, or greedy pairing
would have bound the two.  A forward move first absorbs a trailing singleton
within 1 (the regroup below), so the part after it is a singleton at least 2
higher or a pair it must not pass.  Put's values lie on one side of the pair
with no value between, and no value appears thrice, so rule (ii) counts them
in the four parts next to the pair on that side.  Greedy tagging of a prefix
depends on that prefix alone, and the old scan is free at every index from
just past the pair beneath up to the pair above, except inside the moving
pair.  So the pairs below it are kept, and the scan restarts just below the
write and stops once it is free past the written parts.  With no triple in
the list it finds exactly one pair there and stops by index j+2, so it never
crosses the pair above: a forward put lies at least 2 above the part below
it and binds as a pair at j, and a backward put binds at j or lends its low
part to the singleton below, and then its top is at least 2 below the part
above the write.  The scan is back in step, and only the moving pair's start
changes; any other outcome trips an assertion.  While pair i moves, the
pairs below and above it stay put, so one kernel call per pair keeps its
floor, the scan's resume index and pair i+1's start in locals.  The one
kernel, `_run`, serves both directions: it moves the pair until blocked or
``limit`` moves, and its ``forward`` flag picks only the put rule (rules
(i)-(iii) through `_backward_put`, or the forward regroup and ValueErrors).
The order check (put between its neighbours), the write, the scan and the
trace event are shared.  A traced move records the pair before the write and
what was written; it regrouped iff the pair's start changed.

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
moving.  One constructor checks a triple: ``Decomposition(base, mu,
theta)`` runs `make_decomposition`, whose base check is one pass (every
pair's first backward move is blocked, in order, and the trailing
singletons sit on their staircase slots).  `decompose` builds its triple
valid and skips that check through `Decomposition._wrap`; it asserts on
every call that mu is non-decreasing, the one invariant not true by its
construction.  So `compose` trusts any `Decomposition`, refuses anything
else, and places theta without re-tagging.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .partitions import as_parts, has_triple, parse_ints
from .series import Frozen, check_ints


class TaggedPartition(Frozen):
    """Sorted parts and the start indices of their greedy pairs, derived here.

    Raises ValueError unless the parts pass `as_parts` with no triple.
    """

    __slots__ = ("parts", "starts")

    def __new__(cls, p) -> "TaggedPartition":
        parts = as_parts(p)
        if has_triple(parts):
            raise ValueError("some part appears more than twice: %s" % (parts,))
        return _tagged(parts)

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor
        return (TaggedPartition, (self.parts,))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def pairs(self) -> list[tuple[int, int]]:
        """The (lo, hi) spans of the pairs, smallest first."""
        return [(self.parts[i], self.parts[i + 1]) for i in self.starts]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaggedPartition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        items, parts, i = [], self.parts, 0
        for j in self.starts + (len(parts),):
            items.extend(str(x) for x in parts[i:j])
            if j < len(parts):
                items.append("[%d,%d]" % (parts[j], parts[j + 1]))
            i = j + 2
        return ",".join(items)

    def __repr__(self) -> str:
        return "TaggedPartition(%s)" % self


def _greedy_scan(parts) -> list:
    """The start indices of the greedy pairs of the sorted ``parts``."""
    starts, i, stop = [], 0, len(parts) - 1
    while i < stop:
        if parts[i + 1] - parts[i] <= 1:
            starts.append(i)
            i += 2
        else:
            i += 1
    return starts


def _tagged(parts) -> TaggedPartition:
    # Internal constructor: the module built ``parts`` valid, so only the scan runs
    parts = tuple(parts)
    return TaggedPartition._wrap(parts, tuple(_greedy_scan(parts)))


def parse_structure(text: str) -> TaggedPartition:
    """Parse the bracket form ``[1,2],[3,4],4,[6,6]`` (or plain parts)."""
    if not isinstance(text, str):
        raise ValueError("structure %r is not a string" % (text,))
    text = text.replace(" ", "")
    brackets = "".join(ch for ch in text if ch in "[]")
    if not brackets:
        return TaggedPartition(parse_ints(text, "partition"))
    if brackets != "[]" * (len(brackets) // 2):  # each [ closed before the next
        raise ValueError("structure %r has an unbalanced bracket" % text)
    try:
        tp = TaggedPartition(parse_ints(text.replace("[", "").replace("]", ""), "partition"))
    except ValueError as exc:
        raise ValueError("cannot parse structure %r: %s" % (text, exc)) from None
    if str(tp) != text:
        raise ValueError("structure %r is not the greedy tagging of its parts" % text)
    return tp


def _backward_put(parts, j: int, floor: int) -> Optional[tuple[int, int]]:
    """The parts a backward move writes over the pair at parts[j:j+2], or
    None when rules (i)-(iii) block it.  ``floor`` is the top part of the
    pair beneath, or 1 for the first pair, and ``parts`` holds no triple.
    The rewritten parts lie below the pair, so parts above it cannot matter."""
    lo = parts[j]
    put = (lo - 2, lo - 1) if lo == parts[j + 1] else (lo - 1, lo - 1)
    if put[0] < floor:  # (i), and (iii): pairs do not move through pairs
        return None
    # (ii): put's values differ from the pair's, so only they can reach 3,
    # and all their copies sit in the four parts below it (module docstring)
    window = parts[j - 4 : j] if j > 4 else parts[:j]
    if window.count(put[0]) + (put[0] == put[1]) > 1 or window.count(put[1]) > 1:
        return None
    return put


def _run(
    parts: list, starts: list, i: int, limit: float, forward: bool, trace: Optional[list]
) -> int:
    """Move pair i of ``(parts, starts)`` in place, forward (weight +3 each)
    or backward (weight -3 each), until it is blocked or has made ``limit``
    moves; return the count.  ``forward`` picks only the put rule: backward
    moves stop where `_backward_put` blocks them; a forward move regroups
    first when a singleton trails the pair within 1, and one that would put
    a value thrice or pass the pair above raises ValueError before writing."""
    n, count, op = len(parts), 0, "forward" if forward else "backward"
    floor, resume = (parts[starts[i - 1] + 1], starts[i - 1] + 2) if i else (1, 0)
    above = starts[i + 1] if i + 1 < len(starts) else n
    while count < limit:
        s = j = starts[i]
        if forward:
            # a,[b,s] regrouping when a singleton s trails [a,b]: a stays behind
            if j + 2 < n and parts[j + 2] - parts[j + 1] <= 1 and above != j + 2:
                j += 1
            a, b = parts[j], parts[j + 1]
            put = (a + 1, a + 2) if a == b else (b + 1, b + 1)
            # put's values differ from the pair's, so only they can reach 3, and
            # all their copies sit in the four parts above it (module docstring)
            window = parts[j + 2 : j + 6]
            if window.count(put[0]) + (put[0] == put[1]) > 1 or window.count(put[1]) > 1:
                raise ValueError(
                    "forward move on [%d,%d] of %s would repeat a part more than twice"
                    % (a, b, _tagged(parts))
                )
            if j + 2 < n and put[1] > parts[j + 2]:
                raise ValueError(
                    "forward move on [%d,%d] of %s would pass the pair above"
                    % (a, b, _tagged(parts))
                )
        else:
            put = _backward_put(parts, j, floor)
            if put is None:
                break
            a, b = parts[j], parts[j + 1]
        if (j and put[0] < parts[j - 1]) or (j + 2 < n and put[1] > parts[j + 2]):
            raise AssertionError(
                "move put %s out of order at index %d of %s" % (put, j, _tagged(parts))
            )
        parts[j], parts[j + 1] = put
        k, stop, found = (j - 1 if j > resume else resume), (j + 2 if j + 2 < n else n - 1), 0
        while k < stop:  # the greedy scan, restarted just below the write
            if parts[k + 1] - parts[k] <= 1:
                new, found = k, found + 1
                k += 2
            else:
                k += 1
        if j < resume or found != 1 or k > above:
            _unsynced(parts, j, resume, [a, b])
        starts[i] = new
        if trace is not None:
            trace.append({"op": op, "pair": [a, b], "result": list(put), "regroup": new != s})
        count += 1
    return count


def _unsynced(parts: list, j: int, resume: int, old: list):
    """Raise for a rescan that fell out of step with the old tagging."""
    what = "disturbed a finalized pair" if j < resume else "changed the pair count"
    before = _tagged(parts[:j] + old + parts[j + 2 :])
    raise AssertionError("move %s: %s -> %s" % (what, before, _tagged(parts)))


def _move_lists(tp, pair_index) -> tuple[list, list]:
    """``tp``'s parts and starts as new lists, after checking both arguments."""
    if not isinstance(tp, TaggedPartition):
        raise ValueError("%r is not a TaggedPartition" % (tp,))
    check_ints(pair_index=pair_index)
    if not (0 <= pair_index < len(tp.starts)):
        raise ValueError("no pair with index %d in %s" % (pair_index, tp))
    return list(tp.parts), list(tp.starts)


def backward_move(
    tp: TaggedPartition, pair_index: int, trace: Optional[list] = None
) -> Optional[TaggedPartition]:
    """One weight-3 backward move on the pair with the given ordinal.

    Returns the re-tagged partition, or None when the move is blocked.
    """
    parts, starts = _move_lists(tp, pair_index)
    return _tagged(parts) if _run(parts, starts, pair_index, 1, False, trace) else None


def forward_move(
    tp: TaggedPartition, pair_index: int, trace: Optional[list] = None
) -> TaggedPartition:
    """One weight+3 forward move on the pair with the given ordinal; see
    `_run` (with ``forward`` set) for the regroup and the ValueErrors."""
    parts, starts = _move_lists(tp, pair_index)
    _run(parts, starts, pair_index, 1, True, trace)
    return _tagged(parts)


class Decomposition(Frozen):
    """The bijection image (base, mu, theta); the counts follow from the base.

    ``Decomposition(base, mu, theta)`` checks the triple through
    `make_decomposition` (ValueError on any broken invariant); `decompose`
    builds its valid output through the unchecked ``Decomposition._wrap``.
    """

    __slots__ = ("base", "mu", "theta")

    def __new__(cls, base, mu, theta) -> "Decomposition":
        return make_decomposition(base, mu, theta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return (self.base, self.mu, self.theta) == (other.base, other.mu, other.theta)

    def __hash__(self) -> int:
        return hash((self.base, self.mu, self.theta))

    def __repr__(self) -> str:
        return "Decomposition(base=%r, mu=%r, theta=%r)" % (self.base, self.mu, self.theta)

    @property
    def n2(self) -> int:
        """Number of pairs."""
        return len(self.base.starts)

    @property
    def n12(self) -> int:
        """Number of moveable singletons: those after the last pair."""
        return len(self.base.parts) - _past_last_pair(self.base.starts)

    @property
    def n11(self) -> int:
        """Number of immobile singletons: those before the last pair."""
        return len(self.base.parts) - 2 * self.n2 - self.n12

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


def _past_last_pair(starts: tuple) -> int:
    """Index of the part just past the last pair (0 without pairs): the
    singletons before it are immobile, the ones from it on moveable."""
    return starts[-1] + 2 if starts else 0


def _largest_pair_lo(parts: tuple, starts: tuple) -> int:
    return parts[starts[-1]] if starts else 0


def decompose(p, trace: Optional[list] = None) -> Decomposition:
    """Drive every pair to its blocked position, then stow the singletons.

    The triple is valid by construction, so it skips the constructor's
    check (`make_decomposition`):

    - every pair stops exactly when `_backward_put` blocks it, and later
      pairs never write below it, so each base pair's first move is blocked;
    - the staircase and the immobile zeros of theta are built here;
    - theta is sorted because the trailing singletons are at least 2 apart
      and their slots exactly 2, and a singleton below its slot is asserted;
    - each mu entry is 3*count.

    That mu is non-decreasing is the one invariant not true by
    construction, so it is asserted on every call.
    """
    tp = TaggedPartition(p)
    parts, starts = list(tp.parts), list(tp.starts)
    mu = [3 * _run(parts, starts, i, math.inf, False, trace) for i in range(len(starts))]
    if mu != sorted(mu):
        raise AssertionError("mu came out decreasing: %s" % (tuple(mu),))

    end, k = _past_last_pair(starts), _largest_pair_lo(parts, starts)
    base_parts = parts[:end]
    theta = [0] * (end - 2 * len(mu))  # forced zeros for the immobile singletons
    for rank, s in enumerate(parts[end:], start=1):
        target = k + 2 * rank - 1
        if s < target:
            raise AssertionError("moveable singleton %d below its slot %d" % (s, target))
        theta.append(s - target)
        if trace is not None and s != target:
            trace.append({"op": "backward", "singleton": s, "result": target})
        base_parts.append(target)
    base = _tagged(base_parts)
    if base.starts != tuple(starts):
        raise AssertionError("stowing singletons disturbed the structure: %s" % base)
    return Decomposition._wrap(base, tuple(mu), tuple(theta))


def _int_tuple(name, xs) -> tuple[int, ...]:
    """``xs`` as a tuple of ints; ``name`` labels the error."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise ValueError("%s %r is not a sequence of integers" % (name, xs)) from None
    for x in xs:
        if type(x) is not int:
            raise ValueError("%s part %r is not an integer" % (name, x))
    return xs


def make_decomposition(base, mu, theta) -> Decomposition:
    """Validate and assemble a (base, mu, theta) triple: the check behind
    the `Decomposition` constructor.

    ``base`` may be parts or a TaggedPartition, which its constructor has
    checked; mu/theta are sequences of ints.  Raises ValueError on any
    broken invariant.
    """
    base = base if isinstance(base, TaggedPartition) else TaggedPartition(base)
    parts, starts = base.parts, base.starts
    # a base is its own decomposition: every pair's first backward move is
    # blocked, and the moveable singletons sit on the staircase
    end, k = _past_last_pair(starts), _largest_pair_lo(parts, starts)
    floor = 1
    for j in starts:
        if _backward_put(parts, j, floor) is not None:
            raise ValueError("not a base partition: %s" % (parts,))
        floor = parts[j + 1]
    if parts[end:] != tuple(range(k + 1, k + 2 * (len(parts) - end), 2)):
        raise ValueError("not a base partition: %s" % (parts,))
    mu, theta = _int_tuple("mu", mu), _int_tuple("theta", theta)
    n2 = len(starts)
    if len(mu) != n2:
        raise ValueError("mu must have %d parts, got %d" % (n2, len(mu)))
    for x in mu:
        if x < 0 or x % 3:
            raise ValueError("mu parts must be non-negative multiples of 3: %s" % (mu,))
    if mu != tuple(sorted(mu)):
        raise ValueError("mu must be non-decreasing: %s" % (mu,))
    n1 = len(parts) - 2 * n2
    if len(theta) != n1:
        raise ValueError("theta must have %d parts, got %d" % (n1, len(theta)))
    for x in theta:
        if x < 0:
            raise ValueError("theta parts must be >= 0: %s" % (theta,))
    if theta != tuple(sorted(theta)):
        raise ValueError("theta must be non-decreasing: %s" % (theta,))
    # theta is sorted and non-negative: its first n11 parts are 0 iff the last is
    n11 = end - 2 * n2
    if n11 and theta[n11 - 1]:
        raise ValueError(
            "theta needs at least %d zeros for the immobile singletons: %s"
            % (n11, theta)
        )
    return Decomposition._wrap(base, mu, theta)


def compose(d: Decomposition, trace: Optional[list] = None) -> tuple[int, ...]:
    """Rebuild the unique at-most-twice partition from a triple.

    ``d`` must be a `Decomposition` (ValueError otherwise), so its
    constructor or `decompose` has checked it and it is trusted here.  The
    i-th largest theta part moves the i-th largest singleton forward; the
    rest of theta is the immobile zeros.  The pairs keep their base starts:
    the moveable singletons sit on the slots k+1, k+3, ... above the last
    pair [k,k] or [k,k+1], and adding the non-decreasing tail of theta
    keeps them at least 2 apart and at least k+1, so the parts stay sorted,
    no new pair forms, and the prefix through the last pair, whose greedy
    tagging depends on it alone, is untouched.  Every forward move is then
    checked in `_run`.
    """
    if not isinstance(d, Decomposition):
        raise ValueError("%r is not a Decomposition" % (d,))
    parts = list(d.base.parts)
    moveable_pos = range(len(parts) - 1, _past_last_pair(d.base.starts) - 1, -1)
    for pos, t in zip(moveable_pos, reversed(d.theta)):
        s = parts[pos]
        if t:
            if trace is not None:
                trace.append({"op": "forward", "singleton": s, "result": s + t})
            parts[pos] = s + t
    starts = list(d.base.starts)

    # forward moves on pairs, largest first with the largest mu part (its zeros lead)
    for i in reversed(range(d.mu.count(0), d.n2)):
        _run(parts, starts, i, d.mu[i] // 3, True, trace)
    parts = tuple(parts)
    if has_triple(parts):
        raise AssertionError("composition left the at-most-twice class: %s" % (parts,))
    if sum(parts) != d.total_weight:
        raise AssertionError("composition lost weight: %s" % (parts,))
    return parts


class BaseRecord(NamedTuple):
    """One enumerated base structure (moveable singletons excluded)."""

    structure: TaggedPartition

    @property
    def weight(self) -> int:
        return self.structure.weight

    @property
    def largest_pair_index(self) -> int:
        """The m of the largest pair [m,m] / [m,m+1]; 0 for the empty base."""
        return _largest_pair_lo(self.structure.parts, self.structure.starts)

    @property
    def parity(self) -> int:
        """0 repeating, 1 consecutive (0 for the empty base)."""
        pairs = self.structure.pairs()
        return pairs[-1][1] - pairs[-1][0] if pairs else 0


# (part offsets from v, pair-start offsets) of the repeating pair [v,v], the
# consecutive pair [v,v+1] and the block [v-1,v],v,[v+2,v+2]
_SHAPES = (((0, 0), (0,)), ((0, 1), (0,)), ((-1, 0, 0, 2, 2), (0, 3)))


def enumerate_bases(m1: int, m2: int, m3: int, max_weight: float = math.inf) -> list[BaseRecord]:
    """All bases with m1 repeating pairs, m2 consecutive pairs, m3 blocks,
    of weight at most max_weight (an int or ``math.inf``).  Without a cap
    the walk is still finite: it places m1+m2+m3 shapes, each at one of
    five offsets from the last part.

    A block is the locked five-part shape [k-1,k], k, [k+2,k+2].  Structures
    carry no moveable singletons; every pair must admit no backward move.
    Output is sorted by (weight, parts) and deterministic.

    Every shape ends in a pair, so the greedy tagging of a prefix is final
    and a new shape's pairs start at its own offsets.  The walk extends a
    plain part tuple, tests only the new pairs with `_backward_put`, and builds
    one `TaggedPartition` per record.
    """
    check_ints(m1=m1, m2=m2, m3=m3)
    if max_weight != math.inf:
        check_ints(max_weight=max_weight)
    if min(m1, m2, m3) < 0:
        raise ValueError("counts must be >= 0")
    if max_weight < 0:
        return []
    results: list[BaseRecord] = []

    def dfs(parts: tuple, weight: int, counts: tuple[int, int, int]):
        if not any(counts):
            results.append(BaseRecord(_tagged(parts)))
            return
        last = parts[-1] if parts else 0
        for kind, (offsets, pair_offsets) in enumerate(_SHAPES):
            if not counts[kind]:
                continue
            rest = counts[:kind] + (counts[kind] - 1,) + counts[kind + 1 :]
            # a shape placed further than +3 above the prefix can always move
            # backward, so the blocked check prunes it; the window is generous
            for v in range(last, last + 5):
                new_parts = tuple(v + o for o in offsets)
                new_weight = weight + sum(new_parts)
                if new_parts[0] < max(last, 1) or new_weight > max_weight:
                    continue
                # only the lowest new value can meet the prefix, which has no triple
                low = new_parts[0]
                if parts[-2:].count(low) + new_parts.count(low) > 2:
                    continue
                cand = parts + new_parts
                # whether a pair can move backward depends only on the parts
                # up to its top, and every later shape is at least `last`, so
                # a pair blocked now stays blocked; prune as soon as one moves
                floor = max(last, 1)
                for j in (len(parts) + o for o in pair_offsets):
                    if _backward_put(cand, j, floor) is not None:
                        break
                    floor = cand[j + 1]
                else:
                    dfs(cand, new_weight, rest)

    dfs((), 0, (m1, m2, m3))
    results.sort(key=lambda r: (r.weight, r.structure.parts))
    return results
