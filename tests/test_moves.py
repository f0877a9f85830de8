import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartition import moves
from qpartition.moves import (
    Decomposition,
    TaggedPartition,
    _run,
    backward_move,
    compose,
    decompose,
    enumerate_bases,
    forward_move,
    make_decomposition,
    parse_structure,
)
from qpartition.partitions import check_at_most_twice, iter_partitions


def test_tag_examples():
    assert str(TaggedPartition((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))) == (
        "1,[4,4],[5,6],6,[9,10],[11,12],12,14"
    )
    assert str(TaggedPartition((1, 2))) == "[1,2]"
    assert str(TaggedPartition((1, 3, 5))) == "1,3,5"


def test_tag_rejects_triples():
    with pytest.raises(ValueError, match=r"^some part appears more than twice: \(2, 2, 2\)$"):
        TaggedPartition((2, 2, 2))


@pytest.mark.parametrize(
    "parts,message",
    [
        ((3, 1), r"^parts must be non-decreasing: \(3, 1\)$"),
        ([True], r"^part True is not an integer$"),
    ],
    ids=["unsorted", "bool"],
)
def test_tagged_partition_checks_outside_parts(parts, message):
    with pytest.raises(ValueError, match=message):
        TaggedPartition(parts)


def test_parse_structure_round_trip():
    text = "[1,2],[3,4],4,[6,6],[7,8],8,10,12"
    tp = parse_structure(text)
    assert str(tp) == text
    assert parse_structure("1,2,2,3") == TaggedPartition((1, 2, 2, 3))
    with pytest.raises(ValueError):
        parse_structure("[1,3]")  # not a pair
    with pytest.raises(ValueError):
        parse_structure("[2,3],1")  # not the greedy tagging
    with pytest.raises(ValueError, match=r"^structure 5 is not a string$"):
        parse_structure(5)


def test_backward_trace_of_the_worked_example():
    tp = TaggedPartition((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    steps = [
        (0, "[1,2],3,[5,6],6,[9,10],[11,12],12,14"),
        (1, "[1,2],[3,4],4,6,[9,10],[11,12],12,14"),
        (2, "[1,2],[3,4],4,6,[8,8],[11,12],12,14"),
        (2, "[1,2],[3,4],4,[6,6],7,[11,12],12,14"),
        (3, "[1,2],[3,4],4,[6,6],7,[10,10],12,14"),
        (3, "[1,2],[3,4],4,[6,6],[7,8],9,12,14"),
    ]
    for pair_index, expected in steps:
        tp = backward_move(tp, pair_index)
        assert str(tp) == expected
    # every pair is now stuck
    assert all(backward_move(tp, i) is None for i in range(4))


def test_backward_move_weight_drop_and_trace_events():
    trace = []
    tp = TaggedPartition((1, 4, 4))
    out = backward_move(tp, 0, trace)
    assert out.weight == tp.weight - 3
    assert trace == [{"op": "backward", "pair": [4, 4], "result": [2, 3], "regroup": True}]


def test_backward_blocked_cases():
    assert backward_move(TaggedPartition((1, 2)), 0) is None  # parts must stay >= 1
    assert backward_move(TaggedPartition((1, 1, 2, 3)), 1) is None  # multiplicity 3
    assert backward_move(TaggedPartition((1, 2, 3, 3)), 1) is None  # crossing the pair below
    with pytest.raises(ValueError):
        backward_move(TaggedPartition((1, 2)), 1)


# backward case diagrams, anchored at k = 10
BACKWARD_CASES = [
    # (name, parts, pair_index, expected structure)
    ("Ia", (7, 10, 11), 1, "7,[9,9]"),
    ("Ib", (8, 10, 11), 1, "[8,9],9"),
    ("IIa", (6, 10, 10), 1, "6,[8,9]"),
    ("IIb", (8, 10, 10), 1, "[8,8],9"),
    ("IIc", (7, 10, 10), 1, "[7,8],9"),
]


@pytest.mark.parametrize("name,parts,pair_index,expected", BACKWARD_CASES)
def test_backward_case_diagrams(name, parts, pair_index, expected):
    tp = TaggedPartition(parts)
    # pair_index counts pairs only; the leading singleton is not one
    out = backward_move(tp, 0)
    assert str(out) == expected


def test_case_three_chain():
    # [7,8], 8, [10,11], [12,13]: the locked-streak scenario, local window
    tp = TaggedPartition((7, 8, 8, 10, 11, 12, 13))
    assert str(tp) == "[7,8],8,[10,11],[12,13]"
    tp = backward_move(tp, 1)
    assert str(tp) == "[7,8],[8,9],9,[12,13]"
    assert backward_move(tp, 1) is None  # 7 would appear thrice
    tp = backward_move(tp, 2)
    assert str(tp) == "[7,8],[8,9],9,[11,11]"
    # one more backward move would make 9 appear thrice
    assert backward_move(tp, 2) is None


def test_case_three_anchored_decomposition():
    # same scenario anchored at the bottom, so the streak really is stuck:
    # [1,2], 2, [4,5], [6,7] drives to the block [2,3],3,[5,5] with an
    # immobile singleton wedged inside
    d = decompose((1, 2, 2, 4, 5, 6, 7))
    assert str(d.base) == "[1,2],[2,3],3,[5,5]"
    assert d.mu == (0, 3, 3)
    assert d.n11 == 1 and d.n12 == 0


# small-pair interleavings: one backward move on the smaller pair allows one
# on the larger pair (cases i-vi, anchored at k = 10)
CHAIN_CASES = [
    ("i", (10, 11, 11, 12), "[9,9],[11,12]", "[9,9],[10,10]"),
    ("ii", (10, 11, 12, 12), "[9,9],[12,12]", "[9,9],[10,11]"),
    ("iii", (10, 11, 12, 13), "[9,9],[12,13]", "[9,9],[11,11]"),
    ("iv", (10, 10, 11, 11), "[8,9],[11,11]", "[8,9],[9,10]"),
    ("v", (10, 10, 11, 12), "[8,9],[11,12]", "[8,9],[10,10]"),
    ("vi", (10, 10, 12, 12), "[8,9],[12,12]", "[8,9],[10,11]"),
]


@pytest.mark.parametrize("name,parts,mid,end", CHAIN_CASES)
def test_backward_chain_cases(name, parts, mid, end):
    tp = TaggedPartition(parts)
    tp = backward_move(tp, 0)
    assert str(tp) == mid
    tp = backward_move(tp, 1)
    assert str(tp) == end


# forward case diagrams
def test_forward_case_diagrams():
    # I'a: [k-1,k-1] -> [k,k+1]
    assert str(forward_move(TaggedPartition((7, 9, 9)), 0)) == "7,[10,11]"
    # II'a: [k-2,k-1] -> [k,k]
    assert str(forward_move(TaggedPartition((6, 8, 9)), 0)) == "6,[10,10]"
    # I'b: [k-2,k-1],k-1 regroups to k-2,[k-1,k-1] then moves to [k,k+1]
    assert str(forward_move(TaggedPartition((8, 9, 9)), 0)) == "8,[10,11]"
    # II'b: [k-2,k-2],k-1 regroups then moves to [k,k]
    assert str(forward_move(TaggedPartition((8, 8, 9)), 0)) == "8,[10,10]"
    # II'c: [k-3,k-2],k-1 regroups then moves to [k,k]
    assert str(forward_move(TaggedPartition((7, 8, 9)), 0)) == "7,[10,10]"


def test_forward_case_three_chain():
    # inverse of the locked-streak scenario
    tp = TaggedPartition((7, 8, 8, 9, 9, 11, 11))
    assert str(tp) == "[7,8],[8,9],9,[11,11]"
    tp = forward_move(tp, 2)
    assert str(tp) == "[7,8],[8,9],9,[12,13]"
    tp = forward_move(tp, 1)
    assert str(tp) == "[7,8],8,[10,11],[12,13]"


def test_forward_inverts_backward_everywhere():
    for n in range(19):
        for parts in iter_partitions(n):
            if not check_at_most_twice(parts):
                continue
            tp = TaggedPartition(parts)
            for i in range(len(tp.pairs())):
                moved = backward_move(tp, i)
                if moved is not None:
                    assert forward_move(moved, i) == tp, (parts, i)


def test_forward_move_rejects_multiplicity_violation():
    # [5,6] moving onto an existing pair of 7s
    with pytest.raises(ValueError, match="repeat a part more than twice"):
        forward_move(TaggedPartition((5, 6, 7, 7)), 0)


def test_decompose_worked_example():
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    assert str(d.base) == "[1,2],[3,4],4,[6,6],[7,8],8,10,12"
    assert d.mu == (3, 3, 6, 6)
    assert d.theta == (0, 1, 2, 2)
    assert (d.n2, d.n11, d.n12) == (4, 1, 3)
    assert (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight) == (94, 71, 18, 5)


def test_decompose_second_worked_example():
    d = decompose((2, 4, 4, 5, 6, 6, 8, 8, 9, 12, 12, 14, 14, 16, 20))
    assert str(d.base) == "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15"
    assert d.mu == (3, 3, 3, 6, 6)
    assert d.theta == (0, 0, 2, 3, 5)
    assert (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight) == (
        140, 109, 21, 10,
    )


def test_compose_worked_example():
    base = parse_structure("[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15")
    d = make_decomposition(base, (3, 3, 3, 6, 6), (0, 0, 2, 3, 5))
    assert compose(d) == (2, 4, 4, 5, 6, 6, 8, 8, 9, 12, 12, 14, 14, 16, 20)


def test_compose_of_a_base_is_its_flattening():
    base = parse_structure("[1,2],[3,4],4,[6,6],[7,8],8,10,12")
    d = make_decomposition(base, (0, 0, 0, 0), (0, 0, 0, 0))
    assert compose(d) == tuple(sorted(base.parts))


def test_decompose_fixed_point_of_a_base():
    # the block: no pair moves, and its wedged singleton is a forced theta zero
    d = decompose((1, 2, 2, 4, 4))
    assert d.mu == (0, 0) and d.theta == (0,)
    assert d.n11 == 1 and d.n12 == 0


def test_round_trip_small_sweep():
    for n in range(17):
        for parts in iter_partitions(n):
            if not check_at_most_twice(parts):
                continue
            d = decompose(parts)
            assert d.total_weight == n
            assert compose(d) == parts


@st.composite
def _at_most_twice(draw, max_weight=200):
    """Values rising by small steps, each once or twice, cut at the weight."""
    rise = st.tuples(st.integers(1, 6), st.integers(1, 2))
    steps = draw(st.lists(rise, min_size=8, max_size=40))
    parts, v = [], 0
    for step, mult in steps:
        v += step
        for _ in range(mult):
            if sum(parts) + v > max_weight:
                return tuple(parts)
            parts.append(v)
    return tuple(parts)


@settings(max_examples=100, deadline=None)
@given(_at_most_twice())
def test_round_trip_property(parts):
    d = decompose(parts)
    assert compose(d) == parts
    assert d.total_weight == sum(parts)
    assert d.n2 == len(d.base.pairs())
    assert d.n11 + d.n12 == len(d.theta)


def _leftmost_pairs(parts):
    """Reference tagging: bind each part to the one pending unbound part
    before it when they differ by at most 1."""
    pairs, pending = [], None
    for x in parts:
        if pending is not None and x - pending <= 1:
            pairs.append((pending, x))
            pending = None
        else:
            pending = x
    return pairs


@settings(max_examples=100, deadline=None)
@given(_at_most_twice())
def test_tagging_and_move_inverse_property(parts):
    tp = TaggedPartition(parts)
    assert tp.parts == parts
    assert parse_structure(str(tp)) == tp
    assert tp.pairs() == _leftmost_pairs(parts)
    for i in range(len(tp.pairs())):
        moved = backward_move(tp, i)
        if moved is not None:
            assert forward_move(moved, i) == tp, (parts, i)
        # and the other way: a forward move it allows is undone by one backward move
        try:
            moved = forward_move(tp, i)
        except ValueError:
            continue
        assert backward_move(moved, i) == tp, (parts, i)


def test_singleton_classification_roles():
    # one immobile singleton before the last pair, three moveable after it
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    assert (d.n11, d.n12) == (1, 3)


def test_base_carries_only_its_parts_and_pairs():
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    assert d.base == parse_structure(str(d.base))


def test_observed_immobile_singletons_sit_in_blocks():
    # every immobile singleton (one before the last pair) observed in the
    # sweep is wedged between a consecutive pair ending at its value and a
    # repeating pair two above
    for n in range(23):
        for parts in iter_partitions(n):
            if not check_at_most_twice(parts):
                continue
            base = decompose(parts).base
            starts = base.starts
            in_pair = {j for i in starts for j in (i, i + 1)}
            past_last_pair = starts[-1] + 2 if starts else 0
            for i in range(past_last_pair):
                if i not in in_pair:
                    value = base.parts[i]
                    assert i - 2 in starts and i + 1 in starts
                    before = base.parts[i - 2 : i]
                    after = base.parts[i + 1 : i + 3]
                    assert before[1] - before[0] == 1  # consecutive
                    assert before[1] == value
                    assert after[1] == after[0]  # repeating
                    assert after[0] == value + 2


def test_make_decomposition_validation():
    # the constructor is the check: both spellings raise the same messages
    base = parse_structure("[1,2],[3,4],4,[6,6],[7,8],8,10,12")
    for build in (make_decomposition, Decomposition):
        with pytest.raises(ValueError, match="mu must have 4 parts, got 3"):
            build(base, (3, 3, 6), (0, 1, 2, 2))  # mu too short
        with pytest.raises(ValueError, match="mu parts must be non-negative multiples of 3"):
            build(base, (3, 3, 6, 5), (0, 1, 2, 2))  # not a multiple of 3
        with pytest.raises(ValueError, match="mu must be non-decreasing"):
            build(base, (3, 6, 3, 6), (0, 1, 2, 2))  # not sorted
        with pytest.raises(ValueError, match="theta needs at least 1 zeros for the immobile"):
            build(base, (3, 3, 6, 6), (1, 1, 2, 2))  # immobile zero missing
        with pytest.raises(ValueError, match="not a base partition"):
            build((1, 4, 4), (3,), (0,))  # not a base
        with pytest.raises(ValueError, match="not a base partition"):
            build((2, 13), (), (0, 5))  # moveables off the staircase
        for mu, theta, bad in (
            ((3, 3, 6, 6.0), (0, 1, 2, 2), "mu part 6.0"),  # 6.0 == 6, yet refused
            ((3, 3, 6, 6), (0, 1, 2, 2.7), "theta part 2.7"),  # int() would truncate
            ((3, 3, 6, 6), (False, 1, 2, 2), "theta part False"),  # bools do not count
            (("3", 3, 6, 6), (0, 1, 2, 2), "mu part '3'"),
        ):
            with pytest.raises(ValueError, match="%s is not an integer" % bad):
                build(base, mu, theta)


# Triples with two faults, one for each pair of neighbouring checks, the
# later check's fault placed first where the checks scan the same parts:
# the error names the earlier check, so the checks keep their order.
TWO_FAULT_TRIPLES = [
    # (checks, base, mu, theta, message); base None is the worked example's
    ("base-ints", (1, 4, 4), (3.0,), (0,), "not a base partition"),
    ("mu_ints-theta_ints", None, (3, 3, 6, 6.0), (0, 1, 2, 2.5), "mu part 6.0 is not"),
    ("ints-mu_length", None, (3, 3.0, 6), (0, 1, 2, 2), "mu part 3.0 is not"),
    ("theta_ints-mu_length", None, (3, 3, 6), (0, 1, 2, 2.5), "theta part 2.5 is not"),
    ("mu_length-mu_multiples", None, (3, 5, 6), (0, 1, 2, 2), "mu must have 4 parts"),
    ("mu_multiples-mu_sorted", None, (6, 3, 6, 7), (0, 1, 2, 2), "mu parts must be non-neg"),
    ("mu_sorted-theta_length", None, (3, 6, 3, 6), (0, 1), "mu must be non-decreasing"),
    ("theta_length-theta_signs", None, (3, 3, 6, 6), (0, -1, 2), "theta must have 4 parts"),
    ("theta_signs-theta_sorted", None, (3, 3, 6, 6), (0, 2, 1, -1), "theta parts must be >= 0"),
    ("theta_sorted-zeros", None, (3, 3, 6, 6), (1, 0, 2, 2), "theta must be non-decreasing"),
]


@pytest.mark.parametrize(
    "base,mu,theta,message", [t[1:] for t in TWO_FAULT_TRIPLES], ids=[t[0] for t in TWO_FAULT_TRIPLES]
)
def test_make_decomposition_checks_keep_their_order(base, mu, theta, message):
    if base is None:
        base = parse_structure("[1,2],[3,4],4,[6,6],[7,8],8,10,12")
    for build in (make_decomposition, Decomposition):
        with pytest.raises(ValueError, match=message):
            build(base, mu, theta)


def _is_base(parts) -> bool:
    """No pair can move backward and every moveable singleton is in its slot."""
    d = decompose(parts)
    return not any(d.mu) and not any(d.theta)


def test_is_base():
    assert _is_base((1, 2, 3, 3))
    assert _is_base(())
    assert not _is_base((1, 4, 4))


def _passes_base_check(parts) -> bool:
    """make_decomposition's one-pass check: the zero triple on ``parts`` is
    accepted unless the parts are not a base."""
    tp = TaggedPartition(parts)
    n2 = len(tp.starts)
    try:
        make_decomposition(tp, (0,) * n2, (0,) * (len(parts) - 2 * n2))
    except ValueError as exc:
        assert "not a base partition" in str(exc)
        return False
    return True


def test_one_pass_base_check_agrees_with_decompose_to_weight_25():
    seen = {True: 0, False: 0}
    for n in range(26):
        for parts in iter_partitions(n):
            if check_at_most_twice(parts):
                verdict = _is_base(parts)
                assert _passes_base_check(parts) == verdict, parts
                seen[verdict] += 1
    assert min(seen.values()) > 100


@settings(max_examples=100, deadline=None)
@given(_at_most_twice().filter(lambda parts: sum(parts) >= 40))
def test_one_pass_base_check_agrees_with_decompose_property(parts):
    # a random partition is rarely a base, so its own base is checked too
    for cand in (parts, decompose(parts).base.parts):
        assert _passes_base_check(cand) == _is_base(cand), cand


def test_enumerate_bases_examples():
    blocks = enumerate_bases(0, 0, 1, 40)
    assert [str(r.structure) for r in blocks] == ["[1,2],2,[4,4]"]
    assert blocks[0].weight == 13
    assert blocks[0].largest_pair_index == 4 and blocks[0].parity == 0

    singles = enumerate_bases(1, 0, 0, 40)
    assert [(str(r.structure), r.weight, r.largest_pair_index) for r in singles] == [
        ("[1,1]", 2, 1),
        ("[2,2]", 4, 2),
    ]

    assert [r.largest_pair_index for r in enumerate_bases(0, 0, 0, 10)] == [0]


def test_enumerate_bases_reproduces_the_two_pair_table():
    # the ten possible configurations of the two smallest stowed pairs
    found = set()
    for counts in ((2, 0, 0), (1, 1, 0), (0, 2, 0)):
        for rec in enumerate_bases(*counts, 40):
            found.add(str(rec.structure))
    found.update(str(r.structure) for r in enumerate_bases(0, 0, 1, 40))
    assert found == {
        "[1,1],[2,2]", "[1,2],2,[4,4]", "[2,2],[3,3]",
        "[1,1],[2,3]", "[1,2],[2,3]", "[2,2],[3,4]",
        "[1,1],[3,3]", "[1,2],[3,3]", "[2,2],[4,4]",
        "[1,2],[3,4]",
    }


def test_enumerate_bases_weight_cap():
    assert enumerate_bases(1, 0, 0, 3) == enumerate_bases(1, 0, 0, 2)
    assert [r.weight for r in enumerate_bases(1, 0, 0, 2)] == [2]


def test_all_enumerated_bases_decompose_trivially():
    for counts in ((2, 1, 0), (1, 1, 1), (0, 0, 2)):
        for rec in enumerate_bases(*counts, 60):
            parts = tuple(sorted(rec.structure.parts))
            assert _is_base(parts), parts


def _bijection_dump():
    """Canonical JSON of the decompositions (with their traces) of every
    at-most-twice partition of weight <= 16 and of the base records for
    m1, m2 <= 3, m3 <= 2, all of them, as ``qpartition bases`` lists them."""
    out = []
    for n in range(17):
        for parts in iter_partitions(n):
            if check_at_most_twice(parts):
                trace = []
                d = decompose(parts, trace)
                out.append([list(parts), str(d.base), list(d.mu), list(d.theta), trace])
    for m1 in range(4):
        for m2 in range(4):
            for m3 in range(3):
                out.append([
                    [str(r.structure), r.weight, r.largest_pair_index, r.parity]
                    for r in enumerate_bases(m1, m2, m3)
                ])
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


BIJECTION_SHA256 = "586736b517bd1075ef3c07b99a6a21b8387eeb2e0ca28ddce7c6a4858873c25b"


def test_bijection_is_pinned():
    # a different but still invertible bijection would pass the round trips
    digest = hashlib.sha256(_bijection_dump().encode()).hexdigest()
    assert digest == BIJECTION_SHA256


def _compose_dump():
    """Canonical JSON of compose(decompose(p)) and its trace (the singleton
    slides and the forward moves) for every at-most-twice partition of
    weight <= 16."""
    out = []
    for n in range(17):
        for parts in iter_partitions(n):
            if check_at_most_twice(parts):
                trace = []
                back = compose(decompose(parts), trace)
                out.append([list(parts), list(back), trace])
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


COMPOSE_SHA256 = "16cb928a3dc3d7eca011d4126b8d970a4b95d283cce73cfe7ea0a4616342f163"


def test_compose_traces_are_pinned():
    digest = hashlib.sha256(_compose_dump().encode()).hexdigest()
    assert digest == COMPOSE_SHA256


# ---------------------------------------------------------------- naive moves
#
# Reference moves from scratch: write put's values, sort the whole part
# tuple, re-tag it from index 0 and compare every pair list.  The kernels
# that decompose and compose call write put into the list in place and
# re-tag from the pair below; one move at a time, they must leave the same
# parts and starts, and trace the pair and the parts the naive move wrote.


def _naive_rebuilt(tp, j, put, pair_index):
    new = TaggedPartition(sorted(tp.parts[:j] + put + tp.parts[j + 2 :]))
    old_pairs, new_pairs = tp.pairs(), new.pairs()
    assert len(new_pairs) == len(old_pairs)
    assert new_pairs[:pair_index] == old_pairs[:pair_index]
    return new


def _naive_overfills(parts, put):
    return any(parts.count(x) + put.count(x) > 2 for x in put)


def _naive_backward(tp, pair_index):
    parts, starts = tp.parts, tp.starts
    j = starts[pair_index]
    lo = parts[j]
    put = (lo - 2, lo - 1) if lo == parts[j + 1] else (lo - 1, lo - 1)
    below = parts[starts[pair_index - 1] + 1] if pair_index else 0
    if put[0] < max(below, 1) or _naive_overfills(parts, put):
        return None
    return _naive_rebuilt(tp, j, put, pair_index), j


def _naive_forward(tp, pair_index):
    parts, starts = tp.parts, tp.starts
    j = starts[pair_index]
    if j + 2 < len(parts) and j + 2 not in starts and parts[j + 2] - parts[j + 1] <= 1:
        j += 1  # regroup: the trailing singleton pairs with the pair's top
    a, b = parts[j], parts[j + 1]
    put = (a + 1, a + 2) if a == b else (b + 1, b + 1)
    assert not _naive_overfills(parts, put)
    return _naive_rebuilt(tp, j, put, pair_index), j


def _checked_move(kind, parts, starts, pair_index, trace):
    """One move of pair ``pair_index`` through the kernel, held to the naive
    reference: the parts, starts and traced event it leaves, or nothing
    changed when the reference blocks it.  Returns whether it moved."""
    tp = TaggedPartition(parts)
    assert tuple(starts) == tp.starts, (kind, tp)  # the running tagging is exact
    events = len(trace)
    forward = kind == "forward"
    ref = (_naive_forward if forward else _naive_backward)(tp, pair_index)
    moved = _run(parts, starts, pair_index, 1, forward, trace)
    if ref is None:
        after = (moved, tuple(parts), tuple(starts), len(trace))
        assert after == (0, tp.parts, tp.starts, events), (kind, tp, pair_index)
        return False
    assert moved == 1, (kind, tp, pair_index)
    new, j = ref
    assert (tuple(parts), tuple(starts)) == (new.parts, new.starts), (kind, tp, pair_index)
    event = {
        "op": kind,
        "pair": list(tp.parts[j : j + 2]),
        "result": list(new.parts[j : j + 2]),
        "regroup": new.starts[pair_index] != tp.starts[pair_index],
    }
    assert trace[events:] == [event], (kind, tp, pair_index)
    return True


def _check_round_trip_moves(p) -> dict:
    """Run decompose and compose on ``p`` one kernel move at a time, in loops
    that mirror theirs, each move held to the naive reference.  The loops
    must end where decompose and compose end: same base, mu, theta and move
    traces.  Returns the number of moves made of each kind."""
    tp = TaggedPartition(p)
    parts, starts, trace = list(tp.parts), list(tp.starts), []
    mu = []
    for i in range(len(starts)):
        count = 0
        while _checked_move("backward", parts, starts, i, trace):
            count += 1
        mu.append(3 * count)
    end = starts[-1] + 2 if starts else 0
    k = parts[starts[-1]] if starts else 0
    slots = tuple(range(k + 1, k + 2 * (len(parts) - end), 2))
    theta = (0,) * (end - 2 * len(starts)) + tuple(s - t for s, t in zip(parts[end:], slots))
    decompose_trace = []
    d = decompose(p, decompose_trace)
    assert (d.base.parts, d.mu, d.theta) == (tuple(parts[:end]) + slots, tuple(mu), theta)
    assert [e for e in decompose_trace if "pair" in e] == trace

    # compose: theta back onto the slots, then forward moves, largest pair first
    slid = (s + t for s, t in zip(slots, theta[len(theta) - len(slots) :]))
    parts, trace = sorted(d.base.parts[:end] + tuple(slid)), []
    starts = list(TaggedPartition(parts).starts)
    for i in reversed(range(len(starts))):
        for _ in range(d.mu[i] // 3):
            _checked_move("forward", parts, starts, i, trace)
    compose_trace = []
    assert compose(d, compose_trace) == tuple(parts) == p
    assert [e for e in compose_trace if "pair" in e] == trace
    return {"backward": sum(mu) // 3, "forward": len(trace)}


def test_every_round_trip_move_to_weight_30_matches_the_naive_reference():
    made = {"backward": 0, "forward": 0}
    for n in range(31):
        for parts in iter_partitions(n):
            if check_at_most_twice(parts):
                for kind, count in _check_round_trip_moves(parts).items():
                    made[kind] += count
    assert min(made.values()) > 0, made


@settings(max_examples=100, deadline=None)
@given(_at_most_twice())
def test_moves_match_the_naive_reference_property(parts):
    _check_round_trip_moves(parts)
    # a pair of parts[-1] + 3 on top moves at least once each way
    made = _check_round_trip_moves(parts + (parts[-1] + 3,) * 2)
    assert min(made.values()) > 0, made


@settings(max_examples=50, deadline=None)
@given(st.integers(40, 400).flatmap(lambda w: _at_most_twice(max_weight=w)))
def test_moves_match_the_naive_reference_at_weights_40_to_400(parts):
    _check_round_trip_moves(parts)
    made = _check_round_trip_moves(parts + (parts[-1] + 3,) * 2)
    assert min(made.values()) > 0, made


def test_out_of_order_put_trips_the_sortedness_assertion(monkeypatch):
    # [2,2] has 6 above it; a put past 6 would need the re-sort it no longer gets
    monkeypatch.setattr(moves, "_backward_put", lambda parts, j, below: (7, 8))
    with pytest.raises(AssertionError, match="out of order"):
        _run([2, 2, 6], [0], 0, 1, False, None)
    # and below: 1 sits under [4,4]
    monkeypatch.setattr(moves, "_backward_put", lambda parts, j, below: (0, 0))
    with pytest.raises(AssertionError, match="out of order"):
        _run([1, 4, 4], [1], 0, 1, False, None)


def test_stability_check_fires(monkeypatch):
    # [1,2],[4,5] with pair 1 rewritten to 4,7: the rescan finds no pair there
    monkeypatch.setattr(moves, "_backward_put", lambda parts, j, below: (4, 7))
    with pytest.raises(AssertionError, match="changed the pair count"):
        _run([1, 2, 4, 5], [0, 2], 1, 1, False, None)
    # a pair 1 said to start inside pair 0 would write below the rescan point
    monkeypatch.setattr(moves, "_backward_put", lambda parts, j, below: (2, 2))
    with pytest.raises(AssertionError, match=r"disturbed a finalized pair: \[1,2\],3,5 ->"):
        _run([1, 2, 3, 5], [0, 1], 1, 1, False, None)


def test_unsynced_local_scan_trips_the_stability_check(monkeypatch):
    # [1,1],[4,5],5 with pair 0 rewritten to 1,4: the scan from index 0
    # binds [4,4] across the start of pair 1, which no valid move does
    # (a fresh tagging would read 1,[4,4],[5,5])
    monkeypatch.setattr(moves, "_backward_put", lambda parts, j, below: (1, 4))
    with pytest.raises(AssertionError, match=r"changed the pair count: \[1,1\],\[4,5\],5 ->"):
        _run([1, 1, 4, 5, 5], [0, 2], 0, 1, False, None)


@pytest.mark.parametrize("move", [backward_move, forward_move])
def test_single_moves_refuse_a_partition_that_is_not_tagged(move):
    with pytest.raises(ValueError, match=r"^\(1, 2\) is not a TaggedPartition$"):
        move((1, 2), 0)


def test_forward_move_rejects_passing_the_pair_above():
    # [1,1] -> [2,3] would land on [2,3]; sorted, that reads [2,2],[3,3],
    # which no backward move maps back
    with pytest.raises(ValueError, match="pass the pair above"):
        forward_move(TaggedPartition((1, 1, 2, 3)), 0)


def test_refused_forward_moves_leave_the_lists_untouched():
    # both refusals are raised before the kernel writes, so the caller's
    # parts, starts and trace are as they were
    refused = set()
    for n in range(19):
        for p in iter_partitions(n):
            if not check_at_most_twice(p):
                continue
            tp = TaggedPartition(p)
            for i in range(len(tp.starts)):
                parts, starts, trace = list(tp.parts), list(tp.starts), []
                try:
                    _run(parts, starts, i, 1, True, trace)
                except ValueError as exc:
                    refused.add(str(exc).rsplit(" would ", 1)[1])
                    assert (parts, starts, trace) == (list(tp.parts), list(tp.starts), []), (tp, i)
    assert refused == {"repeat a part more than twice", "pass the pair above"}, refused


# --------------------------------------------------------- checked triples
#
# A Decomposition is checked once, by its constructor, and decompose builds
# its output unchecked; compose trusts both and no longer re-tags after
# placing theta.  These tests hold what that run-time check used to catch.


def test_decomposition_has_no_unchecked_builder():
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    assert not hasattr(Decomposition, "_make") and not hasattr(d, "_replace")
    with pytest.raises(AttributeError, match="^Decomposition is immutable$"):
        d.mu = (9, 9, 9, 9)
    with pytest.raises(ValueError, match=r"^mu parts must be non-negative multiples of 3"):
        Decomposition((1, 2), (1,), ())
    assert d == Decomposition(d.base, d.mu, d.theta)
    assert hash(d) == hash(Decomposition(d.base.parts, list(d.mu), list(d.theta)))
    assert repr(d) == (
        "Decomposition(base=TaggedPartition([1,2],[3,4],4,[6,6],[7,8],8,10,12), "
        "mu=(3, 3, 6, 6), theta=(0, 1, 2, 2))"
    )


def test_decomposition_rebuilds_through_its_check():
    # copy and pickle call the reduce tuple, so tampered arguments are refused
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    build, (base, mu, theta) = d.__reduce__()
    assert build(base, mu, theta) == d
    for args, message in (
        ((base, (3, 3, 6, 5), theta), "mu parts must be non-negative multiples of 3"),
        ((base, mu, (1, 1, 2, 2)), "theta needs at least 1 zeros"),
        ((base.parts[:-1] + (13,), mu, theta), "not a base partition"),  # off its slot
    ):
        with pytest.raises(ValueError, match=message):
            build(*args)


def test_compose_refuses_a_plain_triple():
    d = decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    with pytest.raises(ValueError, match=r"^\(TaggedPartition\(.*\) is not a Decomposition$"):
        compose((d.base, d.mu, d.theta))


def test_decompose_asserts_that_mu_is_non_decreasing(monkeypatch):
    # pair 0 of [1,1],[4,4] said to move once and pair 1 not at all
    monkeypatch.setattr(moves, "_run", lambda parts, starts, i, limit, forward, trace: 1 - i)
    with pytest.raises(AssertionError, match=r"^mu came out decreasing: \(3, 0\)$"):
        decompose((1, 1, 4, 4))


def _theta_placed(d):
    """The parts compose moves its pairs in: the base with the tail of theta
    added to its trailing singletons, largest to largest, not re-sorted."""
    end = d.base.starts[-1] + 2 if d.base.starts else 0
    tail = d.theta[len(d.theta) - (len(d.base.parts) - end) :]
    return d.base.parts[:end] + tuple(s + t for s, t in zip(d.base.parts[end:], tail))


def _check_trusted_compose(d):
    """Placing theta keeps the parts sorted and the base's pairs, which
    compose assumes, and the triple round-trips."""
    placed = _theta_placed(d)
    assert list(placed) == sorted(placed), d
    assert tuple(moves._greedy_scan(placed)) == d.base.starts, d
    assert decompose(compose(d)) == d


@settings(max_examples=100, deadline=None)
@given(st.integers(40, 400).flatmap(lambda w: _at_most_twice(max_weight=w)))
def test_theta_placement_keeps_the_pairs_of_decomposed_partitions(parts):
    _check_trusted_compose(decompose(parts))


@functools.cache
def _bases(m1, m2, m3):
    return enumerate_bases(m1, m2, m3)


def _with_staircase(structure, n12):
    """A base structure with ``n12`` moveable singletons on their slots."""
    k = structure.parts[structure.starts[-1]] if structure.starts else 0
    return TaggedPartition(structure.parts + tuple(range(k + 1, k + 2 * n12, 2)))


@st.composite
def _checked_triples(draw):
    """A base from `enumerate_bases` with up to 3 moveable singletons, and
    random valid mu and theta, through the checked constructor."""
    counts = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)))
    structure = draw(st.sampled_from(_bases(*counts))).structure
    n12 = draw(st.integers(0, 3))
    base = _with_staircase(structure, n12)
    n2 = len(base.starts)
    n11 = len(base.parts) - 2 * n2 - n12
    mu = draw(st.lists(st.integers(0, 20), min_size=n2, max_size=n2))
    tail = draw(st.lists(st.integers(0, 30), min_size=n12, max_size=n12))
    return Decomposition(base, tuple(3 * x for x in sorted(mu)), (0,) * n11 + tuple(sorted(tail)))


@settings(max_examples=200, deadline=None)
@given(_checked_triples())
def test_theta_placement_keeps_the_pairs_of_checked_triples(d):
    _check_trusted_compose(d)


def test_every_accepted_triple_on_small_shapes_composes():
    # every base with m1+m2+m3 <= 3 and 0-2 moveable singletons, every
    # non-decreasing mu over {0,3,6} and theta over {0,1,2}: the constructor
    # refuses only a theta without its immobile zeros, and the rest round-trip
    accepted = 0
    for m1, m2, m3 in itertools.product(range(4), repeat=3):
        if m1 + m2 + m3 > 3:
            continue
        for record in _bases(m1, m2, m3):
            for n12 in range(3):
                base = _with_staircase(record.structure, n12)
                n2 = len(base.starts)
                n1 = len(base.parts) - 2 * n2
                n11 = n1 - n12
                for mu in itertools.combinations_with_replacement((0, 3, 6), n2):
                    for theta in itertools.combinations_with_replacement((0, 1, 2), n1):
                        try:
                            d = Decomposition(base, mu, theta)
                        except ValueError as exc:
                            assert n11 and theta[n11 - 1], (base, mu, theta, exc)
                            continue
                        _check_trusted_compose(d)
                        accepted += 1
    assert accepted > 10_000, accepted
