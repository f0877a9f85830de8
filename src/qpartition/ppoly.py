"""Generating polynomials P(m1, m2, m3, s; q) of base partitions.

P(m1, m2, m3, s; q) counts, by weight, the bases with m1 repeating pairs,
m2 consecutive pairs and m3 blocks whose largest pair is [s-1, s-1]
(parity 0 component) or [s-1, s] (parity 1 component); weights of moveable
singletons are excluded.  With m = s-1, a nonempty base ends in a repeating
pair [m, m] or a block [m-3, m-2], m-2, [m, m] (parity 0), or in a
consecutive pair [m, m+1] (parity 1).  Each shape is one row of
``_BRANCHES[parity]``: the counts it takes away, its weight, and the
(s offset, parity) of each child, a smaller base it can be appended to:

  parity  shape  takes away  weight   children
  0       pair   (1, 0, 0)   2m       (1, 0), (2, 0), (2, 1)
  0       block  (0, 0, 1)   5m - 7   (4, 0), (4, 1), (5, 1)
  1       pair   (0, 1, 0)   2m + 1   (1, 0), (1, 1), (2, 1)

P_parity(m1, m2, m3, s) sums, over its rows, q^weight times the children
P_c(m1-d1, m2-d2, m3-d3, s-offset), added in the order shown, where
(d1, d2, d3) is what the row takes away.  Base cases: 0 whenever some count
is negative, so a row whose counts go negative adds nothing; P1 = 0 whenever
m2 = 0 (a parity-1 component ends in a consecutive pair); P0(0,0,0,1) = 1
(the empty base).  Every row takes a shape away, so the descent is acyclic;
results are memoized.  Each component is nonzero exactly for s in
``support(m1, m2, m3, parity)``, proved there from the table, so the descent
returns 0 outside it and never stores a zero.  The recursion is calibrated
against ``p_oracle``, an independent brute-force enumeration of the bases
themselves.

A component with no repeating pair is a shift of one with no consecutive
pair.  With m1 = 0, every component other than the empty base is read off
its twin with m2 = 0:

  (I)   P1(0, m2, m3, s) = q^(3m2 + 8m3) P0(m2 - 1, 0, m3, s - 1),  m2 >= 1;
  (II)  P0(0, m2, m3, s) = q^(3m2 + 8m3 + 3s - 10) P0(m2, 0, m3 - 1, s - 4),
        m3 >= 1.

Proof, by induction on m3 and then on m2, over three readings of the
table.  A P1 child of a component with m2 = 0 is zero, and a component with
m1 = 0 has no pair row of parity 0, so

  P1(0,m2,m3,s) = q^(2s-1) [P0(0,m2-1,m3,s-1) + P1(0,m2-1,m3,s-1)
                            + P1(0,m2-1,m3,s-2)],
  P0(0,m2,m3,s) = q^(5s-12) [P0(0,m2,m3-1,s-4) + P1(0,m2,m3-1,s-4)
                             + P1(0,m2,m3-1,s-5)],
  P0(M,0,m3,S)  = q^(2S-2) [P0(M-1,0,m3,S-1) + P0(M-1,0,m3,S-2)]
                  + q^(5S-12) P0(M,0,m3-1,S-4).

For (I), expand its right side by the third line at M = m2 - 1, S = s - 1,
and its left side's children by (I) at m2 - 1 and (II) at (m2 - 1, m3);
each term then meets its match: 2s-1 + 3(m2-1) + 8m3 = 3m2 + 8m3 +
2(s-1) - 2 for the two pair terms, and 2s-1 + 3(m2-1) + 8m3 + 3(s-1) - 10
= 3m2 + 8m3 + 5(s-1) - 12 for the block term.  For (II), expand the right
side at M = m2, S = s - 4 and the left side's children by (I) and (II) at
m3 - 1: 5s-12 + 3m2 + 8(m3-1) = 3m2 + 8m3 + 3s-10 + 2(s-4) - 2 for the
pair terms and 5s-12 + 3m2 + 8(m3-1) + 3(s-4) - 10 = 3m2 + 8m3 + 3s-10 +
5(s-4) - 12 for the block term.  Where the induction would name a P1 with
m2 = 0 or a negative count, both sides are zero.  No row gives P0(0, m2,
0, S): it is 0 but for the empty base P0(0,0,0,1), a child of both sides
of (I) at m2 = 1, m3 = 0 (q^3 at s = 2) and of (II) at m2 = 0, m3 = 1
(q^13 at s = 5).  Inside a support s >= m2 + 4m3 + 1, so both shifts are
positive.  The descent stores the twin shifted, on the twin's own body,
and sums only the components with m1 >= 1; a twin, like a row's child,
has one shape fewer, so the descent stays acyclic.

The recursion's two tables here (``_pmemo``, the values; ``_pbodies``,
their bodies), ``_oracle_memo``, and ``genfun``'s kept rows of H+
(`genfun._h_plus_rows`) are the package's shared values: module-level,
each entry a pure function of its key (an H+ row grows only by a longer
prefix of itself), and each value frozen (`series.Frozen`).  The only
other process-wide state is `cli._parser`, a `functools.cache` holding the
argument parser, which parsing never changes.  ``_pbodies`` maps each
distinct body of ``_pmemo``'s values to the one copy of it that they all
hold: Gaussian binomials are symmetric and the pair families are shifts of
the same q^2-binomials, so many values differ only in ``low``.  A value
joins the table after its nonnegativity check, as it enters the memo; sums
on the way never do, and a shifted twin already holds a stored body.  A
palindromic body is stored as its first half followed by that half's own
ints reversed, so each coefficient past the small-int cache is held once.
Sharing a tuple is safe because a tuple cannot change and a ``QPoly``
cannot be rebound, so no holder can alter another's value.
A ``QPoly`` stores only the lattice its terms live on, from its lowest term
to its highest, so the shifts of the recursion copy nothing and its sums
touch only that lattice.  A node builds one ``QPoly``, the value it stores.
With m1 >= 1, each child's shift q^weight goes into the child's lowest
exponent, the children are summed in table order as raw (low, step, body)
triples (`series.lattice_sum`), and the sum is trimmed once, checked for
nonnegativity and looked up in ``_pbodies`` before the build.
A repeating pair [k,k] weighs 2k and a consecutive pair [k,k+1] weighs
2k+1, so P(m1, m2, 0, s) is q^c times a polynomial in q^2 and is stored as
every second coefficient of its span; the q^3 binomials of the block shapes
(``qbinomial(n, k, 3)``) as every third; binomials come from the row kernel.
"""

from __future__ import annotations

from .moves import enumerate_bases
from .series import (
    QPOLY_ONE,
    QPOLY_ZERO,
    QPoly,
    add_shifted,
    check_ints,
    divide_geometric,
    lattice_sum,
    trim,
)

_pmemo: dict[tuple[int, int, int, int, int], QPoly] = {}
# the one stored copy of each distinct body among _pmemo's values
_pbodies: dict[tuple[int, ...], tuple[int, ...]] = {}
_oracle_memo: dict[tuple[int, int, int], dict[tuple[int, int], list[int]]] = {}


def qbinomial(n: int, k: int, base: int = 1) -> QPoly:
    """Gaussian binomial [n over k] in q^base.

    Zero for k < 0, n < 0 or k > n; degree k*(n-k)*base otherwise.  The
    arguments must be ints; `_qbinomial` builds it unchecked.
    """
    check_ints(n=n, k=k, base=base)
    if base < 1:
        raise ValueError("base must be >= 1")
    return _qbinomial(n, k, base)


def _qbinomial(n: int, k: int, base: int) -> QPoly:
    # prod_{i<k} (1 - q^(n-i)) / (1 - q^(i+1)) on one row through q^(k(n-k)),
    # exact as the quotient is a polynomial (Andrews, Theory of Partitions, ch. 3)
    if k < 0 or n < 0 or k > n:
        return QPOLY_ZERO
    k = min(k, n - k)
    row = [1] + [0] * (k * (n - k))
    for i in range(k):
        d = n - i
        add_shifted(row, row[:-d], d, -1)  # times 1 - q^d
        divide_geometric(row, i + 1)
    return QPoly._wrap(*trim(0, base, tuple(row)))


def p_parity(m1: int, m2: int, m3: int, s: int, parity: int) -> QPoly:
    """One parity component of P; see the module docstring for the rules.
    The arguments must be ints, checked before the memo, which would answer
    p_parity(True, 0, 0, 2, 0) as p_parity(1, 0, 0, 2, 0); the recursion
    runs in `_p_parity`, unchecked."""
    _check_component(m1, m2, m3, s, parity)
    return _p_parity(m1, m2, m3, s, parity)


def _check_component(m1: int, m2: int, m3: int, s: int, parity: int) -> None:
    """The guard of `p_parity` and `p_oracle`: five ints, parity 0 or 1."""
    # the inline test keeps check_ints' call off the hot path
    if not (type(m1) is type(m2) is type(m3) is type(s) is type(parity) is int):
        check_ints(m1=m1, m2=m2, m3=m3, s=s, parity=parity)
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")


# the module docstring's table, row for row, in the order of its sums
_BRANCHES = (
    (
        ("pair", (1, 0, 0), (2, 0), ((1, 0), (2, 0), (2, 1))),
        ("block", (0, 0, 1), (5, -7), ((4, 0), (4, 1), (5, 1))),
    ),
    (("pair", (0, 1, 0), (2, 1), ((1, 0), (1, 1), (2, 1))),),
)


def _p_parity(m1: int, m2: int, m3: int, s: int, parity: int) -> QPoly:
    key = (m1, m2, m3, s, parity)
    hit = _pmemo.get(key)
    if hit is not None:  # only valid keys are stored, so this skips the checks
        return hit
    if s not in _support(m1, m2, m3, parity):
        return QPOLY_ZERO
    if m1 == 0 and m2 == 0 and m3 == 0:
        return QPOLY_ONE
    if m1 == 0:  # (I) or (II) of the module docstring: a shifted twin
        if parity:
            twin, shift = _p_parity(m2 - 1, 0, m3, s - 1, 0), 3 * m2 + 8 * m3
        else:
            twin = _p_parity(m2, 0, m3 - 1, s - 4, 0)
            shift = 3 * m2 + 8 * m3 + 3 * s - 10
        value = _pmemo[key] = QPoly._wrap(twin.low + shift, twin.step, twin.body)
        return value
    # the base cases are the only guards: no negative count, no P1 at m2 = 0.
    # Each child's shift goes into its low, and the sum runs on raw
    # (low, step, body) triples: the stored value is the one QPoly built here
    terms = []
    for shape, (d1, d2, d3), (a, b), children in _BRANCHES[parity]:
        c1, c2, c3 = m1 - d1, m2 - d2, m3 - d3
        if c1 < 0 or c2 < 0 or c3 < 0:
            continue
        exp = a * (s - 1) + b
        for offset, child in children:
            if c2 or not child:
                term = _p_parity(c1, c2, c3, s - offset, child)
                if not term.body:
                    continue
                if exp < 0:
                    raise AssertionError(
                        "negative %s exponent against a nonzero child at %s" % (shape, key)
                    )
                terms.append((term.low + exp, term.step, term.body))
    low, step, body = 0, 0, ()
    for raw in terms:
        low, step, body = lattice_sum(low, step, body, *raw) if body else raw
    low, step, body = trim(low, step, body)
    if body and min(body) < 0:
        raise AssertionError("negative coefficient in P at %s" % (key,))
    stored = _pbodies.get(body)
    if stored is None:  # a palindrome is stored on its first half's ints
        half = len(body) // 2
        if half and body == body[::-1]:
            body = body[: len(body) - half] + body[half - 1 :: -1]
        stored = _pbodies[body] = body
    value = _pmemo[key] = QPoly._wrap(low, step, stored)
    return value


def p(m1: int, m2: int, m3: int, s: int) -> QPoly:
    """P = P0 + P1; `p_parity` checks the arguments."""
    return p_parity(m1, m2, m3, s, 0) + p_parity(m1, m2, m3, s, 1)


def support(m1: int, m2: int, m3: int, parity: int) -> range:
    """The s for which P_parity(m1, m2, m3, s) is nonzero.  With n = m1+m2:

    * P1: m2 >= 1 and n+4m3+1 <= s <= 2n+4m3;
    * P0 with m1 = m3 = 0: only the empty base, P0(0,0,0,1);
    * any other P0: n+4m3+1 <= s <= 2n+4m3+1, except that when m3 = 0 the
      low end rises by 1 if m1, m2 >= 1 and the top falls by 1 if m2 >= 1.

    Empty when a count is negative.  Proof, by induction over m1+m2+m3: no
    coefficient is negative, so nothing cancels and a component's support
    is the union, over the children (offset, c) of its rows in the module
    docstring's table, of each child's support shifted by its offset.

    * P1's pair row reads P0(m1, m2-1, m3) at 1 and P1 of it at 1 and 2.
      For m2 >= 2 the P1 children alone give [n+4m3+1, 2n+4m3] and the P0
      child lies inside.  For m2 = 1 the P1 children are skipped and the P0
      child, [n+4m3, 2n+4m3-1] (or {1} at n = 1, m3 = 0), gives it alone.
    * P0's block row (m3 >= 1) reads P0(m1, m2, m3-1) at 4 and P1 of it at
      4 and 5: [n+4m3+1, 2n+4m3+1] from the P1 children when m2 >= 1, else
      from the P0 child, which lies inside in either case.  P0's pair row
      (m1 >= 1) reads P0(m1-1, m2, m3) at 1 and 2 and P1 of it at 2, all
      inside that interval when m3 >= 1.  When m3 = 0 the pair row is all:
      m2 = 0 gives [m1+1, 2m1+1] from P0(m1-1, 0, 0) = [m1, 2m1-1]; m2 >= 1
      gives [n+2, 2n] from P1(m1-1, m2, 0) = [n, 2n-2] at 2, and P0(m1-1,
      m2, 0) = [n+1, 2n-2], read at 1 and 2, stays inside (it is empty at
      m1 = 1).
    * P0(0, m2, 0) reads neither row; only the empty base (m2 = 0) survives.
    """
    check_ints(m1=m1, m2=m2, m3=m3, parity=parity)
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    return _support(m1, m2, m3, parity)


def _support(m1: int, m2: int, m3: int, parity: int) -> range:
    """`support` on arguments known to be valid: the recursion's call."""
    if min(m1, m2, m3) < 0:
        return range(0)
    n = m1 + m2
    if parity:
        return range(n + 4 * m3 + 1, 2 * n + 4 * m3 + 1) if m2 else range(0)
    if m1 == m3 == 0:
        return range(1, 1 + (m2 == 0))
    lo = n + 4 * m3 + 1 + (m3 == 0 and m1 > 0 and m2 > 0)
    return range(lo, 2 * n + 4 * m3 + 2 - (m3 == 0 and m2 > 0))


def p_oracle(m1: int, m2: int, m3: int, s: int, parity: int) -> QPoly:
    """Brute-force P component: enumerate the bases and read off weights.
    Every base of a shape is listed once, into one table keyed by (s,
    parity); the arguments are checked before its memo, like `p`'s."""
    _check_component(m1, m2, m3, s, parity)
    table = _oracle_memo.get((m1, m2, m3))
    if table is None:
        table = {}
        for rec in enumerate_bases(m1, m2, m3):
            table.setdefault((rec.largest_pair_index + 1, rec.parity), []).append(rec.weight)
        _oracle_memo[(m1, m2, m3)] = table
    weights = table.get((s, parity), [])
    coeffs = [0] * (max(weights) + 1 if weights else 0)
    for w in weights:
        coeffs[w] += 1
    return QPoly(coeffs)


PX00 = "px00"
P0X0 = "p0x0"
P00X = "p00x"
PX0X = "px0x"
P0XX = "p0xx"

CLOSED_FORM_KINDS = (PX00, P0X0, P00X, PX0X, P0XX)

# The two-parameter forms carry an m3 contribution of 10*m3^2 + 3*m3 in the
# exponent.  The printed formulas have 10*m3^2 + 23*m3, which the tabulated
# small cases refute: P(0,0,1,5) = q^13 and P(0,0,2,9) = q^46, where the
# printed exponent gives q^33 and q^86.
def _m3_exponent(m3: int) -> int:
    return 10 * m3 * m3 + 3 * m3


def closed_form(kind: str, m1: int = 0, m2: int = 0, m3: int = 0, s: int = 0) -> QPoly:
    """Closed formulas for P on the special parameter shapes.

    * px00: P(m1, 0, 0, s), any s.
    * p0x0: P(0, m2, 0, s), any s.
    * p00x: P(0, 0, m3, s); zero unless s = 4*m3 + 1.
    * px0x: P(m1, 0, m3, s) only at s = m1 + 4*m3 + 1 (error otherwise).
    * p0xx: P(0, m2, m3, s) only at s = m2 + 4*m3 + 1 (error otherwise).
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError("unknown closed form %r" % (kind,))
    check_ints(m1=m1, m2=m2, m3=m3, s=s)
    if min(m1, m2, m3) < 0:  # as for p: no base has a negative count
        return QPOLY_ZERO
    m = s - 1
    if kind == PX00:
        binom = _qbinomial(m1, m - m1, 2)
        if not binom:
            return QPOLY_ZERO
        return binom.shifted(2 * m1 * m1 - 2 * m * m1 + m * m + m)
    if kind == P0X0:
        if m2 == 0:
            # degenerate: the binomial convention gives 0 here, but the
            # empty base is counted once at s = 1
            return QPOLY_ONE if m == 0 else QPOLY_ZERO
        binom = _qbinomial(m2 - 1, m - m2, 2)
        if not binom:
            return QPOLY_ZERO
        return binom.shifted(2 * m2 * m2 + m2 - 2 * m * m2 + m * m + m)
    if kind == P00X:
        if m3 == 0:
            return QPOLY_ONE if m == 0 else QPOLY_ZERO
        if m != 4 * m3:
            return QPOLY_ZERO
        return QPoly.monomial(1, _m3_exponent(m3))
    if kind == PX0X:
        if s != m1 + 4 * m3 + 1:
            raise ValueError("px0x requires s = m1 + 4*m3 + 1")
        return _qbinomial(m1 + m3, m1, 3).shifted(
            m1 * m1 + m1 + 5 * m1 * m3 + _m3_exponent(m3)
        )
    if s != m2 + 4 * m3 + 1:
        raise ValueError("p0xx requires s = m2 + 4*m3 + 1")
    return _qbinomial(m2 + m3, m2, 3).shifted(
        m2 * m2 + 2 * m2 + 5 * m2 * m3 + _m3_exponent(m3)
    )
