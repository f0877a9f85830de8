"""Exact truncated power series in q and t, with unbounded integer coefficients.

Two value types cover every series-like object in the package:

* ``QPoly`` -- a univariate polynomial in q, stored on its exponent
  lattice: its lowest exponent, the lattice step, and the coefficients on
  the lattice from there to its degree.  Shifting and substituting q -> q^k
  are free, and a sum touches only the common lattice of its operands, the
  coarsest that holds the terms of both.
* ``BiSeries`` -- a bivariate formal power series in q and t, truncated to a
  rectangular window 0 <= deg_q <= max_q, 0 <= deg_t <= max_t.

Everything is exact Python integer arithmetic; no floating point anywhere.
Values are immutable after construction (operations return new objects), so
instances can be shared freely, as the ``ppoly`` memo does: they and
``moves``' two value types derive from ``Frozen``, which refuses ``del`` too.
``Frozen`` also gives each class its internal constructor ``_wrap``, a
builder generated from the class's slots that takes one value per slot and
sets each through the slot's own setter, so a build runs no loop.
``lattice_sum`` is the one sum of two ``QPoly`` bodies: ``+`` trims its
result, and ``ppoly`` chains it on raw bodies and trims once per value.

Truncation policy: combining two series shrinks to the componentwise minimum
of the windows, so a coefficient is never reported at a degree where one of
the operands was unknown.

The series kernel is three in-place operations on q-rows, lists whose
entry n is the coefficient of q^n and whose length is the window:

* ``divide_geometric(row, d)`` multiplies a row by 1/(1 - q^d);
* ``add_shifted(dst, src, shift, coeff)`` adds coeff * q^shift * src;
* ``QPoly.add_into(row, shift)`` adds q^shift times a polynomial, on the
  polynomial's own lattice.

The routes in ``genfun`` build every product and Pochhammer symbol they
need on rows with these: 1/(q^b; q^b)_n is n calls of
``divide_geometric``, 1/(x; q^b)_inf is Euler's sum of such quotients, and
a finite factor such as 1 - q^d or 1 + t q^n + t^2 q^2n is one shifted add
per term; 1/(1 - t^dt q^dq) on a list of t-rows is one shifted add per
row, in ascending t-degree.  ``BiSeries`` wraps the finished rows; its
arithmetic is the dense reference the tests check those routes against
(Andrews, *The Theory of Partitions*, 1976, ch. 2).
"""

from __future__ import annotations

import math
import operator
from typing import Iterator


class Frozen:
    """Base of the immutable value types: setting or deleting a field (a
    slot) raises ``AttributeError("<Class> is immutable")``.

    Each subclass gets ``_wrap``, its internal constructor: one value per
    slot, positional and in slot order, unchecked."""

    __slots__ = ()

    def __init_subclass__(cls):
        # _wrap is generated once per class, as namedtuple generates its
        # __new__: a build calls each slot's own setter, with no loop
        n = len(cls.__slots__)
        lines = ["def _wrap(%s):" % ", ".join("v%d" % i for i in range(n)), "    obj = new(cls)"]
        lines += ["    set%d(obj, v%d)" % (i, i) for i in range(n)]
        lines.append("    return obj")
        namespace = {"cls": cls, "new": object.__new__}
        for i, name in enumerate(cls.__slots__):  # a subclass may inherit them
            namespace["set%d" % i] = getattr(cls, name).__set__
        exec("\n".join(lines), namespace)
        wrap = namespace["_wrap"]
        # pickle finds a builder by this name (QPoly.__reduce__ names its class's)
        wrap.__module__, wrap.__qualname__ = cls.__module__, cls.__qualname__ + "._wrap"
        cls._wrap = staticmethod(wrap)

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through the checked constructor, given the
        # slots in order (BiSeries' copies the rows)
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))


class QPoly(Frozen):
    """Polynomial in q with exact integer coefficients, stored on its
    exponent lattice.

    ``body[i]`` is the coefficient of q^(low + step*i).  ``body`` starts and
    ends with a nonzero coefficient, so ``low`` is the lowest exponent with a
    nonzero coefficient.  A body of two or more terms has ``step`` >= 1; a
    monomial sits on every lattice and has ``step`` 0, as does the zero
    polynomial, which has ``low`` 0, an empty body and degree ``None``.  The
    constructor takes dense coefficients from q^0, trims both ends and keeps
    ``step`` 1; ``coeffs`` is that dense form again, built on request.  Sums
    and stretches keep the lattice their terms live on, so equal polynomials
    may be stored on different lattices: ``==`` and ``hash`` read the terms.
    """

    # ``_wrap(low, step, body)`` takes a body already trimmed at both ends,
    # with ``step`` 0 exactly when it has at most one term
    __slots__ = ("low", "step", "body")

    def __new__(cls, coeffs=()):
        return cls._wrap(*trim(0, 1, _check_coeffs("coeffs", coeffs)))

    def __reduce__(self):
        # copy and pickle rebuild the value on its own lattice, as its class
        return (type(self)._wrap, (self.low, self.step, self.body))

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "QPoly":
        check_ints(coeff=coeff, exp=exp)
        if exp < 0:
            raise ValueError("monomial exponent must be >= 0, got %d" % exp)
        if coeff == 0:
            return QPOLY_ZERO
        return cls._wrap(exp, 0, (coeff,))

    @property
    def coeffs(self) -> tuple:
        """Dense coefficients from q^0: ``coeffs[e]`` is the coefficient of
        q^e, with no trailing zeros.  Built on every access."""
        if not self.body:
            return ()
        out = [0] * (self.degree + 1)
        out[self.low :: self.step or 1] = self.body
        return tuple(out)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return self.low + (len(self.body) - 1) * self.step if self.body else None

    def __bool__(self) -> bool:
        return bool(self.body)

    def terms(self):
        """Nonzero (exponent, coefficient) pairs, ascending exponent."""
        low, step = self.low, self.step
        return [(low + step * i, c) for i, c in enumerate(self.body) if c]

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            raise ValueError("other=%r is not a QPoly" % (other,))
        if not other.body:
            return self
        if not self.body:
            return other
        raw = lattice_sum(self.low, self.step, self.body, other.low, other.step, other.body)
        return QPoly._wrap(*trim(*raw))

    def shifted(self, dq: int) -> "QPoly":
        """Multiply by q^dq (dq >= 0)."""
        if type(dq) is not int:
            check_ints(dq=dq)
        if dq < 0:
            raise ValueError("negative shift %d" % dq)
        if not dq or not self.body:
            return self
        return QPoly._wrap(self.low + dq, self.step, self.body)

    def stretched(self, k: int) -> "QPoly":
        """Substitute q -> q^k (k >= 1)."""
        check_ints(k=k)
        if k < 1:
            raise ValueError("stretch factor must be >= 1, got %d" % k)
        if k == 1 or not self.body:
            return self
        return QPoly._wrap(self.low * k, self.step * k, self.body)

    def add_into(self, row: list, shift: int) -> None:
        """row += q^shift * self in place, truncated to the row's window
        (shift >= 0).  The terms lie every ``step``-th entry from the lowest
        one, so this is one extended-slice add."""
        start, step = shift + self.low, self.step or 1
        stop = min(len(row), start + step * len(self.body))
        if start < stop:
            row[start:stop:step] = map(operator.add, row[start:stop:step], self.body)

    def is_nonnegative(self) -> bool:
        return not self.body or min(self.body) >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return False
        if self.step == other.step:
            return self.low == other.low and self.body == other.body
        return self.terms() == other.terms()

    def __hash__(self) -> int:
        return hash(tuple(self.terms()))

    def format_q(self) -> str:
        """Human form, descending exponents: ``q^30 + 2q^28 + ... + 3``."""
        if not self.body:
            return "0"
        parts = []
        for e, c in reversed(self.terms()):
            mag = abs(c)
            if e == 0:
                text = str(mag)
            elif e == 1:
                text = "q" if mag == 1 else "%dq" % mag
            else:
                text = "q^%d" % e if mag == 1 else "%dq^%d" % (mag, e)
            if not parts:
                parts.append(text if c > 0 else "-" + text)
            else:
                parts.append(("+ " if c > 0 else "- ") + text)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "QPoly(%s)" % self.format_q()


def lattice_sum(low: int, step: int, body: tuple, low2: int, step2: int, body2: tuple) -> tuple:
    """The sum of two nonzero polynomials in their stored form, each given
    as (low, step, body), as one (low, step, body) on their common lattice,
    the coarsest that holds the terms of both.  Nothing is trimmed, so the
    bodies need not be either, and the result can be summed again."""
    if low2 < low:
        low, step, body, low2, step2, body2 = low2, step2, body2, low, step, body
    common = math.gcd(step, step2, low2 - low)
    if not common:  # two monomials on one exponent
        return low, 0, (body[0] + body2[0],)
    if step != common and len(body) > 1:
        body = _spread(body, step // common)
    if step2 != common and len(body2) > 1:
        body2 = _spread(body2, step2 // common)
    off = (low2 - low) // common
    if off >= len(body):  # disjoint spans: zeros fill the gap
        return low, common, body + (0,) * (off - len(body)) + body2
    top = min(len(body), off + len(body2))  # the overlap is body[off:top]
    overlap = tuple(map(operator.add, body[off:top], body2))
    return low, common, body[:off] + overlap + body[top:] + body2[top - off :]


def trim(low: int, step: int, body: tuple) -> tuple:
    """(low, step, body) with the zeros at either end of ``body`` gone, and
    ``step`` 0 if at most one term is left: the stored form of a `QPoly`."""
    if body and body[0] and body[-1]:
        return low, step if len(body) > 1 else 0, body
    start, stop = 0, len(body)
    while stop and not body[stop - 1]:
        stop -= 1
    if not stop:
        return 0, 0, ()
    while not body[start]:
        start += 1
    return low + start * step, step if stop - start > 1 else 0, body[start:stop]


def _spread(body: tuple, k: int) -> tuple:
    """``body`` moved onto a k times finer lattice: k - 1 zeros between terms."""
    out = [0] * ((len(body) - 1) * k + 1)
    out[::k] = body
    return tuple(out)


QPOLY_ZERO = QPoly._wrap(0, 0, ())
QPOLY_ONE = QPoly._wrap(0, 0, (1,))


class BiSeries(Frozen):
    """Truncated bivariate series: coefficient of t^m q^n at ``_rows[m][n]``.

    The window bounds are inclusive.  Do not mutate ``_rows``; every public
    operation builds a fresh object.  ``_wrap(max_q, max_t, rows)`` takes
    ownership of rows without copying.
    """

    __slots__ = ("max_q", "max_t", "_rows")

    def __new__(cls, max_q: int, max_t: int, rows=None):
        check_window(max_q, max_t)
        if rows is None:
            rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
        else:
            if isinstance(rows, str) or not hasattr(type(rows), "__iter__"):
                raise ValueError("rows=%r is not a sequence of rows" % (rows,))
            rows = [list(_check_coeffs("row", r)) for r in rows]
            if len(rows) != max_t + 1 or any(len(r) != max_q + 1 for r in rows):
                raise ValueError("rows do not match the window bounds")
        return cls._wrap(max_q, max_t, rows)

    @classmethod
    def one(cls, max_q: int, max_t: int) -> "BiSeries":
        return cls.monomial(1, 0, 0, max_q, max_t)

    @classmethod
    def monomial(cls, c: int, dq: int, dt: int, max_q: int, max_t: int) -> "BiSeries":
        """Single term c * t^dt q^dq; degrees must lie inside the window."""
        check_window(max_q, max_t)
        check_ints(c=c, dq=dq, dt=dt)
        if not (0 <= dq <= max_q) or not (0 <= dt <= max_t):
            raise ValueError(
                "monomial degree (dq=%d, dt=%d) outside window (max_q=%d, max_t=%d)"
                % (dq, dt, max_q, max_t)
            )
        rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
        rows[dt][dq] = c
        return cls._wrap(max_q, max_t, rows)

    @classmethod
    def from_qpoly(cls, poly: QPoly, max_q: int, max_t: int, dt: int = 0) -> "BiSeries":
        """Lift a q-polynomial onto the t^dt slice; overflow degrees drop."""
        if not isinstance(poly, QPoly):
            raise ValueError("poly=%r is not a QPoly" % (poly,))
        check_window(max_q, max_t)
        check_ints(dt=dt)
        if not (0 <= dt <= max_t):
            raise ValueError("t-degree %d outside window" % dt)
        rows = [[0] * (max_q + 1) for _ in range(max_t + 1)]
        row = rows[dt]
        for e, c in enumerate(poly.coeffs[: max_q + 1]):
            row[e] = c
        return cls._wrap(max_q, max_t, rows)

    def coeff(self, n: int, m: int) -> int:
        """Exact coefficient of t^m q^n; out-of-window queries are errors."""
        check_ints(n=n, m=m)
        if not (0 <= n <= self.max_q) or not (0 <= m <= self.max_t):
            raise ValueError(
                "coefficient query (n=%d, m=%d) outside window (max_q=%d, max_t=%d)"
                % (n, m, self.max_q, self.max_t)
            )
        return self._rows[m][n]

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (dt, dq, coefficient) for nonzero terms, sorted by (dt, dq)."""
        for m, row in enumerate(self._rows):
            for n, c in enumerate(row):
                if c:
                    yield (m, n, c)

    def is_zero(self) -> bool:
        return all(not c for row in self._rows for c in row)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for row in self._rows for c in row)

    def _common_window(self, other: "BiSeries") -> tuple[int, int]:
        """The window of a sum or product; `add` and `mul` check their operand here."""
        if not isinstance(other, BiSeries):
            raise ValueError("other=%r is not a BiSeries" % (other,))
        return min(self.max_q, other.max_q), min(self.max_t, other.max_t)

    def add(self, other: "BiSeries") -> "BiSeries":
        mq, mt = self._common_window(other)
        rows = [
            [a + b for a, b in zip(ra[: mq + 1], rb[: mq + 1])]
            for ra, rb in zip(self._rows[: mt + 1], other._rows[: mt + 1])
        ]
        return BiSeries._wrap(mq, mt, rows)

    __add__ = add

    def mul(self, other: "BiSeries") -> "BiSeries":
        """Cauchy product, truncated to the common window."""
        mq, mt = self._common_window(other)
        rows = [[0] * (mq + 1) for _ in range(mt + 1)]
        brows = other._rows
        for t1 in range(min(mt, self.max_t) + 1):
            arow = self._rows[t1]
            for q1 in range(min(mq, len(arow) - 1) + 1):
                a = arow[q1]
                if not a:
                    continue
                qlim = mq + 1 - q1
                for t2 in range(mt + 1 - t1):
                    out = rows[t1 + t2]
                    brow = brows[t2]
                    for q2 in range(min(qlim, len(brow))):
                        b = brow[q2]
                        if b:
                            out[q1 + q2] += a * b
        return BiSeries._wrap(mq, mt, rows)

    __mul__ = mul

    def mul_monomial(self, c: int, dq: int, dt: int) -> "BiSeries":
        """Multiply by c * t^dt q^dq; overflow degrees fall off the window."""
        check_ints(c=c, dq=dq, dt=dt)
        if dq < 0 or dt < 0:
            raise ValueError("monomial shift degrees must be >= 0")
        rows = [[0] * (self.max_q + 1) for _ in range(self.max_t + 1)]
        for m in range(self.max_t + 1 - dt):
            src = self._rows[m]
            dst = rows[m + dt]
            for n in range(self.max_q + 1 - dq):
                v = src[n]
                if v:
                    dst[n + dq] = c * v
        return BiSeries._wrap(self.max_q, self.max_t, rows)

    def mul_geometric_inverse(self, dt: int, dq: int) -> "BiSeries":
        """Multiply by 1/(1 - t^dt q^dq) = 1 + t^dt q^dq + t^2dt q^2dq + ...

        (dt, dq) = (0, 0) would annihilate the constant term and is rejected.
        """
        check_ints(dt=dt, dq=dq)
        if dt < 0 or dq < 0 or (dt, dq) == (0, 0):
            raise ValueError("geometric factor needs (dt, dq) != (0, 0), both >= 0")
        rows = [row[:] for row in self._rows]
        if dt == 0:
            for row in rows:
                divide_geometric(row, dq)
        else:
            for m in range(dt, len(rows)):  # ascending, so row m - dt is final
                add_shifted(rows[m], rows[m - dt], dq)
        return BiSeries._wrap(self.max_q, self.max_t, rows)

    def t_marginal(self) -> "BiSeries":
        """Evaluate at t = 1 by summing over t-degrees; result has max_t = 0."""
        return BiSeries._wrap(self.max_q, 0, [[sum(col) for col in zip(*self._rows)]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            self.max_q == other.max_q
            and self.max_t == other.max_t
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.max_q, self.max_t, tuple(tuple(r) for r in self._rows)))

    def to_json_dict(self) -> dict:
        """Wire form; coefficients are decimal strings, so JSON keeps them exact."""
        return {
            "max_q": self.max_q,
            "max_t": self.max_t,
            "terms": [[m, n, str(c)] for m, n, c in self.items()],
        }

    def __repr__(self) -> str:
        head = []
        for m, n, c in self.items():
            head.append("%d*t^%d*q^%d" % (c, m, n))
            if len(head) >= 6:
                head.append("...")
                break
        body = " + ".join(head) if head else "0"
        return "BiSeries(max_q=%d, max_t=%d: %s)" % (self.max_q, self.max_t, body)


def divide_geometric(row: list, d: int) -> None:
    """Multiply the q-row ``row`` in place by 1/(1 - q^d) = 1 + q^d + q^2d + ...

    ``row[n]`` is the coefficient of q^n and ``len(row)`` is the window, so
    the result is exact on it.  Requires d >= 1; a d past the window leaves
    the row unchanged.
    """
    if d < 1:
        raise ValueError("geometric step must be >= 1, got %d" % d)
    for n in range(d, len(row)):
        row[n] += row[n - d]


def add_shifted(dst: list, src: list, shift: int, coeff: int = 1, low: int = 0) -> None:
    """dst += coeff * q^shift * src in place, on q-rows.  Truncation: dst's
    length is the window, so the terms of src that land past it drop, and a
    src shorter than the window adds nothing above its end.  src is known to
    be zero below index ``low``, which is skipped.  shift and low are >= 0."""
    start = shift + low
    stop = min(len(dst), shift + len(src))
    if start < stop:
        if low:
            src = src[low : stop - shift]
        if coeff == 1:
            dst[start:stop] = map(operator.add, dst[start:stop], src)
        elif coeff == -1:
            dst[start:stop] = map(operator.sub, dst[start:stop], src)
        else:
            dst[start:stop] = [d + coeff * c for d, c in zip(dst[start:stop], src)]


def check_ints(**values) -> None:
    """Raise ValueError naming the first value that is not an ``int`` (a
    ``bool`` or a float is refused): the one type test of integer arguments,
    here in the lowest layer so that every module reaches it."""
    for name, x in values.items():
        if type(x) is not int:
            raise ValueError("%s=%r is not an integer" % (name, x))


def _check_coeffs(name: str, xs) -> tuple:
    """The sequence ``xs`` of integer coefficients as a tuple; ValueError
    names ``xs`` if it is a str or not iterable, or an entry not an ``int``."""
    if isinstance(xs, str) or not hasattr(type(xs), "__iter__"):
        raise ValueError("%s=%r is not a sequence of integers" % (name, xs))
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:
            check_ints(coeff=x)
    return xs


def check_window(max_q: int, max_t: int) -> None:
    """A series window: two ints, neither negative."""
    check_ints(max_q=max_q, max_t=max_t)
    if max_q < 0 or max_t < 0:
        raise ValueError("max_q and max_t must be >= 0")
