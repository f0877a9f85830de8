"""Verification suites: golden tables, worked examples, and series identities.

Each suite runs its named checks in order and returns them, with their
report lines, as a ``SuiteResult``.  Every suite takes ``max_q=None``:

* ``products``, ``forms`` and ``corollary`` compare series on a window, and
  a given ``max_q`` replaces the window's q bound (60 for products, 40 for
  corollary; for forms both its windows, brute and alternating on q <= 40
  and positive and marker on q <= 30).  Their t bounds stay fixed.
* ``appendix``, ``examples`` and ``closed-forms`` check fixed tables and
  examples, and raise ``ValueError`` for any ``max_q``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from . import genfun, moves, ppoly, seeds
from .appendix_data import TABLE_ERRATA, golden_entries
from .partitions import KrVariant, format_parts
from .series import QPoly


class CheckResult(NamedTuple):
    name: str
    ok: bool
    lines: tuple[str, ...] = ()


class SuiteResult(NamedTuple):
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append("%s %s" % ("ok  " if c.ok else "FAIL", c.name))
            out.extend("     " + line for line in c.lines)
        out.append(
            "suite %s: %s" % (self.suite, "PASS" if self.ok else "FAIL")
        )
        return out


def _no_window(suite: str, max_q: Optional[int]) -> None:
    if max_q is not None:
        raise ValueError("--max-q does not apply to the %s suite" % suite)


# ---------------------------------------------------------------- appendix

def suite_appendix(max_q: Optional[int] = None) -> SuiteResult:
    _no_window("appendix", max_q)
    bad = []
    count = 0
    for m1, m2, m3, s, expected in golden_entries():
        count += 1
        got = ppoly.p(m1, m2, m3, s)
        if got != expected:
            bad.append(
                "P(%d,%d,%d,%d): table %s, recursion %s"
                % (m1, m2, m3, s, expected.format_q(), got.format_q())
            )
    tables = CheckResult(
        "recursion reproduces the tabulated polynomials",
        not bad,
        ("%d tabulated values recomputed" % count, *bad),
    )

    lines = []
    ok = True
    for erratum in TABLE_ERRATA:
        key = erratum["key"]
        lines.append(
            "known table erratum at P(%d,%d,%d,%d): printed %s; stored %s (%s)"
            % (*key, erratum["printed"], erratum["stored"], erratum["reason"])
        )
        oracle = ppoly.p_oracle(*key, 0) + ppoly.p_oracle(*key, 1)
        if oracle != ppoly.p(*key):
            ok = False
            lines.append(
                "  oracle DISAGREES with the stored value: %s" % oracle.format_q()
            )
    errata = CheckResult(
        "table errata are pinned to the enumeration oracle", ok, tuple(lines)
    )
    return SuiteResult("appendix", (tables, errata))


# ---------------------------------------------------------------- examples

_SEED_EXPANSION_D = {
    "seed": (3, 5, 8, 11, 13, 19, 21, 23, 25),
    "source": (4, 4, 8, 11, 13, 19, 21, 23, 25),
    "expected": [
        (3, 5, 8, 11, 13, 19, 21, 23, 25),
        (4, 4, 8, 11, 13, 19, 21, 23, 25),
        (3, 5, 8, 12, 12, 19, 21, 23, 25),
        (4, 4, 8, 12, 12, 19, 21, 23, 25),
        (3, 5, 8, 11, 13, 20, 20, 24, 24),
        (4, 4, 8, 11, 13, 20, 20, 24, 24),
        (3, 5, 8, 12, 12, 20, 20, 24, 24),
        (4, 4, 8, 12, 12, 20, 20, 24, 24),
    ],
}

_SEED_EXPANSION_DPRIME = {
    "seed": (1, 3, 6, 11, 13, 16, 18, 23, 25),
    "source": (2, 2, 6, 12, 12, 16, 18, 24, 24),
    "expected": [
        (2, 2, 6, 11, 13, 16, 18, 23, 25),
        (2, 2, 6, 12, 12, 16, 18, 23, 25),
        (2, 2, 6, 11, 13, 16, 18, 24, 24),
        (2, 2, 6, 12, 12, 16, 18, 24, 24),
    ],
}

_DECOMPOSE_EXAMPLE = {
    "partition": (1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14),
    "base": "[1,2],[3,4],4,[6,6],[7,8],8,10,12",
    "mu": (3, 3, 6, 6),
    "theta": (0, 1, 2, 2),
    "weights": (94, 71, 18, 5),
}

_COMPOSE_EXAMPLE = {
    "base": "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15",
    "mu": (3, 3, 3, 6, 6),
    "theta": (0, 0, 2, 3, 5),
    "partition": (2, 4, 4, 5, 6, 6, 8, 8, 9, 12, 12, 14, 14, 16, 20),
    "weights": (140, 109, 21, 10),
}


def suite_examples(max_q: Optional[int] = None) -> SuiteResult:
    _no_window("examples", max_q)
    checks = []
    for name, spec, variant in (
        ("seed expansion generates the eight listed partitions",
         _SEED_EXPANSION_D, KrVariant.D),
        ("almost-seed expansion generates the four listed partitions",
         _SEED_EXPANSION_DPRIME, KrVariant.DPRIME),
    ):
        seed = seeds.to_seed(spec["source"], variant)
        if seed != spec["seed"]:
            ok, lines = False, ["seed transform gave %s" % (seed,)]
        else:
            got = seeds.expand_seed(spec["seed"], variant)
            ok = got == sorted(spec["expected"])
            if ok:
                lines = ["%d partitions, all as listed" % len(got)]
            else:
                lines = ["expansion gave %d partitions:" % len(got)]
                lines.extend("  " + format_parts(p) for p in got)
        checks.append(CheckResult(name, ok, tuple(lines)))

    ex = _DECOMPOSE_EXAMPLE
    d = moves.decompose(ex["partition"])
    ok = (
        str(d.base) == ex["base"]
        and d.mu == ex["mu"]
        and d.theta == ex["theta"]
        and (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight)
        == ex["weights"]
        and moves.compose(d) == ex["partition"]
    )
    lines = ("base %s, mu %s, theta %s" % (d.base, d.mu, d.theta),)
    checks.append(CheckResult("backward moves split 94 as 71 + 18 + 5", ok, lines))

    ex = _COMPOSE_EXAMPLE
    base = moves.parse_structure(ex["base"])
    d = moves.make_decomposition(base, ex["mu"], ex["theta"])
    out = moves.compose(d)
    ok = (
        out == ex["partition"]
        and (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight)
        == ex["weights"]
        and str(moves.decompose(out).base) == ex["base"]
    )
    lines = ("composed %s" % format_parts(out),)
    checks.append(CheckResult("forward moves rebuild the weight-140 partition", ok, lines))
    return SuiteResult("examples", tuple(checks))


# ---------------------------------------------------------------- products

def suite_products(max_q: Optional[int] = None) -> SuiteResult:
    max_q = 60 if max_q is None else max_q
    checks = []
    for variant in KrVariant:
        series = genfun.kr_alternating(variant, max_q, genfun.marginal_max_t(max_q))
        report = genfun.compare(series.t_marginal(), genfun.product_side(variant, max_q))
        name = "class %d series at t = 1 equals its product to q^%d" % (variant.index, max_q)
        checks.append(CheckResult(name, report.equal, tuple(report.lines("series", "product"))))
    report = genfun.compare(
        genfun.product_side(KrVariant.DPRIME, max_q),
        genfun.product_side_mod12(KrVariant.DPRIME, max_q),
    )
    name = "the two printings of the class 2 product agree"
    checks.append(CheckResult(name, report.equal, tuple(report.lines("mod 6", "mod 12"))))
    return SuiteResult("products", tuple(checks))


# ------------------------------------------------------------------- forms

def suite_forms(max_q: Optional[int] = None) -> SuiteResult:
    brute_window = (40 if max_q is None else max_q, 12)
    sum_window = (30 if max_q is None else max_q, 10)
    checks = []
    for variant in KrVariant:
        brute = genfun.kr_brute(variant, *brute_window)
        ok, lines = True, []
        for label, series, window in (
            ("alternating", genfun.kr_alternating(variant, *brute_window), brute_window),
            ("positive", genfun.kr_positive(variant, *sum_window), sum_window),
            ("marker", genfun.kr_marker(variant, 2, *sum_window), sum_window),
        ):
            report = genfun.compare(brute, series)
            lines += ["%s vs brute on q <= %d, t <= %d" % (label, *window)]
            lines += report.lines("brute", label)
            ok = ok and report.equal
        name = "class %d: brute = alternating = positive = marker" % variant.index
        checks.append(CheckResult(name, ok, tuple(lines)))
    return SuiteResult("forms", tuple(checks))


# --------------------------------------------------------------- corollary

def suite_corollary(max_q: Optional[int] = None) -> SuiteResult:
    max_q, max_t = 40 if max_q is None else max_q, 12
    brute = genfun.h_brute(max_q, max_t)
    r1 = genfun.compare(brute, genfun.h_product(max_q, max_t))
    r2 = genfun.compare(brute, genfun.h_positive(max_q, max_t))
    check = CheckResult(
        "at-most-twice: brute = product = positive to q^%d, t^%d" % (max_q, max_t),
        r1.equal and r2.equal,
        tuple(r1.lines("brute", "product") + r2.lines("brute", "positive")),
    )
    return SuiteResult("corollary", (check,))


# ------------------------------------------------------------ closed forms

def suite_closed_forms(max_q: Optional[int] = None) -> SuiteResult:
    _no_window("closed-forms", max_q)
    ms, m3s = range(7), range(4)  # m1, m2 <= 6 and m3 <= 3
    # each case names the parameters a failure line shows; a case without s
    # sits at s = m1 + m2 + 4*m3 + 1, the only s where px0x and p0xx exist
    table = [
        (ppoly.PX00, [{"m1": m, "s": s} for m in ms for s in range(1, 2 * m + 4)],
         "repeating-pairs"),
        (ppoly.P0X0, [{"m2": m, "s": s} for m in ms for s in range(1, 2 * m + 4)],
         "consecutive-pairs"),
        (ppoly.P00X, [{"m3": m, "s": s} for m in m3s for s in range(1, 4 * m + 4)],
         "pure-blocks"),
        (ppoly.PX0X, [{"m1": m, "m3": m3} for m in ms for m3 in m3s], "repeating+blocks"),
        (ppoly.P0XX, [{"m2": m, "m3": m3} for m in ms for m3 in m3s], "consecutive+blocks"),
    ]
    checks = []
    for kind, cases, label in table:
        bad = []
        for case in cases:
            args = {"m1": 0, "m2": 0, "m3": 0, **case}
            args.setdefault("s", args["m1"] + args["m2"] + 4 * args["m3"] + 1)
            if ppoly.closed_form(kind, **args) != ppoly.p(**args):
                shown = ", ".join("%s=%d" % item for item in case.items())
                bad.append("%s at %s" % (kind, shown))
        checks.append(
            CheckResult("%s form matches the recursion" % label, not bad, tuple(bad))
        )

    # the printed block exponent 10*m3^2 + 23*m3 against the recursion on
    # the two smallest pure-block cases, where the closed form must match
    lines = ["the block-count exponent is 10*m3^2 + 3*m3, not the printed 10*m3^2 + 23*m3"]
    ok = True
    for m3, s in ((1, 5), (2, 9)):
        truth = ppoly.p(0, 0, m3, s)
        corrected = ppoly.closed_form(ppoly.P00X, m1=0, m2=0, m3=m3, s=s)
        printed = QPoly.monomial(1, 10 * m3 * m3 + 23 * m3)
        lines.append(
            "m3=%d, s=%d: recursion %s; corrected %s (match=%s); printed %s (match=%s)"
            % (m3, s, truth.format_q(), corrected.format_q(), corrected == truth,
               printed.format_q(), printed == truth)
        )
        ok = ok and corrected == truth and printed != truth
    checks.append(CheckResult("exponent discrepancy report", ok, tuple(lines)))
    return SuiteResult("closed-forms", tuple(checks))


SUITES: dict[str, Callable[[Optional[int]], SuiteResult]] = {
    "appendix": suite_appendix,
    "examples": suite_examples,
    "products": suite_products,
    "forms": suite_forms,
    "corollary": suite_corollary,
    "closed-forms": suite_closed_forms,
}
