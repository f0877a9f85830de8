"""Verification suites: golden tables, worked examples, and series identities.

Each suite is a list of independent named checks returning (ok, lines),
run in order and reported in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import genfun, moves, ppoly, seeds
from .appendix_data import TABLE_ERRATA, golden_entries
from .partitions import KrVariant, format_parts


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    lines: tuple[str, ...] = ()


@dataclass(frozen=True)
class SuiteResult:
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


def _run(suite: str, checks: list[tuple[str, Callable[[], tuple[bool, list[str]]]]]) -> SuiteResult:
    outcomes = [fn() for _, fn in checks]
    results = tuple(
        CheckResult(name, ok, tuple(lines))
        for (name, _), (ok, lines) in zip(checks, outcomes)
    )
    return SuiteResult(suite, results)


# ---------------------------------------------------------------- appendix

def suite_appendix() -> SuiteResult:
    def check_tables():
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
        lines = ["%d tabulated values recomputed" % count] + bad
        return not bad, lines

    def check_errata():
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
        return ok, lines

    return _run(
        "appendix",
        [
            ("recursion reproduces the tabulated polynomials", check_tables),
            ("table errata are pinned to the enumeration oracle", check_errata),
        ],
    )


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


def suite_examples() -> SuiteResult:
    def check_expansion(spec, variant):
        def run():
            lines = []
            seed = seeds.to_seed(spec["source"], variant)
            if seed != spec["seed"]:
                return False, ["seed transform gave %s" % (seed,)]
            got = seeds.expand_seed(spec["seed"], variant)
            want = sorted(spec["expected"])
            if got != want:
                lines.append("expansion gave %d partitions:" % len(got))
                lines.extend("  " + format_parts(p) for p in got)
                return False, lines
            return True, ["%d partitions, all as listed" % len(got)]

        return run

    def check_decompose():
        ex = _DECOMPOSE_EXAMPLE
        d = moves.decompose(ex["partition"])
        lines = ["base %s, mu %s, theta %s" % (d.base, d.mu, d.theta)]
        ok = (
            str(d.base) == ex["base"]
            and d.mu == ex["mu"]
            and d.theta == ex["theta"]
            and (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight)
            == ex["weights"]
            and moves.compose(d) == ex["partition"]
        )
        return ok, lines

    def check_compose():
        ex = _COMPOSE_EXAMPLE
        base = moves.parse_structure(ex["base"])
        d = moves.make_decomposition(base, ex["mu"], ex["theta"])
        out = moves.compose(d)
        lines = ["composed %s" % format_parts(out)]
        ok = (
            out == ex["partition"]
            and (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight)
            == ex["weights"]
            and str(moves.decompose(out).base) == ex["base"]
        )
        return ok, lines

    return _run(
        "examples",
        [
            (
                "seed expansion generates the eight listed partitions",
                check_expansion(_SEED_EXPANSION_D, KrVariant.D),
            ),
            (
                "almost-seed expansion generates the four listed partitions",
                check_expansion(_SEED_EXPANSION_DPRIME, KrVariant.DPRIME),
            ),
            ("backward moves split 94 as 71 + 18 + 5", check_decompose),
            ("forward moves rebuild the weight-140 partition", check_compose),
        ],
    )


# ---------------------------------------------------------------- products

def suite_products(max_q: int = 60) -> SuiteResult:
    def check_variant(variant):
        def run():
            marg = genfun.kr_alternating(
                variant, max_q, genfun.marginal_max_t(max_q)
            ).t_marginal()
            prod = genfun.product_side(variant, max_q)
            report = genfun.compare(marg, prod)
            return report.equal, report.lines("series", "product")

        return run

    def check_two_printings():
        report = genfun.compare(
            genfun.product_side(KrVariant.DPRIME, max_q),
            genfun.product_side_mod12(KrVariant.DPRIME, max_q),
        )
        return report.equal, report.lines("mod 6", "mod 12")

    checks = [
        (
            "class %d series at t = 1 equals its product to q^%d"
            % (variant.index, max_q),
            check_variant(variant),
        )
        for variant in KrVariant
    ]
    checks.append(("the two printings of the class 2 product agree", check_two_printings))
    return _run("products", checks)


# ------------------------------------------------------------------- forms

def suite_forms(max_q: int = 30, alt_max_q: int = 40) -> SuiteResult:
    max_t, alt_max_t = 10, 12  # fixed: --max-q rescales q only

    def check_variant(variant):
        def run():
            brute = genfun.kr_brute(variant, alt_max_q, alt_max_t)
            ok, lines = True, []
            for label, series, window in (
                ("alternating", genfun.kr_alternating(variant, alt_max_q, alt_max_t),
                 (alt_max_q, alt_max_t)),
                ("positive", genfun.kr_positive(variant, max_q, max_t), (max_q, max_t)),
                ("marker", genfun.kr_marker(variant, 2, max_q, max_t), (max_q, max_t)),
            ):
                report = genfun.compare(brute, series)
                lines += ["%s vs brute on q <= %d, t <= %d" % (label, *window)]
                lines += report.lines("brute", label)
                ok = ok and report.equal
            return ok, lines

        return run

    checks = [
        ("class %d: brute = alternating = positive = marker" % variant.index,
         check_variant(variant))
        for variant in KrVariant
    ]
    return _run("forms", checks)


# --------------------------------------------------------------- corollary

def suite_corollary(max_q: int = 40) -> SuiteResult:
    max_t = 12  # fixed: --max-q rescales q only

    def run():
        brute = genfun.h_brute(max_q, max_t)
        prod = genfun.h_product(max_q, max_t)
        pos = genfun.h_positive(max_q, max_t)
        r1 = genfun.compare(brute, prod)
        r2 = genfun.compare(brute, pos)
        lines = r1.lines("brute", "product") + r2.lines("brute", "positive")
        return r1.equal and r2.equal, lines

    return _run(
        "corollary",
        [
            (
                "at-most-twice: brute = product = positive to q^%d, t^%d"
                % (max_q, max_t),
                run,
            )
        ],
    )


# ------------------------------------------------------------ closed forms

def suite_closed_forms() -> SuiteResult:
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

    def check_form(kind, cases):
        def run():
            bad = []
            for case in cases:
                args = {"m1": 0, "m2": 0, "m3": 0, **case}
                args.setdefault("s", args["m1"] + args["m2"] + 4 * args["m3"] + 1)
                if ppoly.closed_form(kind, **args) != ppoly.p(**args):
                    shown = ", ".join("%s=%d" % item for item in case.items())
                    bad.append("%s at %s" % (kind, shown))
            return not bad, bad

        return run

    def check_report():
        report = ppoly.exponent_discrepancy_report()
        lines = [
            "the block-count exponent is %s, not the printed %s"
            % (report["corrected"], report["printed"])
        ]
        ok = True
        for w in report["witnesses"]:
            lines.append(
                "m3=%d, s=%d: recursion %s; corrected %s (match=%s); printed %s (match=%s)"
                % (
                    w["m3"],
                    w["s"],
                    w["recursion"],
                    w["corrected_exponent"],
                    w["corrected_matches"],
                    w["printed_exponent"],
                    w["printed_matches"],
                )
            )
            ok = ok and w["corrected_matches"] and not w["printed_matches"]
        return ok, lines

    return _run(
        "closed-forms",
        [
            ("%s form matches the recursion" % label, check_form(kind, cases))
            for kind, cases, label in table
        ]
        + [("exponent discrepancy report", check_report)],
    )


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "appendix": suite_appendix,
    "examples": suite_examples,
    "products": suite_products,
    "forms": suite_forms,
    "corollary": suite_corollary,
    "closed-forms": suite_closed_forms,
}
