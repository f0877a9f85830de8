"""The four workloads: inputs from a seed, the timed job, and its check.

Each workload exposes ``build(seed, scale) -> (jobs, stats)``,
``run(job) -> output`` (the only timed code), ``check(job, output)`` and
``canonical(job, output)``.  Jobs are JSON lists, so the input digest is a
digest of the job list.  ``check`` returns (label, got, expected) triples
computed by a route independent of the one the job used; a job passes when
every ``got`` equals its ``expected``.

Why these four (the rationale is also recorded in BENCHMARK.json):

* verify_suites   -- the six ``qpartition verify`` commands users run, at
  small windows; brute enumeration (``partitions``) dominates, plus the
  dense ``BiSeries.mul``.
* routes          -- positive/alternating/product routes over ranges of
  windows with no brute work; the ``BiSeries`` kernel dominates,
  ``ppoly.p`` calls are shallow memo hits.
* ppoly_cold      -- P values climbing all five closed-form shapes from a
  cold memo, plus small mixed shapes; ``QPoly`` and ``ppoly`` dominate and
  the memo sets peak memory.
* moves_roundtrip -- backward and forward moves side by side on thousands of
  random at-most-twice partitions, plus seed expansions and base
  enumerations; ``moves`` and ``seeds`` dominate.

Every job is short (at most a few hundred milliseconds), so the speed
probes run.py calibrates against are taken close to the work they scale.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from inputs import VARIANTS, AtMostTwiceSampler, in_class, random_class_partition

def _variant(label: str):
    from qpartition.partitions import KrVariant

    return KrVariant.from_label(label)


def _terms(series) -> list:
    return [series.max_q, series.max_t, [[m, n, str(c)] for m, n, c in series.items()]]


# ------------------------------------------------------------ verify_suites

class VerifySuites:
    """All six verify commands through cli.main: the three fixed suites once,
    and products, forms and corollary once at every ``--max-q`` of a pinned
    range of small windows.

    Each command takes at most a few hundred milliseconds, and the windows
    are large enough that brute enumeration still takes most of the time.
    The windows are pinned so every seed does the same work; the seed sets
    the order the commands are issued in.
    """

    FIXED = ("appendix", "examples", "closed-forms")
    WINDOWS = {
        "full": {"products": range(20, 61, 10), "forms": range(18, 25), "corollary": range(20, 27)},
        "tiny": {"products": range(10, 13), "forms": range(8, 11), "corollary": range(8, 11)},
    }

    def build(self, seed: int, scale: str):
        jobs = [["verify", "--suite", suite] for suite in self.FIXED]
        for suite, windows in self.WINDOWS[scale].items():
            jobs.extend(["verify", "--suite", suite, "--max-q", str(q)] for q in windows)
        random.Random(seed).shuffle(jobs)
        return jobs, {"commands": len(jobs), "windows": {k: [v.start, v.stop - 1]
                                                         for k, v in self.WINDOWS[scale].items()}}

    def run(self, job):
        from qpartition import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(job)
        return code, buf.getvalue()

    def check(self, job, output):
        code, text = output
        bad = [
            line for line in text.splitlines()
            if not (line.startswith("ok  ") or line.startswith("     ")
                    or (line.startswith("suite ") and line.endswith(": PASS")))
        ]
        has_summary = any(line.endswith(": PASS") for line in text.splitlines())
        return [("exit code", code, 0), ("non-ok lines", bad, []), ("summary line", has_summary, True)]

    def canonical(self, job, output):
        return list(output)


# ------------------------------------------------------------------- routes

class Routes:
    """Positive vs alternating, the t = 1 marginal vs the product, and
    h_positive vs h_product, each over a pinned range of windows.

    One job is one window of one route pair and takes tens of milliseconds.
    Windows are pinned so every seed does the same work; the seed sets the
    order the jobs are issued in.
    """

    WINDOWS = {
        "full": {"kr": [(q, 12) for q in range(40, 66, 5)], "marginal": range(80, 141, 10),
                 "h": [(q, 12) for q in range(24, 35, 2)]},
        "tiny": {"kr": [(20, 6)], "marginal": [30], "h": [(12, 6)]},
    }

    def build(self, seed: int, scale: str):
        w = self.WINDOWS[scale]
        jobs = []
        for v in VARIANTS:
            jobs.extend(["positive_vs_alternating", v, q, t] for q, t in w["kr"])
            jobs.extend(["marginal_vs_product", v, q] for q in w["marginal"])
        jobs.extend(["h_positive_vs_product", q, t] for q, t in w["h"])
        random.Random(seed).shuffle(jobs)
        return jobs, {"jobs": len(jobs), "largest": {"kr": list(w["kr"][-1]), "marginal": w["marginal"][-1],
                                                     "h": list(w["h"][-1])}}

    def run(self, job):
        from qpartition import genfun

        kind = job[0]
        if kind == "positive_vs_alternating":
            v = _variant(job[1])
            return genfun.kr_positive(v, job[2], job[3]), genfun.kr_alternating(v, job[2], job[3])
        if kind == "marginal_vs_product":
            v, max_q = _variant(job[1]), job[2]
            # a class partition with m parts weighs at least m^2
            marginal = genfun.kr_alternating(v, max_q, math.isqrt(max_q)).t_marginal()
            return marginal, genfun.product_side(v, max_q)
        return genfun.h_positive(job[1], job[2]), genfun.h_product(job[1], job[2])

    def check(self, job, output):
        left, right = output
        return [("%s: left = right" % job[0], _terms(left), _terms(right))]

    def canonical(self, job, output):
        return [_terms(s) for s in output]


# ---------------------------------------------------------------- ppoly_cold

def _support(m1: int, m2: int, m3: int) -> tuple[int, int]:
    """s-range where P(m1,m2,m3,s) can be nonzero (pure blocks: one s)."""
    if m1 == 0 and m2 == 0:
        return 4 * m3 + 1, 4 * m3 + 1
    return m1 + m2 + 4 * m3 + 1, 2 * (m1 + m2) + 4 * m3 + 1


class PpolyCold:
    """Single P(m1,m2,m3,s) values climbing every closed-form shape from a
    cold memo, plus a few small mixed shapes.

    Each shape is a chain of families of growing size (px00 and p0x0 up to
    m = 50, p00x up to m3 = 20, px0x and p0xx up to m = 24 with m3 = 5).
    A job is one call ``p(m1, m2, m3, s)``; a family's values come after the
    whole of the family below it, so each job adds one layer to the memo and
    takes milliseconds, while the run as a whole fills the same memo as the
    largest families would from cold.  The chains are pinned; the seed
    interleaves them, orders the s values within each family, and picks the
    mixed shapes and where they go.  px00, p0x0 and the mixed shapes are also
    evaluated one step past each end of their support, where P must vanish;
    px0x and p0xx have a closed form only at s = m + 4*m3 + 1.
    """

    TOP = {"full": {"x": 50, "m3": 20, "xm": 24, "xm3": 5},
           "tiny": {"x": 6, "m3": 3, "xm": 3, "xm3": 1}}
    MIXED_POOL = [(m1, m2, m3) for m3 in (0, 1) for m1 in range(1, 4) for m2 in range(1, 4)
                  if m1 + m2 <= (4 if m3 == 0 else 3)]

    @staticmethod
    def _s_values(kind: str, m1: int, m2: int, m3: int) -> list[int]:
        if kind in ("px0x", "p0xx"):
            return [m1 + m2 + 4 * m3 + 1]
        lo, hi = _support(m1, m2, m3)
        if kind == "p00x":
            return [lo]
        return list(range(max(1, lo - 1), hi + 2))

    def build(self, seed: int, scale: str):
        rng = random.Random(seed)
        top = self.TOP[scale]
        chains = [
            [("px00", m, 0, 0) for m in range(1, top["x"] + 1)],
            [("p0x0", 0, m, 0) for m in range(1, top["x"] + 1)],
            [("p00x", 0, 0, m) for m in range(1, top["m3"] + 1)],
            [("px0x", m, 0, top["xm3"]) for m in range(1, top["xm"] + 1)],
            [("p0xx", 0, m, top["xm3"]) for m in range(1, top["xm"] + 1)],
        ]
        families = []
        while chains:  # a random merge that keeps each chain climbing
            chain = rng.choices(chains, weights=[len(c) for c in chains])[0]
            families.append(chain.pop(0))
            chains = [c for c in chains if c]
        for shape in rng.sample(self.MIXED_POOL, 3 if scale == "full" else 1):
            families.insert(rng.randrange(len(families) + 1), ("mixed", *shape))
        jobs = []
        for kind, m1, m2, m3 in families:
            s_values = self._s_values(kind, m1, m2, m3)
            rng.shuffle(s_values)
            jobs.extend([kind, m1, m2, m3, s] for s in s_values)
        stats = {
            "families": len(families),
            "p_values": len(jobs),
            "max_m": max(j[1] + j[2] + j[3] for j in jobs),
            "shapes": sorted({j[0] for j in jobs}),
        }
        return jobs, stats

    def run(self, job):
        from qpartition import ppoly

        _, m1, m2, m3, s = job
        return ppoly.p(m1, m2, m3, s)

    def check(self, job, output):
        from qpartition import ppoly

        kind, m1, m2, m3, s = job
        if kind == "mixed":
            expected = (ppoly.p_oracle(m1, m2, m3, s, 0) + ppoly.p_oracle(m1, m2, m3, s, 1)).coeffs
        else:
            expected = ppoly.closed_form(kind, m1=m1, m2=m2, m3=m3, s=s).coeffs
        return [("P%s vs %s" % ((m1, m2, m3, s), "oracle" if kind == "mixed" else kind),
                 output.coeffs, expected)]

    def canonical(self, job, output):
        return list(output.coeffs)


# ----------------------------------------------------------- moves_roundtrip

class MovesRoundtrip:
    """decompose then compose on uniform random at-most-twice partitions,
    seed transforms on random class partitions, and a few base enumerations.

    Weights are stratified (every weight in the range equally often) so the
    total work hardly depends on the seed; the seed picks the partitions.
    """

    SIZES = {
        "full": {"roundtrips": 3000, "weights": (20, 200), "seeds": 1000, "bases": 6},
        "tiny": {"roundtrips": 40, "weights": (5, 30), "seeds": 12, "bases": 2},
    }
    BASE_POOL = [(2, 1, 0), (1, 2, 0), (2, 2, 0), (3, 1, 0), (1, 3, 0), (1, 1, 1),
                 (2, 1, 1), (1, 2, 1), (1, 0, 2), (3, 2, 0)]

    def build(self, seed: int, scale: str):
        size = self.SIZES[scale]
        rng = random.Random(seed)
        lo, hi = size["weights"]
        sampler = AtMostTwiceSampler(hi)
        jobs = []
        for i in range(size["roundtrips"]):
            jobs.append(["roundtrip", list(sampler.sample(rng, lo + i % (hi - lo + 1)))])
        for i in range(size["seeds"]):
            v = VARIANTS[i % 3]
            jobs.append(["seed", v, list(random_class_partition(rng, v, rng.randint(lo, hi)))])
        for m1, m2, m3 in rng.sample(self.BASE_POOL, size["bases"]):
            _, top = _support(m1, m2, m3)
            jobs.append(["bases", m1, m2, m3, (2 * m1 + 2 * m2 + 5 * m3) * top])
        rng.shuffle(jobs)
        trips = [j[1] for j in jobs if j[0] == "roundtrip"]
        stats = {
            "roundtrips": len(trips),
            "mean_weight": sum(map(sum, trips)) / len(trips),
            "mean_length": sum(map(len, trips)) / len(trips),
            "class_partitions": size["seeds"],
            "base_shapes": size["bases"],
        }
        return jobs, stats

    def run(self, job):
        from qpartition import moves, seeds

        kind = job[0]
        if kind == "roundtrip":
            d = moves.decompose(job[1])
            return d, moves.compose(d)
        if kind == "seed":
            v = _variant(job[1])
            return seeds.expand_seed(seeds.to_seed(job[2], v), v)
        return moves.enumerate_bases(*job[1:])

    def check(self, job, output):
        kind = job[0]
        if kind == "roundtrip":
            d, back = output
            parts = tuple(job[1])
            split = sum(d.base.parts) + sum(d.mu) + sum(d.theta)
            return [("compose(decompose(p)) = p", back, parts), ("weights sum", split, sum(parts))]
        if kind == "seed":
            parts, v = tuple(job[2]), job[1]
            return [
                ("p in expand_seed(to_seed(p))", parts in output, True),
                ("outputs in the class", all(in_class(q, v) for q in output), True),
                ("outputs distinct, same weight and length",
                 sorted({(sum(q), len(q)) for q in output}) + [len(set(output)) == len(output)],
                 [(sum(parts), len(parts)), True]),
            ]
        from qpartition import ppoly

        m1, m2, m3, _ = job[1:]
        _, top = _support(m1, m2, m3)
        got: dict = {}
        for rec in output:
            got.setdefault((rec.largest_pair_index + 1, rec.parity), []).append(rec.weight)
        got_polys, want_polys = [], []
        for s in range(1, top + 2):
            for parity in (0, 1):
                weights = got.get((s, parity), [])
                coeffs = [0] * (max(weights) + 1 if weights else 0)
                for w in weights:
                    coeffs[w] += 1
                got_polys.append(coeffs)
                want_polys.append(list(ppoly.p_parity(m1, m2, m3, s, parity).coeffs))
        return [("bases%s by weight vs the P recursion" % ((m1, m2, m3),), got_polys, want_polys)]

    def canonical(self, job, output):
        kind = job[0]
        if kind == "roundtrip":
            d, back = output
            return [str(d.base), list(d.mu), list(d.theta), list(back)]
        if kind == "seed":
            return [list(q) for q in output]
        return [[str(r.structure), r.weight, r.largest_pair_index, r.parity] for r in output]


WORKLOADS = {
    "verify_suites": VerifySuites(),
    "routes": Routes(),
    "ppoly_cold": PpolyCold(),
    "moves_roundtrip": MovesRoundtrip(),
}
