"""Spans and counters around the calls into each qpartition module.

The tracer wraps public functions from outside the library: it replaces
each function at every place it is reachable (its defining module, every
module that imported it by name, dict tables such as ``verify.SUITES``, and
class attributes including aliases like ``BiSeries.__add__``), records while
``active`` is true, and puts every original object back on ``uninstall``.

A span is (name, start, end, parent) within one run id.  Self time is a
span's duration minus the durations of its direct children; since the
program is single-threaded, children never overlap, so the subtraction is
exact.  Calls that happen tens of thousands of times inside a span that is
already measured (the brute predicate, single pair moves, the P parity
recursion) are counted but not timed, so their cost stays in the enclosing
span instead of being inflated by span bookkeeping.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# (module, attribute path, span name, kind); kind "span" times the call,
# "count" only counts it.  Extra handlers below add per-call counters.
TARGETS = (
    ("partitions", "brute_series", "partitions.brute_series", "span"),
    ("series", "BiSeries.add", "series.add", "span"),
    ("series", "BiSeries.mul", "series.mul", "span"),
    ("series", "BiSeries.mul_geometric_inverse", "series.mul_geometric_inverse", "span"),
    ("series", "BiSeries.mul_monomial", "series.mul_monomial", "span"),
    ("series", "BiSeries.is_nonnegative", "series.is_nonnegative", "span"),
    ("series", "BiSeries.is_zero", "series.is_zero", "span"),
    ("series", "BiSeries.t_marginal", "series.t_marginal", "span"),
    ("series", "BiSeries.from_qpoly", "series.from_qpoly", "span"),
    ("series", "BiSeries.monomial", "series.monomial", "span"),
    ("series", "QPoly.__add__", "series.QPoly.add", "span"),
    ("series", "QPoly.shifted", "series.QPoly.shifted", "span"),
    ("series", "QPoly.stretched", "series.QPoly.stretched", "span"),
    ("series", "QPoly.is_nonnegative", "series.QPoly.is_nonnegative", "span"),
    ("ppoly", "p", "ppoly.p", "span"),
    ("ppoly", "p_parity", "ppoly.p_parity", "count"),
    ("ppoly", "closed_form", "ppoly.closed_form", "span"),
    ("ppoly", "p_oracle", "ppoly.p_oracle", "span"),
    ("moves", "decompose", "moves.decompose", "span"),
    ("moves", "compose", "moves.compose", "span"),
    ("moves", "make_decomposition", "moves.make_decomposition", "span"),
    ("moves", "backward_move", "moves.backward_move", "count"),
    ("moves", "forward_move", "moves.forward_move", "count"),
    ("moves", "enumerate_bases", "moves.enumerate_bases", "span"),
    ("seeds", "to_seed", "seeds.to_seed", "span"),
    ("seeds", "expand_seed", "seeds.expand_seed", "span"),
    ("genfun", "kr_brute", "genfun.kr_brute", "span"),
    ("genfun", "kr_alternating", "genfun.kr_alternating", "span"),
    ("genfun", "kr_positive", "genfun.kr_positive", "span"),
    ("genfun", "product_side", "genfun.product_side", "span"),
    ("genfun", "product_side_mod12", "genfun.product_side_mod12", "span"),
    ("genfun", "h_brute", "genfun.h_brute", "span"),
    ("genfun", "h_product", "genfun.h_product", "span"),
    ("genfun", "h_positive", "genfun.h_positive", "span"),
    ("genfun", "compare", "genfun.compare", "span"),
    ("cli", "main", "cli.main", "span"),
)

LAYERS = ("partitions", "series", "ppoly", "moves", "seeds", "genfun", "verify", "cli")

# groups whose summed self time is reported as a share of the traced wall time
SHARE_GROUPS = (
    "partitions", "series.BiSeries", "series.QPoly", "ppoly", "moves", "seeds",
    "genfun", "verify", "cli",
)

SELF_S = (
    "partitions.brute_series", "series.mul_geometric_inverse", "series.add",
    "series.mul", "series.is_nonnegative", "series.QPoly.add",
    "series.QPoly.is_nonnegative", "series.QPoly.shifted", "ppoly.p",
    "moves.decompose", "moves.compose", "moves.make_decomposition",
    "moves.enumerate_bases", "seeds.to_seed", "seeds.expand_seed",
    "genfun.compare", "cli.main",
)
CALLS = (
    "series.mul_geometric_inverse", "series.add", "series.mul", "series.QPoly.add",
    "ppoly.p", "ppoly.p_parity", "moves.decompose", "moves.backward_move",
    "moves.forward_move",
)
TOTAL_S = (
    "genfun.kr_brute", "genfun.kr_alternating", "genfun.kr_positive",
    "genfun.product_side", "genfun.h_brute", "genfun.h_product", "genfun.h_positive",
)
SUITES = ("appendix", "examples", "products", "forms", "corollary", "closed-forms")


def _share_group(name: str) -> str:
    if name.startswith("series.QPoly."):
        return "series.QPoly"
    if name.startswith("series."):
        return "series.BiSeries"
    return name.split(".", 1)[0]


class Tracer:
    """Span and counter store for one traced run; install/uninstall patches."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nested: list[bool] = []  # an enclosing span has the same name
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._seen_errors: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _error(self, name: str, exc: BaseException) -> None:
        if not any(e is exc for e in self._seen_errors):
            self._seen_errors.append(exc)
            self.counters[name.split(".", 1)[0] + ".errors"] += 1

    def _span(self, name: str, fn, on_call=None, on_result=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                args = on_call(args)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.nested.append(tracer._open[name] > 0)
            tracer._stack.append(idx)
            tracer._open[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(name, exc)
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn, on_result=None):
        tracer = self
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counters[key] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(name, exc)
                raise
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------- patching

    def _handlers(self, name: str):
        """Per-call counters for the targets that have them."""
        c = self.counters
        if name == "partitions.brute_series":
            def wrap_pred(args):
                pred = args[0]

                def counted(parts):
                    ok = pred(parts)
                    c["partitions.pred.calls"] += 1
                    if ok:
                        c["partitions.pred.accepted"] += 1
                    return ok

                return (counted,) + tuple(args[1:])

            return wrap_pred, None
        if name == "series.mul_geometric_inverse":
            def cells(args):
                s, dt, dq = args[0], args[1], args[2]
                rows = s.max_t + 1 - dt if dt else s.max_t + 1
                c["series.mul_geometric_inverse.cells"] += max(rows, 0) * max(s.max_q + 1 - dq, 0)
                return args

            return cells, None
        if name == "series.mul":
            def cells(args):
                a, b = args[0], args[1]
                t, q = min(a.max_t, b.max_t) + 1, min(a.max_q, b.max_q) + 1
                c["series.mul.cells"] += (t * (t + 1) // 2) * (q * (q + 1) // 2)
                return args

            return cells, None
        if name == "ppoly.p":
            def coeffs(args, result):
                dense = result.coeffs
                c["ppoly.p.coeffs"] += len(dense)
                c["ppoly.p.nonzero"] += len(dense) - dense.count(0)

            return None, coeffs
        if name == "moves.backward_move":
            def hits(args, result):
                if result is not None:
                    c["moves.backward_move.hits"] += 1

            return None, hits
        if name == "seeds.expand_seed":
            def outputs(args, result):
                c["seeds.expand_seed.outputs"] += len(result)

            return None, outputs
        return None, None

    def install(self) -> None:
        """Wrap every target at every site it is reachable from."""
        from qpartition import verify

        modules = _package_modules()
        plan = []
        for module, path, name, kind in TARGETS:
            owner, attr = _resolve(modules[module], path)
            plan.append((owner, attr, name, kind))
        for suite in verify.SUITES:
            plan.append((verify.SUITES, suite, "verify." + suite, "span"))
        for owner, attr, name, kind in plan:
            raw = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            on_call, on_result = self._handlers(name)
            if kind == "span":
                wrapper = self._span(name, fn, on_call, on_result)
            else:
                wrapper = self._count(name, fn, on_result)
            replacement = classmethod(wrapper) if is_cm else wrapper
            for site, key in _sites(modules, raw, owner, attr):
                self._set(site, key, replacement)

    def _set(self, site, key, value) -> None:
        if isinstance(site, dict):
            self._patches.append((site, key, site[key]))
            site[key] = value
        else:
            self._patches.append((site, key, site.__dict__[key]))
            setattr(site, key, value)

    def uninstall(self) -> None:
        """Put back every replaced object, newest first."""
        self.active = False
        while self._patches:
            site, key, original = self._patches.pop()
            if isinstance(site, dict):
                site[key] = original
            else:
                setattr(site, key, original)

    # ---------------------------------------------------------- summarizing

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of this run; ``wall_s`` is the traced job time."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        group_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            self_s[name] += dur - child[i]
            group_s[_share_group(name)] += dur - child[i]
            calls[name] += 1
            if not self.nested[i]:
                total_s[name] += dur
        c = self.counters
        m: dict[str, float] = {}
        for name in SELF_S:
            m[name + ".self_s"] = self_s[name]
        for name in CALLS:
            m[name + ".calls"] = c[name + ".calls"] if name + ".calls" in c else calls[name]
        for name in TOTAL_S:
            m[name + ".total_s"] = total_s[name]
        for suite in SUITES:
            m["verify.%s.total_s" % suite] = total_s["verify." + suite]
        for name in ("series.mul_geometric_inverse.cells", "series.mul.cells",
                     "partitions.pred.calls", "partitions.pred.accepted",
                     "ppoly.p.coeffs", "seeds.expand_seed.outputs"):
            m[name] = c[name]
        m["partitions.pred.accept_ratio"] = _ratio(c["partitions.pred.accepted"], c["partitions.pred.calls"])
        m["ppoly.p.fill_ratio"] = _ratio(c["ppoly.p.nonzero"], c["ppoly.p.coeffs"])
        m["moves.backward_move.hit_ratio"] = _ratio(c["moves.backward_move.hits"], c["moves.backward_move.calls"])
        for layer in LAYERS:
            m[layer + ".errors"] = c[layer + ".errors"]
        for group in SHARE_GROUPS:
            m[group + ".self_share"] = _ratio(group_s[group], wall_s)
        return m

    def write_spans(self, path: str) -> None:
        """Write the spans as gzip JSON: a name table and one row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [
            [index[self.names[i]], self.starts[i], self.ends[i], self.parents[i]]
            for i in range(len(self.names))
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"run_id": self.run_id, "names": table,
                       "columns": ["name", "start", "end", "parent"], "spans": rows,
                       "counters": dict(self.counters)}, fh)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _package_modules() -> dict:
    import qpartition
    from qpartition import appendix_data, cli, genfun, moves, partitions, ppoly, seeds, series, verify

    return {
        "qpartition": qpartition, "appendix_data": appendix_data, "cli": cli,
        "genfun": genfun, "moves": moves, "partitions": partitions, "ppoly": ppoly,
        "seeds": seeds, "series": series, "verify": verify,
    }


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _sites(modules: dict, raw, owner, attr):
    """Every (site, key) holding ``raw``: the owner first, then aliases.

    Aliases are class attributes bound to the same object (``__add__ = add``),
    names imported into other package modules, and values of module-level
    dicts (``verify.SUITES``).
    """
    sites = [(owner, attr)]
    containers = []
    if isinstance(owner, type):
        containers.append(owner)
    for mod in modules.values():
        containers.append(mod)
        containers.extend(v for v in vars(mod).values() if isinstance(v, dict))
    for box in containers:
        items = box.items() if isinstance(box, dict) else vars(box).items()
        for key, value in list(items):
            if value is raw and not any(b is box and k == key for b, k in sites):
                sites.append((box, key))
    return sites


def patched_attributes() -> dict:
    """Every function-like object the tracer may replace, by dotted name.

    Comparing two snapshots by identity shows whether a patch survived.
    """
    modules = _package_modules()
    snap = {}

    def visit(prefix, mapping):
        for key, value in list(mapping.items()):
            if callable(value) or isinstance(value, (classmethod, staticmethod)):
                snap["%s.%s" % (prefix, key)] = value

    for mod_name, mod in modules.items():
        visit(mod_name, vars(mod))
        for key, value in vars(mod).items():
            if isinstance(value, dict):
                visit("%s.%s" % (mod_name, key), value)
            elif isinstance(value, type) and value.__module__.startswith("qpartition"):
                visit("%s.%s" % (mod_name, key), vars(value))
    return snap
