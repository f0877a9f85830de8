"""Command-line front door.

Subcommands: kr, ppoly, decompose, compose, seed-expand, bases, verify.
Each handler but verify's returns its JSON object and its table lines, and
``main`` prints the one ``--format`` asks for; verify's returns its suite
result, whose report ``main`` prints and whose outcome sets the exit code.
Output is deterministic for fixed arguments; JSON is UTF-8 with a stable key
order and a trailing newline.  Exit codes: 0 success, 1 verification
mismatch, 2 invalid input (including input too deep for the recursion).
``main(argv)`` returns the exit code (argparse itself exits on ``--help``
and on a malformed command line) and may be called any number of times in
one process; the parser is built on the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import genfun, moves, ppoly, seeds, verify
from .partitions import KrVariant, format_parts, parse_ints, parse_parts
from .series import check_window


def _kr_product(variant, max_q, max_t):
    check_window(max_q, max_t)
    return genfun.product_side(variant, max_q)


# the kr routes by --form, in the order --help lists them; the product is
# the t = 1 identity and reads no --max-t
_KR_FORMS = {
    "brute": genfun.kr_brute,
    "alternating": genfun.kr_alternating,
    "positive": genfun.kr_positive,
    "product": _kr_product,
}


def _cmd_kr(args):
    series = _KR_FORMS[args.form](KrVariant.from_label(args.variant), args.max_q, args.max_t)
    rows = sorted((n, m, c) for m, n, c in series.items())
    return series.to_json_dict(), ["%d\t%d\t%d" % row for row in rows]


def _cmd_ppoly(args):
    if args.parity is None:
        poly = ppoly.p(args.m1, args.m2, args.m3, args.s)
    else:
        poly = ppoly.p_parity(args.m1, args.m2, args.m3, args.s, args.parity)
    return [[e, c] for e, c in reversed(poly.terms())], [poly.format_q()]


def _decomposition_dict(d: moves.Decomposition, partition) -> dict:
    return {
        "partition": format_parts(partition),
        "base": str(d.base),
        "mu": format_parts(d.mu),
        "theta": format_parts(d.theta),
        "n2": d.n2,
        "n11": d.n11,
        "n12": d.n12,
        "weights": {
            "total": d.total_weight,
            "base": d.base_weight,
            "mu": d.mu_weight,
            "theta": d.theta_weight,
        },
    }


def _cmd_decompose(args):
    parts = parse_parts(args.partition)
    trace = [] if args.trace else None
    d = moves.decompose(parts, trace)
    out = _decomposition_dict(d, parts)
    if args.trace:
        out["trace"] = trace
    lines = ["%s\t%s" % (key, out[key]) for key in ("partition", "base", "mu", "theta")]
    lines.append(
        "weights\t%d = %d + %d + %d"
        % (d.total_weight, d.base_weight, d.mu_weight, d.theta_weight)
    )
    return out, lines


def _cmd_compose(args):
    base = moves.parse_structure(args.base)
    # the constructor validates the triple, and compose trusts it;
    # parse_structure has already checked that the base is the greedy
    # tagging of its parts
    d = moves.Decomposition(
        base, parse_ints(args.mu, "mu"), parse_ints(args.theta, "theta")
    )
    trace = [] if args.trace else None
    parts = moves.compose(d, trace)
    out = _decomposition_dict(d, parts)
    if args.trace:
        out["trace"] = trace
    return out, [format_parts(parts)]


def _cmd_seed_expand(args):
    variant = KrVariant.from_label(args.variant)
    parts = parse_parts(args.partition)
    try:
        seed = seeds.to_seed(parts, variant)
    except ValueError:
        seed = parts  # accept a seed (or almost-seed) directly
    dec = seeds.seed_decomposition(seed, variant)
    expansion = [format_parts(p) for p in seeds.expand_seed(seed, variant)]
    out = {
        "partition": format_parts(parts),
        "variant": str(variant.index),
        "seed": format_parts(seed),
        "mu": format_parts(dec.mu),
        "forced_prefix": dec.forced_prefix,
        "groups": [
            {"start": g.start, "stop": g.stop, "value": g.value} for g in dec.groups
        ],
        "partitions": expansion,
    }
    return out, expansion


def _cmd_bases(args):
    records = moves.enumerate_bases(args.m1, args.m2, args.m3)
    rows = [
        {
            "parts": format_parts(rec.structure.parts),
            "structure": str(rec.structure),
            "weight": rec.weight,
            "largest_pair_index": rec.largest_pair_index,
            "parity": rec.parity,
        }
        for rec in records
    ]
    lines = [
        "%s\t%d\t%d\t%d"
        % (row["structure"], row["weight"], row["largest_pair_index"], row["parity"])
        for row in rows
    ]
    return rows, lines


def _cmd_verify(args):
    if args.max_q is not None and args.max_q < 0:
        raise ValueError("--max-q must be >= 0")
    return verify.SUITES[args.suite](args.max_q)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call: parsing keeps no state in it, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="qpartition",
        description="Exact generating functions, seed expansions, and the "
        "move bijection for three restricted partition classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kr = sub.add_parser("kr", help="emit a class generating function")
    kr.add_argument("--variant", required=True, help="1, 2 or 3")
    kr.add_argument(
        "--form",
        required=True,
        choices=list(_KR_FORMS),
        help="series route; product is the t = 1 identity",
    )
    kr.add_argument("--max-q", type=int, default=40)
    kr.add_argument("--max-t", type=int, default=12)
    kr.add_argument("--format", choices=("table", "json"), default="table")
    kr.set_defaults(fn=_cmd_kr)

    pp = sub.add_parser("ppoly", help="evaluate a base-partition polynomial")
    pp.add_argument("--m1", type=int, required=True)
    pp.add_argument("--m2", type=int, required=True)
    pp.add_argument("--m3", type=int, required=True)
    pp.add_argument("--s", type=int, required=True)
    pp.add_argument("--parity", type=int, choices=(0, 1), default=None)
    pp.add_argument("--format", choices=("table", "json"), default="table")
    pp.set_defaults(fn=_cmd_ppoly)

    de = sub.add_parser("decompose", help="run backward moves to the base")
    de.add_argument("--partition", required=True, help="comma-separated parts")
    de.add_argument("--trace", action="store_true", help="include the move log")
    de.add_argument("--format", choices=("table", "json"), default="json")
    de.set_defaults(fn=_cmd_decompose)

    co = sub.add_parser("compose", help="run forward moves from a triple")
    co.add_argument("--base", required=True, help="bracket structure or plain parts")
    co.add_argument("--mu", required=True, help="comma-separated multiples of 3")
    co.add_argument("--theta", required=True, help="comma-separated offsets")
    co.add_argument("--trace", action="store_true")
    co.add_argument("--format", choices=("table", "json"), default="json")
    co.set_defaults(fn=_cmd_compose)

    se = sub.add_parser("seed-expand", help="expand a seed into its class")
    se.add_argument("--partition", required=True, help="class partition or seed")
    se.add_argument("--variant", required=True, help="1, 2 or 3")
    se.add_argument("--format", choices=("table", "json"), default="json")
    se.set_defaults(fn=_cmd_seed_expand)

    ba = sub.add_parser("bases", help="enumerate base structures")
    ba.add_argument("--m1", type=int, required=True)
    ba.add_argument("--m2", type=int, required=True)
    ba.add_argument("--m3", type=int, required=True)
    ba.add_argument("--format", choices=("table", "json"), default="table")
    ba.set_defaults(fn=_cmd_bases)

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    ve.add_argument("--max-q", type=int, default=None)
    ve.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        out = args.fn(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RecursionError:
        sys.stderr.write("error: input too deep for the recursion\n")
        return 2
    if args.command == "verify":
        lines, code = out.render(), 0 if out.ok else 1
    else:
        obj, lines = out
        if args.format == "json":
            lines = [json.dumps(obj, ensure_ascii=False)]
        code = 0
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
