import contextlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartition import cli, genfun, moves, partitions, ppoly
from qpartition.cli import main
from qpartition.partitions import KrVariant


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ppoly_prints_descending_polynomial(capsys):
    code, out, _ = run_cli(capsys, "ppoly", "--m1", "1", "--m2", "1", "--m3", "0", "--s", "3")
    assert code == 0
    assert out == "q^7\n"


def test_ppoly_json_terms(capsys):
    code, out, _ = run_cli(
        capsys, "ppoly", "--m1", "2", "--m2", "2", "--m3", "0", "--s", "6",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [[30, 1], [28, 2], [26, 2], [24, 2]]


def test_ppoly_parity_component(capsys):
    code, out, _ = run_cli(
        capsys, "ppoly", "--m1", "1", "--m2", "1", "--m3", "0", "--s", "4",
        "--parity", "0",
    )
    assert code == 0 and out == "q^9\n"


def test_decompose_trace_events(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--partition", "1,4,4", "--trace"
    )
    assert code == 0
    data = json.loads(out)
    assert data["trace"][0] == {
        "op": "backward", "pair": [4, 4], "result": [2, 3], "regroup": True,
    }


def test_compose_round_trips_the_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "compose",
        "--base", "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15",
        "--mu", "3,3,3,6,6",
        "--theta", "0,0,2,3,5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["partition"] == "2,4,4,5,6,6,8,8,9,12,12,14,14,16,20"
    assert data["weights"]["total"] == 140


def test_compose_validates_the_triple_once(capsys, monkeypatch):
    # one pass of make_decomposition, which no longer decomposes the base
    calls = []

    def counted(name):
        fn = getattr(moves, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("decompose", "make_decomposition"):
        monkeypatch.setattr(moves, name, counted(name))
    code, _, _ = run_cli(
        capsys,
        "compose",
        "--base", "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15",
        "--mu", "3,3,3,6,6",
        "--theta", "0,0,2,3,5",
    )
    assert code == 0 and calls == ["make_decomposition"]


def test_parts_are_checked_once_where_they_enter(capsys, monkeypatch):
    # as_parts runs once per outside partition; the package's own values skip it
    calls = []
    real_as_parts = partitions.as_parts

    def counted(p):
        calls.append(p)
        return real_as_parts(p)

    for module in (moves, partitions):
        monkeypatch.setattr(module, "as_parts", counted)
    d = moves.decompose((1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14))
    assert len(calls) == 1
    calls.clear()
    assert moves.compose(d) == (1, 4, 4, 5, 6, 6, 9, 10, 11, 12, 12, 14)
    assert calls == []
    code, _, _ = run_cli(
        capsys,
        "compose",
        "--base", "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15",
        "--mu", "3,3,3,6,6",
        "--theta", "0,0,2,3,5",
    )
    assert code == 0 and len(calls) == 1


def test_compose_names_the_immobile_zeros_theta_lacks(capsys):
    code, out, err = run_cli(
        capsys,
        "compose",
        "--base", "[1,2],[3,4],4,[6,6],[7,8],8,10,12",
        "--mu", "3,3,6,6",
        "--theta", "1,1,2,2",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: theta needs at least 1 zeros for the immobile singletons: (1, 1, 2, 2)\n"
    )


def test_seed_expand_reports_groups(capsys):
    code, out, _ = run_cli(
        capsys, "seed-expand",
        "--partition", "2,2,6,12,12,16,18,24,24", "--variant", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == "1,3,6,11,13,16,18,23,25"
    assert data["forced_prefix"] == 2
    assert data["groups"] == [
        {"start": 3, "stop": 5, "value": 4},
        {"start": 7, "stop": 9, "value": 8},
    ]
    assert len(data["partitions"]) == 4


def test_seed_expand_accepts_a_seed_directly(capsys):
    code, out, _ = run_cli(
        capsys, "seed-expand",
        "--partition", "3,5,8,11,13,19,21,23,25", "--variant", "1",
    )
    assert code == 0
    assert len(json.loads(out)["partitions"]) == 8


def test_kr_json_round_trips_the_series(capsys):
    code, out, _ = run_cli(
        capsys, "kr", "--variant", "1", "--form", "alternating",
        "--max-q", "10", "--max-t", "5", "--format", "json",
    )
    assert code == 0
    series = genfun.kr_alternating(KrVariant.from_label("1"), 10, 5)
    assert json.loads(out) == series.to_json_dict()
    assert series.coeff(4, 1) == 1 and series.coeff(4, 2) == 1


def test_kr_dispatches_to_the_routes(capsys):
    routes = {
        "brute": genfun.kr_brute,
        "alternating": genfun.kr_alternating,
        "positive": genfun.kr_positive,
        "product": lambda variant, max_q, max_t: genfun.product_side(variant, max_q),
    }
    for variant in KrVariant:
        for form, route in routes.items():
            code, out, err = run_cli(
                capsys, "kr", "--variant", str(variant.index), "--form", form,
                "--max-q", "14", "--max-t", "5", "--format", "json",
            )
            assert (code, err) == (0, ""), (variant, form)
            assert json.loads(out) == route(variant, 14, 5).to_json_dict(), (variant, form)
    # the product is the t = 1 identity: a valid --max-t is not read
    product = ("kr", "--variant", "2", "--form", "product", "--max-q", "20")
    zero, five = (run_cli(capsys, *product, "--max-t", t) for t in ("0", "5"))
    assert zero == five and zero[0] == 0


def test_kr_table_rows_are_sorted(capsys):
    code, out, _ = run_cli(
        capsys, "kr", "--variant", "3", "--form", "brute",
        "--max-q", "12", "--max-t", "3",
    )
    assert code == 0
    rows = [tuple(map(int, line.split("\t"))) for line in out.splitlines()]
    assert rows == sorted(rows)
    assert (4, 1, 1) in rows  # the partition "4"


@pytest.mark.parametrize("counts", [(2, 1, 0), (1, 2, 1), (3, 0, 0), (0, 3, 1)])
def test_bases_lists_every_base(capsys, counts):
    # every base is counted once by P at its s, so the listing has as many
    # rows as the P values have coefficients in all; no weight cap is needed
    m1, m2, m3 = counts
    argv = ["bases", "--m1", str(m1), "--m2", str(m2), "--m3", str(m3)]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    total = sum(sum(c for _, c in ppoly.p(*counts, s).terms()) for s in range(1, 40))
    assert len(json.loads(out)) == total


def test_output_is_deterministic(capsys):
    args = (
        "kr", "--variant", "2", "--form", "positive",
        "--max-q", "14", "--max-t", "6", "--format", "json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_suites_exit_zero(capsys):
    for suite in ("examples", "closed-forms"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0, out
        assert "PASS" in out


def test_verify_emits_the_exponent_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms")
    assert code == 0
    assert "10*m3^2 + 3*m3" in out and "10*m3^2 + 23*m3" in out


def test_invalid_partition_exits_two(capsys):
    code, _, err = run_cli(capsys, "decompose", "--partition", "3,2,1")
    assert code == 2
    assert "error" in err


_UNBALANCED = ("[1,2", "1,2]", "[[1,2]]")


@pytest.mark.parametrize(
    "base", ("[1,2],,2", "[1,2]2", "[a]", "[1,3]", "[2,3],1") + _UNBALANCED
)
def test_malformed_structure_exits_two(capsys, base):
    code, out, err = run_cli(
        capsys, "compose", "--base", base, "--mu", "0", "--theta", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and repr(base) in err
    assert "Traceback" not in err
    assert "substring not found" not in err and "invalid literal" not in err
    if base in _UNBALANCED:
        assert err == "error: structure %r has an unbalanced bracket\n" % base


@pytest.mark.parametrize(
    "mu,theta,err",
    [
        ("1", "x", "error: cannot parse theta 'x'\n"),
        ("3,,6", "0", "error: cannot parse mu '3,,6'\n"),
    ],
    ids=("theta", "mu"),
)
def test_compose_names_an_unparsable_mu_or_theta(capsys, mu, theta, err):
    code, out, got = run_cli(
        capsys,
        "compose",
        "--base", "[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15",
        "--mu", mu,
        "--theta", theta,
    )
    assert (code, out, got) == (2, "", err)


def test_invalid_variant_exits_two(capsys):
    code, _, err = run_cli(capsys, "kr", "--variant", "9", "--form", "brute")
    assert code == 2


@pytest.mark.parametrize("form", ("brute", "alternating", "positive", "product"))
def test_negative_window_exits_two(capsys, form):
    code, out, err = run_cli(capsys, "kr", "--variant", "1", "--form", form, "--max-q", "-1")
    assert (code, out) == (2, "") and "error" in err
    # the product form reads no --max-t, but refuses a negative one too
    code, out, err = run_cli(
        capsys, "kr", "--variant", "1", "--form", form, "--max-q", "3", "--max-t", "-5"
    )
    assert (code, out, err) == (2, "", "error: max_q and max_t must be >= 0\n")


@pytest.mark.parametrize("suite", ("products", "forms", "corollary"))
def test_negative_verify_window_exits_two(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-q", "-1")
    assert (code, out, err) == (2, "", "error: --max-q must be >= 0\n")


@pytest.mark.parametrize("suite", ("appendix", "examples", "closed-forms"))
def test_fixed_window_suite_refuses_max_q(capsys, suite):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-q", "3")
    assert (code, out) == (2, "")
    assert err == "error: --max-q does not apply to the %s suite\n" % suite


def test_recursion_too_deep_exits_two(capsys, monkeypatch):
    from qpartition import ppoly

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(ppoly, "p", too_deep)
    code, out, err = run_cli(capsys, "ppoly", "--m1", "0", "--m2", "0", "--m3", "1", "--s", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "too deep" in err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["kr", "--wrong-flag", "1"])
    assert info.value.code == 2


_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks(language):
    """The fenced code blocks of the README in the given language, as lists of lines."""
    blocks, block = [], None
    for line in _README.read_text().splitlines():
        if block is None:
            if line.strip() == "```" + language:
                block = []
        elif line.strip() == "```":
            blocks.append(block)
            block = None
        else:
            block.append(line)
    return blocks


def test_every_readme_command_runs(capsys):
    examples = [b for b in _readme_blocks("console") if b[0].startswith("$ qpartition")]
    assert examples, "no CLI examples found in the README"
    shown = 0
    for command, *expected in examples:
        argv = shlex.split(command[2:])[1:]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, command
        if expected:  # the README shows this command's output
            shown += 1
            assert out.splitlines() == expected, command
    assert shown == 6


def test_readme_library_sketch_prints_the_documented_line(capsys):
    (sketch,) = _readme_blocks("python")
    printed = [line for line in sketch if line.startswith("print(")]
    assert len(printed) == 1
    expected = printed[0].split("# ", 1)[1]
    exec("\n".join(sketch), {})
    assert capsys.readouterr().out == expected + "\n"


_TEXT = st.text(alphabet="[],-0123456789", max_size=14)


@st.composite
def _argv(draw):
    """Small-window argv for every subcommand, valid or not."""

    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    def parts(values=st.integers(-1, 14)):
        ints = st.lists(values, max_size=8)
        text = st.one_of(ints, ints.map(sorted)).map(lambda xs: ",".join(map(str, xs)))
        return draw(st.one_of(text, _TEXT))

    fmt = ["--format", draw(st.sampled_from(["table", "json"]))]
    command = draw(
        st.sampled_from(["kr", "ppoly", "decompose", "compose", "seed-expand", "bases", "verify"])
    )
    if command == "kr":
        return [
            "kr", "--variant", draw(st.sampled_from(["1", "2", "3", "4", "d''"])),
            "--form", draw(st.sampled_from(["brute", "alternating", "positive", "product"])),
            "--max-q", num(-1, 30), "--max-t", num(-1, 8),
        ] + fmt
    if command == "ppoly":
        argv = ["ppoly", "--m1", num(-1, 3), "--m2", num(-1, 3), "--m3", num(-1, 2)]
        argv += ["--s", num(-1, 20)]
        if draw(st.booleans()):
            argv += ["--parity", num(-1, 2)]
        return argv + fmt
    if command == "decompose":
        return ["decompose", "--partition", parts()] + ["--trace"] * draw(st.integers(0, 1)) + fmt
    if command == "compose":
        base = draw(st.one_of(st.just("[2,2],[3,4],4,[6,6]"), st.just("1,4,4"), _TEXT))
        mu, theta = parts(st.sampled_from([0, 3, 6])), parts(st.integers(0, 3))
        return ["compose", "--base", base, "--mu", mu, "--theta", theta] + fmt
    if command == "seed-expand":
        return ["seed-expand", "--partition", parts(), "--variant", num(0, 4)] + fmt
    if command == "bases":
        return ["bases", "--m1", num(-1, 2), "--m2", num(-1, 2), "--m3", num(-1, 1)] + fmt
    windowed = ("products", "forms", "corollary")
    suite = draw(st.sampled_from(("appendix", "examples", "closed-forms") + windowed))
    argv = ["verify", "--suite", suite]
    if suite in windowed or draw(st.booleans()):
        argv += ["--max-q", num(-1, 12)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def _captured(argv):
    """Exit code, stdout and stderr of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_ARGPARSE_EXITS = (["--help"], ["verify", "--help"], ["kr", "--wrong-flag", "1"])
_TRACED = (["decompose", "--partition", "1,4,4", "--trace"], ["decompose", "--partition", "1,4,4"])


@st.composite
def _argv_sequence(draw):
    """2-6 argvs: the traced and then the plain decompose of one partition,
    with up to four drawn argvs around and between them."""
    argvs = draw(
        st.lists(st.one_of(_argv(), st.sampled_from(_ARGPARSE_EXITS)), max_size=4)
    )
    at, to = sorted(draw(st.integers(0, len(argvs))) for _ in range(2))
    return argvs[:at] + [_TRACED[0]] + argvs[at:to] + [_TRACED[1]] + argvs[to:]


@settings(max_examples=30, deadline=None)
@given(_argv_sequence())
def test_shared_parser_answers_like_a_fresh_one(argvs):
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(_captured(argv))
    cli._parser.cache_clear()
    assert [_captured(argv) for argv in argvs] == fresh, argvs
    assert cli._parser.cache_info().misses == 1


def test_help_and_usage_errors():
    code, out, err = _captured(["--help"])
    assert (code, err) == (0, "")
    assert "{kr,ppoly,decompose,compose,seed-expand,bases,verify}" in out
    code, out, err = _captured(["verify", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: qpartition verify")
    code, out, err = _captured(["kr", "--wrong-flag", "1"])
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: --variant, --form\n")


def test_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: start-up time
    # that every command would pay
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import qpartition.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
