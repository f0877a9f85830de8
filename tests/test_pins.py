"""Every row of tests/pins.py through ``cli.main`` in this process, and the
shared checker against planted faults."""

import contextlib
import io
import math
import re
import shlex

import pins
import pytest
from pins import PINS, mismatches

from qpartition import cli


def run_in_process(argv):
    """Exit code and stdout bytes of one ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help and an unknown option
            code = exc.code
    return code, out.getvalue().encode()


def _short(command):
    """The command with each quoted base structure cut to its first pair,
    which still tells the rows apart in a short test name."""
    return re.sub(r'"(\[[^]]*\])[^"]*"', r"\1...", command)


@pytest.mark.parametrize("pin", PINS, ids=[_short(pin.command) for pin in PINS])
def test_pin(pin):
    assert mismatches(pin, run_in_process) == []


_ROWS = {pin.command: pin for pin in PINS}


def _flip(code, out):
    """The same run with one byte of stdout changed."""
    i = len(out) // 2
    return code, out[:i] + bytes([out[i] ^ 1]) + out[i + 1 :]


@pytest.mark.parametrize(
    "row, planted, plant, report",
    [
        ("ppoly --m1 2 --m2 1 --m3 1 --s 10", None, _flip, "stdout "),
        ("decompose --partition 1,4,4,5,6,6,9,10,11,12,12,14 --trace", None, _flip, "SHA-256"),
        (
            "kr --variant 2 --form brute --max-q 60 --max-t 12",
            "kr --variant 2 --form alternating --max-q 60 --max-t 12",
            _flip,
            "differs from",
        ),
        ("--help", None, lambda code, out: (code, out.replace(b"{kr,", b"{ks,")), "lacks"),
        ("decompose --partition 2,2,2", None, lambda code, out: (0, out), "exit code 0, pinned 2"),
    ],
    ids=("bytes", "sha256", "same-as", "contains", "exit-code"),
)
def test_a_planted_change_is_reported(row, planted, plant, report):
    target = shlex.split(planted or row)

    def run(argv):
        result = run_in_process(argv)
        return plant(*result) if argv == target else result

    (problem,) = mismatches(_ROWS[row], run)
    assert report in problem


_BOUNDED = next(pin for pin in PINS if pin.max_rss_mb)


@pytest.mark.parametrize(
    "peak_mb", (_BOUNDED.max_rss_mb, math.nan), ids=("at-the-bound", "unreported")
)
def test_a_peak_at_the_bound_or_unreported_is_reported(monkeypatch, peak_mb):
    # the pinned bytes are not at hand without the child run, so only the peak is read
    monkeypatch.setattr(pins, "run_measured", lambda argv: (0, b"", peak_mb))
    problems = mismatches(_BOUNDED._replace(sha256=None), run_in_process)
    assert problems == ["peak RSS %.0f MB, bound %d MB" % (peak_mb, _BOUNDED.max_rss_mb)]
