"""The pinned CLI outputs: one row per pinned ``qpartition`` command line.

Each row is a command line (split as a shell splits it), its exit code and
at most one check of its stdout: the exact bytes, their SHA-256, the same
exit code and stdout as another command line, or (for ``--help``, whose
layout differs across Python versions) a substring.  A row may also bound
the peak RSS of the command; such a row always runs as a child process that
reports its own peak.

Two runners read this table and share ``mismatches``:

* ``tests/test_pins.py`` runs every row through ``cli.main`` in the test
  process;
* ``PYTHONPATH=src python tests/pins.py`` runs every row as its own
  ``python -m qpartition.cli`` process, so the exit codes are those of
  ``sys.exit(main())``.  It names each row that fails and exits 1 if any
  does.

A window is only ever raised; a raised window updates its pin here.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
from typing import NamedTuple

import qpartition


class Pin(NamedTuple):
    """One pinned command line; at most one of the stdout checks is set."""

    command: str
    code: int = 0
    stdout: bytes | None = None  # the exact bytes
    sha256: str | None = None  # the SHA-256 of stdout, in hex
    same_as: str | None = None  # a command line with the same exit code and stdout
    contains: bytes | None = None  # a substring of stdout
    max_rss_mb: int | None = None  # a bound on the peak RSS, checked in a child

    @property
    def argv(self) -> list[str]:
        return shlex.split(self.command)


_BASE = '"[2,2],[3,4],4,[6,6],[7,8],8,[10,10],11,13,15"'
_WORKED = "1,4,4,5,6,6,9,10,11,12,12,14"

PINS = (
    Pin("--help", contains=b"{kr,ppoly,decompose,compose,seed-expand,bases,verify}"),
    Pin("verify --help"),
    Pin("verify --suite appendix"),
    Pin("verify --suite examples"),
    Pin("verify --suite products"),
    Pin("verify --suite closed-forms"),
    Pin("kr --variant 1 --form product --max-q 20"),
    # the brute walk and the positive sum against the alternating sum
    *(
        Pin(
            "kr --variant %d --form %s --max-q %d --max-t 12" % (v, form, max_q),
            same_as="kr --variant %d --form alternating --max-q %d --max-t 12" % (v, max_q),
        )
        for form, max_q in (("brute", 60), ("positive", 150))
        for v in (1, 2, 3)
    ),
    # the alternating sum on a wide window, byte for byte
    Pin(
        "kr --variant 1 --form alternating --max-q 1000 --max-t 31",
        sha256="d0af6e37cdbf43815fd0779e11a31eb5d3b74dd8ea9cdb230b1c14e6b14bb9a4",
    ),
    Pin(
        "kr --variant 2 --form alternating --max-q 1000 --max-t 31",
        sha256="408fa8f06013f7eb8e05f3143a88f7f92211c39fad46558b0ae5dfbdf7a46cff",
    ),
    Pin(
        "kr --variant 3 --form alternating --max-q 1000 --max-t 31",
        sha256="a3ccbed894ebace1ba4cc83bf177d5a6b635e0ef0aa9f73f46bcf7491a714cef",
    ),
    # the widest window the routes are checked on
    Pin(
        "kr --variant 1 --form alternating --max-q 2500 --max-t 50",
        sha256="575877d8067cc71d2c9344930237cdb6cdefd635d8ada6773606e79cc080cae9",
    ),
    Pin(
        "kr --variant 2 --form alternating --max-q 2500 --max-t 50",
        sha256="68713278b480135c1d9f89dfc901af8b7214018b6b836d11091bdec4b0982e2e",
    ),
    Pin(
        "kr --variant 3 --form alternating --max-q 2500 --max-t 50",
        sha256="cc164d8fe515d1b74736124bfdc85cf70cedfc10bf4227de792957b1a4c0176c",
    ),
    Pin("verify --suite forms"),
    Pin("verify --suite forms --max-q 24"),
    Pin("verify --suite appendix --max-q 3", code=2),
    Pin("verify --suite corollary"),
    # the suites that read H+ three times in one process, byte for byte
    Pin(
        "verify --suite forms --max-q 60",
        sha256="43fbf1b46d528afd5f4b026eff191b5912cd16cbf6d5f72b58b863a1c424fe27",
    ),
    Pin(
        "verify --suite corollary --max-q 60",
        sha256="029eb168d57ff177965db3c34314d6e8b721f1baf94267d97bc1d96a60be7afa",
    ),
    Pin(
        "ppoly --m1 2 --m2 1 --m3 1 --s 10",
        stdout=b"q^64 + 2q^62 + q^61 + 3q^60 + q^59 + 2q^58 + 3q^57 + q^56 + 2q^55 + 2q^53\n",
    ),
    Pin(
        "ppoly --m1 3 --m2 0 --m3 0 --s 5 --parity 0 --format json",
        stdout=b"[[18, 1], [16, 1], [14, 1]]\n",
    ),
    Pin("ppoly --m1 0 --m2 3 --m3 0 --s 5 --parity 0", stdout=b"0\n"),
    # a mixed shape whose descent reads all three rows of the recursion table
    Pin(
        "ppoly --m1 1 --m2 2 --m3 2 --s 13 --format json",
        sha256="be2343dbb9f5d3cbcc77dc2f5e072142a3253c846b1e1ccc47196ac7b31bd1f0",
    ),
    # no repeating pair, both parities nonzero: P1 by (I) and P0 by (II) of
    # the ppoly docstring, through blocks
    Pin(
        "ppoly --m1 0 --m2 30 --m3 6 --s 60 --format json",
        sha256="b9958bca6a8897ebe466e9b8a140a7d070a5f112ad2fcdad4cf203030995d8cb",
    ),
    # above the middle of its support, read off its mirror by (III) of the
    # ppoly docstring
    Pin(
        "ppoly --m1 60 --m2 0 --m3 0 --s 100 --format json",
        sha256="bfaaabd6aecf6c4c7f8e778963bf9c0aa57f1f97c421d69a70ac5bc473872684",
    ),
    # P1 by (I), then its twin P0(60,0,0,100) by (III)
    Pin(
        "ppoly --m1 0 --m2 61 --m3 0 --s 101 --format json",
        sha256="a694a281335ae6e86306c70a85a63f8ee5d25489df574e54b8cbaecfc888e406",
    ),
    # q^2 pair lattices mixed with block shifts: the raw sums spread bodies
    # onto finer lattices
    Pin(
        "ppoly --m1 10 --m2 10 --m3 2 --s 35 --format json",
        sha256="5663a16844e2ac367d4236ddb4d619d646b1e4e25488eb8e7b7fc2f322024d25",
    ),
    # a peak that holds the memo only with one stored tuple per distinct body
    # and each palindromic body's ints held once
    Pin(
        "ppoly --m1 150 --m2 0 --m3 0 --s 225 --format json",
        sha256="562249fac4efb63aed8154bccac6f4e848f87a2b4c2d87d529e1f94f6ad37369",
        max_rss_mb=200,
    ),
    Pin("bases --m1 0 --m2 0 --m3 1", stdout=b"[1,2],2,[4,4]\t13\t4\t0\n"),
    # bases has no --max-weight option (every base listing is finite), so
    # this row pins argparse's refusal of an unknown option
    Pin("bases --m1 1 --m2 0 --m3 0 --max-weight 5", code=2),
    Pin("bases --m1 -1 --m2 0 --m3 0", code=2),
    Pin(
        "decompose --partition " + _WORKED,
        stdout=b'{"partition": "1,4,4,5,6,6,9,10,11,12,12,14", '
        b'"base": "[1,2],[3,4],4,[6,6],[7,8],8,10,12", "mu": "3,3,6,6", '
        b'"theta": "0,1,2,2", "n2": 4, "n11": 1, "n12": 3, '
        b'"weights": {"total": 94, "base": 71, "mu": 18, "theta": 5}}\n',
    ),
    Pin(
        "compose --base %s --mu 3,3,3,6,6 --theta 0,0,2,3,5 --format table" % _BASE,
        stdout=b"2,4,4,5,6,6,8,8,9,12,12,14,14,16,20\n",
    ),
    Pin(
        "seed-expand --partition 4,4,8,11,13,19,21,23,25 --variant 1 --format table",
        sha256="b3fb02cd7a043bd052f1f81e8c87a8b5d2af224164ba9e9a98536c6dd41119f4",
    ),
    # unsorted parts and a triple are refused where they enter
    Pin('compose --base 3,1 --mu "" --theta 0,0', code=2),
    Pin("decompose --partition 2,2,2", code=2),
    # a bad triple is refused by its constructor: mu not a multiple of 3,
    # theta without its immobile zeros
    Pin("compose --base %s --mu 3,3,3,6,5 --theta 0,0,2,3,5" % _BASE, code=2),
    Pin("compose --base %s --mu 3,3,3,6,6 --theta 0,1,2,3,5" % _BASE, code=2),
    # the move traces of both worked examples, byte for byte
    Pin(
        "decompose --partition %s --trace" % _WORKED,
        sha256="c78e7d4c4866131aab8050a765e0b3f15f0c2cde00e504f29e00c0384ff9850e",
    ),
    Pin(
        "compose --base %s --mu 3,3,3,6,6 --theta 0,0,2,3,5 --trace" % _BASE,
        sha256="0f4fb0bcdf5a54487645223b7f4a0f4bece2bc2de9789542c79a83874a9db2ee",
    ),
    # a long trace each way: 22 pair moves (17 regroups) and 7 singleton
    # slides, and their inverse
    Pin(
        "decompose --partition 1,1,3,4,4,6,9,9,10,12,13,13,15,17,18,18,20,23,23,24 --trace",
        sha256="bf07b316c589ea213ee1c9717a5e65f288279cdb0a7ab562a8f42345fbe8a91a",
    ),
    Pin(
        'compose --base "[1,1],[2,2],[3,3],[5,5],[6,6],[7,7],8,10,12,14,16,18,20,22"'
        " --mu 0,3,9,12,18,24 --theta 0,1,1,1,1,1,2,2 --trace",
        sha256="c618756c6bad6ae8bcfff5649a3c0172623539368b1b29c51b59acdad8b601b8",
    ),
)


def mismatches(pin: Pin, run) -> list[str]:
    """What breaks one row, one line each; empty if the row holds.

    ``run(argv)`` returns the exit code and stdout bytes of one CLI call.
    A row with ``max_rss_mb`` runs through ``run_measured`` instead.
    """
    problems = []
    if pin.max_rss_mb is None:
        code, out = run(pin.argv)
    else:
        code, out, peak_mb = run_measured(pin.argv)
        if not peak_mb < pin.max_rss_mb:  # a NaN peak fails too
            problems.append("peak RSS %.0f MB, bound %d MB" % (peak_mb, pin.max_rss_mb))
    if code != pin.code:
        problems.append("exit code %s, pinned %d" % (code, pin.code))
    if pin.stdout is not None and out != pin.stdout:
        problems.append("stdout %r, pinned %r" % (out, pin.stdout))
    digest = hashlib.sha256(out).hexdigest()
    if pin.sha256 is not None and digest != pin.sha256:
        problems.append("stdout SHA-256 %s, pinned %s" % (digest, pin.sha256))
    if pin.same_as is not None and run(shlex.split(pin.same_as)) != (code, out):
        problems.append("exit code or stdout differs from `%s`" % pin.same_as)
    if pin.contains is not None and pin.contains not in out:
        problems.append("stdout lacks %r" % pin.contains)
    return problems


# the child runs the package this process imported
_SRC = str(pathlib.Path(qpartition.__file__).resolve().parents[1])
_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
)


def run_process(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of ``python -m qpartition.cli *argv``."""
    command = [sys.executable, "-m", "qpartition.cli", *argv]
    done = subprocess.run(command, capture_output=True, env=_ENV)
    return done.returncode, done.stdout


# ``python -m qpartition.cli`` that writes its own peak RSS to stderr last:
# in the parent, RUSAGE_CHILDREN would read the largest child seen so far
_MEASURED = """\
import resource, runpy, sys
try:
    runpy.run_module("qpartition.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\npeak RSS %d KiB\\n" % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def run_measured(argv: list[str]) -> tuple[int, bytes, float]:
    """Exit code, stdout and peak RSS in MB (NaN if the child reported
    none) of the CLI run in a child process; ru_maxrss is in KiB on Linux."""
    done = subprocess.run([sys.executable, "-c", _MEASURED, *argv], capture_output=True, env=_ENV)
    reported = re.findall(rb"^peak RSS (\d+) KiB$", done.stderr, re.MULTILINE)
    peak_mb = int(reported[-1]) / 1024 if reported else math.nan
    sys.stderr.write("peak RSS %.0f MB: %s\n" % (peak_mb, shlex.join(argv)))
    return done.returncode, done.stdout, peak_mb


def main() -> int:
    failed = 0
    for pin in PINS:
        problems = mismatches(pin, run_process)
        failed += bool(problems)
        print("%s  %s" % ("FAIL" if problems else "ok  ", pin.command))
        for problem in problems:
            print("      " + problem)
        sys.stdout.flush()  # keep the rows in step with the children's stderr
    print("%d of %d pins hold" % (len(PINS) - failed, len(PINS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
