"""Exact arithmetic for three restricted partition classes.

The package computes, in exact integer arithmetic, the alternating and the
evidently positive generating functions of the Kanade-Russell partition
classes kr1/kr2/kr3, the at-most-twice class and its move bijection, the
base-partition polynomial family P(m1, m2, m3, s; q), and the t = 1 infinite
products -- plus the brute-force enumeration oracles everything is verified
against.  See README.md for the CLI.
"""

from .partitions import KrVariant, check_at_most_twice, check_kr
from .series import BiSeries, QPoly

__all__ = [
    "BiSeries",
    "KrVariant",
    "QPoly",
    "check_at_most_twice",
    "check_kr",
]

__version__ = "0.1.0"
