"""A fixed piece of pure-Python work that gauges how fast the host runs now.

The benchmark shares its cores with other tenants, and their load slows
every instruction stream on the core for seconds to minutes at a time.  The
probe is the benchmark's own code (it never calls qpartition), so a change
to the program cannot change it; its time, taken between jobs, tracks the
host's speed while the jobs run.
"""

from __future__ import annotations

import random
import time

from inputs import AtMostTwiceSampler, in_class


def probe_ms() -> float:
    """Time one pass of the probe, in ms (about 2 ms on an idle core)."""
    t0 = time.perf_counter()
    sampler = AtMostTwiceSampler(90)
    rng = random.Random(7)
    for n in range(60, 90, 3):
        in_class(sampler.sample(rng, n), "1")
    return (time.perf_counter() - t0) * 1e3
