"""Set-up time of a greenbox CLI call, measured in a fresh interpreter.

    python3 bench/setup_probe.py <src dir> <config> [<config> ...]

Times ``import greenbox``, then ``load_config`` and ``RunConfig.extension()``
for each config, and prints two numbers on stdout: the seconds rescaled to
the reference host speed (hostspeed.py), then the wall seconds, both without
the time of the speed probes.  Every CLI call pays this cost before it
computes anything.
"""

import sys
import time

import hostspeed

with hostspeed.Sampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from greenbox.report import load_config  # noqa: E402  (imports greenbox)

    for path in sys.argv[2:]:
        load_config(path).extension()
    t1 = time.perf_counter()
print(sampler.scaled(t0, t1), sampler.unscaled(t0, t1))
