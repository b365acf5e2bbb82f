"""Micro layer of the traced run.

Field ``+ * ==`` on F_13, F_9 = F_3[t]/(t^2 + 1) and Q, and ``rref`` and
``PresentedLevel.canonicalize`` over F_13 at widths 20, 50 and 120.  The
operands are drawn from the benchmark's seed; every figure is a median over
repeats.  These run untraced.
"""

from __future__ import annotations

import operator
import random
import statistics
from time import perf_counter

from greenbox.fields import extension_field, prime_field, rationals
from greenbox.linalg import Mat, rref
from greenbox.presented import PresentedLevel

FIELDS = {
    "fp": lambda: prime_field(13),
    "fpk": lambda: extension_field(3, (1, 0, 1)),
    "q": rationals,
}
OPS = {"add": operator.add, "mul": operator.mul, "eq": operator.eq}
FIELD_OPERANDS = 4000
FIELD_REPEATS = 7

# width -> repeats of rref; canonicalize is timed on 4 * repeats vectors
WIDTHS = {20: 15, 50: 5, 120: 3}


def field_ops(seed: int) -> dict:
    """``fields.<field>.<op>_ns``: nanoseconds per operation."""
    rng = random.Random(seed)
    out = {}
    for fname, make in FIELDS.items():
        K = make()
        xs = [K.random(rng) for _ in range(FIELD_OPERANDS)]
        ys = [K.random(rng) for _ in range(FIELD_OPERANDS)]
        for oname, op in OPS.items():
            samples = []
            for _ in range(FIELD_REPEATS):
                t0 = perf_counter()
                list(map(op, xs, ys))
                samples.append(perf_counter() - t0)
            out[f"fields.{fname}.{oname}_ns"] = \
                statistics.median(samples) / FIELD_OPERANDS * 1e9
    return out


def elimination(seed: int) -> dict:
    """``linalg.rref_w<W>_s`` for a random W×W matrix and
    ``presented.canonicalize_w<W>_s`` per vector, on a level with W
    generators and about 0.9·W random relations (the shape of the top level
    of the C_6 relative box: 50 generators, relation rank 44)."""
    rng = random.Random(seed + 1)
    K = prime_field(13)
    out = {}
    for w, repeats in WIDTHS.items():
        samples = []
        for _ in range(repeats):
            mat = Mat(K, _rows(K, rng, w, w), ncols=w)
            t0 = perf_counter()
            rref(mat)
            samples.append(perf_counter() - t0)
        out[f"linalg.rref_w{w}_s"] = statistics.median(samples)

        level = PresentedLevel(K, [f"g{j}" for j in range(w)],
                               _rows(K, rng, w * 9 // 10, w))
        samples = []
        for v in _rows(K, rng, 4 * repeats, w):
            t0 = perf_counter()
            level.canonicalize(v)
            samples.append(perf_counter() - t0)
        out[f"presented.canonicalize_w{w}_s"] = statistics.median(samples)
    return out


def _rows(K, rng, count, width) -> list:
    return [tuple(K.random(rng) for _ in range(width)) for _ in range(count)]
