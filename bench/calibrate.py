"""How fast the shared machine runs at the moment, from a fixed kernel.

The host's other tenants slow every process on it for stretches of seconds,
by 40 % and more.  ``sample()`` times a kernel that never changes and does
not call radwalk: standard normal draws, a batched Gram product and a
batched matrix product over 8 MB and 32 MB arrays, the shape of the work
the orbit sampler does.  Contention slows memory-bound work most; a kernel
of interpreter loops and small numpy calls followed the program less
closely (bench/README.md).  ``run.py`` takes a sample after every timed
pass and scales each call by ``REFERENCE_S`` over the mean of the samples
on either side of its pass, so that a pass made while the machine is slow
reads about what it would have read at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference machine in a quiet stretch (bench/README.md).
REFERENCE_S = 0.150


def sample() -> float:
    """Seconds the fixed kernel takes now."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for m in (512, 2048):
        g = rng.standard_normal((m, 1000, 2))
        gram = np.einsum("mpi,mpj->mij", g, g)
        float((g @ gram).sum())
    return time.perf_counter() - start
