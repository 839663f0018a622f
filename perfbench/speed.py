"""A speed probe that scales measured times to one reference speed of the CPU.

On a shared host the CPU the benchmark runs on switches between speeds: when
other tenants load the same core, a fixed computation takes up to 1.8 times
as long, in phases from under a second to several minutes, on one CPU or on
both.  Thread CPU time slows alike, so no clock filters it out, and taking
each item's fastest pass only removes the short phases.

The probe is a fixed small-matrix numpy computation of the same character as
the estimators' inner loops, written here so that no change to the program
changes it: a batch of 16 unit vectors in C^8 is perturbed, renormalized and
pushed through an 8x8 matrix, and the centres <Bu, u> and spreads
||Bu - <Bu, u> u|| are formed, 40 times; then 16 eigenvalue computations of
an 8x8 Hermitian matrix.  It takes about a millisecond.  Timing it right
before and right after an item tells the speed the item ran at; the item's
time multiplied by ``REF_S / probe time`` is the time it would have taken at
the reference speed, the one at which the probe takes ``REF_S`` (about this
benchmark's machine when no other load shares its core).
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 1.0e-3  # probe time at the reference speed


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.bt = b.T.copy()
        self.h = b + b.conj().T
        self.u = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))

    def __call__(self) -> float:
        """Seconds one run of the fixed computation takes now."""
        bt, h, u = self.bt, self.h, self.u
        t0 = time.perf_counter()
        for j in range(40):
            up = u.copy()
            up[:, j % 8] += 1e-6
            un = up / np.linalg.norm(up, axis=1, keepdims=True)
            bu = un @ bt
            c = np.einsum("ij,ij->i", un.conj(), bu)
            np.abs(c) + np.linalg.norm(bu - c[:, None] * un, axis=1)
        for _ in range(16):
            np.linalg.eigvalsh(h)
        return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to the reference speed."""
    return REF_S / (0.5 * (before + after))
