"""Timing harness comparing the production forward transform with its reference.

``sft_direct`` runs the reference analysis, which contracts the whole grid per
order (O(b^4)).  ``sft_sepvar`` runs the production analysis by separation of
variables: a longitude DFT (one real GEMM for b <= 32, an FFT along longitude
above), then one batched Legendre matmul over all orders (O(b^3)).  Medians over repeated runs keep scheduler noise out of the
comparison.
"""

from __future__ import annotations

import time

import numpy as np

from .grid import make_grid
from .harmonics import build_table
from .sft import SphericalSignal, sft_direct, sft_sepvar


def benchmark_sft(bandwidths: list[int], reps: int = 10, seed: int = 0) -> dict:
    """Median wall times per bandwidth for both transform paths."""
    results = {}
    rng = np.random.default_rng(seed)
    for b in bandwidths:
        table = build_table(make_grid(b))
        sig = SphericalSignal(table.grid, rng.standard_normal((1, 2 * b, 2 * b)))
        sft_direct(sig, table)  # warm caches before timing
        sft_sepvar(sig, table)
        t_direct, t_sepvar = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            sft_direct(sig, table)
            t_direct.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            sft_sepvar(sig, table)
            t_sepvar.append(time.perf_counter() - t0)
        results[b] = dict(
            direct_median_s=float(np.median(t_direct)),
            sepvar_median_s=float(np.median(t_sepvar)),
            reps=reps,
        )
    return results
