"""Seeded closed-loop workloads over the spheresig library.

Each workload builds its inputs from the workload seed in ``__init__`` (part
of set-up), runs one operation per ``op`` call, and checks that operation's
output in ``check``, which the runner calls outside the timed window.  The
library only ever receives the generated inputs.

``tiny=True`` shrinks every size so the self-test runs in seconds; the
benchmark proper always runs the full sizes.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from spheresig import align, equivariance, mesh, network, rotation, sft, synth

HIT_DEG = 11.25  # acceptance 08: a pair is recovered within 11.25 degrees
LATTICE = 16  # align_shapes' default coarse lattice points per Euler angle
FD_TOL = 1e-4  # acceptance 09: finite-difference relative error
FD_EPS = 1e-5
EXACT_TOL = 1e-6  # acceptance 05: bandlimited linear spectral-pool row


def _geodesic_deg(r1: np.ndarray, r2: np.ndarray) -> float:
    cos = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def _lattice_cell(r) -> list:
    """The corners of the coarse ``so3_correlate`` lattice cell holding ``r``."""
    n = LATTICE
    ia, ig = (int(np.floor(ang / (2 * np.pi / n))) for ang in (r.alpha, r.gamma))
    ib = min(int(np.floor(r.beta / (np.pi / n))), n - 1)
    return [
        rotation.RotationZYZ(2 * np.pi * (a % n) / n, np.pi * b / n, 2 * np.pi * (g % n) / n)
        for a in (ia, ia + 1)
        for b in sorted({ib, min(ib + 1, n - 1)})
        for g in (ig, ig + 1)
    ]


def _blob_pairs(b: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-channel blob signals, (count, 2, 2b, 2b), with their class labels."""
    per_class = -(-count // 3)
    first = synth.make_blob_dataset(b, per_class, seed, canonical_pose=False)
    second = synth.make_blob_dataset(b, per_class, seed + 1, canonical_pose=False)
    order = np.random.default_rng(seed).permutation(3 * per_class)[:count]
    x = np.stack(
        [np.concatenate([first.signals[i].values, second.signals[i].values]) for i in order]
    )
    return x, first.labels[order]


class Align:
    """``align_shapes`` on a star mesh and a Haar-randomly rotated copy.

    Ray casting in ``mesh`` and lattice scoring in ``align``/``rotation`` do
    nearly all the work; ``sft`` is about 1 ms of an op and ``network`` none.
    """

    POOL = 16

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.b = 16 if tiny else 32
        n_theta, n_phi = (8, 16) if tiny else (16, 32)
        rng = np.random.default_rng(seed)
        self.pairs = []
        for i in range(2 if tiny else self.POOL):
            shape = synth.star_mesh(
                seed=seed + i, n_theta=n_theta, n_phi=n_phi, amplitude=0.3, sharpness=(4, 9)
            )
            r = rotation.random_rotations(1, seed=int(rng.integers(2**32)))[0]
            self.pairs.append((shape, shape.transformed(r.matrix()), r))
        self.hits = 0
        self.checked = 0

    def op(self, i: int):
        shape, moved, r = self.pairs[i % len(self.pairs)]
        return align.align_shapes(shape, moved, b=self.b, truth=r)

    def _correlations(self, i: int, rotations) -> list[float]:
        """Correlation scores Re <R a, b> of the two projections' spectra,
        computed through ``rotate_spectrum`` rather than the lattice code."""
        shape, moved, _ = self.pairs[i % len(self.pairs)]
        table = network.shared_table(self.b)
        fa, fb = (
            sft.sft_sepvar(mesh.project_mesh(m, self.b).signal, table) for m in (shape, moved)
        )
        return [float(np.vdot(fb.coeffs, rotation.rotate_spectrum(fa, r).coeffs).real)
                for r in rotations]

    def check(self, i: int, res) -> bool:
        """Recovered within 11.25 degrees, or as good as the search promises.

        ``align_shapes`` maximizes the correlation over the coarse ZYZ
        lattice and refines around the best cell, so its result scores at
        least as high as every lattice point, in particular the eight around
        the planted rotation.  About 3% of random pairs miss 11.25 degrees
        because a lattice point elsewhere scores higher (acceptance 08 allows
        5%); such a result is what the search specifies, and passes.
        """
        truth = self.pairs[i % len(self.pairs)][2]
        self.checked += 1
        if not np.isfinite(res.score):
            return False
        if _geodesic_deg(res.rotation.matrix(), truth.matrix()) <= HIT_DEG:
            self.hits += 1
            return True
        found, *cell = self._correlations(i, [res.rotation, *_lattice_cell(truth)])
        return found >= max(cell) - 1e-9 * abs(max(cell))

    def hit_ratio(self) -> float:
        return self.hits / self.checked if self.checked else 0.0


class Train:
    """One ``backward`` + ``adam_update`` step of ``two_branch_config(32, 40)``
    on a batch of 8, then one ``predict`` of a fixed held-out batch of 8.

    The channel-mixing einsums in ``network`` and the ``sft`` kernels and
    adjoints dominate; ``mesh`` and ``align`` do nothing.  The forward-only
    ``predict`` runs beside the backward path, so a change that speeds the
    step by moving work into the forward pass makes the op slower.
    """

    def __init__(self, seed: int, tiny: bool = False) -> None:
        b = 16 if tiny else 32
        self.batch = 2 if tiny else 8
        self.cfg = network.two_branch_config(b, 40)
        self.params = network.init_parameters(self.cfg, seed=seed)
        self.schedule = network.TrainSchedule()
        self.x, self.y = _blob_pairs(b, 4 * self.batch, seed)
        self.held_out, _ = _blob_pairs(b, self.batch, seed + 7)
        self.infer_s: list[float] = []
        self._fd_point = None

    def _batch(self, i: int):
        k = i % (len(self.x) // self.batch)
        sl = slice(k * self.batch, (k + 1) * self.batch)
        return self.x[sl], self.y[sl]

    def start(self) -> None:
        """Keep the parameters of the first timed step for its gradient check."""
        self._fd_point = copy.deepcopy(self.params)
        self.infer_s.clear()

    def op(self, i: int):
        x, y = self._batch(i)
        loss, grads = network.backward(self.cfg, self.params, x, y)
        network.adam_update(self.params, grads, self.schedule.learning_rate, self.schedule)
        t = time.perf_counter()
        labels = network.predict(self.cfg, self.params, self.held_out)
        self.infer_s.append(time.perf_counter() - t)
        return loss, grads, labels

    def _loss(self, params, x, y) -> float:
        logits, _, _ = network._forward_batch(self.cfg, params, x)
        return network.softmax_cross_entropy(logits, y)[0]

    def check(self, i: int, out) -> bool:
        """Finite loss and gradients and in-range labels.  The first timed op
        also passes two reference checks: a central finite-difference check of
        the largest entry of each branch's last filter tensor, and batched
        labels equal to the per-sample ``forward`` argmax (ties allowed).

        Earlier layers sit below thousands of ReLU kinks, where central
        differences miss the exact gradient by up to 1e-2 at any step size.
        """
        loss, grads, labels = out
        if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
            return False
        labels = np.asarray(labels)
        if labels.shape != (self.batch,) or not np.all(
            (labels >= 0) & (labels < self.cfg.num_classes)
        ):
            return False
        if i != 0 or self._fd_point is None:
            return True
        grid = network.shared_table(self.cfg.input_bandwidth).grid
        logits = np.stack(
            [network.forward(self.cfg, self.params, sft.SphericalSignal(grid, s))[0]
             for s in self.held_out]
        )
        if not np.all(logits[np.arange(self.batch), labels] >= logits.max(axis=1) - 1e-9):
            return False
        x, y = self._batch(i)
        last = len(self.cfg.layers)
        for name in (f"conv{last}/filters", f"branch1/conv{last}/filters"):
            g = grads[name]
            idx = np.unravel_index(int(np.abs(g).argmax()), g.shape)
            flat = self._fd_point.tensors[name]
            old = flat[idx]
            flat[idx] = old + FD_EPS
            lp = self._loss(self._fd_point, x, y)
            flat[idx] = old - FD_EPS
            lm = self._loss(self._fd_point, x, y)
            flat[idx] = old
            fd = (lp - lm) / (2 * FD_EPS)
            if not abs(fd - g[idx]) <= FD_TOL * max(abs(fd), 1e-12):
                return False
        return True


def _live_inputs(cfg, params, pool: list, count: int) -> list | None:
    """The first ``count`` signals of ``pool`` whose reference forward has no
    zero-norm feature map, or None if the pool holds fewer."""
    live = []
    for sig in pool:
        _, taps = network.forward(cfg, params, sig)
        if all(equivariance._weighted_norm(t.values, t.bandwidth) > 0 for t in taps.values()):
            live.append(sig)
            if len(live) == count:
                return live
    return None


def _live_row(cfg, seeds: list[int], pool: list, count: int) -> tuple:
    """The first filter draw, over ``seeds``, with ``count`` live pool signals,
    and those signals; else the first draw and the first signals."""
    for seed in seeds:
        params = network.init_parameters(cfg, seed=seed)
        inputs = _live_inputs(cfg, params, pool, count)
        if inputs is not None:
            return params, inputs
    return network.init_parameters(cfg, seed=seeds[0]), pool[:count]


# The acceptance table-4 rows: (pool, linear).  The linear sp row takes a
# bandlimited input and must be exact; the ReLU rows take centred blobs.
EQUIV_ROWS = (("sp", True), ("sp", False), ("wap", False), ("max", False))


class Equiv:
    """``equivariance.measure`` with four rotations on each table-4 row.

    One op is one pass over the four rows, so every op does the same work.
    ``sft`` runs at b=64 with 1-16 channels and batch 1, the opposite regime
    to ``train``; ``rotation.wigner_d``/``rotate_spectrum`` run only here.

    A ReLU row's random filters can turn a blob into an all-zero feature map
    at some layer: on about one row-input pair in a hundred, and on every
    blob for about one filter draw in thirty.  ``measure`` then excludes
    that layer from its single sample and reports NaN, since the relative
    error of a zero map is undefined, and skips that layer's rotation.  So a
    ReLU row takes the first filter draw (of ``PARAM_TRIES`` seeded ones)
    for which a seeded pool holds ``INPUTS`` blobs whose reference forward
    keeps every layer non-zero, and those blobs.  If no draw has enough, the
    row keeps its first draw and first blobs, and its ops fail their check.
    """

    INPUTS = 4
    POOL_PER_CLASS = 3
    PARAM_TRIES = 8

    def __init__(self, seed: int, tiny: bool = False) -> None:
        b = 16 if tiny else 64
        rng = np.random.default_rng(seed)
        self.rows = []
        blobs = synth.make_blob_dataset(b, self.POOL_PER_CLASS, seed, canonical_pose=False)
        centred = [sft.SphericalSignal(s.grid, s.values - s.values.mean()) for s in blobs.signals]
        for k, (pool, linear) in enumerate(EQUIV_ROWS):
            cfg = network.stack_config(
                b, [4, 4, 8, 8, 16, 16], in_channels=1, num_classes=3, pool=pool,
                pool_layers=[2, 4], nonlinearity="none" if linear else "relu", anchors=4,
            )
            if linear:
                params = network.init_parameters(cfg, seed=seed + k)
                inputs = [sft.random_bandlimited_signal(b, 1, rng) for _ in range(self.INPUTS)]
            else:
                seeds = [seed + k + len(EQUIV_ROWS) * t for t in range(self.PARAM_TRIES)]
                params, inputs = _live_row(cfg, seeds, centred, self.INPUTS)
            self.rows.append((cfg, params, inputs, linear))
        self.seed = seed

    def op(self, i: int):
        reports = []
        for cfg, params, inputs, _ in self.rows:
            sig = inputs[i % len(inputs)]
            reports.append(
                equivariance.measure(cfg, params, [sig], rotations=4, seed=self.seed + i)
            )
        return reports

    def check(self, i: int, reports) -> bool:
        """Every per-layer error finite; the linear sp row below 1e-6 at every layer."""
        for (_, _, _, linear), rep in zip(self.rows, reports):
            err = np.asarray(rep.per_layer_error)
            if not np.all(np.isfinite(err)):
                return False
            if linear and not np.all(err < EXACT_TOL):
                return False
        return True


WORKLOADS = {"align": Align, "train": Train, "equiv": Equiv}
