"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test exercises the full stated protocol at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them).  Criteria
with stated runtime budgets assert the elapsed wall time as well.
"""

import time

import numpy as np

from spheresig.align import align_shapes
from spheresig.bench import benchmark_sft
from spheresig.equivariance import measure
from spheresig.grid import make_grid
from spheresig.harmonics import build_table
from spheresig.network import (
    LayerConfig,
    NetworkConfig,
    TrainSchedule,
    backward,
    count_parameters,
    init_parameters,
    predict,
    shared_table,
    stack_config,
    train,
    two_branch_config,
)
from spheresig.rotation import random_rotations, rotate_signal, rotate_spectrum
from spheresig.sft import (
    SphericalSignal,
    evaluate_coeffs_at,
    isft,
    random_coeffs,
    sft_direct,
    sft_sepvar,
)
from spheresig.spectral import (
    ZonalFilterSpec,
    anchor_layout,
    conv_spectral,
    magl,
    realize_filter,
    wgap,
)
from spheresig.synth import make_blob_dataset, star_mesh
from test_spectral import filter_to_signal


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_01_roundtrip_exactness():
    t0 = time.time()
    worst = 0.0
    for b in (2, 4, 8, 16, 32, 64):
        table = build_table(make_grid(b))
        c = random_coeffs(b, channels=2, rng=np.random.default_rng(100 + b))
        back = sft_sepvar(isft(c, table), table)
        worst = max(worst, float(np.abs(back.coeffs - c.coeffs).max()))
    elapsed = time.time() - t0
    _report(
        1,
        "round-trip exactness",
        worst < 1e-9 and elapsed < 30.0,
        f"max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_transform_agreement():
    worst = 0.0
    rng = np.random.default_rng(2)
    for b in (8, 16, 32):
        table = build_table(make_grid(b))
        for _ in range(20):
            sig = SphericalSignal(table.grid, rng.standard_normal((1, 2 * b, 2 * b)))
            d = sft_direct(sig, table).coeffs
            s = sft_sepvar(sig, table).coeffs
            worst = max(worst, float(np.abs(d - s).max()))
    _report(2, "direct vs separated transforms", worst < 1e-9, f"max dev {worst:.2e}")


def test_03_performance_crossover():
    results = benchmark_sft([32, 64], reps=10, seed=3)
    ok = all(r["sepvar_median_s"] < r["direct_median_s"] for r in results.values())
    detail = ", ".join(
        f"b={b}: {r['direct_median_s'] * 1e3:.1f}ms vs {r['sepvar_median_s'] * 1e3:.1f}ms"
        for b, r in results.items()
    )
    _report(3, "separated transform faster from b=32", ok, detail)


def test_04_convolution_theorem_oracle():
    """Harmonic-domain filtering must match brute-force quadrature of the
    rotation-group convolution integral over a 24^3 ZYZ lattice (uniform in
    both z-angles, Gauss-Legendre in the middle angle so the polynomial
    integrand is integrated exactly)."""
    t0 = time.time()
    b = 8
    table = build_table(make_grid(b))
    rng = np.random.default_rng(4)
    c = random_coeffs(b, 1, rng)
    h = ZonalFilterSpec(
        "anchored",
        b,
        anchor_degrees=anchor_layout(b, 4),
        anchor_values=rng.standard_normal(4),
    )
    path = isft(conv_spectral(sft_sepvar(isft(c, table), table), h), table).values[0]

    n = 24
    alphas = 2 * np.pi * np.arange(n) / n
    gammas = 2 * np.pi * np.arange(n) / n
    x_nodes, x_weights = np.polynomial.legendre.leggauss(n)
    betas = np.arccos(x_nodes)
    w_a = 2 * np.pi / n
    w_g = 2 * np.pi / n

    # f evaluated where each rotation sends the pole: direction (beta, alpha).
    bb, aa = np.meshgrid(betas, alphas, indexing="ij")  # (nb, na)
    f_at_pole_image = evaluate_coeffs_at(c, bb, aa)[0]

    # Zonal filter as a polynomial in the cosine of the angular distance.
    hcoef = realize_filter(h) * np.sqrt((2 * np.arange(b) + 1) / (4 * np.pi))
    dirs = table.grid.directions().reshape(-1, 3)  # output sample directions
    pole_images = np.stack(
        [np.sin(bb) * np.cos(aa), np.sin(bb) * np.sin(aa), np.cos(bb)], axis=-1
    )
    cosdist = dirs @ pole_images.reshape(-1, 3).T  # (P, nb*na)
    h_vals = np.polynomial.legendre.legval(cosdist, hcoef)

    contrib = (f_at_pole_image * x_weights[:, None] * w_a).reshape(-1)
    per_gamma = h_vals @ contrib  # (P,)
    oracle = np.zeros(len(dirs))
    for _ in gammas:  # the integrand is constant in the last angle
        oracle += w_g * per_gamma
    oracle = oracle.reshape(2 * b, 2 * b)

    rel = float(np.linalg.norm(path - oracle) / np.linalg.norm(oracle))
    elapsed = time.time() - t0
    _report(
        4,
        "convolution theorem vs group-integral oracle",
        rel < 1e-3 and elapsed < 300.0,
        f"rel L2 {rel:.2e}, {elapsed:.1f}s",
    )


def _table4_config(b: int, pool: str, linear: bool) -> NetworkConfig:
    return stack_config(
        b,
        [4, 4, 8, 8, 16, 16],
        in_channels=1,
        num_classes=3,
        pool=pool,
        pool_layers=[2, 4],
        nonlinearity="none" if linear else "relu",
        anchors=4,
    )


def test_05_exact_equivariance_row():
    b = 32
    cfg = _table4_config(b, "sp", linear=True)
    params = init_parameters(cfg, seed=5)
    rng = np.random.default_rng(55)
    signals = [
        isft(random_coeffs(b, 1, rng), shared_table(b)) for _ in range(3)
    ]
    rep = measure(cfg, params, signals, rotations=1, seed=6)
    worst = float(rep.per_layer_error.max())
    _report(
        5,
        "bandlimited linear spectral-pool row is exact",
        worst < 1e-6,
        f"max layer err {worst:.2e}",
    )


def test_06_equivariance_orderings():
    def centered_blobs(b):
        ds = make_blob_dataset(b, 7, seed=36, canonical_pose=False)
        return [SphericalSignal(s.grid, s.values - s.values.mean()) for s in ds.signals]

    sigs64 = centered_blobs(32)
    sigs32 = centered_blobs(16)
    assert len(sigs64) >= 20

    def run(b, pool, sigs):
        cfg = _table4_config(b, pool, linear=False)
        params = init_parameters(cfg, seed=6)
        return measure(cfg, params, sigs, rotations=1, seed=7).per_layer_error

    e_sp = run(32, "sp", sigs64)
    e_wap = run(32, "wap", sigs64)
    e_max = run(32, "max", sigs64)
    e_low = run(16, "wap", sigs32)
    tol = 1e-12
    ok = (
        np.all(e_sp <= e_wap + tol)
        and np.all(e_wap <= e_max + tol)
        and np.all(e_low >= e_wap - tol)
    )
    detail = (
        f"sp<=wap<=max at every layer; lowres>=highres "
        f"(wap64 conv6 {e_wap[-1]:.3f}, wap32 conv6 {e_low[-1]:.3f})"
    )
    _report(6, "pooling and resolution orderings", bool(ok), detail)


def test_07_descriptor_invariance():
    b = 16
    table = build_table(make_grid(b))
    rng = np.random.default_rng(7)
    rotations = random_rotations(50, seed=77)
    worst_wgap = 0.0
    worst_magl = 0.0
    for _ in range(4):
        c = random_coeffs(b, 2, rng)
        c.coeffs[:, 0] += 5.0  # keep the mean away from zero
        sig = isft(c, table)
        base_w = wgap(sig).values
        base_m = magl(c).values
        for r in rotations:
            rot_sig = rotate_signal(sig, r, table)
            dw = np.abs(wgap(rot_sig).values - base_w) / np.linalg.norm(base_w)
            worst_wgap = max(worst_wgap, float(dw.max()))
            dm = np.linalg.norm(magl(rotate_spectrum(c, r)).values - base_m)
            worst_magl = max(worst_magl, float(dm / np.linalg.norm(base_m)))
    _report(
        7,
        "descriptor invariance under rotation",
        worst_wgap < 0.02 and worst_magl < 1e-6,
        f"wgap {worst_wgap:.2e} (<2e-2), magl {worst_magl:.2e} (<1e-6)",
    )


def test_08_planted_rotation_alignment():
    t0 = time.time()
    trials = 100
    hits = 0
    errors = []
    for i in range(trials):
        mesh = star_mesh(
            seed=800 + i, n_theta=16, n_phi=32, amplitude=0.3, sharpness=(4, 9)
        )
        r_true = random_rotations(1, seed=9000 + i)[0]
        res = align_shapes(
            mesh, mesh.transformed(r_true.matrix()), b=32, truth=r_true
        )
        errors.append(res.angular_error_deg)
        if res.angular_error_deg <= 11.25:
            hits += 1
    elapsed = time.time() - t0
    _report(
        8,
        "planted-rotation recovery",
        hits >= 95 and elapsed < 600.0,
        f"{hits}/100 within 11.25 deg, median {np.median(errors):.2f} deg, {elapsed:.0f}s",
    )


def test_09_gradient_correctness():
    layers = (
        LayerConfig(3, "anchored", 4, "wap", "none"),
        LayerConfig(4, "full", 4, "none", "none"),
    )
    cfg = NetworkConfig(input_bandwidth=8, layers=layers, num_classes=3, in_channels=2)
    params = init_parameters(cfg, seed=9)
    rng = np.random.default_rng(99)
    x = rng.standard_normal((3, 2, 16, 16))
    y = rng.integers(0, 3, size=3)
    _, grads = backward(cfg, params, x, y)
    eps = 1e-3
    worst = 0.0
    for name, g in grads.items():
        flat = params.tensors[name].ravel()
        fd = np.zeros(flat.size)
        for idx in range(flat.size):
            old = flat[idx]
            flat[idx] = old + eps
            lp, _ = backward(cfg, params, x, y)
            flat[idx] = old - eps
            lm, _ = backward(cfg, params, x, y)
            flat[idx] = old
            fd[idx] = (lp - lm) / (2 * eps)
        rel = np.linalg.norm(fd - g.ravel()) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    _report(
        9,
        "finite-difference gradients (anchors, spectra, biases, projection)",
        worst < 1e-4,
        f"worst tensor rel err {worst:.2e}",
    )


def test_10_toy_invariant_classification():
    t0 = time.time()
    b = 8
    train_ds = make_blob_dataset(b, 40, seed=1)
    test_ds = make_blob_dataset(b, 20, seed=2)
    x_train = np.stack([s.values for s in train_ds.signals])
    cfg = stack_config(
        b, [8, 16], in_channels=1, num_classes=3, pool="sp", pool_layers=[1],
        anchors=4, head="wgap",
    )
    schedule = TrainSchedule(epochs=48, batch_size=16, seed=0, augment_rotate="z")
    params, history = train(cfg, x_train, train_ds.labels, schedule)
    train_acc = float((predict(cfg, params, x_train) == train_ds.labels).mean())
    table = shared_table(b)
    rotations = random_rotations(len(test_ds.signals), seed=99)
    x_test = np.stack(
        [rotate_signal(s, r, table).values for s, r in zip(test_ds.signals, rotations)]
    )
    acc = float((predict(cfg, params, x_test) == test_ds.labels).mean())
    elapsed = time.time() - t0
    _report(
        10,
        "toy rotation-invariant classification",
        acc >= 0.90 and train_acc >= 0.95 and elapsed < 900.0,
        f"rotated test acc {acc:.2f}, train acc {train_acc:.2f}, {elapsed:.0f}s",
    )


def test_11_parameter_budget():
    n = count_parameters(two_branch_config())
    rel = abs(n - 500_000) / 500_000
    _report(11, "two-branch parameter budget", rel < 0.10, f"{n:,} params, {rel:.1%} from 0.5M")


def test_12_filter_zonality():
    rng = np.random.default_rng(12)
    worst = 0.0
    for b in (8, 16, 32):
        specs = [
            ZonalFilterSpec("full", b, full_coeffs=rng.standard_normal(b)),
            ZonalFilterSpec(
                "anchored",
                b,
                anchor_degrees=anchor_layout(b, 4),
                anchor_values=rng.standard_normal(4),
            ),
        ]
        for spec in specs:
            sig = filter_to_signal(spec)
            worst = max(worst, float(sig.values[0].var(axis=1).max()))
    _report(12, "realized filters constant per latitude", worst < 1e-12, f"max row var {worst:.2e}")
