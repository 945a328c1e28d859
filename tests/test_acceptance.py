"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import circle_mimo as cm
from circle_mimo.channel import array_response
from circle_mimo.transceiver import QPSK_POINTS
from conftest import los_channel, random_channel_vector
from oracle import (
    achieved_sinr,
    desired_gain,
    detect_qpsk,
    exact_sinr,
    interference_gain,
    pairwise_product,
    sinr_bound,
)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE criterion {num:02d} PASS - {text}")


# ---------------------------------------------------------------------------
# 1. pairwise family products: identity / zero-trace diagonal
# ---------------------------------------------------------------------------
def test_criterion_01_family_structure():
    t0 = time.perf_counter()
    for n in (2, 3, 4, 8, 16, 32, 64):
        fam = cm.build_family(n)
        eye = np.eye(n)
        for k in range(1, n + 1):
            for k2 in range(1, n + 1):
                p = pairwise_product(fam, k, k2)
                if k2 == k:
                    assert np.linalg.norm(p - eye) < 1e-10 * n
                else:
                    off = p - np.diag(np.diag(p))
                    assert np.max(np.abs(off)) < 1e-10
                    assert abs(np.trace(p)) < 1e-10 * n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(1, f"all ordered pairs for N up to 64 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. combining gains: desired N, interference zero, any fading mix
# ---------------------------------------------------------------------------
def test_criterion_02_combining_gains():
    t0 = time.perf_counter()
    for n in (4, 16, 32):
        fam = cm.build_family(n)
        geom = cm.ArrayGeometry(n_antennas=n, carrier_freq_hz=100e9)
        profiles = [
            cm.ChannelProfile(nlos_var=cm.db_to_linear(-15.0), n_nlos=3),
            cm.ChannelProfile(nlos_var=cm.db_to_linear(3.0), n_nlos=3),  # NLoS dominant
        ]
        rng = np.random.default_rng(n)
        for i in range(1000):
            h = cm.sample_channel(geom, 1, rng, profiles[i % 2]).h[0]
            k = int(rng.integers(1, n + 1))
            assert abs(desired_gain(h, fam, k) - n) < 1e-9 * n
            for _ in range(5):
                k2 = int(rng.integers(1, n + 1))
                while k2 == k:
                    k2 = int(rng.integers(1, n + 1))
                assert abs(interference_gain(h, fam, k, k2)) < 1e-9 * n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"1000 channels per size, NLoS-dominant included, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. noiseless QPSK detection is error free
# ---------------------------------------------------------------------------
def test_criterion_03_noiseless_end_to_end():
    n, k_dev = 32, 30
    fam = cm.build_family(n)
    pre = cm.build_precoders(fam)
    geom = cm.ArrayGeometry(n_antennas=n, carrier_freq_hz=100e9)
    prof = cm.ChannelProfile(nlos_var=cm.db_to_linear(-15.0), n_nlos=3)
    rng = np.random.default_rng(2024)

    errors = 0
    symbols = 0
    frames_per_channel = 100
    for _ in range(100):  # 100 channel draws x 100 frames = 10^4 frames
        h = np.stack(
            [cm.sample_channel(geom, k, rng, prof).h[0] for k in range(1, k_dev + 1)]
        )
        # per-slot response of every device: a[n0, k0, :] = h_k^H P_{n0+1}
        a = np.einsum("kj,njp->nkp", h.conj(), pre.slots)
        combiners = np.stack(
            [fam.member(k).conj().T @ (1.0 / h[k - 1].conj()) for k in range(1, k_dev + 1)]
        )
        s_info = QPSK_POINTS[rng.integers(0, 4, size=(n - 2, frames_per_channel))]
        s_full = np.concatenate(
            [s_info, np.ones((2, frames_per_channel), dtype=complex)], axis=0
        )
        y = np.einsum("nkp,pb->knb", a, s_full) / math.sqrt(n)  # noiseless blocks
        d = np.einsum("kn,knb->kb", combiners, y) / math.sqrt(n)
        decisions = detect_qpsk(d)
        errors += int(np.sum(decisions != s_info[:k_dev]))
        symbols += decisions.size
    assert symbols == 10_000 * k_dev
    assert errors == 0
    report(3, f"0 symbol errors in {symbols} decisions")


# ---------------------------------------------------------------------------
# 4. exact SINR never exceeds its bound; equality for pure LoS
# ---------------------------------------------------------------------------
def test_criterion_04_sinr_bound():
    rng = np.random.default_rng(4)
    noise = cm.NoiseModel(variance=0.4, tx_power=1.3)
    for _ in range(10_000):
        h = random_channel_vector(rng, 16)
        exact = exact_sinr(h, noise)
        bound = sinr_bound(h, noise)
        assert exact <= bound * (1 + 1e-12)
    geom = cm.ArrayGeometry(n_antennas=16, carrier_freq_hz=100e9)
    for _ in range(100):
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        h = los_channel(geom, alpha, rng.uniform(0, 2 * math.pi)).h[0]
        exact = exact_sinr(h, noise)
        bound = sinr_bound(h, noise)
        assert exact == pytest.approx(bound, rel=1e-12)
    report(4, "10^4 dominance checks, pure-LoS equality at 1e-12")


# ---------------------------------------------------------------------------
# 5. codebook search recovers the angle (on and off grid)
# ---------------------------------------------------------------------------
def test_criterion_05_codebook_recovery():
    n, q_levels = 16, 256
    fam = cm.build_family(n)
    pre = cm.build_precoders(fam)
    geom = cm.ArrayGeometry(n_antennas=n, carrier_freq_hz=100e9)
    noise = cm.NoiseModel(variance=0.0, tx_power=1.0)
    # the sine is injective on [0, pi/2), so each grid index is unambiguous
    cb = cm.make_codebook(q_levels, 0.0, math.pi / 2)

    rng = np.random.default_rng(42)
    on_grid_hits = 0
    for _ in range(100):
        q_true = int(rng.integers(1, q_levels + 1))
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        ch = los_channel(geom, alpha, float(cb.angles[q_true - 1]))
        frame = cm.make_frame(n, "gaussian", rng)
        block = cm.receive(ch, cm.transmit(pre, frame), noise, rng)
        res = cm.narrowband_search(block, fam, cb, geom, (frame.pilot1, frame.pilot2), noise)
        rel = np.linalg.norm(res.h_hat[0] - ch.h[0]) / np.linalg.norm(ch.h[0])
        if res.q_star == q_true and rel < 1e-8:
            on_grid_hits += 1
    assert on_grid_hits == 100

    rng = np.random.default_rng(11)
    sines = np.sin(cb.angles)
    off_grid_hits = 0
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi / 2)
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        ch = los_channel(geom, alpha, theta)
        frame = cm.make_frame(n, "gaussian", rng)
        block = cm.receive(ch, cm.transmit(pre, frame), noise, rng)
        res = cm.narrowband_search(block, fam, cb, geom, (frame.pilot1, frame.pilot2), noise)
        nearest = int(np.argmin(np.abs(sines - math.sin(theta)))) + 1
        off_grid_hits += res.q_star == nearest
    assert off_grid_hits >= 99
    report(5, f"on-grid 100/100, off-grid nearest-in-sine {off_grid_hits}/100")


# ---------------------------------------------------------------------------
# 6. argmax of the exact SINR is invariant to the gain guess
# ---------------------------------------------------------------------------
def test_criterion_06_gain_guess_invariance():
    n = 16
    fam = cm.build_family(n)
    geom = cm.ArrayGeometry(n_antennas=n, carrier_freq_hz=100e9)
    noise = cm.NoiseModel(variance=0.0, tx_power=1.0)
    cb = cm.make_codebook(128, 0.0, math.pi / 2)
    candidates = np.stack([array_response(geom, ang) for ang in cb.angles])

    rng = np.random.default_rng(6)
    agreements = 0
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi / 2)
        alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        h = alpha * array_response(geom, theta)
        argmaxes = set()
        for guess in (alpha, 1.0, 10.0 * alpha, 1j * alpha):
            sinrs = [
                achieved_sinr(guess * cand, h, fam, 3, noise)
                for cand in candidates
            ]
            argmaxes.add(int(np.argmax(sinrs)))
        agreements += len(argmaxes) == 1
    assert agreements == 100
    report(6, "identical argmax for gain guesses {a, 1, 10a, ia} in 100/100 sweeps")


# ---------------------------------------------------------------------------
# 7. estimated scheme approaches its combining ceiling as the grid refines
# ---------------------------------------------------------------------------
def test_criterion_07_resolution_trend():
    t0 = time.perf_counter()
    n, k_dev, mm, cp = 16, 14, 10, 4
    fam = cm.build_family(n)
    pre = cm.build_precoders(fam)
    geom = cm.ArrayGeometry(
        n_antennas=n, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=mm, cp_len=cp
    )
    prof = cm.ChannelProfile(angular_range=2 * math.pi)  # LoS only
    sigma2 = cm.db_to_linear(-10.0)
    p_t = cm.db_to_linear(30.0) * sigma2  # SNR-matched power, unit mean gain
    noise = cm.NoiseModel(variance=sigma2, tx_power=p_t)
    diagonals = cm.pairwise_diagonals(fam)

    ratios = {}
    for q_levels in (64, 256, 1024):
        cb = cm.make_codebook(q_levels, 0.0, 2 * math.pi)
        vectors = [cb.vectors(geom, m) for m in range(1, mm + 1)]
        achieved_total = bound_total = 0.0
        for trial in range(200):
            rng = np.random.default_rng((7, q_levels, trial))
            channels = [cm.sample_channel(geom, k, rng, prof) for k in range(1, k_dev + 1)]
            h_true = np.stack([c.h for c in channels])
            frames = [cm.make_frame(n, "gaussian", rng) for _ in range(mm)]
            xs = [cm.transmit(pre, f) for f in frames]
            pilots = [(f.pilot1, f.pilot2) for f in frames]
            h_hat = np.empty_like(h_true)
            for k0 in range(k_dev):
                blocks = [
                    cm.receive(channels[k0], xs[m0], noise, rng, m0 + 1) for m0 in range(mm)
                ]
                res = cm.wideband_search(
                    blocks, fam, cb, geom, pilots, noise, vectors=vectors
                )
                h_hat[k0] = res.h_hat
            achieved_total += np.sum(
                cm.per_device_achieved_se(h_hat, h_true, fam, noise, geom, diagonals)
            )
            bound_total += np.sum(cm.per_device_max_se(h_true, noise, geom, kind="combining-bound"))
        ratios[q_levels] = achieved_total / bound_total
    elapsed = time.perf_counter() - t0
    assert ratios[64] <= ratios[256] <= ratios[1024]
    assert ratios[1024] > 0.90
    assert elapsed < 300.0
    report(7, "ratio to combining ceiling "
              + ", ".join(f"Q={q}: {r:.3f}" for q, r in ratios.items())
              + f" in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. perfect-CSIR narrowband scheme meets its maximum as multipath vanishes
# ---------------------------------------------------------------------------
def test_criterion_08_multipath_trend():
    cfg = cm.preset("fig2")
    cfg.n_trials = 200
    rows = list(cm.run_experiment(cfg))
    means = {(r["method"], r["sweep_value"]): r["mean_sum_se"] for r in cm.summarize(rows)}
    deltas = sorted({r.sweep_value for r in rows})  # ascending NLoS strength
    ratios = [means[("circle", d)] / means[("bound", d)] for d in deltas]
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 0.99  # delta^2 = -40 dB
    report(8, "ratio to maximum " + ", ".join(f"{d:g}dB: {r:.4f}" for d, r in zip(deltas, ratios)))


# ---------------------------------------------------------------------------
# 9 and 10 share one Monte Carlo sweep (paired trials across methods)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def device_sweep_results():
    cfg = cm.ExperimentConfig(
        methods=("circle", "r-circle", "mrt"),
        n_trials=200,
        seed=910,
        sweep_param="n_devices",
        sweep_values=(10, 20, 30),
    )
    rows = list(cm.run_experiment(cfg))
    return {(r["method"], r["sweep_value"]): r["mean_sum_se"] for r in cm.summarize(rows)}


def test_criterion_09_joint_vs_per_subcarrier(device_sweep_results):
    means = device_sweep_results
    for k in (10, 20, 30):
        assert means[("r-circle", k)] >= means[("circle", k)]
    pairs = ", ".join(
        f"K={k}: {means[('r-circle', k)]:.2f} vs {means[('circle', k)]:.2f}"
        for k in (10, 20, 30)
    )
    report(9, f"joint >= per-subcarrier estimation at every K ({pairs})")


def test_criterion_10_device_scaling(device_sweep_results):
    means = device_sweep_results
    rc = [means[("r-circle", k)] for k in (10, 20, 30)]
    mr = [means[("mrt", k)] for k in (10, 20, 30)]
    assert rc[0] < rc[1] < rc[2]
    assert mr[2] - mr[1] < rc[2] - rc[1]
    report(10, f"joint scheme grows {rc[2] - rc[1]:.2f} bits from K=20 to 30, "
               f"MRT only {mr[2] - mr[1]:.2f}")


# ---------------------------------------------------------------------------
# 11. closed-form multiplication count
# ---------------------------------------------------------------------------
def test_criterion_11_complexity():
    assert cm.complexity_psi(32, 10, 512) == 184320
    assert cm.complexity_psi(32, 20, 512) == 2 * cm.complexity_psi(32, 10, 512)
    assert cm.complexity_psi(32, 30, 512) == 3 * cm.complexity_psi(32, 10, 512)
    # combiner term alone is quadratic in the array size
    comb = lambda n: cm.complexity_psi(n, 1, 1) - n
    assert comb(16) == 4 * comb(8)
    assert comb(64) == 16 * comb(16)
    report(11, "psi(32, 10, 512) = 184320, linear in M, quadratic in N")


# ---------------------------------------------------------------------------
# 12. byte-identical CSV for a fixed seed at any worker count
# ---------------------------------------------------------------------------
def test_criterion_12_determinism(tmp_path):
    digests = {}
    for name, trials in (("fig2", 5), ("fig4d", 2)):
        cfg = cm.preset(name)
        cfg.n_trials = trials
        runs = []
        for i, threads in enumerate((1, 8, 1)):
            path = tmp_path / f"{name}-{i}.csv"
            cm.write_csv(cm.run_experiment(cfg, threads=threads), path)
            runs.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert runs[0] == runs[1] == runs[2]
        digests[name] = runs[0][:12]
    report(12, "identical digests at 1 and 8 threads: "
               + ", ".join(f"{k}: {v}" for k, v in digests.items()))
