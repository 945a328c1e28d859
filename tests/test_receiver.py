import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circle_mimo import baselines
from circle_mimo.channel import (
    ArrayGeometry,
    ChannelProfile,
    NoiseModel,
    array_response,
    sample_channel,
)
from circle_mimo.dftcore import build_family
from circle_mimo.harness import ExperimentConfig, _SweepContext, preset, run_experiment, write_csv
from circle_mimo.receiver import (
    DegenerateChannelError,
    inverse_channel,
    per_device_achieved_se,
    per_device_max_se,
)
from circle_mimo.transceiver import make_frame, receive, transmit
from conftest import los_channel, random_channel_vector
from oracle import (
    achieved_sinr,
    combine,
    combining_ceiling,
    decompose_combined,
    desired_gain,
    estimated_sinr,
    exact_sinr,
    interference_gain,
    key_rng,
    receiver_noise,
    se_bits,
    sinr_bound,
)

GEOM16 = ArrayGeometry(n_antennas=16, carrier_freq_hz=100e9)


class TestInverseChannel:
    def test_scalar(self):
        np.testing.assert_allclose(inverse_channel(np.array([2.0 + 0j])), [0.5])

    def test_unit_modulus_self_inverse(self):
        a = array_response(GEOM16, 0.9)
        np.testing.assert_allclose(inverse_channel(a), a, atol=1e-12)

    def test_definitional_identity(self):
        rng = np.random.default_rng(0)
        h = random_channel_vector(rng, 10)
        left = inverse_channel(h) @ np.diag(h.conj())
        np.testing.assert_allclose(left, np.ones(10), atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateChannelError):
            inverse_channel(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(DegenerateChannelError):
            inverse_channel(np.array([1.0, 1e-13, 2.0]))


class TestCombiningGains:
    def test_desired_gain_is_n_any_channel(self, family16):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = random_channel_vector(rng, 16)
            k = int(rng.integers(1, 17))
            assert abs(desired_gain(h, family16, k) - 16) < 1e-9 * 16

    def test_interference_gain_is_zero_any_channel(self, family16):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = random_channel_vector(rng, 16)
            k, k2 = rng.choice(np.arange(1, 17), size=2, replace=False)
            assert abs(interference_gain(h, family16, int(k), int(k2))) < 1e-9 * 16

    def test_holds_for_nlos_heavy_channels(self, family16):
        prof = ChannelProfile(nlos_var=2.0, n_nlos=6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = sample_channel(GEOM16, 1, rng, prof).h[0]
            assert abs(desired_gain(h, family16, 5) - 16) < 1e-9 * 16
            assert abs(interference_gain(h, family16, 5, 11)) < 1e-9 * 16

    def test_two_antenna_hand_computation(self):
        # h = [1, i]: inverse is [1, i], gain 1*1 + i*(-i) = 2, cross term 0
        fam = build_family(2)
        h = np.array([1.0, 1.0j])
        assert abs(desired_gain(h, fam, 1) - 2.0) < 1e-12
        assert abs(interference_gain(h, fam, 1, 2)) < 1e-12

    def test_same_index_rejected(self, family16):
        with pytest.raises(ValueError):
            interference_gain(np.ones(16), family16, 3, 3)


class TestCombine:
    def test_full_csir_noiseless_recovers_symbols(self, family16, precoders16):
        rng = np.random.default_rng(4)
        prof = ChannelProfile(nlos_var=0.3, n_nlos=3)
        noise = NoiseModel(variance=0.0, tx_power=2.5)
        ch = sample_channel(GEOM16, 1, rng, prof)
        frame = make_frame(16, "qpsk", rng)
        block = receive(ch, transmit(precoders16, frame), noise, rng)
        for k in range(1, 15):
            d = combine(ch.h[0], family16, k, block.y)
            want = math.sqrt(2.5 * 16) * frame.symbols[k - 1]
            assert abs(d - want) <= 1e-9 * abs(want)

    def test_single_antenna_identity(self):
        # y = sqrt(p_t) h^* s for the 1x1 system; combining undoes the channel
        fam = build_family(1)
        h = np.array([0.3 - 0.8j])
        s = 0.7 + 0.1j
        y = np.array([math.sqrt(2.0) * h[0].conj() * s])
        assert abs(combine(h, fam, 1, y) - math.sqrt(2.0) * s) < 1e-12

    def test_mismatched_channel_leaves_residual(self, family16, precoders16):
        rng = np.random.default_rng(5)
        noise = NoiseModel(variance=0.0, tx_power=1.0)
        ch = los_channel(GEOM16, 1.0 + 0.3j, 0.8)
        frame = make_frame(16, "gaussian", rng)
        block = receive(ch, transmit(precoders16, frame), noise, rng)
        wrong = los_channel(GEOM16, 1.0 + 0.3j, 1.3).h[0]
        d = combine(wrong, family16, 3, block.y)
        want = math.sqrt(16) * frame.symbols[2]
        assert abs(d - want) > 1e-3


class TestDecomposition:
    def test_reconstitutes_combined_value(self, family16, precoders16):
        rng = np.random.default_rng(6)
        noise = NoiseModel(variance=0.4, tx_power=1.7)
        ch = sample_channel(GEOM16, 1, rng, ChannelProfile(nlos_var=0.2, n_nlos=2))
        frame = make_frame(16, "gaussian", rng)
        block = receive(ch, transmit(precoders16, frame), noise, np.random.default_rng(60))
        h_hat = los_channel(GEOM16, 0.9, 0.4).h[0]
        z = receiver_noise(np.random.default_rng(60), 16, noise)
        value, _ = decompose_combined(h_hat, ch.h[0], family16, 7, frame.symbols, noise, z)
        direct = combine(h_hat, family16, 7, block.y)
        assert abs(value - direct) < 1e-9 * max(1.0, abs(direct))

    def test_true_channel_gain_and_zero_interference(self, family16):
        rng = np.random.default_rng(7)
        h = random_channel_vector(rng, 16)
        frame = make_frame(16, "gaussian", rng)
        _, gains = decompose_combined(
            h, h, family16, 2, frame.symbols, NoiseModel(1.0, 1.0), np.zeros(16)
        )
        assert abs(gains[1] - 16) < 1e-9 * 16
        others = np.delete(np.abs(gains), 1)
        assert np.max(others) < 1e-9 * 16


class TestSinr:
    def test_exact_and_bound_frozen_example(self):
        h = np.array([1.0, 2.0])
        noise = NoiseModel(variance=1.0, tx_power=1.0)
        assert exact_sinr(h, noise) == pytest.approx(1.6, rel=1e-12)
        assert sinr_bound(h, noise) == pytest.approx(2.5, rel=1e-12)

    def test_pure_los_equality(self):
        noise = NoiseModel(variance=0.7, tx_power=1.3)
        h = (0.8 - 0.6j) * array_response(GEOM16, 1.1)
        e = exact_sinr(h, noise)
        b = sinr_bound(h, noise)
        want = 1.3 * abs(0.8 - 0.6j) ** 2 / 0.7
        assert e == pytest.approx(want, rel=1e-12)
        assert e == pytest.approx(b, rel=1e-12)

    def test_bound_dominates(self):
        rng = np.random.default_rng(8)
        noise = NoiseModel(variance=0.5, tx_power=2.0)
        for _ in range(200):
            h = random_channel_vector(rng, 12)
            assert exact_sinr(h, noise) <= sinr_bound(h, noise) * (1 + 1e-12)

    def test_homogeneity(self):
        h = np.array([0.5, 1.0 + 1.0j, -2.0j])
        noise = NoiseModel(variance=0.9, tx_power=1.0)
        c = 1.7 - 0.4j
        assert exact_sinr(c * h, noise) == pytest.approx(
            abs(c) ** 2 * exact_sinr(h, noise), rel=1e-12
        )
        assert sinr_bound(c * h, noise) == pytest.approx(
            abs(c) ** 2 * sinr_bound(h, noise), rel=1e-12
        )

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            exact_sinr(np.ones(4), NoiseModel(variance=0.0, tx_power=1.0))
        with pytest.raises(ValueError):
            sinr_bound(np.ones(4), NoiseModel(variance=0.0, tx_power=1.0))

    def test_se_bits_consistency(self):
        sinr = exact_sinr(np.array([1.0, 2.0]), NoiseModel(1.0, 1.0))
        assert se_bits(sinr) == pytest.approx(math.log2(1.0 + sinr))
        assert se_bits(math.inf, 1e6) == math.log2(1.0 + 1e6)


class TestEstimatedSinr:
    def test_noiseless_full_csir_hits_sentinel(self, family16, precoders16):
        rng = np.random.default_rng(9)
        noise = NoiseModel(variance=0.0, tx_power=1.0)
        ch = los_channel(GEOM16, 0.6 + 0.2j, 0.9)
        frame = make_frame(16, "gaussian", rng)
        block = receive(ch, transmit(precoders16, frame), noise, rng)
        sinr = estimated_sinr(ch.h[0], family16, block.y, frame.pilot2, noise)
        assert sinr > 1e20  # residual is pure roundoff
        assert se_bits(sinr) <= math.log2(1.0 + 1e30)

    def test_wrong_angle_scores_below_truth(self, family16, precoders16):
        rng = np.random.default_rng(10)
        noise = NoiseModel(variance=0.0, tx_power=1.0)
        ch = los_channel(GEOM16, 1.0, 0.7)
        frame = make_frame(16, "gaussian", rng)
        block = receive(ch, transmit(precoders16, frame), noise, rng)
        truth = estimated_sinr(ch.h[0], family16, block.y, frame.pilot2, noise)
        wrong = estimated_sinr(
            los_channel(GEOM16, 1.0, 1.5).h[0], family16, block.y, frame.pilot2, noise
        )
        assert wrong < truth

    def test_low_snr_order_of_magnitude(self, family16, precoders16):
        # heavily noise-limited: the single-shot estimate scatters around the
        # exact SINR, its median stays within a small factor
        rng = np.random.default_rng(11)
        noise = NoiseModel(variance=10.0, tx_power=0.1)
        ratios = []
        for _ in range(1000):
            ch = sample_channel(GEOM16, 1, rng, ChannelProfile())
            frame = make_frame(16, "gaussian", rng)
            block = receive(ch, transmit(precoders16, frame), noise, rng)
            est = estimated_sinr(ch.h[0], family16, block.y, frame.pilot2, noise)
            ratios.append(est / exact_sinr(ch.h[0], noise))
        med = float(np.median(ratios))
        assert 0.5 < med < 3.0


class TestAchievedSinr:
    def test_reduces_to_exact_with_true_channel(self, family16):
        rng = np.random.default_rng(12)
        noise = NoiseModel(variance=0.3, tx_power=1.1)
        h = random_channel_vector(rng, 16)
        got = achieved_sinr(h, h, family16, 4, noise)
        assert got == pytest.approx(exact_sinr(h, noise), rel=1e-9)

    def test_gain_scale_invariance(self, family16):
        rng = np.random.default_rng(13)
        noise = NoiseModel(variance=0.2, tx_power=1.0)
        h = los_channel(GEOM16, 0.5 + 0.5j, 1.0).h[0]
        h_hat = los_channel(GEOM16, 1.0, 1.02).h[0]
        base = achieved_sinr(h_hat, h, family16, 3, noise)
        for c in (2.0, -1.0j, 0.3 + 0.4j):
            got = achieved_sinr(c * h_hat, h, family16, 3, noise)
            assert got == pytest.approx(base, rel=1e-9)

    def test_grid_maximum_at_matching_sine(self, family16):
        # the exact SINR over a candidate-angle grid peaks exactly where the
        # sine matches the true departure angle (both aliases included)
        noise = NoiseModel(variance=0.05, tx_power=1.0)
        theta = 0.6
        ch = los_channel(GEOM16, 0.9 - 0.1j, theta)
        grid = np.linspace(-math.pi, math.pi, 721, endpoint=False)
        grid = np.concatenate([grid, [theta, math.pi - theta]])
        scores = np.array(
            [
                achieved_sinr(
                    1.0 * array_response(GEOM16, phi), ch.h[0], family16, 5, noise
                )
                for phi in grid
            ]
        )
        best = np.max(scores)
        matching = np.abs(np.sin(grid) - math.sin(theta)) < 1e-12
        assert np.all(scores[matching] == pytest.approx(best, rel=1e-9))
        assert np.all(scores[~matching] < best * (1 - 1e-9))


class TestSumSe:
    NOISE = NoiseModel(variance=1.0, tx_power=1.0)

    def test_single_device_narrowband_frozen(self):
        geom = ArrayGeometry(n_antennas=4, carrier_freq_hz=1e9)
        # p_t ||h||^2 / (N sigma^2) = 1  ->  R = 1 bit
        h = np.full((1, 1, 4), 1.0, dtype=complex)
        assert np.sum(per_device_max_se(h, self.NOISE, geom)) == pytest.approx(1.0)

    def test_wideband_prefactor_and_form(self):
        geom = ArrayGeometry(
            n_antennas=4, carrier_freq_hz=1e9, bandwidth_hz=1e8, n_subcarriers=2, cp_len=3
        )
        h = np.ones((1, 2, 4), dtype=complex)
        want = (math.log2(1 + 4.0) * 2) / (2 + 3)
        assert np.sum(per_device_max_se(h, self.NOISE, geom)) == pytest.approx(want)

    def test_combining_bound_divides_by_n(self):
        geom = ArrayGeometry(
            n_antennas=4, carrier_freq_hz=1e9, bandwidth_hz=1e8, n_subcarriers=2, cp_len=3
        )
        h = np.ones((1, 2, 4), dtype=complex)
        want = (math.log2(1 + 1.0) * 2) / (2 + 3)
        assert combining_ceiling(h[0], self.NOISE, geom) == pytest.approx(want)

    def test_monotone_in_channel_power(self):
        geom = ArrayGeometry(n_antennas=8, carrier_freq_hz=1e9)
        rng = np.random.default_rng(14)
        h = np.stack([random_channel_vector(rng, 8) for _ in range(3)])[:, None, :]
        louder = per_device_max_se(2.0 * h, self.NOISE, geom)
        assert np.sum(louder) > np.sum(per_device_max_se(h, self.NOISE, geom))

    def test_achieved_matches_bound_for_pure_los_true_csir(self, family16):
        geom = GEOM16
        rng = np.random.default_rng(15)
        chans = np.stack(
            [los_channel(geom, 0.5 + rng.standard_normal() * 0.2, rng.uniform(0, 2 * math.pi)).h
             for _ in range(4)]
        )
        noise = NoiseModel(variance=0.1, tx_power=1.0)
        achieved = np.sum(per_device_achieved_se(chans, chans, family16, noise, geom))
        bound = np.sum(per_device_max_se(chans, noise, geom))
        assert achieved == pytest.approx(bound, rel=1e-9)

    def test_full_csir_within_two_percent_of_bound_at_10db(self, family16):
        # equal-modulus channels: the combining scheme meets its own bound
        geom = ArrayGeometry(n_antennas=32, carrier_freq_hz=100e9)
        fam32 = build_family(32)
        rng = np.random.default_rng(16)
        noise = NoiseModel(variance=0.1, tx_power=1.0)
        tot_a = tot_b = 0.0
        for _ in range(200):
            chans = np.stack(
                [los_channel(geom, (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2),
                             rng.uniform(0, 2 * math.pi)).h for _ in range(30)]
            )
            tot_a += np.sum(per_device_achieved_se(chans, chans, fam32, noise, geom))
            tot_b += np.sum(per_device_max_se(chans, noise, geom))
        assert tot_a / tot_b > 0.98

    def test_narrowband_geometry_takes_one_subcarrier(self):
        geom = ArrayGeometry(n_antennas=4, carrier_freq_hz=1e9)
        with pytest.raises(ValueError, match="single subcarrier"):
            per_device_max_se(np.ones((1, 2, 4), complex), self.NOISE, geom)


def test_small_fig2_run_reproduces_the_golden_csv(tmp_path):
    # tests/data/fig2_seed11.csv holds the narrowband bound and genie circle
    # rows, written while the bound still took an explicit kind, with this
    # exact config
    out = tmp_path / "fig2.csv"
    write_csv(run_experiment(replace(preset("fig2"), n_trials=2, seed=11)), out)
    golden = Path(__file__).with_name("data") / "fig2_seed11.csv"
    assert out.read_bytes() == golden.read_bytes()


def scalar_sinrs(method, h, ctx) -> np.ndarray:
    """(K, M) SINRs of one method on the channels h (K, M, N), one scalar
    formula per (device, subcarrier)."""
    k_dev, mm, n = h.shape
    noise = ctx.noise
    out = np.empty((k_dev, mm))
    for m0 in range(mm):
        if method in ("mrt", "zf"):
            beams = getattr(baselines, method)(h[:, m0]).vectors
        elif method == "wmmse":
            beams = baselines.wmmse(h[:, m0], noise).vectors
        for k0 in range(k_dev):
            if method == "bound":
                out[k0, m0] = (
                    sinr_bound(h[k0, m0], noise) if mm == 1
                    else noise.tx_power * np.sum(np.abs(h[k0, m0]) ** 2) / noise.variance
                )
            elif method in ("circle", "r-circle"):
                out[k0, m0] = achieved_sinr(h[k0, m0], h[k0, m0], ctx.family, k0 + 1, noise)
            else:
                amp = baselines.csit_amplitude(n, k_dev, noise)
                gains = [abs(amp * np.vdot(h[k0, m0], beams[j])) ** 2 for j in range(k_dev)]
                interference = math.fsum(g for j, g in enumerate(gains) if j != k0)
                out[k0, m0] = gains[k0] / (interference + noise.variance)
    return out


# single subcarriers with a bandwidth or a cyclic prefix: the bound keeps its
# N divisor whatever the bandwidth and pays the 1/(1 + L_cp) overhead
@settings(max_examples=30, deadline=None)
@given(
    k_dev=st.integers(1, 6),
    mm=st.sampled_from([1, 2, 3]),
    cp_len=st.sampled_from([0, 2]),
    bandwidth_hz=st.sampled_from([0.0, 1e9]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k_dev=3, mm=1, cp_len=0, bandwidth_hz=1e9, seed=3)
@example(k_dev=3, mm=1, cp_len=2, bandwidth_hz=0.0, seed=3)
def test_every_rows_se_follows_the_scalar_rule(k_dev, mm, cp_len, bandwidth_hz, seed):
    """Each device's SE is sum_m log2(1 + SINR_km) / (M + L_cp), for every
    method, with narrowband the M = 1 case of the same rule."""
    cfg = ExperimentConfig(
        n_devices=k_dev, n_subcarriers=mm, cp_len=cp_len, bandwidth_hz=bandwidth_hz,
        csir="genie", methods=("bound", "circle", "r-circle", "mrt", "zf", "wmmse"),
        n_trials=2, seed=seed,
    )
    ctx = _SweepContext(cfg, None)
    channels = {}
    for row in run_experiment(cfg):
        trial = row.trial_index
        if trial not in channels:
            channels[trial] = np.stack([
                sample_channel(ctx.geometry, k, key_rng(seed, trial, k), ctx.profile).h
                for k in range(1, k_dev + 1)
            ])
        sinr = scalar_sinrs(row.method, channels[trial], ctx)
        want = [sum(se_bits(s) for s in dev) / (mm + cp_len) for dev in sinr]
        np.testing.assert_allclose(row.per_device_se, want, rtol=1e-9, atol=1e-12)
