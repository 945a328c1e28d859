import math
import signal
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_mimo import baselines
from circle_mimo.baselines import (
    SingularChannelError,
    _desired_and_rest,
    _solve_unit_ball,
    csit_amplitude,
    mrt,
    per_device_csit_se,
    wmmse,
    zf,
)
from circle_mimo.channel import ArrayGeometry, ChannelProfile, NoiseModel, sample_channel
from circle_mimo.harness import _SweepContext, preset, run_experiment
from oracle import key_rng

GEOM = ArrayGeometry(n_antennas=8, carrier_freq_hz=100e9)
NOISE = NoiseModel(variance=0.1, tx_power=1.0)


def draw_channels(k, n, seed, nlos_var=10 ** -1.5):
    geom = ArrayGeometry(n_antennas=n, carrier_freq_hz=100e9)
    prof = ChannelProfile(nlos_var=nlos_var, n_nlos=3)
    rng = np.random.default_rng(seed)
    return np.stack([sample_channel(geom, k0 + 1, rng, prof).h[0] for k0 in range(k)])


class TestMrt:
    def test_unit_norm_rows(self):
        h = draw_channels(4, 8, seed=0)
        f = mrt(h).vectors
        np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)

    def test_scale_invariance(self):
        h = draw_channels(3, 8, seed=1)
        f1 = mrt(h).vectors
        f2 = mrt(5.0 * h).vectors
        np.testing.assert_allclose(f1, f2, atol=1e-12)

    def test_single_device_sinr_formula(self):
        # one device, beam along the channel: SINR = (N/K)^2 p_t ||h||^2 / sigma^2
        h = draw_channels(1, 8, seed=2)
        se = per_device_csit_se([mrt(h)], h[:, None, :], NOISE, GEOM)
        want_sinr = (8 / 1) ** 2 * 1.0 * np.linalg.norm(h[0]) ** 2 / 0.1
        assert se[0] == pytest.approx(math.log2(1 + want_sinr), rel=1e-12)

    def test_orthogonal_devices_no_interference(self):
        h = np.zeros((2, 8), dtype=complex)
        h[0, :4] = 1.0 + 0.5j
        h[1, 4:] = 0.3 - 1.0j
        pre = mrt(h)
        se = per_device_csit_se([pre], h[:, None, :], NOISE, GEOM)
        for k in range(2):
            sinr = (8 / 2) ** 2 * np.linalg.norm(h[k]) ** 2 / 0.1
            assert se[k] == pytest.approx(math.log2(1 + sinr), rel=1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            mrt(np.zeros((2, 4), dtype=complex))


class TestZf:
    def test_cross_terms_vanish(self):
        h = draw_channels(4, 8, seed=3)
        f = zf(h).vectors
        for k in range(4):
            for k2 in range(4):
                if k != k2:
                    assert abs(np.vdot(h[k], f[k2])) < 1e-9

    def test_unit_norm_rows(self):
        h = draw_channels(5, 8, seed=4)
        np.testing.assert_allclose(np.linalg.norm(zf(h).vectors, axis=1), 1.0, atol=1e-12)

    def test_single_device_equals_mrt(self):
        h = draw_channels(1, 8, seed=5)
        np.testing.assert_allclose(zf(h).vectors, mrt(h).vectors, atol=1e-10)

    def test_interference_free_sinr(self):
        h = draw_channels(4, 8, seed=6)
        pre = zf(h)
        se = per_device_csit_se([pre], h[:, None, :], NOISE, GEOM)
        for k in range(4):
            sinr = (8 / 4) ** 2 * abs(np.vdot(h[k], pre.vectors[k])) ** 2 / 0.1
            assert se[k] == pytest.approx(math.log2(1 + sinr), rel=1e-9)

    def test_near_collinear_penalty(self):
        # ill-conditioned stack: ZF pays a large norm penalty and falls
        # behind MRT at this operating point
        rng = np.random.default_rng(7)
        base = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h = np.stack([base, base + 1e-3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))])
        geom = GEOM
        se_zf = np.sum(per_device_csit_se([zf(h)], h[:, None, :], NOISE, geom))
        se_mrt = np.sum(per_device_csit_se([mrt(h)], h[:, None, :], NOISE, geom))
        assert se_zf < se_mrt

    def test_overloaded_rejected(self):
        with pytest.raises(SingularChannelError):
            zf(draw_channels(9, 8, seed=8))

    def test_rank_deficient_gets_finite_beams(self):
        # every device on one channel: the pseudo-inverse's beams, not an error
        h = np.ones((3, 8), dtype=complex)
        pre = zf(h)
        assert np.isfinite(pre.vectors).all()
        np.testing.assert_allclose(np.linalg.norm(pre.vectors, axis=1), 1.0, atol=1e-12)
        assert np.isfinite(per_device_csit_se([pre], h[:, None, :], NOISE, GEOM)).all()

    def test_zero_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            zf(np.zeros((2, 4), dtype=complex))


class TestWmmse:
    def test_single_device_converges_to_mrt(self):
        h = draw_channels(1, 8, seed=9)
        w = wmmse(h, NOISE).vectors[0]
        m = mrt(h).vectors[0]
        cosine = abs(np.vdot(w, m)) / (np.linalg.norm(w) * np.linalg.norm(m))
        assert cosine > 1 - 1e-6

    def test_objective_nondecreasing(self):
        h = draw_channels(6, 8, seed=10)
        pre = wmmse(h, NOISE)
        assert len(pre.wsr_history) >= 2
        assert np.min(np.diff(pre.wsr_history)) > -1e-8

    def test_unit_norm_rows(self):
        h = draw_channels(6, 8, seed=11)
        np.testing.assert_allclose(np.linalg.norm(wmmse(h, NOISE).vectors, axis=1), 1.0,
                                   atol=1e-12)

    def test_deterministic(self):
        h = draw_channels(5, 8, seed=12)
        a = wmmse(h, NOISE)
        b = wmmse(h, NOISE)
        assert (a.vectors == b.vectors).all()
        assert a.iterations == b.iterations

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            wmmse(draw_channels(2, 8, seed=13), NoiseModel(variance=0.0, tx_power=1.0))

    def test_ordering_over_paired_trials(self):
        # near-full load at 10 dB: WMMSE beats ZF and MRT in the mean
        geom = ArrayGeometry(n_antennas=10, carrier_freq_hz=100e9)
        totals = {"wmmse": 0.0, "zf": 0.0, "mrt": 0.0}
        for t in range(200):
            h = draw_channels(8, 10, seed=1000 + t)
            chans = h[:, None, :]
            totals["wmmse"] += np.sum(per_device_csit_se([wmmse(h, NOISE)], chans, NOISE, geom))
            totals["zf"] += np.sum(per_device_csit_se([zf(h)], chans, NOISE, geom))
            totals["mrt"] += np.sum(per_device_csit_se([mrt(h)], chans, NOISE, geom))
        assert totals["wmmse"] >= totals["zf"]
        assert totals["wmmse"] >= totals["mrt"]

    def test_finite_at_high_snr(self):
        # at 180 dB the interference-plus-noise power is far below the
        # desired power, so 1 - |desired|^2/total cancels to zero
        cfg = replace(
            preset("fig5"), sweep_param=None, sweep_values=None, n_devices=30,
            n_subcarriers=1, cp_len=0, bandwidth_hz=0.0, snr_db=180.0, n_trials=1,
            methods=("wmmse",),
        )
        (row,) = run_experiment(cfg)
        assert np.isfinite(row.per_device_se).all()
        assert row.sum_se_bits_per_use > 0
        pre = wmmse(draw_channels(30, 32, seed=18), NoiseModel(variance=1e-16, tx_power=1.0))
        assert np.isfinite(pre.vectors).all()
        assert np.isfinite(pre.wsr_history).all()

    def test_beats_zf_at_light_load(self):
        # large array, few devices: paired mean comparison over 200 draws
        geom = ArrayGeometry(n_antennas=32, carrier_freq_hz=100e9)
        tw = tz = 0.0
        for t in range(200):
            h = draw_channels(8, 32, seed=5000 + t)
            tw += np.sum(per_device_csit_se([wmmse(h, NOISE)], h[:, None, :], NOISE, geom))
            tz += np.sum(per_device_csit_se([zf(h)], h[:, None, :], NOISE, geom))
        assert tw >= tz


def bisection_oracle(a, b):
    """Reference unit-ball solve: water levels bisected for a fixed 100 steps.

    The solver WMMSE used before the Newton iteration, kept to check it.
    """
    vals, vecs = np.linalg.eigh(a)
    bt = vecs.conj().T @ b
    cutoff = max(vals[-1], 0.0) * 1e-12
    bt[vals <= cutoff] = 0.0
    vals = np.maximum(vals, 0.0)
    weights = np.abs(bt) ** 2

    def norms2(mu):
        denom = (vals[:, None] + mu[None, :]) ** 2
        out = np.divide(weights, denom, out=np.zeros_like(weights), where=denom > 0)
        return np.sum(out, axis=0)

    k = bt.shape[1]
    mu = np.zeros(k)
    need = norms2(mu) > 1.0
    if np.any(need):
        hi = np.ones(k)
        while True:  # open-ended doubling: finite inputs only
            over = need & (norms2(hi) > 1.0)
            if not np.any(over):
                break
            hi[over] *= 2.0
        lo = np.zeros(k)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            over = norms2(mid) > 1.0
            lo = np.where(over, mid, lo)
            hi = np.where(over, hi, mid)
        mu = np.where(need, hi, 0.0)

    denom = vals[:, None] + mu[None, :]
    scale = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0)
    return vecs @ (bt * scale)


def block_problem(seed):
    """Random precoder block: PSD ``a`` of rank r <= n from r channel-like
    vectors with spread gains, ``b`` in its range with column scales spread
    so that some beams sit inside the ball and some far outside."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    r = int(rng.integers(1, n + 1))
    k = int(rng.integers(1, 40))
    g = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) * 10.0 ** rng.uniform(
        -2, 2, size=r
    )
    a = (g * 10.0 ** rng.uniform(-3, 3)) @ g.conj().T
    coeffs = rng.standard_normal((r, k)) + 1j * rng.standard_normal((r, k))
    b = g @ coeffs * 10.0 ** rng.uniform(-4, 3, size=k)
    return a, b, rng


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSolveUnitBall:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bisection_oracle_and_kkt(self, seed):
        a, b, rng = block_problem(seed)
        w, mu = _solve_unit_ball(a, b)
        want = bisection_oracle(a, b)
        scale = np.maximum(np.linalg.norm(want, axis=0), 1e-300)
        assert np.all(np.linalg.norm(w - want, axis=0) <= 1e-10 * scale)

        norms = np.linalg.norm(w, axis=0)
        assert np.all(norms <= 1 + 1e-12)
        assert np.all(mu >= 0)
        unconstrained = np.linalg.norm(np.linalg.lstsq(a, b, rcond=1e-12)[0], axis=0)
        inside = unconstrained < 1 - 1e-6
        assert np.all(mu[inside] == 0)
        assert np.all(np.abs(norms[unconstrained > 1 + 1e-6] - 1) <= 1e-12)

        # a warm start anywhere, in or out of the bracket, reaches the same levels
        warm_w, warm_mu = _solve_unit_ball(a, b, mu * rng.uniform(0, 3, size=mu.shape))
        assert np.all(np.linalg.norm(warm_w - want, axis=0) <= 1e-10 * scale)
        assert np.all(warm_mu[inside] == 0)

    def test_iteration_cap_leaves_beams_feasible(self, monkeypatch):
        # a beam still open at the cap takes the feasible end of its bracket
        monkeypatch.setattr(baselines, "_NEWTON_STEPS", 2)
        a, b, _ = block_problem(7)
        w, mu = _solve_unit_ball(a, b)
        assert np.all(np.linalg.norm(w, axis=0) <= 1 + 1e-12)
        assert np.all(mu >= 0)

    def test_zero_matrix_gives_zero_beams(self):
        w, mu = _solve_unit_ball(np.zeros((4, 4), dtype=complex), np.ones((4, 2), dtype=complex))
        assert (w == 0).all()
        assert (mu == 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_column_terminates(self, bad):
        a, b, _ = block_problem(3)
        b[:, 0] = bad
        want = bisection_oracle(a, b[:, 1:])
        with time_limit(30), np.errstate(invalid="ignore"):
            try:
                w, _ = _solve_unit_ball(a, b)
            except (ValueError, np.linalg.LinAlgError):
                return
        np.testing.assert_allclose(w[:, 1:], want, rtol=0, atol=1e-10 * np.abs(want).max())


class TestCsitSumSe:
    def test_power_constraint_after_build(self):
        h = draw_channels(4, 8, seed=15)
        for pre in (mrt(h), zf(h), wmmse(h, NOISE)):
            np.testing.assert_allclose(np.linalg.norm(pre.vectors, axis=1), 1.0, atol=1e-12)

    def test_noise_dominated_limit(self):
        h = draw_channels(3, 8, seed=16)
        heavy = NoiseModel(variance=1e12, tx_power=1.0)
        assert np.sum(per_device_csit_se([mrt(h)], h[:, None, :], heavy, GEOM)) < 1e-6

    def test_equal_antennas_and_devices_drops_factor(self):
        assert csit_amplitude(8, 8, NoiseModel(variance=0.1, tx_power=2.0)) == pytest.approx(
            math.sqrt(2.0)
        )

    def test_power_normalization_option(self):
        amp_a = csit_amplitude(8, 2, NOISE, "amplitude")
        amp_p = csit_amplitude(8, 2, NOISE, "power")
        assert amp_a == pytest.approx(4.0)
        assert amp_p == pytest.approx(2.0)
        with pytest.raises(ValueError):
            csit_amplitude(8, 2, NOISE, "bogus")

    def test_wideband_prefactor(self):
        geom = ArrayGeometry(
            n_antennas=8, carrier_freq_hz=100e9, bandwidth_hz=1e9, n_subcarriers=2, cp_len=3
        )
        rng = np.random.default_rng(17)
        chans = np.stack(
            [
                np.stack([rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(2)])
                for _ in range(3)
            ]
        )
        pres = [mrt(chans[:, m0, :]) for m0 in range(2)]
        total = np.sum(per_device_csit_se(pres, chans, NOISE, geom))
        # recompute without the helper, per subcarrier, then apply 1/(M+Lcp)
        manual = 0.0
        amp = csit_amplitude(8, 3, NOISE)
        for m0 in range(2):
            f = pres[m0].vectors
            for k in range(3):
                sig = abs(amp * np.vdot(chans[k, m0], f[k])) ** 2
                interf = sum(
                    abs(amp * np.vdot(chans[k, m0], f[j])) ** 2 for j in range(3) if j != k
                )
                manual += math.log2(1 + sig / (interf + 0.1))
        assert total == pytest.approx(manual / (2 + 3), rel=1e-12)

    def test_interference_sums_the_off_diagonal_terms_at_high_snr(self):
        # a fig5 K = 30 draw at 180 dB: the interference (1e-13 to 1e-9) is
        # some 1e-28 of the desired power, so sum(cross) - desired cancels to 0
        cfg = replace(
            preset("fig5"), sweep_param=None, sweep_values=None, n_devices=30,
            n_subcarriers=1, cp_len=0, bandwidth_hz=0.0, snr_db=180.0,
        )
        ctx = _SweepContext(cfg, None)
        h = np.stack([
            sample_channel(ctx.geometry, k, key_rng(cfg.seed, 0, k), ctx.profile).h
            for k in range(1, 31)
        ])
        amp = csit_amplitude(32, 30, ctx.noise)
        for pre in (zf(h[:, 0]), wmmse(h[:, 0], ctx.noise)):
            cross = amp * (h[:, 0].conj() @ pre.vectors.T)
            power = np.abs(cross) ** 2
            sig = np.diagonal(power)
            explicit = np.array([
                math.fsum(power[k, j] for j in range(30) if j != k) for k in range(30)
            ])
            assert explicit.min() > 0
            _, interference = _desired_and_rest(cross, 0.0)
            np.testing.assert_allclose(interference, explicit, rtol=1e-12, atol=0)
            want = np.log2(1.0 + sig / (explicit + ctx.noise.variance))
            got = per_device_csit_se([pre], h, ctx.noise, ctx.geometry)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
