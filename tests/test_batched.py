"""The batched trial kernels against the scalar formulas they replace.

The codebook sweep, the achieved spectral efficiency and the channel
synthesis each run as one array pass; the scalar formulas of
``tests/oracle.py`` (``estimate_gain``, ``score_candidate``,
``achieved_sinr``) and ``channel.array_response`` are the reference each
pass must reproduce, and the rows of whole estimated-CSIR runs are rebuilt
from them.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from circle_mimo.channel import (
    ArrayGeometry,
    ChannelProfile,
    NoiseModel,
    array_response,
    sample_channel,
)
from circle_mimo.dftcore import (
    PermutedDftFamily,
    build_family,
    build_precoders,
    pairwise_diagonals,
)
from circle_mimo.estimation import (
    make_codebook,
    narrowband_search,
    sweep_scores,
    wideband_search,
)
from circle_mimo.harness import ExperimentConfig, _SweepContext, preset, run_experiment, write_csv
from circle_mimo.receiver import SINR_CAP, DegenerateChannelError, per_device_achieved_se
from circle_mimo.transceiver import ReceivedBlock, make_frame, receive, transmit
from conftest import los_channel
from oracle import (
    achieved_sinr,
    estimate_gain,
    key_rng,
    lowest_same_sine,
    received_block,
    score_candidate,
    se_bits,
)

N = 8
FAM = build_family(N)
PRE = build_precoders(FAM)
DIAGS = pairwise_diagonals(FAM)
CB = make_codebook(12, math.pi / 2)
REL = 1e-12
EPS = np.finfo(float).eps


def close(got, want, rel=REL):
    return abs(got - want) <= rel * abs(want)


def product_roundoff(cand, member, y):
    """Bound on the roundoff of cand @ (member^* @ y) in either evaluation
    order, from the size of the terms summed: 2N*eps*|cand|^T |member| |y|."""
    return 2 * len(y) * EPS * float(np.abs(cand) @ (np.abs(member) @ np.abs(y)))


def candidate_roundoff(cand, alpha, score, y, family, pilots, noise, cand_err=0.0, y_err=0.0):
    """Bounds (d_alpha, d_score) on how far a batched gain estimate alpha^*
    and score of one candidate may lie from the scalar ``alpha`` and
    ``score``, from the size of the terms summed: a gain whose inner product
    cancels is only as precise as the terms it cancelled from.  ``cand_err``
    and ``y_err`` bound the entries' own errors where the batched code built
    the candidate or the block another way; each enters the products as
    their roundoff does.  With a zero gain no relative bound holds."""
    n = family.n
    scale = math.sqrt(noise.tx_power * n)
    p_1, p_2 = scale * pilots[0], scale * pilots[1]
    widen = 2 * n * EPS
    cand_size, y_size = np.abs(cand) + cand_err / widen, np.abs(y) + y_err / widen
    d_alpha = product_roundoff(cand_size, family.member(n - 1), y_size) / abs(p_1)
    if alpha == 0:
        return d_alpha, math.inf
    # the residual d_2 - p_2 alpha^* carries the roundoff of d_2 and p_2 times
    # that of alpha^*; log2(1 + gamma) moves by at most the relative error of
    # gamma over ln 2, and gamma = |p_2 alpha|^2 / |residual|^2
    d_2 = cand @ (family.member(n).conj() @ y)
    resid = abs(d_2 - p_2 * np.conj(alpha))
    d_resid = product_roundoff(cand_size, family.member(n), y_size) + abs(p_2) * d_alpha
    rel_gamma = 2 * d_alpha / abs(alpha) + (2 * d_resid / resid if resid > 0 else math.inf)
    return d_alpha, rel_gamma / math.log(2) + 4 * EPS * score


def check_candidate(alpha_conj, score, cand, y, family, pilots, noise, cap=SINR_CAP):
    """The sweep's ``alpha_conj`` and ``score`` of one candidate against the
    scalar gain and score, each within :func:`candidate_roundoff`."""
    alpha = estimate_gain(cand, y, family, pilots[0], noise)
    want = score_candidate(cand, alpha, y, family, pilots[1], noise, cap)
    d_alpha, d_score = candidate_roundoff(cand, alpha, want, y, family, pilots, noise)
    assert abs(alpha_conj - np.conj(alpha)) <= d_alpha
    if alpha == 0:
        assert alpha_conj == 0 and score == want == 0.0
        return
    assert abs(score - want) <= d_score


def device_blocks(rng, mm, noise, pilots):
    """One device's pure-LoS blocks on M subcarriers, angle on the grid of CB."""
    geom = ArrayGeometry(
        n_antennas=N, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=mm, cp_len=1
    )
    gains = rng.standard_normal(mm) + 1j * rng.standard_normal(mm)
    channel = los_channel(geom, gains, CB.angles[rng.integers(CB.q_levels)])
    blocks = []
    for m0 in range(mm):
        frame = make_frame(N, "gaussian", rng, tuple(pilots[m0]))
        blocks.append(receive(channel, transmit(PRE, frame), noise, rng, m0 + 1))
    return geom, blocks


class TestSweepScores:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mm=st.integers(1, 4),
        noisy=st.booleans(),
        big_cap=st.booleans(),
    )
    def test_matches_the_scalar_gain_and_score(self, seed, mm, noisy, big_cap):
        # noiseless on-grid candidates cancel to roundoff, so their SINR is
        # either infinite or ~1e30: keep the cap below that to compare them
        cap = SINR_CAP if noisy and big_cap else 1e6
        rng = np.random.default_rng(seed)
        noise = NoiseModel(variance=0.05 if noisy else 0.0, tx_power=rng.uniform(0.5, 2.0))
        pilots = np.exp(2j * np.pi * rng.uniform(size=(mm, 2))) * rng.uniform(0.5, 2, (mm, 2))
        geom, blocks = device_blocks(rng, mm, noise, pilots)
        vectors = CB.tables(geom)
        vectors[0, :, 3] = 0.0  # a candidate whose gain estimate is exactly zero

        ys = np.stack([b.y for b in blocks])[None]  # a stack of one device
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, cap)
        assert scores.shape == alpha_conj.shape == (1, mm, CB.distinct.size)
        scores, alpha_conj = scores[0], alpha_conj[0]
        for m0 in range(mm):
            for j in range(CB.distinct.size):
                check_candidate(alpha_conj[m0, j], scores[m0, j], vectors[m0, :, j],
                                blocks[m0].y, FAM, pilots[m0], noise, cap)
        assert alpha_conj[0, 3] == 0 and scores[0, 3] == 0.0

    def test_zero_residual_scores_the_cap(self):
        # members N-1 and N both the identity: the two pilot slots combine to
        # the same real samples, so a real candidate leaves a zero residual
        members = np.array(FAM.members)
        members[N - 2] = members[N - 1] = np.eye(N)
        fam = PermutedDftFamily(n=N, members=members)
        noise = NoiseModel(variance=0.0, tx_power=1.0 / N)  # sqrt(p_t N) = 1
        rng = np.random.default_rng(4)
        ys = rng.standard_normal((2, N)).astype(complex)
        ys[1] = 0.0  # an all-zero block: every gain estimate is zero
        vectors = [np.ones((N, 3), dtype=complex), np.ones((N, 3), dtype=complex)]
        vectors[0][:, 1] = np.exp(1j * rng.uniform(0, 6, N))
        pilots = np.ones((2, 2), dtype=complex)
        scores = sweep_scores(ys[None], fam, vectors, pilots, noise, 1e8)[0][0]
        assert scores[0, 0] == scores[0, 2] == math.log2(1.0 + 1e8)
        assert np.all(scores[1] == 0.0)
        for q0 in range(3):
            alpha = estimate_gain(vectors[0][:, q0], ys[0], fam, 1.0, noise)
            want = score_candidate(vectors[0][:, q0], alpha, ys[0], fam, 1.0, noise, 1e8)
            assert close(scores[0, q0], want)

    def test_a_nan_block_scores_zero(self):
        rng = np.random.default_rng(5)
        geom, blocks = device_blocks(rng, 2, NoiseModel(variance=0.1), np.ones((2, 2)))
        ys = np.stack([b.y for b in blocks])
        ys[1, 3] = np.nan
        scores = sweep_scores(
            ys[None], FAM, CB.tables(geom), np.ones((2, 2)), NoiseModel(), SINR_CAP
        )[0][0]
        assert np.all(scores[1] == 0.0)
        assert np.all(np.isfinite(scores[0])) and np.any(scores[0] > 0)

    def test_zero_pilot_rejected(self):
        ys = np.ones((1, 1, N), dtype=complex)
        with pytest.raises(ValueError, match="^pilot symbols must be nonzero"):
            sweep_scores(ys, FAM, CB.tables(ArrayGeometry(N, 100e9)),
                         np.array([[1.0, 0.0]]), NoiseModel(), SINR_CAP)

    def test_sweeps_share_the_family_combiners(self):
        # members N-1 and N are conjugated and stacked once per family, not
        # once per sweep
        fam = build_family(N)
        rng = np.random.default_rng(6)
        noise = NoiseModel(variance=0.1)
        pilots = np.ones((2, 2), dtype=complex)
        geom, blocks = device_blocks(rng, 2, noise, pilots)
        ys = np.stack([b.y for b in blocks])[None]
        first = sweep_scores(ys, fam, CB.tables(geom), pilots, noise, SINR_CAP)
        combiners = fam.combiners
        second = sweep_scores(ys, fam, CB.tables(geom), pilots, noise, SINR_CAP)
        assert fam.combiners is combiners
        assert not combiners.flags.writeable
        assert np.array_equal(combiners, np.conj(fam.members[N - 2 :]).reshape(2 * N, N))
        for got, want in zip(second, first, strict=True):
            assert np.array_equal(got, want)


def same_result(a, b):
    return (
        a.device == b.device and a.q_star == b.q_star and a.score == b.score
        and np.array_equal(a.alpha_hat, b.alpha_hat) and np.array_equal(a.h_hat, b.h_hat)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_searches_equal_with_and_without_a_precomputed_sweep(seed):
    rng = np.random.default_rng(seed)
    mm = 3
    noise = NoiseModel(variance=0.1, tx_power=1.0)
    pilots = np.ones((mm, 2), dtype=complex)
    geom, blocks = device_blocks(rng, mm, noise, pilots)
    scores, alpha_conj = (rows[0] for rows in sweep_scores(
        np.stack([b.y for b in blocks])[None], FAM, CB.tables(geom), pilots, noise, SINR_CAP
    ))
    pairs = [tuple(p) for p in pilots]
    for m0 in range(mm):
        plain = narrowband_search(blocks[m0], FAM, CB, geom, pairs[m0], noise)
        swept = narrowband_search(blocks[m0], FAM, CB, geom, pairs[m0], noise,
                                  sweep=(scores[m0], alpha_conj[m0]))
        assert same_result(plain, swept)
    plain = wideband_search(blocks, FAM, CB, geom, pairs, noise)
    swept = wideband_search(blocks, FAM, CB, geom, pairs, noise, sweep=(scores, alpha_conj))
    assert same_result(plain, swept)


class TestAchievedSe:
    def draw(self, seed, k=N - 2, mm=3):
        rng = np.random.default_rng(seed)
        geom = ArrayGeometry(
            n_antennas=N, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=mm, cp_len=2
        )
        prof = ChannelProfile(nlos_var=0.05, n_nlos=3)
        h_true = np.stack([sample_channel(geom, k0 + 1, rng, prof).h for k0 in range(k)])
        h_hat = h_true + 0.3 * (rng.standard_normal(h_true.shape)
                                + 1j * rng.standard_normal(h_true.shape))
        return geom, h_true, h_hat

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_a_loop_of_achieved_sinr(self, seed):
        geom, h_true, h_hat = self.draw(seed)
        noise = NoiseModel(variance=0.1, tx_power=2.0)
        for hh, cap in ((h_hat, SINR_CAP), (h_true, SINR_CAP), (h_hat, 3.0)):
            got = per_device_achieved_se(hh, h_true, DIAGS, noise, geom, cap)
            k_dev, mm, _ = h_true.shape
            for k0 in range(k_dev):
                want = sum(
                    se_bits(achieved_sinr(hh[k0, m0], h_true[k0, m0], FAM, k0 + 1, noise), cap)
                    for m0 in range(mm)
                ) / (mm + geom.cp_len)
                assert close(got[k0], want)

    def test_noiseless_perfect_combining_is_capped(self):
        geom, h_true, _ = self.draw(7)
        noise = NoiseModel(variance=0.0, tx_power=1.0)
        got = per_device_achieved_se(h_true, h_true, DIAGS, noise, geom, 1e6)
        for k0 in range(h_true.shape[0]):
            want = sum(
                se_bits(achieved_sinr(h_true[k0, m0], h_true[k0, m0], FAM, k0 + 1, noise), 1e6)
                for m0 in range(h_true.shape[1])
            ) / (h_true.shape[1] + geom.cp_len)
            assert close(got[k0], want)

    def test_zero_entry_of_any_device_raises(self):
        geom, h_true, h_hat = self.draw(3)
        h_hat[-1, 1, 2] = 0.0
        with pytest.raises(DegenerateChannelError):
            per_device_achieved_se(h_hat, h_true, DIAGS, NoiseModel(), geom)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mm=st.integers(1, 6),
    n=st.integers(1, 24),
    n_nlos=st.integers(0, 4),
    bandwidth=st.sampled_from([0.0, 10e9, 37e9]),
)
def test_sample_channel_is_the_sum_of_array_responses(seed, mm, n, n_nlos, bandwidth):
    geom = ArrayGeometry(
        n_antennas=n, carrier_freq_hz=100e9, bandwidth_hz=bandwidth, n_subcarriers=mm
    )
    prof = ChannelProfile(nlos_var=0.05, n_nlos=n_nlos, angular_range=1.7 * math.pi)
    ch = sample_channel(geom, 1, np.random.default_rng(seed), prof)
    want = np.empty((mm, n), dtype=complex)
    for m0 in range(mm):
        vec = ch.los_gain[m0] * array_response(geom, ch.los_aod, m0 + 1)
        for l0 in range(n_nlos):
            vec = vec + ch.nlos_gains[m0, l0] * array_response(geom, ch.nlos_aods[l0], m0 + 1)
        want[m0] = vec
    assert np.array_equal(ch.h, want)


def scalar_sweep(cfg, ctx, trial):
    """Every (device, subcarrier) of one estimated-CSIR trial rebuilt from
    the scalar formulas, with every stream from ``key_rng``: the true
    channel h (K, M, N), and per grid index the candidate, its gain, its
    score and the band its batched score may lie in, each (K, M, Q, ...)."""
    k_dev, mm, n, noise, fam = cfg.n_devices, cfg.n_subcarriers, ctx.n, ctx.noise, ctx.family
    rng = key_rng(cfg.seed, trial)
    frames = [make_frame(n, cfg.symbol_source, rng) for _ in range(mm)]
    h = np.array([
        sample_channel(ctx.geometry, k, key_rng(cfg.seed, trial, k), ctx.profile).h
        for k in range(1, k_dev + 1)
    ])
    shape = (k_dev, mm, cfg.q_levels)
    cands = np.empty(shape + (n,), dtype=complex)
    alphas, scores, bands = np.empty(shape, dtype=complex), np.empty(shape), np.empty(shape)
    for k0, m0 in np.ndindex(k_dev, mm):
        symbols = frames[m0].symbols
        y = received_block(h[k0, m0], symbols, ctx.precoders, noise,
                           key_rng(cfg.seed, trial, k0 + 1, m0 + 1))
        # the harness forms the same block from another order of the same
        # products: each of the two N-term sums errs by up to 2(N+1) eps of
        # its terms, and the noise is added once more
        terms = [np.abs(h[k0, m0]) @ (np.abs(ctx.precoders[s - 1]) @ np.abs(symbols))
                 for s in range(1, n + 1)]
        y_err = 4 * (n + 1) * EPS * math.sqrt(noise.tx_power / n) * np.array(terms)
        y_err += 2 * EPS * np.abs(y)
        pilots = (frames[m0].pilot1, frames[m0].pilot2)
        ratio = ctx.geometry.subcarrier_freq_hz(m0 + 1) / ctx.geometry.carrier_freq_hz
        for q0, theta in enumerate(ctx.codebook.angles):
            cand = array_response(ctx.geometry, theta, m0 + 1)
            alpha = estimate_gain(cand, y, fam, pilots[0], noise)
            score = score_candidate(cand, alpha, y, fam, pilots[1], noise)
            # the table's z**p and array_response's exp(i*phase) each round a
            # phase that grows with p, and the table multiplies up to 2 log2 N
            # times: 4 eps (|phase| + log2 N) bounds their gap at N <= 6
            phase = np.pi * ratio * np.arange(n) * np.sin(theta)
            cand_err = 4 * EPS * (np.abs(phase) + math.log2(n))
            band = candidate_roundoff(cand, alpha, score, y, fam, pilots, noise, cand_err, y_err)[1]
            cands[k0, m0, q0], alphas[k0, m0, q0] = cand, alpha
            scores[k0, m0, q0], bands[k0, m0, q0] = score, band
    return h, cands, alphas, scores, bands


def scalar_pick(scores, bands, same_sine, q_got):
    """The grid index whose candidate the scalar rebuild takes, given the
    harness's 0-based pick ``q_got`` (a lowest same-sine index): the argmax
    of ``scores``, or the best index of the second-best sine when the two
    best sines' scores lie within their summed bands.  Returns (index,
    whether a near tie was taken)."""
    best = int(np.argmax(scores))
    if q_got == same_sine[best]:
        return best, False
    others = same_sine != same_sine[best]
    second = int(np.argmax(np.where(others, scores, -np.inf)))
    near = others.any() and scores[best] - scores[second] <= bands[best] + bands[second]
    assert near and q_got == same_sine[second], (q_got, same_sine[best])
    return second, True


@settings(max_examples=30, deadline=None)
@given(
    k_dev=st.integers(1, 4),
    mm=st.sampled_from([1, 2, 3]),
    cp_len=st.sampled_from([0, 2]),
    rho=st.sampled_from([2.0, 1 / 8]),
    q_levels=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
# sines +1 and -1 (Q = 4) give one steering vector at the carrier frequency,
# phase pi against -pi: a near tie the harness may break either way
@example(k_dev=2, mm=1, cp_len=2, rho=2.0, q_levels=4, seed=3890476332)
@example(k_dev=4, mm=3, cp_len=2, rho=1 / 8, q_levels=32, seed=1)
def test_every_estimated_rows_picks_and_se_follow_the_scalar_rule(
    k_dev, mm, cp_len, rho, q_levels, seed
):
    """Each estimated-CSIR row rebuilt from the scalar formulas: circle picks
    each (device, subcarrier)'s best grid index, r-circle the best of the
    scores summed over subcarriers over M + L_cp, both at the lowest index
    of the winning sine, and each device's SE is sum_m log2(1 + SINR_km) /
    (M + L_cp) with the achieved SINR of combining with alpha times the
    picked candidate."""
    cfg = ExperimentConfig(
        n_devices=k_dev, n_subcarriers=mm, cp_len=cp_len, rho=rho, q_levels=q_levels,
        methods=("circle", "r-circle"), n_trials=2, seed=seed,
    )
    ctx = _SweepContext(cfg, None)
    same_sine = lowest_same_sine(ctx.codebook)
    weight = mm + cp_len
    rows = {(row.trial_index, row.method): row for row in run_experiment(cfg)}
    near_ties = 0
    for trial in range(cfg.n_trials):
        h, cands, alphas, scores, bands = scalar_sweep(cfg, ctx, trial)
        for method in ("circle", "r-circle"):
            row = rows[trial, method]
            picks = np.empty((k_dev, mm), dtype=int)
            if method == "circle":
                assert len(row.q_star) == k_dev * mm
                for (k0, m0), q_got in zip(np.ndindex(k_dev, mm), row.q_star):
                    picks[k0, m0], near = scalar_pick(
                        scores[k0, m0], bands[k0, m0], same_sine, q_got - 1
                    )
                    near_ties += near
            else:
                assert len(row.q_star) == k_dev
                for k0, q_got in enumerate(row.q_star):
                    total = scores[k0].sum(axis=0) / weight
                    band = bands[k0].sum(axis=0) / weight + 2 * mm * EPS * total
                    picks[k0], near = scalar_pick(total, band, same_sine, q_got - 1)
                    near_ties += near
            want = [
                sum(
                    se_bits(achieved_sinr(
                        alphas[k0, m0, picks[k0, m0]] * cands[k0, m0, picks[k0, m0]],
                        h[k0, m0], ctx.family, k0 + 1, ctx.noise,
                    ))
                    for m0 in range(mm)
                ) / weight
                for k0 in range(k_dev)
            ]
            np.testing.assert_allclose(row.per_device_se, want, rtol=1e-9)
    if near_ties:
        event(f"{near_ties} near-tie pick(s) went to the second-best sine")
        print(f"seed {seed}: {near_ties} near-tie pick(s) went to the second-best sine")


def test_small_fig4d_run_reproduces_the_golden_csv(tmp_path):
    # tests/data/fig4d_k6_seed11.csv was written by the per-block estimation
    # path (one sweep per method and block) with this exact config
    config = replace(
        preset("fig4d"), sweep_param=None, sweep_values=None, n_devices=6, n_trials=3, seed=11
    )
    out = tmp_path / "fig4d.csv"
    write_csv(run_experiment(config), out)
    golden = Path(__file__).with_name("data") / "fig4d_k6_seed11.csv"
    assert out.read_bytes() == golden.read_bytes()


class TestFoldedSweep:
    """Tables, sweep and picks on the codebook's distinct sines only, for a
    chunk of devices at once."""

    @pytest.mark.parametrize("rho", [1 / 32, 1 / 2, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("q", [1, 2, 7, 64, 512])
    def test_runs_hold_each_distinct_sine_once(self, rho, q):
        # table column j is the steering vector of grid index distinct[j] on
        # every subcarrier: one column per distinct sine
        cb = make_codebook(q, rho * math.pi)
        geom = ArrayGeometry(N, 100e9, 10e9, n_subcarriers=3)
        tables = cb.tables(geom)
        assert tables.shape == (3, N, cb.distinct.size)
        for m0 in range(3):
            for j, q0 in enumerate(cb.distinct):
                want = array_response(geom, cb.angles[q0], m0 + 1)
                np.testing.assert_allclose(tables[m0, :, j], want, rtol=0, atol=1e-14)
        if rho <= 1 / 2:
            assert np.array_equal(cb.distinct, np.arange(q))

    def test_runs_of_the_full_circle(self):
        # the sines of [0, pi/2] and of (pi, 3pi/2]; pi repeats the sine of 0
        cb = make_codebook(512, 2 * math.pi)
        assert np.array_equal(cb.distinct, np.r_[0:129, 257:385])

    def draw(self, seed, k_dev, mm, cb, noisy=True):
        rng = np.random.default_rng(seed)
        noise = NoiseModel(variance=0.05 if noisy else 0.0, tx_power=rng.uniform(0.5, 2.0))
        pilots = np.exp(2j * np.pi * rng.uniform(size=(mm, 2))) * rng.uniform(0.5, 2, (mm, 2))
        geom = ArrayGeometry(
            n_antennas=N, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=mm, cp_len=1
        )
        blocks = []
        for k0 in range(k_dev):
            gains = rng.standard_normal(mm) + 1j * rng.standard_normal(mm)
            channel = los_channel(geom, gains, cb.angles[rng.integers(cb.q_levels)], k0 + 1)
            blocks.append([
                receive(channel, transmit(PRE, make_frame(N, "gaussian", rng, tuple(pilots[m0]))),
                        noise, rng, m0 + 1)
                for m0 in range(mm)
            ])
        ys = np.array([[b.y for b in dev] for dev in blocks])
        return geom, noise, pilots, blocks, ys

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k_dev=st.integers(1, 4), mm=st.integers(1, 3),
           rho=st.sampled_from([1 / 2, 1.0, 2.0]))
    # two draws that failed a tolerance relative to the gain itself, which
    # on one mirror angle cancelled to 8e-4 of the terms it was summed from
    @example(seed=131072, k_dev=2, mm=3, rho=2.0)
    @example(seed=27740, k_dev=1, mm=3, rho=1.0)
    def test_grid_rows_match_the_scalar_gain_and_score(self, seed, k_dev, mm, rho):
        cb = make_codebook(24, rho * math.pi)
        geom, noise, pilots, blocks, ys = self.draw(seed, k_dev, mm, cb)
        vectors = cb.tables(geom)
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, SINR_CAP)
        assert scores.shape == alpha_conj.shape == (k_dev, mm, cb.distinct.size)
        for k0 in range(k_dev):
            for m0 in range(mm):
                for j in range(cb.distinct.size):
                    check_candidate(alpha_conj[k0, m0, j], scores[k0, m0, j], vectors[m0, :, j],
                                    blocks[k0][m0].y, FAM, pilots[m0], noise)

    def test_mirrors_carry_the_score_of_their_sine(self):
        # sweeping every grid angle scores each mirror as the column of its
        # lowest same-sine index, up to the roundoff of its own sine
        cb = make_codebook(64, 2 * math.pi)
        geom, noise, pilots, _, ys = self.draw(3, 3, 2, cb)
        first = lowest_same_sine(cb)
        assert np.any(first != np.arange(64)) and cb.distinct.size < 64
        scores, alpha_conj = sweep_scores(ys, FAM, cb.tables(geom), pilots, noise, SINR_CAP)
        grid = np.array([[array_response(geom, a, m0 + 1) for a in cb.angles] for m0 in range(2)])
        grid_scores, grid_alpha = sweep_scores(
            ys, FAM, grid.transpose(0, 2, 1), pilots, noise, SINR_CAP
        )
        column = np.searchsorted(cb.distinct, first)
        np.testing.assert_allclose(grid_scores, scores[..., column], rtol=1e-9)
        np.testing.assert_allclose(grid_alpha, alpha_conj[..., column], rtol=1e-9)

    @pytest.mark.parametrize("rho", [1 / 32, 1 / 2, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("q", [1, 2, 7, 64, 512])
    def test_distinct_lists_the_lowest_index_of_each_sine(self, rho, q):
        cb = make_codebook(q, rho * math.pi)
        first = lowest_same_sine(cb)
        assert np.all(np.diff(cb.distinct) > 0)
        assert np.array_equal(cb.distinct, np.flatnonzero(first == np.arange(q)))
        assert np.array_equal(cb.distinct, np.unique(first))

    @pytest.mark.parametrize("cols", [(3, 20), (20, 25), (0, 32)])
    def test_a_tie_between_sines_goes_to_the_lower_index(self, cols):
        # constructed rows: two different sines score exactly the same best value
        cb = make_codebook(64, 2 * math.pi)
        mm = 2
        geom = ArrayGeometry(N, 100e9, 10e9, n_subcarriers=mm, cp_len=1)
        blocks = [ReceivedBlock(1, m0 + 1, np.zeros(N, complex)) for m0 in range(mm)]
        rng = np.random.default_rng(8)
        scores = rng.uniform(0.0, 1.0, (mm, cb.distinct.size))
        scores[:, list(cols)] = 2.0
        alpha_conj = rng.standard_normal(scores.shape) + 1j * rng.standard_normal(scores.shape)
        low, high = cb.distinct[list(cols)]
        assert low < high and lowest_same_sine(cb)[high] == high  # different sines
        pairs = [(1.0, 1.0)] * mm
        wide = wideband_search(blocks, FAM, cb, geom, pairs, NoiseModel(),
                               sweep=(scores, alpha_conj))
        assert wide.q_star == low + 1
        assert wide.score == 2.0 * mm / (mm + geom.cp_len)
        for m0 in range(mm):
            narrow = narrowband_search(blocks[m0], FAM, cb, geom, pairs[m0], NoiseModel(),
                                       sweep=(scores[m0], alpha_conj[m0]))
            # one block pays the cyclic prefix: 2 / (1 + L_cp)
            assert narrow.q_star == low + 1 and narrow.score == 2.0 / (1 + geom.cp_len)
            assert narrow.alpha_hat[0] == np.conj(alpha_conj[m0, cols[0]])

    def test_searches_reject_rows_of_another_fold(self):
        cb = make_codebook(64, 2 * math.pi)  # 33 distinct sines
        geom = ArrayGeometry(N, 100e9)
        block = ReceivedBlock(1, 1, np.zeros(N, complex))
        grid_rows = (np.zeros(64), np.zeros(64, complex))  # one column per grid index
        widths = "33 distinct sines, got rows of width 64 and tables of width 33"
        with pytest.raises(ValueError, match=widths):
            narrowband_search(block, FAM, cb, geom, (1.0, 1.0), NoiseModel(), sweep=grid_rows)
        with pytest.raises(ValueError, match=widths):
            wideband_search([block], FAM, cb, geom, (1.0, 1.0), NoiseModel(),
                            sweep=tuple(row[None] for row in grid_rows))

    @pytest.mark.parametrize("k_dev", [1, 7])
    def test_a_devices_rows_are_the_same_alone_and_in_any_chunk(self, k_dev):
        cb = make_codebook(512, 2 * math.pi)
        geom, noise, pilots, _, ys = self.draw(11, k_dev, 3, cb)
        vectors = cb.tables(geom)
        alone = [sweep_scores(ys[k0, None], FAM, vectors, pilots, noise, SINR_CAP)
                 for k0 in range(k_dev)]
        for chunk in range(1, k_dev + 1):  # 3, 4, 5 and 6 leave a shorter last chunk
            for c0 in range(0, k_dev, chunk):
                scores, alpha_conj = sweep_scores(
                    ys[c0 : c0 + chunk], FAM, vectors, pilots, noise, SINR_CAP
                )
                for i, k0 in enumerate(range(c0, min(c0 + chunk, k_dev))):
                    assert np.array_equal(scores[i], alone[k0][0][0])
                    assert np.array_equal(alpha_conj[i], alone[k0][1][0])

    def test_searches_read_a_folded_chunk_as_their_own_sweep(self):
        # r-circle and circle on a chunk's rows pick what they pick on the
        # one-device sweep they compute themselves
        cb = make_codebook(128, 2 * math.pi)
        geom, noise, pilots, blocks, ys = self.draw(5, 4, 3, cb)
        vectors = cb.tables(geom)
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, SINR_CAP)
        pairs = [tuple(p) for p in pilots]
        for k0 in range(4):
            plain = wideband_search(blocks[k0], FAM, cb, geom, pairs, noise)
            folded = wideband_search(blocks[k0], FAM, cb, geom, pairs, noise,
                                     sweep=(scores[k0], alpha_conj[k0]))
            assert folded.q_star == plain.q_star
            np.testing.assert_allclose(folded.h_hat, plain.h_hat, rtol=1e-12, atol=0)
            for m0 in range(3):
                plain = narrowband_search(blocks[k0][m0], FAM, cb, geom, pairs[m0], noise)
                folded = narrowband_search(blocks[k0][m0], FAM, cb, geom, pairs[m0], noise,
                                           sweep=(scores[k0, m0], alpha_conj[k0, m0]))
                assert folded.q_star == plain.q_star

    def test_tables_of_another_codebook_rejected(self):
        # a table with one column per grid index of another codebook, here
        # every one of Q = 64 sines, is not this codebook's 33 columns
        cb = make_codebook(64, 2 * math.pi)
        geom, noise, pilots, blocks, _ = self.draw(2, 1, 2, cb)
        full_grid = make_codebook(64, math.pi / 2).tables(geom)
        widths = "33 distinct sines, got rows of width 64 and tables of width 64"
        pairs = [tuple(p) for p in pilots]
        with pytest.raises(ValueError, match=widths):
            wideband_search(blocks[0], FAM, cb, geom, pairs, noise, vectors=full_grid)
        with pytest.raises(ValueError, match=widths):
            narrowband_search(blocks[0][1], FAM, cb, geom, pairs[1], noise, vectors=full_grid[1])
