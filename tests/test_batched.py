"""The batched trial kernels against the scalar formulas they replace.

The codebook sweep, the achieved spectral efficiency and the channel
synthesis each run as one array pass; the scalar formulas of
``tests/oracle.py`` (``estimate_gain``, ``score_candidate``,
``achieved_sinr``) and ``channel.array_response`` are the reference each
pass must reproduce.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from circle_mimo.harness import preset, run_experiment, write_csv
from circle_mimo.receiver import SINR_CAP, DegenerateChannelError, per_device_achieved_se
from circle_mimo.transceiver import ReceivedBlock, make_frame, receive, transmit
from conftest import los_channel
from oracle import achieved_sinr, estimate_gain, score_candidate, se_bits

N = 8
FAM = build_family(N)
PRE = build_precoders(FAM)
DIAGS = pairwise_diagonals(FAM)
CB = make_codebook(12, 0.0, math.pi / 2)
REL = 1e-12


def close(got, want, rel=REL):
    return abs(got - want) <= rel * abs(want)


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
        vectors = [CB.vectors(geom, m0 + 1) for m0 in range(mm)]
        vectors[0][:, 3] = 0.0  # a candidate whose gain estimate is exactly zero

        ys = np.stack([b.y for b in blocks])
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, cap)
        assert scores.shape == alpha_conj.shape == (mm, CB.q_levels)
        for m0 in range(mm):
            for q0 in range(CB.q_levels):
                cand = vectors[m0][:, q0]
                alpha = estimate_gain(cand, blocks[m0].y, FAM, pilots[m0, 0], noise)
                score = score_candidate(cand, alpha, blocks[m0].y, FAM, pilots[m0, 1], noise, cap)
                assert close(alpha_conj[m0, q0], np.conj(alpha))
                assert close(scores[m0, q0], score)
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
        scores, _ = sweep_scores(ys, fam, vectors, pilots, noise, 1e8)
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
        vectors = [CB.vectors(geom, m0 + 1) for m0 in range(2)]
        scores, _ = sweep_scores(ys, FAM, vectors, np.ones((2, 2)), NoiseModel(), SINR_CAP)
        assert np.all(scores[1] == 0.0)
        assert np.all(np.isfinite(scores[0])) and np.any(scores[0] > 0)

    def test_zero_pilot_rejected(self):
        ys = np.ones((1, N), dtype=complex)
        with pytest.raises(ValueError):
            sweep_scores(ys, FAM, [CB.vectors(ArrayGeometry(N, 100e9))],
                         np.array([[1.0, 0.0]]), NoiseModel(), SINR_CAP)


def same_result(a, b):
    return (
        a.device == b.device and a.q_star == b.q_star and a.score == b.score
        and np.array_equal(a.alpha_hat, b.alpha_hat) and np.array_equal(a.h_hat, b.h_hat)
        and a.multiply_count == b.multiply_count
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_searches_equal_with_and_without_a_precomputed_sweep(seed):
    rng = np.random.default_rng(seed)
    mm = 3
    noise = NoiseModel(variance=0.1, tx_power=1.0)
    pilots = np.ones((mm, 2), dtype=complex)
    geom, blocks = device_blocks(rng, mm, noise, pilots)
    vectors = [CB.vectors(geom, m0 + 1) for m0 in range(mm)]
    scores, alpha_conj = sweep_scores(
        np.stack([b.y for b in blocks]), FAM, vectors, pilots, noise, SINR_CAP
    )
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
            got = per_device_achieved_se(hh, h_true, FAM, noise, geom, DIAGS, cap)
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
        got = per_device_achieved_se(h_true, h_true, FAM, noise, geom, DIAGS, 1e6)
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
            per_device_achieved_se(h_hat, h_true, FAM, NoiseModel(), geom, DIAGS)


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
    """``sweep_scores`` on distinct sines only, for a chunk of devices at once."""

    @pytest.mark.parametrize("rho", [1 / 32, 1 / 2, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("q", [1, 2, 7, 64, 512])
    def test_runs_hold_each_distinct_sine_once(self, rho, q):
        cb = make_codebook(q, 0.0, rho * math.pi)
        distinct = np.flatnonzero(cb.first_same_sine == np.arange(q))
        runs = np.concatenate([np.arange(start, stop) for start, stop in cb.sine_runs])
        assert np.array_equal(runs, distinct)
        assert all(start < stop for start, stop in cb.sine_runs)
        assert all(a[1] < b[0] for a, b in zip(cb.sine_runs, cb.sine_runs[1:]))  # not adjacent
        assert np.array_equal(distinct[cb.sine_column], cb.first_same_sine)
        if rho <= 1 / 2:
            assert cb.sine_runs == ((0, q),)

    def test_runs_of_the_full_circle(self):
        # the sines of [0, pi/2] and of (pi, 3pi/2]; pi repeats the sine of 0
        assert make_codebook(512, 0.0, 2 * math.pi).sine_runs == ((0, 129), (257, 385))

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
    def test_grid_rows_match_the_scalar_gain_and_score(self, seed, k_dev, mm, rho):
        cb = make_codebook(24, 0.0, rho * math.pi)
        geom, noise, pilots, blocks, ys = self.draw(seed, k_dev, mm, cb)
        vectors = cb.tables(geom)
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, SINR_CAP, cb)
        assert scores.shape == alpha_conj.shape == (k_dev, mm, cb.distinct.size)
        for k0 in range(k_dev):
            for m0 in range(mm):
                for q0 in range(cb.q_levels):
                    col = cb.sine_column[q0]
                    cand = vectors[m0][:, q0]
                    block = blocks[k0][m0]
                    alpha = estimate_gain(cand, block.y, FAM, pilots[m0, 0], noise)
                    score = score_candidate(cand, alpha, block.y, FAM, pilots[m0, 1], noise)
                    assert close(alpha_conj[k0, m0, col], np.conj(alpha))
                    assert close(scores[k0, m0, col], score)

    def test_mirrors_carry_the_score_of_their_sine(self):
        cb = make_codebook(64, 0.0, 2 * math.pi)
        geom, noise, pilots, _, ys = self.draw(3, 3, 2, cb)
        scores, alpha_conj = sweep_scores(ys, FAM, cb.tables(geom), pilots, noise, SINR_CAP, cb)
        first = cb.first_same_sine
        assert np.any(first != np.arange(64))
        assert scores.shape[-1] == cb.distinct.size < 64
        # every grid index reads the column of its lowest same-sine index
        grid_scores = scores[..., cb.sine_column]
        grid_alpha = alpha_conj[..., cb.sine_column]
        assert np.array_equal(grid_scores, grid_scores[..., first])
        assert np.array_equal(grid_alpha, grid_alpha[..., first])
        assert np.array_equal(cb.sine_column[cb.distinct], np.arange(cb.distinct.size))

    @pytest.mark.parametrize("rho", [1 / 32, 1 / 2, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("q", [1, 2, 7, 64, 512])
    def test_distinct_lists_the_lowest_index_of_each_sine(self, rho, q):
        cb = make_codebook(q, 0.0, rho * math.pi)
        assert np.all(np.diff(cb.distinct) > 0)
        assert np.array_equal(cb.distinct[cb.sine_column], cb.first_same_sine)
        assert cb.distinct.size == len(np.unique(cb.first_same_sine))
        assert cb.distinct.size == sum(stop - start for start, stop in cb.sine_runs)

    @pytest.mark.parametrize("cols", [(3, 20), (20, 25), (0, 32)])
    def test_a_tie_between_sines_goes_to_the_lower_index(self, cols):
        # constructed rows: two different sines score exactly the same best value
        cb = make_codebook(64, 0.0, 2 * math.pi)
        mm = 2
        geom = ArrayGeometry(N, 100e9, 10e9, n_subcarriers=mm, cp_len=1)
        blocks = [ReceivedBlock(1, m0 + 1, np.zeros(N, complex), np.zeros(N, complex))
                  for m0 in range(mm)]
        rng = np.random.default_rng(8)
        scores = rng.uniform(0.0, 1.0, (mm, cb.distinct.size))
        scores[:, list(cols)] = 2.0
        alpha_conj = rng.standard_normal(scores.shape) + 1j * rng.standard_normal(scores.shape)
        low, high = cb.distinct[list(cols)]
        assert low < high and cb.first_same_sine[high] == high  # different sines
        pairs = [(1.0, 1.0)] * mm
        wide = wideband_search(blocks, FAM, cb, geom, pairs, NoiseModel(),
                               sweep=(scores, alpha_conj))
        assert wide.q_star == low + 1
        assert wide.score == 2.0 * mm / (mm + geom.cp_len)
        for m0 in range(mm):
            narrow = narrowband_search(blocks[m0], FAM, cb, geom, pairs[m0], NoiseModel(),
                                       sweep=(scores[m0], alpha_conj[m0]))
            assert narrow.q_star == low + 1 and narrow.score == 2.0
            assert narrow.alpha_hat[0] == np.conj(alpha_conj[m0, cols[0]])

    def test_searches_reject_rows_of_another_fold(self):
        cb = make_codebook(64, 0.0, 2 * math.pi)
        geom = ArrayGeometry(N, 100e9)
        block = ReceivedBlock(1, 1, np.zeros(N, complex), np.zeros(N, complex))
        grid_rows = (np.zeros(64), np.zeros(64, complex))  # one column per grid index
        with pytest.raises(ValueError, match="distinct sines"):
            narrowband_search(block, FAM, cb, geom, (1.0, 1.0), NoiseModel(), sweep=grid_rows)

    @pytest.mark.parametrize("k_dev", [1, 7])
    def test_a_devices_rows_are_the_same_alone_and_in_any_chunk(self, k_dev):
        cb = make_codebook(512, 0.0, 2 * math.pi)
        geom, noise, pilots, _, ys = self.draw(11, k_dev, 3, cb)
        vectors = cb.tables(geom)
        alone = [sweep_scores(ys[k0], FAM, vectors, pilots, noise, SINR_CAP, cb)
                 for k0 in range(k_dev)]
        for chunk in range(1, k_dev + 1):  # 3, 4, 5 and 6 leave a shorter last chunk
            for c0 in range(0, k_dev, chunk):
                scores, alpha_conj = sweep_scores(
                    ys[c0 : c0 + chunk], FAM, vectors, pilots, noise, SINR_CAP, cb
                )
                for i, k0 in enumerate(range(c0, min(c0 + chunk, k_dev))):
                    assert np.array_equal(scores[i], alone[k0][0])
                    assert np.array_equal(alpha_conj[i], alone[k0][1])

    def test_searches_read_a_folded_chunk_as_their_own_sweep(self):
        # r-circle and circle on folded chunk rows pick what they pick on the
        # full-grid sweep they compute themselves
        cb = make_codebook(128, 0.0, 2 * math.pi)
        geom, noise, pilots, blocks, ys = self.draw(5, 4, 3, cb)
        vectors = cb.tables(geom)
        scores, alpha_conj = sweep_scores(ys, FAM, vectors, pilots, noise, SINR_CAP, cb)
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
        cb = make_codebook(64, 0.0, 2 * math.pi)
        geom, noise, pilots, _, ys = self.draw(2, 2, 1, cb)
        with pytest.raises(ValueError):
            sweep_scores(ys, FAM, make_codebook(32).tables(geom), pilots, noise, SINR_CAP, cb)
