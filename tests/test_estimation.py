import math

import numpy as np
import pytest

from circle_mimo.channel import ArrayGeometry, ChannelRealization, NoiseModel, array_response
from circle_mimo.dftcore import build_family, build_precoders
from circle_mimo.estimation import (
    complexity_psi,
    make_codebook,
    narrowband_search,
    sweep_scores,
    wideband_search,
)
from circle_mimo.transceiver import make_frame, receive, transmit
from conftest import los_channel
from oracle import achieved_sinr, estimate_gain, score_candidate, se_bits

GEOM = ArrayGeometry(n_antennas=16, carrier_freq_hz=100e9)
NOISELESS = NoiseModel(variance=0.0, tx_power=1.0)
FAM = build_family(16)
PRE = build_precoders(FAM)
# sin is injective on [0, pi/2): every grid index is uniquely identifiable
CB = make_codebook(256, 0.0, math.pi / 2)


def one_block(channel, rng, source="gaussian", noise=NOISELESS, m=1, n=16):
    frame = make_frame(n, source, rng)
    block = receive(channel, transmit(PRE, frame), noise, rng, m)
    return frame, block


class TestCodebook:
    def test_full_range_default(self):
        cb = make_codebook(8)
        np.testing.assert_allclose(cb.angles, -math.pi + np.arange(8) * math.pi / 4)
        assert cb.angles[0] == -math.pi
        assert cb.angles[-1] < math.pi

    def test_restricted_domain(self):
        cb = make_codebook(4, 0.0, math.pi / 2)
        np.testing.assert_allclose(cb.angles, [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8])

    def test_vectors_match_array_response(self):
        geom = ArrayGeometry(
            n_antennas=8, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=5
        )
        cb = make_codebook(16, 0.0, math.pi)
        v = cb.vectors(geom, 3)
        for q in range(16):
            np.testing.assert_allclose(v[:, q], array_response(geom, cb.angles[q], 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_codebook(0)
        with pytest.raises(ValueError):
            make_codebook(4, 0.0, 0.0)

    @pytest.mark.parametrize("field, start, span", [
        ("range_start", math.inf, math.pi), ("range_start", -math.inf, math.pi),
        ("range_start", math.nan, math.pi), ("range_span", 0.0, math.nan),
        ("range_span", 0.0, math.inf),
    ])
    def test_non_finite_range_rejected_by_name(self, field, start, span):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make_codebook(8, start, span)


# subcarrier-to-carrier frequency ratios 0.955, 1 and 1.045
def table_geometry(n):
    return ArrayGeometry(
        n_antennas=n, carrier_freq_hz=100e9, bandwidth_hz=13.5e9, n_subcarriers=3
    )


def slope(geom, m):
    """The phase slope pi * f_m / f_c as the tables round it."""
    return np.pi * (geom.subcarrier_freq_hz(m) / geom.carrier_freq_hz)


def table_error(table, sl, sines):
    """Largest distance of an (N, Q) table from exp(i*sl*p*sin) in long double."""
    arg = (np.longdouble(sl) * np.arange(table.shape[0], dtype=np.longdouble)[:, None]
           * sines.astype(np.longdouble))
    return float(np.max(np.hypot(table.real - np.cos(arg), table.imag - np.sin(arg))))


class TestCodebookTables:
    CB = make_codebook(512, 0.0, 2 * math.pi)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double"
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 32, 130, 514])
    def test_as_close_to_an_extended_precision_reference_as_exp(self, n):
        geom = table_geometry(n)
        tables = self.CB.tables(geom)
        assert tables.shape == (3, n, 512) and tables.dtype == complex
        sines = np.sin(self.CB.angles)
        for m0 in range(3):
            sl = slope(geom, m0 + 1)
            direct = np.exp(1j * sl * np.outer(np.arange(n), sines))  # one exp per entry
            err = table_error(tables[m0], sl, sines)
            assert err <= max(table_error(direct, sl, sines), 1e-15)
            assert err <= 2e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_rows_zero_and_one_are_one_and_the_phasor(self, n):
        geom = table_geometry(n)
        tables = self.CB.tables(geom)
        assert np.all(tables[:, 0] == 1.0)
        for m0 in range(3 if n > 1 else 0):
            z = np.exp(1j * slope(geom, m0 + 1) * np.sin(self.CB.angles))
            assert np.array_equal(tables[m0, 1], z)

    def test_vectors_read_the_builder(self):
        geom = table_geometry(32)
        tables = self.CB.tables(geom)
        for m in (1, 2, 3):
            v = self.CB.vectors(geom, m)
            assert v.shape == (32, 512) and v.dtype == complex
            assert np.array_equal(v, tables[m - 1])
        assert np.array_equal(self.CB.tables(geom, [3, 1]), tables[[2, 0]])


def lowest_same_sine(cb):
    sines = np.sin(cb.angles)
    return np.array([np.flatnonzero(np.abs(sines - s) <= 1e-12)[0] for s in sines])


class TestSameSineTieBreak:
    def test_map_to_the_lowest_index_with_the_same_sine(self):
        full = make_codebook(512, 0.0, 2 * math.pi)
        for cb in (full, make_codebook(12, 0.0, 2 * math.pi), make_codebook(8), make_codebook(1)):
            assert np.array_equal(cb.first_same_sine, lowest_same_sine(cb))
        # the rho = 2 grid: 510 of 512 angles pair with a mirror pi - theta
        assert len(np.unique(full.first_same_sine)) == 257
        for q in (1, 7, 256, 512):
            cb = make_codebook(q, 0.0, math.pi / 2)
            assert np.array_equal(cb.first_same_sine, np.arange(q))

    @pytest.mark.parametrize("seed", range(3))
    def test_searches_return_the_lowest_index_of_a_sine(self, seed):
        rng = np.random.default_rng(seed)
        cb = make_codebook(64, 0.0, 2 * math.pi)
        first = lowest_same_sine(cb)
        geom = ArrayGeometry(
            n_antennas=16, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=3, cp_len=1
        )
        noise = NoiseModel(variance=0.05, tx_power=1.0)
        vectors = cb.tables(geom)
        for _ in range(8):
            # a LoS angle on the grid whose mirror has the lower index
            q_true = rng.choice(np.flatnonzero(first != np.arange(64)))
            ch = los_channel(geom, rng.standard_normal(3) + 1j, cb.angles[q_true])
            frames = [make_frame(16, "gaussian", rng) for _ in range(3)]
            blocks = [receive(ch, transmit(PRE, frames[m0]), noise, rng, m0 + 1)
                      for m0 in range(3)]
            pilots = [(f.pilot1, f.pilot2) for f in frames]
            scores, alpha_conj = sweep_scores(
                np.stack([b.y for b in blocks]), FAM, vectors, pilots, noise
            )
            for m0 in range(3):
                res = narrowband_search(blocks[m0], FAM, cb, geom, pilots[m0], noise)
                q0 = res.q_star - 1
                assert first[q0] == q0
                assert res.score == scores[m0, q0]
                assert np.array_equal(res.h_hat[0], np.conj(alpha_conj[m0, q0]) * vectors[m0, :, q0])
            res = wideband_search(blocks, FAM, cb, geom, pilots, noise)
            q0 = res.q_star - 1
            assert first[q0] == q0
            assert res.score == scores[:, q0].sum() / (3 + geom.cp_len)
            assert np.array_equal(res.h_hat, np.conj(alpha_conj[:, q0, None]) * vectors[:, :, q0])


class TestEstimateGain:
    def test_noiseless_exact_on_matching_angle(self):
        rng = np.random.default_rng(0)
        alpha = 0.8 - 0.3j
        theta = CB.angles[40]
        ch = los_channel(GEOM, alpha, theta)
        frame, block = one_block(ch, rng)
        got = estimate_gain(array_response(GEOM, theta), block.y, FAM, frame.pilot1, NOISELESS)
        assert abs(got - alpha) < 1e-9 * abs(alpha)

    def test_linearity_in_channel_scale(self):
        rng = np.random.default_rng(1)
        theta = CB.angles[17]
        cand = array_response(GEOM, theta)
        frame = make_frame(16, "gaussian", np.random.default_rng(5))
        xs = transmit(PRE, frame)
        for c in (1.0, 2.0, -1.5j):
            ch = los_channel(GEOM, c * (0.4 + 0.1j), theta)
            block = receive(ch, xs, NOISELESS, rng)
            got = estimate_gain(cand, block.y, FAM, frame.pilot1, NOISELESS)
            assert abs(got - c * (0.4 + 0.1j)) < 1e-9

    def test_zero_pilot_rejected(self):
        rng = np.random.default_rng(2)
        ch = los_channel(GEOM, 1.0, 0.3)
        _, block = one_block(ch, rng)
        with pytest.raises(ValueError):
            estimate_gain(array_response(GEOM, 0.3), block.y, FAM, 0.0, NOISELESS)


class TestScoreCandidate:
    def test_exact_candidate_hits_cap(self):
        rng = np.random.default_rng(3)
        alpha, theta = 0.9 + 0.2j, CB.angles[100]
        ch = los_channel(GEOM, alpha, theta)
        frame, block = one_block(ch, rng)
        cand = array_response(GEOM, theta)
        score = score_candidate(cand, alpha, block.y, FAM, frame.pilot2, NOISELESS, cap=1e30)
        # residual is numerically tiny, so the score is at or near the cap
        assert score > 40.0

    def test_matching_entry_outscores_other(self):
        rng = np.random.default_rng(4)
        theta = CB.angles[60]
        ch = los_channel(GEOM, 0.7, theta)
        frame, block = one_block(ch, rng)
        good = array_response(GEOM, theta)
        bad = array_response(GEOM, CB.angles[200])
        alpha_good = estimate_gain(good, block.y, FAM, frame.pilot1, NOISELESS)
        alpha_bad = estimate_gain(bad, block.y, FAM, frame.pilot1, NOISELESS)
        s_good = score_candidate(good, alpha_good, block.y, FAM, frame.pilot2, NOISELESS)
        s_bad = score_candidate(bad, alpha_bad, block.y, FAM, frame.pilot2, NOISELESS)
        assert s_good > s_bad

    def test_finite_positive_under_noise(self):
        rng = np.random.default_rng(5)
        noise = NoiseModel(variance=0.5, tx_power=1.0)
        ch = los_channel(GEOM, 1.1, 0.4)
        frame, block = one_block(ch, rng, noise=noise)
        for q in (1, 50, 150, 255):
            cand = array_response(GEOM, CB.angles[q])
            alpha = estimate_gain(cand, block.y, FAM, frame.pilot1, noise)
            s = score_candidate(cand, alpha, block.y, FAM, frame.pilot2, noise)
            assert np.isfinite(s) and s >= 0.0

    def test_zero_gain_guess_scores_zero(self):
        rng = np.random.default_rng(6)
        ch = los_channel(GEOM, 1.0, 0.2)
        frame, block = one_block(ch, rng)
        cand = array_response(GEOM, 0.2)
        assert score_candidate(cand, 0.0, block.y, FAM, frame.pilot2, NOISELESS) == 0.0


class TestNarrowbandSearch:
    def test_on_grid_recovery(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q_true = int(rng.integers(1, 257))
            alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
            ch = los_channel(GEOM, alpha, CB.angles[q_true - 1])
            frame, block = one_block(ch, rng)
            res = narrowband_search(block, FAM, CB, GEOM, (frame.pilot1, frame.pilot2), NOISELESS)
            assert res.q_star == q_true
            err = np.linalg.norm(res.h_hat[0] - ch.h[0]) / np.linalg.norm(ch.h[0])
            assert err < 1e-9

    def test_off_grid_lands_within_one_cell(self):
        rng = np.random.default_rng(8)
        sins = np.sin(CB.angles)
        gap = np.max(np.diff(np.sort(sins)))
        for _ in range(20):
            theta = rng.uniform(0.0, math.pi / 2)
            ch = los_channel(GEOM, 1.0 + 0.2j, theta)
            frame, block = one_block(ch, rng)
            res = narrowband_search(block, FAM, CB, GEOM, (frame.pilot1, frame.pilot2), NOISELESS)
            assert abs(math.sin(CB.angles[res.q_star - 1]) - math.sin(theta)) <= gap

    def test_single_entry_codebook(self):
        rng = np.random.default_rng(9)
        cb1 = make_codebook(1, 0.0, math.pi / 2)
        ch = los_channel(GEOM, 1.0, 0.77)
        frame, block = one_block(ch, rng)
        res = narrowband_search(block, FAM, cb1, GEOM, (frame.pilot1, frame.pilot2), NOISELESS)
        assert res.q_star == 1

    def test_multiply_count_closed_form(self):
        rng = np.random.default_rng(10)
        ch = los_channel(GEOM, 1.0, 0.3)
        frame, block = one_block(ch, rng)
        res = narrowband_search(block, FAM, CB, GEOM, (frame.pilot1, frame.pilot2), NOISELESS)
        assert res.multiply_count == complexity_psi(16, 1, 256)

    def test_determinism(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        noise = NoiseModel(variance=0.2, tx_power=1.0)
        ch = los_channel(GEOM, 0.9, 0.5)
        f1, b1 = one_block(ch, rng1, noise=noise)
        f2, b2 = one_block(ch, rng2, noise=noise)
        r1 = narrowband_search(b1, FAM, CB, GEOM, (f1.pilot1, f1.pilot2), noise)
        r2 = narrowband_search(b2, FAM, CB, GEOM, (f2.pilot1, f2.pilot2), noise)
        assert r1.q_star == r2.q_star
        assert (r1.h_hat == r2.h_hat).all()


class TestWidebandSearch:
    WGEOM = ArrayGeometry(
        n_antennas=16, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=4, cp_len=2
    )

    def wide_blocks(self, theta, rng, noise=NOISELESS):
        gains = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / math.sqrt(2)
        h = np.stack([gains[m0] * array_response(self.WGEOM, theta, m0 + 1) for m0 in range(4)])
        ch = ChannelRealization(1, gains, theta, np.zeros((4, 0), complex), np.zeros(0), h)
        frames = [make_frame(16, "gaussian", rng) for _ in range(4)]
        blocks = [receive(ch, transmit(PRE, frames[m0]), noise, rng, m0 + 1) for m0 in range(4)]
        return ch, frames, blocks

    def test_single_subcarrier_reduces_to_narrowband(self):
        rng = np.random.default_rng(12)
        noise = NoiseModel(variance=0.3, tx_power=1.0)
        ch = los_channel(GEOM, 0.8, 0.61)
        frame, block = one_block(ch, rng, noise=noise)
        wide = wideband_search([block], FAM, CB, GEOM, (frame.pilot1, frame.pilot2), noise)
        narrow = narrowband_search(block, FAM, CB, GEOM, (frame.pilot1, frame.pilot2), noise)
        assert wide.q_star == narrow.q_star
        assert (wide.h_hat == narrow.h_hat).all()
        assert wide.score == pytest.approx(narrow.score)

    def test_noiseless_on_grid_recovers_all_gains(self):
        rng = np.random.default_rng(13)
        q_true = 123
        ch, frames, blocks = self.wide_blocks(CB.angles[q_true - 1], rng)
        res = wideband_search(
            blocks, FAM, CB, self.WGEOM, [(f.pilot1, f.pilot2) for f in frames], NOISELESS
        )
        assert res.q_star == q_true
        for m0 in range(4):
            err = np.linalg.norm(res.h_hat[m0] - ch.h[m0]) / np.linalg.norm(ch.h[m0])
            assert err < 1e-9
            assert abs(res.alpha_hat[m0] - ch.los_gain[m0]) < 1e-9

    def test_score_uses_cyclic_prefix_weight(self):
        rng = np.random.default_rng(14)
        noise = NoiseModel(variance=0.2, tx_power=1.0)
        ch, frames, blocks = self.wide_blocks(CB.angles[30], rng, noise)
        pilots = [(f.pilot1, f.pilot2) for f in frames]
        res = wideband_search(blocks, FAM, CB, self.WGEOM, pilots, noise)
        per_m = [
            narrowband_search(blocks[m0], FAM, CB, self.WGEOM, pilots[m0], noise,
                              vectors=CB.vectors(self.WGEOM, m0 + 1))
            for m0 in range(4)
        ]
        # mean score at the winner equals the cyclic-prefix-weighted average of
        # the per-subcarrier scores of that same index
        total = 0.0
        for m0 in range(4):
            v = CB.vectors(self.WGEOM, m0 + 1)
            alpha = estimate_gain(v[:, res.q_star - 1], blocks[m0].y, FAM, pilots[m0][0], noise)
            total += score_candidate(
                v[:, res.q_star - 1], alpha, blocks[m0].y, FAM, pilots[m0][1], noise
            )
        assert res.score == pytest.approx(total / (4 + 2), rel=1e-9)
        del per_m

    def test_joint_beats_per_subcarrier_under_noise(self):
        # moderate noise: averaging across subcarriers picks better angles
        rng = np.random.default_rng(15)
        noise = NoiseModel(variance=1.0, tx_power=1.0)
        diffs = 0.0
        trials = 200
        for _ in range(trials):
            theta = rng.uniform(0.0, math.pi / 2)
            ch, frames, blocks = self.wide_blocks(theta, rng, noise)
            pilots = [(f.pilot1, f.pilot2) for f in frames]
            joint = wideband_search(blocks, FAM, CB, self.WGEOM, pilots, noise)
            joint_se = sum(
                se_bits(achieved_sinr(joint.h_hat[m0], ch.h[m0], FAM, 1, noise))
                for m0 in range(4)
            )
            sep_se = 0.0
            for m0 in range(4):
                v = CB.vectors(self.WGEOM, m0 + 1)
                sep = narrowband_search(blocks[m0], FAM, CB, self.WGEOM, pilots[m0], noise,
                                        vectors=v)
                sep_se += se_bits(achieved_sinr(sep.h_hat[0], ch.h[m0], FAM, 1, noise))
            diffs += joint_se - sep_se
        assert diffs / trials > 0.0

    def test_block_count_validation(self):
        with pytest.raises(ValueError):
            wideband_search([], FAM, CB, GEOM, (1.0, 1.0), NOISELESS)

    def test_pilots_by_shape(self):
        rng = np.random.default_rng(16)
        noise = NoiseModel(variance=0.2, tx_power=1.0)
        _, frames, blocks = self.wide_blocks(CB.angles[40], rng, noise)
        pairs = [(f.pilot1, f.pilot2) for f in frames]
        as_list = wideband_search(blocks, FAM, CB, self.WGEOM, pairs, noise)
        as_tuple = wideband_search(blocks, FAM, CB, self.WGEOM, tuple(pairs), noise)
        as_array = wideband_search(blocks, FAM, CB, self.WGEOM, np.array(pairs), noise)
        for res in (as_tuple, as_array):
            assert res.q_star == as_list.q_star and res.score == as_list.score
            assert np.array_equal(res.h_hat, as_list.h_hat)
        # one pair, as a tuple or an array, stands for every subcarrier
        each = wideband_search(blocks, FAM, CB, self.WGEOM, [(1.0, 1.0)] * 4, noise)
        for one_pair in ((1.0, 1.0), np.array([1.0, 1.0])):
            one = wideband_search(blocks, FAM, CB, self.WGEOM, one_pair, noise)
            assert one.q_star == each.q_star and np.array_equal(one.h_hat, each.h_hat)

    @pytest.mark.parametrize("pilots", [
        (1.0, 1.0, 1.0), [(1.0, 1.0)] * 3, [(1.0, 1.0, 1.0)] * 4, np.ones((4, 2, 1)),
    ])
    def test_pilots_of_another_shape_rejected(self, pilots):
        rng = np.random.default_rng(17)
        _, _, blocks = self.wide_blocks(CB.angles[40], rng)
        with pytest.raises(ValueError, match=r"^pilots must be one pair"):
            wideband_search(blocks, FAM, CB, self.WGEOM, pilots, NOISELESS)


class TestGainGuessInvariance:
    def test_argmax_invariant_to_gain_guess(self):
        # noiseless LoS-only: the argmax over the grid of the exact SINR with
        # a guessed gain does not depend on the guess
        rng = np.random.default_rng(16)
        noise = NoiseModel(variance=0.0, tx_power=1.0)
        cb = make_codebook(64, 0.0, math.pi / 2)
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi / 2)
            alpha = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
            h = alpha * array_response(GEOM, theta)
            argmaxes = []
            for guess in (alpha, 1.0, 10.0 * alpha, 1j * alpha):
                scores = [
                    achieved_sinr(
                        guess * array_response(GEOM, ang), h, FAM, 2, noise
                    )
                    for ang in cb.angles
                ]
                argmaxes.append(int(np.argmax(scores)))
            assert len(set(argmaxes)) == 1


class TestMonotoneRefinement:
    def test_doubling_resolution_never_degrades_on_grid(self):
        rng = np.random.default_rng(17)
        q0 = 64
        cb_small = make_codebook(q0, 0.0, math.pi / 2)
        cb_big = make_codebook(2 * q0, 0.0, math.pi / 2)
        # nested grids: coarse angle j appears at index 2j in the fine grid
        np.testing.assert_allclose(cb_big.angles[::2], cb_small.angles)
        for _ in range(10):
            idx = int(rng.integers(0, q0))
            ch = los_channel(GEOM, 0.8 + 0.1j, cb_small.angles[idx])
            frame, block = one_block(ch, rng)
            pilots = (frame.pilot1, frame.pilot2)
            res_small = narrowband_search(block, FAM, cb_small, GEOM, pilots, NOISELESS)
            res_big = narrowband_search(block, FAM, cb_big, GEOM, pilots, NOISELESS)
            se_small = se_bits(achieved_sinr(res_small.h_hat[0], ch.h[0], FAM, 1, NOISELESS))
            se_big = se_bits(achieved_sinr(res_big.h_hat[0], ch.h[0], FAM, 1, NOISELESS))
            assert se_big >= se_small - 1e-9


class TestComplexity:
    def test_trivial(self):
        assert complexity_psi(1, 1, 1) == 3

    def test_reference_point(self):
        assert complexity_psi(32, 10, 512) == 184320

    def test_linear_in_subcarriers(self):
        assert complexity_psi(32, 20, 512) == 2 * complexity_psi(32, 10, 512)

    def test_quadratic_term(self):
        # doubling N quadruples the combiner term
        only_comb = lambda n: complexity_psi(n, 1, 1) - n  # 2 n^2
        assert only_comb(16) == 4 * only_comb(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_psi(0, 1, 1)

    def test_no_overflow_at_scale(self):
        assert complexity_psi(10**6, 10**6, 10**6) == 10**6 * (2 * 10**12 + 10**12)
