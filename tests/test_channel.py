import math

import numpy as np
import pytest

from circle_mimo.channel import (
    ArrayGeometry,
    ChannelProfile,
    NoiseModel,
    array_response,
    db_to_linear,
    sample_channel,
)
from conftest import los_channel
from oracle import snr_db


NARROW = ArrayGeometry(n_antennas=8, carrier_freq_hz=100e9)


class TestGeometry:
    def test_subcarrier_frequencies(self):
        geom = ArrayGeometry(
            n_antennas=4, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=10
        )
        # m=1: 100 GHz + 10 GHz * (1 - 10) / 20 = 95.5 GHz
        assert geom.subcarrier_freq_hz(1) == pytest.approx(95.5e9)
        assert geom.subcarrier_freq_hz(10) == pytest.approx(104.5e9)
        # centered plan: mean of extremes is the carrier
        mid = 0.5 * (geom.subcarrier_freq_hz(1) + geom.subcarrier_freq_hz(10))
        assert mid == pytest.approx(100e9)

    def test_narrowband_reduces_to_carrier(self):
        assert NARROW.is_narrowband
        assert NARROW.subcarrier_freq_hz(1) == 100e9
        # one subcarrier sits on the carrier whatever the bandwidth, so M = 1
        # alone makes a geometry narrowband
        wide = ArrayGeometry(n_antennas=8, carrier_freq_hz=100e9, bandwidth_hz=5e9)
        assert wide.is_narrowband and wide.subcarrier_freq_hz(1) == 100e9
        assert np.array_equal(wide.phase_base, NARROW.phase_base)
        assert not ArrayGeometry(n_antennas=8, carrier_freq_hz=100e9, n_subcarriers=2).is_narrowband

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_antennas=0, carrier_freq_hz=1e9)
        with pytest.raises(ValueError):
            ArrayGeometry(n_antennas=4, carrier_freq_hz=1e9, bandwidth_hz=-1.0)
        with pytest.raises(ValueError):
            NARROW.subcarrier_freq_hz(2)
        # nan and inf fail too: either would give an all-nan phase_base
        for field, value in (
            ("carrier_freq_hz", math.inf), ("carrier_freq_hz", math.nan),
            ("bandwidth_hz", math.inf), ("bandwidth_hz", math.nan),
        ):
            kwargs = dict(n_antennas=8, carrier_freq_hz=100e9, n_subcarriers=2)
            kwargs[field] = value
            with pytest.raises(ValueError, match=field):
                ArrayGeometry(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"variance": -1.0}, {"variance": math.nan}, {"variance": math.inf},
        {"tx_power": -1.0}, {"tx_power": math.nan}, {"tx_power": math.inf},
    ])
    def test_noise_model_validation(self, kwargs):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"los_var": -1.0}, {"los_var": math.nan}, {"los_var": math.inf},
        {"nlos_var": -1.0}, {"nlos_var": math.nan}, {"nlos_var": math.inf},
    ])
    def test_channel_profile_validation(self, kwargs):
        with pytest.raises(ValueError, match="gain variances must be finite and nonnegative"):
            ChannelProfile(**kwargs)


class TestArrayResponse:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(array_response(NARROW, 0.0), np.ones(8))

    def test_two_element_endfire(self):
        geom = ArrayGeometry(n_antennas=2, carrier_freq_hz=100e9)
        np.testing.assert_allclose(
            array_response(geom, math.pi / 2), np.array([1.0, -1.0]), atol=1e-12
        )

    def test_unit_modulus_norm(self):
        geom = ArrayGeometry(
            n_antennas=16, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=10
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            m = int(rng.integers(1, 11))
            a = array_response(geom, theta, m)
            assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12
            assert np.sum(np.abs(a) ** 2) == pytest.approx(16.0)

    def test_sin_aliasing(self):
        # same sine, different angle: identical steering vector
        theta = 0.3
        a1 = array_response(NARROW, theta)
        a2 = array_response(NARROW, math.pi - theta)
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        # sines differing by exactly 2 alias as well (narrowband ratio 1)
        a3 = array_response(NARROW, -math.pi / 2)
        a4 = array_response(NARROW, math.pi / 2)
        np.testing.assert_allclose(a3, a4, atol=1e-12)
        # distinct sines produce distinct vectors
        a5 = array_response(NARROW, 0.31)
        assert np.max(np.abs(a1 - a5)) > 1e-3


class TestSampleChannel:
    def test_pure_los_constant_modulus(self):
        ch = sample_channel(NARROW, 1, np.random.default_rng(0), ChannelProfile())
        mags = np.abs(ch.h[0])
        np.testing.assert_allclose(mags, mags[0])

    def test_seed_determinism(self):
        prof = ChannelProfile(nlos_var=0.1, n_nlos=3)
        a = sample_channel(NARROW, 1, np.random.default_rng(77), prof)
        b = sample_channel(NARROW, 1, np.random.default_rng(77), prof)
        assert (a.h == b.h).all()
        assert a.los_aod == b.los_aod

    def test_materialized_channel_matches_parts(self):
        geom = ArrayGeometry(
            n_antennas=8, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=3
        )
        prof = ChannelProfile(nlos_var=0.5, n_nlos=2)
        ch = sample_channel(geom, 1, np.random.default_rng(3), prof)
        for m0 in range(3):
            vec = ch.los_gain[m0] * array_response(geom, ch.los_aod, m0 + 1)
            for l0 in range(2):
                vec += ch.nlos_gains[m0, l0] * array_response(geom, ch.nlos_aods[l0], m0 + 1)
            np.testing.assert_allclose(ch.h[m0], vec, atol=1e-12)

    @pytest.mark.parametrize("m", [0, -1, 4])
    def test_subcarrier_out_of_range_rejected(self, m):
        geom = ArrayGeometry(
            n_antennas=8, carrier_freq_hz=100e9, bandwidth_hz=10e9, n_subcarriers=3
        )
        ch = sample_channel(geom, 1, np.random.default_rng(3), ChannelProfile())
        with pytest.raises(ValueError, match="out of range"):
            ch.subcarrier(m)
        np.testing.assert_array_equal(ch.subcarrier(3), ch.h[2])

    def test_angles_within_domain(self):
        prof = ChannelProfile(nlos_var=0.2, n_nlos=4, angular_range=math.pi / 8)
        rng = np.random.default_rng(5)
        for _ in range(50):
            ch = sample_channel(NARROW, 1, rng, prof)
            assert 0.0 <= ch.los_aod < math.pi / 8
            assert np.all(ch.nlos_aods >= 0.0) and np.all(ch.nlos_aods < math.pi / 8)

    def test_mean_power_additivity(self):
        # E||h||^2 = N * (1 + L * delta^2), checked over 10^4 draws
        delta2 = db_to_linear(-15.0)
        prof = ChannelProfile(nlos_var=delta2, n_nlos=3)
        rng = np.random.default_rng(9)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            ch = sample_channel(NARROW, 1, rng, prof)
            total += float(np.sum(np.abs(ch.h[0]) ** 2))
        expected = 8 * (1.0 + 3.0 * delta2)
        assert total / draws == pytest.approx(expected, rel=0.03)

    def test_empirical_gain_variances(self):
        prof = ChannelProfile(nlos_var=0.25, n_nlos=2)
        rng = np.random.default_rng(4)
        los, nlos = [], []
        for _ in range(10_000):
            ch = sample_channel(NARROW, 1, rng, prof)
            los.append(ch.los_gain[0])
            nlos.extend(ch.nlos_gains[0])
        assert np.var(np.asarray(los)) == pytest.approx(1.0, rel=0.05)
        assert np.var(np.asarray(nlos)) == pytest.approx(0.25, rel=0.05)


class TestSnr:
    def test_tx_power_scaling(self):
        h = np.array([1.0 + 0j, 0.5j, -0.3])
        a = snr_db(NoiseModel(variance=0.1, tx_power=1.0), h)
        b = snr_db(NoiseModel(variance=0.1, tx_power=10.0), h)
        assert b - a == pytest.approx(10.0)

    def test_pure_los_unit_gain_zero_db(self):
        geom = ArrayGeometry(n_antennas=16, carrier_freq_hz=100e9)
        ch = los_channel(geom, 1.0, 0.7)
        assert snr_db(NoiseModel(variance=0.5, tx_power=0.5), ch.h[0]) == pytest.approx(0.0)

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            snr_db(NoiseModel(variance=0.0, tx_power=1.0), np.ones(4))


def test_db_conversion():
    assert db_to_linear(-10.0) == pytest.approx(0.1)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)
