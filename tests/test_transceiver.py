import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circle_mimo.channel import ArrayGeometry, ChannelRealization, NoiseModel
from circle_mimo.dftcore import build_dft, build_family, build_precoders
from circle_mimo.transceiver import QPSK_POINTS, Frame, make_frame, receive, transmit
from conftest import los_channel
from oracle import circulant_index, detect_qpsk


class TestMakeFrame:
    def test_qpsk_constellation(self):
        frame = make_frame(16, "qpsk", np.random.default_rng(0))
        for s in frame.info:
            assert np.min(np.abs(s - QPSK_POINTS)) < 1e-15
            assert abs(abs(s) - 1.0) < 1e-12

    def test_pilots_default_to_one(self):
        for source in ("qpsk", "gaussian"):
            frame = make_frame(8, source, np.random.default_rng(1))
            assert frame.pilot1 == 1.0
            assert frame.pilot2 == 1.0
            assert frame.symbols[-2] == 1.0 and frame.symbols[-1] == 1.0

    def test_custom_pilot_values(self):
        frame = make_frame(5, "gaussian", np.random.default_rng(2), pilot_values=(1j, -1.0))
        assert frame.pilot1 == 1j
        assert frame.pilot2 == -1.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_frame(2, "qpsk", np.random.default_rng(0))

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            make_frame(8, "bpsk", np.random.default_rng(0))

    def test_gaussian_sample_covariance_near_identity(self):
        n = 6
        rng = np.random.default_rng(3)
        frames = np.stack([make_frame(n, "gaussian", rng).symbols for _ in range(10_000)])
        info = frames[:, : n - 2]
        cov = info.T.conj() @ info / info.shape[0]
        assert np.max(np.abs(cov - np.eye(n - 2))) < 0.05


class TestTransmit:
    def test_trivial_passthrough(self):
        pre = build_precoders(build_family(1))
        xs = transmit(pre, Frame(symbols=np.array([0.3 - 0.4j])))
        np.testing.assert_allclose(xs, np.array([[0.3 - 0.4j]]))

    def test_norm_preservation_per_slot(self):
        rng = np.random.default_rng(4)
        for n in (4, 9, 16):
            pre = build_precoders(build_family(n))
            frame = make_frame(n, "gaussian", rng)
            xs = transmit(pre, frame)
            want = np.linalg.norm(frame.symbols) ** 2 / n
            for slot in range(n):
                got = np.linalg.norm(xs[slot]) ** 2
                assert abs(got - want) < 1e-12 * want

    def test_basis_vector_selects_dft_column(self):
        n, k = 6, 3
        pre = build_precoders(build_family(n))
        ci = circulant_index(n)
        u = build_dft(n)
        e_k = np.zeros(n, dtype=complex)
        e_k[k - 1] = 1.0
        xs = transmit(pre, Frame(symbols=e_k))
        for slot in range(1, n + 1):
            col = ci[slot - 1, k - 1]
            np.testing.assert_allclose(xs[slot - 1], u[:, col - 1] / np.sqrt(n), atol=1e-14)

    def test_average_power_contract(self):
        n = 8
        rng = np.random.default_rng(5)
        pre = build_precoders(build_family(n))
        total = 0.0
        frames = 10_000
        for _ in range(frames):
            xs = transmit(pre, make_frame(n, "gaussian", rng))
            total += float(np.linalg.norm(xs[0]) ** 2)
        assert total / frames == pytest.approx(1.0, rel=0.02)

    def test_dimension_mismatch(self):
        pre = build_precoders(build_family(4))
        with pytest.raises(ValueError):
            transmit(pre, make_frame(8, "qpsk", np.random.default_rng(0)))

    @given(st.integers(min_value=3, max_value=20), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None, max_examples=25)
    def test_norm_property(self, n, seed):
        pre = build_precoders(build_family(n))
        frame = make_frame(n, "gaussian", np.random.default_rng(seed))
        xs = transmit(pre, frame)
        norms = np.linalg.norm(xs, axis=1) ** 2
        np.testing.assert_allclose(norms, np.linalg.norm(frame.symbols) ** 2 / n, rtol=1e-11)


class TestReceive:
    GEOM = ArrayGeometry(n_antennas=8, carrier_freq_hz=100e9)

    def test_zero_channel_zero_noise(self):
        ch = ChannelRealization(
            device=1,
            los_gain=np.zeros(1, complex),
            los_aod=0.0,
            nlos_gains=np.zeros((1, 0), complex),
            nlos_aods=np.zeros(0),
            h=np.zeros((1, 8), complex),
        )
        pre = build_precoders(build_family(8))
        xs = transmit(pre, make_frame(8, "qpsk", np.random.default_rng(0)))
        block = receive(ch, xs, NoiseModel(variance=0.0, tx_power=1.0), np.random.default_rng(0))
        np.testing.assert_array_equal(block.y, np.zeros(8))

    def test_noise_determinism(self):
        ch = los_channel(self.GEOM, 0.7 + 0.2j, 1.1)
        pre = build_precoders(build_family(8))
        xs = transmit(pre, make_frame(8, "qpsk", np.random.default_rng(1)))
        noise = NoiseModel(variance=0.3, tx_power=1.0)
        b1 = receive(ch, xs, noise, np.random.default_rng(123))
        b2 = receive(ch, xs, noise, np.random.default_rng(123))
        assert (b1.y == b2.y).all()
        assert (b1.noise_realization == b2.noise_realization).all()

    def test_signal_plus_retained_noise(self):
        ch = los_channel(self.GEOM, 1.0 - 0.5j, 0.4)
        pre = build_precoders(build_family(8))
        xs = transmit(pre, make_frame(8, "gaussian", np.random.default_rng(2)))
        noise = NoiseModel(variance=0.2, tx_power=4.0)
        block = receive(ch, xs, noise, np.random.default_rng(9))
        clean = np.sqrt(4.0) * (xs @ ch.h[0].conj())
        np.testing.assert_allclose(block.y - block.noise_realization, clean, atol=1e-12)


    @pytest.mark.parametrize("m", [0, -1, 2])
    def test_subcarrier_out_of_range_rejected(self, m):
        ch = los_channel(self.GEOM, 1.0, 0.4)
        pre = build_precoders(build_family(8))
        xs = transmit(pre, make_frame(8, "qpsk", np.random.default_rng(0)))
        with pytest.raises(ValueError, match="out of range"):
            receive(ch, xs, NoiseModel(variance=0.1, tx_power=1.0), np.random.default_rng(0), m)

def test_detect_qpsk_exact_roundtrip():
    rng = np.random.default_rng(6)
    s = QPSK_POINTS[rng.integers(0, 4, size=100)]
    noisy = s + 0.05 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    assert (detect_qpsk(noisy) == s).all()
