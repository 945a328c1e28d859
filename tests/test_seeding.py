"""The one-pass seed words against NumPy's ``SeedSequence``, key by key."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circle_mimo.harness as harness
from circle_mimo.harness import preset
from circle_mimo.seeding import generator, seed_words
from oracle import key_rng

SEEDS = (0, 1, 11, 2**32 - 1, 2**32 + 5, 2**70 + 3)
KEYS = (
    (0,), (5,), (2**32 - 1,),
    (0, 0), (7, 2**32 - 1), (2**32 - 1, 0),
    (0, 1, 2), (3, 0, 2**32 - 1), (2**32 - 1, 2**32 - 1, 2**32 - 1),
)


def reference_words(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_words_equal_seed_sequence(seed):
    words = seed_words(seed, KEYS)
    assert words.shape == (len(KEYS), 4) and words.dtype == np.uint64
    for key, row in zip(KEYS, words):
        assert np.array_equal(row, reference_words(seed, key))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    keys=st.lists(st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple), min_size=1, max_size=6),
)
def test_words_equal_seed_sequence_for_any_seed_and_keys(seed, keys):
    for key, row in zip(keys, seed_words(seed, keys)):
        assert np.array_equal(row, reference_words(seed, key))


def test_keys_past_32_bits_equal_seed_sequence():
    keys = [(2**32,), (1, 2**40 + 3), (2**64 + 1, 0, 9), (4,)]
    for seed in (0, 2**70 + 3):
        for key, row in zip(keys, seed_words(seed, keys)):
            assert np.array_equal(row, reference_words(seed, key))


def test_negative_seed_or_key_rejected():
    with pytest.raises(ValueError):
        seed_words(-1, [(0,)])
    with pytest.raises(ValueError):
        seed_words(3, [(1, -2)])


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_the_seed_sequence_streams(seed):
    for key, words in zip(KEYS, seed_words(seed, KEYS)):
        want = key_rng(seed, *key)
        got = generator(words)
        assert np.array_equal(got.integers(0, 2**63, size=64), want.integers(0, 2**63, size=64))
        assert np.array_equal(got.standard_normal(64), want.standard_normal(64))


def test_generator_takes_only_pcg64_seed_words():
    words = seed_words(1, [(2,)])[0]
    with pytest.raises(ValueError):
        np.random.MT19937(generator(words).bit_generator.seed_seq)


def test_a_trials_channels_and_noise_equal_those_built_key_by_key(monkeypatch):
    cfg = replace(
        preset("fig4d"), sweep_param=None, sweep_values=None, n_devices=5, n_subcarriers=3,
        q_levels=16, n_trials=2, seed=2**40 + 7,
    )
    ctx = harness._SweepContext(cfg, None)
    sample_channel, receive, make_frame = harness.sample_channel, harness.receive, harness.make_frame
    channels, blocks, frames = [], [], []

    def record(fn, into):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            into.append(out)
            return out
        return wrapped

    monkeypatch.setattr(harness, "sample_channel", record(sample_channel, channels))
    monkeypatch.setattr(harness, "receive", record(receive, blocks))
    monkeypatch.setattr(harness, "make_frame", record(make_frame, frames))
    trial = 1
    ctx.run_trial(trial)

    assert len(channels) == 5 and len(blocks) == 5 * 3 and len(frames) == 3
    rng_trial = key_rng(cfg.seed, trial)
    for frame in frames:
        want = make_frame(ctx.n, cfg.symbol_source, rng_trial)
        assert np.array_equal(frame.symbols, want.symbols)
    for k, ch in enumerate(channels, start=1):
        want = sample_channel(ctx.geometry, k, key_rng(cfg.seed, trial, k), ctx.profile)
        assert np.array_equal(ch.h, want.h) and ch.los_aod == want.los_aod
    for i, block in enumerate(blocks):
        k, m = divmod(i, 3)
        noise = key_rng(cfg.seed, trial, k + 1, m + 1)
        want = receive(channels[k], np.zeros((ctx.n, ctx.n)), ctx.noise, noise, m + 1)
        assert (block.device, block.subcarrier) == (k + 1, m + 1)
        assert np.array_equal(block.noise_realization, want.noise_realization)
