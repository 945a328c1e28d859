"""The per-level seed words against NumPy's ``SeedSequence``, key by key."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circle_mimo.harness as harness
from circle_mimo.harness import preset
from circle_mimo.seeding import generator, seed_words
from oracle import key_rng

# the last two are wider than the 4-word pool, so NumPy mixes their extra
# words in after the pool's own mixing
SEEDS = (0, 1, 11, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 7, 2**256 - 1)
# a tree three levels deep whose every level holds both ends of a key word
TREE = ((0, 5, 2**32 - 1), (2**32 - 1, 0), (0, 2, 2**32 - 1))


def reference_words(seed, key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


def tree_levels(tree):
    """Level i's words along axis i: shape (n_i,), then one unit axis per
    later level, so that each level broadcasts into the next."""
    return [np.array(w).reshape((-1,) + (1,) * (len(tree) - 1 - i)) for i, w in enumerate(tree)]


def tree_keys(tree):
    """Every key prefix of the tree, with its index into its level's words."""
    for depth in range(1, len(tree) + 1):
        for idx in product(*(range(len(w)) for w in tree[:depth])):
            key = tuple(w[j] for w, j in zip(tree, idx))
            yield depth - 1, idx + (0,) * (len(tree) - depth), key


def check_tree(seed, tree):
    words = seed_words(seed, *tree_levels(tree))
    assert len(words) == len(tree)
    for i, level in enumerate(words):
        shape = tuple(len(w) for w in tree[: i + 1]) + (1,) * (len(tree) - 1 - i)
        assert level.shape == shape + (4,) and level.dtype == np.uint64
    for i, idx, key in tree_keys(tree):
        assert np.array_equal(words[i][idx], reference_words(seed, key))


@pytest.mark.parametrize("seed", SEEDS)
def test_words_equal_seed_sequence(seed):
    check_tree(seed, TREE)
    # the harness's shape: a scalar trial, a column of devices, a row of subcarriers
    trial, devices, subcarriers = seed_words(seed, 2**32 - 1, np.arange(3)[:, None], np.arange(2))
    assert trial.shape == (4,) and devices.shape == (3, 1, 4) and subcarriers.shape == (3, 2, 4)
    assert np.array_equal(trial, reference_words(seed, (2**32 - 1,)))
    for k, m in product(range(3), range(2)):
        assert np.array_equal(devices[k, 0], reference_words(seed, (2**32 - 1, k)))
        assert np.array_equal(subcarriers[k, m], reference_words(seed, (2**32 - 1, k, m)))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**256 - 1),
    tree=st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), min_size=1, max_size=4
    ),
)
def test_words_equal_seed_sequence_for_any_seed_and_keys(seed, tree):
    check_tree(seed, tree)


def test_negative_seed_or_key_rejected():
    """A negative seed, and a key word outside [0, 2**32), negative or
    wider than 32 bits, raise ValueError; a seed that is no integer (a
    float, a string, a sequence NumPy would take as entropy, None, which
    NumPy would fill from the OS, or a bool) raises TypeError."""
    cases = [
        (-1, (0,)),
        (3, (1, -2)),
        (3, (2**70,)),
        (3, (np.array([1, 2**32]),)),
    ]
    keys = [(2**32,), (1, 2**40 + 3), (2**64 + 1, 0, 9)]
    cases += [(seed, key) for seed in (0, 2**70 + 3) for key in keys]
    for seed, levels in cases:
        with pytest.raises(ValueError):
            seed_words(seed, *levels)
    for seed in (1.5, np.float64(2.0), "7", [1, 2], (3,), np.array([1, 2]), None, True):
        with pytest.raises(TypeError):
            seed_words(seed, 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_draw_the_seed_sequence_streams(seed):
    words = seed_words(seed, *tree_levels(TREE))
    for i, idx, key in tree_keys(TREE):
        want = key_rng(seed, *key)
        got = generator(words[i][idx])
        assert np.array_equal(got.integers(0, 2**63, size=64), want.integers(0, 2**63, size=64))
        assert np.array_equal(got.standard_normal(64), want.standard_normal(64))


def test_generator_takes_only_pcg64_seed_words():
    (words,) = seed_words(1, 2)
    with pytest.raises(ValueError):
        np.random.MT19937(generator(words).bit_generator.seed_seq)


def test_generator_reads_words_in_any_layout():
    # PCG64 reads the raw buffer it is handed: a strided view or big-endian
    # words must seed the stream their values do
    (words,) = seed_words(7, 3)
    held = np.zeros((4, 3), dtype=np.uint64)
    held[:, 1] = words
    for layout in (held[:, 1], words.astype(">u8")):
        want = key_rng(7, 3).standard_normal(16)
        assert np.array_equal(generator(layout).standard_normal(16), want)


def test_generator_rejects_words_of_another_shape_or_type():
    (words,) = seed_words(7, 3)
    for bad in (words[:3], words[None], words.astype(float), words.astype(np.int64),
                words.astype(np.uint32)):
        with pytest.raises(ValueError):
            generator(bad)


def test_n_trials_beyond_the_32_bit_trial_word_rejected():
    cfg = replace(preset("fig4d"), sweep_param=None, sweep_values=None, n_devices=4)
    replace(cfg, n_trials=2**32).validate()
    with pytest.raises(ValueError, match="n_trials"):
        replace(cfg, n_trials=2**32 + 1).validate()


def test_a_trials_channels_and_noise_equal_those_built_key_by_key(monkeypatch):
    check_trial_streams(monkeypatch, 2**40 + 7)


def test_a_trials_streams_at_a_seed_wider_than_the_pool(monkeypatch):
    check_trial_streams(monkeypatch, 2**130 + 7)


def check_trial_streams(monkeypatch, seed):
    cfg = replace(
        preset("fig4d"), sweep_param=None, sweep_values=None, n_devices=5, n_subcarriers=3,
        q_levels=16, n_trials=2, seed=seed,
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
        xs = harness.transmit(ctx.precoders, frames[m])
        noise = key_rng(cfg.seed, trial, k + 1, m + 1)
        want = receive(channels[k], xs, ctx.noise, noise, m + 1)
        assert (block.device, block.subcarrier) == (k + 1, m + 1)
        assert np.array_equal(block.y, want.y)
