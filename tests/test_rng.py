import numpy as np
import pytest

from digit_forensics import rng as rngmod


def test_substream_deterministic():
    a = rngmod.substream(5, 1, 7).uniform(size=4)
    b = rngmod.substream(5, 1, 7).uniform(size=4)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    a = rngmod.substream(5, 1, 7).uniform(size=4)
    b = rngmod.substream(5, 1, 8).uniform(size=4)
    c = rngmod.substream(5, 2, 7).uniform(size=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_extension_differs_from_base():
    a = rngmod.substream(5, 1).uniform(size=4)
    b = rngmod.substream(5, 1, 0).uniform(size=4)
    assert not np.array_equal(a, b)


def test_fold_seed_stable_and_bounded():
    first = rngmod.fold_seed(9, 3, 2)
    second = rngmod.fold_seed(9, 3, 2)
    assert first == second
    assert 0 <= first < 2 ** 32


def test_negative_parts_rejected():
    with pytest.raises(ValueError):
        rngmod.substream(-1)
    with pytest.raises(ValueError):
        rngmod.substream(1, -2)
    with pytest.raises(ValueError):
        rngmod.fold_seed(1, -2)


def test_stream_tags_distinct():
    tags = [rngmod.STREAM_GENERATE, rngmod.STREAM_CALIBRATE, rngmod.STREAM_NOISE,
            rngmod.STREAM_SPLIT, rngmod.STREAM_CORPUS, rngmod.STREAM_PAIRS]
    assert len(set(tags)) == len(tags)
