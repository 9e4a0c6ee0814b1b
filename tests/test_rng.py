import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytransfer.rng import STREAM_COUNT, make_rng


def jumped_rng(seed, stream):
    bg = np.random.Philox(key=np.uint64(seed))
    return np.random.Generator(bg.jumped(stream) if stream else bg)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       stream=st.one_of(st.just(0), st.integers(0, 2 ** 16),
                        st.integers(2 ** 64, STREAM_COUNT - 1)))
def test_stream_equals_jumped_generator(seed, stream):
    got, ref = make_rng(seed, stream), jumped_rng(seed, stream)
    np.testing.assert_array_equal(got.random(7), ref.random(7))
    np.testing.assert_array_equal(got.standard_normal(5), ref.standard_normal(5))
    np.testing.assert_array_equal(got.integers(0, 2 ** 62, size=3),
                                  ref.integers(0, 2 ** 62, size=3))


def test_word_boundary_streams():
    for stream in (2 ** 64 - 1, 2 ** 64, STREAM_COUNT - 1):
        np.testing.assert_array_equal(make_rng(11, stream).random(4),
                                      jumped_rng(11, stream).random(4))


def test_numpy_integer_stream():
    np.testing.assert_array_equal(make_rng(2, np.int64(9)).random(3),
                                  make_rng(2, 9).random(3))


@pytest.mark.parametrize("stream", [-1, -(2 ** 70), STREAM_COUNT])
def test_out_of_range_stream_rejected(stream):
    with pytest.raises(ValueError):
        make_rng(0, stream)


def test_non_integer_stream_rejected():
    with pytest.raises(TypeError):
        make_rng(0, 1.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 20),
       sizes=st.lists(st.integers(0, 300), min_size=1, max_size=6),
       dim=st.integers(1, 3))
def test_successive_draws_continue_one_draw(seed, stream, sizes, dim):
    # the streaming samplers in dist rely on this prefix property
    for method in ("standard_normal", "random"):
        rng = make_rng(seed, stream)
        parts = [getattr(rng, method)((m, dim)) for m in sizes]
        whole = getattr(make_rng(seed, stream), method)((sum(sizes), dim))
        assert np.concatenate(parts).tobytes() == whole.tobytes()
