import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polytransfer
from polytransfer.rng import Tag, make_rng, replicate_seed

SEEDS = st.integers(0, 2 ** 64 - 1)
PATHS = st.lists(st.integers(0, 2 ** 64 - 1), max_size=4).map(tuple)


def root_philox(seed):
    """The seed's root stream as it was before paths: Philox keyed by the
    seed alone, from counter 0."""
    return np.random.Generator(np.random.Philox(counter=0, key=np.uint64(seed)))


def first_draw(seed, path):
    return int(make_rng(seed, *path).bit_generator.random_raw())


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_empty_path_is_the_root_philox_stream(seed):
    got, ref = make_rng(seed), root_philox(seed)
    np.testing.assert_array_equal(got.random(7), ref.random(7))
    np.testing.assert_array_equal(got.standard_normal(5), ref.standard_normal(5))
    np.testing.assert_array_equal(got.integers(0, 2 ** 62, size=3),
                                  ref.integers(0, 2 ** 62, size=3))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, paths=st.lists(PATHS, min_size=1, max_size=6, unique=True))
def test_distinct_paths_give_distinct_first_draws(seed, paths):
    # a path's extensions and the root are among the candidates
    paths = list(dict.fromkeys(paths + [(), paths[0] + (0,), paths[0] + (Tag.FACTOR, 1)]))
    firsts = [first_draw(seed, p) for p in paths]
    assert len(set(firsts)) == len(paths)


def test_tags_keep_their_numbers():
    # a renumbered tag would silently move every stream it keys: new tags go last
    assert [(t.name, t.value) for t in Tag] == [
        ("FACTOR", 1), ("ATTEMPT", 2), ("QUERY", 3), ("TASK", 4), ("STEP", 5), ("SOURCE", 6),
        ("TARGET", 7), ("LOCATION", 8), ("EPOCH", 9), ("NOISE", 10), ("INIT", 11),
        ("SEEN", 12), ("BAND", 13), ("FULL", 14), ("FINAL", 15), ("PLATEAU", 16)]


def test_word_boundary_components():
    top = 2 ** 64 - 1
    cases = [(s, p) for s in (0, top) for p in ((), (0,), (top,), (top, 0), (0, top))]
    assert len({first_draw(s, p) for s, p in cases}) == len(cases)


def test_numpy_integer_stream():
    np.testing.assert_array_equal(make_rng(2, np.int64(9)).random(3),
                                  make_rng(2, 9).random(3))


@pytest.mark.parametrize("stream", [-1, -(2 ** 70), 2 ** 64, 2 ** 128])
def test_out_of_range_stream_rejected(stream):
    with pytest.raises(ValueError):
        make_rng(0, stream)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValueError):
        make_rng(seed)


def test_non_integer_stream_rejected():
    with pytest.raises(TypeError):
        make_rng(0, 1.5)


def test_replicate_seeds_are_the_written_integers():
    # gotu's summary.csv, acceptance test_08 and the benchmark's check read them
    assert [replicate_seed(0, s) for s in range(3)] == [1000, 1001, 1002]
    assert replicate_seed(7, 3) == 1010


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


# seed or stream arithmetic: `stream +`, `seed +`, `+ seed`, literal `stream=`
DERIVATION = re.compile(r"\b(stream|seed)\s*\+|\+\s*(stream|seed)\b|\bstream\s*=\s*\d")


def test_streams_are_derived_only_in_rng_module():
    """Every generator comes from rng.make_rng(seed, *path); no other
    module computes a seed or a stream."""
    src = Path(polytransfer.__file__).parent
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py")) if path.name != "rng.py"
                 for i, line in enumerate(path.read_text().splitlines(), start=1)
                 if DERIVATION.search(line)]
    assert offenders == []
