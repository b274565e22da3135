import numpy as np
import pytest

from sparsecov.errors import ConfigError
from sparsecov.rng import RngSeed


def test_same_seed_same_draws():
    a = RngSeed(42).generator().standard_normal(16)
    b = RngSeed(42).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngSeed(42, 0).generator().standard_normal(16)
    b = RngSeed(42, 1).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_substreams_are_disjoint_and_deterministic():
    root = RngSeed(7)
    subs = [root.substream(i) for i in range(4)]
    assert len({s.stream for s in subs}) == 4
    assert all(s.seed == 7 for s in subs)
    # re-derivation gives the same stream ids
    assert root.substream(2) == subs[2]
    # nested substreams stay distinct from first-level ones
    nested = subs[0].substream(0)
    assert nested.stream not in {s.stream for s in subs}


def test_substream_index_bounds():
    with pytest.raises(ValueError):
        RngSeed(1).substream(-1)
    with pytest.raises(ValueError):
        RngSeed(1).substream(2**24 - 1)


def test_string_round_trip():
    s = RngSeed(123, 45)
    assert RngSeed.parse(str(s)) == s
    assert RngSeed.parse("99") == RngSeed(99, 0)
    with pytest.raises(ValueError):
        RngSeed.parse("not-a-seed")


@pytest.mark.parametrize(
    "seed, stream", [(1.5, 0), (True, 0), (7, 2.0), (7, False), ("7", 0)],
    ids=["seed-float", "seed-bool", "stream-float", "stream-bool", "seed-string"],
)
def test_seed_and_stream_must_be_integers(seed, stream):
    with pytest.raises(TypeError, match="must be an integer"):
        RngSeed(seed, stream)


def test_numpy_integers_are_stored_as_ints():
    s = RngSeed(np.uint64(7), np.int64(3))
    assert type(s.seed) is int and type(s.stream) is int
    assert str(s) == "7:3" and RngSeed.parse(str(s)) == s


@pytest.mark.parametrize("value", [7, 7.0, "7", "7:0"])
def test_parse_reads_a_json_integer_or_its_digit_strings(value):
    assert RngSeed.parse(value) == RngSeed(7)


@pytest.mark.parametrize(
    "value", [1.5, True, None, -1, 2**64, "1_0", " 7", "+7", "7:", ":0", "7:0:0", "٧", "7\n"]
)
def test_parse_refuses_anything_else_naming_where(value):
    message = f"--seed must be an integer in [0, 2^64) or 'seed:stream', got {value!r}"
    with pytest.raises(ConfigError) as raised:
        RngSeed.parse(value, "--seed")
    assert str(raised.value) == message
