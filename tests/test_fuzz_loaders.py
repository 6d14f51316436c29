"""Fuzzed loader inputs: any byte string either loads or fails cleanly.

Every file reader must end in a value or in ``FormatError``/``ContractError``
(which the CLI turns into exit 1 and a one-line message); no other exception
type may escape. The checkpoint cases include bit-flipped and truncated
copies of the committed benchmark checkpoint, so the fuzz reaches every
field behind the header, not only the first size check.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarood.core import ContractError, FormatError, load_labels, load_point_cloud, load_scores
from lidarood.scenes import default_class_spec
from lidarood.trainer import load_checkpoint

GOOD_CKPT = (Path(__file__).resolve().parents[1] / "bench" / "model.ckpt").read_bytes()
SPEC = default_class_spec(extended=True)

fuzz = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def records(width):
    """Byte strings whose length is a multiple of ``width``, so the loader
    gets past its size check and parses the values."""
    return st.integers(0, 24).flatmap(lambda n: st.binary(min_size=n * width,
                                                           max_size=n * width))


def flip_bits(data: bytes, bits: list[int]) -> bytes:
    out = bytearray(data)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


damaged_ckpt = st.one_of(
    st.lists(st.integers(0, 8 * len(GOOD_CKPT) - 1), min_size=1, max_size=8)
    .map(lambda bits: flip_bits(GOOD_CKPT, bits)),
    st.integers(0, len(GOOD_CKPT) - 1).map(lambda size: GOOD_CKPT[:size]),
    st.tuples(st.integers(0, 8 * len(GOOD_CKPT) - 1), st.integers(0, len(GOOD_CKPT) - 1))
    .map(lambda t: flip_bits(GOOD_CKPT, [t[0]])[:t[1]]),
    st.binary(max_size=64).map(lambda tail: GOOD_CKPT + tail),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def loads_or_rejects(load, data: bytes, path: Path) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except (FormatError, ContractError):
        pass


@fuzz
@given(data=st.one_of(st.binary(max_size=512), records(16)))
def test_point_cloud(scratch, data):
    loads_or_rejects(load_point_cloud, data, scratch)


@fuzz
@given(data=st.one_of(st.binary(max_size=256), records(4)))
def test_labels(scratch, data):
    loads_or_rejects(lambda path: load_labels(path, SPEC), data, scratch)


@fuzz
@given(data=st.one_of(st.binary(max_size=256), records(4)))
def test_scores(scratch, data):
    loads_or_rejects(load_scores, data, scratch)


@settings(fuzz, max_examples=1000)
@given(data=st.one_of(damaged_ckpt, st.binary(max_size=512)))
def test_checkpoint(scratch, data):
    loads_or_rejects(load_checkpoint, data, scratch)


def test_intact_checkpoint_loads(scratch):
    scratch.write_bytes(GOOD_CKPT)
    load_checkpoint(scratch)
