import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import lltn


def test_round_trip_exact(tmp_path, np_rng):
    arr = np_rng.normal(size=(3, 4, 5))
    path = tmp_path / "t.lltn"
    lltn.write(path, arr)
    back = lltn.read(path)
    assert back.shape == arr.shape
    assert (back == arr).all()


def test_header_layout():
    blob = lltn.dumps(np.zeros((2, 3)))
    assert blob[:4] == b"LLTN"
    assert int.from_bytes(blob[4:8], "little") == 1  # version
    assert int.from_bytes(blob[8:12], "little") == 2  # rank
    assert int.from_bytes(blob[12:20], "little") == 2
    assert int.from_bytes(blob[20:28], "little") == 3
    assert len(blob) == 28 + 6 * 8


def test_scalar_rank_zero():
    back = lltn.loads(lltn.dumps(np.float64(2.5)))
    assert back.shape == () and back == 2.5


def test_truncated_rejected(tmp_path, np_rng):
    arr = np_rng.normal(size=(4, 4))
    blob = lltn.dumps(arr)
    for cut in (0, 3, 11, 15, len(blob) - 1):
        with pytest.raises(lltn.LltnError):
            lltn.loads(blob[:cut])


def test_bad_magic_rejected():
    with pytest.raises(lltn.LltnError):
        lltn.loads(b"NOPE" + b"\x00" * 32)


def test_trailing_garbage_rejected(np_rng):
    blob = lltn.dumps(np_rng.normal(size=(2,)))
    with pytest.raises(lltn.LltnError):
        lltn.loads(blob + b"\x00")


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(1, 5), min_size=0, max_size=4),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_property(dims, seed):
    arr = np.random.default_rng(seed).normal(size=tuple(dims))
    assert (lltn.loads(lltn.dumps(arr)) == arr).all()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_rejects_non_finite(tmp_path, value):
    # JSON (RFC 8259) has no NaN or Infinity: the write raises, and leaves no file
    with pytest.raises(ValueError):
        lltn.write_json(tmp_path / "x.json", {"a": [1.0, value]})
    assert not (tmp_path / "x.json").exists()
