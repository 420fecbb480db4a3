"""Tests for the numeric reduction operator library."""

import numpy as np
import pytest

from repro.api import run_job
from repro.models.cpu import ClusterSpec
from repro.simmpi import ops

CLUSTER = ClusterSpec(2, 4)


def test_roundtrip_serialization():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    data = ops.to_bytes(arr)
    back = ops.from_array(data, np.float64, shape=(3, 4))
    assert np.array_equal(arr, back)
    assert back.flags.writeable  # a real copy, not a frozen view


def test_sum_and_prod():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    s = ops.from_array(ops.sum_op()(ops.to_bytes(a), ops.to_bytes(b)), np.float64)
    p = ops.from_array(ops.prod_op()(ops.to_bytes(a), ops.to_bytes(b)), np.float64)
    assert np.array_equal(s, [5.0, 7.0, 9.0])
    assert np.array_equal(p, [4.0, 10.0, 18.0])


def test_max_min():
    a = np.array([1, 9], dtype=np.int64)
    b = np.array([5, 2], dtype=np.int64)
    mx = ops.from_array(
        ops.max_op(np.int64)(ops.to_bytes(a), ops.to_bytes(b)), np.int64
    )
    mn = ops.from_array(
        ops.min_op(np.int64)(ops.to_bytes(a), ops.to_bytes(b)), np.int64
    )
    assert list(mx) == [5, 9]
    assert list(mn) == [1, 2]


def test_logical_and_bitwise():
    a = np.array([1, 0, 1], dtype=np.uint8)
    b = np.array([1, 1, 0], dtype=np.uint8)
    land = ops.from_array(ops.land_op()(ops.to_bytes(a), ops.to_bytes(b)), np.uint8)
    lor = ops.from_array(ops.lor_op()(ops.to_bytes(a), ops.to_bytes(b)), np.uint8)
    assert list(land) == [1, 0, 0]
    assert list(lor) == [1, 1, 1]
    x = np.array([0b1100], dtype=np.uint64)
    y = np.array([0b1010], dtype=np.uint64)
    assert ops.from_array(
        ops.band_op()(ops.to_bytes(x), ops.to_bytes(y)), np.uint64
    )[0] == 0b1000
    assert ops.from_array(
        ops.bor_op()(ops.to_bytes(x), ops.to_bytes(y)), np.uint64
    )[0] == 0b1110


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ops.sum_op()(bytes(8), bytes(16))


def test_ops_through_allreduce():
    def prog(ctx):
        vec = np.array([ctx.rank, 10.0 * ctx.rank], dtype=np.float64)
        total = ctx.comm.allreduce(ops.to_bytes(vec), ops.sum_op())
        peak = ctx.comm.allreduce(ops.to_bytes(vec), ops.max_op())
        return (
            list(ops.from_array(total, np.float64)),
            list(ops.from_array(peak, np.float64)),
        )

    results = run_job(prog, nranks=4, cluster=CLUSTER).results
    assert all(r == ([6.0, 60.0], [3.0, 30.0]) for r in results)
