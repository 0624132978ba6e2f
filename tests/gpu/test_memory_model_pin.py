"""Pins the three warp-level memory models to their numpy originals.

``SharedMemoryModel.access``, ``GlobalMemoryModel.access`` and
``ConstantMemoryModel.access`` price a warp request from its lane
addresses with Python sets.  The ``frozen_*`` functions below are copies
of the numpy implementations they replaced (``np.unique(axis=0)`` over
(bank, key) pairs, one ``np.arange`` of segments per lane), comments
dropped.  Both must return equal result dataclasses on every preset,
both bank policies, every access size and lane count, and raise
``TraceError`` with the same message on every invalid input.

Addresses stay below 2**40: the frozen copies compute in int64 and
would wrap near 2**63, where the Python-integer models do not.
"""

import math

import numpy as np
import pytest

from repro.errors import TraceError
from repro.gpu.arch import ARCHITECTURES
from repro.gpu.memory.banks import (
    BankConflictPolicy,
    SharedMemoryModel,
    SmemAccessResult,
)
from repro.gpu.memory.constmem import CmemAccessResult, ConstantMemoryModel
from repro.gpu.memory.globalmem import GlobalMemoryModel, GmemAccessResult

ARCHS = list(ARCHITECTURES.values())
# The coalescer reads only these two fields of a preset.
COALESCER_ARCHS = list(
    {(a.warp_size, a.gmem_transaction_size): a for a in ARCHS}.values())
POLICIES = list(BankConflictPolicy)
SMEM_SIZES = (1, 2, 4, 8, 16)


# ----------------------------------------------------------------------
# The frozen numpy models (do not edit: they are the reference)
# ----------------------------------------------------------------------

_VALID_ACCESS_SIZES = (1, 2, 4, 8, 16)


def frozen_smem_access(model, addresses, size):
    addrs = np.asarray(addresses, dtype=np.int64)
    if addrs.ndim != 1 or addrs.size == 0:
        raise TraceError("addresses must be a non-empty 1-D sequence")
    if addrs.size > model.arch.warp_size:
        raise TraceError(
            "a warp request has at most %d lanes, got %d"
            % (model.arch.warp_size, addrs.size)
        )
    if size not in _VALID_ACCESS_SIZES:
        raise TraceError("access size must be one of %s" % (_VALID_ACCESS_SIZES,))
    if np.any(addrs < 0):
        raise TraceError("negative shared-memory address")
    if np.any(addrs % size):
        raise TraceError("shared-memory accesses must be %d-byte aligned" % size)

    row_bytes = model.bank_count * model.bank_width
    lanes_per_group = max(1, row_bytes // size)
    words_per_access = max(1, math.ceil(size / model.bank_width))
    phases = math.ceil(addrs.size / lanes_per_group)

    total_cycles = 0
    worst_degree = 1
    for g in range(phases):
        group = addrs[g * lanes_per_group : (g + 1) * lanes_per_group]
        chunk_addrs = (
            group[:, np.newaxis]
            + np.arange(words_per_access) * model.bank_width
        ).reshape(-1)
        banks = (chunk_addrs // model.bank_width) % model.bank_count
        if model.policy is BankConflictPolicy.PAPER:
            keys = chunk_addrs
        else:
            keys = chunk_addrs // model.bank_width
        degree = _max_group_cardinality(banks, keys)
        worst_degree = max(worst_degree, degree)
        total_cycles += degree

    unique_bytes = _unique_byte_count(addrs, size)
    return SmemAccessResult(
        lanes=int(addrs.size),
        access_size=size,
        request_bytes=int(addrs.size) * size,
        unique_bytes=unique_bytes,
        cycles=total_cycles,
        conflict_degree=worst_degree,
        phases=phases,
        bank_count=model.bank_count,
        bank_width=model.bank_width,
    )


def _max_group_cardinality(banks, keys):
    pairs = np.stack([banks, keys], axis=1)
    unique_pairs = np.unique(pairs, axis=0)
    _, counts = np.unique(unique_pairs[:, 0], return_counts=True)
    return int(counts.max())


def _unique_byte_count(addrs, size):
    return int(np.unique(addrs).size) * size


def frozen_gmem_access(model, addresses, size, segment_size=0):
    addrs = np.asarray(addresses, dtype=np.int64)
    if addrs.ndim != 1 or addrs.size == 0:
        raise TraceError("addresses must be a non-empty 1-D sequence")
    if addrs.size > model.arch.warp_size:
        raise TraceError(
            "a warp request has at most %d lanes, got %d"
            % (model.arch.warp_size, addrs.size)
        )
    if size <= 0:
        raise TraceError("access size must be positive")
    if np.any(addrs < 0):
        raise TraceError("negative global-memory address")
    if np.any(addrs % size):
        raise TraceError("global-memory accesses must be %d-byte aligned" % size)

    seg = segment_size or model.segment_size
    first = addrs // seg
    last = (addrs + size - 1) // seg
    touched = [np.arange(f, l + 1) for f, l in zip(first, last)]
    segments = np.unique(np.concatenate(touched))
    unique_bytes = int(np.unique(addrs).size) * size
    return GmemAccessResult(
        lanes=int(addrs.size),
        access_size=size,
        request_bytes=int(addrs.size) * size,
        unique_bytes=unique_bytes,
        transactions=int(segments.size),
        segment_size=seg,
    )


def frozen_cmem_access(model, addresses):
    addrs = np.asarray(addresses, dtype=np.int64)
    if addrs.ndim != 1 or addrs.size == 0:
        raise TraceError("addresses must be a non-empty 1-D sequence")
    if addrs.size > model.arch.warp_size:
        raise TraceError(
            "a warp request has at most %d lanes, got %d"
            % (model.arch.warp_size, addrs.size)
        )
    if np.any(addrs < 0):
        raise TraceError("negative constant-memory address")
    return CmemAccessResult(
        lanes=int(addrs.size),
        distinct_addresses=int(np.unique(addrs).size),
    )


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------

def structured_patterns(lanes, size, row_bytes):
    """Strides, offsets, broadcasts and bank-row aliasing for one warp."""
    ids = np.arange(lanes, dtype=np.int64)
    for stride in (1, 2, 3, 33):
        yield ids * stride * size
    for stride in (1, 17):
        yield 5 * row_bytes + 3 * size + ids * stride * size
    yield np.zeros(lanes, dtype=np.int64)                  # full broadcast
    yield (ids % 2) * size                                 # two addresses
    yield (ids // 2) * size                                # pairs share
    yield (ids % 4) * row_bytes                            # same bank, 4 rows
    yield ids * row_bytes + (ids % 3) * size               # bank-row stride
    yield ids[::-1] * size                                 # reversed lanes
    yield (ids * 7 % 32) * size                            # permuted lanes


def random_patterns(rng, count, size, spans):
    for _ in range(count):
        lanes = int(rng.integers(1, 33))
        span = int(rng.choice(spans))
        yield rng.integers(0, span, size=lanes, dtype=np.int64) * size


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want


def assert_same_error(new_call, frozen_call):
    with pytest.raises(TraceError) as want:
        frozen_call()
    with pytest.raises(TraceError) as got:
        new_call()
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# Shared memory
# ----------------------------------------------------------------------

class TestSharedMemoryPin:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("size", SMEM_SIZES)
    def test_structured_patterns(self, arch, policy, size):
        model = SharedMemoryModel(arch, policy)
        row_bytes = model.bank_count * model.bank_width
        for lanes in range(1, arch.warp_size + 1):
            for addrs in structured_patterns(lanes, size, row_bytes):
                assert_same(model.access(addrs, size),
                            frozen_smem_access(model, addrs, size))

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_seeded_random_patterns(self, arch, policy):
        model = SharedMemoryModel(arch, policy)
        rng = np.random.default_rng(2017)
        for size in SMEM_SIZES:
            for addrs in random_patterns(rng, 150, size, (2, 8, 64, 4096, 1 << 30)):
                assert_same(model.access(addrs, size),
                            frozen_smem_access(model, addrs, size))

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_wide_accesses_split_into_phases(self, arch):
        # A full warp of wide accesses spans one bank row per phase, and
        # each phase revisits every bank of the one before it.
        for policy in POLICIES:
            model = SharedMemoryModel(arch, policy)
            row_bytes = model.bank_count * model.bank_width
            for size in (8, 16):
                addrs = np.arange(32, dtype=np.int64) * size
                res = model.access(addrs, size)
                assert res.phases == max(1, 32 * size // row_bytes)
                assert res.cycles == res.phases
                assert_same(res, frozen_smem_access(model, addrs, size))

    def test_plain_sequences_are_accepted(self):
        model = SharedMemoryModel(ARCHS[0], BankConflictPolicy.PAPER)
        addrs = [0, 4, 8, 1024, 4]
        assert_same(model.access(addrs, 4), frozen_smem_access(model, addrs, 4))

    @pytest.mark.parametrize("addrs,size", [
        (np.array([], dtype=np.int64), 4),
        ([], 4),
        (np.zeros((2, 4), dtype=np.int64), 4),
        (np.int64(8), 4),
        (np.arange(33) * 4, 4),
        (np.arange(33) * 4 - 8, 3),                  # lanes before size
        (np.array([0]), 3),
        (np.array([0]), 0),
        (np.array([0]), 32),
        (np.array([-4]), 3),                         # size before sign
        (np.array([0, -8]), 4),
        (np.array([-2]), 4),                         # sign before alignment
        (np.array([2]), 4),
        (np.array([0, 6]), 4),
        (np.array([8, 24]), 16),
    ])
    def test_invalid_inputs_raise_the_same_error(self, addrs, size):
        model = SharedMemoryModel(ARCHS[0], BankConflictPolicy.PAPER)
        assert_same_error(lambda: model.access(addrs, size),
                          lambda: frozen_smem_access(model, addrs, size))


# ----------------------------------------------------------------------
# Global memory
# ----------------------------------------------------------------------

GMEM_SIZES = (1, 2, 4, 8, 12, 16, 48, 200)
SEGMENTS = (0, 32, 128)


class TestGlobalMemoryPin:
    @pytest.mark.parametrize("arch", COALESCER_ARCHS, ids=lambda a: a.name)
    @pytest.mark.parametrize("segment_size", SEGMENTS)
    @pytest.mark.parametrize("size", GMEM_SIZES)
    def test_structured_patterns(self, arch, size, segment_size):
        model = GlobalMemoryModel(arch)
        for lanes in range(1, arch.warp_size + 1):
            for addrs in structured_patterns(lanes, size, math.lcm(size, 128)):
                assert_same(model.access(addrs, size, segment_size),
                            frozen_gmem_access(model, addrs, size, segment_size))

    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_seeded_random_patterns(self, arch):
        model = GlobalMemoryModel(arch)
        rng = np.random.default_rng(2017)
        for size in GMEM_SIZES:
            for segment_size in SEGMENTS:
                for addrs in random_patterns(rng, 40, size,
                                             (2, 16, 256, 1 << 30)):
                    assert_same(
                        model.access(addrs, size, segment_size),
                        frozen_gmem_access(model, addrs, size, segment_size))

    @pytest.mark.parametrize("size,segment_size", [
        (12, 32), (48, 32), (48, 128), (200, 32), (200, 128)])
    def test_straddling_lanes_move_every_segment_they_touch(
            self, size, segment_size):
        model = GlobalMemoryModel(ARCHS[0])
        addrs = np.arange(32, dtype=np.int64) * size
        res = model.access(addrs, size, segment_size)
        assert res.transactions == math.ceil(32 * size / segment_size)
        assert_same(res, frozen_gmem_access(model, addrs, size, segment_size))

    @pytest.mark.parametrize("addrs,size", [
        (np.array([], dtype=np.int64), 4),
        (np.zeros((2, 4), dtype=np.int64), 4),
        (np.int64(8), 4),
        (np.arange(33) * 4, 4),
        (np.arange(33) * 4 - 8, 0),                  # lanes before size
        (np.array([0]), 0),
        (np.array([0]), -4),
        (np.array([-4]), 0),                         # size before sign
        (np.array([0, -8]), 4),
        (np.array([-2]), 4),                         # sign before alignment
        (np.array([3]), 4),
        (np.array([0, 24]), 48),
    ])
    def test_invalid_inputs_raise_the_same_error(self, addrs, size):
        model = GlobalMemoryModel(ARCHS[0])
        assert_same_error(lambda: model.access(addrs, size),
                          lambda: frozen_gmem_access(model, addrs, size))


# ----------------------------------------------------------------------
# Constant memory
# ----------------------------------------------------------------------

class TestConstantMemoryPin:
    @pytest.mark.parametrize("arch", ARCHS, ids=lambda a: a.name)
    def test_structured_and_random_patterns(self, arch):
        model = ConstantMemoryModel(arch)
        rng = np.random.default_rng(2017)
        for lanes in range(1, arch.warp_size + 1):
            for addrs in structured_patterns(lanes, 4, 128):
                assert_same(model.access(addrs),
                            frozen_cmem_access(model, addrs))
        for addrs in random_patterns(rng, 200, 4, (1, 2, 8, 1 << 30)):
            assert_same(model.access(addrs), frozen_cmem_access(model, addrs))

    @pytest.mark.parametrize("addrs", [
        np.array([], dtype=np.int64),
        np.zeros((2, 4), dtype=np.int64),
        np.int64(8),
        np.arange(33) - 1,                           # lanes before sign
        np.array([-4]),
        np.array([0, 4, -1]),
    ])
    def test_invalid_inputs_raise_the_same_error(self, addrs):
        model = ConstantMemoryModel(ARCHS[0])
        assert_same_error(lambda: model.access(addrs),
                          lambda: frozen_cmem_access(model, addrs))
