"""Tests for the dynamic batcher: deadline flush, size flush, drain."""

import numpy as np
import pytest

from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.obs.metrics import Registry
from repro.serve.batcher import DynamicBatcher
from repro.serve.request import ConvRequest


def make_request(req_id, problem=None, arrival_s=0.0):
    problem = problem or ConvProblem.square(16, 3, channels=1, filters=2)
    image, filters = problem.random_instance(seed=req_id)
    return ConvRequest(req_id=req_id, problem=problem, image=image,
                       filters=filters, arrival_s=arrival_s)


class TestDeadlineFlush:
    def test_not_due_before_deadline(self):
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        batcher.add("k", make_request(0), now=0.0)
        assert batcher.due(now=0.5e-3) == []
        assert batcher.pending == 1

    def test_due_at_deadline(self):
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        batcher.add("k", make_request(0, arrival_s=0.0), now=0.0)
        batcher.add("k", make_request(1, arrival_s=0.4e-3), now=0.4e-3)
        batches = batcher.due(now=1e-3)
        assert len(batches) == 1
        assert batches[0].reason == "deadline"
        assert len(batches[0]) == 2
        assert batcher.pending == 0

    def test_deadline_runs_from_oldest_member(self):
        # A later arrival must not extend the oldest request's wait.
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        batcher.add("k", make_request(0), now=0.0)
        batcher.add("k", make_request(1), now=0.9e-3)
        assert len(batcher.due(now=1e-3)) == 1

    def test_groups_flush_independently(self):
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        batcher.add("a", make_request(0), now=0.0)
        batcher.add("b", make_request(1), now=0.8e-3)
        batches = batcher.due(now=1.0e-3)
        assert [b.key for b in batches] == ["a"]
        assert batcher.pending == 1

    def test_next_deadline(self):
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        assert batcher.next_deadline() is None
        batcher.add("a", make_request(0), now=2e-3)
        batcher.add("b", make_request(1), now=1e-3)
        assert batcher.next_deadline() == pytest.approx(2e-3)

    def test_zero_deadline_due_immediately(self):
        batcher = DynamicBatcher(deadline_s=0.0, max_batch=8)
        batcher.add("k", make_request(0), now=5.0)
        assert len(batcher.due(now=5.0)) == 1


class TestSizeFlush:
    def test_full_batch_returned_by_add(self):
        batcher = DynamicBatcher(deadline_s=1.0, max_batch=3)
        assert batcher.add("k", make_request(0), now=0.0) is None
        assert batcher.add("k", make_request(1), now=0.0) is None
        full = batcher.add("k", make_request(2), now=0.0)
        assert full is not None and full.reason == "full"
        assert len(full) == 3
        assert batcher.pending == 0

    def test_max_batch_one_flushes_every_add(self):
        batcher = DynamicBatcher(deadline_s=1.0, max_batch=1)
        full = batcher.add("k", make_request(0), now=0.0)
        assert full is not None and len(full) == 1

    def test_different_shapes_never_coalesce(self):
        batcher = DynamicBatcher(deadline_s=1.0, max_batch=2)
        assert batcher.add("a", make_request(0), now=0.0) is None
        assert batcher.add("b", make_request(1), now=0.0) is None
        assert batcher.pending == 2


class TestDrain:
    def test_drain_pops_everything_in_age_order(self):
        batcher = DynamicBatcher(deadline_s=1.0, max_batch=8)
        batcher.add("b", make_request(0), now=2.0)
        batcher.add("a", make_request(1), now=1.0)
        batches = batcher.drain()
        assert [b.key for b in batches] == ["a", "b"]
        assert all(b.reason == "drain" for b in batches)
        assert batcher.pending == 0


class TestEdgeCases:
    def test_zero_deadline_multiple_groups_all_due(self):
        batcher = DynamicBatcher(deadline_s=0.0, max_batch=8)
        batcher.add("a", make_request(0), now=1.0)
        batcher.add("b", make_request(1), now=1.0)
        batches = batcher.due(now=1.0)
        assert sorted(b.key for b in batches) == ["a", "b"]
        assert all(len(b) == 1 for b in batches)

    def test_expired_deadline_flushes_on_next_poll(self):
        # A group whose deadline passed long ago is due immediately —
        # the batcher never holds work past its flush time, no matter
        # how late the next poll lands.
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        batcher.add("k", make_request(0), now=0.0)
        batches = batcher.due(now=10.0)
        assert len(batches) == 1
        assert batches[0].reason == "deadline"

    def test_single_request_deadline_flush(self):
        # One lonely request still flushes as a batch of one at its
        # deadline; it is never stranded waiting for company.
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=32)
        batcher.add("k", make_request(0, arrival_s=0.0), now=0.0)
        assert batcher.due(now=0.9e-3) == []
        batches = batcher.due(now=1e-3)
        assert len(batches) == 1 and len(batches[0]) == 1
        assert batcher.pending == 0

    def test_mixed_shape_interleaved_arrivals(self):
        # a b a b a b: groups accumulate independently and each flush
        # preserves per-group arrival order.
        batcher = DynamicBatcher(deadline_s=1e-3, max_batch=8)
        pa = ConvProblem.square(16, 3, channels=1, filters=2)
        pb = ConvProblem.square(24, 3, channels=1, filters=2)
        for i in range(6):
            key, problem = (("a", pa), ("b", pb))[i % 2]
            t = i * 1e-4
            batcher.add(key, make_request(i, problem, arrival_s=t), now=t)
        batches = batcher.due(now=2e-3)
        assert [b.key for b in batches] == ["a", "b"]
        assert [r.req_id for r in batches[0].requests] == [0, 2, 4]
        assert [r.req_id for r in batches[1].requests] == [1, 3, 5]

    def test_mixed_shape_interleaving_size_flush_only_fills_group(self):
        # An interleaved stream fills group a to max_batch without
        # dragging group b's pending work along.
        batcher = DynamicBatcher(deadline_s=1.0, max_batch=2)
        pa = ConvProblem.square(16, 3, channels=1, filters=2)
        pb = ConvProblem.square(24, 3, channels=1, filters=2)
        assert batcher.add("a", make_request(0, pa), now=0.0) is None
        assert batcher.add("b", make_request(1, pb), now=0.0) is None
        full = batcher.add("a", make_request(2, pa), now=0.0)
        assert full is not None and full.key == "a"
        assert [r.req_id for r in full.requests] == [0, 2]
        assert batcher.pending == 1


class TestRunningDepth:
    def test_seeded_interleaving_keeps_depth_exact(self):
        # add, due and drain interleaved over 64 shapes: after every
        # step the pending count and the depth gauge equal the summed
        # sizes of a reference model's open groups.
        rng = np.random.default_rng(2026)
        shapes = [ConvProblem.square(4 + i, 1, channels=1, filters=1)
                  for i in range(64)]
        arrays = [p.random_instance(seed=i) for i, p in enumerate(shapes)]
        registry = Registry()
        batcher = DynamicBatcher(deadline_s=5e-3, max_batch=4,
                                 registry=registry)
        depth = registry.get("serve_queue_depth")
        model = {}                      # key -> (opened_s, [req_id, ...])

        def pop(batch):
            opened_s, ids = model.pop(batch.key)
            assert batch.opened_s == opened_s
            assert [r.req_id for r in batch.requests] == ids

        now = 0.0
        for req_id in range(3000):
            now += float(rng.exponential(1e-3))
            op = rng.random()
            if op < 0.8:
                i = int(rng.integers(len(shapes)))
                image, filters = arrays[i]
                request = ConvRequest(req_id=req_id, problem=shapes[i],
                                      image=image, filters=filters,
                                      arrival_s=now)
                key = (shapes[i], "kepler")
                model.setdefault(key, (now, []))[1].append(req_id)
                full = batcher.add(key, request, now)
                if full is not None:
                    assert full.reason == "full"
                    assert len(full) == batcher.max_batch
                    pop(full)
            elif op < 0.98:
                expired = {k for k, (opened_s, _) in model.items()
                           if now >= opened_s + batcher.deadline_s}
                batches = batcher.due(now)
                assert {b.key for b in batches} == expired
                opened = [b.opened_s for b in batches]
                assert opened == sorted(opened)
                for batch in batches:
                    pop(batch)
            else:
                batches = batcher.drain()
                opened = [b.opened_s for b in batches]
                assert opened == sorted(opened)
                for batch in batches:
                    pop(batch)
                assert not model
            expected = sum(len(ids) for _, ids in model.values())
            assert batcher.pending == expected
            assert depth.value() == expected


class TestValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ReproError):
            DynamicBatcher(deadline_s=-1.0)

    def test_zero_max_batch_rejected(self):
        with pytest.raises(ReproError):
            DynamicBatcher(max_batch=0)
