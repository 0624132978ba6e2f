"""End-to-end tests of the serving engine."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem
from repro.errors import ReproError
from repro.serve import (
    ConvRequest,
    ServeEngine,
    load_trace,
    save_trace,
    synthetic_trace,
)

TRACE = synthetic_trace(40, seed=5)


def _request(problem, req_id, seed=0, arrival_s=0.0):
    image, filters = problem.random_instance(seed=seed)
    return ConvRequest(req_id=req_id, problem=problem, image=image,
                       filters=filters, arrival_s=arrival_s)


class TestServeTrace:
    def test_serves_mixed_trace_bit_exact(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        responses = engine.serve_trace(TRACE)
        assert len(responses) == len(TRACE)
        for request, response in zip(TRACE, responses):
            assert response.req_id == request.req_id
            reference = conv2d_reference(
                request.image, request.filters, request.problem.padding)
            assert np.array_equal(response.output, reference)

    def test_batches_coalesce_same_shape(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        engine.serve_trace(TRACE)
        snap = engine.stats()
        assert snap["served"] == len(TRACE)
        assert snap["mean_batch_size"] > 1.0
        assert snap["batches"] < len(TRACE)

    def test_one_reference_call_per_batch(self, monkeypatch):
        from repro.serve import dispatch

        calls = []
        real = dispatch.conv2d_reference

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatch, "conv2d_reference", counting)
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        engine.serve_trace(TRACE)
        assert len(calls) == engine.stats()["batches"] < len(TRACE)

    def test_unbatched_engine_serves_singletons(self):
        engine = ServeEngine(deadline_s=0.0, max_batch=1)
        engine.serve_trace(TRACE)
        snap = engine.stats()
        assert snap["mean_batch_size"] == 1.0
        assert snap["batches"] == len(TRACE)

    def test_batched_throughput_beats_unbatched(self):
        batched = ServeEngine(deadline_s=1e-3, max_batch=16)
        batched.serve_trace(TRACE)
        unbatched = ServeEngine(deadline_s=0.0, max_batch=1)
        unbatched.serve_trace(TRACE)
        assert (batched.stats()["throughput_rps"]
                > unbatched.stats()["throughput_rps"])

    def test_plan_cache_hit_rate_on_repeated_shapes(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        engine.serve_trace(TRACE)
        cache = engine.stats()["plan_cache"]
        assert cache["misses"] == len({r.problem for r in TRACE})
        assert cache["hit_rate"] > 0.8

    def test_latency_accounting(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        responses = engine.serve_trace(TRACE)
        for request, response in zip(TRACE, responses):
            assert response.latency_s == pytest.approx(
                response.completed_s - request.arrival_s)
            assert response.latency_s > 0
        assert engine.stats()["max_latency_s"] >= engine.stats()["mean_latency_s"]

    def test_virtual_clock_is_monotone(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=16)
        responses = engine.serve_trace(TRACE)
        completions = [r.completed_s for r in
                       sorted(responses, key=lambda r: r.batch_id)]
        assert completions == sorted(completions)
        assert engine.clock_s == max(completions)


class TestOnlineMode:
    def test_submit_then_flush(self):
        engine = ServeEngine(deadline_s=1.0, max_batch=64)
        problem = ConvProblem.square(24, 3, channels=1, filters=2)
        for i in range(3):
            assert engine.submit(_request(problem, i, seed=i)) == []
        responses = engine.flush()
        assert len(responses) == 3
        assert {r.batch_size for r in responses} == {3}

    def test_submit_flushes_full_group(self):
        engine = ServeEngine(deadline_s=1.0, max_batch=2)
        problem = ConvProblem.square(24, 3, channels=1, filters=2)
        assert engine.submit(_request(problem, 0)) == []
        responses = engine.submit(_request(problem, 1))
        assert len(responses) == 2

    def test_poll_respects_deadline(self):
        engine = ServeEngine(deadline_s=1e-3, max_batch=64)
        problem = ConvProblem.square(24, 3, channels=1, filters=2)
        engine.submit(_request(problem, 0, arrival_s=0.0))
        assert engine.poll(0.5e-3) == []
        responses = engine.poll(2e-3)
        assert len(responses) == 1
        # Deadline-flushed batches start at the deadline, not the poll.
        assert responses[0].completed_s < 2e-3


class TestImportCost:
    def test_import_leaves_asyncio_unloaded(self):
        # A fresh interpreter: this process may have loaded asyncio
        # through another test or plugin.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro, repro.serve, repro.fleet, repro.cli; "
                "print('asyncio' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestTracePersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(path, TRACE)
        loaded = load_trace(path)
        assert len(loaded) == len(TRACE)
        for original, copy in zip(TRACE, loaded):
            assert copy.req_id == original.req_id
            assert copy.problem == original.problem
            assert copy.arrival_s == pytest.approx(original.arrival_s)
            assert np.array_equal(copy.image, original.image)
            assert np.array_equal(copy.filters, original.filters)

    def test_unseeded_requests_do_not_persist(self, tmp_path):
        problem = ConvProblem.square(24, 3, channels=1, filters=2)
        request = _request(problem, 0)
        assert request.seed is None
        with pytest.raises(ReproError):
            save_trace(str(tmp_path / "t.json"), [request])

    def test_synthetic_trace_validation(self):
        with pytest.raises(ReproError):
            synthetic_trace(0)
        with pytest.raises(ReproError):
            synthetic_trace(5, shapes=())

    def test_priority_and_deadline_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        trace = synthetic_trace(
            20, seed=4,
            priority_mix={"critical": 0.3, "standard": 0.4, "batch": 0.3},
            deadline_budget_s=2e-3)
        assert len({r.priority for r in trace}) > 1
        save_trace(path, trace)
        loaded = load_trace(path)
        for original, copy in zip(trace, loaded):
            assert copy.priority == original.priority
            assert copy.deadline_s == pytest.approx(original.deadline_s)

    def test_priority_mix_does_not_change_shapes_or_arrivals(self):
        plain = synthetic_trace(15, seed=2)
        mixed = synthetic_trace(15, seed=2,
                                priority_mix={"critical": 1.0})
        for a, b in zip(plain, mixed):
            assert a.problem == b.problem
            assert a.arrival_s == b.arrival_s

    def test_unknown_priority_class_rejected(self):
        with pytest.raises(ReproError, match="priority classes"):
            synthetic_trace(5, priority_mix={"urgent": 1.0})
