"""Generalized-axis traces: shape families, persistence, end-to-end
serving, and fleet routing stability.

The generalization contract for the serving layer is two-sided: traces
over default-axis shapes must stay byte-identical to pre-generalization
files and routing, while strided / dilated / depthwise / NHWC shapes
must round-trip through JSON, dispatch, and the fleet router.
"""

import json

import numpy as np
import pytest

from repro.conv.reference import conv2d_reference
from repro.conv.tensors import ConvProblem, Layout
from repro.errors import ReproError
from repro.fleet.router import shape_hash
from repro.serve.dispatch import Dispatcher
from repro.serve.trace import (
    DEFAULT_SERVING_SHAPES,
    GENERALIZED_SERVING_SHAPES,
    SHAPE_FAMILIES,
    load_trace,
    save_trace,
    synthetic_trace,
)

DEPTHWISE = ConvProblem.square(24, 3, channels=4, filters=4, groups=4)
STRIDED_NHWC = ConvProblem.square(32, 3, channels=2, filters=4,
                                  stride=2, layout=Layout.NHWC)


class TestShapeFamilies:
    def test_default_family_is_byte_identical_to_shapes_arg(self):
        a = synthetic_trace(12, seed=3)
        b = synthetic_trace(12, seed=3, shape_family="classic")
        for x, y in zip(a, b):
            assert x.problem == y.problem
            assert x.arrival_s == y.arrival_s
            np.testing.assert_array_equal(x.image, y.image)

    def test_generalized_family_draws_generalized_axes(self):
        requests = synthetic_trace(40, seed=0, shape_family="generalized")
        problems = {r.problem for r in requests}
        assert problems <= set(GENERALIZED_SERVING_SHAPES)
        assert any(p.stride > 1 for p in problems)
        assert any(p.dilation > 1 for p in problems)
        assert any(p.groups == p.channels > 1 for p in problems)

    def test_mixed_family_interleaves_both_palettes(self):
        requests = synthetic_trace(120, seed=1, shape_family="mixed")
        problems = {r.problem for r in requests}
        assert problems & set(DEFAULT_SERVING_SHAPES)
        assert problems & set(GENERALIZED_SERVING_SHAPES)

    def test_unknown_family_rejected(self):
        with pytest.raises(ReproError) as excinfo:
            synthetic_trace(4, shape_family="mobile")
        assert "shape families" in str(excinfo.value)

    def test_families_registry_complete(self):
        assert set(SHAPE_FAMILIES) == {"classic", "generalized", "mixed"}


class TestPersistence:
    def test_generalized_axes_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        requests = synthetic_trace(25, seed=7, shape_family="mixed")
        save_trace(path, requests)
        loaded = load_trace(path)
        assert len(loaded) == len(requests)
        for orig, back in zip(requests, loaded):
            assert back.problem == orig.problem
            np.testing.assert_array_equal(back.image, orig.image)
            np.testing.assert_array_equal(back.filters, orig.filters)

    def test_default_axis_records_have_no_axis_keys(self, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(path, synthetic_trace(10, seed=2))
        with open(path) as fh:
            doc = json.load(fh)
        for rec in doc["requests"]:
            for key in ("stride", "dilation", "groups", "layout"):
                assert key not in rec

    def test_generalized_records_persist_only_non_default(self, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(path, synthetic_trace(30, seed=4,
                                         shape_family="generalized"))
        with open(path) as fh:
            doc = json.load(fh)
        assert any("stride" in rec or "groups" in rec
                   for rec in doc["requests"])
        for rec in doc["requests"]:
            assert rec.get("stride") != 1
            assert rec.get("dilation") != 1
            assert rec.get("groups") != 1
            assert rec.get("layout") != "nchw"


class TestGeneralizedDispatch:
    def test_serves_generalized_requests(self):
        dispatcher = Dispatcher()
        for problem in (DEPTHWISE, STRIDED_NHWC):
            plan = dispatcher.plan(problem)
            requests = synthetic_trace(3, shapes=(problem,), seed=5)
            outputs, _ = dispatcher.execute(plan, requests)
            for request, output in zip(requests, outputs):
                assert np.array_equal(
                    output,
                    conv2d_reference(request.image, request.filters,
                                     problem=problem))

    def test_depthwise_plan_prefers_a_grouped_backend(self):
        plan = Dispatcher().plan(DEPTHWISE)
        assert plan.backend in ("depthwise", "im2col", "naive")
        assert "depthwise" in plan.candidates


class TestRoutingStability:
    def test_default_axis_hash_unchanged_by_generalization(self):
        # The hashed blob only grows for non-default axes, so every
        # pre-existing shape keeps its replica assignment.
        problem = ConvProblem.square(32, 3, channels=8, filters=16)
        blob = "%d|%d|%d|%d|%d|%s|" % (
            problem.height, problem.width, problem.channels,
            problem.filters, problem.kernel_size, problem.padding.value)
        import hashlib
        want = int.from_bytes(
            hashlib.blake2b(blob.encode("ascii"), digest_size=8).digest(),
            "big")
        assert shape_hash(problem) == want

    def test_generalized_axes_separate_hashes(self):
        base = ConvProblem.square(32, 3, channels=4, filters=4)
        strided = ConvProblem.square(32, 3, channels=4, filters=4, stride=2)
        dilated = ConvProblem.square(32, 3, channels=4, filters=4,
                                     dilation=2)
        nhwc = ConvProblem.square(32, 3, channels=4, filters=4,
                                  layout=Layout.NHWC)
        hashes = {shape_hash(p) for p in (base, strided, dilated, nhwc)}
        assert len(hashes) == 4
