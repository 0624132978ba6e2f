"""Tests for ConvProblem and tensor helpers."""

import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.errors import ShapeError
from repro.fleet.shared_cache import plan_checksum
from repro.serve.dispatch import Dispatcher


class TestDerivedQuantities:
    def test_valid_output_shrinks(self):
        p = ConvProblem.square(64, 5)
        assert (p.out_height, p.out_width) == (60, 60)

    def test_same_output_matches_input(self):
        p = ConvProblem.square(64, 5, padding=Padding.SAME)
        assert (p.out_height, p.out_width) == (64, 64)
        assert p.pad == 2

    def test_flops_formula(self):
        p = ConvProblem.square(32, 3, channels=4, filters=8)
        assert p.flops == 2 * 9 * 4 * 8 * 30 * 30

    def test_shapes(self):
        p = ConvProblem(height=10, width=12, channels=3, filters=5, kernel_size=3)
        assert p.image_shape == (3, 10, 12)
        assert p.filter_shape == (5, 3, 3, 3)
        assert p.output_shape == (5, 8, 10)

    def test_byte_sizes(self):
        p = ConvProblem.square(16, 3, channels=2, filters=4)
        assert p.image_bytes == 2 * 16 * 16 * 4
        assert p.filter_bytes == 4 * 2 * 9 * 4
        assert p.output_bytes == 4 * 14 * 14 * 4

    def test_max_pixel_reuse(self):
        p = ConvProblem.square(32, 5, filters=16)
        assert p.max_pixel_reuse == 25 * 16

    def test_as_valid_roundtrip(self):
        p = ConvProblem.square(32, 3, padding=Padding.SAME)
        v = p.as_valid()
        assert v.padding is Padding.VALID
        assert v.height == 34
        assert (v.out_height, v.out_width) == (32, 32)

    def test_as_valid_identity_for_valid(self):
        p = ConvProblem.square(32, 3)
        assert p.as_valid() is p

    def test_as_valid_built_once(self):
        p = ConvProblem.square(30, 5, channels=2, filters=4, dilation=2,
                               padding=Padding.SAME)
        v = p.as_valid()
        assert v is p.as_valid()
        assert v == ConvProblem(height=38, width=38, channels=2, filters=4,
                                kernel_size=5, dilation=2)


def _field_tuple(p):
    return tuple(getattr(p, f.name) for f in dataclasses.fields(p))


class TestCachedHash:
    PROBLEMS = [
        ConvProblem.square(32, 3),
        ConvProblem.square(28, 5, channels=8, filters=8, groups=8,
                           padding=Padding.SAME, layout=Layout.NHWC),
        ConvProblem(height=17, width=23, channels=3, filters=6,
                    kernel_size=3, stride=2, dilation=2),
    ]

    @pytest.mark.parametrize("p", PROBLEMS,
                             ids=["plain", "same-grouped-nhwc", "strided"])
    def test_hash_is_the_field_tuple_hash(self, p):
        # The generated dataclass hash, so no dict or set order moves;
        # the first call computes it, the second reads the cache.
        assert hash(p) == hash(_field_tuple(p))
        assert hash(p) == hash(_field_tuple(p))

    def test_caches_stay_out_of_the_pickle(self):
        p = ConvProblem.square(32, 3, padding=Padding.SAME)
        before = pickle.dumps(p)
        hash(p), p.as_valid()
        assert pickle.dumps(p) == before
        q = pickle.loads(before)
        assert q == p and hash(q) == hash(p)
        assert q.as_valid() == p.as_valid()

    def test_plan_checksum_ignores_first_hash_and_as_valid(self):
        p = ConvProblem.square(24, 3, channels=4, filters=8,
                               padding=Padding.SAME)
        plan = Dispatcher().build_plan(p)
        # A plan whose problem has not been hashed or converted yet.
        fresh = dataclasses.replace(plan, problem=ConvProblem(*_field_tuple(p)))
        before = plan_checksum(fresh)
        assert before is not None
        hash(fresh.problem), fresh.problem.as_valid()
        assert plan_checksum(fresh) == before

    def test_unpickled_under_another_hash_seed(self):
        # Enum hashes follow the string hash seed, so a hash cached in
        # one process is wrong in a process with another seed.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        make = (
            "import pickle, sys\n"
            "from repro.conv.tensors import ConvProblem, Padding\n"
            "p = ConvProblem.square(20, 3, channels=2, filters=4,\n"
            "                       padding=Padding.SAME)\n"
            "hash(p), p.as_valid()\n"
            "sys.stdout.write(pickle.dumps(p).hex())\n")
        check = (
            "import pickle, sys\n"
            "from repro.conv.tensors import ConvProblem, Padding\n"
            "q = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "p = ConvProblem.square(20, 3, channels=2, filters=4,\n"
            "                       padding=Padding.SAME)\n"
            "assert hash(q) == hash(p) and q == p, (hash(q), hash(p))\n"
            "assert {p: 1}[q] == 1 and q in {p}\n"
            "assert q.as_valid() == p.as_valid()\n"
            "assert hash(q.as_valid()) == hash(p.as_valid())\n"
            "print('ok')\n")

        def run(code, seed, stdin=None):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", code], env=env, input=stdin,
                capture_output=True, text=True, check=True).stdout

        blob = run(make, "0")
        assert run(check, "1", stdin=blob).strip() == "ok"


class TestValidation:
    def test_filter_larger_than_image_rejected(self):
        with pytest.raises(ShapeError):
            ConvProblem.square(4, 5)

    def test_same_padding_needs_odd_kernel(self):
        with pytest.raises(ShapeError):
            ConvProblem.square(16, 4, padding=Padding.SAME)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ShapeError):
            ConvProblem(height=0, width=4, channels=1, filters=1, kernel_size=1)


class TestArrayChecks:
    def test_check_image_promotes_2d(self):
        p = ConvProblem.square(8, 3)
        arr = p.check_image(np.zeros((8, 8)))
        assert arr.shape == (1, 8, 8)
        assert arr.dtype == np.float32

    def test_check_image_wrong_shape(self):
        p = ConvProblem.square(8, 3)
        with pytest.raises(ShapeError):
            p.check_image(np.zeros((2, 8, 8)))

    def test_check_filters_promotes(self):
        p = ConvProblem.square(8, 3, filters=1)
        assert p.check_filters(np.zeros((3, 3))).shape == (1, 1, 3, 3)
        p4 = ConvProblem.square(8, 3, filters=4)
        assert p4.check_filters(np.zeros((4, 3, 3))).shape == (4, 1, 3, 3)

    def test_padded_image_zero_border(self):
        p = ConvProblem.square(4, 3, padding=Padding.SAME)
        img = p.padded_image(np.ones((4, 4)))
        assert img.shape == (1, 6, 6)
        assert img[0, 0, 0] == 0.0
        assert img[0, 1:5, 1:5].sum() == 16

    def test_random_instance_reproducible(self):
        p = ConvProblem.square(8, 3, channels=2, filters=3)
        a1, f1 = p.random_instance(seed=7)
        a2, f2 = p.random_instance(seed=7)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(f1, f2)
        assert a1.shape == p.image_shape and f1.shape == p.filter_shape
