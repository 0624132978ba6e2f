"""Tests for image partitioning with halos (paper Fig. 4)."""

import pytest

from repro.conv.blocking import BlockGrid, BlockSpec, halo_read_overhead
from repro.conv.tensors import ConvProblem
from repro.errors import ConfigurationError


class TestGridGeometry:
    def test_exact_tiling(self):
        p = ConvProblem.square(34, 3)  # output 32x32
        grid = BlockGrid(p, BlockSpec(block_h=8, block_w=16))
        assert (grid.blocks_y, grid.blocks_x) == (4, 2)
        assert grid.total_blocks == 8

    def test_ceil_tiling_with_partial_blocks(self):
        p = ConvProblem.square(35, 3)  # output 33x33
        grid = BlockGrid(p, BlockSpec(block_h=8, block_w=16))
        assert (grid.blocks_y, grid.blocks_x) == (5, 3)
        assert grid.total_blocks == 15

    def test_footprint_includes_halo(self):
        spec = BlockSpec(block_h=8, block_w=16)
        assert (spec.input_rows(3), spec.input_cols(3)) == (10, 18)


class TestHaloOverhead:
    def test_overhead_formula(self):
        p = ConvProblem.square(34, 3)
        spec = BlockSpec(block_h=8, block_w=16)
        # (10*18)/(8*16) per block, 8 blocks, over 34^2 unique pixels.
        assert halo_read_overhead(p, spec) == pytest.approx(10 * 18 * 8 / 34 ** 2)

    def test_larger_blocks_lower_overhead(self):
        p = ConvProblem.square(514, 3)
        small = halo_read_overhead(p, BlockSpec(block_h=4, block_w=64))
        large = halo_read_overhead(p, BlockSpec(block_h=8, block_w=256))
        assert large < small

    def test_paper_config_overhead_is_small(self):
        # The paper's W=256, H=8 on a 2048^2 image: ~26% (vertical halo
        # dominates: (8+2)/8).
        p = ConvProblem.square(2048, 3)
        overhead = halo_read_overhead(p, BlockSpec(block_h=8, block_w=256))
        assert 1.0 < overhead < 1.35

    def test_k1_has_no_halo(self):
        p = ConvProblem.square(256, 1)
        assert halo_read_overhead(p, BlockSpec(block_h=8, block_w=256)) == \
            pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            BlockSpec(block_h=0, block_w=16)
