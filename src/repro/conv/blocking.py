"""Image partitioning into blocks with halos (paper Fig. 4).

Both of the paper's kernels tile the *output* plane into ``H x W``
blocks; each block additionally reads ``K - 1`` halo rows/columns beyond
its right and bottom boundary.  This module provides the grid geometry,
the input footprint (with halo) of each block, and the halo-overhead
analysis backing the paper's claim that the special-case kernel is
"(almost) communication-optimal" — only halo pixels are read more than
once, and their proportion is small (Sec. 3.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.conv.tensors import ConvProblem
from repro.errors import ConfigurationError

__all__ = ["BlockSpec", "BlockGrid", "halo_read_overhead"]


@dataclass(frozen=True)
class BlockSpec:
    """An output tile of ``block_h`` rows by ``block_w`` columns."""

    block_h: int
    block_w: int

    def __post_init__(self):
        if self.block_h < 1 or self.block_w < 1:
            raise ConfigurationError("block extents must be positive")

    def input_rows(self, kernel_size: int, stride: int = 1,
                   dilation: int = 1) -> int:
        """Input rows a block touches, including the bottom halo.

        Strided blocks advance ``stride`` input rows per output row and
        dilated taps span ``dilation * (K-1) + 1`` rows; at the default
        axes this is the paper's ``block_h + K - 1``.
        """
        return (self.block_h - 1) * stride + dilation * (kernel_size - 1) + 1

    def input_cols(self, kernel_size: int, stride: int = 1,
                   dilation: int = 1) -> int:
        return (self.block_w - 1) * stride + dilation * (kernel_size - 1) + 1


class BlockGrid:
    """The grid of output tiles covering a convolution problem."""

    def __init__(self, problem: ConvProblem, spec: BlockSpec):
        self.problem = problem.as_valid()
        self.spec = spec
        self.blocks_y = math.ceil(self.problem.out_height / spec.block_h)
        self.blocks_x = math.ceil(self.problem.out_width / spec.block_w)

    @property
    def total_blocks(self) -> int:
        return self.blocks_y * self.blocks_x

    def input_pixels_read(self) -> int:
        """Total input pixels read by all blocks of one channel (with halos)."""
        p = self.problem
        k = p.kernel_size
        per_block = (self.spec.input_rows(k, p.stride, p.dilation)
                     * self.spec.input_cols(k, p.stride, p.dilation))
        return per_block * self.total_blocks


def halo_read_overhead(problem: ConvProblem, spec: BlockSpec) -> float:
    """Ratio of pixels read (with halos) to unique pixels, one channel.

    1.0 would be the theoretical lower bound where every pixel is read
    exactly once; the excess is the paper's "proportion of such halo
    pixels is small" claim, quantified (Sec. 3.2).
    """
    grid = BlockGrid(problem, spec)
    unique = problem.as_valid().height * problem.as_valid().width
    return grid.input_pixels_read() / unique
