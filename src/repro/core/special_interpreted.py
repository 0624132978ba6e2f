"""Algorithm 1 executed instruction-by-instruction on the SIMT
interpreter (:mod:`repro.gpu.device`).

This is the audit twin of :class:`~repro.core.special.SpecialCaseKernel`:
the same thread layout, circular shared-memory row window, register
window, constant-memory filter broadcasts and prefetch schedule — but
*executed*, with every warp's byte addresses observed by the memory
models as they happen, instead of being costed analytically per site.

``run_traced`` returns both the convolution output (verified exact) and
the executed-trace :class:`~repro.gpu.trace.KernelCost`; the test suite
checks the latter against ``SpecialCaseKernel.cost()`` counter by
counter.  To keep the audit exact the kernel requires an aligned
problem: the output extent must tile the block grid exactly (no partial
blocks, no predicated edges).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import matched_vector
from repro.core.config import SpecialCaseConfig
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.device import DeviceExecutor
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3
from repro.gpu.trace import KernelCost

__all__ = ["InterpretedSpecialKernel"]


class InterpretedSpecialKernel:
    """Executable Algorithm 1 with a fully observed memory trace."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config: SpecialCaseConfig = SpecialCaseConfig(block_w=64, block_h=4),
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.arch = arch
        self.config = config
        self.bank_policy = bank_policy
        self.n = matched_vector(arch).n if matched else 1
        self.name = "special-interpreted[%s,n=%d]" % (arch.name, self.n)

    # ------------------------------------------------------------------
    def run_traced(
        self, image: np.ndarray, filters: np.ndarray
    ) -> Tuple[np.ndarray, KernelCost]:
        img = np.asarray(image, dtype=np.float32)
        flt = np.asarray(filters, dtype=np.float32)
        if img.ndim != 2:
            raise ShapeError("image must be 2-D (H, W)")
        if flt.ndim == 2:
            flt = flt[np.newaxis]
        if flt.ndim != 3 or flt.shape[1] != flt.shape[2]:
            raise ShapeError("filters must be (F, K, K)")

        k = flt.shape[1]
        f_count = flt.shape[0]
        cfg = self.config
        n = self.n
        cfg.validate(k, n, self.arch.warp_size)

        problem = ConvProblem(
            height=img.shape[0], width=img.shape[1], channels=1,
            filters=f_count, kernel_size=k,
        )
        oh, ow = problem.out_height, problem.out_width
        if oh % cfg.block_h or ow % cfg.block_w:
            raise ConfigurationError(
                "the audit kernel needs the %dx%d output to tile the "
                "%dx%d block exactly" % (oh, ow, cfg.block_h, cfg.block_w)
            )

        ex = DeviceExecutor(self.arch, self.bank_policy)
        g_img = ex.alloc_global(img, "image")
        g_out = ex.alloc_global(np.zeros(f_count * oh * ow, np.float32), "out")
        c_flt = ex.alloc_constant(flt, "filters")

        blocks_y = oh // cfg.block_h
        blocks_x = ow // cfg.block_w
        threads = cfg.threads(n)
        img_w = problem.width

        for by in range(blocks_y):
            for bx in range(blocks_x):
                ex.run_block(
                    self._block_program, (bx, by), threads,
                    g_img, g_out, c_flt,
                    bx * cfg.block_w, by * cfg.block_h,
                    img_w, oh, ow, k, f_count,
                )

        cost = ex.finish(
            name=self.name,
            registers_per_thread=cfg.registers_per_thread(k, n),
            grid=Dim3(x=blocks_x, y=blocks_y),
            software_prefetch=True,
        )
        out = g_out.data.reshape(f_count, oh, ow)
        return out, cost

    # ------------------------------------------------------------------
    def _block_program(self, block, g_img, g_out, c_flt,
                       in_x0, in_y0, img_w, oh, ow, k, f_count):
        cfg = self.config
        n = self.n
        w, h = cfg.block_w, cfg.block_h
        row_floats = cfg.smem_row_floats(k, n)
        window_units = 1 + math.ceil((k - 1) / n)
        halo_units = math.ceil((k - 1) / n)
        threads = cfg.threads(n)

        smem = block.shared(k * row_floats, "rows")

        # Per-thread "registers": the K x (window_units*n) pixel window.
        regwin = np.zeros((threads, k, window_units * n), dtype=np.float32)

        def load_row_from_gmem(warp, row):
            """The cooperative global read of one image row (+ halo)."""
            base = (in_y0 + row) * img_w + in_x0
            idx = base + warp.lane * n
            vals = warp.gload(g_img, idx, vector=n, site="gm.load_row")
            halo_vals = None
            if halo_units and warp.warp_id == 0:
                hidx = base + w + np.arange(halo_units, dtype=np.int64) * n
                halo_vals = warp.gload(g_img, hidx, vector=n,
                                       site="gm.load_row_halo")
            return vals, halo_vals

        def store_row_to_smem(warp, slot, vals, halo_vals):
            off = slot * row_floats
            warp.sstore(smem, off + warp.lane * n, vals, vector=n,
                        site="sm.store_row")
            if halo_vals is not None:
                hoff = off + w + np.arange(halo_units, dtype=np.int64) * n
                warp.sstore(smem, hoff, halo_vals, vector=n,
                            site="sm.store_row_halo")

        def load_window_row(warp, slot, dest_row):
            """Each thread reads its K+n-1 pixel slice as vector units."""
            off = slot * row_floats
            for u in range(window_units):
                vals = warp.sload(smem, off + (warp.lane + u) * n, vector=n,
                                  site="sm.load_window")
                regwin[warp.lane, dest_row, u * n:(u + 1) * n] = \
                    np.reshape(vals, (-1, n))

        # Line 1: stage the first K rows.
        for r in range(k):
            for warp in block.warps():
                vals, halo = load_row_from_gmem(warp, r)
                store_row_to_smem(warp, r % k, vals, halo)
        block.sync()

        # Line 3: the first K-1 rows into registers.
        for r in range(k - 1):
            for warp in block.warps():
                load_window_row(warp, r % k, r)

        for out_r in range(h):
            # Line 5: prefetch the next row (predicted off on the last
            # iteration, exactly like the real kernel's bounds check).
            next_row = out_r + k
            prefetched = {}
            if next_row < h + k - 1:
                for warp in block.warps():
                    prefetched[warp.warp_id] = load_row_from_gmem(warp, next_row)

            # Line 6: the latest staged row into the register window.
            for warp in block.warps():
                load_window_row(warp, (out_r + k - 1) % k, k - 1)

            # Lines 7-8: n convolutions per thread per filter.
            for f in range(f_count):
                for warp in block.warps():
                    acc = np.zeros((warp.lane.size, n), dtype=np.float32)
                    for dy in range(k):
                        for dx in range(k):
                            tap = warp.cload(c_flt, f * k * k + dy * k + dx,
                                             site="cm.filter_tap")
                            pix = np.stack(
                                [regwin[warp.lane, dy, dx + j] for j in range(n)],
                                axis=1,
                            )
                            acc = warp.fma(acc, pix, tap[:, np.newaxis])
                    out_base = f * oh * ow + (in_y0 + out_r) * ow + in_x0
                    warp.gstore(g_out, out_base + warp.lane * n, acc,
                                vector=n, site="gm.store_out")

            block.sync()
            # Line 10: the prefetched row replaces the oldest slot.
            if prefetched:
                for warp in block.warps():
                    vals, halo = prefetched[warp.warp_id]
                    store_row_to_smem(warp, out_r % k, vals, halo)
            block.sync()

            # Rotate the register window (pure register movement).
            regwin[:, : k - 1] = regwin[:, 1:]
