"""Algorithm 2 executed instruction-by-instruction on the SIMT
interpreter — the audit twin of
:class:`~repro.core.general.GeneralCaseKernel`.

The executed program reproduces the full Fig. 6 dataflow: cooperative
staging of ``C_SH`` channels of image blocks and transposed+padded
filters into shared memory, the ``TX x TY`` thread grid with the filter
dimension fastest, per-thread ``W_T + K - 1`` register rows feeding
``K`` FMA rounds, the vectorized conflict-free operand reads, and the
uncoalesced writeback.  Every access is observed by the memory models.

The analytic cost model makes two sampling simplifications the executed
trace does not: it prices the strided filter loads with four alignment
variants, and it allows fractional warp-request counts for cooperative
staging.  The audit therefore checks compute/barrier counters exactly
and the traffic counters within a tolerance band
(``tests/gpu/test_interpreter_audit_general.py``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.conv.tensors import ConvProblem
from repro.core.bankwidth import matched_vector
from repro.core.config import GeneralCaseConfig
from repro.errors import ConfigurationError, ShapeError
from repro.gpu.arch import GPUArchitecture, KEPLER_K40M
from repro.gpu.device import DeviceExecutor
from repro.gpu.memory.banks import BankConflictPolicy
from repro.gpu.simt import Dim3
from repro.gpu.trace import KernelCost

__all__ = ["InterpretedGeneralKernel"]


class InterpretedGeneralKernel:
    """Executable Algorithm 2 with a fully observed memory trace."""

    def __init__(
        self,
        arch: GPUArchitecture = KEPLER_K40M,
        config: GeneralCaseConfig = GeneralCaseConfig(
            w=32, h=4, ftb=16, wt=16, ft=4, csh=2),
        matched: bool = True,
        bank_policy: BankConflictPolicy = BankConflictPolicy.WORD_MERGE,
    ):
        self.arch = arch
        self.config = config
        self.bank_policy = bank_policy
        self.n = matched_vector(arch).n if matched else 1
        self.name = "general-interpreted[%s,n=%d]" % (arch.name, self.n)

    # ------------------------------------------------------------------
    def run_traced(
        self, image: np.ndarray, filters: np.ndarray
    ) -> Tuple[np.ndarray, KernelCost]:
        img = np.asarray(image, dtype=np.float32)
        flt = np.asarray(filters, dtype=np.float32)
        if img.ndim != 3:
            raise ShapeError("image must be (C, H, W)")
        if flt.ndim != 4 or flt.shape[1] != img.shape[0]:
            raise ShapeError("filters must be (F, C, K, K) matching the image")
        k = flt.shape[2]
        if flt.shape[3] != k:
            raise ShapeError("filters must be square")

        cfg = self.config
        n = self.n
        cfg.validate(k, n, self.arch.warp_size)

        c_total, f_total = img.shape[0], flt.shape[0]
        problem = ConvProblem(
            height=img.shape[1], width=img.shape[2], channels=c_total,
            filters=f_total, kernel_size=k,
        )
        oh, ow = problem.out_height, problem.out_width
        if oh % cfg.h or ow % cfg.w:
            raise ConfigurationError(
                "the audit kernel needs the %dx%d output to tile the "
                "%dx%d block exactly" % (oh, ow, cfg.h, cfg.w))
        if f_total % cfg.ftb or c_total % cfg.csh:
            raise ConfigurationError(
                "the audit kernel needs F %% FTB == 0 and C %% CSH == 0")

        ex = DeviceExecutor(self.arch, self.bank_policy)
        g_img = ex.alloc_global(img, "image")
        g_flt = ex.alloc_global(flt, "filters")
        g_out = ex.alloc_global(np.zeros(f_total * oh * ow, np.float32), "out")

        blocks_y = oh // cfg.h
        blocks_x = ow // cfg.w
        fgroups = f_total // cfg.ftb
        for fg in range(fgroups):
            for by in range(blocks_y):
                for bx in range(blocks_x):
                    ex.run_block(
                        self._block_program, (bx, by), cfg.threads,
                        g_img, g_flt, g_out,
                        bx * cfg.w, by * cfg.h, fg,
                        problem, k,
                    )

        cost = ex.finish(
            name=self.name,
            registers_per_thread=cfg.registers_per_thread(k, n),
            grid=Dim3(x=fgroups, y=blocks_y * blocks_x),
            software_prefetch=True,
            block=Dim3(x=cfg.tx, y=cfg.ty),
        )
        return g_out.data.reshape(f_total, oh, ow), cost

    # ------------------------------------------------------------------
    def _block_program(self, block, g_img, g_flt, g_out,
                       in_x0, in_y0, fg, problem, k):
        cfg = self.config
        n = self.n
        h, w = cfg.h, cfg.w
        img_h, img_w = problem.height, problem.width
        oh, ow = problem.out_height, problem.out_width
        c_total = problem.channels
        row_floats = w + k - 1
        img_rows = h + k - 1
        pad = cfg.smem_filter_pad(n)
        flt_row = cfg.ftb + pad
        taps = k * k

        sh_img = block.shared(cfg.csh * img_rows * row_floats, "shImg")
        sh_flt = block.shared(cfg.csh * taps * flt_row, "shFlt")

        threads = cfg.threads
        tx_of = np.arange(threads) % cfg.tx
        ty_of = np.arange(threads) // cfg.tx
        rows_of_ty = (np.arange(cfg.ty) * cfg.wt) // w
        cols_of_ty = (np.arange(cfg.ty) * cfg.wt) % w

        racc = np.zeros((threads, cfg.ft, cfg.wt), dtype=np.float32)

        def stage_image_chunk(c_lo):
            """Cooperative load of CSH channels of the image block."""
            units_per_row = math.ceil(row_floats / n)
            for ci in range(cfg.csh):
                c = c_lo + ci
                for r in range(img_rows):
                    gbase = c * img_h * img_w + (in_y0 + r) * img_w + in_x0
                    sbase = (ci * img_rows + r) * row_floats
                    done = 0
                    for warp in block.warps():
                        while done < units_per_row:
                            take = min(32, units_per_row - done)
                            lanes = np.arange(done, done + take)
                            vals = warp.gload(g_img, gbase + lanes * n,
                                              vector=n, site="gm.load_image")
                            warp.sstore(sh_img, sbase + lanes * n, vals,
                                        vector=n, site="sm.store_image")
                            done += take
                        break  # one warp streams the row; others next row

        def stage_filter_chunk(c_lo):
            """Load FTB filters' CSH*K*K values; store transposed+padded."""
            run = cfg.csh * taps
            stage = np.empty((cfg.ftb, run), dtype=np.float32)
            for warp in block.warps():
                for f_local in range(cfg.ftb):
                    f = fg * cfg.ftb + f_local
                    gbase = (f * c_total + c_lo) * taps
                    done = 0
                    while done < run:
                        take = min(32, run - done)
                        idx = gbase + np.arange(done, done + take)
                        stage[f_local, done:done + take] = warp.gload(
                            g_flt, idx, site="gm.load_filter")
                        done += take
                break
            # Transposed store: lane l covers (tap t, filter f), f fastest.
            total = cfg.ftb * run
            done = 0
            for warp in block.warps():
                while done < total:
                    take = min(32, total - done)
                    l = np.arange(done, done + take)
                    t_idx = l // cfg.ftb
                    f_idx = l % cfg.ftb
                    addr = t_idx * flt_row + f_idx
                    warp.sstore(sh_flt, addr, stage[f_idx, t_idx],
                                site="sm.store_filter")
                    done += take
                break

        first = True
        for c_lo in range(0, c_total, cfg.csh):
            stage_image_chunk(c_lo)
            stage_filter_chunk(c_lo)
            block.sync()
            if first:
                block.sync()   # Algorithm 2 line 6 (initial extra barrier)
                first = False

            for ci in range(cfg.csh):
                for j in range(k):
                    # Line 12: each thread's WT+K-1 register row.
                    rimg = np.zeros((threads, cfg.wt + k - 1), dtype=np.float32)
                    u_img = math.ceil((cfg.wt + k - 1) / n)
                    for warp in block.warps():
                        base = (
                            ci * (h + k - 1)
                            + rows_of_ty[ty_of[warp.lane]] + j
                        ) * row_floats + cols_of_ty[ty_of[warp.lane]]
                        for u in range(u_img):
                            # The tail unit is clamped back to stay in
                            # range (an overlapping aligned vector load);
                            # never below 0, which would mis-slice the
                            # register row when the row is narrower than
                            # one vector unit.
                            off = max(0, min(u * n, cfg.wt + k - 1 - n))
                            vals = warp.sload(sh_img, base + off, vector=n,
                                              site="sm.load_image_row")
                            rimg[warp.lane, off:off + n] = \
                                np.reshape(vals, (-1, n))
                    for kk in range(k):
                        # Line 14: FT filter values, vectorized.
                        rflt = np.zeros((threads, cfg.ft), dtype=np.float32)
                        u_flt = max(1, cfg.ft // n)
                        for warp in block.warps():
                            base = (ci * taps + j * k + kk) * flt_row \
                                + tx_of[warp.lane] * cfg.ft
                            for u in range(u_flt):
                                vals = warp.sload(sh_flt, base + u * n,
                                                  vector=n,
                                                  site="sm.load_filter_row")
                                rflt[warp.lane, u * n:(u + 1) * n] = \
                                    np.reshape(vals, (-1, n))
                        # Line 15: the FMA round.
                        for warp in block.warps():
                            window = rimg[warp.lane][:, kk:kk + cfg.wt]
                            racc[warp.lane] = warp.fma(
                                racc[warp.lane],
                                rflt[warp.lane][:, :, np.newaxis],
                                window[:, np.newaxis, :],
                            )
            block.sync()

        block.sync()           # drain the last prefetch stage (line 19)

        # Line 20: uncoalesced writeback (wide units along WT).
        wide_bytes = 16 if (cfg.wt * 4) % 16 == 0 else n * 4
        wide = wide_bytes // 4
        u_out = math.ceil(cfg.wt / wide)
        for ff in range(cfg.ft):
            for warp in block.warps():
                f_global = fg * cfg.ftb + tx_of[warp.lane] * cfg.ft + ff
                row = rows_of_ty[ty_of[warp.lane]]
                col = cols_of_ty[ty_of[warp.lane]]
                base = f_global * oh * ow + (in_y0 + row) * ow + in_x0 + col
                for u in range(u_out):
                    warp.gstore(
                        g_out, base + u * wide,
                        racc[warp.lane, ff, u * wide:(u + 1) * wide],
                        vector=wide, site="gm.store_out",
                    )
