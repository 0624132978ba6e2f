"""CNN training step: run a layer's forward pass, compute both
gradients, verify them against the adjoint identities, and model all
three passes on the paper's kernels.

The paper motivates its kernels with both CNN phases (Sec. 1) but
evaluates only the forward pass; this example closes the loop with the
operators in :mod:`repro.conv.gradients`.

Run:  python examples/cnn_training_step.py
"""

import dataclasses

import numpy as np

from repro import ConvProblem, GeneralCaseKernel, conv2d_reference
from repro.conv.gradients import (
    conv2d_input_gradient,
    conv2d_weight_gradient,
    input_gradient_problem,
    weight_gradient_problem,
)
from repro.core.config import SpecialCaseConfig
from repro.core.special import SpecialCaseKernel
from repro.gpu.simt import Dim3
from repro.gpu.timing import TimingModel


def numerically_verify(img, flt, g):
    """The adjoint identities every autograd engine relies on."""
    k = flt.shape[2]
    out = conv2d_reference(img, flt)
    dx = conv2d_input_gradient(g, flt)
    dw = conv2d_weight_gradient(img, g, k)
    inner = float(np.sum(g * out))
    via_dx = float(np.sum(dx * img))
    via_dw = float(np.sum(dw * flt))
    print("adjoint identities  <g, conv(x,W)> = %.6g" % inner)
    print("                    <dgrad(g,W),x> = %.6g" % via_dx)
    print("                    <wgrad(x,g),W> = %.6g" % via_dw)
    assert abs(inner - via_dx) < 1e-2 * abs(inner)
    assert abs(inner - via_dw) < 1e-2 * abs(inner)
    return dx, dw


def main():
    rng = np.random.default_rng(5)

    # A deep-layer shape (the regime where all three mappings apply).
    problem = ConvProblem.square(16, 3, channels=64, filters=32)
    img, flt = problem.random_instance(seed=5)
    g = rng.standard_normal(problem.output_shape).astype(np.float32)

    print("layer: %dx%d, C=%d, F=%d, K=%d\n"
          % (problem.height, problem.width, problem.channels,
             problem.filters, problem.kernel_size))
    numerically_verify(img, flt, g)

    general = GeneralCaseKernel(auto_config=True)

    t_fwd = general.predict(problem).total * 1e3
    t_dgrad = general.predict(input_gradient_problem(problem)).total * 1e3

    wg_problem = weight_gradient_problem(problem)
    wg_kernel = SpecialCaseKernel(config=SpecialCaseConfig(block_w=64, block_h=4))
    wg_cost = wg_kernel.cost(wg_problem)
    wg_cost.ledger.scale(problem.channels)     # batch channels in one launch
    wg_cost = dataclasses.replace(
        wg_cost,
        launch=dataclasses.replace(
            wg_cost.launch,
            grid=Dim3(wg_cost.launch.grid.x, wg_cost.launch.grid.y,
                      problem.channels),
        ),
    )
    t_wgrad = TimingModel(wg_kernel.arch).evaluate(wg_cost).total * 1e3

    print("\nmodeled pass times on the simulated K40m")
    print("  forward (general kernel)      : %7.3f ms" % t_fwd)
    print("  input grad (general kernel)   : %7.3f ms" % t_dgrad)
    print("  weight grad (special kernel,  : %7.3f ms" % t_wgrad)
    print("   one %dx%d 'filter' per map)" % (wg_problem.kernel_size,
                                              wg_problem.kernel_size))
    print("\n(the wgrad mapping is valid but inefficient — a dedicated "
          "wgrad\n decomposition is the first thing a production port "
          "would add)")


if __name__ == "__main__":
    main()
