"""repro — reproduction of "Optimizing Memory Efficiency for Convolution
Kernels on Kepler GPUs" (Chen, Chen, Chen & Hu, DAC 2017).

The package builds the paper's two memory-efficient direct-convolution
kernels — and every baseline it compares against — on top of a simulated
Kepler-class GPU substrate (:mod:`repro.gpu`): kernels execute
functionally (bit-exact results, verified against reference
convolution) and are costed by replaying their real warp address
patterns through bank-conflict / coalescing / broadcast models and an
analytical timing model.

Quick start::

    import numpy as np
    from repro import SpecialCaseKernel, ConvProblem

    kernel = SpecialCaseKernel()                  # Kepler K40m, matched
    image = np.random.rand(1024, 1024).astype(np.float32)
    sobel = np.array([[1, 0, -1], [2, 0, -2], [1, 0, -1]], np.float32)
    edges = kernel.run(image, sobel)              # exact convolution
    problem = ConvProblem.square(1024, 3, channels=1, filters=1)
    print(kernel.gflops(problem))                 # modeled performance

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.conv.tensors import ConvProblem, Layout, Padding
from repro.conv.reference import conv2d_reference, conv2d_single_channel
from repro.core.special import SpecialCaseKernel
from repro.core.general import GeneralCaseKernel
from repro.core.depthwise import DepthwiseKernel
from repro.core.config import (
    SpecialCaseConfig,
    GeneralCaseConfig,
    TABLE1_CONFIGS,
    BEST_SPECIAL_CONFIG,
)
from repro.core.bankwidth import (
    DataType,
    VectorSpec,
    matched_vector,
    mismatch_factor,
    smem_bandwidth_gain,
)
from repro.gpu.arch import (
    ARCHITECTURES,
    FERMI_M2090,
    GPUArchitecture,
    KEPLER_K40M,
    MAXWELL_GM204,
    PASCAL_P100,
)
from repro.gpu.timing import TimingModel
from repro.kernels import BackendRegistry, ConvBackend, default_registry
from repro.serve.engine import ServeEngine
from repro.serve.dispatch import Dispatcher
from repro.serve.plan_cache import PlanCache
from repro.serve.trace import synthetic_trace
from repro.obs import Registry, Tracer, instrument

__version__ = "1.9.0"

__all__ = [
    "ConvProblem",
    "Padding",
    "Layout",
    "conv2d_reference",
    "conv2d_single_channel",
    "SpecialCaseKernel",
    "GeneralCaseKernel",
    "DepthwiseKernel",
    "SpecialCaseConfig",
    "GeneralCaseConfig",
    "TABLE1_CONFIGS",
    "BEST_SPECIAL_CONFIG",
    "DataType",
    "VectorSpec",
    "matched_vector",
    "mismatch_factor",
    "smem_bandwidth_gain",
    "GPUArchitecture",
    "KEPLER_K40M",
    "FERMI_M2090",
    "MAXWELL_GM204",
    "PASCAL_P100",
    "ARCHITECTURES",
    "TimingModel",
    "ConvBackend",
    "BackendRegistry",
    "default_registry",
    "ServeEngine",
    "Dispatcher",
    "PlanCache",
    "synthetic_trace",
    "Registry",
    "Tracer",
    "instrument",
    "__version__",
]
