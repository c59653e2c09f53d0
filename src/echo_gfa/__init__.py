"""Generalized fidelity amplitude of a chaotic environment coupled to a far bath.

The near environment is a random-matrix Hamiltonian probed by a Loschmidt
echo; the far environment enters as an isotropic damping of the echo
operator's quasi-density matrix.  The package samples ensembles, integrates
the (non-trace-preserving) echo master equation, and solves the Volterra
integral equation that predicts the ensemble-averaged damped amplitude from
the undamped one.
"""

__version__ = "0.1.0"

from .curves import FidelityCurve, TimeGrid
from .echo import (
    EchoOperator,
    EchoSetup,
    Spectral,
    fidelity_curve,
    kernel_curve,
    propagator,
)
from .harness import (
    ExperimentConfig,
    GeneralConfig,
    RunReport,
    batch_statistics,
    difference_curve,
    run_ensemble,
    run_general,
    theory_pipeline,
)
from .master import (
    CorrelationKernel,
    EchoGenerator,
    PropagationError,
    QuasiDensity,
    Trajectory,
    gamma_operator,
    general_generator,
    propagate,
    rmt_generator,
    trace_curve,
)
from .rmt import (
    EnsembleConfig,
    Realization,
    build_realization,
    sample_gaussian,
    stream,
    unfolded_spectrum,
)
from .volterra import (
    StepSizeError,
    VolterraProblem,
    convolve,
    first_order,
    generalized_fidelity,
    solve,
    solve_many,
)

__all__ = [
    "FidelityCurve",
    "TimeGrid",
    "EchoOperator",
    "EchoSetup",
    "Spectral",
    "fidelity_curve",
    "kernel_curve",
    "propagator",
    "ExperimentConfig",
    "GeneralConfig",
    "RunReport",
    "batch_statistics",
    "difference_curve",
    "run_ensemble",
    "run_general",
    "theory_pipeline",
    "CorrelationKernel",
    "EchoGenerator",
    "PropagationError",
    "QuasiDensity",
    "Trajectory",
    "gamma_operator",
    "general_generator",
    "propagate",
    "rmt_generator",
    "trace_curve",
    "EnsembleConfig",
    "Realization",
    "build_realization",
    "sample_gaussian",
    "stream",
    "unfolded_spectrum",
    "StepSizeError",
    "VolterraProblem",
    "convolve",
    "first_order",
    "generalized_fidelity",
    "solve",
    "solve_many",
    "__version__",
]
