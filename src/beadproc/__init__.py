"""Finite bead ensembles on line segments: exact kernels, samplers, and limits."""

from .hexagon import (
    BudgetExceededError,
    DiscreteHexagon,
    enumerate_configurations,
)
from .kernel import (
    KernelContext,
    expected_count,
    kernel_context,
    kernel_eval,
    kernel_matrix,
    line_density,
    npoint_correlation,
)
from .model import (
    HexagonSpec,
    InterlacingShapeError,
    interlacing_breaks,
    particles_per_line,
)
from .oracle import grid_points, oracle_deviation
from .sampler import RandomStream, sample_positions
from .scaling import (
    ScalingContext,
    boutillier_kernel,
    bulk_convergence_probe,
    bulk_kernel,
    gamma_parameter,
    global_density,
    region_parameters,
    scaling_context,
    support_interval,
    tail_integral_real,
)
from .stats import beta_cdf, ks_statistic

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DiscreteHexagon",
    "HexagonSpec",
    "InterlacingShapeError",
    "KernelContext",
    "RandomStream",
    "ScalingContext",
    "beta_cdf",
    "boutillier_kernel",
    "bulk_convergence_probe",
    "bulk_kernel",
    "enumerate_configurations",
    "expected_count",
    "gamma_parameter",
    "global_density",
    "grid_points",
    "interlacing_breaks",
    "kernel_context",
    "kernel_eval",
    "kernel_matrix",
    "ks_statistic",
    "line_density",
    "npoint_correlation",
    "oracle_deviation",
    "particles_per_line",
    "region_parameters",
    "sample_positions",
    "scaling_context",
    "support_interval",
    "tail_integral_real",
]
