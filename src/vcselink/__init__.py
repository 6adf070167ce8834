"""Link-level simulator for indoor Tb/s MIMO optical wireless backhaul
built on VCSEL arrays: Gaussian-beam misalignment gains, MIMO SINR/rate
analysis and reproduction experiments."""

__version__ = "0.1.0"

import numpy as np

from .beam import (
    BeamParams,
    beam_radius,
    curvature_radius,
    divergence_half_angle,
    intensity,
    rayleigh_range,
    waist_for_spot,
)
from .channel import (
    ArrayLayout,
    GainMethod,
    LayoutKind,
    PdGeometry,
    build_layout,
    gain_aligned,
    gain_approx_displacement,
    gain_approx_tx_tilt,
    gain_gmm,
    mimo_matrix,
    write_gains_csv,
)
from .geometry import (
    MisalignmentState,
    alignment_cosine,
    array_element_xy,
    rotation_matrix,
    rx_element_pose,
    rx_normal,
    tx_element_pose,
    tx_normal,
)
from .linkbudget import (
    LinkParams,
    Mode,
    RateReport,
    aggregate_rate,
    bits_per_symbol,
    electrical_signal_power,
    eye_safe_power_limit,
    nmse,
    noise_variance,
    sinr_direct,
    sinr_gap,
    sinr_svd,
    svd_thin,
    write_rates_csv,
)
from .oracle import RayBundleSpec, ray_gain_mc
from .quadrature import DiskQuadratureError, integrate_disk, integrate_disk_mc
from .scenario import ConfigError, Scenario, build_scenario, load_config, run_scenario

# glibc's malloc serves each block above its mmap threshold (128 KiB at
# start) with a fresh mmap, so every large numpy temporary of the quadrature,
# the sweeps and the sampler faults its pages in anew. Freeing one untouched
# 16 MiB block raises the threshold to its size, and those temporaries are
# then reused from the heap. Without it the exact-tilt benchmark's configs
# took 1.6x as long in-process, with 0.5 M page faults per four rounds
# against 1 k. Other allocators ignore it.
np.empty(1 << 21)

__all__ = [
    "__version__",
    "BeamParams",
    "beam_radius",
    "curvature_radius",
    "divergence_half_angle",
    "intensity",
    "rayleigh_range",
    "waist_for_spot",
    "ArrayLayout",
    "GainMethod",
    "LayoutKind",
    "PdGeometry",
    "build_layout",
    "gain_aligned",
    "gain_approx_displacement",
    "gain_approx_tx_tilt",
    "gain_gmm",
    "mimo_matrix",
    "write_gains_csv",
    "MisalignmentState",
    "alignment_cosine",
    "array_element_xy",
    "rotation_matrix",
    "rx_element_pose",
    "rx_normal",
    "tx_element_pose",
    "tx_normal",
    "LinkParams",
    "Mode",
    "RateReport",
    "aggregate_rate",
    "bits_per_symbol",
    "electrical_signal_power",
    "eye_safe_power_limit",
    "nmse",
    "noise_variance",
    "sinr_direct",
    "sinr_gap",
    "sinr_svd",
    "svd_thin",
    "write_rates_csv",
    "RayBundleSpec",
    "ray_gain_mc",
    "DiskQuadratureError",
    "integrate_disk",
    "integrate_disk_mc",
    "ConfigError",
    "Scenario",
    "build_scenario",
    "load_config",
    "run_scenario",
]
