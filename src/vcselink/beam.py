"""Gaussian beam propagation primitives.

Single-mode (TEM00) paraxial beam: Rayleigh range, spot radius, wavefront
curvature, far-field divergence and the transverse intensity profile. All
quantities are SI (meters, watts, radians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BeamParams",
    "rayleigh_range",
    "beam_radius",
    "spot_radius_sq",
    "curvature_radius",
    "divergence_half_angle",
    "intensity",
    "waist_for_spot",
]


def rayleigh_range(waist_radius: float, wavelength: float) -> float:
    """Distance over which the spot area doubles: pi*w0^2/lambda."""
    if not 0.0 < waist_radius < math.inf:
        raise ValueError(f"waist_radius must be finite and > 0, got {waist_radius}")
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength}")
    return math.pi * waist_radius * waist_radius / wavelength


@dataclass(frozen=True)
class BeamParams:
    """Gaussian source description.

    ``waist_radius`` is the effective waist after any collimating optics.
    ``rayleigh_range`` is derived from the other two fields and cannot be
    passed in.
    """

    wavelength: float
    waist_radius: float
    rayleigh_range: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rayleigh_range", rayleigh_range(self.waist_radius, self.wavelength)
        )


def spot_radius_sq(z, beam: BeamParams):
    """w(z)^2 without sign restrictions on z; even in z.

    Internal building block for the misalignment kernel, where the axial
    coordinate is computed per evaluation point and negative values are
    masked by the caller.
    """
    zn = np.asarray(z, dtype=float) / beam.rayleigh_range
    return beam.waist_radius**2 * (1.0 + zn * zn)


def beam_radius(z, beam: BeamParams):
    """Spot radius w(z) = w0*sqrt(1+(z/zR)^2) for z >= 0."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("beam_radius requires z >= 0")
    out = np.sqrt(spot_radius_sq(z, beam))
    return float(out) if out.ndim == 0 else out


def curvature_radius(z: float, beam: BeamParams) -> float:
    """Wavefront radius of curvature R(z) = z*(1+(zR/z)^2); z = 0 is rejected
    because the waist wavefront is planar (infinite radius)."""
    if z <= 0:
        raise ValueError("curvature_radius requires z > 0")
    ratio = beam.rayleigh_range / z
    return z * (1.0 + ratio * ratio)


def divergence_half_angle(beam: BeamParams) -> float:
    """Far-field divergence half-angle lambda/(pi*w0), in radians."""
    return beam.wavelength / (math.pi * beam.waist_radius)


def waist_for_spot(spot: float, z: float, wavelength: float) -> float:
    """Waist radius of the diverging branch whose spot equals ``spot`` at
    distance ``z``: the smaller root of w(z) = spot in w0."""
    if spot <= 0 or z <= 0 or wavelength <= 0:
        raise ValueError("spot, z and wavelength must be > 0")
    c = wavelength * z / math.pi
    disc = spot**4 - 4.0 * c * c
    if disc < 0:
        raise ValueError(f"no waist reaches spot {spot} at distance {z}")
    return math.sqrt((spot * spot - math.sqrt(disc)) / 2.0)


def intensity(z, rho_sq, power: float, beam: BeamParams):
    """Transverse irradiance at axial distance z and squared radial
    offset rho_sq from the beam axis: 2P/(pi w^2) * exp(-2 rho^2/w^2)."""
    w2 = spot_radius_sq(z, beam)
    out = 2.0 * power / (np.pi * w2) * np.exp(-2.0 * np.asarray(rho_sq, dtype=float) / w2)
    return float(out) if np.ndim(out) == 0 else out
