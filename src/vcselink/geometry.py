"""Link geometry: Euler rotations, tilted-plane normals and the point kernel
that maps a photodetector surface point to beam-frame coordinates.

Conventions
-----------
The reference frame x'y'z' has the receiver array centered at the origin on
the z'=0 plane and the transmitter waist on the +z' side at distance L.
Orientation errors are two-angle Euler rotations (azimuth about y', then
elevation about the rotated x'' axis). The transmitter elevation rotation
uses +phi_e while the receiver uses -psi_e; the asymmetry is part of the
model definition and is kept as-is.

All angles are radians. Degrees appear only at the CLI boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MisalignmentState",
    "GmmPointFrame",
    "rotation_matrix",
    "rx_point_to_ref",
    "tx_normal",
    "rx_normal",
    "alignment_cosine",
    "gmm_point_frame",
    "array_element_xy",
    "tx_element_pose",
    "rx_element_pose",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class MisalignmentState:
    """Radial displacement (x_de, y_de) of the transmitter relative to the
    receiver plus azimuth/elevation orientation errors of both ends.

    Angles at or beyond 90 degrees describe a link pointing away from the
    receiver half-space; they are accepted but flagged with a warning.
    Non-finite values are rejected.
    """

    x_de: float = 0.0
    y_de: float = 0.0
    phi_a: float = 0.0
    phi_e: float = 0.0
    psi_a: float = 0.0
    psi_e: float = 0.0

    def __post_init__(self) -> None:
        angles = (self.phi_a, self.phi_e, self.psi_a, self.psi_e)
        if not all(map(math.isfinite, (self.x_de, self.y_de, *angles))):
            raise ValueError(f"misalignment values must be finite, got {self}")
        if any(abs(a) >= _HALF_PI for a in angles):
            warnings.warn(
                "orientation angle at or beyond 90 deg; link geometry is "
                "degenerate there",
                stacklevel=3,
            )

    @property
    def is_aligned(self) -> bool:
        return all(
            v == 0.0
            for v in (self.x_de, self.y_de, self.phi_a, self.phi_e, self.psi_a, self.psi_e)
        )

    @property
    def is_axial(self) -> bool:
        """True when only displacement is present (no rotations)."""
        return self.phi_a == self.phi_e == self.psi_a == self.psi_e == 0.0


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """Rotation about the y' axis or the x'' axis.

    ``axis`` is "y" or "x". The matrices follow the clockwise Euler
    convention used throughout the geometry model.
    """
    c, s = math.cos(angle), math.sin(angle)
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def rx_point_to_ref(x, y, psi_a: float, psi_e: float):
    """Project a point (x, y) of the tilted receiver plane into the
    reference frame: R_y(-psi_a) @ R_x(-psi_e) @ [x, y, 0].

    Accepts scalars or broadcastable arrays; returns the (u, v, w) triple.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ca, sa = math.cos(psi_a), math.sin(psi_a)
    ce, se = math.cos(psi_e), math.sin(psi_e)
    u = x * ca + y * sa * se
    v = y * ce
    w = x * sa - y * ca * se
    return u, v, w


def tx_normal(phi_a: float, phi_e: float) -> np.ndarray:
    """Unit normal of the transmitter (beam-axis direction toward +z'
    at zero tilt)."""
    ca, sa = math.cos(phi_a), math.sin(phi_a)
    ce, se = math.cos(phi_e), math.sin(phi_e)
    return np.array([-ce * sa, -se, ce * ca])


def rx_normal(psi_a: float, psi_e: float) -> np.ndarray:
    """Unit normal of the receiver surface."""
    ca, sa = math.cos(psi_a), math.sin(psi_a)
    ce, se = math.cos(psi_e), math.sin(psi_e)
    return np.array([-ce * sa, se, ce * ca])


def alignment_cosine(state: MisalignmentState) -> float:
    """Cosine of the angle between the beam axis and the receiver normal:
    cos(phi_e)cos(psi_e)cos(phi_a-psi_a) - sin(phi_e)sin(psi_e)."""
    return math.cos(state.phi_e) * math.cos(state.psi_e) * math.cos(
        state.phi_a - state.psi_a
    ) - math.sin(state.phi_e) * math.sin(state.psi_e)


@dataclass(frozen=True)
class GmmPointFrame:
    """Beam-frame coordinates of one (or many) receiver-surface points.

    ``z_axial`` is the distance from the waist to the transverse disk whose
    rim passes through the point; ``rho_sq`` the squared disk radius, clamped
    at zero against floating-point cancellation. Points with z_axial <= 0 lie
    behind the waist and must contribute zero intensity (caller's duty).
    """

    z_axial: np.ndarray | float
    rho_sq: np.ndarray | float
    cos_theta: float


def _beam_frame(x, y, L, x_de, y_de, phi_a: float, phi_e: float, psi_a: float, psi_e: float):
    """(z, rho^2) of receiver-local points in the beam frame; ``L``, ``x_de``
    and ``y_de`` may be arrays that broadcast against ``x`` and ``y``, one
    value per link. See :func:`gmm_point_frame`."""
    u, v, w = rx_point_to_ref(x, y, psi_a, psi_e)
    a, b, c = tx_normal(phi_a, phi_e)
    up = u - x_de
    vp = v - y_de
    ell = -(a * up + b * vp + c * w)
    z = L * math.cos(phi_e) * math.cos(phi_a) + ell
    # rho^2 = d^2 - z^2 with d the waist-to-point distance; evaluated as the
    # squared rejection of the waist-to-point vector from the beam axis,
    # which is the same quantity without the catastrophic cancellation
    rx_ = -up - z * a
    ry_ = -vp - z * b
    rz_ = (L - w) - z * c
    return z, np.maximum(rx_ * rx_ + ry_ * ry_ + rz_ * rz_, 0.0)


def gmm_point_frame(x, y, L: float, state: MisalignmentState) -> GmmPointFrame:
    """Map receiver-local point(s) (x, y) to (z, rho^2) in the beam frame.

    Stepwise construction: the point is projected to the reference frame,
    shifted against the transmitter displacement, and decomposed along /
    across the tilted beam axis. z is the axial distance behind the waist
    and rho the perpendicular distance to the beam axis.
    """
    if L <= 0:
        raise ValueError("link distance must be > 0")
    z, rho_sq = _beam_frame(
        x, y, L, state.x_de, state.y_de, state.phi_a, state.phi_e, state.psi_a, state.psi_e
    )
    if np.ndim(z) == 0:
        z = float(z)
        rho_sq = float(rho_sq)
    return GmmPointFrame(z_axial=z, rho_sq=rho_sq, cos_theta=alignment_cosine(state))


def array_element_xy(i: int, k: int, d_pd: float) -> tuple[float, float]:
    """Center of element ``i`` (1-based, row-major from the top-left) of a
    k-by-k lattice with pitch d_pd, centered at the origin."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if d_pd <= 0:
        raise ValueError("d_pd must be > 0")
    if not 1 <= i <= k * k:
        raise ValueError(f"element index {i} outside 1..{k * k}")
    m = math.ceil(i / k)
    n = i - (m - 1) * k
    x = (-(k - 1) / 2.0 + n - 1) * d_pd
    y = ((k - 1) / 2.0 - m + 1) * d_pd
    return x, y


def _rotate_stack(mat: np.ndarray, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pts = np.stack(np.broadcast_arrays(x, y, np.zeros_like(x + y)), axis=-1)
    return pts @ mat.T


def tx_element_pose(x, y, state: MisalignmentState, L: float):
    """Reference-frame position of a transmitter element at local (x, y):
    rotate by (-phi_a about y', +phi_e about x''), then translate to
    (x_de, y_de, L)."""
    mat = rotation_matrix("y", -state.phi_a) @ rotation_matrix("x", state.phi_e)
    out = _rotate_stack(mat, x, y) + np.array([state.x_de, state.y_de, L])
    return out


def rx_element_pose(x, y, state: MisalignmentState):
    """Reference-frame position of a receiver element at local (x, y):
    rotate by (-psi_a about y', -psi_e about x''); no translation."""
    mat = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    return _rotate_stack(mat, x, y)
