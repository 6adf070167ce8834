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
from dataclasses import dataclass

import numpy as np

from ._warn import warn

__all__ = [
    "MisalignmentState",
    "rotation_matrix",
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
            warn("orientation angle at or beyond 90 deg; link geometry is degenerate there")

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


def _rotate_rx(x, y, ca, sa, ce, se):
    """Project a point (x, y) of the tilted receiver plane into the
    reference frame, R_y(-psi_a) @ R_x(-psi_e) @ [x, y, 0], given the
    cosines and sines of psi_a and psi_e; returns the (u, v, w) triple."""
    return x * ca + y * sa * se, y * ce, x * sa - y * ca * se


def tx_normal(phi_a, phi_e) -> np.ndarray:
    """Unit normal of the transmitter (beam-axis direction toward +z'
    at zero tilt). Array angles give one normal per link: the result's
    first axis holds the three components."""
    ca, sa = np.cos(phi_a), np.sin(phi_a)
    ce, se = np.cos(phi_e), np.sin(phi_e)
    return np.array([-ce * sa, -se, ce * ca])


def rx_normal(psi_a: float, psi_e: float) -> np.ndarray:
    """Unit normal of the receiver surface."""
    ca, sa = math.cos(psi_a), math.sin(psi_a)
    ce, se = math.cos(psi_e), math.sin(psi_e)
    return np.array([-ce * sa, se, ce * ca])


def alignment_cosine(state: MisalignmentState) -> float:
    """Cosine of the angle between the beam axis and the receiver normal:
    cos(phi_e)cos(psi_e)cos(phi_a-psi_a) - sin(phi_e)sin(psi_e)."""
    return float(_cos_theta(state.phi_a, state.phi_e, state.psi_a, state.psi_e))


def _cos_theta(phi_a, phi_e, psi_a, psi_e):
    """:func:`alignment_cosine` of angles given as floats or arrays."""
    return np.cos(phi_e) * np.cos(psi_e) * np.cos(phi_a - psi_a) - np.sin(phi_e) * np.sin(psi_e)


def _link_constants(L, phi_a, phi_e, psi_a, psi_e):
    """Constants of the point kernel for each link: the transmitter normal
    (a, b, c), the on-axis distance L cos(phi_e) cos(phi_a), the receiver
    rotation (cos psi_a, sin psi_a, cos psi_e, sin psi_e) and, last, the
    alignment cosine. Arguments are floats or equal-length arrays, one
    value per link; :func:`gmm_point_frame` takes all but the last."""
    a, b, c = tx_normal(phi_a, phi_e)
    on_axis = L * np.cos(phi_e) * np.cos(phi_a)
    rotation = np.cos(psi_a), np.sin(psi_a), np.cos(psi_e), np.sin(psi_e)
    return a, b, c, on_axis, *rotation, _cos_theta(phi_a, phi_e, psi_a, psi_e)


def gmm_point_frame(x, y, L, x_de, y_de, a, b, c, on_axis, ca, sa, ce, se):
    """Map receiver-local points (x, y) of a link to (z, rho^2) in its beam
    frame; the link is given by its distance, displacement and
    :func:`_link_constants`, each a float or an array that broadcasts
    against ``x`` and ``y`` (one value per link). This is the point kernel
    of every exact gain; it is listed in ``__all__`` so that the
    benchmark's per-layer tracer (``perfbench/tracer.py``) times it.

    The point is projected to the reference frame, shifted against the
    transmitter displacement, and decomposed along / across the tilted beam
    axis: z is the distance from the waist to the transverse disk whose rim
    passes through the point, rho^2 the squared disk radius, clamped at zero.
    Points with z <= 0 lie behind the waist and must contribute zero
    intensity (caller's duty).
    """
    u, v, w = _rotate_rx(x, y, ca, sa, ce, se)
    up = u - x_de
    vp = v - y_de
    ell = -(a * up + b * vp + c * w)
    z = on_axis + ell
    # rho^2 = d^2 - z^2 with d the waist-to-point distance; evaluated as the
    # squared rejection of the waist-to-point vector from the beam axis,
    # which is the same quantity without the catastrophic cancellation
    rx_ = -up - z * a
    ry_ = -vp - z * b
    rz_ = (L - w) - z * c
    return z, np.maximum(rx_ * rx_ + ry_ * ry_ + rz_ * rz_, 0.0)


def array_element_xy(i, k: int, d_pd: float):
    """Center (x, y) of element ``i`` (1-based, row-major from the top-left)
    of a k-by-k lattice with pitch d_pd, centered at the origin. ``i`` may be
    an integer array of indices; x and y are then arrays of its shape."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not 0.0 < d_pd < math.inf:
        raise ValueError(f"d_pd must be finite and > 0, got {d_pd!r}")
    if np.min(i) < 1 or np.max(i) > k * k:
        raise ValueError(f"element index {i} outside 1..{k * k}")
    m = -(-i // k)  # ceil(i / k) in integers
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
