"""Monte-Carlo geometric verification of link gains.

Power is carried by a bundle of sample trajectories whose transverse
offsets reproduce the beam's Gaussian profile at every axial distance
(offset = nu * w(z) with nu drawn from the normalized profile). This is
the one trajectory model: it follows the exact hyperbolic envelope w(z),
so it holds inside the Rayleigh range as well as far beyond it. A
trajectory scores when its crossing of the detector plane falls inside the
detector disk; the hit fraction estimates the captured power fraction
independently of the disk quadrature route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .beam import BeamParams
from .channel import PdGeometry, _check_link_distance
from .geometry import MisalignmentState, rotation_matrix, rx_normal, tx_normal

__all__ = ["RayBundleSpec", "ray_gain_mc"]


@dataclass(frozen=True)
class RayBundleSpec:
    """Sampling control: ``ray_count`` trajectories drawn from the RNG
    seeded with ``seed``."""

    ray_count: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("ray_count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.ray_count < 10_000:
            raise ValueError("ray_count must be >= 10000")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# rays per block: the sampler draws, solves and scores one block at a time,
# so its arrays stay small and each block ends its Newton solve on its own
_CHUNK = 1 << 14
_NEWTON_STEPS = 8


def _transverse_basis(n_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.array([0.0, 1.0, 0.0]) if abs(n_t[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(ref, n_t)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(n_t, e1)


def _crossing(proj, base, slope, w0, zr):
    """Axial distance zeta at which each trajectory crosses the detector
    plane, base + zeta*slope + w(zeta)*proj = 0.

    The estimate is defined as _NEWTON_STEPS Newton steps from the beam-axis
    crossing. Most rays reach a fixed point within a few steps, but some end
    in a 2-cycle that moves zeta by 1 ulp (up to a quarter of the rays at a
    receiver tilt of 80 deg). So the solve stops early only once every ray
    repeats its value of two steps before, and then keeps the iterate whose
    parity matches the last step: the result is the full solve's bit for bit.
    """
    zeta = np.full(len(proj), -base / slope)
    before = None
    for step in range(1, _NEWTON_STEPS + 1):
        w_z = w0 * np.sqrt(1.0 + (zeta / zr) ** 2)
        g = base + zeta * slope + w_z * proj
        g_prime = slope + (w0 * w0 * zeta / (zr * zr * w_z)) * proj
        after = zeta - g / g_prime
        # NaN never compares equal, so a block with a NaN ray runs every step
        if before is not None and np.array_equal(after, before):
            return after if (_NEWTON_STEPS - step) % 2 == 0 else zeta
        before, zeta = zeta, after
    return zeta


def ray_gain_mc(
    beam: BeamParams,
    L: float,
    pd: PdGeometry,
    state: MisalignmentState,
    spec: RayBundleSpec | None = None,
) -> tuple[float, float]:
    """Estimate the link gain as a detector hit fraction.

    Returns ``(gain, std_error)`` with a binomial standard error; identical
    seeds give identical results.
    """
    _check_link_distance(L)
    spec = spec or RayBundleSpec()
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    if float(n_t @ n_r) <= 0.0:
        return 0.0, 0.0

    waist = np.array([state.x_de, state.y_de, L])
    direction = -n_t  # propagation sense, toward the receiver plane
    e1, e2 = _transverse_basis(n_t)
    # a trajectory meets the detector plane at waist + t*direction + s1*e1
    # + s2*e2 for per-ray scalars (t, s1, s2), so its coordinates along the
    # receiver normal and the two in-plane axes (u, v) need only the
    # projections of these four vectors
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    (base, slope, a1, a2), (u_w, u_d, u_1, u_2), (v_w, v_d, v_1, v_2) = (
        [float(x @ axis) for x in (waist, direction, e1, e2)]
        for axis in (n_r, m_r[:, 0], m_r[:, 1])
    )
    w0, zr = beam.waist_radius, beam.rayleigh_range
    tol = 1e-9 * (abs(base) + pd.radius)

    rng = np.random.default_rng(spec.seed)
    hits = 0
    with np.errstate(all="ignore"):
        # consecutive blocks of draws reproduce one (ray_count, 2) draw
        for start in range(0, spec.ray_count, _CHUNK):
            size = min(_CHUNK, spec.ray_count - start)
            nu1, nu2 = rng.normal(0.0, 0.5, size=(size, 2)).T
            proj = nu1 * a1 + nu2 * a2
            t = _crossing(proj, base, slope, w0, zr)
            w_z = w0 * np.sqrt(1.0 + (t / zr) ** 2)
            residual = np.abs(base + t * slope + w_z * proj)
            # grazing rays that failed to converge (NaN residual) miss
            ok = (t > 0.0) & (residual <= tol)
            s1, s2 = w_z * nu1, w_z * nu2
            u = u_w + t * u_d + s1 * u_1 + s2 * u_2
            v = v_w + t * v_d + s1 * v_1 + s2 * v_2
            hits += np.count_nonzero(ok & (u**2 + v**2 <= pd.radius**2))
    p_hat = float(hits) / spec.ray_count
    std_error = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / spec.ray_count)
    return p_hat, std_error
