"""Monte-Carlo geometric verification of link gains.

Power is carried by a bundle of sample trajectories whose transverse
offsets reproduce the beam's Gaussian profile at every axial distance
(offset = nu * w(z) with nu drawn from the normalized profile). This is
the one trajectory model: it follows the exact hyperbolic envelope w(z),
so it holds inside the Rayleigh range as well as far beyond it. A
trajectory scores when its crossing of the detector plane falls inside the
detector disk; the hit fraction estimates the captured power fraction
independently of the disk quadrature route.

Rays are drawn, solved and scored in blocks. Several links can share one
seed's draws (``_ray_gains``): each block is drawn once and scored for every
link, and each link's estimate is the one ``ray_gain_mc`` gives it alone.

Most rays cannot reach the detector. Before the Newton solve, a link drops
every ray whose normalized offset nu lies outside a disk in nu-space
(``_keep_disk``): a ray that scores meets the detector plane within the
detector radius plus the residual tolerance of the detector centre, which
bounds its axial distance, hence w, hence nu. The bound carries a relative
margin of 1e-6 and an absolute one of 1e-12 times the waist's distance from
the detector, which cover the rounding of the scored quantities, so the
dropped rays are misses of the full solve as well, and the hit counts are
those of solving every ray.

Most kept rays cannot miss. Inside a smaller disk (``_hit_disk``) a ray
meets the detector plane at a point of the detector, and the Newton solve
and scoring provably say so too, so those rays count as hits unsolved; only
the rest of the kept rays are solved and scored. On the ``gmm-verify``
preset the certain-miss disk keeps about 16% of the drawn rays, and the
certain-hit disk certifies about three quarters of those (27.7 M of 36.8 M
kept rays over seeds 0-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .beam import BeamParams
from .channel import PdGeometry, _check_link_distance
from .geometry import MisalignmentState, alignment_cosine, rotation_matrix, rx_normal, tx_normal

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
    has either stopped moving or repeats its value of two steps before, and
    then keeps the iterate whose parity matches the last step: the result
    is the full solve's bit for bit.
    """
    zeta = np.full(len(proj), -base / slope)
    before = None
    for step in range(1, _NEWTON_STEPS + 1):
        w_z = w0 * np.sqrt(1.0 + (zeta / zr) ** 2)
        g = base + zeta * slope + w_z * proj
        g_prime = slope + (w0 * w0 * zeta / (zr * zr * w_z)) * proj
        after = zeta - g / g_prime
        # a ray at a fixed point never moves again, and one in a 2-cycle
        # repeats its value of two steps before; NaN never compares equal,
        # so a block with a NaN ray runs every step
        settled = after == zeta
        if before is not None:
            settled |= after == before
        if settled.all():
            return after if (_NEWTON_STEPS - step) % 2 == 0 else zeta
        before, zeta = zeta, after
    return zeta


def _frame(state: MisalignmentState, L: float):
    """Projections that place a trajectory of ``state`` in the receiver
    frame, or None for a link facing away: an alignment cosine <= 0, the
    links whose exact gain is 0 without integration.

    The first three rows project (waist, direction, e1, e2) onto the
    receiver normal and the two in-plane axes; the last holds the waist's
    coordinates along (direction, e1, e2)."""
    if alignment_cosine(state) <= 0.0:
        return None
    n_t = tx_normal(state.phi_a, state.phi_e)
    n_r = rx_normal(state.psi_a, state.psi_e)
    waist = np.array([state.x_de, state.y_de, L])
    direction = -n_t  # propagation sense, toward the receiver plane
    e1, e2 = _transverse_basis(n_t)
    # a trajectory meets the detector plane at waist + t*direction + s1*e1
    # + s2*e2 for per-ray scalars (t, s1, s2), so its coordinates along the
    # receiver normal and the two in-plane axes (u, v) need only the
    # projections of these four vectors
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    rows = [
        [float(x @ axis) for x in (waist, direction, e1, e2)]
        for axis in (n_r, m_r[:, 0], m_r[:, 1])
    ]
    return [*rows, [float(waist @ axis) for axis in (direction, e1, e2)]]


def _keep_disk(waist, beam: BeamParams, reach: float):
    """``(m1, m2, limit)``: a ray ``nu`` can score only if
    ``(nu1 - m1)**2 + (nu2 - m2)**2 <= limit``; None if no ray can.

    ``waist`` is the waist point W in the beam frame (along d, e1, e2) and
    ``reach`` is r + tol, the detector radius plus the residual tolerance.
    The detector centre is the frame's origin, at axial distance
    t_c = -W.d and transverse offset c = (-W.e1, -W.e2). A scored hit
    Q = W + t*d + w(t)*(nu1*e1 + nu2*e2) has |Q.n_r| <= tol and
    u**2 + v**2 <= r**2, so |Q| <= R. Its parts along d and across it give
    t > 0, |t - t_c| <= R and |w(t)*nu - c| <= R, so w(t) lies in
    [w_lo, w_hi] = [w(max(t_c - R, 0)), w(t_c + R)]. With s = 1/w,
    |nu - s*c| <= s*R, and s*c lies within |c|*(s_hi - s_lo)/2 of s_m*c,
    s_m = (s_lo + s_hi)/2: nu lies in the disk about s_m*c of radius
    s_hi*R + |c|*(s_hi - s_lo)/2.

    R = reach*(1 + 1e-6) + 1e-12*|W|, and the disk's radius gets another
    factor 1 + 1e-6. The scored quantities are rounded: terms of size R by
    a few ulps, which the relative margin covers, and the terms of size up
    to |W| (the waist, t and w*nu of a hit) by a few ulps of |W|, which
    the absolute one covers. w is evaluated as w0*hypot(1, t/zr), which
    cannot overflow in Python floats at any finite t.
    """
    w_d, w_1, w_2 = waist
    t_c, c1, c2 = -w_d, -w_1, -w_2
    bound = reach * (1.0 + 1e-6) + 1e-12 * math.hypot(*waist)
    if t_c + bound <= 0.0:
        return None
    w0, zr = beam.waist_radius, beam.rayleigh_range
    s_hi = 1.0 / (w0 * math.hypot(1.0, max(t_c - bound, 0.0) / zr))
    s_lo = 1.0 / (w0 * math.hypot(1.0, (t_c + bound) / zr))
    s_m = 0.5 * (s_lo + s_hi)
    radius = (s_hi * bound + math.hypot(c1, c2) * 0.5 * (s_hi - s_lo)) * (1.0 + 1e-6)
    return s_m * c1, s_m * c2, radius * radius


def _residual_tol(frame, r: float) -> float:
    """Largest plane residual of a scored crossing: 1e-9 times the
    waist's distance from the detector plane plus the detector radius."""
    return 1e-9 * (abs(frame[0][0]) + r)


def _hit_disk(frame, beam: BeamParams, r: float):
    """``(h1, h2, limit)``: a ray ``nu`` with ``(nu1 - h1)**2 + (nu2 -
    h2)**2 <= limit`` is scored a hit by the full solve; None if the bound
    below certifies no ray of the link.

    *Geometry.* In the beam frame of :func:`_keep_disk` (waist W, detector
    centre at axial distance t_c = -W.d and offset c = (-W.e1, -W.e2)) a ray
    sits at Q(t) = (t - t_c, w(t)*nu - c) from the centre. With cos(theta)
    = |slope| between beam and receiver normal, let rho = r*cos(theta)*(1 -
    1e-6) - 1e-12*|W| and Delta = rho*tan(theta)*(1 + 1e-6), and require
    rho > 0 and t_c - Delta > 0. Over I = [t_c - Delta, t_c + Delta], s =
    1/w(t) lies in [s_lo, s_hi] = [1/w(t_c + Delta), 1/w(t_c - Delta)], so
    a ray with |nu - s_m*c| <= rho*s_lo - |c|*(s_hi - s_lo)/2, s_m = (s_lo +
    s_hi)/2, has |w(t)*nu - c| <= rho for every t in I. On the plane, the
    crossing obeys |t - t_c|*cos(theta) <= |w(t)*nu - c|*sin(theta), and
    at both ends of I the plane function has opposite signs, so the
    crossing lies in I. There |Q|**2 = (t - t_c)**2 + |w(t)*nu - c|**2 <=
    rho**2/cos(theta)**2 < (r*(1 - 1e-6))**2: a hit. The radius carries
    another factor 1 - 1e-6 and rho the absolute 1e-12*|W|, which cover
    the rounding of the disk's test and of its centre, as in
    :func:`_keep_disk`.

    *The computed solve.* ``_crossing`` solves F(t) = base + t*slope +
    w(t)*proj = 0, with |proj| <= P = |nu|max*sin(theta) for the disk's
    largest |nu|. Since |w'| < w0/z_R, F' lies within (w0/z_R)*P of slope;
    the link must have m = cos(theta) - (w0/z_R)*P >= cos(theta)/2, so F is
    monotone with one root t*. F'' = w''*proj keeps its sign, so the Newton
    iterates from the axis crossing t0 = -base/slope stay between t0, its
    first step and t*, all within E = w(t0)*P/m of t0. On J = [t0 - E, t0
    + E], with t0 - E > 0, |F''| <= M = w''(t0 - E)*P; the link must have
    M*E <= m, so the error e_k of step k obeys e_k <= E*2**(1 - 2**k),
    below 2e-19*E by step 6 of the 8. Every term of F, and of the scored u
    and v, is at most S = |W| + (t0 + E) + w(t0 + E)*|nu|max in size, so
    rounding keeps each computed iterate, and the ray's point on the plane,
    within about 40*eps*S*g/cos(theta) of the exact ones, with g = 1 +
    (w0/z_R)*|nu|max. The link must have t0 - E, tol and r*1e-6 all above
    slack = 1e-13*S*g/cos(theta), twenty times that: then t > 0, the
    residual is at most tol, and u**2 + v**2 <= r**2 as computed. A link
    that fails any of these conditions gets no disk, and all its kept rays
    are solved.
    """
    (base, slope, a1, a2), _, _, waist = frame
    cos, sin = abs(slope), math.hypot(a1, a2)
    size = math.hypot(*waist)
    rho = r * cos * (1.0 - 1e-6) - 1e-12 * size
    if not rho > 0.0:
        return None
    t_c, c1, c2 = -waist[0], -waist[1], -waist[2]
    delta = rho * sin / cos * (1.0 + 1e-6)
    if not t_c - delta > 0.0:
        return None
    w0, zr = beam.waist_radius, beam.rayleigh_range
    s_hi = 1.0 / (w0 * math.hypot(1.0, (t_c - delta) / zr))
    s_lo = 1.0 / (w0 * math.hypot(1.0, (t_c + delta) / zr))
    s_m = 0.5 * (s_lo + s_hi)
    c = math.hypot(c1, c2)
    radius = (rho * s_lo - c * 0.5 * (s_hi - s_lo)) * (1.0 - 1e-6)
    if not radius > 0.0:
        return None
    nu_max = s_m * c + radius
    proj_max = nu_max * sin  # P
    m = cos - w0 / zr * proj_max
    if not 2.0 * m >= cos:
        return None
    t0 = -base / slope
    spread = w0 * math.hypot(1.0, t0 / zr) * proj_max / m  # E
    lo, hi = t0 - spread, t0 + spread
    lo_h = math.hypot(1.0, lo / zr)
    curvature = w0 / zr / zr / (lo_h * lo_h * lo_h) * proj_max  # M = w''(t0 - E)*P
    scale = size + hi + w0 * math.hypot(1.0, hi / zr) * nu_max  # S
    slack = 1e-13 * scale * (1.0 + w0 / zr * nu_max) / cos
    if not (lo > slack and curvature * spread <= m
            and slack <= min(_residual_tol(frame, r), 1e-6 * r)):
        return None
    return s_m * c1, s_m * c2, radius * radius


def _ray_gains(links, L: float, pd: PdGeometry, spec: RayBundleSpec) -> list[tuple[float, float]]:
    """``(gain, std_error)`` of each ``(beam, state)`` link, every link scored
    on the same ray draws of ``spec``.

    Each block of rays is drawn once for all links. A link keeps only the
    rays inside its certain-miss disk (``_keep_disk`` derives the bound and
    its margins), counts the kept rays inside its certain-hit disk
    (``_hit_disk``) as hits, and solves and scores the rest; a block in
    which it keeps none costs it one mask, and one whose kept rays are all
    certain hits solves nothing. Its hits are those of solving every ray:
    each solved ray goes through the same elementwise arithmetic as in a
    full-block pass, and ``_crossing`` returns each ray's full Newton solve
    whatever rays share its block. So each result equals the one-link
    ``ray_gain_mc`` bit for bit.
    """
    _check_link_distance(L)
    plans = []
    for index, (beam, state) in enumerate(links):
        frame = _frame(state, L)
        if frame is None:  # facing away: scores no ray
            continue
        tol = _residual_tol(frame, pd.radius)
        disk = _keep_disk(frame[3], beam, pd.radius + tol)
        if disk is not None:
            plans.append((index, beam, frame, tol, disk, _hit_disk(frame, beam, pd.radius)))
    if not plans:
        return [(0.0, 0.0)] * len(links)

    hits = [0] * len(links)
    rng = np.random.default_rng(spec.seed)
    with np.errstate(all="ignore"):
        # consecutive blocks of draws reproduce one (ray_count, 2) draw
        for start in range(0, spec.ray_count, _CHUNK):
            size = min(_CHUNK, spec.ray_count - start)
            # contiguous rows: every link masks the block and gathers from it
            nu1, nu2 = rng.normal(0.0, 0.5, size=(size, 2)).T.copy()
            for index, beam, frame, tol, (m1, m2, limit), hit in plans:
                keep = np.flatnonzero((nu1 - m1) ** 2 + (nu2 - m2) ** 2 <= limit)
                if not keep.size:
                    continue
                n1, n2 = nu1[keep], nu2[keep]
                if hit is not None:  # certain hits count unsolved
                    h1, h2, hit_limit = hit
                    certain = (n1 - h1) ** 2 + (n2 - h2) ** 2 <= hit_limit
                    count = np.count_nonzero(certain)
                    hits[index] += count
                    if count == keep.size:
                        continue
                    if count:
                        rest = ~certain
                        n1, n2 = n1[rest], n2[rest]
                (base, slope, a1, a2), (u_w, u_d, u_1, u_2), (v_w, v_d, v_1, v_2), _ = frame
                w0, zr = beam.waist_radius, beam.rayleigh_range
                proj = n1 * a1 + n2 * a2
                t = _crossing(proj, base, slope, w0, zr)
                w_z = w0 * np.sqrt(1.0 + (t / zr) ** 2)
                residual = np.abs(base + t * slope + w_z * proj)
                # grazing rays that failed to converge (NaN residual) miss
                ok = (t > 0.0) & (residual <= tol)
                s1, s2 = w_z * n1, w_z * n2
                u = u_w + t * u_d + s1 * u_1 + s2 * u_2
                v = v_w + t * v_d + s1 * v_1 + s2 * v_2
                hits[index] += np.count_nonzero(ok & (u**2 + v**2 <= pd.radius**2))

    results = []
    for count in hits:
        p_hat = float(count) / spec.ray_count
        results.append((p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / spec.ray_count)))
    return results


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
    return _ray_gains([(beam, state)], L, pd, spec or RayBundleSpec())[0]
