"""Monte-Carlo geometric verification of link gains.

Power is carried by a bundle of sample trajectories whose transverse
offsets reproduce the beam's Gaussian profile at every axial distance
(offset = nu * w(z) with nu drawn from the normalized profile). This is
the one trajectory model: it follows the exact hyperbolic envelope w(z),
so it holds inside the Rayleigh range as well as far beyond it. A
trajectory scores when its crossing of the detector plane falls inside the
detector disk; the hit fraction estimates the captured power fraction
independently of the disk quadrature route.

Rays are drawn and tested in blocks. Several links can share one seed's
draws (``_ray_gains``): each block is drawn once and tested for every
link, and each link's estimate is the one ``ray_gain_mc`` gives it alone.

Seen along the beam, a detector tilted by theta covers an ellipse with
semi-axes r and r*cos(theta), so the sampler decides rays with ellipses in
the space of normalized offsets nu, in the norm of the detector's plane
map G, which takes a crossing's offset across the beam to its point on
the detector. Both ellipses of a link share one centre m (``_ellipses``),
so one quadratic form q = ||nu - m||_G**2 decides a ray against both:
within the certain-hit limit a ray meets the detector plane at a point of
the detector, and the Newton solve and scoring provably say so too, so it
counts as a hit unsolved; beyond the certain-miss limit its axial
distance, hence w, hence nu, rules out a hit. A link first keeps
the rays in the certain-miss ellipse's circumscribed circle, one cheap
test per drawn ray, and computes q only for those. The few kept rays
between the two limits are queued per link, and solved and scored once a
block's worth is queued and once after the last block. Each limit carries
relative and absolute margins that cover the rounding of the scored
quantities, so the hit counts are those of solving every ray. A link
within 1e-6 of grazing gets limits that decide no ray, so it keeps,
queues and solves every ray in the same loop.

On the ``gmm-verify`` preset (seeds 0-2, 74.4 M drawn rays a round) the
circles keep 16.5% of the drawn rays, the certain-hit limits certify
83.1% of those, the certain-miss limits drop another 16.3%, and about
64 k rays a round (0.52% of the kept ones) are solved, in about 340 calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamParams
from .channel import PdGeometry, _check_link_distance
from .geometry import MisalignmentState, alignment_cosine, rotation_matrix, rx_normal, tx_normal
from .quadrature import _check_count

__all__ = ["RayBundleSpec", "ray_gain_mc"]


@dataclass(frozen=True)
class RayBundleSpec:
    """Sampling control: ``ray_count`` trajectories drawn from the RNG
    seeded with ``seed``."""

    ray_count: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("ray_count", self.ray_count, 10_000)
        _check_count("seed", self.seed, 0)


# rays per block: the sampler draws and tests one block at a time, and
# solves a link's queued rays once they reach a block's worth, so its
# arrays stay small
_CHUNK = 1 << 14
_NEWTON_STEPS = 8


def _transverse_basis(n_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit vectors e1, e2 across the beam axis ``n_t``. The cross products
    are np.cross's expressions in its order on Python floats, so they are
    its bits without its per-call cost; the norm stays numpy's, whose dot
    may fuse its multiply-adds."""
    n0, n1, n2 = n_t.tolist()
    r0, r1, r2 = (0.0, 1.0, 0.0) if abs(n1) < 0.9 else (1.0, 0.0, 0.0)
    e1 = np.array([r1 * n2 - r2 * n1, r2 * n0 - r0 * n2, r0 * n1 - r1 * n0])
    e1 /= np.linalg.norm(e1)
    f0, f1, f2 = e1.tolist()
    return e1, np.array([n1 * f2 - n2 * f1, n2 * f0 - n0 * f2, n0 * f1 - n1 * f0])


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
    # projections of these four vectors; numpy's 3-vector dot may fuse its
    # multiply-adds, which Python floats cannot, so it stays numpy's
    m_r = rotation_matrix("y", -state.psi_a) @ rotation_matrix("x", -state.psi_e)
    rows = [
        [float(x @ axis) for x in (waist, direction, e1, e2)]
        for axis in (n_r, m_r[:, 0], m_r[:, 1])
    ]
    return [*rows, [float(waist @ axis) for axis in (direction, e1, e2)]]


def _residual_tol(frame, r: float) -> float:
    """Largest plane residual of a scored crossing: 1e-9 times the
    waist's distance from the detector plane plus the detector radius."""
    return 1e-9 * (abs(frame[0][0]) + r)


# limits that decide no ray: centre 0, G the identity, no certain hit and
# no certain miss, so a link keeps, queues, solves and scores every ray
_SOLVE_ALL = (0.0, 0.0, (1.0, 0.0, 0.0, 1.0), -1.0, math.inf)


def _ellipses(frame, beam: BeamParams, r: float):
    """``(m1, m2, g, hit, miss)``: a centre m, the plane map G = ((g11,
    g12), (g21, g22)), g = (g11, g12, g21, g22), and two limits on q =
    ||nu - m||_G**2. The full solve scores a ray with q <= hit as a hit and
    one with q > miss as a miss; hit is -1 if the bound below certifies no
    ray of the link. A ray that scores also has |nu - m|**2 <= miss, the
    miss ellipse's circumscribed circle, since |x| <= ||x||_G.

    *The plane map.* In the beam frame (waist W, axis d, transverse axes
    e1, e2) the detector centre lies at axial distance t_c = -W.d and
    transverse offset c = (-W.e1, -W.e2), and a ray sits at Q(t) = (t -
    t_c)*d + p.e from it, with transverse offset p = w(t)*nu - c. With
    (base, slope, a1, a2) the first row of the frame, Q.n_r = (t -
    t_c)*slope + p.a; on the plane t - t_c = -p.a/slope, so (u, v) = (t -
    t_c)*(u_d, v_d) + (p.(u_1, u_2), p.(v_1, v_2)) = G*p with g = (u_1 -
    u_d*a1/slope, u_2 - u_d*a2/slope, v_1 - v_d*a1/slope, v_2 -
    v_d*a2/slope). G undoes the projection of the tilted plane onto the
    beam's cross-section, so its singular values are 1 and 1/cos(theta),
    with theta the angle between beam and receiver normal: ||x||_G = |G*x|
    obeys |x| <= ||x||_G <= |x|/cos(theta), and it is the Euclidean norm at
    theta = 0.

    Near grazing G amplifies the rounding of the tests by up to
    1/cos(theta); below cos(theta) = 1e-6 that could exceed their relative
    margin of 1e-6, so such a link gets ``_SOLVE_ALL``, which decides no
    ray.

    In this notation, a ray that crosses at axial distance t has p =
    w(t)*(nu - s*c), s = 1/w(t). Both limits bound t to an interval, so s
    to an [s_lo, s_hi] that holds s_c = 1/w(max(t_c, 0)), and m = s_c*c.
    Then ||nu - s*c||_G and ||nu - m||_G differ by at most
    |s - s_c|*||c||_G <= k*||c||_G, k = max(s_hi - s_c, s_c - s_lo), so each
    radius below gives up k*||c||_G to the one centre.

    *Certain miss.* A scored hit has residual delta = Q.n_r with |delta| <=
    tol (:func:`_residual_tol`) and u**2 + v**2 <= r**2. Then (t -
    t_c)*slope + p.a = delta, so (u, v) = G*p + delta*(u_d, v_d)/slope, and
    |(u_d, v_d)| = sin(theta), the part of d in the plane: ||p||_G <= r +
    tol*tan(theta). Also |Q|**2 = u**2 + v**2 + delta**2, so t > 0 and |t -
    t_c| <= |Q| <= R: s lies in [s_lo, s_hi] = [1/w(max(t_c + R, 0)),
    1/w(max(t_c - R, 0))] (if t_c + R <= 0 no ray scores, and the limit
    holds vacuously), so ||nu - m||_G <= s*||p||_G + k*||c||_G <= s_hi*R_G +
    k*||c||_G.

    R = (r + tol)*(1 + 1e-6) + 1e-12*|W| and R_G = (r +
    tol*tan(theta))*(1 + 1e-6) + 1e-12*|W|/cos(theta), and the radius gets
    another factor 1 + 1e-6. The scored quantities are rounded: terms of
    size R by a few ulps, which the relative margin covers, and the terms
    of size up to |W| (the waist, t and w*nu of a hit) by a few ulps of
    |W|, which the absolute one covers; G stretches either by at most
    1/cos(theta). w is evaluated as w0*hypot(1, t/zr), which cannot
    overflow in Python floats at any finite t.

    *Certain hit, geometry.* Let rho = r*(1 - 1e-6) -
    1e-12*|W|/cos(theta) and Delta = rho*tan(theta)*(1 + 1e-6), and require
    rho > 0 and t_c - Delta > 0. Over I = [t_c - Delta, t_c + Delta], s lies
    in [s_lo, s_hi] = [1/w(t_c + Delta), 1/w(t_c - Delta)], so a ray with
    ||nu - m||_G <= rho*s_lo - k*||c||_G has ||p||_G = w(t)*||nu - s*c||_G
    <= w(t)*rho*s_lo <= rho for every t in I. The plane function (t -
    t_c)*slope + p.a has |p.a| <= |p|*sin(theta) <= ||p||_G*sin(theta) <=
    rho*sin(theta) < Delta*cos(theta) on I, so it has opposite signs at the
    ends of I and the crossing lies in I. There (u, v) = G*p, so u**2 +
    v**2 <= rho**2 < (r*(1 - 1e-6))**2: a hit. The radius carries another
    factor 1 - 1e-6 and rho the absolute 1e-12*|W|/cos(theta), which cover
    the rounding of the test and of the centre, as for the certain miss.

    *Certain hit, the computed solve.* ``_crossing`` solves F(t) = base +
    t*slope + w(t)*proj = 0, with |proj| <= P = |nu|max*sin(theta), where
    |nu|max = |m| + the radius bounds a certified ray's |nu| since |x| <=
    ||x||_G. Since |w'| < w0/z_R, F' lies within (w0/z_R)*P of slope; the
    link must have margin = cos(theta) - (w0/z_R)*P >= cos(theta)/2, so F
    is monotone with one root t*. F'' = w''*proj keeps its sign, so the
    Newton iterates from the axis crossing t0 = -base/slope stay between
    t0, its first step and t*, all within E = w(t0)*P/margin of t0. On J =
    [t0 - E, t0 + E], with t0 - E > 0, |F''| <= M = w''(t0 - E)*P; the link
    must have M*E <= margin, so the error e_k of step k obeys e_k <= E*2**(1
    - 2**k), below 2e-19*E by step 6 of the 8. Every term of F, and of the
    scored u and v, is at most S = |W| + (t0 + E) + w(t0 + E)*|nu|max in
    size, so rounding keeps each computed iterate, and the ray's point on
    the plane, within about 40*eps*S*g/cos(theta) of the exact ones, with g
    = 1 + (w0/z_R)*|nu|max. The link must have t0 - E, tol and r*1e-6 all
    above slack = 1e-13*S*g/cos(theta), twenty times that: then t > 0, the
    residual is at most tol, and u**2 + v**2 <= r**2 as computed. A link
    that fails any of these conditions certifies no ray, and all its kept
    rays inside the miss limit are solved.
    """
    (base, slope, a1, a2), (_, u_d, u_1, u_2), (_, v_d, v_1, v_2), waist = frame
    cos, sin = abs(slope), math.hypot(a1, a2)
    if not cos >= 1e-6:
        return _SOLVE_ALL
    k1, k2 = a1 / slope, a2 / slope
    g = (u_1 - u_d * k1, u_2 - u_d * k2, v_1 - v_d * k1, v_2 - v_d * k2)
    t_c, c1, c2 = -waist[0], -waist[1], -waist[2]
    size = math.hypot(*waist)
    g11, g12, g21, g22 = g
    c_g = math.hypot(g11 * c1 + g12 * c2, g21 * c1 + g22 * c2)  # ||c||_G
    w0, zr = beam.waist_radius, beam.rayleigh_range

    def s(t: float) -> float:  # 1/w(max(t, 0))
        return 1.0 / (w0 * math.hypot(1.0, max(t, 0.0) / zr))

    s_c = s(t_c)
    m1, m2 = s_c * c1, s_c * c2
    tol = _residual_tol(frame, r)
    bound = (r + tol) * (1.0 + 1e-6) + 1e-12 * size  # R
    bound_g = (r + tol * sin / cos) * (1.0 + 1e-6) + 1e-12 * size / cos  # R_G
    s_lo, s_hi = s(t_c + bound), s(t_c - bound)
    miss = (s_hi * bound_g + c_g * max(s_hi - s_c, s_c - s_lo)) * (1.0 + 1e-6)
    no_hit = m1, m2, g, -1.0, miss * miss

    rho = r * (1.0 - 1e-6) - 1e-12 * size / cos
    delta = rho * sin / cos * (1.0 + 1e-6)
    if not (rho > 0.0 and t_c - delta > 0.0):
        return no_hit
    s_lo, s_hi = s(t_c + delta), s(t_c - delta)
    hit = (rho * s_lo - c_g * max(s_hi - s_c, s_c - s_lo)) * (1.0 - 1e-6)
    if not hit > 0.0:
        return no_hit
    nu_max = s_c * math.hypot(c1, c2) + hit
    proj_max = nu_max * sin  # P
    margin = cos - w0 / zr * proj_max
    if not 2.0 * margin >= cos:
        return no_hit
    t0 = -base / slope
    spread = w0 * math.hypot(1.0, t0 / zr) * proj_max / margin  # E
    lo, hi = t0 - spread, t0 + spread
    lo_h = math.hypot(1.0, lo / zr)
    curvature = w0 / zr / zr / (lo_h * lo_h * lo_h) * proj_max  # M = w''(t0 - E)*P
    scale = size + hi + w0 * math.hypot(1.0, hi / zr) * nu_max  # S
    slack = 1e-13 * scale * (1.0 + w0 / zr * nu_max) / cos
    if not (lo > slack and curvature * spread <= margin
            and slack <= min(tol, 1e-6 * r)):
        return no_hit
    return m1, m2, g, hit * hit, miss * miss


def _hits(beam: BeamParams, frame, r: float, queue) -> int:
    """Hits among the queued ``(n1, n2)`` rays of one link, each solved
    by ``_crossing`` and scored in one call."""
    n1, n2 = np.concatenate([q[0] for q in queue]), np.concatenate([q[1] for q in queue])
    (base, slope, a1, a2), (u_w, u_d, u_1, u_2), (v_w, v_d, v_1, v_2), _ = frame
    w0, zr = beam.waist_radius, beam.rayleigh_range
    proj = n1 * a1 + n2 * a2
    t = _crossing(proj, base, slope, w0, zr)
    w_z = w0 * np.sqrt(1.0 + (t / zr) ** 2)
    residual = np.abs(base + t * slope + w_z * proj)
    # grazing rays that failed to converge (NaN residual) miss
    ok = (t > 0.0) & (residual <= _residual_tol(frame, r))
    s1, s2 = w_z * n1, w_z * n2
    u = u_w + t * u_d + s1 * u_1 + s2 * u_2
    v = v_w + t * v_d + s1 * v_1 + s2 * v_2
    return np.count_nonzero(ok & (u**2 + v**2 <= r**2))


def _ray_gains(links, L: float, pd: PdGeometry, spec: RayBundleSpec) -> list[tuple[float, float]]:
    """``(gain, std_error)`` of each ``(beam, state)`` link, every link scored
    on the same ray draws of ``spec``.

    Each block of rays is drawn once for all links. A link keeps the rays
    in the circle of its certain-miss limit (``_ellipses``), computes one
    quadratic form q = ||nu - m||_G**2 per kept ray, and sorts each ray by
    its two limits: q <= hit counts as a hit, q > miss is dropped as a
    miss, and the rest is queued. It solves and scores its queue once it
    holds ``_CHUNK`` rays, and once more after the last block. A link
    within 1e-6 of grazing gets ``_SOLVE_ALL``, so it queues every ray. Its
    hits are those of solving every ray: each solved ray goes through the
    same elementwise arithmetic as in a full-block pass, and ``_crossing``
    returns each ray's full Newton solve whatever rays share its call. So
    each result equals the one-link ``ray_gain_mc`` bit for bit.
    """
    _check_link_distance(L)
    r = pd.radius
    plans = []
    for index, (beam, state) in enumerate(links):
        frame = _frame(state, L)
        if frame is None:  # facing away: scores no ray
            continue
        plans.append((index, beam, frame, _ellipses(frame, beam, r), []))
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
            for index, beam, frame, (m1, m2, (g11, g12, g21, g22), hit, miss), queue in plans:
                # the circle first: one cheap test per drawn ray
                keep = np.flatnonzero((nu1 - m1) ** 2 + (nu2 - m2) ** 2 <= miss)
                if not keep.size:
                    continue
                x, y = nu1[keep] - m1, nu2[keep] - m2
                q = (g11 * x + g12 * y) ** 2 + (g21 * x + g22 * y) ** 2
                certain = q <= hit  # certain hits count unsolved
                count = np.count_nonzero(certain)
                hits[index] += count
                if count == keep.size:
                    continue
                rest = keep[(q <= miss) & ~certain]
                if not rest.size:
                    continue
                queue.append((nu1[rest], nu2[rest]))
                if sum(part[0].size for part in queue) >= _CHUNK:
                    hits[index] += _hits(beam, frame, r, queue)
                    queue.clear()
        for index, beam, frame, _, queue in plans:
            if queue:
                hits[index] += _hits(beam, frame, r, queue)

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
