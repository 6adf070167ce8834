"""Channel DC gains for single links and arrays.

A link gain is the captured fraction of the transmitted optical power on a
circular photodetector. The exact route integrates the beam intensity over
the detector surface using the misalignment point kernel; closed-form
routes cover the aligned case and erf-product approximations for
displacement and transmitter tilt (square-equivalent aperture).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._warn import warn
from .beam import BeamParams, spot_radius_sq
from .geometry import (
    MisalignmentState,
    _kernel_path,
    _link_constants,
    array_element_xy,
    gmm_point_frame,
    rx_element_pose,
    tx_element_pose,
)
from .quadrature import _ABS_TOL, _integrate_disks, integrate_disk

__all__ = [
    "PdGeometry",
    "LayoutKind",
    "ArrayLayout",
    "GainMethod",
    "build_layout",
    "gain_aligned",
    "gain_gmm",
    "gain_approx_displacement",
    "gain_approx_tx_tilt",
    "mimo_matrix",
    "write_gains_csv",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PdGeometry:
    """Circular photodetector of radius ``radius``."""

    radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"PD radius must be finite and > 0, got {self.radius!r}")

    @property
    def equivalent_square_side(self) -> float:
        """Side of the equal-area square, sqrt(pi)*radius."""
        return _SQRT_PI * self.radius

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


class LayoutKind(str, Enum):
    SQUARE = "square"
    CONFIG_I = "config-i"
    CONFIG_II = "config-ii"
    CONFIG_III = "config-iii"


class GainMethod(str, Enum):
    EXACT_GMM = "exact-gmm"
    APPROX_DISPLACEMENT = "approx-displacement"
    APPROX_TX_TILT = "approx-tx-tilt"
    ALIGNED_CLOSED_FORM = "aligned-closed-form"


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Element centers of a transmitter or receiver array.

    ``elements`` is an (N, 2) array of x/y centers, ``pitch`` the base
    lattice pitch 2*r_pd + delta and ``side`` the hosting aperture side.
    ``pd`` is None for transmitter arrays. A layout compares by identity,
    since ``elements`` is an array: a sweep groups its points by layout.
    """

    kind: LayoutKind
    elements: np.ndarray
    pd: PdGeometry | None
    pitch: float
    side: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.elements).all():  # a NaN element would gain 0 or NaN
            raise ValueError("array element coordinates must be finite")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def fill_factor(self) -> float:
        if self.pd is None:
            raise ValueError("fill factor undefined without PD geometry")
        return self.n_elements * self.pd.area / (self.side * self.side)


def _square_lattice(k: int, pitch: float) -> np.ndarray:
    return np.stack(array_element_xy(np.arange(1, k * k + 1), k, pitch), axis=-1)


def build_layout(
    kind: LayoutKind | str,
    k: int | None = None,
    r_pd: float = 3e-3,
    delta: float = 6e-3,
    transmitter: bool = False,
) -> ArrayLayout:
    """Construct an array layout.

    SQUARE is a k-by-k lattice with pitch 2*r_pd + delta. CONFIG_I is the
    5x5 square; CONFIG_II adds a 4x4 lattice on the cell centers (41
    elements); CONFIG_III is a 9x9 lattice at half pitch inside the same
    aperture (81 elements). The three configs fill 20/32/64 percent of the
    aperture with the default detector size.
    """
    kind = LayoutKind(kind)
    if not (0.0 < r_pd < math.inf and 0.0 <= delta < math.inf):
        raise ValueError(f"need finite r_pd > 0 and delta >= 0, got {r_pd!r}, {delta!r}")
    pitch = 2.0 * r_pd + delta
    pd = None if transmitter else PdGeometry(r_pd)
    if kind is LayoutKind.SQUARE:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"square layout needs an integer k >= 1, got {k!r}")
        elements = _square_lattice(k, pitch)
        side = k * pitch
    else:
        side = 5 * pitch
        base = _square_lattice(5, pitch)
        if kind is LayoutKind.CONFIG_I:
            elements = base
        elif kind is LayoutKind.CONFIG_II:
            inter = _square_lattice(4, pitch)
            elements = np.vstack([base, inter])
        else:  # CONFIG_III
            elements = _square_lattice(9, pitch / 2.0)
    elements.flags.writeable = False  # keeps the finiteness check of __post_init__ true
    return ArrayLayout(kind=kind, elements=elements, pd=pd, pitch=pitch, side=side)


def _check_link_distance(L: float) -> None:
    """Reject a link distance that is not finite and positive; a plain
    ``L <= 0`` lets NaN through."""
    if not 0.0 < L < math.inf:
        raise ValueError(f"link distance must be finite and > 0, got {L!r}")


def gain_aligned(beam: BeamParams, L: float, pd: PdGeometry) -> float:
    """Captured power fraction of a perfectly aligned link:
    1 - exp(-2 r_pd^2 / w(L)^2)."""
    _check_link_distance(L)
    w2 = float(spot_radius_sq(L, beam))
    return 1.0 - math.exp(-2.0 * pd.radius * pd.radius / w2)


def gain_gmm(
    beam: BeamParams,
    L: float,
    pd: PdGeometry,
    state: MisalignmentState | Sequence[MisalignmentState],
) -> float | np.ndarray:
    """Exact misaligned gain: disk integral of the beam intensity evaluated
    through the point kernel, weighted by the alignment cosine.

    Surface points mapping behind the waist contribute zero; a receiver
    facing away from the beam (cosine <= 0) yields zero outright. A
    sequence of states gives an array of their lone gains, integrated in
    one batch; a failure then names the lowest failing ``state k``.
    """
    _check_link_distance(L)
    if isinstance(state, MisalignmentState):
        integrand, live, _ = _link_integrand([beam], [_link_row(L, state)])
        return integrate_disk(integrand, pd.radius) if len(live) else 0.0
    links = [_link_row(L, s) for s in state]
    return _exact_gains([beam], pd, links, lambda k: f"state {k}")[0]


def _link_row(L: float, s: MisalignmentState) -> tuple:
    """Link row of :func:`_link_integrand` for a lone link in state ``s``."""
    return (L, s.x_de, s.y_de, s.phi_a, s.phi_e, s.psi_a, s.psi_e)


def _exact_gains(beams: Sequence[BeamParams], pd: PdGeometry, links, where) -> np.ndarray:
    """Exact gains of link rows (see :func:`_link_integrand`) under each of
    P beams, a (P, K) array, in one batched quadrature; ``where(k)`` locates
    a failure of row k. An integral whose :func:`_integral_bound` is at most
    ``_ABS_TOL``/2 is settled: it skips the quadrature's first order
    (:func:`_integrate_disks`), with the same bits."""
    integrand, live, terms = _link_integrand(beams, links)
    settled = _integral_bound(terms, pd.radius) <= _ABS_TOL / 2.0
    del terms  # the integrand keeps its own table; freed, they add no peak memory
    gains =np.zeros((len(beams), len(links)))
    gains[:, live] = _integrate_disks(integrand, pd.radius, len(beams) * len(live),
                                      lambda k: where(live[k % len(live)]),
                                      settled).reshape(len(beams), -1)
    return gains


def _integral_bound(terms, radius: float) -> np.ndarray:
    """An upper bound B of each integral of a link table, given by the terms
    of :func:`_link_integrand`, over a detector of radius r; +inf where the
    disk may reach the waist plane. It is small where the spot misses the
    detector.

    The point kernel evaluated at the detector centre gives (z_c, rho_c^2).
    The point map is rigid, so every point of the disk has z within r of z_c
    and rho >= rho_c - r. Where z_c - r > 0 the intensity is then at most
    2 cos(theta) / (pi w^2(z_c - r)) exp(-2 max(rho_c - r, 0)^2 / w^2(z_c +
    r)), and the integral at most the disk area times that:
    B = 2 r^2 / w^2(z_c - r) exp(-2 max(rho_c - r, 0)^2 / w^2(z_c + r)) cos(theta),
    one bound per integral, from its own beam and row."""
    *link, cos_theta, inv_zr_sq, w0_sq = terms
    z_c, rho_c_sq = gmm_point_frame(0.0, 0.0, *link)
    near, far = z_c - radius, z_c + radius
    reach = np.maximum(np.sqrt(rho_c_sq) - radius, 0.0)
    bound = (2.0 * radius * radius / (w0_sq * (1.0 + near * near * inv_zr_sq))
             * np.exp(-2.0 * reach * reach / (w0_sq * (1.0 + far * far * inv_zr_sq)))
             * cos_theta)
    return np.where(near > 0.0, bound, np.inf)


def _link_integrand(beams: Sequence[BeamParams], links):
    """Integrand of the exact gains of link rows (L, x_de, y_de, phi_a,
    phi_e, psi_a, psi_e) under each of P beams, the numbers of the rows it
    covers, those facing the beam (the others gain 0), and its terms:
    ``integrand(x, y, k=0)`` is the intensity of integral k, covered row
    ``k % K`` of the K covered rows under beam ``k // K``, weighted by its
    alignment cosine. The terms are the kernel's link terms, the cosine, and
    a beam's 1/z_R^2 and w0^2, computed once, each an array of one value per
    integral. The point kernel's exact-zero path is chosen once for the
    table (:func:`_kernel_path`)."""
    L, x_de, y_de, *angles = np.array(links, dtype=float).reshape(-1, 7).T
    *frame, cos_theta = _link_constants(L, *angles)
    live = np.flatnonzero(cos_theta > 0.0)
    beam_terms = np.array([(1.0 / b.rayleigh_range**2, b.waist_radius**2) for b in beams]).T
    # a term every integral shares stays a float, so the integrand computes
    # what depends only on it once per call rather than once per integral;
    # the other terms are rows of one table, gathered by one index per call
    terms = [*(np.tile(t[live], len(beams)) for t in (L, x_de, y_de, *frame, cos_theta)),
             *(np.repeat(t, len(live)) for t in beam_terms)]
    shared = [float(v[0]) if len(v) and (v == v[0]).all() else None for v in terms]
    table = np.array([v for v, s in zip(terms, shared) if s is None])
    table = table.reshape(shared.count(None), len(terms[0]))
    path = _kernel_path(*(v if s is None else s for v, s in zip(terms[:11], shared)))

    def integrand(x, y, k=0):
        rows = iter(table[:, k])
        *link, cos_k, inv_zr_sq, w0_sq = [next(rows) if s is None else s for s in shared]
        z, rho_sq = gmm_point_frame(x, y, *link, path)
        return _intensity(inv_zr_sq, w0_sq, z, rho_sq, cos_k)

    return integrand, live, terms


def _intensity(inv_zr_sq, w0_sq, z, rho_sq, cos_theta):
    """Intensity of a beam of 1/z_R^2 ``inv_zr_sq`` and w0^2 ``w0_sq`` on the
    tilted detector at beam-frame (z, rho^2), weighted by the alignment
    cosine; zero behind the waist. It equals its textbook form bit for bit;
    the zeroing runs only where some z fails z > 0, as a NaN does. A z per
    link (both ends untilted, :func:`gmm_point_frame`) gives w^2 per link."""
    w2 = z * z
    w2 = w2 * inv_zr_sq  # a per-beam term can widen the shape, so out of place
    w2 += 1.0
    w2 = w2 * w0_sq
    vals = rho_sq * -2.0
    vals = vals / w2
    vals = np.exp(vals)
    w2 *= np.pi
    vals *= 2.0 / w2
    vals = vals * cos_theta  # a per-link cosine can widen the shape
    return vals if np.min(z) > 0.0 else np.where(z > 0.0, vals, 0.0)  # a NaN min fails


def gain_approx_displacement(beam: BeamParams, L: float, pd: PdGeometry, x_off, y_off):
    """erf-product gain for a purely displaced link: the transmitter-tilt
    form at zero tilt.

    ``x_off``/``y_off`` are the receiver-minus-transmitter center offsets
    (including any array displacement). Accepts arrays and broadcasts.
    """
    return gain_approx_tx_tilt(beam, L, pd, x_off, y_off, 0.0, 0.0, 0.0, 0.0)


def _erf_sum(a, c, off):
    """One axis factor of the erf-product closed forms: erf((a + 2 off)/c) +
    erf((a - 2 off)/c) for a square of side ``a``, erf scale ``c`` and spot
    offset ``off``; every argument broadcasts. A gain is 0.25 fx fy."""
    return _erf((a + 2.0 * off) / c) + _erf((a - 2.0 * off) / c)


# Cephes ndtr.c tables: erf = x T(x^2)/U(x^2) on |x| <= 1 and erfc =
# exp(-x^2) P(x)/Q(x) above; U and Q carry Cephes' implied leading 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coefs):
    """Cephes ``polevl``: the polynomial with coefficients ``coefs``, highest
    power first, in Horner order."""
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _erf(x) -> np.ndarray:
    """The Cephes ``ndtr.c`` erf, bit for bit, since a near-equal erf moves
    rounding-level SVD modes (README). Cephes computes erf(-x) as -erf(x)
    and erf(x) as 1 - erfc(x) for x > 1, in this order of operations.
    exp(-x^2) comes from libm through ``math.exp``, because ``np.exp`` can
    differ by an ulp. For x >= 6 erfc(x) < 2.2e-17 < 2**-54, so 1 - erfc(x)
    rounds to 1 and Cephes' large-x and underflow branches are not needed.
    NaN stays NaN and zeros keep their sign."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.where(ax >= 6.0, 1.0, ax)
    small = ax <= 1.0
    s = ax[small]
    out[small] = s * _horner(s * s, _ERF_T) / _horner(s * s, _ERF_U)
    mid = (ax > 1.0) & (ax < 6.0)
    m = ax[mid]
    e = np.fromiter(map(math.exp, (-(m * m)).tolist()), float, m.size)
    out[mid] = 1.0 - e * _horner(m, _ERFC_P) / _horner(m, _ERFC_Q)
    return np.copysign(out, x)


def gain_approx_tx_tilt(
    beam: BeamParams,
    L: float,
    pd: PdGeometry,
    x_i,
    y_i,
    x_j,
    y_j,
    phi_a,
    phi_e,
):
    """erf-product gain for a transmitter tilted by (phi_a, phi_e).

    Valid in the small-angle regime where the tilt acts like a beam-spot
    displacement of (L sin(phi_a), L sin(phi_e) cos(phi_a)); the spot radius
    is evaluated at the foreshortened distance L cos(phi_e) cos(phi_a). A
    transmitter facing away (cos(phi_a) <= 0 or cos(phi_e) <= 0) gains 0,
    since the form holds only at small angles. Accepts
    arrays for the positions and the angles and broadcasts.
    """
    _check_link_distance(L)
    fx, fy = _erf_factors(beam.waist_radius**2, beam.rayleigh_range, L,
                          pd.equivalent_square_side, x_i, y_i, x_j, y_j, 0.0, 0.0, phi_a, phi_e)
    out = 0.25 * fx * fy + 0.0  # + 0.0: a zero gain is +0, not -0
    return float(out) if out.ndim == 0 else out


def _erf_factors(w0_sq, z_r, L, a, x_i, y_i, x_j, y_j, x_de, y_de, phi_a, phi_e):
    """The x and y factors of the erf-product closed form, whose gain is
    0.25 fx fy, for an equivalent square of side ``a``: the transmitter-tilt
    form with the displacement (x_de, y_de) added to the tilt's spot offset.
    At zero tilt it is the displacement form bit for bit (cos 0 = 1, sin 0 =
    0). fx reads only the x coordinates and fy only the y ones; the beam
    (``w0_sq``, ``z_r``) broadcasts like the angles. Both factors are +0
    where the transmitter faces away, cos(phi_a) <= 0 or cos(phi_e) <= 0,
    since a foreshortened side would flip a sign; a NaN angle stays NaN."""
    ca, sa = np.cos(phi_a), np.sin(phi_a)
    ce, se = np.cos(phi_e), np.sin(phi_e)
    zn = L * ce * ca / z_r
    c = _SQRT_2 * np.sqrt(w0_sq * (1.0 + zn * zn))  # sqrt(2) w(L ce ca), as spot_radius_sq
    x_i, y_i, x_j, y_j = (np.asarray(v, dtype=float) for v in (x_i, y_i, x_j, y_j))
    x_term = x_i * ca - x_j - (L * sa + x_de)
    y_term = y_i * ce - y_j - (L * se * ca + y_de)
    away = np.minimum(ca, ce) <= 0.0  # either cosine <= 0; np.minimum keeps a NaN
    return (np.where(away, 0.0, _erf_sum(a * ca, c, x_term)),
            np.where(away, 0.0, _erf_sum(a * ce, c, y_term)))


def _per_point(values) -> np.ndarray:
    """P per-point values as a (P, 1, 1) array; P per-point tuples as one
    such array per tuple field."""
    return np.array(values, dtype=float).T[..., None, None]


def _distinct(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of ``values`` and the index of each entry among them."""
    unique, inverse = np.unique(values, return_inverse=True)
    return unique, inverse.reshape(np.shape(values))


def _closed_form_block(
    beams: Sequence[BeamParams],
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    states: Sequence[MisalignmentState],
    method: GainMethod,
):
    """The erf factor tables of one array pair at P points, and a gather
    from them: returns ``gather(points)``, the closed-form gain matrices of
    the points a slice selects as a (len, N_r, N_t) stack; point p has beam
    ``beams[p]`` and state ``states[p]``. Every method is the one erf
    product of :func:`_erf_factors`, fed the tilt (transmitter tilt), the
    displacement (displacement) or neither (aligned). Each gain is 0.25 fx
    fy, so erf runs once per point only on the distinct (x_i, x_j) pairs,
    and likewise in y (:func:`_factor_entries` of them), and a gather only
    multiplies: every matrix equals the full elementwise broadcast bit for
    bit, whatever the slice. A warning about ignored state fields fires once
    per block; the caller checks ``L``."""
    x_de = y_de = phi_a = phi_e = 0.0  # the state fields the method feeds the kernel
    if method is GainMethod.APPROX_TX_TILT:
        if any(s.x_de != 0.0 or s.y_de != 0.0 or s.psi_a != 0.0 or s.psi_e != 0.0
               for s in states):
            warn("transmitter-tilt approximation ignores displacement and receiver angles")
        phi_a, phi_e = _per_point([(state.phi_a, state.phi_e) for state in states])
    elif method is GainMethod.APPROX_DISPLACEMENT:
        if not all(state.is_axial for state in states):
            warn("displacement approximation ignores orientation angles")
        x_de, y_de = _per_point([(state.x_de, state.y_de) for state in states])
    elif not all(state.is_aligned for state in states):
        raise ValueError("aligned closed form requires a zero misalignment state")
    (rx_x, rx_y), (tx_x, tx_y) = rx.elements.T, tx.elements.T
    (ux_i, ix_i), (uy_i, iy_i), (ux_j, ix_j), (uy_j, iy_j) = map(
        _distinct, (rx_x, rx_y, tx_x, tx_y))
    w0_sq, z_r = _per_point([(beam.waist_radius**2, beam.rayleigh_range) for beam in beams])
    fx, fy = _erf_factors(w0_sq, z_r, L, rx.pd.equivalent_square_side, ux_i[:, None],
                          uy_i[:, None], ux_j, uy_j, x_de, y_de, phi_a, phi_e)
    if method is GainMethod.ALIGNED_CLOSED_FORM:
        on_axis = (rx_x[:, None] == tx_x) & (rx_y[:, None] == tx_y)
        aligned = _per_point([gain_aligned(beam, L, rx.pd) for beam in beams])[:, 0]

    # the factor index of each entry; np.take keeps the gathered stack in C
    # order, so each matrix's rows sum as a lone matrix's in the link budget
    x_pairs, y_pairs = ix_i[:, None] * len(ux_j) + ix_j, iy_i[:, None] * len(uy_j) + iy_j
    fx, fy = fx.reshape(len(fx), -1), fy.reshape(len(fy), -1)

    def gather(points: slice) -> np.ndarray:
        # + 0.0: a zero gain is +0, not -0
        gains = 0.25 * np.take(fx[points], x_pairs, axis=1) * np.take(fy[points], y_pairs,
                                                                        axis=1) + 0.0
        if method is GainMethod.ALIGNED_CLOSED_FORM:
            gains[:, on_axis] = aligned[points]
        return gains

    return gather


def _factor_entries(tx: ArrayLayout, rx: ArrayLayout) -> int:
    """Entries of one point's erf factor tables in :func:`_closed_form_block`:
    the distinct (x_i, x_j) pairs plus the distinct (y_i, y_j) pairs."""
    (rx_x, rx_y), (tx_x, tx_y) = ([len(_distinct(a)[0]) for a in layout.elements.T]
                                  for layout in (rx, tx))
    return rx_x * tx_x + rx_y * tx_y


def _closed_form_stack(
    beams: Sequence[BeamParams],
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    states: Sequence[MisalignmentState],
    method: GainMethod,
) -> np.ndarray:
    """Closed-form gain matrices of one array pair at P points, a (P, N_r,
    N_t) stack: the gather of every point of a :func:`_closed_form_block`."""
    return _closed_form_block(beams, L, tx, rx, states, method)(slice(None))


def _pair_keys(L: float, tx: ArrayLayout, rx: ArrayLayout, state: MisalignmentState):
    """Unique element pairs of the exact route for one geometry: the (K, 7)
    link rows of the K pair keys, each from its key's first row-major entry,
    and the (N_r, N_t) key number of each entry, -1 for a non-positive
    distance."""
    tx_pos = tx_element_pose(tx.elements[:, 0], tx.elements[:, 1], state, L)
    rx_pos = rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)
    dx, dy, l_pair = (tx_pos[None, :, :] - rx_pos[:, None, :]).reshape(-1, 3).T
    entries = np.flatnonzero(~(l_pair <= 0))  # row-major, as the keys are numbered
    dx_e, dy_e, l_e = dx[entries], dy[entries], l_pair[entries]
    if state.is_axial:  # gains for rotation-free states depend only on the radial offset
        # math.hypot, since np.hypot is another libm routine and may round differently
        radial = [math.hypot(a, b) for a, b in zip(dx_e.tolist(), dy_e.tolist())]
        columns = (l_e, np.array(radial, dtype=float))
    else:
        columns = (l_e, dx_e + 0.0, dy_e + 0.0)  # + 0.0 merges signed zeros
    # a stable sort puts equal keys in runs that start at their first entry
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in columns:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    heads = order[starts]  # the first entry of each key
    is_head = np.zeros(len(order), dtype=bool)
    is_head[heads] = True
    # keys are numbered by their first entry's row-major position
    number = np.cumsum(is_head) - 1
    slot = np.full(l_pair.size, -1, dtype=int)
    slot[entries[order]] = number[heads][np.cumsum(starts) - 1]
    heads = np.flatnonzero(is_head)  # in key order
    # each link row takes its first entry's dx and dy, signed zeros included
    links = np.empty((len(heads), 7))
    links[:, 0], links[:, 1], links[:, 2] = l_e[heads], dx_e[heads], dy_e[heads]
    links[:, 3:] = (state.phi_a, state.phi_e, state.psi_a, state.psi_e)
    return links, slot.reshape(rx.n_elements, tx.n_elements)


def mimo_matrix(
    beam: BeamParams | Sequence[BeamParams],
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    state: MisalignmentState,
    method: GainMethod | str = GainMethod.EXACT_GMM,
) -> np.ndarray:
    """Assemble the N_r x N_t array-to-array gain matrix (rows: receiver
    elements, columns: transmitter elements) as a float array; a sequence of
    P beams gives a (P, N_r, N_t) stack, one matrix per beam.

    Each entry treats its transmitter/receiver element pair as a single
    link: element positions are rotated and displaced with their array,
    then the single-link gain is evaluated with the pair's own distance
    and center offsets while keeping the array orientation angles. The
    closed forms run through :func:`_closed_form_stack` (erf on distinct
    coordinate pairs only). The exact route integrates each unique element
    pair once per beam in one batched quadrature, with the pairs collected
    once per call (:func:`_pair_keys`). Each matrix of a stack is its
    beam's own matrix bit for bit; a non-positive pair distance warns once
    per call.
    """
    method = GainMethod(method)
    _check_link_distance(L)
    if rx.pd is None:
        raise ValueError("receiver layout must carry PD geometry")
    beams = [beam] if isinstance(beam, BeamParams) else list(beam)
    if not beams:
        raise ValueError("need at least one beam")

    if method is not GainMethod.EXACT_GMM:
        gains = _closed_form_stack(beams, L, tx, rx, [state] * len(beams), method)
    else:  # exact route: one batched quadrature over the beams and unique element pairs
        links, slot = _pair_keys(L, tx, rx, state)
        for i, j in np.argwhere(slot < 0).tolist():
            warn(f"non-positive pair distance for entry ({i}, {j}); gain set to 0")
        # a failing key is located at its first entry
        values = _exact_gains(beams, rx.pd, links, lambda k: "entry "
                              f"{divmod(int(np.argmax(slot == k)), tx.n_elements)}")
        found = slot >= 0
        gains = np.zeros((len(beams), *slot.shape))
        gains[:, found] = values[:, slot[found]]
    return gains[0] if isinstance(beam, BeamParams) else gains


def write_gains_csv(gains: np.ndarray, path) -> None:
    """CSV serialization of an N_r x N_t gain array: header ``j=1..Nt``, one
    row per receiver element."""
    _write_csv(path, [f"j={j + 1}" for j in range(gains.shape[1])], gains.tolist())


def _write_csv(path, header, rows) -> None:
    """Float table as CSV: header line, rows at 12 significant digits, LF endings.

    Every row has one value per header name; ``"%.11e" % v`` is the text of
    ``f"{v:.11e}"``."""
    line = ",".join(["%.11e"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(line % tuple(row))

