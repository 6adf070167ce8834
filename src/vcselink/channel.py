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
from functools import lru_cache

import numpy as np

from ._warn import warn
from .beam import BeamParams, spot_radius_sq
from .geometry import (
    MisalignmentState,
    _link_constants,
    array_element_xy,
    gmm_point_frame,
    rx_element_pose,
    tx_element_pose,
)
from .quadrature import _integrate_disks, integrate_disk

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
    ``pd`` is None for transmitter arrays. A layout hashes by identity;
    :func:`build_layout` makes ``elements`` read-only, so a cache keyed on
    the layout cannot go stale.
    """

    kind: LayoutKind
    elements: np.ndarray
    pd: PdGeometry | None
    pitch: float
    side: float

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
    elements.flags.writeable = False  # layouts hash by identity: their elements never change
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
        integrand, live = _link_integrand(beam, [_link_row(L, state)])
        return integrate_disk(integrand, pd.radius) if len(live) else 0.0
    links = [_link_row(L, s) for s in state]
    return _exact_gains(beam, pd, links, lambda k: f"state {k}")


def _link_row(L: float, s: MisalignmentState) -> tuple:
    """Link row of :func:`_link_integrand` for a lone link in state ``s``."""
    return (L, s.x_de, s.y_de, s.phi_a, s.phi_e, s.psi_a, s.psi_e)


def _exact_gains(beam: BeamParams, pd: PdGeometry, links, where) -> np.ndarray:
    """Exact gains of link rows (see :func:`_link_integrand`) in one batched
    quadrature; ``where(k)`` locates a failure of row k."""
    integrand, live = _link_integrand(beam, links)
    gains = np.zeros(len(links))
    gains[live] = _integrate_disks(integrand, pd.radius, len(live), lambda k: where(live[k]))
    return gains


def _link_integrand(beam: BeamParams, links):
    """Integrand of the exact gains of link rows (L, x_de, y_de, phi_a,
    phi_e, psi_a, psi_e) and the numbers of the rows it covers, those facing
    the beam (the others gain 0): ``integrand(x, y, k=0)`` is the intensity
    of covered row k weighted by its alignment cosine."""
    L, x_de, y_de, *angles = np.array(links, dtype=float).reshape(-1, 7).T
    *frame, cos_theta = _link_constants(L, *angles)
    live = np.flatnonzero(cos_theta > 0.0)
    # a term every link shares stays a float, so the integrand computes
    # what depends only on it once per call rather than once per link
    table = [
        float(v[0]) if len(v) and (v == v[0]).all() else v
        for v in (t[live] for t in (L, x_de, y_de, *frame, cos_theta))
    ]

    def integrand(x, y, k=0):
        *link, cos_k = [v if isinstance(v, float) else v[k] for v in table]
        z, rho_sq = gmm_point_frame(x, y, *link)
        return _intensity(beam, z, rho_sq, cos_k)

    return integrand, live


def _intensity(beam: BeamParams, z, rho_sq, cos_theta):
    """Beam intensity on the tilted detector at beam-frame (z, rho^2),
    weighted by the alignment cosine; zero behind the waist."""
    w2 = beam.waist_radius**2 * (1.0 + z * z * (1.0 / beam.rayleigh_range**2))
    vals = 2.0 / (np.pi * w2) * np.exp(-2.0 * rho_sq / w2) * cos_theta
    return np.where(z > 0.0, vals, 0.0)


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
    transmitter facing away (cos(phi_a) cos(phi_e) <= 0) gains 0. Accepts
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
    where the transmitter faces away, cos(phi_a) cos(phi_e) <= 0, since the
    foreshortened side would flip their sign; a NaN angle stays NaN."""
    ca, sa = np.cos(phi_a), np.sin(phi_a)
    ce, se = np.cos(phi_e), np.sin(phi_e)
    zn = L * ce * ca / z_r
    c = _SQRT_2 * np.sqrt(w0_sq * (1.0 + zn * zn))  # sqrt(2) w(L ce ca), as spot_radius_sq
    x_i, y_i, x_j, y_j = (np.asarray(v, dtype=float) for v in (x_i, y_i, x_j, y_j))
    x_term = x_i * ca - x_j - (L * sa + x_de)
    y_term = y_i * ce - y_j - (L * se * ca + y_de)
    away = ca * ce <= 0.0
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


def _closed_form_stack(
    beams: Sequence[BeamParams],
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    states: Sequence[MisalignmentState],
    method: GainMethod,
) -> np.ndarray:
    """Closed-form gain matrices of one array pair at P points, a (P, N_r,
    N_t) stack: point p has beam ``beams[p]`` and state ``states[p]``. Every
    method is the one erf product of :func:`_erf_factors`, fed the tilt
    (transmitter tilt), the displacement (displacement) or neither (aligned).
    Each gain is 0.25 fx fy, so erf runs per point only on the distinct
    (x_i, x_j) pairs, and likewise in y, then gathers: every matrix equals
    the full elementwise broadcast bit for bit. A warning about ignored state
    fields fires once per stack."""
    _check_link_distance(L)
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
    # + 0.0: a zero gain is +0, also where both factors are <= 0
    gains = 0.25 * fx[:, ix_i[:, None], ix_j] * fy[:, iy_i[:, None], iy_j] + 0.0
    if method is GainMethod.ALIGNED_CLOSED_FORM:
        on_axis = (rx_x[:, None] == tx_x) & (rx_y[:, None] == tx_y)
        gains[:, on_axis] = _per_point([gain_aligned(beam, L, rx.pd) for beam in beams])[:, 0]
    return gains


@lru_cache(maxsize=32)
def _pair_keys(L: float, tx: ArrayLayout, rx: ArrayLayout, state: MisalignmentState):
    """Unique element pairs of the exact route for one geometry: the (K, 7)
    link rows of the K pair keys, each from its key's first row-major entry,
    and the (N_r, N_t) key number of each entry, -1 for a non-positive
    distance; both read-only. Layouts hash by identity, so a ``beam.w0``
    sweep column, which keeps its layouts and state, collects its keys once."""
    tx_pos = tx_element_pose(tx.elements[:, 0], tx.elements[:, 1], state, L)
    rx_pos = rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)
    offsets = tx_pos[None, :, :] - rx_pos[:, None, :]  # (dx, dy, pair distance)
    keys: dict = {}  # pair key -> its number
    links = []  # link row of each key, from its first entry
    slot = []  # key number of each entry; -1 for a non-positive distance
    axial = state.is_axial
    angles = (state.phi_a, state.phi_e, state.psi_a, state.psi_e)
    for row in offsets.tolist():
        for dx, dy, l_pair in row:
            if l_pair <= 0:
                slot.append(-1)
                continue
            # gains for rotation-free states depend only on the radial offset
            key = (l_pair, math.hypot(dx, dy)) if axial else (l_pair, dx, dy)
            number = keys.setdefault(key, len(keys))
            if number == len(links):
                links.append((l_pair, dx, dy, *angles))
            slot.append(number)
    links = np.array(links, dtype=float).reshape(-1, 7)
    slot = np.array(slot, dtype=int).reshape(rx.n_elements, tx.n_elements)
    links.flags.writeable = slot.flags.writeable = False
    return links, slot


def mimo_matrix(
    beam: BeamParams,
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    state: MisalignmentState,
    method: GainMethod | str = GainMethod.EXACT_GMM,
) -> np.ndarray:
    """Assemble the N_r x N_t array-to-array gain matrix (rows: receiver
    elements, columns: transmitter elements) as a float array.

    Each entry treats its transmitter/receiver element pair as a single
    link: element positions are rotated and displaced with their array,
    then the single-link gain is evaluated with the pair's own distance
    and center offsets while keeping the array orientation angles. The
    closed forms are the one-point case of :func:`_closed_form_stack`
    (erf on distinct coordinate pairs only). The exact route integrates each
    unique element pair once, with the pairs of a geometry collected once
    and cached (:func:`_pair_keys`), so a beam sweep reuses them.
    """
    method = GainMethod(method)
    if rx.pd is None:
        raise ValueError("receiver layout must carry PD geometry")

    if method is not GainMethod.EXACT_GMM:
        return _closed_form_stack([beam], L, tx, rx, [state], method)[0]

    # exact route: one batched quadrature over the unique element pairs
    links, slot = _pair_keys(L, tx, rx, state)
    for i, j in np.argwhere(slot < 0).tolist():
        warn(f"non-positive pair distance for entry ({i}, {j}); gain set to 0")
    # a failing key is located at its first entry
    values = _exact_gains(beam, rx.pd, links,
                          lambda k: f"entry {divmod(int(np.argmax(slot == k)), tx.n_elements)}")
    found = slot >= 0
    gains = np.zeros(slot.shape)
    gains[found] = values[slot[found]]
    return gains


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

