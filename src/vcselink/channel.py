"""Channel DC gains for single links and arrays.

A link gain is the captured fraction of the transmitted optical power on a
circular photodetector. The exact route integrates the beam intensity over
the detector surface using the misalignment point kernel; closed-form
routes cover the aligned case and erf-product approximations for
displacement and transmitter tilt (square-equivalent aperture).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np
from scipy.special import erf

from .beam import BeamParams, spot_radius_sq
from .geometry import (
    MisalignmentState,
    _link_constants,
    array_element_xy,
    gmm_point_frame,
    rx_element_pose,
    tx_element_pose,
)
from .quadrature import QuadratureSpec, _integrate_disks, integrate_disk

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
    "read_gains_csv",
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
    ``pd`` is None for transmitter arrays.
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
    spec: QuadratureSpec | None = None,
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
        integrand, live = _link_integrand(beam, [(L, *astuple(state))])
        return integrate_disk(integrand, pd.radius, spec) if len(live) else 0.0
    links = [(L, *astuple(s)) for s in state]
    return _exact_gains(beam, pd, links, spec, lambda k: f"state {k}")


def _exact_gains(beam: BeamParams, pd: PdGeometry, links, spec, where) -> np.ndarray:
    """Exact gains of link rows (see :func:`_link_integrand`) in one batched
    quadrature; ``where(k)`` locates a failure of row k."""
    integrand, live = _link_integrand(beam, links)
    gains = np.zeros(len(links))
    gains[live] = _integrate_disks(
        integrand, pd.radius, len(live), spec, lambda k: where(live[k])
    )
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
    """erf-product gain for a purely displaced link.

    ``x_off``/``y_off`` are the receiver-minus-transmitter center offsets
    (including any array displacement). Accepts arrays and broadcasts.
    """
    _check_link_distance(L)
    w = math.sqrt(float(spot_radius_sq(L, beam)))
    a = _SQRT_PI * pd.radius
    c = _SQRT_2 * w
    x_off = np.asarray(x_off, dtype=float)
    y_off = np.asarray(y_off, dtype=float)
    fx = erf((a + 2.0 * x_off) / c) + erf((a - 2.0 * x_off) / c)
    fy = erf((a + 2.0 * y_off) / c) + erf((a - 2.0 * y_off) / c)
    out = 0.25 * fx * fy
    return float(out) if out.ndim == 0 else out


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
    is evaluated at the foreshortened distance L cos(phi_e) cos(phi_a).
    Accepts arrays for the positions and the angles and broadcasts.
    """
    _check_link_distance(L)
    ca, sa = np.cos(phi_a), np.sin(phi_a)
    ce, se = np.cos(phi_e), np.sin(phi_e)
    w_eff = np.sqrt(spot_radius_sq(L * ce * ca, beam))
    a = _SQRT_PI * pd.radius
    c = _SQRT_2 * w_eff
    x_i = np.asarray(x_i, dtype=float)
    y_i = np.asarray(y_i, dtype=float)
    x_term = x_i * ca - np.asarray(x_j, dtype=float) - L * sa
    y_term = y_i * ce - np.asarray(y_j, dtype=float) - L * se * ca
    fx = erf((a * ca + 2.0 * x_term) / c) + erf((a * ca - 2.0 * x_term) / c)
    fy = erf((a * ce + 2.0 * y_term) / c) + erf((a * ce - 2.0 * y_term) / c)
    out = 0.25 * fx * fy
    return float(out) if out.ndim == 0 else out


def mimo_matrix(
    beam: BeamParams,
    L: float,
    tx: ArrayLayout,
    rx: ArrayLayout,
    state: MisalignmentState,
    method: GainMethod | str = GainMethod.EXACT_GMM,
    spec: QuadratureSpec | None = None,
) -> np.ndarray:
    """Assemble the N_r x N_t array-to-array gain matrix (rows: receiver
    elements, columns: transmitter elements) as a float array.

    Each entry treats its transmitter/receiver element pair as a single
    link: element positions are rotated and displaced with their array,
    then the single-link gain is evaluated with the pair's own distance
    and center offsets while keeping the array orientation angles.
    """
    method = GainMethod(method)
    if rx.pd is None:
        raise ValueError("receiver layout must carry PD geometry")
    pd = rx.pd
    nt, nr = tx.n_elements, rx.n_elements

    if method is GainMethod.APPROX_DISPLACEMENT:
        if not state.is_axial:
            warnings.warn(
                "displacement approximation ignores orientation angles",
                stacklevel=2,
            )
        x_off = rx.elements[:, 0][:, None] - tx.elements[:, 0][None, :] - state.x_de
        y_off = rx.elements[:, 1][:, None] - tx.elements[:, 1][None, :] - state.y_de
        return gain_approx_displacement(beam, L, pd, x_off, y_off)

    if method is GainMethod.APPROX_TX_TILT:
        if state.x_de != 0.0 or state.y_de != 0.0 or state.psi_a != 0.0 or state.psi_e != 0.0:
            warnings.warn(
                "transmitter-tilt approximation ignores displacement and "
                "receiver angles",
                stacklevel=2,
            )
        x_i = rx.elements[:, 0][:, None]
        y_i = rx.elements[:, 1][:, None]
        x_j = tx.elements[:, 0][None, :]
        y_j = tx.elements[:, 1][None, :]
        return gain_approx_tx_tilt(beam, L, pd, x_i, y_i, x_j, y_j, state.phi_a, state.phi_e)

    if method is GainMethod.ALIGNED_CLOSED_FORM:
        if not state.is_aligned:
            raise ValueError("aligned closed form requires a zero misalignment state")
        x_off = rx.elements[:, 0][:, None] - tx.elements[:, 0][None, :]
        y_off = rx.elements[:, 1][:, None] - tx.elements[:, 1][None, :]
        gains = np.asarray(gain_approx_displacement(beam, L, pd, x_off, y_off))
        on_axis = (x_off == 0.0) & (y_off == 0.0)
        gains[on_axis] = gain_aligned(beam, L, pd)
        return gains

    # exact route: one batched quadrature over the unique element pairs
    tx_pos = tx_element_pose(tx.elements[:, 0], tx.elements[:, 1], state, L)
    rx_pos = rx_element_pose(rx.elements[:, 0], rx.elements[:, 1], state)
    offsets = tx_pos[None, :, :] - rx_pos[:, None, :]  # (dx, dy, pair distance)
    keys: dict = {}  # pair key -> its number
    firsts = []  # first entry (i, j) of each key, in row-major order
    links = []  # link row of each key, from its first entry
    slot = []  # key number of each entry; -1 for a non-positive distance
    axial = state.is_axial
    angles = (state.phi_a, state.phi_e, state.psi_a, state.psi_e)
    for i, row in enumerate(offsets.tolist()):
        for j, (dx, dy, l_pair) in enumerate(row):
            if l_pair <= 0:
                warnings.warn(
                    f"non-positive pair distance for entry ({i}, {j}); gain set to 0",
                    stacklevel=2,
                )
                slot.append(-1)
                continue
            # gains for rotation-free states depend only on the radial offset
            key = (l_pair, math.hypot(dx, dy)) if axial else (l_pair, dx, dy)
            number = keys.setdefault(key, len(keys))
            if number == len(firsts):
                firsts.append((i, j))
                links.append((l_pair, dx, dy, *angles))
            slot.append(number)
    values = _exact_gains(beam, pd, links, spec, lambda k: f"entry {firsts[k]}")
    slot = np.array(slot).reshape(nr, nt)
    found = slot >= 0
    gains = np.zeros((nr, nt))
    gains[found] = values[slot[found]]
    return gains


def write_gains_csv(gains: np.ndarray, path) -> None:
    """CSV serialization of an N_r x N_t gain array: header ``j=1..Nt``, one
    row per receiver element."""
    _write_csv(path, [f"j={j + 1}" for j in range(gains.shape[1])], gains)


def _write_csv(path, header, rows) -> None:
    """Float table as CSV: header line, rows at 12 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.11e}" for v in row) + "\n")


def read_gains_csv(path) -> np.ndarray:
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    gains = np.array(rows)
    if gains.shape[1] != len(header):
        raise ValueError("gain CSV width does not match its header")
    return gains
