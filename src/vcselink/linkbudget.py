"""Electrical-domain link analysis.

DC-biased OFDM signal power, receiver noise variance, per-stream SINR with
and without SVD eigenmode decomposition, adaptive-QAM spectral efficiency
and aggregate throughput, plus small utilities (eye-safety power cap,
normalized mean square error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._warn import warn

__all__ = [
    "BOLTZMANN",
    "ELEMENTARY_CHARGE",
    "LinkParams",
    "Mode",
    "RateReport",
    "electrical_signal_power",
    "noise_variance",
    "sinr_direct",
    "svd_thin",
    "sinr_svd",
    "sinr_gap",
    "bits_per_symbol",
    "aggregate_rate",
    "eye_safe_power_limit",
    "nmse",
    "write_rates_csv",
]

BOLTZMANN = 1.380649e-23  # J/K
ELEMENTARY_CHARGE = 1.602177e-19  # C

_SINR_VALIDITY_LINEAR = 1e3  # 30 dB, upper edge of the adaptive-QAM fit


@dataclass(frozen=True)
class LinkParams:
    """Electrical/optical front-end parameters of one array link.

    Defaults follow the reference design: 1 mW per laser, 20 GHz system
    bandwidth, -155 dB/Hz RIN, 0.4 A/W responsivity, 50 ohm load, 5 dB
    amplifier noise figure, 290 K, target BER 1e-3, 64-point FFT. ``rin``
    and ``noise_figure`` are linear quantities.
    """

    p_t: float = 1e-3
    bandwidth: float = 20e9
    responsivity: float = 0.4
    rin: float = 10 ** (-155 / 10)
    load_resistance: float = 50.0
    noise_figure: float = 10 ** (5 / 10)
    temperature: float = 290.0
    target_ber: float = 1e-3
    n_fft: int = 64

    def __post_init__(self) -> None:
        positive = {
            "p_t": self.p_t,
            "bandwidth": self.bandwidth,
            "responsivity": self.responsivity,
            "rin": self.rin,
            "load_resistance": self.load_resistance,
            "noise_figure": self.noise_figure,
            "temperature": self.temperature,
            "target_ber": self.target_ber,
        }
        for name, value in positive.items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.target_ber > 1e-2:
            raise ValueError("target_ber above 1e-2 is outside the QAM fit validity")
        n = self.n_fft
        if not isinstance(n, int) or isinstance(n, bool) or n < 64 or n & (n - 1):
            raise ValueError(f"n_fft must be an integer power of two >= 64, got {n!r}")

    @property
    def subcarrier_efficiency(self) -> float:
        """Usable fraction of the OFDM frame, (n_fft - 2)/n_fft."""
        return (self.n_fft - 2) / self.n_fft


class Mode(str, Enum):
    DIRECT = "direct"
    SVD = "svd"


def electrical_signal_power(p_t: float) -> float:
    """Electrical OFDM signal power under the 3-sigma DC bias rule: p_t^2/9.

    The DC bias equals the per-laser optical power and is set to three
    standard deviations of the OFDM envelope, which keeps 99.7% of the
    waveform unclipped.
    """
    if not 0.0 < p_t < math.inf:
        raise ValueError(f"p_t must be finite and > 0, got {p_t!r}")
    return p_t * p_t / 9.0


def noise_variance(gains, params: LinkParams):
    """Total receiver-branch noise variance (A^2) of one detector, or of
    each detector of a stack of gain rows (last axis = transmitters).

    Thermal 4kT/R_L * B * F + shot + RIN; shot and RIN terms depend on the
    total optical power collected from all transmitters, i.e. on the
    detector's full gain row. Returns a float for one row, else one
    variance per row.
    """
    photo = params.responsivity * np.atleast_1d(np.asarray(gains, dtype=float)) * params.p_t
    thermal = (4.0 * BOLTZMANN * params.temperature / params.load_resistance
               * (params.bandwidth * params.noise_figure))
    shot = 2.0 * ELEMENTARY_CHARGE * photo.sum(axis=-1) * params.bandwidth
    rin = params.rin * (photo**2).sum(axis=-1) * params.bandwidth
    total = thermal + shot + rin
    return float(total) if np.ndim(total) == 0 else total


def _as_gains(h, square: bool = False) -> np.ndarray:
    gains = np.asarray(h, dtype=float)
    if square and (gains.ndim != 2 or gains.shape[0] != gains.shape[1]):
        raise ValueError("direct mode requires a square channel matrix")
    if gains.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return gains


def _served_sinr(gains: np.ndarray, serving, params: LinkParams):
    """Direct-mode SINR of each detector row of ``gains`` (last axis =
    transmitters) whose signal comes from transmitter ``serving[...]``; the
    other transmitters of the row interfere. No precoding."""
    g2 = gains**2
    serving = np.broadcast_to(serving, g2.shape[:-1])
    own = np.take_along_axis(g2, serving[..., None], axis=-1)[..., 0]
    scale = params.responsivity**2 * electrical_signal_power(params.p_t)
    return scale * own / (scale * (g2.sum(axis=-1) - own) + noise_variance(gains, params))


def sinr_direct(h, i: int, params: LinkParams) -> float:
    """Per-subcarrier SINR of stream ``i`` (0-based) without precoding.

    Requires a square matrix: each transmitter is paired with the detector
    of the same index, the remaining row entries act as crosstalk.
    """
    return float(_served_sinr(_as_gains(h, square=True)[i], i, params))


def svd_thin(h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of an N_r x N_t matrix with N_r >= N_t.

    Returns (U, singular_values, V) with descending singular values,
    orthonormal U columns and orthogonal V such that U @ diag(s) @ V.T
    reconstructs the input to rounding. The singular values are those of
    the link budget, bit for bit; U and V come from LAPACK's full route,
    whose own singular values may differ from them by a few ulps.
    """
    gains = _as_gains(h)
    s = _singular_values(gains)
    u, _, vh = np.linalg.svd(gains, full_matrices=False)
    return u, s, vh.T


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Descending singular values of a matrix or a stack of them with
    N_r >= N_t, from LAPACK's values-only route; NaN for a matrix with a
    NaN or infinite entry, which LAPACK would reject or turn to NaN."""
    if stack.shape[-2] < stack.shape[-1]:
        raise ValueError("svd_thin requires N_r >= N_t")
    finite = np.isfinite(stack).all(axis=(-2, -1))
    values = np.full(stack.shape[:-2] + stack.shape[-1:], np.nan)
    values[finite] = np.linalg.svd(stack[finite], compute_uv=False)
    return values


def sinr_svd(singular_value, sigma_sq, params: LinkParams):
    """Per-subcarrier SNR of one eigenmode stream, or element-wise over
    arrays of singular values and noise variances."""
    p_elec = electrical_signal_power(params.p_t)
    return params.responsivity**2 * singular_value**2 * p_elec / sigma_sq


def sinr_gap(target_ber: float) -> float:
    """SINR penalty of adaptive QAM at the given BER: -ln(5*BER)/1.5."""
    if not 0.0 < target_ber <= 1e-2:
        raise ValueError("target_ber must be in (0, 1e-2]")
    return -math.log(5.0 * target_ber) / 1.5


def bits_per_symbol(gamma, target_ber: float):
    """Adaptive-QAM spectral efficiency log2(1 + gamma/Gap), bits/symbol,
    of one SINR or element-wise over an array of them.

    The fit is validated for SINR up to 30 dB; larger values are accepted
    with one warning per call.
    """
    gamma = np.asarray(gamma, dtype=float)
    if (gamma < 0).any():
        raise ValueError("gamma must be >= 0")
    if (gamma > _SINR_VALIDITY_LINEAR).any():
        warn("SINR above 30 dB is outside the adaptive-QAM fit validity")
    bits = np.log2(1.0 + gamma / sinr_gap(target_ber))
    return float(bits) if bits.ndim == 0 else bits


@dataclass(frozen=True)
class RateReport:
    """Per-stream SINR/bits/rate breakdown plus the aggregate throughput."""

    per_link_sinr: np.ndarray
    per_link_bits: np.ndarray
    per_link_rate: np.ndarray
    aggregate: float
    mode: Mode


def aggregate_rate(h, params: LinkParams, mode: Mode | str = Mode.DIRECT) -> RateReport:
    """Aggregate throughput of the array link.

    DIRECT mode needs a square matrix (one stream per matched pair, stream
    i served by transmitter i). SVD mode needs N_r >= N_t and allocates one
    stream per singular value; eigenmode stream i takes detector branch i's
    noise variance (not the U^T-combined noise of all branches). A SINR
    above the 30 dB QAM fit warns once per call. This is the one-matrix
    case of the stacked link budget that sweeps run.
    """
    gains = _as_gains(h, square=Mode(mode) is Mode.DIRECT)
    return _rate_reports(gains[None], params, mode).report(0)


@dataclass(frozen=True)
class _RateReports:
    """The link budget of a (P, N_r, N_t) gain stack: (P, streams) arrays
    of per-stream SINR, bits and rates, and the (P,) aggregates."""

    sinr: np.ndarray
    bits: np.ndarray
    rate: np.ndarray
    aggregate: np.ndarray
    mode: Mode

    def report(self, p: int) -> RateReport:
        """The rate report of matrix ``p``."""
        return RateReport(self.sinr[p], self.bits[p], self.rate[p], float(self.aggregate[p]),
                          self.mode)


def _rate_reports(stack: np.ndarray, params: LinkParams, mode: Mode | str) -> _RateReports:
    """:func:`aggregate_rate` of each matrix of a (P, N_r, N_t) gain stack
    that shares ``params``, computed once for the whole stack (one stacked
    values-only SVD, one noise, SINR and bits expression) and returned as
    stacked arrays. Each matrix's report equals its own ``aggregate_rate``
    bit for bit; the 30 dB QAM-fit warning fires once per stack."""
    mode = Mode(mode)
    n_t = stack.shape[-1]
    if mode is Mode.DIRECT:
        sinrs = _served_sinr(stack, np.arange(n_t), params)
    else:
        sinrs = sinr_svd(_singular_values(stack), noise_variance(stack[:, :n_t], params), params)
    bits = bits_per_symbol(sinrs, params.target_ber)
    rates = params.subcarrier_efficiency * params.bandwidth * bits
    return _RateReports(sinrs, bits, rates, rates.sum(axis=-1), mode)


def eye_safe_power_limit(mpe: float, pupil_diameter: float, eta: float = 1.0) -> float:
    """Maximum safe source power: MPE times the pupil area over the power
    fraction ``eta`` entering the pupil at the most hazardous position."""
    if not 0.0 <= mpe < math.inf:
        raise ValueError(f"mpe must be finite and >= 0, got {mpe!r}")
    if not 0.0 < pupil_diameter < math.inf:
        raise ValueError(f"pupil_diameter must be finite and > 0, got {pupil_diameter!r}")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    return mpe * math.pi * pupil_diameter**2 / 4.0 / eta


def nmse(exact, approx) -> float:
    """Normalized mean square error sum((e-a)^2)/sum(e^2)."""
    e = np.asarray(exact, dtype=float)
    a = np.asarray(approx, dtype=float)
    if e.shape != a.shape or e.size == 0:
        raise ValueError("nmse needs two equal-length, non-empty vectors")
    denom = float((e**2).sum())
    if denom == 0.0:
        raise ValueError("nmse undefined for an all-zero exact vector")
    return float(((e - a) ** 2).sum()) / denom


def _sinr_db(gamma: float) -> float:
    """SINR in dB: -inf for an SINR of 0, NaN for NaN."""
    if gamma == 0:
        return -math.inf
    return 10.0 * math.log10(gamma) if gamma > 0 else math.nan


def write_rates_csv(report: RateReport, path) -> None:
    """CSV serialization: link_index, sinr_db, bits_per_symbol, rate_bps
    rows plus an aggregate footer; 12 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write("link_index,sinr_db,bits_per_symbol,rate_bps\n")
        rows = zip(report.per_link_sinr, report.per_link_bits, report.per_link_rate)
        for idx, (g, b, r) in enumerate(rows, start=1):
            fh.write(f"{idx},{_sinr_db(g):.11e},{b:.11e},{r:.11e}\n")
        fh.write(f"aggregate,,,{report.aggregate:.11e}\n")

