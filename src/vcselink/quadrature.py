"""Integration of smooth integrands over a circular disk.

Two independent routes: a deterministic adaptive Gauss-Legendre scheme in
polar coordinates (production path) and a seeded uniform Monte-Carlo
integrator (cross-validation path). Integrands receive numpy arrays of x
and y coordinates and must broadcast elementwise. The adaptive scheme also
integrates a batch of integrands at once over the same disk.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Integral

import numpy as np

__all__ = [
    "DiskQuadratureError",
    "integrate_disk",
    "integrate_disk_mc",
]

_BASE_RADIAL_ORDER = 8
# refinement doubles the tensor order until two successive estimates agree
# to _REL_TOL (or _ABS_TOL for near-zero integrals), at most
# _MAX_SUBDIVISIONS times; _REL_TOL sits two orders below the smallest
# approximation error this package ever needs to resolve, so quadrature
# error never contaminates a comparison
_REL_TOL = 1e-9
_ABS_TOL = 1e-14
_MAX_SUBDIVISIONS = 8
_ANGULAR_FACTOR = 2  # angular order per radial order; trapezoid is spectral here
# most points per integrand call, which bounds the size of its temporaries
# (128 KiB arrays); with the 16 MiB mmap threshold that __init__.py sets they
# stay on the heap. Against 1 << 13 the exact-tilt benchmark ran 13-20%
# faster (two sets of 4 interleaved pairs) for 0.6 MB more peak RSS; 1 << 15
# and 1 << 16 added 2.2 and 3.9 MB (2-core x86-64 VM, glibc)
_CHUNK_POINTS = 1 << 14


class DiskQuadratureError(RuntimeError):
    """Raised when refinement is exhausted before the tolerance is met.

    Carries the best estimate and the last inter-level difference as an
    error bound; ``context`` locates the failing evaluation (e.g. a matrix
    entry).
    """

    def __init__(self, estimate: float, error_bound: float, context: str = ""):
        where = f" [{context}]" if context else ""
        super().__init__(
            f"disk quadrature did not converge{where}: estimate {estimate!r}, "
            f"error bound {error_bound!r}"
        )
        self.estimate = estimate
        self.error_bound = error_bound
        self.context = context


@lru_cache(maxsize=32)
def _polar_nodes(n_radial: int):
    t, wt = np.polynomial.legendre.leggauss(n_radial)
    n_ang = _ANGULAR_FACTOR * n_radial
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    nodes = t, wt, np.cos(theta), np.sin(theta)
    for a in nodes:
        a.flags.writeable = False  # cached: a write would corrupt every later integral
    return nodes


def _fixed_order(f, radius: float, n_radial: int, active: np.ndarray) -> np.ndarray:
    """Fixed-order estimates of the integrals numbered ``active``.

    ``f`` sees a block of integrals against a block of radial rows of the
    node grid: whole integrals while one fits into ``_CHUNK_POINTS``
    points, else some rows of one integral (never less than one row).
    """
    t, wt, cos_t, sin_t = _polar_nodes(n_radial)
    r = radius * 0.5 * (t + 1.0)
    # radial weight includes the polar Jacobian r
    w_r = wt * (radius * 0.5) * r
    n_ang = len(cos_t)
    x = (r[:, None] * cos_t)[None]
    y = (r[:, None] * sin_t)[None]
    index = active[:, None, None]
    per_call = max(1, _CHUNK_POINTS // (n_radial * n_ang))
    rows = min(n_radial, max(1, _CHUNK_POINTS // n_ang))
    row_sums = np.empty((len(active), n_radial))
    for lo in range(0, len(active), per_call):
        k = index[lo : lo + per_call]
        for top in range(0, n_radial, rows):
            shape = (len(k), min(rows, n_radial - top), n_ang)
            vals = np.asarray(f(x[:, top : top + rows], y[:, top : top + rows], k), dtype=float)
            if vals.shape != shape:
                vals = np.broadcast_to(vals, shape)
            row_sums[lo : lo + per_call, top : top + rows] = vals.sum(axis=2)
    return (row_sums * w_r).sum(axis=1) * (2.0 * np.pi / n_ang)


def _integrate_disks(f, radius: float, count: int, where, settled=None):
    """Integrate ``count`` integrands over the same disk in one adaptive pass.

    ``f(x, y, k)`` gets node coordinates ``x``, ``y`` of shape (1, rows,
    angles) and integral numbers ``k`` of shape (m, 1, 1), and returns the
    values of those integrals at those nodes, shape (m, rows, angles).
    Every integral runs the same order doubling and convergence test as a
    lone :func:`integrate_disk` call and leaves the batch once it converges,
    so each result is bit-identical to integrating it alone. On failure the
    lowest-numbered unconverged integral is reported, located by
    ``where(k)``.

    ``settled`` marks, per integral, those whose integrand is non-negative
    and whose integral a bound B of at most ``_ABS_TOL``/2 certifies
    (``channel._integral_bound``: B = 2 r^2 / w^2(z_c - r) exp(-2 max(rho_c
    - r, 0)^2 / w^2(z_c + r)) cos(theta) for a spot about (z_c, rho_c) at
    the disk centre). Quadrature weights are positive and sum to the disk
    area, so both estimates of the first test lie in [0, B] and differ by
    less than ``_ABS_TOL``: the test accepts such an integral whatever its
    first estimate is. A settled integral therefore skips the first order,
    enters the first test as converged and returns the second estimate,
    the bits it gets unmarked.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    result = np.empty(count)
    active = np.arange(count)
    settled = np.zeros(count, dtype=bool) if settled is None else settled
    prev = np.zeros(count)
    prev[~settled] = _fixed_order(f, radius, _BASE_RADIAL_ORDER, active[~settled])
    for level in range(1, _MAX_SUBDIVISIONS + 1):
        cur = _fixed_order(f, radius, _BASE_RADIAL_ORDER << level, active)
        diff = np.abs(cur - prev)
        done = settled | (diff <= np.maximum(_REL_TOL * np.abs(cur), _ABS_TOL))
        result[active[done]] = cur[done]
        active, prev, diff = active[~done], cur[~done], diff[~done]
        settled = settled[~done]  # all False: every settled integral is done
        if not len(active):
            return result
    raise DiskQuadratureError(
        estimate=float(prev[0]), error_bound=float(diff[0]), context=where(active[0])
    )


def integrate_disk(f, radius: float) -> float:
    """Integrate ``f(x, y)`` over the disk x^2 + y^2 <= radius^2.

    Deterministic: identical inputs produce bit-identical results.
    Raises :class:`DiskQuadratureError` when ``_MAX_SUBDIVISIONS``
    doublings do not reach the tolerance.
    """
    values = _integrate_disks(lambda x, y, k: f(x, y), radius, 1, lambda k: "")
    return float(values[0])


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a ``value`` that is not an integer (a bool, a float, None)
    or is below ``minimum``, naming the argument."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def integrate_disk_mc(f, radius: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo disk integral with uniform sampling.

    Returns ``(estimate, std_error)``. Reproducible for a fixed seed; the
    standard error is the sample standard deviation of the integrand scaled
    by the disk area over sqrt(samples).
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    _check_count("samples", samples, 1000)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(samples))
    theta = 2.0 * np.pi * rng.random(samples)
    vals = np.asarray(f(r * np.cos(theta), r * np.sin(theta)), dtype=float)
    if vals.shape != r.shape:
        vals = np.broadcast_to(vals, r.shape)
    area = np.pi * radius * radius
    estimate = area * float(vals.mean())
    std_error = area * float(vals.std(ddof=1)) / np.sqrt(samples)
    return estimate, std_error
