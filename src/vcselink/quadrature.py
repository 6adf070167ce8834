"""Integration of smooth integrands over a circular disk.

Two independent routes: a deterministic adaptive Gauss-Legendre scheme in
polar coordinates (production path) and a seeded uniform Monte-Carlo
integrator (cross-validation path). Integrands receive numpy arrays of x
and y coordinates and must broadcast elementwise. The adaptive scheme also
integrates a batch of integrands at once over the same disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "DiskQuadratureError",
    "integrate_disk",
    "integrate_disk_mc",
]

_BASE_RADIAL_ORDER = 8
_ANGULAR_FACTOR = 2  # angular order per radial order; trapezoid is spectral here
# most points per integrand call, which bounds the size of its temporaries;
# at 1 << 14 (128 KB arrays) glibc trims and re-faults the heap top on
# every call, which made matrix assembly about 1.5x slower (x86-64, glibc)
_CHUNK_POINTS = 1 << 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Termination control for the adaptive disk integrator.

    Refinement doubles the tensor order until two successive estimates agree
    to ``rel_tol`` (or ``abs_tol`` for near-zero integrals). The default
    rel_tol sits two orders below the smallest approximation error this
    package ever needs to resolve, so quadrature error never contaminates a
    comparison.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 8

    def __post_init__(self) -> None:
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


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
    return t, wt, np.cos(theta), np.sin(theta)


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


def _integrate_disks(f, radius: float, count: int, spec: QuadratureSpec | None, where):
    """Integrate ``count`` integrands over the same disk in one adaptive pass.

    ``f(x, y, k)`` gets node coordinates ``x``, ``y`` of shape (1, rows,
    angles) and integral numbers ``k`` of shape (m, 1, 1), and returns the
    values of those integrals at those nodes, shape (m, rows, angles).
    Every integral runs the same order doubling and convergence test as a
    lone :func:`integrate_disk` call and leaves the batch once it converges,
    so each result is bit-identical to integrating it alone. On failure the
    lowest-numbered unconverged integral is reported, located by
    ``where(k)``.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    spec = spec or QuadratureSpec()
    result = np.empty(count)
    active = np.arange(count)
    prev = _fixed_order(f, radius, _BASE_RADIAL_ORDER, active)
    for level in range(1, spec.max_subdivisions + 1):
        cur = _fixed_order(f, radius, _BASE_RADIAL_ORDER << level, active)
        diff = np.abs(cur - prev)
        done = diff <= np.maximum(spec.rel_tol * np.abs(cur), spec.abs_tol)
        result[active[done]] = cur[done]
        active, prev, diff = active[~done], cur[~done], diff[~done]
        if not len(active):
            return result
    raise DiskQuadratureError(
        estimate=float(prev[0]), error_bound=float(diff[0]), context=where(active[0])
    )


def integrate_disk(f, radius: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate ``f(x, y)`` over the disk x^2 + y^2 <= radius^2.

    Deterministic: identical inputs produce bit-identical results.
    Raises :class:`DiskQuadratureError` when ``spec.max_subdivisions``
    doublings do not reach the requested tolerance.
    """
    values = _integrate_disks(lambda x, y, k: f(x, y), radius, 1, spec, lambda k: "")
    return float(values[0])


def integrate_disk_mc(f, radius: float, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo disk integral with uniform sampling.

    Returns ``(estimate, std_error)``. Reproducible for a fixed seed; the
    standard error is the sample standard deviation of the integrand scaled
    by the disk area over sqrt(samples).
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
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
