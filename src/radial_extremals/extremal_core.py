"""Coordinate conventions, the weighted-arc-length Lagrangian, and residual
checks for the stationarity conditions.

Angle convention: phi is measured from the positive y-axis toward the
positive x-axis, tan(phi) = x/y, so x = z*sin(phi) and y = z*cos(phi).
(The conventional polar angle is theta_std = pi/2 - phi.)

For curves written as graphs y(x) with slope p = dy/dx, the integrand of
``integral of v ds`` is V(x, y, p) = v(z) * sqrt(1 + p^2), z = sqrt(x^2+y^2),
and with dV = M dx + N dy + P dp the stationarity condition is N dx = dP.
The equivalent form M dx = d(V - P*p) is often better conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMonotoneAbscissa, real, real_array
from .weights import RadialWeight, eval_v, eval_vq

__all__ = ["CartesianPoint", "PolarPoint", "ELPartials",
           "lagrangian_partials_cartesian", "clairaut_constant",
           "el_residual", "beltrami_residual"]


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float


@dataclass(frozen=True)
class PolarPoint:
    phi: float  # radians from the +y axis, tan(phi) = x/y
    z: float    # distance from the pole, > 0


@dataclass(frozen=True)
class ELPartials:
    """Partials of V(x, y, p) = v*sqrt(1+p^2): dV = M dx + N dy + P dp."""
    V: float
    M: float
    N: float
    P: float


def _partials(x, y, p, w: RadialWeight):
    """(V, M, N, P) of V = v(z)*sqrt(1+p^2), z = hypot(x, y), for scalars
    (math.hypot) or arrays (np.hypot, which rounds differently)."""
    z = np.hypot(x, y) if np.ndim(x) else math.hypot(x, y)
    v, q = eval_vq(w, z)
    root = np.sqrt(1.0 + p * p)
    return v * root, q * x * root / z, q * y * root / z, v * p / root


def lagrangian_partials_cartesian(pt: CartesianPoint, p: float,
                                  w: RadialWeight) -> ELPartials:
    """Partials of V = v(z)*sqrt(1+p^2) at a point with slope p = dy/dx."""
    x, y, p = (real(k, a) for k, a in (("x", pt.x), ("y", pt.y), ("p", p)))
    return ELPartials(*map(float, _partials(x, y, p, w)))


def clairaut_constant(r, dtheta_dr, w: RadialWeight):
    """Conserved tangential momentum v*p*r^2/sqrt(1+p^2*r^2), p = dtheta/dr.

    Along any extremal this equals a constant 1/n.  The point-at-infinity
    marker (math.inf) for dtheta_dr encodes a tangent perpendicular to the
    radius, where the limit is v*r with the marker's sign.  r and dtheta_dr
    may be scalars or arrays; each entry has its scalar call's bits
    (math.hypot is applied per entry, because np.hypot rounds differently).
    """
    r = real_array("r", r)
    p = real_array("dtheta_dr", dtheta_dr, infinite=True)   # the marker too
    v = eval_v(w, r)
    r, p = np.broadcast_arrays(r, p)
    rp = p * r
    hyp = np.reshape([math.hypot(1.0, x) for x in rp.ravel().tolist()],
                     rp.shape)
    with np.errstate(invalid="ignore"):   # inf/inf where the marker is
        out = np.where(np.isinf(p), np.copysign(v * r, p), v * r * rp / hyp)
    return float(out) if out.ndim == 0 else out


def _local_dx(x: np.ndarray) -> np.ndarray:
    dx = np.empty_like(x)
    dx[1:-1] = 0.5 * (x[2:] - x[:-2])
    dx[0] = x[1] - x[0]
    dx[-1] = x[-1] - x[-2]
    return dx


def _graph_partials(samples, w: RadialWeight):
    """Abscissae, slopes and (V, M, N, P) of a sampled graph, the slopes
    from second-order differences (central in the interior, one-sided at
    the two ends)."""
    pts = real_array("samples", samples)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"samples must be (x, y) rows, got shape "
                          f"{pts.shape}")
    x, y = pts.T
    if len(x) < 5:
        raise DomainError("need at least 5 samples")
    if not np.all(np.diff(x) > 0.0):
        raise NonMonotoneAbscissa("abscissae must be strictly increasing")
    p = np.gradient(y, x, edge_order=2)
    return x, p, _partials(x, y, p, w)


def el_residual(samples, w: RadialWeight) -> np.ndarray:
    """Discrete residual of the stationarity condition N dx = dP at samples,
    a (K, 2) array-like of (x, y) rows with x strictly increasing.

    Slopes and dP/dx come from second-order finite differences (central in
    the interior, one-sided at the two ends).  The returned per-sample values
    (N - dP/dx) * dx_local vanish at second order iff the sampled graph is an
    extremal; end entries use one-sided stencils and should be excluded from
    max-residual gates.
    """
    x, _, (_, _, N, P) = _graph_partials(samples, w)
    return (N - np.gradient(P, x, edge_order=2)) * _local_dx(x)


def beltrami_residual(samples, w: RadialWeight) -> np.ndarray:
    """Discrete residual of the equivalent condition M dx = d(V - P*p)."""
    x, p, (V, M, _, P) = _graph_partials(samples, w)
    # V - P*p equals v/sqrt(1+p^2)
    return (M - np.gradient(V - P * p, x, edge_order=2)) * _local_dx(x)
