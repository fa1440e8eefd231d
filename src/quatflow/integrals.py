"""Cauchy-type integral theorems for monogenic fields, checked numerically.

Three facilities built on the surface quadrature layer:

* ``verify_stokes``: the two-sided identity relating the boundary
  integral of g dsigma f to the volume integral of (gD)f + g(Df) over
  the enclosed solid.  Both routes are computed independently; the
  report carries their gap.
* ``verify_cauchy_theorem``: the boundary integral of dsigma f alone,
  which must vanish for a monogenic f on a closed surface.
* ``cauchy_reconstruct``: evaluation of a monogenic field at an interior
  point from its boundary values against the Cauchy kernel

      E(x) = conj(x) / (4 pi |x|^3).

Reconstruction refuses points closer to the surface than a margin of
ten mean node spacings, where the kernel is too peaked for the grid;
that raises MarginError rather than returning a silently bad value.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .quaternion import I, J, Quaternion, ReducedPoint, qmul
from .fields import QuaternionField, _as_field
from .potentials import dipole_flow
from .surfaces import (
    RegularBody,
    _surface_of,
    norm_rows,
    in_node_order,
    integrate_g_dsigma_f,
    quadrature_sum,
)

import numpy as np

__all__ = [
    "cauchy_kernel",
    "cauchy_kernel_field",
    "TheoremReport",
    "verify_stokes",
    "verify_cauchy_theorem",
    "MarginError",
    "reconstruction_margin",
    "cauchy_reconstruct",
]

_KERNEL_SCALE = 1.0 / (4.0 * math.pi)


def cauchy_kernel(p: ReducedPoint,
                  pole: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> Quaternion:
    """E(p - pole); two-sided monogenic in p away from the pole."""
    d = p - pole
    r3 = d.norm() ** 3
    if r3 == 0.0:
        raise ZeroDivisionError("Cauchy kernel evaluated at its pole")
    return Quaternion(d.x / r3, -d.y / r3, -d.z / r3, 0.0) * _KERNEL_SCALE


def cauchy_kernel_field(pole: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> QuaternionField:
    """The kernel as a field with analytic jet (a unit dipole over 4 pi)."""
    field = dipole_flow(_KERNEL_SCALE, center=pole).field
    field.name = f"cauchy_kernel(pole={pole.as_tuple()})"
    return field


class TheoremReport(NamedTuple):
    """Outcome of a numerically verified integral identity."""

    lhs: Quaternion
    rhs: Quaternion
    gap: float
    ok: bool
    tol: float
    order: int
    node_count: int
    description: str

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"{self.description}: gap {self.gap:.3e} "
                f"(tol {self.tol:.1e}, order {self.order}, "
                f"{self.node_count} nodes) {status}")


def _stokes_volume_side(body: RegularBody, g, f, order: int) -> Quaternion:
    """The volume integral of (gD) f + g (Df), from array jet tables.

    A side that is None is the constant 1; its derivative term drops out.
    An error is the first one that g's jet, then f's, node by node meet.
    """
    vn = body.volume_nodes(order)
    gj, fj = in_node_order(
        lambda xyz: [None if h is None   # slots of (4, N) component rows
                     else _as_field(h).jet_array(xyz).transpose(0, 2, 1)
                     for h in (g, f)],
        lambda p: [_as_field(h).jet_at(p) for h in (g, f) if h is not None],
        vn.point_array)
    rows = 0.0
    if gj is not None:
        gd = gj[1] + qmul(gj[2], I.as_tuple()) + qmul(gj[3], J.as_tuple())
        rows = rows + (gd if fj is None else qmul(gd, fj[0]))
    if fj is not None:
        df = fj[1] + qmul(I.as_tuple(), fj[2]) + qmul(J.as_tuple(), fj[3])
        rows = rows + (df if gj is None else qmul(gj[0], df))
    return Quaternion(*quadrature_sum(vn, rows))


def verify_stokes(body: RegularBody, g, f, order: int = 12,
                  tol: float = 1e-8) -> TheoremReport:
    """Compare the boundary integral of g dsigma f with its volume form.

    The volume integrand is (gD) f + g (Df) with the right action on g
    and the left action on f; either side may be None for the constant 1
    (its derivative term then drops out).  The two routes are evaluated
    on independent quadratures, so agreement is a genuine cross-check of
    orientation, elements and derivatives at once.
    """
    surface_side = integrate_g_dsigma_f(body.surface, g, f, order)
    volume_side = (Quaternion() if g is None and f is None
                   else _stokes_volume_side(body, g, f, order))
    gap = (surface_side - volume_side).norm()
    return TheoremReport(surface_side, volume_side, gap, gap <= tol, tol,
                         order, body.surface.node_count(order),
                         "boundary vs volume")


def verify_cauchy_theorem(surface, f, order: int = 12,
                          tol: float = 1e-8) -> TheoremReport:
    """Boundary integral of dsigma f on a closed surface; zero if Df = 0."""
    surf = _surface_of(surface)
    lhs = integrate_g_dsigma_f(surf, None, f, order)
    gap = lhs.norm()
    return TheoremReport(lhs, Quaternion(), gap, gap <= tol, tol, order,
                         surf.node_count(order),
                         "closed-surface integral of dsigma f")


class MarginError(ValueError):
    """Reconstruction point too close to the surface for the node density."""


# Mean node spacings a reconstruction point must keep from every node.
_MARGIN_FACTOR = 10.0


def reconstruction_margin(surface, order: int) -> float:
    """Margin distance: ``_MARGIN_FACTOR`` times the mean node spacing
    sqrt(area/N)."""
    surf = _surface_of(surface)
    area = surf.area(order)
    n = surf.node_count(order)
    return _MARGIN_FACTOR * math.sqrt(area / n)


def cauchy_reconstruct(surface, f, point: ReducedPoint,
                       order: int = 48) -> Quaternion:
    """Reconstruct a left-monogenic f at an interior point from the boundary.

    Computes the boundary integral of E(x - point) dsigma(x) f(x).  The
    point must keep a distance of at least ``_MARGIN_FACTOR`` (10) mean
    node spacings from every quadrature node; closer points raise
    MarginError because the kernel peak outruns the grid resolution there.
    Points outside the body are not detected (the integral is then about
    zero); a point with a NaN or infinite coordinate raises ValueError.
    """
    if not all(map(math.isfinite, point.as_tuple())):
        raise ValueError(f"point {point.as_tuple()} is not finite")
    surf = _surface_of(surface)
    margin = reconstruction_margin(surf, order)
    centre = np.array(point.as_tuple())[:, None]
    dist = float(np.min(norm_rows(surf.nodes(order).point_rows - centre)))
    if dist < margin:
        raise MarginError(
            f"point {point.as_tuple()} is {dist:.3f} from the surface but "
            f"the order-{order} grid needs a margin of {margin:.3f}; "
            f"raise the order or move the point inward")
    return integrate_g_dsigma_f(surf, cauchy_kernel_field(point), f, order)
