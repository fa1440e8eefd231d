"""Classical planar potential flow: complex potentials, contour integrals,
and the 2D force and moment formulas.

This module is the reference side of the dimension-reduction checks: a
holomorphic potential f(zeta) embeds into the quaternion algebra as
Re f + (Im f) i, and the 3D machinery evaluated on an extruded cylinder
must reproduce what the residue-based contour formulas give here.

Conventions: velocity components satisfy u - iv = f'; the force integral
is F_x - i F_y = (i rho / 2) contour-integral of (f')^2 dzeta, returned
as the complex number F_x + i F_y; the moment about z0 is
-(rho/2) Re contour-integral of (zeta - z0) (f')^2 dzeta.  Both formulas
presuppose the contour is a streamline (the physical body), which is
checked numerically and enforced.

Every callable here maps numpy arrays elementwise: a contour integral or
a streamline check calls each one once on all the nodes, and the 3D
routes get array jets from ``embed_2d``.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Optional

import numpy as np

from .quaternion import ReducedPoint
from .forces import force_blasius, moment_quadratic
from .potentials import FlowPotential, _cylinder_forms, embedded_potential
from .surfaces import RegularBody, _scaled_gauss

__all__ = [
    "ComplexPotential",
    "uniform_2d",
    "cylinder_2d",
    "cylinder_vortex_2d",
    "kutta_joukowski_lift",
    "PlanarContour",
    "contour_integral",
    "StreamlineError",
    "streamline_residual",
    "blasius_force_2d",
    "blasius_moment_2d",
    "embed_2d",
    "ReductionReport",
    "reduce_and_compare",
]


class ComplexPotential:
    """A holomorphic potential f with its derivative, both explicit.

    ``f``, ``df`` and ``domain2d`` map one complex number or, elementwise,
    a numpy complex array; one that takes only numbers raises TypeError.
    """

    def __init__(self, f: Callable[[complex], complex],
                 df: Callable[[complex], complex],
                 domain2d: Optional[Callable[[complex], bool]] = None,
                 name: str = ""):
        self.f = f
        self.df = df
        self.domain2d = domain2d
        self.name = name

    def _checked(self, fn, z):
        """fn(z), after ValueError names the first z outside the domain."""
        if self.domain2d is not None:
            inside = np.asarray(self.domain2d(z))
            if not inside.all():
                raise ValueError(f"{self.name or 'potential'} undefined at "
                                 f"{np.ravel(z)[np.argmin(inside)]}")
        return fn(z)

    def __call__(self, z: complex) -> complex:
        return self._checked(self.f, z)

    def derivative(self, z: complex) -> complex:
        return self._checked(self.df, z)

    def velocity(self, z: complex) -> complex:
        """u + iv with u - iv = f'."""
        return self.derivative(z).conjugate()


def uniform_2d(speed: float) -> ComplexPotential:
    u = float(speed)
    return ComplexPotential(lambda z: u * z, lambda z: u + 0j * z,
                            name=f"uniform2d({u})")


def cylinder_2d(speed: float, radius: float) -> ComplexPotential:
    u, a = float(speed), float(radius)
    return ComplexPotential(*_cylinder_forms(u, a),
                            name=f"cylinder2d(U={u},a={a})")


def cylinder_vortex_2d(speed: float, radius: float,
                       circulation: float) -> ComplexPotential:
    u, a, gamma = float(speed), float(radius), float(circulation)
    return ComplexPotential(*_cylinder_forms(u, a, gamma),
                            name=f"cylinder2d(U={u},a={a},G={gamma})")


def kutta_joukowski_lift(rho: float, speed: float,
                         circulation: float) -> complex:
    """The classical lift F_x + i F_y = -i rho U Gamma."""
    return complex(0.0, -float(rho) * float(speed) * float(circulation))


class PlanarContour:
    """A closed parametric curve with analytic tangent.

    ``z`` and ``dz`` map a float, or a numpy array elementwise.
    Quadrature is composite Gauss-Legendre: the parameter interval is cut
    into equal panels, each carrying a Gauss rule of the requested order.
    """

    def __init__(self, z: Callable[[float], complex],
                 dz: Callable[[float], complex],
                 s_range: tuple[float, float] = (0.0, 2.0 * math.pi),
                 panels: int = 8, name: str = ""):
        self.z = z
        self.dz = dz
        self.s_range = (float(s_range[0]), float(s_range[1]))
        if panels < 1:
            raise ValueError("a contour needs at least one panel")
        self.panels = int(panels)
        self.name = name
        z0, z1 = z(self.s_range[0]), z(self.s_range[1])
        # written so that NaN endpoints fail
        if not abs(z1 - z0) <= 1e-12 * (1.0 + abs(z0)):
            raise ValueError(
                f"contour {name or '<anonymous>'} is not closed: endpoints "
                f"{z0} and {z1}")

    @classmethod
    def circle(cls, radius: float, center: complex = 0j,
               panels: int = 8) -> "PlanarContour":
        r, c = float(radius), complex(center)
        if not (r > 0.0 and all(map(math.isfinite, (r, c.real, c.imag)))):
            raise ValueError("circle needs a finite radius > 0 and center")
        return cls(lambda s: c + r * (np.cos(s) + 1j * np.sin(s)),
                   lambda s: r * (-np.sin(s) + 1j * np.cos(s)),
                   panels=panels, name=f"circle(R={r},c={c})")

    def nodes(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        order = operator.index(order)
        if order < 2:
            raise ValueError("contour quadrature order must be at least 2")
        edges = np.linspace(*self.s_range, self.panels + 1)[:, None]
        s, w = _scaled_gauss(order, edges[:-1], edges[1:])
        return s.ravel(), w.ravel()


def contour_integral(contour: PlanarContour, fn: Callable[[complex], complex],
                     order: int = 32) -> complex:
    """Integral of fn(zeta) dzeta along the contour, fn on all nodes."""
    s, w = contour.nodes(order)
    return complex(np.sum(fn(contour.z(s)) * contour.dz(s) * w))


class StreamlineError(ValueError):
    """The contour is not a streamline, so the force formulas do not apply."""


def streamline_residual(potential: ComplexPotential, contour: PlanarContour,
                        order: int = 32) -> tuple[float, float]:
    """Max |Im(f' dz/ds)| over the nodes, and the scale max |f' dz/ds|.

    On a streamline f' dz is real along the curve, so the first number
    vanishes up to rounding.
    """
    s, _ = contour.nodes(order)
    t = potential.derivative(contour.z(s)) * contour.dz(s)
    # np.max propagates NaN where the builtin max would drop it
    return float(np.max(np.abs(t.imag))), float(np.max(np.abs(t)))


# The largest max |Im(f' dz)| / (1 + scale) accepted as a streamline.
_STREAMLINE_TOL = 1e-8


def _require_streamline(potential, contour, order):
    worst, scale = streamline_residual(potential, contour, order)
    if not worst <= _STREAMLINE_TOL * (1.0 + scale):
        raise StreamlineError(
            f"contour {contour.name!r} is not a streamline of "
            f"{potential.name!r}: max |Im(f' dz)| = {worst:.3e} "
            f"(scale {scale:.3e})")


def blasius_force_2d(potential: ComplexPotential, contour: PlanarContour,
                     rho: float = 1.0, order: int = 32,
                     check_streamline: bool = True) -> complex:
    """Force on the body bounded by a streamline contour, as F_x + i F_y."""
    if check_streamline:
        _require_streamline(potential, contour, order)
    a = contour_integral(contour, lambda z: potential.df(z) ** 2, order)
    f_minus = 0.5j * rho * a
    return f_minus.conjugate()


def blasius_moment_2d(potential: ComplexPotential, contour: PlanarContour,
                      about: complex = 0j, rho: float = 1.0, order: int = 32,
                      check_streamline: bool = True) -> float:
    """Moment about a reference point, positive counterclockwise.

    The contour must still be a streamline (the body); ``about`` moves
    the reference point of the moment, not the contour.
    """
    if check_streamline:
        _require_streamline(potential, contour, order)
    z0 = complex(about)
    a = contour_integral(contour,
                         lambda z: (z - z0) * potential.df(z) ** 2, order)
    return -0.5 * rho * a.real


def embed_2d(potential: ComplexPotential) -> FlowPotential:
    """Embed the planar potential into the i-plane of the algebra."""
    return embedded_potential(potential.f, potential.df,
                              domain2d=potential.domain2d,
                              name=f"embedded({potential.name})")


class ReductionReport(NamedTuple):
    """Planar formulas versus the embedded 3D machinery, per unit height."""

    force_2d: complex
    force_3d: ReducedPoint
    force_gap: float
    moment_2d: float
    moment_3d: ReducedPoint
    moment_gap: float
    ok: bool
    tol: float

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"2D force {self.force_2d:.6g} vs 3D "
                f"{self.force_3d.as_tuple()} (gap {self.force_gap:.3e}); "
                f"2D moment {self.moment_2d:.6g} vs 3D z "
                f"{self.moment_3d.z:.6g} (gap {self.moment_gap:.3e}) "
                f"{status}")


# Gauss order of the planar contour integrals in ``reduce_and_compare``.
_ORDER_2D = 32


def reduce_and_compare(potential: ComplexPotential, contour: PlanarContour,
                       body: RegularBody, rho: float = 1.0,
                       order_3d: int = 16,
                       about: complex = 0j, height: float = 1.0,
                       tol: float = 1e-8) -> ReductionReport:
    """Check that the embedded 3D force and moment match the 2D formulas.

    ``body`` must be the extrusion of the contour region over a z-interval
    of length ``height``; 3D totals are divided by the height before the
    comparison.  Force components are compared in the plane; the moment
    comparison uses the z component of the 3D moment about the point
    (Re about, Im about, 0).  The force formula's streamline check serves
    the moment formula too, and both 3D routes read the one jet table per
    chart that the embedded potential's field remembers.
    """
    f2 = blasius_force_2d(potential, contour, rho=rho, order=_ORDER_2D)
    m2 = blasius_moment_2d(potential, contour, about=about, rho=rho,
                           order=_ORDER_2D, check_streamline=False)
    embedded = embed_2d(potential)
    f3 = force_blasius(embedded, body, rho=rho, order=order_3d).force
    about3 = ReducedPoint(about.real, about.imag, 0.0)
    m3 = moment_quadratic(embedded, body, about3, rho=rho,
                          order=order_3d).moment
    f3_per_h = f3 / height
    m3_per_h = m3 / height
    force_gap = math.hypot(f3_per_h.x - f2.real, f3_per_h.y - f2.imag,
                           f3_per_h.z)
    moment_gap = abs(m3_per_h.z - m2)
    ok = force_gap <= tol and moment_gap <= tol
    return ReductionReport(f2, f3_per_h, force_gap, m2, m3_per_h,
                           moment_gap, ok, tol)
