"""Scalar and quaternion-valued fields with first-derivative jets.

The central object is the generalized Cauchy-Riemann operator

    D = d/dx + i d/dy + j d/dz

acting on quaternion-valued functions of a reduced-quaternion variable,
together with its conjugate Dbar and the right-hand variants (units
multiplied on the right of the coordinate partials).  A field with
D f = 0 is called (left) monogenic; componentwise this is the
Moisil-Theodorescu system of four first-order equations.

Derivatives come either from caller-supplied analytic formulas or from
central finite differences; every operator consumes the jet, so analytic
and FD-backed fields share one code path.

A field may also carry an array form: a jet on an (N, 3) array of points
returning a (4, N, 4) array (value, d/dx, d/dy, d/dz; quaternion
components last), with an array domain predicate.  Quadrature routes use
it to evaluate a whole chart in one call; fields without it are
evaluated point by point through the scalar jet.  ``coordinate_field``
is the reduced coordinate x + y i + z j with both forms.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import Quaternion, ReducedPoint, ONE, I, J, qconj
from .surfaces import as_points, evaluate_nodes, node_rows

__all__ = [
    "DomainError",
    "Jet",
    "QuaternionField",
    "ScalarField",
    "scalar_dbar_field",
    "coordinate_field",
    "apply_D",
    "apply_Dbar",
    "apply_D_right",
    "apply_Dbar_right",
    "laplacian",
    "euler_operator",
    "moisil_theodorescu_residual",
    "MonogenicityReport",
    "is_monogenic",
    "default_monogenicity_tol",
    "harmonic_catalog",
    "FD_STEP",
    "FD_STEP2",
    "DEFAULT_EXCLUSION",
]

# Central-difference step sizes, scaled per coordinate by max(1, |coordinate|).
FD_STEP = 1e-5
FD_STEP2 = 1e-4
# Radius of the default excluded ball around point singularities.
DEFAULT_EXCLUSION = 1e-8


# A function of an (N, 3) point array returning an array over its N rows.
ArrayMap = Callable[[np.ndarray], np.ndarray]


class DomainError(ValueError):
    """Evaluation was requested outside a field's domain of definition."""


class Jet(NamedTuple):
    """Value and first coordinate partials of a quaternion field at a point."""

    value: Quaternion
    dx: Quaternion
    dy: Quaternion
    dz: Quaternion


def _domain_mask(domain, domain_array, xyz: np.ndarray) -> np.ndarray:
    """Where the rows of xyz lie in the domain, as an (N,) bool array."""
    if domain is None:
        return np.ones(len(xyz), dtype=bool)
    if domain_array is not None:
        return np.asarray(domain_array(xyz), dtype=bool)
    return np.array([bool(domain(p)) for p in as_points(xyz)], dtype=bool)


def _check_array(field, xyz: np.ndarray) -> None:
    """Raise DomainError at the first row of xyz outside the field's domain."""
    inside = field.in_domain_array(xyz)
    if not inside.all():
        p = ReducedPoint(*xyz[int(np.argmin(inside))].tolist())
        raise DomainError(
            f"field {field.name or '<anonymous>'} is not defined at {p!r}")


def _fd_steps(p: ReducedPoint, scale: float) -> tuple[float, float, float]:
    return (scale * max(1.0, abs(p.x)),
            scale * max(1.0, abs(p.y)),
            scale * max(1.0, abs(p.z)))


def _fd_stencil(fn, p: ReducedPoint, scale: float, field=None) -> list:
    """fn on the central-difference stencil at p, axis by axis.

    Returns [(h, fn(p + h e), fn(p - h e))] for e = x, y, z with the steps
    of ``_fd_steps``, calling fn in that order.  With ``field`` given, a
    stencil point outside its domain raises DomainError before fn runs.
    """
    hx, hy, hz = _fd_steps(p, scale)
    axes = ((hx, ReducedPoint(p.x + hx, p.y, p.z),
             ReducedPoint(p.x - hx, p.y, p.z)),
            (hy, ReducedPoint(p.x, p.y + hy, p.z),
             ReducedPoint(p.x, p.y - hy, p.z)),
            (hz, ReducedPoint(p.x, p.y, p.z + hz),
             ReducedPoint(p.x, p.y, p.z - hz)))
    if field is not None:
        for _, plus, minus in axes:
            if not (field.in_domain(plus) and field.in_domain(minus)):
                raise DomainError(
                    f"finite-difference stencil of "
                    f"{field.name or '<anonymous>'} leaves the domain near "
                    f"{p!r}")
    return [(h, fn(plus), fn(minus)) for h, plus, minus in axes]


class QuaternionField:
    """A quaternion-valued function of a point, with an optional analytic jet.

    Parameters
    ----------
    evaluate : callable
        Maps a ReducedPoint to a Quaternion.
    jet : callable, optional
        Maps a ReducedPoint to a :class:`Jet`.  When omitted, jets are
        formed by central differences of ``evaluate`` with step
        ``FD_STEP * max(1, |coordinate|)`` per axis.
    domain : callable, optional
        Predicate marking where the field may be evaluated.  Violations
        raise :class:`DomainError`.
    jet_array : callable, optional
        The analytic jet on an (N, 3) point array, returning a (4, N, 4)
        array that matches ``jet`` row by row.  Requires ``jet``.
    domain_array : callable, optional
        ``domain`` on an (N, 3) point array, returning (N,) booleans.
    """

    def __init__(self, evaluate: Callable[[ReducedPoint], Quaternion],
                 jet: Optional[Callable[[ReducedPoint], Jet]] = None,
                 domain: Optional[Callable[[ReducedPoint], bool]] = None,
                 name: str = "",
                 jet_array: Optional[ArrayMap] = None,
                 domain_array: Optional[ArrayMap] = None):
        if jet_array is not None and jet is None:
            raise ValueError("an array jet needs the scalar jet beside it")
        self._evaluate = evaluate
        self._jet = jet
        self._domain = domain
        self._jet_array = jet_array
        self._domain_array = domain_array
        self.name = name

    @property
    def has_analytic_jet(self) -> bool:
        return self._jet is not None

    @property
    def has_array_jet(self) -> bool:
        return self._jet_array is not None

    def in_domain(self, p: ReducedPoint) -> bool:
        return self._domain is None or self._domain(p)

    def in_domain_array(self, xyz: np.ndarray) -> np.ndarray:
        """``in_domain`` for every row of an (N, 3) array."""
        return _domain_mask(self._domain, self._domain_array, xyz)

    def jet_array(self, xyz: np.ndarray) -> np.ndarray:
        """Jets at the rows of an (N, 3) array as a (4, N, 4) array.

        Index 0 of the first axis is the value, 1 to 3 the partials along
        x, y, z.  Fields without an array jet call ``jet_at`` row by row.
        DomainError names the first row outside the domain.
        """
        if self._jet_array is None:
            jets = evaluate_nodes(self.jet_at, as_points(xyz))
            table = np.array([[q.as_tuple() for q in jet] for jet in jets])
            return table.reshape(-1, 4, 4).transpose(1, 0, 2)
        if self._domain is not None:
            _check_array(self, xyz)
        return self._jet_array(xyz)

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, 3) array as an (N, 4) array: the
        value slot of the array jet, or else the field row by row."""
        if self._jet_array is None:
            return node_rows(self, xyz)
        return self.jet_array(xyz)[0]

    def _check(self, p: ReducedPoint) -> None:
        if not self.in_domain(p):
            raise DomainError(
                f"field {self.name or '<anonymous>'} is not defined at {p!r}")

    def __call__(self, p: ReducedPoint) -> Quaternion:
        self._check(p)
        return self._evaluate(p)

    def jet_at(self, p: ReducedPoint) -> Jet:
        self._check(p)
        if self._jet is not None:
            return self._jet(p)
        return self._fd_jet(p)

    def _fd_jet(self, p: ReducedPoint) -> Jet:
        partials = [(plus - minus) / (2.0 * h) for h, plus, minus
                    in _fd_stencil(self._evaluate, p, FD_STEP, self)]
        return Jet(self._evaluate(p), *partials)

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def _combined_domain(self, other: "QuaternionField"):
        if self._domain is None:
            return other._domain, other._domain_array
        if other._domain is None:
            return self._domain, self._domain_array
        return (lambda p: self._domain(p) and other._domain(p),
                lambda xyz: self.in_domain_array(xyz)
                & other.in_domain_array(xyz))

    def __add__(self, other: "QuaternionField") -> "QuaternionField":
        if not isinstance(other, QuaternionField):
            return NotImplemented
        jet = jet_array = None
        if self.has_analytic_jet and other.has_analytic_jet:
            def jet(p, a=self._jet, b=other._jet):
                ja, jb = a(p), b(p)
                return Jet(ja.value + jb.value, ja.dx + jb.dx,
                           ja.dy + jb.dy, ja.dz + jb.dz)
        if self.has_array_jet and other.has_array_jet:
            def jet_array(xyz, a=self._jet_array, b=other._jet_array):
                return a(xyz) + b(xyz)
        domain, domain_array = self._combined_domain(other)
        return QuaternionField(
            lambda p: self._evaluate(p) + other._evaluate(p),
            jet=jet, domain=domain, name=f"({self.name}+{other.name})",
            jet_array=jet_array, domain_array=domain_array)

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        jet = jet_array = None
        if self.has_analytic_jet:
            def jet(p, a=self._jet, s=float(s)):
                ja = a(p)
                return Jet(ja.value * s, ja.dx * s, ja.dy * s, ja.dz * s)
        if self.has_array_jet:
            def jet_array(xyz, a=self._jet_array, s=float(s)):
                return a(xyz) * s
        return QuaternionField(lambda p: self._evaluate(p) * s, jet=jet,
                               domain=self._domain, name=f"{s}*{self.name}",
                               jet_array=jet_array,
                               domain_array=self._domain_array)

    __rmul__ = __mul__

    def conjugated(self) -> "QuaternionField":
        """The field p -> conj(f(p)), jets conjugated componentwise."""
        jet = jet_array = None
        if self.has_analytic_jet:
            def jet(p, a=self._jet):
                ja = a(p)
                return Jet(ja.value.conjugate(), ja.dx.conjugate(),
                           ja.dy.conjugate(), ja.dz.conjugate())
        if self.has_array_jet:
            def jet_array(xyz, a=self._jet_array):
                return qconj(a(xyz))
        return QuaternionField(lambda p: self._evaluate(p).conjugate(),
                               jet=jet, domain=self._domain,
                               name=f"conj({self.name})",
                               jet_array=jet_array,
                               domain_array=self._domain_array)

    def without_analytic_jet(self) -> "QuaternionField":
        """A copy that always differentiates by finite differences."""
        return QuaternionField(self._evaluate, jet=None, domain=self._domain,
                               name=self.name,
                               domain_array=self._domain_array)


class ScalarField:
    """A real-valued function of a point with optional analytic derivatives.

    ``gradient`` maps a point to a ReducedPoint; ``hessian`` to a 3x3
    nested sequence (row-major, symmetric); ``laplacian`` to a float.
    Missing derivatives fall back to central differences with steps
    ``FD_STEP`` (first order) and ``FD_STEP2`` (second order).
    ``evaluate_array`` and ``domain_array`` are optional array forms of
    ``evaluate`` and ``domain`` on (N, 3) point arrays.
    """

    def __init__(self, evaluate: Callable[[ReducedPoint], float],
                 gradient=None, laplacian=None, hessian=None,
                 domain=None, name: str = "", evaluate_array=None,
                 domain_array=None):
        self._evaluate = evaluate
        self._gradient = gradient
        self._laplacian = laplacian
        self._hessian = hessian
        self._domain = domain
        self._evaluate_array = evaluate_array
        self._domain_array = domain_array
        self.name = name

    @property
    def has_analytic_gradient(self) -> bool:
        return self._gradient is not None

    @property
    def has_analytic_hessian(self) -> bool:
        return self._hessian is not None

    @property
    def has_analytic_laplacian(self) -> bool:
        return self._laplacian is not None or self._hessian is not None

    def in_domain(self, p: ReducedPoint) -> bool:
        return self._domain is None or self._domain(p)

    def in_domain_array(self, xyz: np.ndarray) -> np.ndarray:
        """``in_domain`` for every row of an (N, 3) array."""
        return _domain_mask(self._domain, self._domain_array, xyz)

    def _check(self, p: ReducedPoint) -> None:
        if not self.in_domain(p):
            raise DomainError(
                f"field {self.name or '<anonymous>'} is not defined at {p!r}")

    def __call__(self, p: ReducedPoint) -> float:
        self._check(p)
        return float(self._evaluate(p))

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, 3) array as an (N,) array.

        Without ``evaluate_array`` the field is called row by row.
        """
        if self._evaluate_array is None:
            return node_rows(self, xyz)
        if self._domain is not None:
            _check_array(self, xyz)
        return self._evaluate_array(xyz)

    def gradient_at(self, p: ReducedPoint) -> ReducedPoint:
        self._check(p)
        if self._gradient is not None:
            g = self._gradient(p)
            if isinstance(g, ReducedPoint):
                return g
            gx, gy, gz = g
            return ReducedPoint(gx, gy, gz)
        partials = [(plus - minus) / (2.0 * h) for h, plus, minus
                    in _fd_stencil(self._evaluate, p, FD_STEP, self)]
        return ReducedPoint(*partials)

    def hessian_at(self, p: ReducedPoint):
        self._check(p)
        if self._hessian is not None:
            return self._hessian(p)
        return None

    def laplacian_at(self, p: ReducedPoint) -> float:
        self._check(p)
        if self._laplacian is not None:
            return float(self._laplacian(p))
        if self._hessian is not None:
            h = self._hessian(p)
            return float(h[0][0] + h[1][1] + h[2][2])
        c = self._evaluate(p)
        out = 0.0
        for h, plus, minus in _fd_stencil(self._evaluate, p, FD_STEP2):
            out += (plus - 2.0 * c + minus) / (h * h)
        return out

    def as_quaternion_field(self) -> QuaternionField:
        """Embed into the scalar slot; the jet uses the gradient."""
        jet = None
        if self._gradient is not None:
            def jet(p, g=self.gradient_at, f=self._evaluate):
                gr = g(p)
                return Jet(Quaternion(f(p)), Quaternion(gr.x),
                           Quaternion(gr.y), Quaternion(gr.z))
        return QuaternionField(lambda p: Quaternion(self._evaluate(p)),
                               jet=jet, domain=self._domain, name=self.name)


def scalar_dbar_field(u: ScalarField) -> QuaternionField:
    """The field Dbar u = u_x - u_y i - u_z j built from u's gradient.

    When u carries an analytic Hessian the jet is analytic as well;
    applying D to the result then reproduces the Laplacian of u exactly,
    since D(Dbar u) = (Laplacian u) holds componentwise.
    """

    def value(p: ReducedPoint) -> Quaternion:
        g = u.gradient_at(p)
        return Quaternion(g.x, -g.y, -g.z, 0.0)

    jet = None
    if u.has_analytic_hessian:
        def jet(p: ReducedPoint) -> Jet:
            h = u.hessian_at(p)
            return Jet(
                value(p),
                Quaternion(h[0][0], -h[0][1], -h[0][2], 0.0),
                Quaternion(h[0][1], -h[1][1], -h[1][2], 0.0),
                Quaternion(h[0][2], -h[1][2], -h[2][2], 0.0),
            )

    return QuaternionField(value, jet=jet, domain=u._domain,
                           name=f"dbar({u.name})")


def coordinate_field() -> QuaternionField:
    """x + y i + z j as a field with scalar and array jets; D of it is -1."""
    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(p.x, p.y, p.z, 0.0)

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        table = np.zeros((4, len(xyz), 4))
        table[0, :, :3] = xyz
        table[1:, :, :3] = np.eye(3)[:, None, :]
        return table

    return QuaternionField(value, jet=lambda p: Jet(value(p), ONE, I, J),
                           name="coordinate", jet_array=jet_array)


# ----------------------------------------------------------------------
# first-order operators
# ----------------------------------------------------------------------

def _as_field(f) -> QuaternionField:
    if isinstance(f, ScalarField):
        return f.as_quaternion_field()
    return f


def apply_D(f, p: ReducedPoint) -> Quaternion:
    """Left action of D = d/dx + i d/dy + j d/dz."""
    jet = _as_field(f).jet_at(p)
    return jet.dx + I * jet.dy + J * jet.dz


def apply_Dbar(f, p: ReducedPoint) -> Quaternion:
    """Left action of the conjugate operator d/dx - i d/dy - j d/dz."""
    jet = _as_field(f).jet_at(p)
    return jet.dx - I * jet.dy - J * jet.dz


def apply_D_right(f, p: ReducedPoint) -> Quaternion:
    """Right action f D, the units multiplying the partials on the right."""
    jet = _as_field(f).jet_at(p)
    return jet.dx + jet.dy * I + jet.dz * J


def apply_Dbar_right(f, p: ReducedPoint) -> Quaternion:
    """Right action f Dbar."""
    jet = _as_field(f).jet_at(p)
    return jet.dx - jet.dy * I - jet.dz * J


def laplacian(f, p: ReducedPoint) -> Quaternion:
    """Componentwise Laplacian; equals D(Dbar f) and Dbar(D f).

    Scalar fields with analytic second-derivative data use it; otherwise
    second-order central differences with step FD_STEP2 are applied to
    each quaternion component.
    """
    if isinstance(f, ScalarField) and f.has_analytic_laplacian:
        return Quaternion(f.laplacian_at(p))
    g = _as_field(f)
    g._check(p)
    c = g(p)
    total = Quaternion()
    for h, plus, minus in _fd_stencil(g, p, FD_STEP2):
        total = total + (plus - c * 2.0 + minus) / (h * h)
    return total


def euler_operator(f, p: ReducedPoint) -> Quaternion:
    """The radial derivative x d/dx + y d/dy + z d/dz."""
    jet = _as_field(f).jet_at(p)
    return jet.dx * p.x + jet.dy * p.y + jet.dz * p.z


def moisil_theodorescu_residual(f, p: ReducedPoint) -> float:
    """Euclidean norm of the four Moisil-Theodorescu combinations.

    The four real equations are exactly the components of D f, so the
    residual coincides with |D f|; both are exposed because tests check
    the componentwise system independently of the algebraic product.
    """
    jet = _as_field(f).jet_at(p)
    dx, dy, dz = jet.dx, jet.dy, jet.dz
    r0 = dx.q0 - dy.q1 - dz.q2
    r1 = dx.q1 + dy.q0 + dz.q3
    r2 = dx.q2 + dz.q0 - dy.q3
    r3 = dx.q3 + dy.q2 - dz.q1
    return math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3)


class MonogenicityReport(NamedTuple):
    ok: bool
    max_residual: float
    worst_point: ReducedPoint
    tol: float


def default_monogenicity_tol(f) -> float:
    """1e-6 for analytic jets, 1e-4 when jets come from finite differences."""
    field = _as_field(f)
    return 1e-6 if field.has_analytic_jet else 1e-4


def is_monogenic(f, points: Sequence[ReducedPoint],
                 tol: float | None = None) -> MonogenicityReport:
    """Check max |D f| over sample points against a tolerance.

    A NaN residual fails the check at once and is reported with its point.
    """
    pts = list(points)
    if not pts:
        raise ValueError("is_monogenic needs at least one sample point")
    if tol is None:
        tol = default_monogenicity_tol(f)
    worst, worst_p = -1.0, pts[0]
    for p in pts:
        r = apply_D(f, p).norm()
        if math.isnan(r):
            return MonogenicityReport(False, r, p, tol)
        if r > worst:
            worst, worst_p = r, p
    return MonogenicityReport(worst <= tol, worst, worst_p, tol)


# ----------------------------------------------------------------------
# harmonic catalog
# ----------------------------------------------------------------------

def _poly(name, evaluate, gradient, hessian):
    return ScalarField(evaluate, gradient=gradient, laplacian=lambda p: 0.0,
                       hessian=hessian, name=name)


def harmonic_catalog() -> dict[str, ScalarField]:
    """Named harmonic scalar fields with analytic gradients and Hessians.

    The singular entries exclude a ball of radius ``DEFAULT_EXCLUSION``
    around the singular point, and ``log(x+r)`` additionally excludes a
    thin tube around the negative x-axis where its argument vanishes.
    """
    fields: dict[str, ScalarField] = {}

    fields["x"] = _poly(
        "x", lambda p: p.x,
        lambda p: ReducedPoint(1.0, 0.0, 0.0),
        lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))

    fields["xy"] = _poly(
        "xy", lambda p: p.x * p.y,
        lambda p: ReducedPoint(p.y, p.x, 0.0),
        lambda p: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))

    fields["x^2-y^2"] = _poly(
        "x^2-y^2", lambda p: p.x * p.x - p.y * p.y,
        lambda p: ReducedPoint(2.0 * p.x, -2.0 * p.y, 0.0),
        lambda p: ((2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 0.0)))

    fields["1+x+yz"] = _poly(
        "1+x+yz", lambda p: 1.0 + p.x + p.y * p.z,
        lambda p: ReducedPoint(1.0, p.z, p.y),
        lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)))

    fields["x^3-3xy^2"] = _poly(
        "x^3-3xy^2", lambda p: p.x ** 3 - 3.0 * p.x * p.y * p.y,
        lambda p: ReducedPoint(3.0 * p.x * p.x - 3.0 * p.y * p.y,
                               -6.0 * p.x * p.y, 0.0),
        lambda p: ((6.0 * p.x, -6.0 * p.y, 0.0),
                   (-6.0 * p.y, -6.0 * p.x, 0.0),
                   (0.0, 0.0, 0.0)))

    fields["xyz"] = _poly(
        "xyz", lambda p: p.x * p.y * p.z,
        lambda p: ReducedPoint(p.y * p.z, p.x * p.z, p.x * p.y),
        lambda p: ((0.0, p.z, p.y), (p.z, 0.0, p.x), (p.y, p.x, 0.0)))

    def away_from_origin(p: ReducedPoint) -> bool:
        return p.norm() > DEFAULT_EXCLUSION

    def inv_r(p):
        return 1.0 / p.norm()

    def inv_r_grad(p):
        r3 = p.norm() ** 3
        return ReducedPoint(-p.x / r3, -p.y / r3, -p.z / r3)

    def inv_r_hess(p):
        r = p.norm()
        r3, r5 = r ** 3, r ** 5
        c = p.as_tuple()
        return tuple(tuple(3.0 * c[a] * c[b] / r5 - (1.0 / r3 if a == b else 0.0)
                           for b in range(3)) for a in range(3))

    fields["1/r"] = ScalarField(inv_r, gradient=inv_r_grad,
                                laplacian=lambda p: 0.0, hessian=inv_r_hess,
                                domain=away_from_origin, name="1/r")

    def x_over_r3(p):
        return p.x / p.norm() ** 3

    def x_over_r3_grad(p):
        r = p.norm()
        r3, r5 = r ** 3, r ** 5
        return ReducedPoint(1.0 / r3 - 3.0 * p.x * p.x / r5,
                            -3.0 * p.x * p.y / r5,
                            -3.0 * p.x * p.z / r5)

    def x_over_r3_hess(p):
        r = p.norm()
        r5, r7 = r ** 5, r ** 7
        x, y, z = p.x, p.y, p.z
        return ((-9.0 * x / r5 + 15.0 * x ** 3 / r7,
                 -3.0 * y / r5 + 15.0 * x * x * y / r7,
                 -3.0 * z / r5 + 15.0 * x * x * z / r7),
                (-3.0 * y / r5 + 15.0 * x * x * y / r7,
                 -3.0 * x / r5 + 15.0 * x * y * y / r7,
                 15.0 * x * y * z / r7),
                (-3.0 * z / r5 + 15.0 * x * x * z / r7,
                 15.0 * x * y * z / r7,
                 -3.0 * x / r5 + 15.0 * x * z * z / r7))

    fields["x/r^3"] = ScalarField(x_over_r3, gradient=x_over_r3_grad,
                                  laplacian=lambda p: 0.0,
                                  hessian=x_over_r3_hess,
                                  domain=away_from_origin, name="x/r^3")

    def off_negative_axis(p: ReducedPoint) -> bool:
        if p.norm() <= DEFAULT_EXCLUSION:
            return False
        if p.x > 0.0:
            return True
        return math.hypot(p.y, p.z) > DEFAULT_EXCLUSION

    def log_xr(p):
        return math.log(p.x + p.norm())

    def log_xr_grad(p):
        r = p.norm()
        s = p.x + r
        return ReducedPoint(1.0 / r, p.y / (r * s), p.z / (r * s))

    def log_xr_hess(p):
        r = p.norm()
        s = p.x + r
        y, z = p.y, p.z
        r3 = r ** 3
        c = (s + r) / (r3 * s * s)
        return ((-p.x / r3, -y / r3, -z / r3),
                (-y / r3, 1.0 / (r * s) - y * y * c, -y * z * c),
                (-z / r3, -y * z * c, 1.0 / (r * s) - z * z * c))

    fields["log(x+r)"] = ScalarField(log_xr, gradient=log_xr_grad,
                                     laplacian=lambda p: 0.0,
                                     hessian=log_xr_hess,
                                     domain=off_negative_axis,
                                     name="log(x+r)")

    return fields
