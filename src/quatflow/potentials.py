"""Monogenic flow potentials for ideal incompressible 3D flow.

A flow potential is a quaternion field w = phi + psi1 i + psi2 j + psi3 k
with D w = 0.  The scalar part phi is the classical velocity potential,
so the fluid velocity is grad(phi); the three vector components act as
stream-function surrogates.  Two construction routes are provided:

* ``monogenic_from_gradient``: w = Dbar u for a harmonic scalar u.  This
  works on any domain where u does, including exteriors of bodies.
* ``monogenic_completion``: radial integral that extends a harmonic u,
  defined on a region star-shaped about a chosen center, to the unique
  monogenic field whose scalar part is u.

``catalog`` collects closed-form potentials used across the test suite:
uniform streams, a point source, a dipole, flow past a sphere, and the
planar cylinder flows embedded in the i-plane.  Each carries its jet and
domain in array form as well, so surface quadrature evaluates a whole
chart in one call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import Quaternion, ReducedPoint
from .fields import (
    DEFAULT_EXCLUSION,
    FD_STEP,
    DomainError,
    Jet,
    MonogenicityReport,
    QuaternionField,
    ScalarField,
    _fd_stencil,
    apply_Dbar_right,
    is_monogenic,
    scalar_dbar_field,
)

__all__ = [
    "FlowPotential",
    "VelocityField",
    "velocity_from_potential",
    "monogenic_from_gradient",
    "monogenic_completion",
    "CompletionError",
    "IntegrabilityError",
    "StreamFunctions",
    "geometric_stream_functions",
    "gauge_transform",
    "vector_gauge_field",
    "uniform_flow",
    "identity_flow",
    "saddle_flow",
    "point_source",
    "dipole_flow",
    "sphere_flow",
    "embedded_potential",
    "embedded_cylinder_flow",
    "catalog",
]


class FlowPotential:
    """A quaternion potential together with flow-oriented accessors."""

    def __init__(self, field: QuaternionField, name: str = "",
                 description: str = ""):
        self.field = field
        self.name = name or field.name
        self.description = description

    def __call__(self, p: ReducedPoint) -> Quaternion:
        return self.field(p)

    def jet_at(self, p: ReducedPoint) -> Jet:
        return self.field.jet_at(p)

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        return self.field.value_array(xyz)

    def jet_array(self, xyz: np.ndarray) -> np.ndarray:
        return self.field.jet_array(xyz)

    def in_domain(self, p: ReducedPoint) -> bool:
        return self.field.in_domain(p)

    def velocity_at(self, p: ReducedPoint) -> ReducedPoint:
        """Gradient of the scalar part."""
        jet = self.field.jet_at(p)
        return ReducedPoint(jet.dx.q0, jet.dy.q0, jet.dz.q0)

    def speed_squared_at(self, p: ReducedPoint) -> float:
        return self.velocity_at(p).norm_sq()

    def conjugate_gradient_at(self, p: ReducedPoint) -> Quaternion:
        """The right action w Dbar; equals 2(v1 - v2 i - v3 j) when D w = 0."""
        return apply_Dbar_right(self.field, p)

    def monogenicity(self, points: Sequence[ReducedPoint],
                     tol: float | None = None) -> MonogenicityReport:
        return is_monogenic(self.field, points, tol=tol)

    def velocity_field(self) -> "VelocityField":
        return velocity_from_potential(self)

    def __add__(self, other: "FlowPotential") -> "FlowPotential":
        if not isinstance(other, FlowPotential):
            return NotImplemented
        return FlowPotential(self.field + other.field,
                             name=f"{self.name}+{other.name}")

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented
        return FlowPotential(self.field * s, name=f"{s}*{self.name}")

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"FlowPotential({self.name!r})"


class VelocityField:
    """A velocity vector field with a (possibly finite-difference) Jacobian.

    ``jacobian_at`` returns rows J[a][b] = d v_a / d x_b.
    """

    def __init__(self, evaluate: Callable[[ReducedPoint], ReducedPoint],
                 jacobian=None, domain=None, name: str = ""):
        self._evaluate = evaluate
        self._jacobian = jacobian
        self._domain = domain
        self.name = name

    @classmethod
    def constant(cls, u1: float, u2: float, u3: float) -> "VelocityField":
        vel = ReducedPoint(float(u1), float(u2), float(u3))
        zero = ((0.0,) * 3,) * 3
        return cls(lambda p: vel, jacobian=lambda p: zero,
                   name=f"constant({u1},{u2},{u3})")

    @classmethod
    def from_components(cls, v1, v2, v3, name: str = "") -> "VelocityField":
        return cls(lambda p: ReducedPoint(v1(p), v2(p), v3(p)), name=name)

    def in_domain(self, p: ReducedPoint) -> bool:
        return self._domain is None or self._domain(p)

    def __call__(self, p: ReducedPoint) -> ReducedPoint:
        if not self.in_domain(p):
            raise DomainError(
                f"velocity {self.name or '<anonymous>'} undefined at {p!r}")
        return self._evaluate(p)

    def speed_squared(self, p: ReducedPoint) -> float:
        return self(p).norm_sq()

    def jacobian_at(self, p: ReducedPoint):
        if self._jacobian is not None:
            return self._jacobian(p)
        cols = [((plus - minus) / (2.0 * h)).as_tuple() for h, plus, minus
                in _fd_stencil(self, p, FD_STEP)]
        return tuple(tuple(cols[b][a] for b in range(3)) for a in range(3))


def velocity_from_potential(w) -> VelocityField:
    """Velocity field grad(Sc w) of a potential or quaternion field."""
    pot = w if isinstance(w, FlowPotential) else FlowPotential(w)
    return VelocityField(pot.velocity_at,
                         domain=pot.field.in_domain,
                         name=f"grad_sc({pot.name})")


# ----------------------------------------------------------------------
# construction routes
# ----------------------------------------------------------------------

def monogenic_from_gradient(u: ScalarField,
                            probe_points: Optional[Sequence[ReducedPoint]] = None,
                            harmonic_tol: float | None = None) -> FlowPotential:
    """The potential w = Dbar u; monogenic exactly when u is harmonic.

    With ``probe_points`` the Laplacian of u is sampled there first and a
    ValueError is raised if it exceeds ``harmonic_tol`` (default 1e-8 for
    analytic second derivatives, 1e-3 for finite differences).
    """
    if probe_points is not None:
        if harmonic_tol is None:
            harmonic_tol = 1e-8 if u.has_analytic_laplacian else 1e-3
        for p in probe_points:
            lap = u.laplacian_at(p)
            if abs(lap) > harmonic_tol:
                raise ValueError(
                    f"scalar field {u.name or '<anonymous>'} is not harmonic: "
                    f"laplacian {lap:.3e} at {p!r} exceeds {harmonic_tol:.1e}")
    return FlowPotential(scalar_dbar_field(u), name=f"dbar({u.name})",
                         description="conjugate gradient of a harmonic scalar")


class CompletionError(ArithmeticError):
    """The completion quadrature did not reach the requested accuracy."""


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def monogenic_completion(u: ScalarField,
                         center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0),
                         order: int = 32, tol: float = 1e-10,
                         max_doublings: int = 3,
                         check_harmonic: bool = True) -> FlowPotential:
    """Monogenic extension of a harmonic u by a radial line integral.

    The returned field is

        f(x) = u(x) + Vec( integral_0^1 (Dbar u)(c + t(x-c)) (x-c) t dt )

    evaluated with Gauss-Legendre quadrature, doubling the order until
    two successive levels agree to ``tol`` componentwise (value and all
    three partials).  The domain of u must contain the center c, which is
    checked here, and the whole segment from c to the evaluation point,
    which is checked when evaluating; either failure raises DomainError.
    CompletionError is raised when the quadrature gap is still above
    1e-8 after ``max_doublings`` doublings.

    The scalar part of the result reproduces u exactly by construction;
    monogenicity holds when u is harmonic on a region star-shaped about
    the center.  ``check_harmonic`` samples the Laplacian of u at the
    quadrature points of every evaluation and raises ValueError when it
    is out of tolerance.
    """
    if not u.in_domain(center):
        # the Gauss nodes in t skip t = 0, so no evaluation would notice
        raise DomainError(f"completion center {center!r} is outside the "
                          f"domain of {u.name or '<anonymous>'}")
    dbar = scalar_dbar_field(u)
    hard_cap = 1e-8
    lap_tol = 1e-8 if u.has_analytic_laplacian else 1e-3

    def raw_jet(p: ReducedPoint, n: int) -> Jet:
        ts, ws = _gauss01(n)
        dxq = ReducedPoint(p.x - center.x, p.y - center.y, p.z - center.z)
        xq = dxq.to_quaternion()
        acc = [Quaternion(), Quaternion(), Quaternion(), Quaternion()]
        for t, wt in zip(ts, ws):
            q = ReducedPoint(center.x + t * dxq.x, center.y + t * dxq.y,
                             center.z + t * dxq.z)
            if check_harmonic:
                lap = u.laplacian_at(q)
                if abs(lap) > lap_tol:
                    raise ValueError(
                        f"completion input {u.name or '<anonymous>'} is not "
                        f"harmonic near {q!r} (laplacian {lap:.3e})")
            jd = dbar.jet_at(q)
            acc[0] = acc[0] + (jd.value * xq) * (wt * t)
            # chain rule: the x-derivative sees t * (d Dbar u) plus the
            # derivative of the segment endpoint factor (x - c).
            acc[1] = acc[1] + (jd.dx * xq * (wt * t * t)
                               + jd.value * (wt * t))
            acc[2] = acc[2] + (jd.dy * xq * (wt * t * t)
                               + (jd.value * Quaternion(0, 1, 0, 0)) * (wt * t))
            acc[3] = acc[3] + (jd.dz * xq * (wt * t * t)
                               + (jd.value * Quaternion(0, 0, 1, 0)) * (wt * t))
        grad = u.gradient_at(p)
        base = (Quaternion(u(p)), Quaternion(grad.x),
                Quaternion(grad.y), Quaternion(grad.z))
        out = []
        for b, a in zip(base, acc):
            v = a.vector_part()
            out.append(Quaternion(b.q0, v.q1, v.q2, v.q3))
        return Jet(*out)

    def _gap(a: Jet, b: Jet) -> float:
        g = 0.0
        for qa, qb in zip(a, b):
            g = max(g, (qa - qb).norm())
        return g

    def adaptive_jet(p: ReducedPoint) -> Jet:
        n = order
        prev = raw_jet(p, n)
        for _ in range(max_doublings):
            n *= 2
            cur = raw_jet(p, n)
            if _gap(prev, cur) <= tol:
                return cur
            prev = cur
        n *= 2
        cur = raw_jet(p, n)
        if _gap(prev, cur) > hard_cap:
            raise CompletionError(
                f"completion quadrature for {u.name or '<anonymous>'} stuck "
                f"above {hard_cap:.0e} at {p!r} (order {n})")
        return cur

    field = QuaternionField(lambda p: adaptive_jet(p).value,
                            jet=adaptive_jet, domain=u._domain,
                            name=f"completion({u.name})")
    return FlowPotential(field, name=f"completion({u.name})",
                         description="radial monogenic completion")


# ----------------------------------------------------------------------
# geometric stream functions
# ----------------------------------------------------------------------

class IntegrabilityError(ValueError):
    """The six stream-function conditions are not solvable for this velocity."""


class StreamFunctions(NamedTuple):
    psi1: ScalarField
    psi2: ScalarField
    psi3: ScalarField
    potential: FlowPotential


def _default_probe_lattice() -> list[ReducedPoint]:
    coords = (-0.5, 0.0, 0.5)
    return [ReducedPoint(x, y, z) for x in coords for y in coords
            for z in coords]


def geometric_stream_functions(velocity: VelocityField,
                               probe_points: Optional[Sequence[ReducedPoint]] = None,
                               tol: float = 1e-8) -> StreamFunctions:
    """Solve the paired stream-function system for a velocity field.

    The three stream functions are tied to the velocity by six conditions,
    each derivative matching half a velocity component:

        d(psi1)/dy =  v1/2    d(psi1)/dx = -v2/2    (psi1 free of z)
        d(psi2)/dz =  v1/2    d(psi2)/dx = -v3/2    (psi2 free of y)
        d(psi3)/dy =  v3/2    d(psi3)/dz = -v2/2    (psi3 free of x)

    Cross-differentiating forces every first derivative of the velocity
    to vanish, so the system is solvable only for constant (uniform)
    velocities.  The Jacobian of ``velocity`` is probed at the given
    points (a small lattice by default); any nonzero mixed-divergence or
    coordinate-dependence probe raises IntegrabilityError with the
    failing conditions spelled out.
    """
    probes = list(probe_points) if probe_points is not None \
        else _default_probe_lattice()
    if not probes:
        raise ValueError("geometric_stream_functions needs probe points")

    failures: list[str] = []
    for p in probes:
        jac = velocity.jacobian_at(p)
        checks = (
            ("d(v1)/dx + d(v2)/dy", jac[0][0] + jac[1][1]),
            ("d(v1)/dx + d(v3)/dz", jac[0][0] + jac[2][2]),
            ("d(v2)/dy + d(v3)/dz", jac[1][1] + jac[2][2]),
            ("d(v1)/dz", jac[0][2]),
            ("d(v2)/dz", jac[1][2]),
            ("d(v1)/dy", jac[0][1]),
            ("d(v3)/dy", jac[2][1]),
            ("d(v2)/dx", jac[1][0]),
            ("d(v3)/dx", jac[2][0]),
        )
        for label, val in checks:
            if abs(val) > tol:
                failures.append(f"{label} = {val:.3e} at {p.as_tuple()}")
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        raise IntegrabilityError(
            "velocity field admits no geometric stream functions: "
            + shown + more)

    v0 = velocity(probes[0])
    for p in probes[1:]:
        if (velocity(p) - v0).norm() > tol * (1.0 + v0.norm()):
            raise IntegrabilityError(
                "velocity field passes derivative probes but is not "
                "constant across the probe set")

    u1, u2, u3 = v0.x, v0.y, v0.z

    def _plane(name, ev, grad):
        return ScalarField(ev, gradient=grad, laplacian=lambda p: 0.0,
                           hessian=lambda p: ((0.0,) * 3,) * 3, name=name)

    psi1 = _plane("psi1", lambda p: 0.5 * (u1 * p.y - u2 * p.x),
                  lambda p: ReducedPoint(-0.5 * u2, 0.5 * u1, 0.0))
    psi2 = _plane("psi2", lambda p: 0.5 * (u1 * p.z - u3 * p.x),
                  lambda p: ReducedPoint(-0.5 * u3, 0.0, 0.5 * u1))
    psi3 = _plane("psi3", lambda p: 0.5 * (u3 * p.y - u2 * p.z),
                  lambda p: ReducedPoint(0.0, 0.5 * u3, -0.5 * u2))
    return StreamFunctions(psi1, psi2, psi3, uniform_flow(u1, u2, u3))


# ----------------------------------------------------------------------
# gauge freedom
# ----------------------------------------------------------------------

def vector_gauge_field() -> QuaternionField:
    """The vector-valued monogenic field x j + y k (zero scalar part)."""
    def jet(p: ReducedPoint) -> Jet:
        return Jet(Quaternion(0.0, 0.0, p.x, p.y),
                   Quaternion(0.0, 0.0, 1.0, 0.0),
                   Quaternion(0.0, 0.0, 0.0, 1.0),
                   Quaternion())
    return QuaternionField(lambda p: Quaternion(0.0, 0.0, p.x, p.y),
                           jet=jet, name="xj+yk")


def gauge_transform(potential: FlowPotential, extra: QuaternionField,
                    probe_points: Optional[Sequence[ReducedPoint]] = None,
                    tol: float = 1e-8) -> FlowPotential:
    """Add a scalar-free monogenic field; the velocity is unchanged.

    When probe points are given, ``extra`` is checked there for both a
    vanishing scalar part and monogenicity before being accepted.
    """
    if probe_points is not None:
        pts = list(probe_points)
        for p in pts:
            s = extra(p).q0
            if abs(s) > tol:
                raise ValueError(
                    f"gauge field has scalar part {s:.3e} at {p!r}")
        report = is_monogenic(extra, pts, tol=None)
        if not report.ok:
            raise ValueError(
                f"gauge field is not monogenic: |D f| = "
                f"{report.max_residual:.3e} at {report.worst_point!r}")
    return FlowPotential(potential.field + extra,
                         name=f"{potential.name}+gauge")


# ----------------------------------------------------------------------
# closed-form catalog
# ----------------------------------------------------------------------

def _jets(n: int, *entries) -> np.ndarray:
    """A (4, n, 4) jet array from 16 entries, arrays or scalars.

    The entries run over the value, d/dx, d/dy and d/dz, four quaternion
    components each.
    """
    out = np.empty((4, n, 4))
    for idx, entry in enumerate(entries):
        out[idx // 4, :, idx % 4] = entry
    return out


def _columns(xyz: np.ndarray, center: ReducedPoint = ReducedPoint()):
    return xyz[:, 0] - center.x, xyz[:, 1] - center.y, xyz[:, 2] - center.z


def uniform_flow(u1: float, u2: float = 0.0, u3: float = 0.0) -> FlowPotential:
    """Uniform stream with velocity (u1, u2, u3)."""
    u1, u2, u3 = float(u1), float(u2), float(u3)

    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(u1 * p.x + u2 * p.y + u3 * p.z,
                          0.5 * (u1 * p.y - u2 * p.x),
                          0.5 * (u1 * p.z - u3 * p.x),
                          0.5 * (u3 * p.y - u2 * p.z))

    dx = Quaternion(u1, -0.5 * u2, -0.5 * u3, 0.0)
    dy = Quaternion(u2, 0.5 * u1, 0.0, 0.5 * u3)
    dz = Quaternion(u3, 0.0, 0.5 * u1, -0.5 * u2)

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        x, y, z = _columns(xyz)
        return _jets(len(xyz), u1 * x + u2 * y + u3 * z,
                     0.5 * (u1 * y - u2 * x), 0.5 * (u1 * z - u3 * x),
                     0.5 * (u3 * y - u2 * z),
                     *dx.as_tuple(), *dy.as_tuple(), *dz.as_tuple())

    field = QuaternionField(value, jet=lambda p: Jet(value(p), dx, dy, dz),
                            name=f"uniform({u1},{u2},{u3})",
                            jet_array=jet_array)
    return FlowPotential(field, name=field.name,
                         description="uniform stream")


def identity_flow() -> FlowPotential:
    """Monogenic extension of the coordinate x: x + (y/2) i + (z/2) j."""
    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(p.x, 0.5 * p.y, 0.5 * p.z, 0.0)

    dx = Quaternion(1.0)
    dy = Quaternion(0.0, 0.5, 0.0, 0.0)
    dz = Quaternion(0.0, 0.0, 0.5, 0.0)
    def jet_array(xyz: np.ndarray) -> np.ndarray:
        x, y, z = _columns(xyz)
        return _jets(len(xyz), x, 0.5 * y, 0.5 * z, 0.0,
                     *dx.as_tuple(), *dy.as_tuple(), *dz.as_tuple())

    field = QuaternionField(value, jet=lambda p: Jet(value(p), dx, dy, dz),
                            name="identity", jet_array=jet_array)
    return FlowPotential(field, name="identity",
                         description="monogenic extension of x")


def saddle_flow() -> FlowPotential:
    """Monogenic extension of the planar saddle x^2 - y^2."""
    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(p.x * p.x - p.y * p.y,
                          4.0 * p.x * p.y / 3.0,
                          2.0 * p.x * p.z / 3.0,
                          2.0 * p.y * p.z / 3.0)

    def jet(p: ReducedPoint) -> Jet:
        return Jet(
            value(p),
            Quaternion(2.0 * p.x, 4.0 * p.y / 3.0, 2.0 * p.z / 3.0, 0.0),
            Quaternion(-2.0 * p.y, 4.0 * p.x / 3.0, 0.0, 2.0 * p.z / 3.0),
            Quaternion(0.0, 0.0, 2.0 * p.x / 3.0, 2.0 * p.y / 3.0),
        )

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        x, y, z = _columns(xyz)
        return _jets(len(xyz),
                     x * x - y * y, 4.0 * x * y / 3.0, 2.0 * x * z / 3.0,
                     2.0 * y * z / 3.0,
                     2.0 * x, 4.0 * y / 3.0, 2.0 * z / 3.0, 0.0,
                     -2.0 * y, 4.0 * x / 3.0, 0.0, 2.0 * z / 3.0,
                     0.0, 0.0, 2.0 * x / 3.0, 2.0 * y / 3.0)

    field = QuaternionField(value, jet=jet, name="saddle",
                            jet_array=jet_array)
    return FlowPotential(field, name="saddle",
                         description="monogenic extension of x^2 - y^2")


def point_source(strength: float,
                 center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> FlowPotential:
    """Point source of given volume flux at ``center``.

    Built as Dbar applied to -(m / 4 pi) log((x - cx) + r).  That scalar
    has a logarithmic ray singularity along the negative x direction from
    the center, so the domain excludes a thin tube around that ray; the
    potential itself is the usual -m/(4 pi r) source in its scalar part
    and is monogenic everywhere off the ray.
    """
    m = float(strength)
    scale = -m / (4.0 * math.pi)
    cx, cy, cz = center.x, center.y, center.z

    def _rel(p: ReducedPoint):
        return p.x - cx, p.y - cy, p.z - cz

    def domain(p: ReducedPoint) -> bool:
        u, v, w = _rel(p)
        r = math.sqrt(u * u + v * v + w * w)
        if r <= DEFAULT_EXCLUSION:
            return False
        if u > 0.0:
            return True
        return math.hypot(v, w) > DEFAULT_EXCLUSION

    def ev(p: ReducedPoint) -> float:
        u, v, w = _rel(p)
        r = math.sqrt(u * u + v * v + w * w)
        return scale * math.log(u + r)

    def grad(p: ReducedPoint) -> ReducedPoint:
        u, v, w = _rel(p)
        r = math.sqrt(u * u + v * v + w * w)
        s = u + r
        return ReducedPoint(scale / r, scale * v / (r * s),
                            scale * w / (r * s))

    def hess(p: ReducedPoint):
        u, v, w = _rel(p)
        r = math.sqrt(u * u + v * v + w * w)
        s = u + r
        r3 = r ** 3
        c = (s + r) / (r3 * s * s)
        return ((scale * -u / r3, scale * -v / r3, scale * -w / r3),
                (scale * -v / r3, scale * (1.0 / (r * s) - v * v * c),
                 scale * -v * w * c),
                (scale * -w / r3, scale * -v * w * c,
                 scale * (1.0 / (r * s) - w * w * c)))

    def domain_array(xyz: np.ndarray) -> np.ndarray:
        u, v, w = _columns(xyz, center)
        r = np.sqrt(u * u + v * v + w * w)
        off_ray = (u > 0.0) | (np.hypot(v, w) > DEFAULT_EXCLUSION)
        return (r > DEFAULT_EXCLUSION) & off_ray

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        # Dbar of the primitive: value (g_x, -g_y, -g_z), partials from
        # the Hessian, with the expressions of grad and hess above
        u, v, w = _columns(xyz, center)
        r = np.sqrt(u * u + v * v + w * w)
        s = u + r
        r3 = r ** 3
        c = (s + r) / (r3 * s * s)
        h01, h02 = scale * -v / r3, scale * -w / r3
        h12 = scale * -v * w * c
        return _jets(len(xyz),
                     scale / r, -(scale * v / (r * s)), -(scale * w / (r * s)),
                     0.0,
                     scale * -u / r3, -h01, -h02, 0.0,
                     h01, -(scale * (1.0 / (r * s) - v * v * c)), -h12, 0.0,
                     h02, -h12, -(scale * (1.0 / (r * s) - w * w * c)), 0.0)

    g = ScalarField(ev, gradient=grad, laplacian=lambda p: 0.0, hessian=hess,
                    domain=domain, name=f"source_log({m})")
    dbar = scalar_dbar_field(g)
    field = QuaternionField(dbar._evaluate, jet=dbar._jet, domain=domain,
                            name=dbar.name, jet_array=jet_array,
                            domain_array=domain_array)
    return FlowPotential(field, name=f"source({m})",
                         description="point source (ray-cut logarithmic "
                                     "primitive)")


def dipole_flow(coefficient: float,
                center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> FlowPotential:
    """Dipole potential c * conj(x - center) / |x - center|^3, axis along x."""
    c0 = float(coefficient)
    cx, cy, cz = center.x, center.y, center.z

    def domain(p: ReducedPoint) -> bool:
        return p.distance_to(center) > DEFAULT_EXCLUSION

    def value(p: ReducedPoint) -> Quaternion:
        x, y, z = p.x - cx, p.y - cy, p.z - cz
        r3 = math.sqrt(x * x + y * y + z * z) ** 3
        return Quaternion(c0 * x / r3, -c0 * y / r3, -c0 * z / r3, 0.0)

    def jet(p: ReducedPoint) -> Jet:
        x, y, z = p.x - cx, p.y - cy, p.z - cz
        r = math.sqrt(x * x + y * y + z * z)
        r3, r5 = r ** 3, r ** 5
        dx = Quaternion(c0 * (1.0 / r3 - 3.0 * x * x / r5),
                        c0 * 3.0 * x * y / r5, c0 * 3.0 * x * z / r5, 0.0)
        dy = Quaternion(-c0 * 3.0 * x * y / r5,
                        c0 * (-1.0 / r3 + 3.0 * y * y / r5),
                        c0 * 3.0 * y * z / r5, 0.0)
        dz = Quaternion(-c0 * 3.0 * x * z / r5, c0 * 3.0 * y * z / r5,
                        c0 * (-1.0 / r3 + 3.0 * z * z / r5), 0.0)
        return Jet(value(p), dx, dy, dz)

    def domain_array(xyz: np.ndarray) -> np.ndarray:
        x, y, z = _columns(xyz, center)
        return np.sqrt(x * x + y * y + z * z) > DEFAULT_EXCLUSION

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        x, y, z = _columns(xyz, center)
        r = np.sqrt(x * x + y * y + z * z)
        r3, r5 = r ** 3, r ** 5
        return _jets(len(xyz),
                     c0 * x / r3, -c0 * y / r3, -c0 * z / r3, 0.0,
                     c0 * (1.0 / r3 - 3.0 * x * x / r5),
                     c0 * 3.0 * x * y / r5, c0 * 3.0 * x * z / r5, 0.0,
                     -c0 * 3.0 * x * y / r5,
                     c0 * (-1.0 / r3 + 3.0 * y * y / r5),
                     c0 * 3.0 * y * z / r5, 0.0,
                     -c0 * 3.0 * x * z / r5, c0 * 3.0 * y * z / r5,
                     c0 * (-1.0 / r3 + 3.0 * z * z / r5), 0.0)

    field = QuaternionField(value, jet=jet, domain=domain,
                            name=f"dipole({c0})", jet_array=jet_array,
                            domain_array=domain_array)
    return FlowPotential(field, name=field.name,
                         description="x-directed dipole")


def sphere_flow(speed: float, radius: float) -> FlowPotential:
    """Uniform stream past a sphere of the given radius at the origin."""
    u, a = float(speed), float(radius)
    pot = uniform_flow(u) + dipole_flow(0.5 * u * a ** 3)
    pot.name = f"sphere(U={u},a={a})"
    pot.description = "uniform stream plus image dipole"
    return pot


def embedded_potential(f: Callable[[complex], complex],
                       fprime: Callable[[complex], complex],
                       domain2d: Optional[Callable[[complex], bool]] = None,
                       name: str = "",
                       vectorized: bool = False) -> FlowPotential:
    """Embed a planar complex potential into the i-plane of the algebra.

    The plane carries zeta = x + iy; the field w = Re f + (Im f) i is
    independent of z and monogenic wherever f is holomorphic.  With
    ``vectorized`` the three callables also map numpy complex arrays
    elementwise, which gives the field its array jet.
    """
    def domain(p: ReducedPoint) -> bool:
        return domain2d is None or domain2d(complex(p.x, p.y))

    def value(p: ReducedPoint) -> Quaternion:
        fz = f(complex(p.x, p.y))
        return Quaternion(fz.real, fz.imag, 0.0, 0.0)

    def jet(p: ReducedPoint) -> Jet:
        fp = fprime(complex(p.x, p.y))
        return Jet(value(p),
                   Quaternion(fp.real, fp.imag, 0.0, 0.0),
                   Quaternion(-fp.imag, fp.real, 0.0, 0.0),
                   Quaternion())

    jet_array = domain_array = None
    if vectorized:
        def zeta(xyz: np.ndarray) -> np.ndarray:
            z = xyz[:, 0].astype(complex)
            z.imag = xyz[:, 1]
            return z

        def jet_array(xyz: np.ndarray) -> np.ndarray:
            z = zeta(xyz)
            fz, fp = f(z), fprime(z)
            return _jets(len(xyz), fz.real, fz.imag, 0.0, 0.0,
                         fp.real, fp.imag, 0.0, 0.0,
                         -fp.imag, fp.real, 0.0, 0.0,
                         0.0, 0.0, 0.0, 0.0)

        if domain2d is not None:
            def domain_array(xyz: np.ndarray) -> np.ndarray:
                return domain2d(zeta(xyz))

    field = QuaternionField(value, jet=jet, domain=domain,
                            name=name or "embedded", jet_array=jet_array,
                            domain_array=domain_array)
    return FlowPotential(field, name=field.name,
                         description="embedded planar potential")


def embedded_cylinder_flow(speed: float, radius: float,
                           circulation: float = 0.0) -> FlowPotential:
    """Planar flow past a circular cylinder, embedded in 3D.

    The complex potential is U (zeta + a^2 / zeta) plus, for nonzero
    circulation, the vortex term -(i Gamma / 2 pi) log(zeta).  The branch
    jump of the log sits entirely in the scalar slot (the classical
    multivalued velocity potential); the stream part in the i slot and
    the whole derivative jet are single-valued off the axis, so surface
    integrals of the jet never see the cut.
    """
    u, a, gamma = float(speed), float(radius), float(circulation)
    k = gamma / (2.0 * math.pi)

    def f(z: complex) -> complex:
        out = u * (z + a * a / z)
        if gamma != 0.0:
            out += -1j * k * _principal_log(z)
        return out

    def fp(z: complex) -> complex:
        out = u * (1.0 - a * a / (z * z))
        if gamma != 0.0:
            out += -1j * k / z
        return out

    def domain2d(z: complex) -> bool:
        return abs(z) > DEFAULT_EXCLUSION

    name = f"embedded_cylinder(U={u},a={a},G={gamma})"
    return embedded_potential(f, fp, domain2d=domain2d, name=name,
                              vectorized=True)


def _principal_log(z):
    """Principal logarithm of a complex number or numpy complex array."""
    if isinstance(z, np.ndarray):
        out = np.log(np.abs(z)).astype(complex)
        out.imag = np.arctan2(z.imag, z.real)
        return out
    return complex(math.log(abs(z)), math.atan2(z.imag, z.real))


def catalog() -> dict[str, FlowPotential]:
    """Named closed-form potentials used by tests, demos and the CLI."""
    return {
        "uniform_x": uniform_flow(1.0),
        "uniform_skew": uniform_flow(0.8, -0.3, 0.5),
        "identity": identity_flow(),
        "saddle": saddle_flow(),
        "source": point_source(1.0),
        "dipole": dipole_flow(1.0),
        "sphere": sphere_flow(1.0, 1.0),
        "embedded_cylinder": embedded_cylinder_flow(1.0, 1.0),
        "embedded_cylinder_vortex": embedded_cylinder_flow(
            1.0, 1.0, 2.0 * math.pi),
    }
