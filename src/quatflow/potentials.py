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
planar cylinder flows embedded in the i-plane.  Each kind is one closed
form written once over coordinate columns, for floats and numpy arrays
alike; ``fields._closed_form`` derives its scalar value and jet, its
array jet and values, and its domain from that form, so surface
quadrature evaluates a whole chart in one call.  The source and the
dipole are Dbar of a scalar written over columns (``_dbar_closed_form``).
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import I, J, Quaternion, ReducedPoint, qmul
from .surfaces import _frozen, as_points, gauss_legendre
from .fields import (
    DEFAULT_EXCLUSION,
    FD_STEP,
    DomainError,
    Jet,
    MonogenicityReport,
    QuaternionField,
    ScalarField,
    _closed_form,
    _dbar_entries,
    _fd_stencil,
    _inv_r,
    _jet_entries,
    _jet_rows,
    _log_x_plus_r,
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

    def jet_table(self, xyz: np.ndarray) -> np.ndarray:
        return self.field.jet_table(xyz)

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

def _harmonic_tol(u: ScalarField) -> float:
    """The largest |Laplacian u| accepted as harmonic: 1e-8 for analytic
    second derivatives, 1e-3 for finite differences."""
    return 1e-8 if u.has_analytic_laplacian else 1e-3


def monogenic_from_gradient(
        u: ScalarField,
        probe_points: Optional[Sequence[ReducedPoint]] = None) -> FlowPotential:
    """The potential w = Dbar u; monogenic exactly when u is harmonic.

    With ``probe_points`` the Laplacian of u is sampled there first and a
    ValueError is raised if it exceeds ``_harmonic_tol(u)``.
    """
    if probe_points is not None:
        tol = _harmonic_tol(u)
        for p in probe_points:
            lap = u.laplacian_at(p)
            if not abs(lap) <= tol:
                raise ValueError(
                    f"scalar field {u.name or '<anonymous>'} is not harmonic: "
                    f"laplacian {lap:.3e} at {p!r} exceeds {tol:.1e}")
    return FlowPotential(scalar_dbar_field(u), name=f"dbar({u.name})",
                         description="conjugate gradient of a harmonic scalar")


class CompletionError(ArithmeticError):
    """The completion quadrature did not reach the requested accuracy."""


@lru_cache(maxsize=64)
def _gauss01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached and read-only."""
    x, w = gauss_legendre(n)
    return _frozen(0.5 * (x + 1.0)), _frozen(0.5 * w)


def _completion_parameters(order, tol, max_doublings) -> None:
    """Raise ValueError naming the first unusable completion parameter."""
    def is_int(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)
    if not (is_int(order) and order >= 1):
        raise ValueError(f"completion order must be an integer >= 1, "
                         f"not {order!r}")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol)
            and tol > 0.0):
        raise ValueError(f"completion tol must be finite and > 0, "
                         f"not {tol!r}")
    if not (is_int(max_doublings) and max_doublings >= 0):
        raise ValueError(f"completion max_doublings must be an integer "
                         f">= 0, not {max_doublings!r}")


# Most segment points in one Dbar u batch of a completion level: memory
# stays bounded (peak near 7 MB), and 72 rows stay one batch to n = 128.
_COMPLETION_BLOCK = 2 ** 14


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two (4, N, 4) jet tables, the largest quaternion norm of
    their difference over the four slots; NaN where any slot is NaN."""
    d = a - b
    norms = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
                    + d[..., 2] * d[..., 2] + d[..., 3] * d[..., 3])
    return np.max(norms, axis=0)


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
    1e-8 after ``max_doublings`` doublings.  ``order`` must be an integer
    of at least 1, ``max_doublings`` one of at least 0 and ``tol`` finite
    and positive; otherwise ValueError is raised here.

    The field has one array path.  Its jet on N points fills the Dbar u
    jets of the (N n, 3) grid of segment points block by block (at most
    ``_COMPLETION_BLOCK`` points a block) and sums over t with numpy;
    doubling runs per point through a mask, so each point takes the
    levels it would take alone.  ``jet_at`` and calls are the one-row case
    and ``value_array`` is the value slot.  A block's table is one pass
    over its grid points in node order: at each point u's domain check,
    the harmonic check, then u's Hessian and gradient (or, for a u without
    a Hessian, the finite-difference jet of Dbar u), streamed into one
    float table.  So each grid point costs one domain check per level, and
    the first failing point raises first, with the error it meets alone
    (levels in order, then t).  Results equal the point-by-point sum bit
    for bit.

    The scalar part of the result reproduces u exactly by construction;
    monogenicity holds when u is harmonic on a region star-shaped about
    the center.  ``check_harmonic`` samples the Laplacian of u at the
    quadrature points of every evaluation and raises ValueError when it
    is out of tolerance.
    """
    _completion_parameters(order, tol, max_doublings)
    if not u.in_domain(center):
        # the Gauss nodes in t skip t = 0, so no evaluation would notice
        raise DomainError(f"completion center {center!r} is outside the "
                          f"domain of {u.name or '<anonymous>'}")
    dbar = scalar_dbar_field(u)
    hard_cap = 1e-8
    lap_tol = _harmonic_tol(u)
    c = np.array(center.as_tuple())

    # a point outside u's domain fails the check the definition meets
    # there first: u's in the harmonic check, else the Dbar u jet's
    check = u._check if check_harmonic else dbar._check
    fd_jet = not u.has_analytic_hessian

    def segment_row(q: ReducedPoint):
        """The Dbar u jet at one segment point, after its checks."""
        check(q)
        if check_harmonic:
            lap = u._laplacian_unchecked(q)
            if not abs(lap) <= lap_tol:
                raise ValueError(
                    f"completion input {u.name or '<anonymous>'} is not "
                    f"harmonic near {q!r} (laplacian {lap:.3e})")
        if fd_jet:
            return _jet_entries(dbar._fd_jet(q))
        h = u._hessian_unchecked(q)
        return _dbar_entries(u._gradient_unchecked(q), h)

    def level(xyz: np.ndarray, n: int) -> np.ndarray:
        """The jets at the rows of xyz from n Gauss nodes in t."""
        ts, ws = _gauss01(n)
        w1 = (ws * ts)[:, None]
        w2 = w1 * ts[:, None]
        out = np.empty((4, len(xyz), 4))
        step = max(1, _COMPLETION_BLOCK // n)
        for start in range(0, len(xyz), step):
            rows = slice(start, start + step)
            arm = xyz[rows] - c
            grid = (c + ts[:, None] * arm[:, None, :]).reshape(-1, 3)
            jd = _jet_rows(segment_row, grid).reshape(4, len(arm), n, 4)
            xq = np.zeros((len(arm), 1, 4))
            xq[:, 0, :3] = arm

            def sum_t(slot: int, terms: np.ndarray) -> None:
                # numpy adds along t in order; + 0.0 gives an all -0.0 sum
                # the +0.0 of a sum started at 0.0, whichever start it takes
                out[slot, rows, 1:] = np.add.reduce(terms, axis=1)[:, 1:] + 0.0

            # chain rule: the x-derivative sees t * (d Dbar u) plus the
            # derivative of the segment endpoint factor (x - c).
            sum_t(0, qmul(jd[0], xq) * w1)
            sum_t(1, qmul(jd[1], xq) * w2 + jd[0] * w1)
            sum_t(2, qmul(jd[2], xq) * w2 + qmul(jd[0], I.as_tuple()) * w1)
            sum_t(3, qmul(jd[3], xq) * w2 + qmul(jd[0], J.as_tuple()) * w1)
        # the rows of xyz passed the field's own domain check
        for k, p in enumerate(as_points(xyz)):
            gx, gy, gz = u._gradient_unchecked(p)
            out[:, k, 0] = float(u._evaluate(p)), gx, gy, gz
        return out

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        n = order
        prev = level(xyz, n)
        out = np.empty_like(prev)
        rows = np.arange(len(xyz))
        for _ in range(max_doublings):
            n *= 2
            cur = level(xyz[rows], n)
            done = _gap(prev, cur) <= tol
            out[:, rows[done]] = cur[:, done]
            rows, prev = rows[~done], cur[:, ~done]
            if not len(rows):
                return out
        n *= 2
        cur = level(xyz[rows], n)
        stuck = ~(_gap(prev, cur) <= hard_cap)
        if stuck.any():
            p = ReducedPoint(*xyz[rows[np.argmax(stuck)]].tolist())
            raise CompletionError(
                f"completion quadrature for {u.name or '<anonymous>'} stuck "
                f"above {hard_cap:.0e} at {p!r} (order {n})")
        out[:, rows] = cur
        return out

    def jet(p: ReducedPoint) -> Jet:
        table = jet_array(np.array([p.as_tuple()]))[:, 0]
        return Jet(*(Quaternion(*q) for q in table.tolist()))

    field = QuaternionField(lambda p: jet(p).value, jet=jet,
                            domain=u._domain, name=f"completion({u.name})",
                            jet_array=jet_array,
                            domain_array=u._domain_array)
    field._array_jet_is_rowwise = True
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
            if not abs(val) <= tol:
                failures.append(f"{label} = {val:.3e} at {p.as_tuple()}")
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        raise IntegrabilityError(
            "velocity field admits no geometric stream functions: "
            + shown + more)

    v0 = velocity(probes[0])
    for p in probes[1:]:
        if not (velocity(p) - v0).norm() <= tol * (1.0 + v0.norm()):
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
            if not abs(s) <= tol:
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

def uniform_flow(u1: float, u2: float = 0.0, u3: float = 0.0) -> FlowPotential:
    """Uniform stream with velocity (u1, u2, u3)."""
    u1, u2, u3 = float(u1), float(u2), float(u3)

    def value(x, y, z, xp):
        return (u1 * x + u2 * y + u3 * z, 0.5 * (u1 * y - u2 * x),
                0.5 * (u1 * z - u3 * x), 0.5 * (u3 * y - u2 * z))

    def partials(x, y, z, xp):
        return (u1, -0.5 * u2, -0.5 * u3, 0.0,
                u2, 0.5 * u1, 0.0, 0.5 * u3,
                u3, 0.0, 0.5 * u1, -0.5 * u2)

    field = _closed_form(value, partials, name=f"uniform({u1},{u2},{u3})")
    return FlowPotential(field, name=field.name,
                         description="uniform stream")


def identity_flow() -> FlowPotential:
    """Monogenic extension of the coordinate x: x + (y/2) i + (z/2) j."""
    field = _closed_form(lambda x, y, z, xp: (x, 0.5 * y, 0.5 * z, 0.0),
                         lambda x, y, z, xp: (1.0, 0.0, 0.0, 0.0,
                                              0.0, 0.5, 0.0, 0.0,
                                              0.0, 0.0, 0.5, 0.0),
                         name="identity")
    return FlowPotential(field, name="identity",
                         description="monogenic extension of x")


def saddle_flow() -> FlowPotential:
    """Monogenic extension of the planar saddle x^2 - y^2."""
    def value(x, y, z, xp):
        return (x * x - y * y, 4.0 * x * y / 3.0, 2.0 * x * z / 3.0,
                2.0 * y * z / 3.0)

    def partials(x, y, z, xp):
        return (2.0 * x, 4.0 * y / 3.0, 2.0 * z / 3.0, 0.0,
                -2.0 * y, 4.0 * x / 3.0, 0.0, 2.0 * z / 3.0,
                0.0, 0.0, 2.0 * x / 3.0, 2.0 * y / 3.0)

    field = _closed_form(value, partials, name="saddle")
    return FlowPotential(field, name="saddle",
                         description="monogenic extension of x^2 - y^2")


def _dbar_closed_form(scalar, name: str) -> QuaternionField:
    """Dbar u as a closed form, for u's value, gradient, Hessian and domain
    over columns (as ``fields._inv_r`` and ``fields._log_x_plus_r``)."""
    _, gradient, hessian, domain = scalar
    return _closed_form(
        lambda x, y, z, xp: _dbar_entries(gradient(x, y, z, xp)),
        lambda x, y, z, xp: _dbar_entries(h=hessian(x, y, z, xp)),
        domain, name=name)


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
    field = _dbar_closed_form(_log_x_plus_r(-m / (4.0 * math.pi), center),
                              name=f"dbar(source_log({m}))")
    return FlowPotential(field, name=f"source({m})",
                         description="point source (ray-cut logarithmic "
                                     "primitive)")


def dipole_flow(coefficient: float,
                center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> FlowPotential:
    """Dipole potential c * conj(x - center) / |x - center|^3, axis along x,
    built as Dbar applied to -c / |x - center|."""
    c0 = float(coefficient)
    field = _dbar_closed_form(_inv_r(-c0, center), name=f"dipole({c0})")
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
                       name: str = "") -> FlowPotential:
    """Embed a planar complex potential into the i-plane of the algebra.

    The plane carries zeta = x + iy; the field w = Re f + (Im f) i is
    independent of z and monogenic wherever f is holomorphic.  ``f``,
    ``fprime`` and ``domain2d`` map one complex number or, elementwise, a
    numpy complex array (the array forms); one that takes only numbers
    raises TypeError on the first array call.
    """
    def zeta(x, y, xp):
        if xp is math:
            return complex(x, y)
        out = x.astype(complex)
        out.imag = y
        return out

    def value(x, y, z, xp):
        fz = f(zeta(x, y, xp))
        return fz.real, fz.imag, 0.0, 0.0

    def partials(x, y, z, xp):
        fp = fprime(zeta(x, y, xp))
        return (fp.real, fp.imag, 0.0, 0.0,
                -fp.imag, fp.real, 0.0, 0.0,
                0.0, 0.0, 0.0, 0.0)

    domain = None
    if domain2d is not None:
        def domain(x, y, z, xp):
            return domain2d(zeta(x, y, xp))

    field = _closed_form(value, partials, domain, name=name or "embedded")
    return FlowPotential(field, name=field.name,
                         description="embedded planar potential")


def _cylinder_forms(speed: float, radius: float, circulation: float = 0.0):
    """f, f' and the planar domain of the flow past a circular cylinder.

    f = U (zeta + a^2 / zeta), plus -(i Gamma / 2 pi) log(zeta) for
    nonzero circulation; all three map complex numbers and numpy complex
    arrays alike.
    """
    u, a, gamma = float(speed), float(radius), float(circulation)
    k = gamma / (2.0 * math.pi)

    def f(z):
        out = u * (z + a * a / z)
        if gamma != 0.0:
            out += -1j * k * _principal_log(z)
        return out

    def fp(z):
        out = u * (1.0 - a * a / (z * z))
        if gamma != 0.0:
            out += -1j * k / z
        return out

    def domain2d(z):
        return abs(z) > DEFAULT_EXCLUSION

    return f, fp, domain2d


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
    f, fp, domain2d = _cylinder_forms(u, a, gamma)
    name = f"embedded_cylinder(U={u},a={a},G={gamma})"
    return embedded_potential(f, fp, domain2d=domain2d, name=name)


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
