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
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import Quaternion, ReducedPoint, _vector_rows
from .surfaces import _frozen, _gauss01, _kronrod01, as_points
from .fields import (
    DEFAULT_EXCLUSION,
    DomainError,
    Jet,
    MonogenicityReport,
    QuaternionField,
    ScalarField,
    _closed_form,
    _column_scalar,
    _dbar_entries,
    _dbar_table,
    _fd_partials,
    _inv_r,
    _jet_entries,
    _jet_rows,
    _log_x_plus_r,
    _undefined,
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

    def __init__(self, field: QuaternionField, name: str = ""):
        self.field = field
        self.name = name or field.name

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

    def table_rows(self, xyz: np.ndarray, derive: Callable):
        return self.field.table_rows(xyz, derive)

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
        cols = [d.as_tuple() for d in _fd_partials(self, p)]
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
    return FlowPotential(scalar_dbar_field(u), name=f"dbar({u.name})")


class CompletionError(ArithmeticError):
    """The completion quadrature did not reach the requested accuracy."""


def _completion_parameters(center, order, tol, max_doublings) -> None:
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
    if not all(map(math.isfinite, center.as_tuple())):
        raise ValueError(f"completion center {center!r} is not finite")


# Most segment points in one Dbar u batch of a completion level, whose
# table on the 2m + 1 Kronrod nodes gives both sums: a full block peaks
# near 8 MB, and 72 rows stay one batch to m = 64 (129 nodes).
_COMPLETION_BLOCK = 2 ** 14


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two (4, N, 4) jet tables, the largest quaternion norm of
    their difference over the four slots; NaN where any slot is NaN."""
    d = a - b
    norms = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
                    + d[..., 2] * d[..., 2] + d[..., 3] * d[..., 3])
    return np.max(norms, axis=0)


# Endpoint terms Dbar u (1, i, j) of the x, y, z partials, vector parts:
# component c (i, j, k) of slot s is entry _END[c, s] of Dbar u, signed by
# _END_SIGN, which _level_rules folds into w t ((-a) w is a (-w)).  The full
# product adds only exact zeros to that entry, which can change nothing but
# the sign of a zero, and every level sum ends in + 0.0.
_END = np.array(((1, 0, 3), (2, 3, 0), (3, 2, 1)))
_END_SIGN = np.array(((1.0, 1.0, -1.0), (1.0, 1.0, 1.0), (1.0, -1.0, 1.0)))


@lru_cache(maxsize=64)
def _level_rules(m: int):
    """The nodes of K_2m+1 and, for G_m then K_2m+1, the Kronrod nodes the
    rule reads, the weights of its outer terms ((w t, w t^2, w t^2, w t^2)
    over the four slots) and those of its endpoint terms (w t, signed by
    _END_SIGN); cached and read-only."""
    ts, wk = _kronrod01(m)
    tg, wg = _gauss01(m)
    rules = []
    for nodes, w, t in ((slice(1, None, 2), wg, tg), (slice(None), wk, ts)):
        w1, w2 = w * t, w * t * t
        rules.append((nodes, _frozen(np.array((w1, w2, w2, w2))[:, None]),
                      _frozen(_END_SIGN[..., None, None] * w1)))
    return ts, tuple(rules)


def monogenic_completion(u: ScalarField,
                         center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0),
                         order: int = 8, tol: float = 1e-10,
                         max_doublings: int = 5) -> FlowPotential:
    """Monogenic extension of a harmonic u by a radial line integral.

    The returned field is

        f(x) = u(x) + Vec( integral_0^1 (Dbar u)(c + t(x-c)) (x-c) t dt )

    evaluated with nested Gauss-Kronrod levels in t.  Level j reads the
    Dbar u jets at the 2m + 1 nodes of K_2m+1, m = order 2^j, once, and
    sums them with the Gauss weights of G_m (every second node) and with
    the Kronrod weights; a point where G_m and K_2m+1 agree to ``tol``
    (value and all three partials) takes K_2m+1.  Levels 0 to
    ``max_doublings`` use ``tol`` and one more level 1e-8, above which
    CompletionError is raised.  The defaults start at G_8/K_17, so a
    point that converges at once reads 17 segment points; levels
    m = 8, ..., 256 use ``tol`` and the cap level is m = 512.  The center
    c must be finite and in the domain of u, which is checked here, and
    so must the whole segment from c to the evaluation point, which is
    checked when evaluating; a domain failure raises DomainError.
    ``order`` must be an integer of at least 1, ``max_doublings`` one of
    at least 0 and ``tol`` finite and positive; otherwise, as for a
    non-finite c, ValueError is raised here.

    The field is its array jet alone: ``jet_at``, calls and ``value_array``
    are its one-row case and value slot.  Its jet on N points takes the
    (N (2m + 1), 3) grid of segment points in blocks of at most
    ``_COMPLETION_BLOCK`` points, and the levels run per point through a
    mask, so each point takes the levels it would take alone.  A block is
    one pass over its grid points in node order, streamed into one float
    table: at each, one kernel, with u's forms bound when the field is
    built, reads u's domain predicate, Laplacian (the harmonic check),
    Hessian and gradient, in that order, and writes u's nine distinct
    derivatives, to which the block applies the sign map of Dbar u on
    columns (``_dbar_table``); for u without a Hessian it writes the
    sixteen entries of the finite-difference jet of ``scalar_dbar_field``.
    The sums are one pass too: one product forms the vector parts of the
    outer terms (d Dbar u)(x - c) of all four slots, the endpoint terms
    Dbar u (1, i, j) of the partials are a gather of Dbar u's components
    (``_END``) whose signs sit in the level's cached rule weights
    (``_level_rules``), and each rule's weighted table is added along t
    from the first node.  On one row the segment table (u's calls, the
    kernels and the sign map) is about a quarter of the time and the fixed
    numpy work of the levels the rest.  The first failing point raises
    first, with the error it meets alone (levels in order, then t), and
    results equal the point-by-point sum bit for bit.

    The scalar part of the result reproduces u exactly by construction;
    monogenicity holds when u is harmonic on a region star-shaped about
    the center.  The harmonic check always runs: ValueError is raised
    where the Laplacian of u at a quadrature point is out of tolerance.
    """
    _completion_parameters(center, order, tol, max_doublings)
    if not u.in_domain(center):
        # the nodes in t skip t = 0, so no evaluation would notice
        raise DomainError(f"completion center {center!r} is outside the "
                          f"domain of {u.name or '<anonymous>'}")
    hard_cap = 1e-8
    lap_tol = _harmonic_tol(u)
    c = np.array(center.as_tuple())
    # u's forms, bound once: each analytic one itself, a missing one the
    # unchecked body that takes its fallback; without a Hessian the Dbar u
    # jet is the finite-difference one of scalar_dbar_field
    domain, hessian = u._domain, u._hessian
    laplacian = u._laplacian if u._laplacian is not None \
        else u._laplacian_unchecked
    gradient = u._gradient if u._gradient is not None \
        else u._gradient_unchecked
    fd_jet = None if hessian is not None else scalar_dbar_field(u)._fd_jet

    def segment_row(q: ReducedPoint):
        """u's nine distinct derivatives at one segment point q (without a
        Hessian, the sixteen Dbar u jet entries), after the domain check
        (``_check``'s error) and the harmonic check."""
        if domain is not None and not domain(q):
            raise _undefined(u, q)
        lap = float(laplacian(q))
        if not abs(lap) <= lap_tol:
            raise ValueError(
                f"completion input {u.name or '<anonymous>'} is not "
                f"harmonic near {q!r} (laplacian {lap:.3e})")
        if fd_jet is not None:
            return _jet_entries(fd_jet(q))
        (h00, h01, h02), (_, h11, h12), (_, _, h22) = hessian(q)
        g = gradient(q)
        gx, gy, gz = (g.x, g.y, g.z) if isinstance(g, ReducedPoint) else g
        return gx, gy, gz, h00, h01, h02, h11, h12, h22

    def point_row(p: ReducedPoint) -> tuple:
        """u and its gradient at an evaluation point; the gradient first."""
        gx, gy, gz = u._gradient_unchecked(p)
        return float(u._evaluate(p)), gx, gy, gz

    def level(xyz: np.ndarray, m: int) -> np.ndarray:
        """The vector parts of G_m and K_2m+1 at the rows of xyz, (2, 4,
        N, 4), from one segment table on the nodes of K_2m+1."""
        ts, rules = _level_rules(m)
        n = len(ts)
        out = np.empty((2, 4, len(xyz), 4))
        step = max(1, _COMPLETION_BLOCK // n)
        for start in range(0, len(xyz), step):
            rows = slice(start, start + step)
            arm = xyz[rows] - c
            grid = (c + ts[:, None] * arm[:, None, :]).reshape(-1, 3)
            jd = _jet_rows(segment_row, grid) if fd_jet is not None else \
                _dbar_table(_jet_rows(segment_row, grid, 1, 9)[0])
            # component, slot, row, node
            jd = jd.reshape(4, len(arm), n, 4).transpose(3, 0, 1, 2)
            # chain rule: a partial sees t (d Dbar u)(x - c) plus Dbar u
            # times the partial of x - c (1, i or j); vector parts only
            outer = np.stack(_vector_rows(jd, arm.T[:, None, :, None]))
            end = jd[_END, 0]
            del jd   # free the segment table before the sums
            for table, (nodes, w_outer, w_end) in zip(out, rules):
                terms = outer[..., nodes] * w_outer
                terms[:, 1:] += end[..., nodes] * w_end
                # one pass along t from the first node; + 0.0 turns an all
                # -0.0 sum into the +0.0 of a sum started at 0.0
                sums = np.add.accumulate(terms, axis=-1, out=terms)[..., -1]
                table[:, rows, 1:] = sums.transpose(1, 2, 0) + 0.0
        return out

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        out = np.empty((4, len(xyz), 4))
        rows = np.arange(len(xyz))
        for j in range(max_doublings + 2):
            m = order * 2 ** j
            pair = level(xyz[rows], m)
            if not j:
                # the rows of xyz passed the field's own domain check
                base = np.fromiter(chain.from_iterable(
                    map(point_row, as_points(xyz))), float,
                    count=4 * len(xyz))
                out[:, :, 0] = base.reshape(-1, 4).T
            pair[..., 0] = out[:, rows, 0]   # a NaN there fails the gap
            done = _gap(*pair) <= (tol if j <= max_doublings else hard_cap)
            if not done.all() and j > max_doublings:
                p = ReducedPoint(*xyz[rows[np.argmin(done)]].tolist())
                raise CompletionError(
                    f"completion quadrature for {u.name or '<anonymous>'} "
                    f"stuck above {hard_cap:.0e} at {p!r} (order {m})")
            out[:, rows[done]] = pair[1][:, done]
            rows = rows[~done]
            if not len(rows):
                break
        return out

    field = QuaternionField(None, domain=u._domain,
                            name=f"completion({u.name})", jet_array=jet_array,
                            domain_array=u._domain_array)
    return FlowPotential(field, name=f"completion({u.name})")


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

    def flat(x, y, z, xp):
        return ((0.0,) * 3,) * 3

    psi1 = _column_scalar("psi1", lambda x, y, z, xp: 0.5 * (u1 * y - u2 * x),
                          None, lambda x, y, z, xp: (-0.5 * u2, 0.5 * u1, 0.0),
                          flat, None)
    psi2 = _column_scalar("psi2", lambda x, y, z, xp: 0.5 * (u1 * z - u3 * x),
                          None, lambda x, y, z, xp: (-0.5 * u3, 0.0, 0.5 * u1),
                          flat, None)
    psi3 = _column_scalar("psi3", lambda x, y, z, xp: 0.5 * (u3 * y - u2 * z),
                          None, lambda x, y, z, xp: (0.0, 0.5 * u3, -0.5 * u2),
                          flat, None)
    return StreamFunctions(psi1, psi2, psi3, uniform_flow(u1, u2, u3))


# ----------------------------------------------------------------------
# gauge freedom
# ----------------------------------------------------------------------

def vector_gauge_field() -> QuaternionField:
    """The vector-valued monogenic field x j + y k (zero scalar part), as a
    ``_closed_form``, so a closed form plus it writes one jet table."""
    return _closed_form(lambda x, y, z, xp: (0.0, 0.0, x, y),
                        lambda x, y, z, xp: (0.0, 0.0, 1.0, 0.0,
                                             0.0, 0.0, 0.0, 1.0,
                                             0.0, 0.0, 0.0, 0.0),
                        name="xj+yk")


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
    return FlowPotential(field)


def identity_flow() -> FlowPotential:
    """Monogenic extension of the coordinate x: x + (y/2) i + (z/2) j."""
    field = _closed_form(lambda x, y, z, xp: (x, 0.5 * y, 0.5 * z, 0.0),
                         lambda x, y, z, xp: (1.0, 0.0, 0.0, 0.0,
                                              0.0, 0.5, 0.0, 0.0,
                                              0.0, 0.0, 0.5, 0.0),
                         name="identity")
    return FlowPotential(field, name="identity")


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
    return FlowPotential(field, name="saddle")


def _dbar_closed_form(scalar, name: str) -> QuaternionField:
    """Dbar u as a closed form, for u's value, prelude, gradient, Hessian
    and domain over columns (as ``fields._inv_r`` and
    ``fields._log_x_plus_r``); a jet computes the prelude once."""
    _, prelude, gradient, hessian, domain = scalar
    return _closed_form(lambda *columns: _dbar_entries(gradient(*columns)),
                        lambda *columns: _dbar_entries(h=hessian(*columns)),
                        domain, name=name, prelude=prelude)


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
    return FlowPotential(field, name=f"source({m})")


def dipole_flow(coefficient: float,
                center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0)) -> FlowPotential:
    """Dipole potential c * conj(x - center) / |x - center|^3, axis along x,
    built as Dbar applied to -c / |x - center|."""
    c0 = float(coefficient)
    field = _dbar_closed_form(_inv_r(-c0, center), name=f"dipole({c0})")
    return FlowPotential(field)


def sphere_flow(speed: float, radius: float) -> FlowPotential:
    """Uniform stream past a sphere of the given radius at the origin."""
    u, a = float(speed), float(radius)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"sphere flow needs a finite radius > 0, got {a!r}")
    pot = uniform_flow(u) + dipole_flow(0.5 * u * a ** 3)
    pot.name = f"sphere(U={u},a={a})"
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
    return FlowPotential(field)


def _cylinder_forms(speed: float, radius: float, circulation: float = 0.0):
    """f, f' and the planar domain of the flow past a circular cylinder.

    f = U (zeta + a^2 / zeta), plus -(i Gamma / 2 pi) log(zeta) for
    nonzero circulation; all three map complex numbers and numpy complex
    arrays alike.
    """
    u, a, gamma = float(speed), float(radius), float(circulation)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"cylinder flow needs a finite radius > 0, got {a!r}")
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
