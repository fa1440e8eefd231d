"""Oriented parametric surfaces and quaternionic surface quadrature.

A surface is a list of charts, each mapping a parameter rectangle into
space with analytic partials.  Quadrature places a Gauss-Legendre tensor
grid on every chart; the oriented element is

    dsigma = (n1 + n2 i + n3 j) dS

with n the outward unit normal.  Integrals of the two-sided form
g dsigma f are the workhorse for Cauchy-type theorems and for force and
moment evaluation.

Nodes are numpy arrays: a chart maps the whole parameter grid at once
to (N, 3) points, unit normals and unit tangents, generated chart-major
in a fixed order, and a body's volume nodes form one (N, 3) tensor grid.
Every integral evaluates its callables on those arrays (``node_values``):
a field with an array form in one call per chart, any other callable
node by node.  One reduction, ``quadrature_sum``, sums the rows against
the weights block by block (chart or volume grid), adding in order.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import Quaternion, ReducedPoint, qmul

__all__ = [
    "gauss_legendre",
    "Chart",
    "ChartNodes",
    "ParametricSurface",
    "RegularBody",
    "VolumeNodes",
    "sphere_body",
    "box_body",
    "cylinder_body",
    "integrate_g_dsigma_f",
    "integrate_scalar_dsigma",
    "integrate_scalar",
    "integrate_vector_area",
    "integrate_moment_kernel",
]


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _scaled_gauss(n: int, a: float, b: float):
    x, w = gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _vectors(x, y, z) -> np.ndarray:
    """Stack three coordinate arrays (or scalars) into an (..., 3) array."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1).astype(float)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise vector product, the expressions of ReducedPoint.cross."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx),
                    axis=-1)


def norm_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm, the expression of ReducedPoint.norm."""
    return np.sqrt(a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]
                   + a[..., 2] * a[..., 2])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_points(xyz: np.ndarray) -> Iterator[ReducedPoint]:
    """The rows of an (N, 3) array as ReducedPoint values, made one at a
    time as the iterator is consumed."""
    return map(ReducedPoint, *xyz.T.tolist())


class Chart:
    """One oriented parametric patch.

    ``position`` and the two analytic ``partial`` callables take parameter
    arrays s, t of equal shape within ``s_range`` x ``t_range`` and
    return an array of shape ``s.shape + (3,)``, or a 3-vector that is
    the same at every node.  The oriented normal is
    ``orientation * (r_s x r_t)`` normalized; orientation is +1 or -1.
    ``node_counts`` maps a quadrature order to per-axis node counts.
    ``meta`` carries structural tags (chart role, cap pairing) consumed
    by integration gates downstream.
    """

    def __init__(self, position, partial_s, partial_t,
                 s_range: tuple[float, float], t_range: tuple[float, float],
                 orientation: int = 1, name: str = "",
                 node_counts: Optional[Callable[[int], tuple[int, int]]] = None,
                 meta: Optional[dict] = None):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.position = position
        self.partial_s = partial_s
        self.partial_t = partial_t
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.orientation = orientation
        self.name = name
        self.node_counts = node_counts or (lambda order: (order, order))
        self.meta = dict(meta or {})

    def nodes(self, order: int) -> "ChartNodes":
        ns, nt = self.node_counts(order)
        s_nodes, s_w = _scaled_gauss(ns, *self.s_range)
        t_nodes, t_w = _scaled_gauss(nt, *self.t_range)
        # s-major tensor grid: node k sits at (s[k // nt], t[k % nt])
        s = np.repeat(s_nodes, nt)
        t = np.tile(t_nodes, ns)
        shape = (ns * nt, 3)
        points = np.broadcast_to(self.position(s, t), shape).astype(float)
        rs = np.broadcast_to(self.partial_s(s, t), shape)
        rt = np.broadcast_to(self.partial_t(s, t), shape)
        cr = cross_rows(rs, rt)
        area = norm_rows(cr)
        degenerate = area <= 0.0
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise ValueError(
                f"degenerate surface element on chart "
                f"{self.name or '<anonymous>'} at ({s[k]}, {t[k]})")
        normals = cr / area[:, None]
        if self.orientation < 0:
            normals = -normals
        tangents = np.stack((rs / norm_rows(rs)[:, None],
                             rt / norm_rows(rt)[:, None]))
        weights = np.repeat(s_w, nt) * np.tile(t_w, ns) * area
        return ChartNodes(self, _frozen(points), _frozen(normals),
                          _frozen(tangents), _frozen(weights))


class ChartNodes:
    """Quadrature data for one chart, in chart-major node order.

    ``point_array`` holds the (N, 3) node positions, ``normal_array`` the
    outward unit normals, ``tangent_array`` the (2, N, 3) unit tangents
    along s and t and ``weights`` the dS weights; all are read-only.
    ``points`` and ``normals`` give the same nodes as ReducedPoint lists,
    built on first use.
    """

    def __init__(self, chart: Chart, point_array: np.ndarray,
                 normal_array: np.ndarray, tangent_array: np.ndarray,
                 weights: np.ndarray):
        self.chart = chart
        self.point_array = point_array
        self.normal_array = normal_array
        self.tangent_array = tangent_array
        self.weights = weights

    @cached_property
    def points(self) -> list[ReducedPoint]:
        return list(as_points(self.point_array))

    @cached_property
    def normals(self) -> list[ReducedPoint]:
        return list(as_points(self.normal_array))

    def normal_quaternions(self) -> np.ndarray:
        """The (N, 4) reduced quaternions n1 + n2 i + n3 j of dsigma / dS."""
        out = np.zeros((len(self.weights), 4))
        out[:, :3] = self.normal_array
        return out


class ParametricSurface:
    """An oriented surface assembled from charts, with cached quadrature."""

    def __init__(self, charts: Sequence[Chart], name: str = ""):
        self.charts = list(charts)
        if not self.charts:
            raise ValueError("a surface needs at least one chart")
        self.name = name
        self._node_cache: dict[int, tuple[ChartNodes, ...]] = {}

    def quadrature(self, order: int) -> tuple[ChartNodes, ...]:
        order = int(order)
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        if order not in self._node_cache:
            self._node_cache[order] = tuple(c.nodes(order) for c in self.charts)
        return self._node_cache[order]

    def node_count(self, order: int) -> int:
        return sum(len(cn.weights) for cn in self.quadrature(order))

    def area(self, order: int) -> float:
        return float(sum(np.sum(cn.weights) for cn in self.quadrature(order)))


class VolumeNodes(NamedTuple):
    """A solid's read-only (N, 3) ``point_array`` and ``weights``."""

    point_array: np.ndarray
    weights: np.ndarray

    @property
    def points(self) -> list[ReducedPoint]:
        return list(as_points(self.point_array))


def _volume_grid(axes, nodes) -> VolumeNodes:
    """Gauss tensor grid over three (count, low, high) axes, the first slowest;
    ``nodes(a, b, c, w)`` maps coordinates and weights to (x, y, z, weight)."""
    (a, wa), (b, wb), (c, wc) = (_scaled_gauss(*axis) for axis in axes)
    grid = (a[:, None, None], b[None, :, None], c[None, None, :])
    w = wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
    x, y, z, weight = nodes(*grid, w)
    return VolumeNodes(_frozen(_vectors(x, y, z).reshape(w.size, 3)),
                       _frozen(weight.reshape(w.size)))


class RegularBody:
    """A closed surface bounding a solid, with optional volume quadrature."""

    def __init__(self, surface: ParametricSurface,
                 interior_point: ReducedPoint,
                 volume_nodes: Optional[Callable[[int], VolumeNodes]] = None,
                 name: str = ""):
        self.surface = surface
        self.interior_point = interior_point
        self._volume_nodes = volume_nodes
        self.name = name or surface.name
        self._volume_cache: dict[int, VolumeNodes] = {}

    def volume_nodes(self, order: int) -> VolumeNodes:
        if self._volume_nodes is None:
            raise ValueError(f"body {self.name!r} has no volume quadrature")
        order = int(order)
        if order not in self._volume_cache:
            self._volume_cache[order] = self._volume_nodes(order)
        return self._volume_cache[order]

    def volume(self, order: int) -> float:
        return float(np.sum(self.volume_nodes(order).weights))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def sphere_body(radius: float,
                center: ReducedPoint = ReducedPoint(0.0, 0.0, 0.0),
                name: str = "") -> RegularBody:
    """Sphere, one chart in (u, phi) with u = cos(polar angle).

    In these parameters the area element is exactly R^2 du dphi, so the
    Gauss grid in u integrates polynomials in the polar cosine exactly.
    The raw cross product r_u x r_phi points inward; orientation -1
    flips it outward.
    """
    r0 = float(radius)
    cx, cy, cz = center.x, center.y, center.z
    if not (r0 > 0.0 and all(map(math.isfinite, (r0, cx, cy, cz)))):
        raise ValueError("sphere needs a finite positive radius and center")

    def pos(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return _vectors(cx + r0 * s * np.cos(phi), cy + r0 * s * np.sin(phi),
                        cz + r0 * u)

    def dpos_du(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return _vectors(-r0 * u * np.cos(phi) / s, -r0 * u * np.sin(phi) / s,
                        r0)

    def dpos_dphi(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return _vectors(-r0 * s * np.sin(phi), r0 * s * np.cos(phi), 0.0)

    chart = Chart(pos, dpos_du, dpos_dphi, (-1.0, 1.0), (0.0, 2.0 * math.pi),
                  orientation=-1, name="sphere",
                  node_counts=lambda order: (order, 2 * order),
                  meta={"role": "sphere"})
    surface = ParametricSurface([chart], name=name or f"sphere(R={r0})")

    def ball(r, u, phi, w):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return (cx + r * s * np.cos(phi), cy + r * s * np.sin(phi),
                cz + r * u, w * r * r)

    def volume_nodes(order: int) -> VolumeNodes:
        return _volume_grid(((order, 0.0, r0), (order, -1.0, 1.0),
                             (2 * order, 0.0, 2.0 * math.pi)), ball)

    return RegularBody(surface, center, volume_nodes, name=surface.name)


def box_body(x_range: tuple[float, float], y_range: tuple[float, float],
             z_range: tuple[float, float], name: str = "") -> RegularBody:
    """Axis-aligned box with six face charts, normals outward."""
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    z0, z1 = map(float, z_range)
    if not (x0 < x1 and y0 < y1 and z0 < z1
            and all(map(math.isfinite, (x0, x1, y0, y1, z0, z1)))):
        raise ValueError("box ranges must be finite and increasing")

    ex = np.array([1.0, 0.0, 0.0])
    ey = np.array([0.0, 1.0, 0.0])
    ez = np.array([0.0, 0.0, 1.0])

    def const(v):
        return lambda s, t: v

    charts = [
        # r_s x r_t for (y, z) parameters is +x; flip on the low face.
        Chart(lambda s, t: _vectors(x1, s, t), const(ey), const(ez),
              (y0, y1), (z0, z1), orientation=1, name="face+x",
              meta={"role": "box_face"}),
        Chart(lambda s, t: _vectors(x0, s, t), const(ey), const(ez),
              (y0, y1), (z0, z1), orientation=-1, name="face-x",
              meta={"role": "box_face"}),
        # (x, z) parameters give r_s x r_t = -y; flip on the high face.
        Chart(lambda s, t: _vectors(s, y1, t), const(ex), const(ez),
              (x0, x1), (z0, z1), orientation=-1, name="face+y",
              meta={"role": "box_face"}),
        Chart(lambda s, t: _vectors(s, y0, t), const(ex), const(ez),
              (x0, x1), (z0, z1), orientation=1, name="face-y",
              meta={"role": "box_face"}),
        # (x, y) parameters give r_s x r_t = +z; flip on the low face.
        Chart(lambda s, t: _vectors(s, t, z1), const(ex), const(ey),
              (x0, x1), (y0, y1), orientation=1, name="face+z",
              meta={"role": "box_face"}),
        Chart(lambda s, t: _vectors(s, t, z0), const(ex), const(ey),
              (x0, x1), (y0, y1), orientation=-1, name="face-z",
              meta={"role": "box_face"}),
    ]
    surface = ParametricSurface(charts, name=name or "box")
    mid = ReducedPoint(0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * (z0 + z1))

    def volume_nodes(order: int) -> VolumeNodes:
        return _volume_grid(((order, x0, x1), (order, y0, y1),
                             (order, z0, z1)), lambda x, y, z, w: (x, y, z, w))

    return RegularBody(surface, mid, volume_nodes, name=surface.name)


def cylinder_body(radius: float, z_min: float, z_max: float,
                  center2d: tuple[float, float] = (0.0, 0.0),
                  name: str = "") -> RegularBody:
    """Circular cylinder with flat caps.

    The side chart runs (angle, height) with normal (y', -x', 0)/R, which
    is the outward radial direction.  Each cap is ruled from the axis
    point outward; top and bottom caps share the same parameter nodes and
    differ only in orientation, so cap contributions of any z-independent
    integrand cancel bitwise.
    """
    r0 = float(radius)
    z0, z1 = float(z_min), float(z_max)
    cx, cy = map(float, center2d)
    if not (r0 > 0.0 and z0 < z1
            and all(map(math.isfinite, (r0, z0, z1, cx, cy)))):
        raise ValueError("cylinder needs finite r > 0, z_min < z_max, center")

    def side_pos(s, t):
        return _vectors(cx + r0 * np.cos(s), cy + r0 * np.sin(s), t)

    def side_ds(s, t):
        return _vectors(-r0 * np.sin(s), r0 * np.cos(s), 0.0)

    side = Chart(side_pos, side_ds,
                 lambda s, t: np.array([0.0, 0.0, 1.0]),
                 (0.0, 2.0 * math.pi), (z0, z1), orientation=1,
                 name="cylinder_side",
                 node_counts=lambda order: (2 * order, order),
                 meta={"role": "cylinder_side"})

    def cap_pos(z_cap):
        return lambda u, s: _vectors(cx + u * r0 * np.cos(s),
                                     cy + u * r0 * np.sin(s), z_cap)

    def cap_du(u, s):
        return _vectors(r0 * np.cos(s), r0 * np.sin(s), 0.0)

    def cap_ds(u, s):
        return _vectors(-u * r0 * np.sin(s), u * r0 * np.cos(s), 0.0)

    caps_meta = {"role": "cap", "pair_id": "cylinder_caps"}
    top = Chart(cap_pos(z1), cap_du, cap_ds, (0.0, 1.0), (0.0, 2.0 * math.pi),
                orientation=1, name="cap_top",
                node_counts=lambda order: (order, 2 * order),
                meta={**caps_meta, "cap_side": "top"})
    bottom = Chart(cap_pos(z0), cap_du, cap_ds, (0.0, 1.0),
                   (0.0, 2.0 * math.pi), orientation=-1, name="cap_bottom",
                   node_counts=lambda order: (order, 2 * order),
                   meta={**caps_meta, "cap_side": "bottom"})

    surface = ParametricSurface([side, top, bottom],
                                name=name or f"cylinder(R={r0})")
    axis_mid = ReducedPoint(cx, cy, 0.5 * (z0 + z1))

    def solid(r, s, z, w):
        return cx + r * np.cos(s), cy + r * np.sin(s), z, w * r

    def volume_nodes(order: int) -> VolumeNodes:
        return _volume_grid(((order, 0.0, r0), (2 * order, 0.0, 2.0 * math.pi),
                             (order, z0, z1)), solid)

    return RegularBody(surface, axis_mid, volume_nodes, name=surface.name)


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------

def evaluate_nodes(fn, points: Iterable[ReducedPoint]) -> list:
    """Apply fn to every point, in order."""
    return [fn(p) for p in points]


def node_rows(fn, xyz: np.ndarray) -> np.ndarray:
    """fn at each row of an (N, 3) array, in order: (N, 4) rows for
    quaternion values, (N,) for real ones."""
    values = evaluate_nodes(fn, as_points(xyz))
    if isinstance(values[0], Quaternion):
        return np.array([q.as_tuple() for q in values])
    return np.array(values, dtype=float)


def node_values(fn, xyz: np.ndarray) -> np.ndarray:
    """``node_rows``, in one call for fields and potentials (value_array)."""
    value_array = getattr(fn, "value_array", None)
    return node_rows(fn, xyz) if value_array is None else value_array(xyz)


def in_node_order(evaluate, node_calls, xyz: np.ndarray):
    """evaluate(xyz); if that raises, node_calls first runs at the rows one
    by one, so the error raised is the first one the node-by-node order
    meets (the one from evaluate if node_calls passes every row)."""
    try:
        return evaluate(xyz)
    except Exception as error:
        failed = error
    evaluate_nodes(node_calls, as_points(xyz))
    raise failed


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for (N, 4) quaternion rows; (N,) real rows scale the other side,
    as Quaternion's scalar product does."""
    if a.ndim == 1:
        return b * a[:, None]
    if b.ndim == 1:
        return a * b[:, None]
    return qmul(a, b)


def quadrature_sum(blocks, rows) -> np.ndarray:
    """Sum of rows times weights over ChartNodes or VolumeNodes blocks:
    ``rows`` yields one array per block, first axis over its nodes, each
    block is summed by numpy and the block sums are added in order from 0."""
    total = 0.0
    for block, r in zip(blocks, rows):
        w = block.weights.reshape((-1,) + (1,) * (r.ndim - 1))
        total = total + np.sum(r * w, axis=0)
    return total


def _surface_of(obj) -> ParametricSurface:
    """The surface of a RegularBody; any other object is returned as is."""
    return obj.surface if isinstance(obj, RegularBody) else obj


def _chart_sum(surface, order: int, rows_fn, *per_chart) -> np.ndarray:
    """quadrature_sum of rows_fn(chart nodes, *one entry of each per_chart)."""
    quadrature = _surface_of(surface).quadrature(order)
    return quadrature_sum(quadrature, map(rows_fn, quadrature, *per_chart))


def moment_arms(cn: ChartNodes, about: ReducedPoint) -> np.ndarray:
    """(x - about) x n at every node of a chart."""
    arm = cn.point_array - np.array(about.as_tuple())
    return cross_rows(arm, cn.normal_array)


def integrate_g_dsigma_f(surface, g, f, order: int) -> Quaternion:
    """The two-sided surface integral of g dsigma f.

    Either side may be None (treated as the constant 1).  g and f map
    points to quaternions or to real numbers; fields qualify.  An error
    is the first one that g(p), f(p) node by node would meet.
    """
    sides = [h for h in (g, f) if h is not None]

    def rows(cn: ChartNodes) -> np.ndarray:
        values = in_node_order(
            lambda xyz: [node_values(h, xyz) for h in sides],
            lambda p: [h(p) for h in sides], cn.point_array)
        out = cn.normal_quaternions()
        if g is not None:
            out = _times(values[0], out)
        return out if f is None else _times(out, values[-1])

    return Quaternion(*_chart_sum(surface, order, rows))


def integrate_scalar_dsigma(surface, h, order: int) -> Quaternion:
    """Integral of a scalar weight against the quaternion element dsigma."""
    return integrate_g_dsigma_f(surface, None, h, order)


def integrate_scalar(surface, h, order: int) -> float:
    """Plain scalar surface integral of h dS."""
    return float(_chart_sum(surface, order,
                            lambda cn: node_values(h, cn.point_array)))


def integrate_vector_area(surface, order: int) -> ReducedPoint:
    """The vector area: integral of the unit normal dS; zero when closed."""
    return ReducedPoint(*_chart_sum(surface, order,
                                    lambda cn: cn.normal_array))


def integrate_moment_kernel(surface, h, about: ReducedPoint,
                            order: int) -> ReducedPoint:
    """Integral of h(x) (x - about) x n dS, the moment-arm weighted normal."""
    def rows(cn: ChartNodes) -> np.ndarray:
        return node_values(h, cn.point_array)[:, None] * moment_arms(cn, about)

    return ReducedPoint(*_chart_sum(surface, order, rows))
