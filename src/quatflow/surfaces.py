"""Oriented parametric surfaces and quaternionic surface quadrature.

A surface is a list of charts, each mapping a parameter rectangle into
space with analytic partials.  Quadrature places a Gauss-Legendre tensor
grid on every chart; the oriented element is

    dsigma = (n1 + n2 i + n3 j) dS

with n the outward unit normal.  Integrals of the two-sided form
g dsigma f are the workhorse for Cauchy-type theorems and for force and
moment evaluation.  The 1D rules live here too: ``gauss_legendre``,
``_scaled_gauss``, and the completion's ``_gauss01`` and Kronrod
``_kronrod01`` on [0, 1].

Nodes are numpy arrays: a chart's one geometry form, evaluated on the
axes of its Gauss grid, gives (x, y, z) component triples that are
written straight into (3, N) rows of points and unit normals, copied
once, chart-major, into one ``NodeBlock`` per surface and order, and a
body's volume nodes form one (3, N) tensor grid the same way, read as
its (N, 3) transposed view.  Every integral evaluates its callables on a
block's (N, 3) point array (``node_values``): a field with an array form
in one call, any other callable node by node.  One reduction,
``quadrature_sum``, sums (k, N) kernel rows against the weights span by
span (chart or volume grid), adding in node order.
"""

from __future__ import annotations

import math
import operator
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


@lru_cache(maxsize=64)
def _gauss01(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached and read-only."""
    return tuple(map(_frozen, _scaled_gauss(n, 0.0, 1.0)))


@lru_cache(maxsize=64)
def _kronrod01(n: int):
    """The Kronrod rule K_2n+1 on [0, 1], cached and read-only: its nodes,
    ascending, with those of ``_gauss01(n)`` (their bits) at the odd
    places, and its weights.  Laurie's algorithm (Math. Comp. 66, 1997)
    extends the Legendre recurrence's off-diagonal squares b (the diagonal
    stays 0 for an even weight) to the Jacobi-Kronrod matrix; the nodes
    are its eigenvalues, the weights its Christoffel numbers.  Even and odd
    indices grouped, the matrix is [[0, B], [B^T, 0]] with B bidiagonal, so
    the eigenvalues are 0 and +- the singular values of B."""
    k = np.arange(1.0, 2 * n + 1)
    b = np.concatenate(([2.0], k * k / (4.0 * k * k - 1.0)))
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - m + k
        s[j] = np.cumsum(b[m - k] * s[j + 1] - b[k + n + 1] * s[j])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1]] / s[j[-1] + 1]
        s, t = t, s
    r = np.sqrt(b)
    bidiagonal = np.eye(n + 1, n) * r[1::2] + np.eye(n + 1, n, -1) * r[2::2]
    s = np.linalg.svd(bidiagonal, compute_uv=False)   # descending
    x = np.concatenate((-s, [0.0], s[::-1]))   # symmetric about 0
    # 1 / w = sum_k p_k(x)^2 over the matrix's orthonormal polynomials
    p_prev, p = np.zeros_like(x), np.full_like(x, 1.0 / r[0])
    total = p * p
    for k in range(2 * n):
        p_prev, p = p, (x * p - r[k] * p_prev) / r[k + 1]
        total += p * p
    ts = 0.5 * (x + 1.0)
    ts[1::2] = _gauss01(n)[0]
    return _frozen(ts), _frozen(0.25 / total + 0.25 / total[::-1])


def cross_rows(a, b, out: np.ndarray) -> np.ndarray:
    """Vector product of (x, y, z) triples, written into out's (3, ...) rows
    (out may be a or b) and returned; the expressions of ReducedPoint.cross."""
    ax, ay, az = a
    bx, by, bz = b
    out[0], out[1], out[2] = (ay * bz - az * by, az * bx - ax * bz,
                              ax * by - ay * bx)
    return out


def norm_rows(a) -> np.ndarray:
    """Euclidean norm of (3, ...) component rows, as ReducedPoint.norm."""
    ax, ay, az = a
    return np.sqrt(ax * ax + ay * ay + az * az)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_points(xyz: np.ndarray) -> Iterator[ReducedPoint]:
    """The rows of an (N, 3) array as ReducedPoint values, made one at a
    time as the iterator is consumed."""
    return map(ReducedPoint, *xyz.T.tolist())


class Chart:
    """One oriented parametric patch.

    ``geometry(s, t)`` returns ``(r, r_s, r_t)``: the position and its two
    analytic partials.  It receives parameter arrays s, t within
    ``s_range`` x ``t_range`` that broadcast against each other (the Gauss
    nodes of s as an (ns, 1) column, those of t as a (1, nt) row), and
    each result is an ``(x, y, z)`` tuple or list of components, each a
    scalar or an array that broadcasts to the (ns, nt) grid; anything
    else raises ValueError.  The oriented normal is
    ``orientation * (r_s x r_t)`` normalized; orientation is +1 or -1.
    ``node_counts`` maps a quadrature order to per-axis node counts.
    """

    def __init__(self, geometry,
                 s_range: tuple[float, float], t_range: tuple[float, float],
                 orientation: int = 1, name: str = "",
                 node_counts: Optional[Callable[[int], tuple[int, int]]] = None):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.geometry = geometry
        self.s_range = (float(s_range[0]), float(s_range[1]))
        self.t_range = (float(t_range[0]), float(t_range[1]))
        self.orientation = orientation
        self.name = name
        self.node_counts = node_counts or (lambda order: (order, order))

    def nodes(self, order: int) -> "ChartNodes":
        ns, nt = self.node_counts(order)
        s, s_w = _scaled_gauss(ns, *self.s_range)
        t, t_w = _scaled_gauss(nt, *self.t_range)
        forms = self.geometry(s[:, None], t[None, :])
        if not all(isinstance(v, (tuple, list)) and len(v) == 3
                   for v in forms):
            raise ValueError(f"chart {self.name or '<anonymous>'}: geometry "
                             f"must give r, r_s, r_t as (x, y, z) triples")
        # s-major tensor grid: node k sits at (s[k // nt], t[k % nt])
        points, normals = np.empty((3, ns * nt)), np.empty((3, ns * nt))
        r = points.reshape(3, ns, nt)
        r[0], r[1], r[2] = forms[0]
        cross_rows(*forms[1:], normals.reshape(3, ns, nt))
        area = norm_rows(normals)
        degenerate = ~(area > 0.0)   # NaN elements too
        if degenerate.any():
            k = int(np.argmax(degenerate))
            raise ValueError(
                f"degenerate surface element on chart "
                f"{self.name or '<anonymous>'} at ({s[k // nt]}, {t[k % nt]})")
        normals /= area
        if self.orientation < 0:
            np.negative(normals, out=normals)
        weights = (s_w[:, None] * t_w).reshape(-1) * area
        return ChartNodes(self, _frozen(points), _frozen(normals),
                          _frozen(weights))


class ChartNodes:
    """Quadrature data for one chart, in chart-major node order.

    ``point_rows`` and ``normal_rows`` hold the node positions and outward
    unit normals as (3, N) rows, ``weights`` the dS weights; all read-only,
    views of the surface's ``NodeBlock`` at the chart's span (those of
    ``Chart.nodes`` own their data).  ``point_array`` and
    ``normal_array`` are the rows' (N, 3) transposed views.
    ``points`` and ``normals`` give the same nodes as ReducedPoint lists,
    built on first use.
    """

    def __init__(self, chart: Chart, point_rows: np.ndarray,
                 normal_rows: np.ndarray, weights: np.ndarray):
        self.chart = chart
        self.point_rows = point_rows
        self.normal_rows = normal_rows
        self.weights = weights
        self.point_array = point_rows.T
        self.normal_array = normal_rows.T
        self._arms = (None, None)

    @cached_property
    def points(self) -> list[ReducedPoint]:
        return list(as_points(self.point_array))

    @cached_property
    def normals(self) -> list[ReducedPoint]:
        return list(as_points(self.normal_array))

    def moment_arms(self, about: ReducedPoint) -> np.ndarray:
        """(x - about) x n at every node, as read-only (3, N) rows; those of
        the last reference point (keyed by its bits) are kept."""
        centre = np.array(about.as_tuple())
        key = centre.tobytes()
        if self._arms[0] != key:
            arm = self.point_rows - centre[:, None]
            self._arms = (key, _frozen(cross_rows(arm, self.normal_rows, arm)))
        return self._arms[1]


class NodeBlock(ChartNodes):
    """A surface's nodes at one order, its charts' ChartNodes copied once,
    chart-major, into rows that are C-contiguous and own their memory.
    ``spans`` are the charts' slices of the node axis, in chart order, and
    ``charts`` the read-only ChartNodes views of the block at them."""

    def __init__(self, parts: Sequence[ChartNodes]):
        super().__init__(None, *(
            _frozen(np.concatenate([getattr(cn, name) for cn in parts], -1))
            for name in ("point_rows", "normal_rows", "weights")))
        ends = np.cumsum([len(cn.weights) for cn in parts]).tolist()
        self.spans = tuple(map(slice, [0] + ends[:-1], ends))
        self.charts = tuple(
            ChartNodes(cn.chart, self.point_rows[:, span],
                       self.normal_rows[:, span], self.weights[span])
            for cn, span in zip(parts, self.spans))


class ParametricSurface:
    """An oriented surface assembled from charts, with cached quadrature."""

    def __init__(self, charts: Sequence[Chart], name: str = ""):
        self.charts = list(charts)
        if not self.charts:
            raise ValueError("a surface needs at least one chart")
        self.name = name
        self._node_cache: dict[int, NodeBlock] = {}

    def quadrature(self, order: int) -> tuple[ChartNodes, ...]:
        """Each chart's nodes at an order, as views of ``nodes(order)``."""
        order = operator.index(order)
        if order < 2:
            raise ValueError("quadrature order must be at least 2")
        if order not in self._node_cache:
            self._node_cache[order] = NodeBlock([c.nodes(order)
                                                 for c in self.charts])
        return self._node_cache[order].charts

    def nodes(self, order: int) -> NodeBlock:
        """The node block that ``quadrature(order)`` builds and keeps."""
        self.quadrature(order)
        return self._node_cache[operator.index(order)]

    def node_count(self, order: int) -> int:
        return len(self.nodes(order).weights)

    def area(self, order: int) -> float:
        return float(sum(np.sum(cn.weights) for cn in self.quadrature(order)))


class VolumeNodes(NamedTuple):
    """A solid's read-only (N, 3) ``point_array`` and ``weights``: one span."""

    point_array: np.ndarray
    weights: np.ndarray
    spans = (slice(None),)

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
    rows = np.empty((3, w.size))
    xyz = rows.reshape(3, *w.shape)
    xyz[0], xyz[1], xyz[2] = x, y, z
    return VolumeNodes(_frozen(rows).T, _frozen(weight.reshape(w.size)))


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
        order = operator.index(order)
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

    def geometry(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        c, n = np.cos(phi), np.sin(phi)
        return ((cx + r0 * s * c, cy + r0 * s * n, cz + r0 * u),
                (-r0 * u * c / s, -r0 * u * n / s, r0),
                (-r0 * s * n, r0 * s * c, 0.0))

    chart = Chart(geometry, (-1.0, 1.0), (0.0, 2.0 * math.pi),
                  orientation=-1, name="sphere",
                  node_counts=lambda order: (order, 2 * order))
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

    ex, ey, ez = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)

    charts = [
        # r_s x r_t for (y, z) parameters is +x; flip on the low face.
        Chart(lambda s, t: ((x1, s, t), ey, ez),
              (y0, y1), (z0, z1), orientation=1, name="face+x"),
        Chart(lambda s, t: ((x0, s, t), ey, ez),
              (y0, y1), (z0, z1), orientation=-1, name="face-x"),
        # (x, z) parameters give r_s x r_t = -y; flip on the high face.
        Chart(lambda s, t: ((s, y1, t), ex, ez),
              (x0, x1), (z0, z1), orientation=-1, name="face+y"),
        Chart(lambda s, t: ((s, y0, t), ex, ez),
              (x0, x1), (z0, z1), orientation=1, name="face-y"),
        # (x, y) parameters give r_s x r_t = +z; flip on the low face.
        Chart(lambda s, t: ((s, t, z1), ex, ey),
              (x0, x1), (y0, y1), orientation=1, name="face+z"),
        Chart(lambda s, t: ((s, t, z0), ex, ey),
              (x0, x1), (y0, y1), orientation=-1, name="face-z"),
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

    def side_geometry(s, z):
        c, n = np.cos(s), np.sin(s)
        return ((cx + r0 * c, cy + r0 * n, z), (-r0 * n, r0 * c, 0.0),
                (0.0, 0.0, 1.0))

    side = Chart(side_geometry, (0.0, 2.0 * math.pi), (z0, z1),
                 orientation=1, name="cylinder_side",
                 node_counts=lambda order: (2 * order, order))

    def cap(z_cap):
        def geometry(u, s):
            c, n = np.cos(s), np.sin(s)
            return ((cx + u * r0 * c, cy + u * r0 * n, z_cap),
                    (r0 * c, r0 * n, 0.0), (-u * r0 * n, u * r0 * c, 0.0))
        return geometry

    top = Chart(cap(z1), (0.0, 1.0), (0.0, 2.0 * math.pi),
                orientation=1, name="cap_top",
                node_counts=lambda order: (order, 2 * order))
    bottom = Chart(cap(z0), (0.0, 1.0), (0.0, 2.0 * math.pi),
                   orientation=-1, name="cap_bottom",
                   node_counts=lambda order: (order, 2 * order))

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
    """a b for (4, N) quaternion or (3, N) reduced component rows; (N,)
    real rows scale the other side, as Quaternion's scalar product does."""
    return a * b if a.ndim == 1 or b.ndim == 1 else qmul(a, b)


def quadrature_sum(block, rows: np.ndarray) -> np.ndarray:
    """Sum of rows times weights over a NodeBlock or VolumeNodes: ``rows``
    are (k, N) component rows or (N,) reals over all of the block's nodes,
    multiplied by its weights at once.  Each span (chart or volume grid)
    is summed alone: a row in node order, in one pass along it, by
    ``np.add.accumulate``; ``np.sum`` along it would add pairwise, with
    other last bits.  (N,) rows are summed by ``np.sum``.  The span sums
    are added in span order from 0."""
    r, total = rows * block.weights, 0.0
    for span in block.spans:
        part = r[..., span]
        total = total + (np.sum(part) if r.ndim == 1 else
                         np.add.accumulate(part, axis=-1, out=part)[..., -1])
    return total


def _surface_of(obj) -> ParametricSurface:
    """The surface of a RegularBody; any other object is returned as is."""
    return obj.surface if isinstance(obj, RegularBody) else obj


def _block_sum(surface, order: int, rows_fn) -> np.ndarray:
    """quadrature_sum of rows_fn(the surface's node block)."""
    block = _surface_of(surface).nodes(order)
    return quadrature_sum(block, rows_fn(block))


def integrate_g_dsigma_f(surface, g, f, order: int) -> Quaternion:
    """The two-sided surface integral of g dsigma f.

    Either side may be None (treated as the constant 1).  g and f map
    points to quaternions or to real numbers; fields qualify.  An error
    is the first one that g(p), f(p) node by node would meet.
    """
    sides = [h for h in (g, f) if h is not None]

    def rows(block: NodeBlock) -> np.ndarray:
        values = in_node_order(
            lambda xyz: [node_values(h, xyz) for h in sides],
            lambda p: [h(p) for h in sides], block.point_array)
        out = block.normal_rows   # dsigma / dS = n1 + n2 i + n3 j
        if g is not None:
            out = _times(values[0].T, out)
        return out if f is None else _times(out, values[-1].T)

    return Quaternion(*_block_sum(surface, order, rows))


def integrate_scalar_dsigma(surface, h, order: int) -> Quaternion:
    """Integral of a scalar weight against the quaternion element dsigma."""
    return integrate_g_dsigma_f(surface, None, h, order)


def integrate_scalar(surface, h, order: int) -> float:
    """Plain scalar surface integral of h dS."""
    return float(_block_sum(surface, order,
                            lambda block: node_values(h, block.point_array)))


def integrate_vector_area(surface, order: int) -> ReducedPoint:
    """The vector area: integral of the unit normal dS; zero when closed."""
    return ReducedPoint(*_block_sum(surface, order,
                                    lambda block: block.normal_rows))


def integrate_moment_kernel(surface, h, about: ReducedPoint,
                            order: int) -> ReducedPoint:
    """Integral of h(x) (x - about) x n dS, the moment-arm weighted normal."""
    def rows(block: NodeBlock) -> np.ndarray:
        return node_values(h, block.point_array) * block.moment_arms(about)

    return ReducedPoint(*_block_sum(surface, order, rows))
