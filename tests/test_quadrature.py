"""One quadrature path: node arrays, one value helper, one reduction.

Fields with an array form are evaluated on whole charts and volume
grids; any other callable goes node by node.  Both must give the same
integrals, and the array path must do no per-node work at all.
"""

import math

import numpy as np
import pytest

from quatflow import (
    DomainError,
    Quaternion,
    QuaternionField,
    ReducedPoint,
    box_body,
    catalog,
    cauchy_kernel_field,
    cauchy_reconstruct,
    coordinate_field,
    cylinder_body,
    force_from_pressure,
    harmonic_catalog,
    integrate_g_dsigma_f,
    integrate_moment_kernel,
    integrate_scalar,
    integrate_scalar_dsigma,
    moment_from_pressure,
    apply_D,
    apply_D_right,
    pressure_field,
    sphere_body,
    uniform_flow,
    verify_cauchy_theorem,
    verify_stokes,
)
from quatflow.surfaces import (
    ChartNodes,
    NodeBlock,
    VolumeNodes,
    _scaled_gauss,
    gauss_legendre,
    quadrature_sum,
)

ORDER = 6
ABOUT = ReducedPoint(0.3, -0.2, 0.1)


def bodies():
    return {"sphere": sphere_body(1.0),
            "box": box_body((-0.5, 0.6), (-0.4, 0.5), (-0.55, 0.45)),
            "cylinder": cylinder_body(1.0, -0.5, 0.5)}


def close(a, b, rel=1e-15):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b)
                       <= rel * max(1.0, float(np.max(np.abs(b))))))


def plain(fn):
    """fn behind a plain callable, which takes the node-by-node path."""
    return lambda p: fn(p)


def scalar_only(field):
    """The same field without its array forms."""
    return QuaternionField(field._evaluate, jet=field._jet,
                           domain=field._domain, name=field.name)


def smooth_fields():
    """Catalog fields defined inside every test body, and the coordinate."""
    fields = {name: catalog()[name].field
              for name in ("uniform_x", "uniform_skew", "saddle", "identity")}
    fields["coordinate"] = coordinate_field()
    return fields


# ----------------------------------------------------------------------
# parity of the array path with the node-by-node path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("body_name", sorted(bodies()))
def test_surface_integrators_match_the_node_by_node_path(body_name):
    body = bodies()[body_name]
    fields = smooth_fields()
    for g_name, f_name in (("saddle", "uniform_skew"),
                           ("coordinate", "identity"), ("uniform_x", None)):
        g, f = fields[g_name], fields[f_name] if f_name else None
        a = integrate_g_dsigma_f(body, g, f, ORDER)
        b = integrate_g_dsigma_f(body, plain(g), f and plain(f), ORDER)
        assert close(a.as_tuple(), b.as_tuple()), (g_name, f_name)
    pressure = pressure_field(catalog()["saddle"], rho=1.3)
    assert close(integrate_scalar(body, pressure, ORDER),
                 integrate_scalar(body, plain(pressure), ORDER))
    assert close(integrate_scalar_dsigma(body, pressure, ORDER).as_tuple(),
                 integrate_scalar_dsigma(body, plain(pressure),
                                         ORDER).as_tuple())
    assert close(
        integrate_moment_kernel(body, pressure, ABOUT, ORDER).as_tuple(),
        integrate_moment_kernel(body, plain(pressure), ABOUT,
                                ORDER).as_tuple())
    assert close(force_from_pressure(pressure, body, ORDER).force.as_tuple(),
                 force_from_pressure(plain(pressure), body,
                                     ORDER).force.as_tuple())
    assert close(
        moment_from_pressure(pressure, body, ABOUT, ORDER).moment.as_tuple(),
        moment_from_pressure(plain(pressure), body, ABOUT,
                             ORDER).moment.as_tuple())


@pytest.mark.parametrize("body_name", sorted(bodies()))
def test_stokes_matches_the_node_by_node_path(body_name):
    body = bodies()[body_name]
    fields = smooth_fields()
    for g_name, f_name in (("coordinate", "coordinate"), ("saddle", None),
                           (None, "identity"), ("uniform_skew", "saddle")):
        g = fields[g_name] if g_name else None
        f = fields[f_name] if f_name else None
        a = verify_stokes(body, g, f, order=ORDER)
        b = verify_stokes(body, g and scalar_only(g), f and scalar_only(f),
                          order=ORDER)
        assert close(a.lhs.as_tuple(), b.lhs.as_tuple()), (g_name, f_name)
        assert close(a.rhs.as_tuple(), b.rhs.as_tuple()), (g_name, f_name)


def test_cauchy_reconstruction_matches_the_node_by_node_path():
    surface = sphere_body(1.0).surface
    point = ReducedPoint(0.2, 0.1, -0.1)
    f = catalog()["saddle"].field
    kernel = cauchy_kernel_field(pole=point)
    a = cauchy_reconstruct(surface, f, point, order=48)
    b = integrate_g_dsigma_f(surface, plain(kernel), plain(f), 48)
    assert close(a.as_tuple(), b.as_tuple())
    assert (a - f(point)).norm() <= 1e-10


# ----------------------------------------------------------------------
# no per-node work on the array path
# ----------------------------------------------------------------------

def test_array_path_makes_no_per_node_calls(monkeypatch):
    box = bodies()["box"]
    ball = sphere_body(1.0)
    coord = coordinate_field()
    saddle = catalog()["saddle"].field
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for owner, name in ((QuaternionField, "jet_at"),
                        (QuaternionField, "__call__"),
                        (Quaternion, "__mul__")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    integrate_g_dsigma_f(box, saddle, coord, ORDER)
    integrate_g_dsigma_f(box, None, catalog()["dipole"], ORDER)
    verify_stokes(box, coord, coord, order=ORDER)
    verify_stokes(ball, None, coord, order=ORDER)
    verify_stokes(ball, saddle, saddle, order=ORDER)
    verify_cauchy_theorem(ball, saddle, order=ORDER)
    cauchy_reconstruct(ball.surface, saddle, ReducedPoint(0.2, 0.1, -0.1),
                       order=48)
    assert calls == []


# ----------------------------------------------------------------------
# volume nodes
# ----------------------------------------------------------------------

def reference_volume_nodes(name, order):
    """The nested loops the volume grids replace, first axis slowest."""
    points, weights = [], []
    if name == "sphere":
        rr, wr = _scaled_gauss(order, 0.0, 1.0)
        uu, wu = gauss_legendre(order)
        pp, wp = _scaled_gauss(2 * order, 0.0, 2.0 * math.pi)
        for r, w1 in zip(rr, wr):
            for u, w2 in zip(uu, wu):
                s = math.sqrt(max(0.0, 1.0 - u * u))
                for phi, w3 in zip(pp, wp):
                    points.append((r * s * math.cos(phi),
                                   r * s * math.sin(phi), r * u))
                    weights.append(w1 * w2 * w3 * r * r)
    elif name == "box":
        xs, wx = _scaled_gauss(order, -0.5, 0.6)
        ys, wy = _scaled_gauss(order, -0.4, 0.5)
        zs, wz = _scaled_gauss(order, -0.55, 0.45)
        for x, w1 in zip(xs, wx):
            for y, w2 in zip(ys, wy):
                for z, w3 in zip(zs, wz):
                    points.append((x, y, z))
                    weights.append(w1 * w2 * w3)
    else:
        rr, wr = _scaled_gauss(order, 0.0, 1.0)
        ss, ws = _scaled_gauss(2 * order, 0.0, 2.0 * math.pi)
        zz, wz = _scaled_gauss(order, -0.5, 0.5)
        for r, w1 in zip(rr, wr):
            for s, w2 in zip(ss, ws):
                for z, w3 in zip(zz, wz):
                    points.append((r * math.cos(s), r * math.sin(s), z))
                    weights.append(w1 * w2 * w3 * r)
    return np.array(points), np.array(weights)


@pytest.mark.parametrize("name", sorted(bodies()))
def test_volume_nodes_keep_the_nested_loop_order(name):
    vn = bodies()[name].volume_nodes(5)
    points, weights = reference_volume_nodes(name, 5)
    assert vn.point_array.shape == points.shape
    # node for node, up to the last bit of the library's cos and sin
    assert np.all(np.abs(vn.point_array - points) <= 1e-15)
    assert vn.weights.tolist() == weights.tolist()
    assert not vn.point_array.flags.writeable
    assert not vn.weights.flags.writeable
    assert [list(p.as_tuple()) for p in vn.points] == vn.point_array.tolist()


# ----------------------------------------------------------------------
# the reduction: component rows summed in node order
# ----------------------------------------------------------------------

def node_order_sum(weights, rows):
    """Left to right in Python floats: per block and row, w_0 r_0 + w_1 r_1
    + ... from the first node; the block sums added in turn to 0.0."""
    total = [0.0] * len(rows[0])
    for w, r in zip(weights, rows):
        for k, row in enumerate(r.tolist()):
            terms = [wi * x for wi, x in zip(w.tolist(), row)]
            block = terms[0]
            for term in terms[1:]:
                block = block + term
            total[k] = total[k] + block
    return total


def block_of(weights):
    """A NodeBlock whose chart spans hold the given weights in turn."""
    return NodeBlock([ChartNodes(None, np.zeros((3, len(w))),
                                 np.zeros((3, len(w))), w) for w in weights])


INF, NAN = math.inf, math.nan
RNG = np.random.default_rng(2024)
SUM_CASES = {
    # case: (weights of each block, (k, N) rows of each block)
    "random": ([RNG.random(n) for n in (300, 17, 1000)],
               [RNG.standard_normal((4, n)) * 10.0 ** RNG.integers(
                    -8, 9, (4, n)) for n in (300, 17, 1000)]),
    "signed-zeros": ([np.full(5, 0.5), np.array([2.0, 0.25])],
                     [np.array([[-0.0] * 5, [0.0, -0.0, 0.0, -0.0, 0.0],
                                [-0.0, 1e-300, -1e-300, -0.0, -0.0]]),
                      np.array([[-0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])]),
    "non-finite": ([np.array([1.0, 2.0, 0.5, 1.0]), np.array([0.0, 1.0])],
                   [np.array([[1.0, INF, 2.0, 3.0], [INF, -INF, 1.0, 0.0],
                              [NAN, 1.0, 2.0, 3.0], [1e308, 1e308, 0.0, 0.0]]),
                    np.array([[INF, 1.0], [1.0, 2.0], [1.0, 2.0],
                              [-1e308, 3.0]])]),
    "one-node-block": ([np.array([0.75]), np.array([0.5, 0.25, 2.0])],
                       [np.array([[3.0], [-0.0], [1e-310]]),
                        np.array([[1.0, 1e-17, 1e-17], [-0.0, -0.0, -0.0],
                                  [2.0, -3.0, 0.1]])]),
}


@pytest.mark.parametrize("case", sorted(SUM_CASES))
def test_quadrature_sum_adds_component_rows_in_node_order(case):
    weights, rows = SUM_CASES[case]
    with np.errstate(all="ignore"):
        block, whole = block_of(weights), np.concatenate(rows, axis=-1)
        total = quadrature_sum(block, whole)
        # the layout of the rows does not change the bits
        fortran = quadrature_sum(block, np.asfortranarray(whole))
        # nor does it differ from np.sum over the nodes of (N, k) rows
        by_node_rows = 0.0
        for w, r in zip(weights, rows):
            by_node_rows = by_node_rows + np.sum(
                np.ascontiguousarray(r.T) * w[:, None], axis=0)
    # repr tells -0.0 from 0.0 and matches any NaN
    expected = list(map(repr, node_order_sum(weights, rows)))
    for sums in (total, fortran, by_node_rows):
        assert list(map(repr, sums.tolist())) == expected


def test_the_node_order_sum_is_not_a_pairwise_row_sum():
    # numpy sums a contiguous row pairwise: other bits on these rows, so
    # the node-order test above can tell the two apart
    weights, rows = SUM_CASES["random"]
    pairwise = sum(np.sum(r * w, axis=-1) for w, r in zip(weights, rows))
    assert pairwise.tolist() != node_order_sum(weights, rows)


def test_quadrature_sum_of_real_rows_is_np_sum():
    weights, rows = SUM_CASES["random"]
    reals = [r[0] for r in rows]
    expected = 0.0
    for w, r in zip(weights, reals):
        expected = expected + np.sum(r * w)
    assert quadrature_sum(block_of(weights), np.concatenate(reals)) \
        == expected
    # a volume grid is a block of one span
    w, r = weights[0], reals[0]
    volume = VolumeNodes(np.zeros((len(w), 3)), w)
    assert quadrature_sum(volume, r) == np.sum(r * w)
    assert list(quadrature_sum(volume, rows[0])) == \
        node_order_sum([w], [rows[0]])


@pytest.mark.parametrize("make", [
    lambda: sphere_body(1.0),
    lambda: box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
    lambda: cylinder_body(1.0, -0.5, 0.5),
], ids=["sphere", "box", "cylinder"])
def test_the_block_sum_is_the_chart_by_chart_sum_bit_for_bit(make):
    rng = np.random.default_rng(32)
    surface = make().surface
    for order in (2, 5, 16):
        block = surface.nodes(order)
        n = len(block.weights)
        rows = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-8, 9,
                                                                  (4, n))
        # each chart's standalone nodes, its rows summed alone in node
        # order, the chart sums added in turn to 0
        expected, reals, start = 0.0, 0.0, 0
        for chart in surface.charts:
            cn = chart.nodes(order)
            stop = start + len(cn.weights)
            part = np.ascontiguousarray(rows[:, start:stop]) * cn.weights
            expected = expected + np.add.accumulate(part, axis=-1)[:, -1]
            reals = reals + np.sum(rows[0, start:stop].copy() * cn.weights)
            start = stop
        assert start == n
        assert quadrature_sum(block, rows).tobytes() == expected.tobytes()
        assert quadrature_sum(block, rows[0]).tobytes() == reals.tobytes()


# ----------------------------------------------------------------------
# real-valued sides, pinned to the values of the node-by-node code
# ----------------------------------------------------------------------

STOKES_BOX = box_body((-0.5, 0.6), (-0.4, 0.5), (-0.55, 0.45))

SCALAR_STOKES = {
    # case: (g, f, boundary integral, volume integral)
    "scalar-g": ("xy", "coordinate",
                 (-0.002474999999999999, 0.17160000000000003,
                  -0.0024750000000000006, -0.0024750000000000015),
                 (-0.002474999999999995, 0.17159999999999992,
                  -0.002475000000000003, -0.0024750000000000015)),
    "scalar-f": ("coordinate", "1+x+yz",
                 (-0.9825750000000005, 0.04702500000000001,
                  -0.04702500000000008, -0.01567500000000001),
                 (-0.9825750000000004, 0.04702499999999999,
                  -0.04702500000000004, -0.015674999999999994)),
    "scalar-g-only": ("xyz", None,
                      (-0.0024750000000000006, -0.0024750000000000015,
                       0.002474999999999999, 0.0),
                      (-0.002475000000000003, -0.0024750000000000015,
                       0.002474999999999995, 0.0)),
}


@pytest.mark.parametrize("case", sorted(SCALAR_STOKES))
def test_stokes_accepts_scalar_fields(case):
    g_name, f_name, lhs, rhs = SCALAR_STOKES[case]
    named = {**harmonic_catalog(), "coordinate": coordinate_field(),
             None: None}
    report = verify_stokes(STOKES_BOX, named[g_name], named[f_name], order=6)
    assert close(report.lhs.as_tuple(), lhs)
    assert close(report.rhs.as_tuple(), rhs)
    assert report.ok


def test_g_dsigma_f_accepts_float_valued_callables():
    ball = sphere_body(1.0)
    q = integrate_g_dsigma_f(ball, lambda p: 0.5 + p.x * p.y,
                             uniform_flow(0.3, -0.2, 0.4).field, 8)
    assert close(q.as_tuple(), (-0.25132741230299094, 0.37699111845448435,
                                2.172741153660951e-15,
                                -6.098631111637375e-18))
    q = integrate_g_dsigma_f(ball, coordinate_field(), lambda p: 2.0 - p.z, 8)
    assert close(q.as_tuple(), (-8.377580409572804, -1.126072705134179e-15,
                                2.858824288409778e-15,
                                6.635396476896363e-17))


# ----------------------------------------------------------------------
# errors: the first one the node-by-node order meets
# ----------------------------------------------------------------------

def fenced(field, name, hole):
    """field with its array forms, undefined within 1e-9 of the point hole."""
    c = np.array(hole.as_tuple())
    return QuaternionField(
        field._evaluate, jet=field._jet, name=name,
        domain=lambda p: (p - hole).norm() > 1e-9,
        jet_array=field._jet_array,
        domain_array=lambda xyz: np.linalg.norm(xyz - c, axis=1) > 1e-9)


def first_node_error(points, per_node):
    """The text of the first DomainError per_node raises over points."""
    for p in points:
        try:
            per_node(p)
        except DomainError as err:
            return str(err)
    return None


def domain_error(fn, *args, **kwargs):
    with pytest.raises(DomainError) as info:
        fn(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("holes", [(40, 7), (7, 40), (23, 23)],
                         ids=["f-first", "g-first", "same-node"])
def test_surface_error_is_the_first_node_by_node_one(holes):
    ball = sphere_body(1.0)
    points = ball.surface.quadrature(ORDER)[0].points
    saddle = catalog()["saddle"].field
    g = fenced(saddle, "g", points[holes[0]])
    f = fenced(coordinate_field(), "f", points[holes[1]])
    want = first_node_error(points, lambda p: (g(p), f(p)))
    assert want.startswith("field " + ("f" if holes[1] < holes[0] else "g"))
    assert domain_error(integrate_g_dsigma_f, ball, g, f, ORDER) == want
    assert domain_error(integrate_g_dsigma_f, ball, plain(g), plain(f),
                        ORDER) == want


@pytest.mark.parametrize("holes", [(150, 20), (20, 150), (90, 90)],
                         ids=["f-first", "g-first", "same-node"])
def test_stokes_error_is_the_first_node_by_node_one(holes):
    box = bodies()["box"]
    points = box.volume_nodes(ORDER).points
    g = fenced(catalog()["saddle"].field, "g", points[holes[0]])
    f = fenced(coordinate_field(), "f", points[holes[1]])

    def integrand(p):
        # the calls of the node-by-node volume integrand, in its order
        apply_D_right(g, p)
        f(p)
        apply_D(f, p)

    want = first_node_error(points, integrand)
    assert want.startswith("field " + ("f" if holes[1] < holes[0] else "g"))
    assert domain_error(verify_stokes, box, g, f, order=ORDER) == want
    assert domain_error(verify_stokes, box, scalar_only(g), scalar_only(f),
                        order=ORDER) == want
