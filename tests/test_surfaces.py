"""Surface builders, quadrature, and the quaternionic surface form."""

import math

import numpy as np
import pytest

from quatflow import (
    Chart,
    ParametricSurface,
    PlanarContour,
    Quaternion,
    ReducedPoint,
    RegularBody,
    all_force_methods,
    box_body,
    cylinder_body,
    force_blasius,
    integrate_g_dsigma_f,
    integrate_moment_kernel,
    integrate_scalar,
    integrate_scalar_dsigma,
    integrate_vector_area,
    moment_from_pressure,
    moment_quadratic,
    pressure_field,
    saddle_flow,
    sphere_body,
    sphere_flow,
    uniform_flow,
)
from quatflow.integrals import verify_stokes
from quatflow.surfaces import (_scaled_gauss, _times, node_values,
                               quadrature_sum)

ORDER = 12


def unit_cube():
    return box_body((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def coordinate_quaternion(p):
    return Quaternion(p.x, p.y, p.z, 0.0)


def test_sphere_area_and_volume():
    for radius in (1.0, 0.5, 2.0):
        body = sphere_body(radius)
        assert math.isclose(body.surface.area(16),
                            4.0 * math.pi * radius ** 2, rel_tol=1e-12)
        assert math.isclose(body.volume(16),
                            4.0 * math.pi * radius ** 3 / 3.0, rel_tol=1e-12)


def test_box_area_and_volume():
    body = box_body((-0.5, 1.0), (0.0, 2.0), (-1.0, -0.25))
    lx, ly, lz = 1.5, 2.0, 0.75
    assert math.isclose(body.surface.area(8),
                        2 * (lx * ly + ly * lz + lz * lx), rel_tol=1e-13)
    assert math.isclose(body.volume(8), lx * ly * lz, rel_tol=1e-13)


def test_cylinder_area_and_volume():
    r, z0, z1 = 0.75, -0.5, 1.25
    body = cylinder_body(r, z0, z1)
    h = z1 - z0
    expect = 2 * math.pi * r * h + 2 * math.pi * r * r
    assert math.isclose(body.surface.area(16), expect, rel_tol=1e-12)
    assert math.isclose(body.volume(16), math.pi * r * r * h, rel_tol=1e-12)


def test_ball_volume_moment_of_r_squared():
    body = sphere_body(1.0)
    vn = body.volume_nodes(16)
    total = sum(w * p.norm_sq() for p, w in zip(vn.points, vn.weights))
    assert math.isclose(total, 4.0 * math.pi / 5.0, rel_tol=1e-10)


def test_normals_point_outward():
    for body in (sphere_body(1.0, ReducedPoint(0.2, -0.1, 0.3)),
                 unit_cube(),
                 cylinder_body(1.0, -0.5, 0.5)):
        c = body.interior_point
        for cn in body.surface.quadrature(6):
            for p, n in zip(cn.points, cn.normals):
                assert n.dot(p - c) > 0.0, (body.name, cn.chart.name)
                assert abs(n.norm() - 1.0) <= 1e-12


def test_quadrature_weights_are_positive_and_cached():
    body = sphere_body(1.0)
    quad = body.surface.quadrature(10)
    assert body.surface.quadrature(10) is quad
    for cn in quad:
        assert np.all(cn.weights > 0.0)
    assert body.surface.node_count(10) == sum(len(cn.points) for cn in quad)
    with pytest.raises(ValueError):
        body.surface.quadrature(1)


def test_node_layout_is_reproducible_across_builders():
    a = cylinder_body(1.0, -0.5, 0.5).surface.quadrature(8)
    b = cylinder_body(1.0, -0.5, 0.5).surface.quadrature(8)
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.chart.name == cb.chart.name
        assert all(p == q for p, q in zip(ca.points, cb.points))
        assert np.array_equal(ca.weights, cb.weights)


def test_cylinder_caps_mirror_each_other():
    body = cylinder_body(1.0, -0.5, 0.5)
    charts = {cn.chart.name: cn for cn in body.surface.quadrature(8)}
    assert set(charts) == {"cylinder_side", "cap_top", "cap_bottom"}
    top, bottom = charts["cap_top"], charts["cap_bottom"]
    assert top.chart.orientation == -bottom.chart.orientation
    assert np.array_equal(top.weights, bottom.weights)
    for pt, pb, nt, nb in zip(top.points, bottom.points,
                              top.normals, bottom.normals):
        assert pt.x == pb.x and pt.y == pb.y
        assert pt.z == -pb.z
        assert (nt + nb).norm() == 0.0


def test_vector_area_vanishes_on_closed_surfaces():
    for body in (sphere_body(1.3), unit_cube(), cylinder_body(0.8, 0.0, 2.0)):
        va = integrate_vector_area(body.surface, ORDER)
        assert va.norm() <= 1e-10, body.name


def test_cube_surface_form_oracles():
    # Frozen by hand from the divergence theorem on [0,1]^3:
    # the x-face pair contributes the scalar slot, so each integral is 1.
    cube = unit_cube().surface
    left_x = integrate_g_dsigma_f(cube, lambda p: Quaternion(p.x), None,
                                  ORDER)
    assert (left_x - Quaternion(1.0)).norm() <= 1e-12
    right_x = integrate_g_dsigma_f(cube, None,
                                   lambda p: Quaternion(p.x), ORDER)
    assert (right_x - Quaternion(1.0)).norm() <= 1e-12
    # The full coordinate field on the left picks up i^2 + j^2 instead.
    left_coord = integrate_g_dsigma_f(cube, coordinate_quaternion, None,
                                      ORDER)
    assert (left_coord - Quaternion(-1.0)).norm() <= 1e-12


def test_cube_dsigma_coordinate_is_minus_one():
    # Matches the volume integral of D(x + yi + zj) = -1 over the cube.
    cube = unit_cube().surface
    total = integrate_g_dsigma_f(cube, None, coordinate_quaternion, ORDER)
    assert (total - Quaternion(-1.0)).norm() <= 1e-12


def test_scalar_weighted_form_matches_two_sided_form():
    cube = unit_cube().surface
    a = integrate_scalar_dsigma(cube, lambda p: p.y, ORDER)
    b = integrate_g_dsigma_f(cube, None, lambda p: Quaternion(p.y), ORDER)
    assert (a - b).norm() <= 1e-13


def padded_g_dsigma_f(surface, g, f, order):
    """integrate_g_dsigma_f's sum with dsigma / dS as (4, N) rows whose k row
    is zeros, the layout the reduced normal rows replaced."""
    block = surface.nodes(order)
    out = np.vstack((block.normal_rows, np.zeros(len(block.weights))))
    if g is not None:
        out = _times(node_values(g, block.point_array).T, out)
    if f is not None:
        out = _times(out, node_values(f, block.point_array).T)
    return quadrature_sum(block, out)


def real_weight(p):
    return p.x * p.y - 0.5 * p.z


def quaternion_weight(p):
    return Quaternion(p.y - p.z, p.x * p.z, -p.y, p.x * p.y + 0.25)


@pytest.mark.parametrize("body", [sphere_body(0.8, ReducedPoint(0.1, 0, -0.2)),
                                  unit_cube(), cylinder_body(0.6, -0.4, 0.7)],
                         ids=["sphere", "box", "cylinder"])
def test_reduced_normal_rows_keep_the_padded_rows_bits(body):
    for g, f in ((None, None), (real_weight, None), (None, quaternion_weight),
                 (quaternion_weight, saddle_flow().field),
                 (real_weight, quaternion_weight)):
        got = integrate_g_dsigma_f(body, g, f, 8).as_tuple()
        expected = padded_g_dsigma_f(body.surface, g, f, 8)
        assert np.array_equal(np.array(got).view(np.int64),
                              expected.view(np.int64)), (g, f)
        if f is None:   # a real weight's k slot is +0.0 exactly
            assert math.copysign(1.0, got[3]) == 1.0 and got[3] == 0.0


def test_integrate_scalar_recovers_area():
    s = sphere_body(1.0).surface
    assert math.isclose(integrate_scalar(s, lambda p: 1.0, 16), s.area(16),
                        rel_tol=1e-13)


def test_moment_kernel_of_constant_vanishes():
    about = ReducedPoint(0.3, -0.2, 0.1)
    for body in (sphere_body(1.0), unit_cube()):
        m = integrate_moment_kernel(body.surface, lambda p: 1.0, about, ORDER)
        assert m.norm() <= 1e-10


def test_builder_rejects_degenerate_input():
    with pytest.raises(ValueError):
        sphere_body(0.0)
    with pytest.raises(ValueError):
        cylinder_body(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        box_body((0.0, 0.0), (0.0, 1.0), (0.0, 1.0))
    chart = sphere_body(1.0).surface.charts[0]
    with pytest.raises(ValueError, match="orientation must be"):
        Chart(chart.geometry, chart.s_range, chart.t_range, orientation=0)
    with pytest.raises(ValueError, match="at least one chart"):
        ParametricSurface([])
    hollow = RegularBody(sphere_body(1.0).surface, ReducedPoint(), name="b")
    with pytest.raises(ValueError, match="'b' has no volume quadrature"):
        hollow.volume_nodes(4)
    with pytest.raises(ValueError, match="at least one panel"):
        PlanarContour.circle(1.0, panels=0)
    with pytest.raises(ValueError, match="order must be at least 2"):
        PlanarContour.circle(1.0).nodes(1)


# Each quadrature order a caller passes, read as an integer index.
ORDER_SITES = {
    "surface": lambda order: sphere_body(1.0).surface.quadrature(order),
    "volume": lambda order: sphere_body(1.0).volume_nodes(order),
    "contour": lambda order: PlanarContour.circle(1.0).nodes(order),
    "force": lambda order: force_blasius(sphere_flow(1.0, 1.0),
                                         sphere_body(1.0), order=order),
    "stokes": lambda order: verify_stokes(
        sphere_body(1.0), lambda p: Quaternion(1.0),
        lambda p: p.to_quaternion(), order=order),
}


@pytest.mark.parametrize("order", [16.9, 16.0])
@pytest.mark.parametrize("site", sorted(ORDER_SITES))
def test_a_float_order_is_refused_not_truncated(site, order):
    # int(16.9) would compute at order 16 and label the result 16.9
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ORDER_SITES[site](order)


def test_a_numpy_integer_order_gives_the_bits_of_an_int():
    want, got = ORDER_SITES["force"](16), ORDER_SITES["force"](np.int64(16))
    assert [float.hex(v) for v in got.force.as_tuple()] == \
        [float.hex(v) for v in want.force.as_tuple()]
    assert (got.order, got.node_count) == (16, want.node_count) == (16, 512)
    # True is the integer 1, which the order check still refuses
    with pytest.raises(ValueError, match="order must be at least 2"):
        ORDER_SITES["surface"](True)


NAN, INF = float("nan"), float("inf")


NON_FINITE_GEOMETRY = {
    "sphere-nan-radius": lambda: sphere_body(NAN),
    "sphere-inf-radius": lambda: sphere_body(INF),
    "sphere-nan-center": lambda: sphere_body(1.0, ReducedPoint(0.0, NAN, 0.0)),
    "box-inf-x": lambda: box_body((-INF, 1.0), (0.0, 1.0), (0.0, 1.0)),
    "box-inf-z": lambda: box_body((0.0, 1.0), (0.0, 1.0), (0.0, INF)),
    "cylinder-nan-radius": lambda: cylinder_body(NAN, -1.0, 1.0),
    "cylinder-inf-z": lambda: cylinder_body(1.0, -1.0, INF),
    "cylinder-nan-center": lambda: cylinder_body(1.0, -1.0, 1.0,
                                                 center2d=(NAN, 0.0)),
    "circle-nan-radius": lambda: PlanarContour.circle(NAN),
    "circle-inf-radius": lambda: PlanarContour.circle(INF),
    "circle-nan-center": lambda: PlanarContour.circle(1.0, complex(0.0, NAN)),
    "contour-nan-endpoints": lambda: PlanarContour(
        lambda s: complex(NAN, 0.0), lambda s: complex(NAN, 0.0)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_GEOMETRY))
def test_non_finite_geometry_fails_when_built(name):
    # NaN compares False both ways, so sign and closure tests let it pass
    with pytest.raises(ValueError):
        NON_FINITE_GEOMETRY[name]()


# ----------------------------------------------------------------------
# node bits, pinned to per-chart reference forms on a flat grid
# ----------------------------------------------------------------------

def vectors(x, y, z):
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1).astype(float)


def sphere_forms(r0, cx, cy, cz):
    def pos(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return vectors(cx + r0 * s * np.cos(phi), cy + r0 * s * np.sin(phi),
                       cz + r0 * u)

    def dpos_du(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return vectors(-r0 * u * np.cos(phi) / s, -r0 * u * np.sin(phi) / s,
                       r0)

    def dpos_dphi(u, phi):
        s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
        return vectors(-r0 * s * np.sin(phi), r0 * s * np.cos(phi), 0.0)

    return [("sphere", (pos, dpos_du, dpos_dphi), (-1.0, 1.0),
             (0.0, 2.0 * math.pi), -1, lambda order: (order, 2 * order))]


def box_forms(x_range, y_range, z_range):
    (x0, x1), (y0, y1), (z0, z1) = x_range, y_range, z_range
    ex, ey, ez = np.eye(3)
    square = lambda order: (order, order)
    return [
        ("face+x", (lambda s, t: vectors(x1, s, t), lambda s, t: ey,
                    lambda s, t: ez), (y0, y1), (z0, z1), 1, square),
        ("face-x", (lambda s, t: vectors(x0, s, t), lambda s, t: ey,
                    lambda s, t: ez), (y0, y1), (z0, z1), -1, square),
        ("face+y", (lambda s, t: vectors(s, y1, t), lambda s, t: ex,
                    lambda s, t: ez), (x0, x1), (z0, z1), -1, square),
        ("face-y", (lambda s, t: vectors(s, y0, t), lambda s, t: ex,
                    lambda s, t: ez), (x0, x1), (z0, z1), 1, square),
        ("face+z", (lambda s, t: vectors(s, t, z1), lambda s, t: ex,
                    lambda s, t: ey), (x0, x1), (y0, y1), 1, square),
        ("face-z", (lambda s, t: vectors(s, t, z0), lambda s, t: ex,
                    lambda s, t: ey), (x0, x1), (y0, y1), -1, square),
    ]


def cylinder_forms(r0, z0, z1, cx, cy):
    def cap_pos(z_cap):
        return lambda u, s: vectors(cx + u * r0 * np.cos(s),
                                    cy + u * r0 * np.sin(s), z_cap)

    def cap_du(u, s):
        return vectors(r0 * np.cos(s), r0 * np.sin(s), 0.0)

    def cap_ds(u, s):
        return vectors(-u * r0 * np.sin(s), u * r0 * np.cos(s), 0.0)

    turn = (0.0, 2.0 * math.pi)
    caps = lambda order: (order, 2 * order)
    return [
        ("cylinder_side",
         (lambda s, t: vectors(cx + r0 * np.cos(s), cy + r0 * np.sin(s), t),
          lambda s, t: vectors(-r0 * np.sin(s), r0 * np.cos(s), 0.0),
          lambda s, t: np.array([0.0, 0.0, 1.0])),
         turn, (z0, z1), 1, lambda order: (2 * order, order)),
        ("cap_top", (cap_pos(z1), cap_du, cap_ds), (0.0, 1.0), turn, 1, caps),
        ("cap_bottom", (cap_pos(z0), cap_du, cap_ds), (0.0, 1.0), turn, -1,
         caps),
    ]


def reference_chart_nodes(forms, s_range, t_range, orientation, counts,
                          order):
    """Points, normals and weights from three per-chart forms evaluated on
    the flat s-major grid (node k at s[k // nt], t[k % nt])."""
    position, partial_s, partial_t = forms
    ns, nt = counts(order)
    s_nodes, s_w = _scaled_gauss(ns, *s_range)
    t_nodes, t_w = _scaled_gauss(nt, *t_range)
    s, t = np.repeat(s_nodes, nt), np.tile(t_nodes, ns)
    shape = (ns * nt, 3)
    points = np.broadcast_to(position(s, t), shape).astype(float)
    a = np.broadcast_to(partial_s(s, t), shape)
    b = np.broadcast_to(partial_t(s, t), shape)
    ax, ay, az, bx, by, bz = a[:, 0], a[:, 1], a[:, 2], b[:, 0], b[:, 1], \
        b[:, 2]
    cr = np.stack((ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx),
                  axis=-1)
    area = np.sqrt(cr[:, 0] * cr[:, 0] + cr[:, 1] * cr[:, 1]
                   + cr[:, 2] * cr[:, 2])
    normals = cr / area[:, None]
    if orientation < 0:
        normals = -normals
    return points, normals, np.repeat(s_w, nt) * np.tile(t_w, ns) * area


def reference_volume_grid(name, args, order):
    """The solid's Gauss grid on flat arrays, the first axis slowest."""
    if name.endswith("sphere"):
        r0, cx, cy, cz = args
        axes = ((order, 0.0, r0), (order, -1.0, 1.0),
                (2 * order, 0.0, 2.0 * math.pi))
    elif name == "box":
        axes = tuple((order,) + tuple(a) for a in args)
    else:
        r0, z0, z1, cx, cy = args
        axes = ((order, 0.0, r0), (2 * order, 0.0, 2.0 * math.pi),
                (order, z0, z1))
    (a, wa), (b, wb), (c, wc) = (_scaled_gauss(*axis) for axis in axes)
    na, nb, nc = len(a), len(b), len(c)
    a, wa = np.repeat(a, nb * nc), np.repeat(wa, nb * nc)
    b, wb = np.tile(np.repeat(b, nc), na), np.tile(np.repeat(wb, nc), na)
    c, wc = np.tile(c, na * nb), np.tile(wc, na * nb)
    w = wa * wb * wc
    if name.endswith("sphere"):
        s = np.sqrt(np.maximum(0.0, 1.0 - b * b))
        return (vectors(cx + a * s * np.cos(c), cy + a * s * np.sin(c),
                        cz + a * b), w * a * a)
    if name == "box":
        return vectors(a, b, c), w
    return vectors(cx + a * np.cos(b), cy + a * np.sin(b), c), w * a


PINNED_BODIES = {
    # name: (builder, its arguments, reference forms of its charts)
    "unit-sphere": (lambda r0, cx, cy, cz: sphere_body(r0),
                    (1.0, 0.0, 0.0, 0.0), sphere_forms),
    "sphere": (lambda r0, cx, cy, cz: sphere_body(
                   r0, ReducedPoint(cx, cy, cz)),
               (0.7, 0.1, -0.2, 0.3), sphere_forms),
    "box": (box_body, ((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)), box_forms),
    "cylinder": (lambda r0, z0, z1, cx, cy: cylinder_body(r0, z0, z1),
                 (1.0, -0.5, 0.5, 0.0, 0.0), cylinder_forms),
    "off-axis-cylinder": (lambda r0, z0, z1, cx, cy: cylinder_body(
                              r0, z0, z1, (cx, cy)),
                          (0.8, -0.3, 0.9, 0.25, -0.15), cylinder_forms),
}


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_nodes_equal_the_flat_grid_of_per_chart_forms_bit_for_bit(name):
    make, args, forms = PINNED_BODIES[name]
    for order in (2, 8, 16, 32, 48, 64):
        charts = forms(*args)
        quadrature = make(*args).surface.quadrature(order)
        assert [cn.chart.name for cn in quadrature] == [c[0] for c in charts]
        for cn, (chart, *reference) in zip(quadrature, charts):
            points, normals, weights = reference_chart_nodes(*reference,
                                                             order)
            assert np.array_equal(cn.point_array, points), (chart, order)
            assert np.array_equal(cn.normal_array, normals), (chart, order)
            assert np.array_equal(cn.weights, weights), (chart, order)
    for order in (2, 5, 12, 24):
        vn = make(*args).volume_nodes(order)
        points, weights = reference_volume_grid(name, args, order)
        assert np.array_equal(vn.point_array, points), order
        assert np.array_equal(vn.weights, weights), order


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_chart_nodes_are_read_only_component_rows_with_array_views(name):
    make, args, _ = PINNED_BODIES[name]
    body, field = make(*args), uniform_flow(1.0).field
    # every route on these nodes; the still flow's gate admits the form
    about = ReducedPoint(0.3, -0.2, 0.1)
    for pot in (uniform_flow(1.0), uniform_flow(0.0)):
        all_force_methods(pot, body, order=6)
        moment_quadratic(pot, body, about, order=6)
        moment_from_pressure(pressure_field(pot), body, about, order=6)
    # the surface's one block holds every chart's nodes, chart-major
    block = body.surface.nodes(6)
    quadrature = body.surface.quadrature(6)
    assert block.charts is quadrature
    assert block.spans[0].start == 0
    assert block.spans[-1].stop == len(block.weights)
    assert all(a.stop == b.start for a, b in zip(block.spans,
                                                  block.spans[1:]))
    for rows in (block.point_rows, block.normal_rows, block.weights):
        assert rows.flags.c_contiguous and rows.flags.owndata
        assert rows.base is None and not rows.flags.writeable
    for cn, span in zip(quadrature, block.spans):
        n = len(cn.weights)
        assert n == span.stop - span.start
        # the chart's weights are the block's at its span, not a copy
        assert cn.weights.base is block.weights
        assert not cn.weights.flags.writeable
        assert np.array_equal(cn.weights, block.weights[span])
        for rows, array, whole in (
                (cn.point_rows, cn.point_array, block.point_rows),
                (cn.normal_rows, cn.normal_array, block.normal_rows)):
            assert rows.shape == (3, n) and rows.dtype == np.float64
            assert not rows.flags.writeable
            # the chart's rows are a view of the block's at its span
            assert rows.base is whole and np.array_equal(rows, whole[:, span])
            assert rows.strides == whole.strides
            # the (N, 3) array is the rows' transpose, not a second copy:
            # numpy makes the block's rows the base of a view of a view
            assert array.base is whole and array.shape == (n, 3)
            assert array.strides == rows.T.strides
            assert np.array_equal(array, rows.T)
            assert np.shares_memory(array, rows)
        table = field.jet_table(cn.point_array)
        assert field.jet_table(cn.point_array) is table
        # dsigma / dS is the normal rows themselves: no zero-padded copy
        assert not hasattr(cn, "normal_quaternions")
        held = [v for value in vars(cn).values()
                for v in (value if isinstance(value, tuple) else (value,))]
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2
                       and len(v) == 4 for v in held)
    vn = make(*args).volume_nodes(5)
    rows = vn.point_array.base
    assert rows.shape == (3, len(vn.weights)) and rows.dtype == np.float64
    assert rows.flags.c_contiguous and rows.flags.owndata
    assert not rows.flags.writeable and not vn.point_array.flags.writeable
    assert np.array_equal(vn.point_array, rows.T)


@pytest.mark.parametrize("name", sorted(PINNED_BODIES))
def test_a_node_block_copies_only_the_rows_of_several_charts(monkeypatch,
                                                              name):
    # a one-chart surface (the sphere) takes its chart's rows as they are
    made, nodes = [], Chart.nodes

    def recording_nodes(chart, order):
        made.append(nodes(chart, order))
        return made[-1]

    monkeypatch.setattr(Chart, "nodes", recording_nodes)
    make, args, _ = PINNED_BODIES[name]
    block = make(*args).surface.nodes(6)
    assert (len(made) == 1) == name.endswith("sphere")
    for rows in ("point_rows", "normal_rows", "weights"):
        assert (getattr(block, rows) is getattr(made[0], rows)) == \
            (len(made) == 1), rows


def test_components_of_any_broadcast_shape_give_the_reference_bits():
    # x on the t row, y a scalar, z on the s column; constant partials
    def geometry(s, t):
        return (0.5 * t - 0.2, 0.3, 2.0 * s), (0.0, 0.0, 2.0), (0.5, 0.0, 0.0)

    forms = (lambda s, t: vectors(0.5 * t - 0.2, 0.3, 2.0 * s),
             lambda s, t: np.array([0.0, 0.0, 2.0]),
             lambda s, t: np.array([0.5, 0.0, 0.0]))
    counts = lambda order: (order, order + 3)
    chart = Chart(geometry, (-0.4, 0.9), (0.1, 1.7), orientation=-1,
                  name="slab", node_counts=counts)
    for order in (2, 3, 8, 17):
        cn = chart.nodes(order)
        points, normals, weights = reference_chart_nodes(
            forms, (-0.4, 0.9), (0.1, 1.7), -1, counts, order)
        assert np.array_equal(cn.point_array, points), order
        assert np.array_equal(cn.normal_array, normals), order
        assert np.array_equal(cn.weights, weights), order


@pytest.mark.parametrize("stacked", [0, 1, 2], ids=["r", "r_s", "r_t"])
def test_a_geometry_in_the_stacked_layout_is_refused(stacked):
    # an (ns, nt, 3) array would unpack along s on a 3 x 3 grid and give
    # wrong nodes without an error
    def geometry(s, t):
        forms = [(s, t, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
        forms[stacked] = vectors(*forms[stacked])
        return tuple(forms)

    chart = Chart(geometry, (0.0, 1.0), (0.0, 1.0), name="stacked")
    with pytest.raises(ValueError, match="^chart stacked: geometry must "):
        chart.nodes(3)


@pytest.mark.parametrize("bad", [0.0, NAN])
def test_a_degenerate_or_nan_element_names_its_first_node(bad):
    # r_s x r_t has length `bad` where s > 0.5 and t > 0.8: on the 4 x 4
    # Gauss grid of the unit square, whose two axes share their nodes,
    # first at (s[2], t[3]) in s-major order
    def geometry(s, t):
        height = np.where((s > 0.5) & (t > 0.8), bad, 1.0)
        return (s, t, 0.0), (1.0, 0.0, 0.0), (0.0, height, 0.0)

    chart = Chart(geometry, (0.0, 1.0), (0.0, 1.0), name="pinched")
    nodes, _ = _scaled_gauss(4, 0.0, 1.0)
    with pytest.raises(ValueError) as error:
        chart.nodes(4)
    assert str(error.value) == (f"degenerate surface element on chart "
                                f"pinched at ({nodes[2]}, {nodes[3]})")
