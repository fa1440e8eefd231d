"""Surface builders, quadrature, and the quaternionic surface form."""

import math

import numpy as np
import pytest

from quatflow import (
    PlanarContour,
    Quaternion,
    ReducedPoint,
    box_body,
    cylinder_body,
    integrate_g_dsigma_f,
    integrate_moment_kernel,
    integrate_scalar,
    integrate_scalar_dsigma,
    integrate_vector_area,
    sphere_body,
)

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
