"""Stokes, closed-surface and reconstruction identities."""

import math
import warnings

import pytest

from quatflow import (
    MarginError,
    Quaternion,
    QuaternionField,
    ReducedPoint,
    apply_D,
    apply_D_right,
    box_body,
    cauchy_kernel,
    cauchy_kernel_field,
    cauchy_reconstruct,
    integrate_g_dsigma_f,
    reconstruction_margin,
    saddle_flow,
    sphere_body,
    uniform_flow,
    vanishing_integral_cases,
    verify_cauchy_theorem,
    verify_stokes,
)
from quatflow.fields import Jet


def coordinate_field():
    def value(p):
        return Quaternion(p.x, p.y, p.z, 0.0)

    return QuaternionField(
        value,
        jet=lambda p: Jet(value(p), Quaternion(1.0), Quaternion(0.0, 1.0),
                          Quaternion(0.0, 0.0, 1.0)),
        name="coordinate")


def test_kernel_closed_form_values():
    # conj(x) / (4 pi |x|^3) at two axis points, by hand.
    e = cauchy_kernel(ReducedPoint(1.0, 0.0, 0.0))
    assert (e - Quaternion(1.0 / (4.0 * math.pi))).norm() <= 1e-15
    e = cauchy_kernel(ReducedPoint(0.0, 2.0, 0.0))
    expect = Quaternion(0.0, -1.0 / (16.0 * math.pi), 0.0, 0.0)
    assert (e - expect).norm() <= 1e-15
    shifted = cauchy_kernel(ReducedPoint(1.5, 0.0, 0.0),
                            pole=ReducedPoint(0.5, 0.0, 0.0))
    assert (shifted - Quaternion(1.0 / (4.0 * math.pi))).norm() <= 1e-15
    p = ReducedPoint(0.5, -0.25, 2.0)
    with pytest.raises(ZeroDivisionError, match="at its pole"):
        cauchy_kernel(p, p)


def test_kernel_is_two_sided_monogenic():
    field = cauchy_kernel_field(pole=ReducedPoint(0.1, -0.2, 0.3))
    for p in (ReducedPoint(1.0, 0.5, -0.3), ReducedPoint(-0.7, 0.9, 1.1),
              ReducedPoint(0.4, -1.2, 0.8)):
        assert apply_D(field, p).norm() <= 1e-12
        assert apply_D_right(field, p).norm() <= 1e-12


def test_closed_surface_integrals_vanish_for_monogenic_fields():
    for name, potential, body in vanishing_integral_cases():
        report = verify_cauchy_theorem(body, potential.field, order=16)
        assert report.ok, (name, report)
        assert report.gap <= 1e-8, name


def test_two_sided_integral_vanishes_with_kernel_weight():
    # Kernel pole outside the ball keeps both factors monogenic inside.
    g = cauchy_kernel_field(pole=ReducedPoint(0.0, 0.0, 3.0))
    f = saddle_flow().field
    total = integrate_g_dsigma_f(sphere_body(1.0).surface, g, f, 16)
    assert total.norm() <= 1e-9


def test_stokes_on_box_with_polynomial_pair():
    body = box_body((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    coord = coordinate_field()
    report = verify_stokes(body, coord, coord, order=10, tol=1e-7)
    assert report.ok, report
    assert report.lhs.norm() > 0.05
    assert report.gap <= 1e-12


def test_stokes_on_ball_left_form_oracle():
    # Volume side integrates D(x+yi+zj) = -1 over the unit ball.
    body = sphere_body(1.0)
    report = verify_stokes(body, None, coordinate_field(), order=12)
    assert report.ok, report
    expect = -4.0 * math.pi / 3.0
    assert math.isclose(report.lhs.q0, expect, rel_tol=1e-12)
    assert report.lhs.vector_part().norm() <= 1e-12
    assert math.isclose(report.rhs.q0, expect, rel_tol=1e-12)


def test_stokes_on_ball_two_sided():
    body = sphere_body(1.0)
    coord = coordinate_field()
    report = verify_stokes(body, coord, coord, order=12, tol=1e-7)
    assert report.ok, report


def test_stokes_right_form_on_cube():
    from quatflow import cylinder_body

    body = cylinder_body(0.8, -0.4, 0.4)
    report = verify_stokes(body, coordinate_field(), None, order=12)
    assert report.ok, report
    assert math.isclose(report.lhs.q0, -math.pi * 0.64 * 0.8, rel_tol=1e-10)


def test_reconstruction_matches_field_value():
    surface = sphere_body(1.0).surface
    f = saddle_flow().field
    point = ReducedPoint(0.2, 0.1, -0.1)
    rebuilt = cauchy_reconstruct(surface, f, point, order=48)
    assert (rebuilt - f(point)).norm() <= 1e-6
    g = uniform_flow(0.8, -0.3, 0.5).field
    rebuilt = cauchy_reconstruct(surface, g, ReducedPoint(0.0, 0.0, 0.0),
                                 order=48)
    assert (rebuilt - g(ReducedPoint(0.0, 0.0, 0.0))).norm() <= 1e-6


def test_reconstruction_margin_value_and_refusals():
    surface = sphere_body(1.0).surface
    margin = reconstruction_margin(surface, 48)
    # 10 mean node spacings on a 48 x 96 sphere grid.
    assert math.isclose(margin,
                        10.0 * math.sqrt(4.0 * math.pi / (48 * 96)),
                        rel_tol=1e-12)
    f = saddle_flow().field
    with pytest.raises(MarginError):
        cauchy_reconstruct(surface, f, ReducedPoint(0.9, 0.0, 0.0), order=48)
    # A coarse grid has a margin above the radius: nothing is deep enough.
    with pytest.raises(MarginError):
        cauchy_reconstruct(surface, f, ReducedPoint(0.0, 0.0, 0.0), order=24)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reconstruction_refuses_a_non_finite_point(bad):
    surface = sphere_body(1.0).surface
    point = ReducedPoint(0.1, bad, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite") as err:
            cauchy_reconstruct(surface, saddle_flow().field, point, order=16)
    # named before the margin check and before the kernel's pole
    assert type(err.value) is ValueError
    assert str(point.as_tuple()) in str(err.value)


def test_reconstruction_outside_point_sees_zero():
    surface = sphere_body(1.0).surface
    f = saddle_flow().field
    total = cauchy_reconstruct(surface, f, ReducedPoint(2.0, 0.0, 0.0),
                               order=48)
    assert total.norm() <= 1e-6


def test_theorem_report_prints_status():
    body = sphere_body(1.0)
    report = verify_stokes(body, None, coordinate_field(), order=8)
    text = str(report)
    assert "gap" in text
