"""Planar contour formulas and their symbolic residue oracle."""

import math
import re

import numpy as np
import pytest
import sympy

from quatflow import (
    ComplexPotential,
    PlanarContour,
    QuaternionField,
    ReducedPoint,
    StreamlineError,
    blasius_force_2d,
    blasius_moment_2d,
    contour_integral,
    cylinder_2d,
    cylinder_body,
    cylinder_vortex_2d,
    embed_2d,
    kutta_joukowski_lift,
    reduce_and_compare,
    streamline_residual,
    uniform_2d,
)
from quatflow import planar
from quatflow.fields import DEFAULT_EXCLUSION
from quatflow.surfaces import gauss_legendre

U, A, GAMMA, RHO = 1.0, 1.0, 2.0 * math.pi, 1.0


def vortex_cylinder():
    return cylinder_vortex_2d(U, A, GAMMA)


def symbolic_fprime():
    z = sympy.symbols("z")
    u, a, gamma = sympy.Float(U), sympy.Float(A), sympy.Float(GAMMA)
    return z, u * (1 - a ** 2 / z ** 2) - sympy.I * gamma / (2 * sympy.pi * z)


def test_residue_oracle_for_squared_derivative():
    # The only pole inside the circle is z = 0.
    z, fp = symbolic_fprime()
    res = sympy.residue(fp ** 2, z, 0)
    expect = -sympy.I * U * GAMMA / sympy.pi
    assert sympy.simplify(res - expect) == 0
    loop = complex(2 * sympy.pi * sympy.I * res)
    numeric = contour_integral(PlanarContour.circle(A),
                               lambda w: vortex_cylinder().df(w) ** 2, 32)
    assert abs(numeric - loop) <= 1e-10


def test_residue_oracle_for_moment_integrand():
    z, fp = symbolic_fprime()
    res = sympy.residue(z * fp ** 2, z, 0)
    expect = -2 * U ** 2 * A ** 2 - GAMMA ** 2 / (4 * sympy.pi ** 2)
    assert abs(complex(res - expect)) <= 1e-12
    loop = complex(2 * sympy.pi * sympy.I * res)
    numeric = contour_integral(PlanarContour.circle(A),
                               lambda w: w * vortex_cylinder().df(w) ** 2, 32)
    assert abs(numeric - loop) <= 1e-9
    # Purely real residue: the moment about the center vanishes.
    assert abs(complex(res).imag) <= 1e-12


def test_kutta_joukowski_lift_frozen_value():
    force = blasius_force_2d(vortex_cylinder(), PlanarContour.circle(A),
                             rho=RHO)
    assert abs(force - kutta_joukowski_lift(RHO, U, GAMMA)) <= 1e-8
    assert abs(force.real) <= 1e-8
    assert abs(force.imag + 6.283185307179586) <= 1e-8


def test_drag_free_cylinder_without_circulation():
    force = blasius_force_2d(cylinder_2d(U, A), PlanarContour.circle(A),
                             rho=RHO)
    assert abs(force) <= 1e-10


def test_moment_about_center_and_offset():
    pot = vortex_cylinder()
    circle = PlanarContour.circle(A)
    m0 = blasius_moment_2d(pot, circle, about=0j, rho=RHO)
    assert abs(m0) <= 1e-9
    m_offset = blasius_moment_2d(pot, circle, about=0.3 + 0j, rho=RHO)
    assert abs(m_offset - RHO * U * GAMMA * 0.3) <= 1e-8
    # Shift law in the plane: M(z0) = M(0) + rho U Gamma Re z0.
    m_diag = blasius_moment_2d(pot, circle, about=0.3 + 0.4j, rho=RHO)
    assert abs(m_diag - m_offset) <= 1e-8


def test_streamline_gate():
    circle = PlanarContour.circle(A)
    worst, scale = streamline_residual(vortex_cylinder(), circle)
    assert worst <= 1e-12 * (1.0 + scale)
    with pytest.raises(StreamlineError):
        blasius_force_2d(uniform_2d(1.0), circle)
    with pytest.raises(StreamlineError):
        blasius_force_2d(vortex_cylinder(), PlanarContour.circle(1.5))
    force = blasius_force_2d(uniform_2d(1.0), circle,
                             check_streamline=False)
    assert abs(force) <= 1e-10


def test_nan_streamline_residual_fails_the_gate():
    # the builtin max skipped NaN, so this read as a perfect streamline
    nan_slope = ComplexPotential(lambda z: z, lambda z: complex(math.nan, 0),
                                 name="nan-slope")
    circle = PlanarContour.circle(1.0)
    worst, scale = streamline_residual(nan_slope, circle)
    assert math.isnan(worst) and math.isnan(scale)
    with pytest.raises(StreamlineError, match="nan-slope"):
        blasius_force_2d(nan_slope, circle)


def test_contour_requires_closure():
    with pytest.raises(ValueError):
        PlanarContour(lambda s: complex(s, 0.0), lambda s: 1.0 + 0j,
                      s_range=(0.0, 1.0))


def test_contour_integral_winding_oracle():
    circle = PlanarContour.circle(1.0)
    val = contour_integral(circle, lambda z: 1.0 / z, 32)
    assert abs(val - 2j * math.pi) <= 1e-12
    val = contour_integral(circle, lambda z: z ** 3, 32)
    assert abs(val) <= 1e-13


def test_embedded_potential_is_monogenic_and_matches_velocity():
    pot = embed_2d(vortex_cylinder())
    pts = [ReducedPoint(1.4, 0.3, 0.2), ReducedPoint(0.2, -1.6, -0.4),
           ReducedPoint(-1.2, 0.9, 0.0)]
    assert pot.monogenicity(pts).ok
    for p in pts:
        w2d = vortex_cylinder().velocity(complex(p.x, p.y))
        v = pot.velocity_at(p)
        assert abs(v.x - w2d.real) <= 1e-10
        assert abs(v.y - w2d.imag) <= 1e-10
        assert abs(v.z) <= 1e-12


def test_reduction_report_force_and_moment():
    body = cylinder_body(A, -0.5, 0.5)
    report = reduce_and_compare(vortex_cylinder(), PlanarContour.circle(A),
                                body, rho=RHO, about=0.3 + 0j)
    assert report.ok, report
    assert report.force_gap <= 1e-8
    assert report.moment_gap <= 1e-8
    assert abs(report.force_2d.imag + RHO * U * GAMMA) <= 1e-8
    assert abs(report.moment_2d - RHO * U * GAMMA * 0.3) <= 1e-8
    assert "ok" in str(report)


def test_reduction_scales_with_extrusion_height():
    body = cylinder_body(A, -1.0, 1.0)
    report = reduce_and_compare(vortex_cylinder(), PlanarContour.circle(A),
                                body, rho=RHO, height=2.0)
    assert report.ok, report


def test_reduce_and_compare_makes_no_per_node_jet(monkeypatch):
    def no_scalar_jets(self, p):
        raise AssertionError("scalar jet on the array path")

    monkeypatch.setattr(QuaternionField, "jet_at", no_scalar_jets)
    report = reduce_and_compare(vortex_cylinder(), PlanarContour.circle(A),
                                cylinder_body(A, -0.5, 0.5), about=0.3 + 0j)
    assert report.ok, report


def test_reduce_and_compare_shares_jets_and_the_streamline_check(monkeypatch):
    batches = []
    jet_array = QuaternionField.jet_array

    def recorded(self, xyz):
        batches.append(len(xyz))
        return jet_array(self, xyz)

    residual_calls = []
    residual = planar.streamline_residual

    def counted_residual(*args, **kwargs):
        residual_calls.append(args)
        return residual(*args, **kwargs)

    monkeypatch.setattr(QuaternionField, "jet_array", recorded)
    monkeypatch.setattr(planar, "streamline_residual", counted_residual)
    report = reduce_and_compare(vortex_cylinder(), PlanarContour.circle(A),
                                cylinder_body(A, -0.5, 0.5), order_3d=16,
                                about=0.3 + 0j)
    assert report.ok, report
    # one table for the side and both caps together serves force and moment
    assert batches == [1536]
    assert len(residual_calls) == 1


def test_reduce_and_compare_evaluates_each_chart_once(monkeypatch):
    # the 3D force and moment read the tables the embedded field remembers
    calls, fields = [], []

    def counted_embed(potential):
        pot = embed_2d(potential)
        inner = pot.field._jet_array

        def jet_array(xyz):
            calls.append(len(xyz))
            return inner(xyz)

        pot.field._jet_array = jet_array
        fields.append(pot.field)
        return pot

    monkeypatch.setattr(planar, "embed_2d", counted_embed)
    body = cylinder_body(A, -0.5, 0.5)
    report = reduce_and_compare(vortex_cylinder(), PlanarContour.circle(A),
                                body, order_3d=16, about=0.3 + 0j)
    assert report.ok, report
    assert calls == [1536]
    assert len(fields) == 1 and len(fields[0]._tables) == 1


def counted(fn, calls, key):
    def wrapper(arg):
        calls[key] = calls.get(key, 0) + 1
        return fn(arg)
    return wrapper


def test_contour_evaluations_call_each_callable_once():
    calls = {}
    circle = PlanarContour.circle(A)
    contour = PlanarContour(counted(circle.z, calls, "z"),
                            counted(circle.dz, calls, "dz"))
    pot = vortex_cylinder()
    pot = ComplexPotential(pot.f, counted(pot.df, calls, "df"),
                           counted(pot.domain2d, calls, "domain2d"))
    calls.clear()
    contour_integral(contour, counted(lambda z: z * z, calls, "fn"), 32)
    assert calls == {"z": 1, "dz": 1, "fn": 1}
    calls.clear()
    worst, scale = streamline_residual(pot, contour, 32)
    assert calls == {"z": 1, "dz": 1, "df": 1, "domain2d": 1}
    assert worst <= 1e-12 * (1.0 + scale)


def test_array_domain_error_names_the_first_node_outside():
    pot = cylinder_2d(U, A)
    z = np.array([2.0 + 0j, 0.5j * DEFAULT_EXCLUSION, 0j, 3.0 + 1j])
    for call in (pot, pot.derivative):
        with pytest.raises(ValueError,
                           match=re.escape(f"undefined at {complex(z[1])}")):
            call(z)
    with pytest.raises(ValueError, match=re.escape("undefined at 0j")):
        pot.derivative(0j)
    assert np.array_equal(pot.derivative(z[[0, 3]]),
                          [pot.derivative(z[0]), pot.derivative(z[3])])


def test_contour_nodes_are_the_panel_gauss_rules():
    circle = PlanarContour.circle(A, panels=3)
    x, w = gauss_legendre(5)
    edges = np.linspace(0.0, 2.0 * math.pi, 4)
    s, weights = circle.nodes(5)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        assert s[5 * k:5 * k + 5].tolist() == (mid + half * x).tolist()
        assert weights[5 * k:5 * k + 5].tolist() == (half * w).tolist()
    assert s.shape == weights.shape == (15,)
