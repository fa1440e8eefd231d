"""Force and moment routes on closed surfaces, with the classical oracles."""

import math

import pytest

from quatflow import (
    FlowPotential,
    QuaternionField,
    ReducedPoint,
    StreamSurfaceError,
    all_force_methods,
    box_body,
    cylinder_body,
    cylinder_uniform_scenario,
    cylinder_vortex_scenario,
    embedded_cylinder_flow,
    force_blasius,
    force_components_sc,
    force_from_pressure,
    force_monogenic_form,
    force_pressure_direct,
    moment_from_pressure,
    moment_quadratic,
    moment_reference_shift,
    point_source,
    pressure_field,
    scenario_catalog,
    sphere_body,
    sphere_flow,
    sphere_stream_scenario,
    uniform_flow,
    vanishing_force_cases,
)

GAMMA = 2.0 * math.pi
ORDER = 16


def test_circulating_cylinder_lift_all_methods():
    # rho U Gamma downward for positive circulation: F = (0, -2 pi, 0).
    sc = cylinder_vortex_scenario()
    expect = ReducedPoint(0.0, -GAMMA, 0.0)
    assert sc.expected_force is not None
    assert (sc.expected_force - expect).norm() <= 1e-12
    comparison = all_force_methods(sc.potential, sc.body, rho=sc.rho,
                                   order=ORDER)
    assert not comparison.gated
    assert set(comparison.results) == {"pressure", "blasius",
                                       "components-sc", "monogenic-form"}
    for name, result in comparison.results.items():
        assert (result.force - expect).norm() <= 1e-8, (name, result)
    assert comparison.max_disagreement <= 1e-10


def test_lift_scales_with_circulation_and_density():
    rho = 1.7
    gamma = 3.0
    sc = cylinder_vortex_scenario(circulation=gamma)
    f = force_blasius(sc.potential, sc.body, rho=rho, order=ORDER).force
    assert abs(f.y + rho * gamma) <= 1e-8
    assert abs(f.x) <= 1e-8 and abs(f.z) <= 1e-10


def test_lift_independent_of_cylinder_height():
    pot = cylinder_vortex_scenario().potential
    per_height = []
    for h in (0.5, 1.0, 2.0):
        body = cylinder_body(1.0, -h, h)
        f = force_blasius(pot, body, order=ORDER).force
        per_height.append(f / (2.0 * h))
    for v in per_height[1:]:
        assert (v - per_height[0]).norm() <= 1e-6


def test_components_route_equals_norm_route_bitwise():
    for name, sc in scenario_catalog().items():
        a = force_blasius(sc.potential, sc.body, rho=sc.rho, order=12).force
        b = force_components_sc(sc.potential, sc.body, rho=sc.rho,
                                order=12).force
        assert (a - b).norm() <= 1e-10, name


def test_pressure_route_agrees_with_quadratic_routes():
    for name, sc in scenario_catalog().items():
        a = force_pressure_direct(sc.potential, sc.body, rho=sc.rho,
                                  order=ORDER).force
        b = force_blasius(sc.potential, sc.body, rho=sc.rho,
                          order=ORDER).force
        assert (a - b).norm() <= 1e-8, name


def test_stagnation_pressure_offset_never_loads_a_closed_surface():
    sc = cylinder_vortex_scenario()
    base = force_pressure_direct(sc.potential, sc.body, order=ORDER).force
    offset = force_pressure_direct(sc.potential, sc.body, order=ORDER,
                                   stagnation=5.0).force
    assert (base - offset).norm() <= 1e-9


def test_vanishing_force_scenarios():
    for sc in vanishing_force_cases():
        for route in (force_pressure_direct, force_blasius,
                      force_components_sc):
            f = route(sc.potential, sc.body, rho=sc.rho, order=ORDER).force
            assert f.norm() <= 1e-6, (sc.name, route.__name__, f)


def test_dalembert_sphere_at_higher_order():
    sc = sphere_stream_scenario()
    for route in (force_pressure_direct, force_blasius, force_components_sc):
        f = route(sc.potential, sc.body, order=32).force
        assert f.norm() <= 1e-6, route.__name__
    m = moment_quadratic(sc.potential, sc.body,
                         ReducedPoint(0.0, 0.0, 0.0), order=32).moment
    assert m.norm() <= 1e-6


def test_gate_refuses_non_stream_surfaces():
    sphere = sphere_stream_scenario()
    with pytest.raises(StreamSurfaceError, match="varies"):
        force_monogenic_form(sphere.potential, sphere.body, order=8)
    with pytest.raises(StreamSurfaceError, match="drifts"):
        force_monogenic_form(uniform_flow(1.0), sphere_body(1.0), order=8)
    with pytest.raises(StreamSurfaceError):
        force_monogenic_form(uniform_flow(0.0, 1.0, 0.0),
                             cylinder_body(1.0, -0.5, 0.5), order=8)


def test_gate_admits_cylinder_scenarios():
    for sc in (cylinder_uniform_scenario(), cylinder_vortex_scenario()):
        f = force_monogenic_form(sc.potential, sc.body, order=ORDER).force
        b = force_blasius(sc.potential, sc.body, order=ORDER).force
        assert (f - b).norm() <= 1e-6, sc.name


def test_monogenic_form_is_deformation_invariant_for_pure_vortex():
    # Every circle around the axis is a streamline of a pure vortex, so
    # the gate admits cylinders of any radius and the force stays put.
    pot = embedded_cylinder_flow(0.0, 0.5, GAMMA)
    forces = []
    for radius in (1.0, 2.0):
        body = cylinder_body(radius, -0.5, 0.5)
        forces.append(force_monogenic_form(pot, body, order=ORDER).force)
    assert forces[0].norm() <= 1e-8
    assert (forces[0] - forces[1]).norm() <= 1e-8


def test_moment_about_axis_vanishes():
    sc = cylinder_vortex_scenario()
    m = moment_quadratic(sc.potential, sc.body, ReducedPoint(0, 0, 0),
                         order=ORDER).moment
    assert m.norm() <= 1e-6


def test_moment_about_offset_axis_matches_lift_times_arm():
    sc = cylinder_vortex_scenario()
    about = ReducedPoint(0.3, 0.0, 0.0)
    m = moment_quadratic(sc.potential, sc.body, about, order=ORDER)
    # rho U Gamma x1, the couple of the lift about the shifted axis.
    assert abs(m.moment.z - GAMMA * 0.3) <= 1e-8
    assert abs(m.moment.x) <= 1e-9 and abs(m.moment.y) <= 1e-9
    assert m.about == about


def test_moment_pressure_route_agrees():
    sc = cylinder_vortex_scenario()
    about = ReducedPoint(0.3, 0.0, 0.0)
    pressure = pressure_field(sc.potential, rho=sc.rho)
    a = moment_quadratic(sc.potential, sc.body, about, order=ORDER).moment
    b = moment_from_pressure(pressure, sc.body, about, order=ORDER).moment
    assert (a - b).norm() <= 1e-9


def test_moment_shift_law():
    sc = cylinder_vortex_scenario()
    origin = ReducedPoint(0.0, 0.0, 0.0)
    target = ReducedPoint(0.3, -0.2, 0.1)
    force = force_blasius(sc.potential, sc.body, order=ORDER)
    base = moment_quadratic(sc.potential, sc.body, origin, order=ORDER)
    direct = moment_quadratic(sc.potential, sc.body, target, order=ORDER)
    shifted = moment_reference_shift(base, force, target)
    assert (shifted.moment - direct.moment).norm() <= 1e-10
    assert shifted.about == target


def test_force_from_constant_pressure_vanishes():
    body = sphere_body(1.0)
    f = force_from_pressure(lambda p: 3.5, body, order=12).force
    assert f.norm() <= 1e-10


def test_scenario_catalog_shape():
    catalog = scenario_catalog()
    assert len(catalog) == 6
    for name, sc in catalog.items():
        assert sc.name == name
        assert sc.body.surface.node_count(8) > 0
        if sc.expected_force is not None:
            got = force_blasius(sc.potential, sc.body, rho=sc.rho,
                                order=ORDER).force
            assert (got - sc.expected_force).norm() <= 1e-6, name


def counting_potential(calls):
    """sphere flow plus an off-centre source, built afresh, whose inner
    array jet appends the row count of every evaluation to ``calls``."""
    field = (sphere_flow(1.0, 1.0)
             + point_source(0.4, ReducedPoint(0.1, 0.0, 0.2))).field

    def jet_array(xyz, inner=field._jet_array):
        calls.append(len(xyz))
        return inner(xyz)

    return FlowPotential(QuaternionField(
        field._evaluate, jet=field._jet, domain=field._domain,
        name=field.name, jet_array=jet_array,
        domain_array=field._domain_array, value_array=field._value_array))


@pytest.mark.parametrize("body", [
    sphere_body(1.0),
    box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)),
    cylinder_body(1.0, -1.0, 1.0),
], ids=["sphere", "box", "cylinder"])
def test_forces_and_moments_evaluate_each_chart_once(body):
    about = ReducedPoint(0.3, -0.2, 0.1)
    calls = []
    pot = counting_potential(calls)
    comparison = all_force_methods(pot, body, rho=1.3, order=ORDER)
    mq = moment_quadratic(pot, body, about, rho=1.3, order=ORDER)
    mp = moment_from_pressure(pressure_field(pot, rho=1.3), body, about,
                              order=ORDER)
    assert calls == [len(cn.weights) for cn in body.surface.quadrature(ORDER)]

    # each route alone, on a freshly built potential, gives the same bits
    routes = {"pressure": force_pressure_direct, "blasius": force_blasius,
              "components-sc": force_components_sc,
              "monogenic-form": force_monogenic_form}
    for name, route in routes.items():
        try:
            fresh = route(counting_potential([]), body, rho=1.3, order=ORDER)
        except StreamSurfaceError as err:
            assert comparison.gated[name] == str(err)
            continue
        assert comparison.results[name].force == fresh.force, name
    assert set(comparison.results) | set(comparison.gated) == set(routes)
    fresh_mq = moment_quadratic(counting_potential([]), body, about, rho=1.3,
                                order=ORDER)
    fresh_mp = moment_from_pressure(
        pressure_field(counting_potential([]), rho=1.3), body, about,
        order=ORDER)
    assert mq.moment == fresh_mq.moment
    assert mp.moment == fresh_mp.moment
