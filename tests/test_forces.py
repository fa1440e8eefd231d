"""Force and moment routes on closed surfaces, with the classical oracles."""

import gc
import math
import random
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from quatflow import (
    DomainError,
    FlowPotential,
    QuaternionField,
    ReducedPoint,
    StreamSurfaceError,
    all_force_methods,
    box_body,
    cylinder_body,
    dipole_flow,
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
    saddle_flow,
    scenario_catalog,
    sphere_body,
    sphere_flow,
    uniform_flow,
    vanishing_force_cases,
)
from quatflow import forces, surfaces
from quatflow.quaternion import qconj, qmul
from quatflow.scenarios import ScenarioConfig

from test_quaternion import float_bits, special_quaternions

GAMMA = 2.0 * math.pi
ORDER = 16


def test_circulating_cylinder_lift_all_methods():
    # rho U Gamma downward for positive circulation: F = (0, -2 pi, 0).
    sc = scenario_catalog()["cylinder-vortex"]
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
    sc = ScenarioConfig(name="lift", body={"kind": "cylinder"},
                        potential={"kind": "embedded_cylinder",
                                   "circulation": gamma}).build()
    f = force_blasius(sc.potential, sc.body, rho=rho, order=ORDER).force
    assert abs(f.y + rho * gamma) <= 1e-8
    assert abs(f.x) <= 1e-8 and abs(f.z) <= 1e-10


def test_lift_independent_of_cylinder_height():
    pot = scenario_catalog()["cylinder-vortex"].potential
    per_height = []
    for h in (0.5, 1.0, 2.0):
        body = cylinder_body(1.0, -h, h)
        f = force_blasius(pot, body, order=ORDER).force
        per_height.append(f / (2.0 * h))
    for v in per_height[1:]:
        assert (v - per_height[0]).norm() <= 1e-6


def _stream_with_singularity(seed, kind, nodes):
    """A seeded uniform stream plus a source or a dipole at a point of
    [-0.3, 0.3]^3 at least 0.2 from every node; a source's cut ray along
    -x also passes at least 0.02 from them."""
    rng = random.Random(f"bitwise/{kind}/{seed}")
    stream = uniform_flow(*(rng.uniform(-1.0, 1.0) for _ in range(3)))
    strength = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)
    while True:
        c = np.array([rng.uniform(-0.3, 0.3) for _ in range(3)])
        rel = nodes - c
        dist = np.sqrt(np.sum(rel * rel, axis=1))
        ray = np.where(rel[:, 0] <= 0.0, np.hypot(rel[:, 1], rel[:, 2]), dist)
        if dist.min() >= 0.2 and (kind == "dipole" or ray.min() >= 0.02):
            break
    center = ReducedPoint(*c.tolist())
    if kind == "source":
        return stream + point_source(strength, center)
    return stream + dipole_flow(strength, center)


def bitwise_cases():
    cases = [(name, sc.potential, sc.body, sc.rho, 12)
             for name, sc in scenario_catalog().items()]
    bodies = {"sphere": sphere_body(1.0),
              "box": box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
              "cylinder": cylinder_body(1.0, -0.5, 0.5)}
    for body_name, body in bodies.items():
        for order in (32, 48):
            nodes = np.concatenate([cn.point_array
                                    for cn in body.surface.quadrature(order)])
            for kind in ("source", "dipole"):
                for seed in range(3):
                    cases.append((f"{body_name}/{order}/{kind}/{seed}",
                                  _stream_with_singularity(seed, kind, nodes),
                                  body, 1.0 + 0.1 * seed, order))
    return cases


def test_components_route_equals_norm_route_bitwise():
    for name, pot, body, rho, order in bitwise_cases():
        a = force_blasius(pot, body, rho=rho, order=order).force
        b = force_components_sc(pot, body, rho=rho, order=order).force
        assert a.as_tuple() == b.as_tuple(), name


def test_pressure_route_agrees_with_quadratic_routes():
    for name, sc in scenario_catalog().items():
        a = force_pressure_direct(sc.potential, sc.body, rho=sc.rho,
                                  order=ORDER).force
        b = force_blasius(sc.potential, sc.body, rho=sc.rho,
                          order=ORDER).force
        assert (a - b).norm() <= 1e-8, name


def test_pressure_of_a_bare_field_is_that_of_its_potential():
    pot = sphere_flow(1.0, 1.0)
    bare, wrapped = pressure_field(pot.field, rho=1.3), pressure_field(
        FlowPotential(pot.field), rho=1.3)
    assert bare.name == wrapped.name == f"pressure({pot.field.name})"
    xyz = sphere_body(1.5).surface.quadrature(4)[0].point_array
    assert bare.value_array(xyz).tolist() == wrapped.value_array(xyz).tolist()
    p = ReducedPoint(0.3, 1.4, -0.2)
    assert float.hex(bare(p)) == float.hex(wrapped(p))


def test_stagnation_pressure_offset_never_loads_a_closed_surface():
    sc = scenario_catalog()["cylinder-vortex"]
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
    sc = scenario_catalog()["sphere-stream"]
    for route in (force_pressure_direct, force_blasius, force_components_sc):
        f = route(sc.potential, sc.body, order=32).force
        assert f.norm() <= 1e-6, route.__name__
    m = moment_quadratic(sc.potential, sc.body,
                         ReducedPoint(0.0, 0.0, 0.0), order=32).moment
    assert m.norm() <= 1e-6


def test_gate_refuses_non_stream_surfaces():
    refused = "monogenic force form refused: v.n = "
    with pytest.raises(StreamSurfaceError, match=re.escape(refused)):
        force_monogenic_form(uniform_flow(1.0), sphere_body(1.0), order=8)
    with pytest.raises(StreamSurfaceError, match=re.escape(refused)):
        force_monogenic_form(uniform_flow(0.0, 1.0, 0.0),
                             cylinder_body(1.0, -0.5, 0.5), order=8)


@pytest.mark.parametrize("order", [8, 16, 32, 64])
def test_gate_admits_the_stream_past_a_sphere(order):
    # v.n = 0 on the sphere, so the form is the pressure-route force:
    # zero by d'Alembert
    sc = scenario_catalog()["sphere-stream"]
    f = force_monogenic_form(sc.potential, sc.body, order=order).force
    p = force_pressure_direct(sc.potential, sc.body, order=order).force
    assert f.norm() <= 1e-12
    assert (f - p).norm() <= 1e-12 * (1.0 + f.norm())


def test_gate_admits_cylinder_scenarios():
    catalog = scenario_catalog()
    for sc in (catalog["cylinder-uniform"], catalog["cylinder-vortex"]):
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
    sc = scenario_catalog()["cylinder-vortex"]
    m = moment_quadratic(sc.potential, sc.body, ReducedPoint(0, 0, 0),
                         order=ORDER).moment
    assert m.norm() <= 1e-6


def test_moment_about_offset_axis_matches_lift_times_arm():
    sc = scenario_catalog()["cylinder-vortex"]
    about = ReducedPoint(0.3, 0.0, 0.0)
    m = moment_quadratic(sc.potential, sc.body, about, order=ORDER)
    # rho U Gamma x1, the couple of the lift about the shifted axis.
    assert abs(m.moment.z - GAMMA * 0.3) <= 1e-8
    assert abs(m.moment.x) <= 1e-9 and abs(m.moment.y) <= 1e-9
    assert m.about == about


def test_moment_pressure_route_agrees():
    sc = scenario_catalog()["cylinder-vortex"]
    about = ReducedPoint(0.3, 0.0, 0.0)
    pressure = pressure_field(sc.potential, rho=sc.rho)
    a = moment_quadratic(sc.potential, sc.body, about, order=ORDER).moment
    b = moment_from_pressure(pressure, sc.body, about, order=ORDER).moment
    assert (a - b).norm() <= 1e-9


def test_moment_shift_law():
    sc = scenario_catalog()["cylinder-vortex"]
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
    # one array jet over every chart of the surface at once
    assert calls == [body.surface.node_count(ORDER)]

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


@pytest.mark.parametrize("make, charts", [
    (lambda: box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)), 6),
    (lambda: cylinder_body(1.0, -1.0, 1.0), 3),
], ids=["box", "cylinder"])
def test_every_route_calls_the_array_jet_once_per_surface_and_order(make,
                                                                    charts):
    about = ReducedPoint(0.3, -0.2, 0.1)
    calls = []
    pot, body = counting_potential(calls), make()
    assert len(body.surface.charts) == charts
    # back to the first order after a second one: its table is remembered
    for order in (ORDER, ORDER + 4, ORDER):
        all_force_methods(pot, body, rho=1.3, order=order)
        moment_quadratic(pot, body, about, rho=1.3, order=order)
        moment_from_pressure(pressure_field(pot, rho=1.3), body, about,
                             order=order)
    assert calls == [body.surface.node_count(ORDER),
                     body.surface.node_count(ORDER + 4)]


@pytest.mark.parametrize("make", [
    lambda: sphere_body(1.0),
    lambda: box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)),
    lambda: cylinder_body(1.0, -1.0, 1.0),
], ids=["sphere", "box", "cylinder"])
def test_w_dbar_rows_are_formed_once_per_chart(make, monkeypatch):
    about = ReducedPoint(0.3, -0.2, 0.1)
    routes = {
        "forces": lambda pot, body: all_force_methods(pot, body, rho=1.3,
                                                      order=ORDER),
        "quadratic": lambda pot, body: moment_quadratic(
            pot, body, about, rho=1.3, order=ORDER),
        "pressure": lambda pot, body: moment_from_pressure(
            pressure_field(pot, rho=1.3), body, about, order=ORDER)}
    # each route alone, on a fresh potential and body, before any counting
    alone = {name: route(counting_potential([]), make())
             for name, route in routes.items()}

    formed = []
    conj_grad = forces._conj_grad
    monkeypatch.setattr(forces, "_conj_grad",
                        lambda jets: formed.append(jets.shape[1])
                        or conj_grad(jets))
    body = make()
    pot = counting_potential([])
    together = {name: route(pot, body) for name, route in routes.items()}
    assert formed == [body.surface.node_count(ORDER)]
    assert together == alone

    # the rows are kept beside the remembered table and die with it
    xyz = body.surface.nodes(ORDER).point_array
    kept = pot.table_rows(xyz, forces._flow_rows)
    assert pot.table_rows(xyz, forces._flow_rows) is kept
    assert all(not rows.flags.writeable for rows in kept)
    assert len(formed) == 1
    # a writable copy of the nodes gets the same bits and remembers nothing
    other = counting_potential([])
    fresh = other.table_rows(np.array(xyz), forces._flow_rows)
    assert [rows.tobytes() for rows in fresh] == \
        [rows.tobytes() for rows in kept]
    assert other.field._tables == {}
    ref = weakref.ref(kept[0])
    del pot, kept, together
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("make, body, refused", [
    (lambda: sphere_flow(1.0, 1.0), sphere_body(1.0), False),
    (lambda: counting_potential([]),
     box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)), True),
    (lambda: counting_potential([]), cylinder_body(1.0, -1.0, 1.0), True),
], ids=["sphere-admitted", "box-refused", "cylinder-refused"])
def test_speed_rows_are_formed_once_per_chart(make, body, refused,
                                              monkeypatch):
    # the gate's tolerance reads the |v|^2 rows the pressure route keeps
    formed = []
    speed_sq = forces._speed_sq
    monkeypatch.setattr(forces, "_speed_sq",
                        lambda jets: formed.append(jets.shape[1])
                        or speed_sq(jets))
    once = [body.surface.node_count(ORDER)]
    try:
        force_monogenic_form(make(), body, rho=1.3, order=ORDER)
        assert not refused
    except StreamSurfaceError:
        assert refused
    assert formed == once
    formed.clear()
    comparison = all_force_methods(make(), body, rho=1.3, order=ORDER)
    assert ("monogenic-form" in comparison.gated) == refused
    assert formed == once


def test_pressure_checks_the_domain_once_per_chart(monkeypatch):
    calls = []
    in_domain_array = QuaternionField.in_domain_array

    def counted(field, xyz):
        calls.append(len(xyz))
        return in_domain_array(field, xyz)

    monkeypatch.setattr(QuaternionField, "in_domain_array", counted)
    about = ReducedPoint(0.3, -0.2, 0.1)
    body = cylinder_body(1.0, -1.0, 1.0)
    pressure = pressure_field(uniform_flow(1.0) + dipole_flow(0.5))
    first = moment_from_pressure(pressure, body, about, order=48)
    # once for the side's 4608 nodes and the caps' 2 x 4608 together
    assert calls == [13824]
    # a remembered table passed that check when it was made
    assert moment_from_pressure(pressure, body, about, order=48) == first
    assert calls == [13824]


@pytest.mark.parametrize("writable", [False, True])
def test_pressure_names_its_first_row_outside_the_domain(writable):
    pot = uniform_flow(1.0) + point_source(1.0)
    pressure = pressure_field(pot)
    xyz = np.array([[0.5, 0.1, 0.0], [0.3, 0.0, 0.2], [-0.5, 0.0, 0.0],
                    [0.0, 0.0, 0.0], [0.2, -0.4, 0.1]])
    xyz.setflags(write=writable)
    for _ in range(2):
        with pytest.raises(DomainError) as err:
            pressure.value_array(xyz)
        assert str(err.value) == (
            f"field pressure({pot.name}) is not defined at "
            f"{ReducedPoint(-0.5, 0.0, 0.0)!r}")
    assert pot.field._tables == {}


@pytest.mark.parametrize("make", [
    lambda: sphere_body(1.0),
    lambda: box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)),
    lambda: cylinder_body(1.0, -1.0, 1.0),
], ids=["sphere", "box", "cylinder"])
def test_both_moment_routes_build_the_arms_once_per_chart(make, monkeypatch):
    about, other = ReducedPoint(0.3, -0.2, 0.1), ReducedPoint(-0.5, 0.4, 0.0)

    routes = (
        lambda body, about: moment_quadratic(
            counting_potential([]), body, about, rho=1.3, order=ORDER),
        lambda body, about: moment_from_pressure(
            pressure_field(counting_potential([]), rho=1.3), body, about,
            order=ORDER))

    def moments(body, about):
        return tuple(route(body, about).moment for route in routes)

    # each route alone on its own fresh body
    alone = tuple(route(make(), about).moment for route in routes)
    body = make()
    block = body.surface.nodes(ORDER)
    cross_rows, built = surfaces.cross_rows, []
    monkeypatch.setattr(surfaces, "cross_rows",
                        lambda *args: built.append(1) or cross_rows(*args))
    assert moments(body, about) == alone
    # one set of arms over the surface's whole node block
    assert len(built) == 1
    centre = np.array(about.as_tuple())[:, None]
    arms = block.moment_arms(about)
    assert block.moment_arms(about) is arms and not arms.flags.writeable
    assert len(built) == 1
    assert np.array_equal(arms, cross_rows(
        block.point_rows - centre, block.normal_rows, np.empty(arms.shape)))
    # a second reference point replaces the kept arms; the first comes back
    # with the same bits
    moments(body, other)
    assert moments(body, about) == alone
    assert len(built) == 3
    # each chart's own arms are the block's at its span, bit for bit
    for cn, span in zip(body.surface.quadrature(ORDER), block.spans):
        assert np.array_equal(cn.moment_arms(about), arms[:, span])


@pytest.mark.parametrize("box", [
    ((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
    ((0.2, 1.1), (-0.3, 0.9), (-0.5, 0.1)),
], ids=["skew", "off-axis"])
def test_saddle_pressure_routes_on_off_centre_boxes(box):
    # p = -(rho/2)|v|^2 with v = (2x, -2y, 0), so -(integral of) p n dS
    # is (rho/2) (integral of) grad |v|^2 dV = 4 rho vol (x_c, y_c, 0)
    rho = 1.3
    (x0, x1), (y0, y1), (z0, z1) = box
    vol = (x1 - x0) * (y1 - y0) * (z1 - z0)
    oracle = ReducedPoint(4.0 * rho * vol * 0.5 * (x0 + x1),
                          4.0 * rho * vol * 0.5 * (y0 + y1), 0.0)
    assert oracle.norm() > 0.3
    comparison = all_force_methods(saddle_flow(), box_body(*box), rho=rho,
                                   order=24)
    assert set(comparison.results) == {"pressure", "blasius",
                                       "components-sc"}
    for name, result in comparison.results.items():
        gap = (result.force - oracle).norm()
        assert gap <= 1e-12 * (1.0 + oracle.norm()), (name, gap)
    assert "monogenic-form" in comparison.gated
    with pytest.raises(StreamSurfaceError):
        force_monogenic_form(saddle_flow(), box_body(*box), rho=rho,
                             order=24)


# ----------------------------------------------------------------------
# the stream-surface gate: admitted exactly where v.n vanishes
# ----------------------------------------------------------------------

GATE_ORDER = 12
GATE_BOX = ((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55))
# sources and dipoles sit inside the body at least 0.2 from every node,
# and a source's cut ray (along -x from it) passes 0.02 from every node
POINT_CLEARANCE = 0.2
RAY_CLEARANCE = 0.02
SEEDED_KINDS = ("stream+source", "stream+dipole", "sphere")


def gate_body(name):
    if name == "sphere":
        return sphere_body(1.0)
    if name == "box":
        return box_body(*GATE_BOX)
    return cylinder_body(1.0, -0.5, 0.5)


def inner_point(rng, body):
    while True:
        if body == "box":
            return [rng.uniform(lo + 0.25, hi - 0.25) for lo, hi in GATE_BOX]
        p = [rng.uniform(-0.6, 0.6) for _ in range(3)]
        if body == "cylinder":
            p[2] = rng.uniform(-0.25, 0.25)
        if p[0] ** 2 + p[1] ** 2 + (p[2] ** 2 if body == "sphere" else 0.0) \
                <= 0.36:
            return p


def clear_of_nodes(nodes, center, ray):
    rel = nodes - np.asarray(center)
    dist = np.linalg.norm(rel, axis=1)
    if np.min(dist) < POINT_CLEARANCE:
        return False
    behind = np.where(rel[:, 0] <= 0.0, np.hypot(rel[:, 1], rel[:, 2]), dist)
    return not ray or np.min(behind) >= RAY_CLEARANCE


def gate_case(case):
    """(potential, body, rho) of a catalog scenario or a seeded case
    named body/kind/k."""
    catalog = scenario_catalog()
    if case in catalog:
        sc = catalog[case]
        return sc.potential, sc.body, sc.rho
    body_name, kind, k = case.split("/")
    rng = random.Random(case)
    rho = rng.uniform(0.8, 1.25)
    speed = rng.uniform(0.5, 1.5)
    if kind == "sphere-matched":
        # the sphere of the flow's own radius is a stream surface
        radius = rng.uniform(0.5, 1.5)
        return sphere_flow(speed, radius), sphere_body(radius), rho
    body = gate_body(body_name)
    if kind == "sphere":
        radius = 1.0 if (body_name, k) == ("sphere", "0") \
            else rng.uniform(0.3, 0.6)
        return sphere_flow(speed, radius), body, rho
    stream = uniform_flow(*(speed * rng.uniform(-1.0, 1.0) for _ in range(3)))
    nodes = np.concatenate([cn.point_array
                            for cn in body.surface.quadrature(GATE_ORDER)])
    while True:
        center = inner_point(rng, body_name)
        if clear_of_nodes(nodes, center, kind == "stream+source"):
            break
    strength = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.5)
    singular = point_source if kind == "stream+source" else dipole_flow
    return stream + singular(strength, ReducedPoint(*center)), body, rho


GATE_CASES = sorted(scenario_catalog()) + [
    f"{body}/{kind}/{k}" for body in ("sphere", "box", "cylinder")
    for kind in SEEDED_KINDS for k in range(2)] + [
    f"sphere/sphere-matched/{k}" for k in range(2)]
# the cases whose surface is a stream surface of the flow
STREAM_SURFACE_CASES = {"cylinder-uniform", "cylinder-vortex", "sphere-stream",
                        "sphere/sphere/0", "sphere/sphere-matched/0",
                        "sphere/sphere-matched/1"}


def flux_scan(potential, body, order):
    """The gate's tolerance 1e-8 (1 + max |v|) and (|v.n|, point, chart name)
    at every node in chart-major order, from velocity_at node by node."""
    rows = [(potential.velocity_at(p), n, p, cn.chart.name)
            for cn in body.surface.quadrature(order)
            for p, n in zip(cn.points, cn.normals)]
    tol = 1e-8 * (1.0 + max(v.norm() for v, _, _, _ in rows))
    return tol, [(abs(v.dot(n)), p, name) for v, n, p, name in rows]


@pytest.mark.parametrize("case", GATE_CASES)
def test_gate_admits_the_form_exactly_where_v_dot_n_vanishes(case):
    pot, body, rho = gate_case(case)
    comparison = all_force_methods(pot, body, rho=rho, order=GATE_ORDER)
    tol, flux = flux_scan(pot, body, GATE_ORDER)
    admitted = "monogenic-form" in comparison.results
    assert admitted == (max(f for f, _, _ in flux) <= tol)
    assert admitted == (case in STREAM_SURFACE_CASES)
    assert admitted != ("monogenic-form" in comparison.gated)
    if admitted:
        form = comparison.results["monogenic-form"].force
        gap = (form - comparison.results["blasius"].force).norm()
        assert gap <= 1e-10 * (1.0 + form.norm())
        return
    # the refusal names the first node of the same chart-major scan
    point, chart = next((p, name) for f, p, name in flux if not f <= tol)
    message = comparison.gated["monogenic-form"]
    assert message.startswith("monogenic force form refused: v.n = ")
    assert message.endswith(f" at {point.as_tuple()} on chart {chart!r}")


@pytest.mark.parametrize("make, chart", [
    (lambda: box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2)), "face+z"),
    (lambda: cylinder_body(1.0, -1.0, 1.0), "cap_top"),
], ids=["box", "cylinder"])
def test_a_refusal_on_a_later_chart_names_that_chart_and_node(make, chart):
    # the upward stream crosses no side and no lower face, where v.n is 0
    # exactly; every node of the top face has v.n = 1
    body, pot = make(), uniform_flow(0.0, 0.0, 1.0)
    quadrature = body.surface.quadrature(ORDER)
    cn = next(cn for cn in quadrature if cn.chart.name == chart)
    assert cn is not quadrature[0]
    message = (f"monogenic force form refused: v.n = 1.000e+00 "
               f"(tolerance 2.0e-08) at {tuple(cn.point_array[0].tolist())} "
               f"on chart {chart!r}")
    with pytest.raises(StreamSurfaceError) as err:
        force_monogenic_form(pot, body, order=ORDER)
    assert str(err.value) == message
    comparison = all_force_methods(uniform_flow(0.0, 0.0, 1.0), body,
                                   order=ORDER)
    assert comparison.gated == {"monogenic-form": message}


def test_gate_refuses_a_nan_jet_and_the_comparison_reads_nan():
    # the cylinder is a stream surface of the vortex flow, so the one node
    # whose jet is NaN is the only place the flux test can fail
    sc = scenario_catalog()["cylinder-vortex"]
    field = sc.potential.field
    cap = sc.body.surface.quadrature(ORDER)[1]
    bad = cap.point_array[5]

    def jet_array(xyz, inner=field._jet_array):
        table = np.array(inner(xyz))
        table[:, np.all(xyz == bad, axis=1), :] = np.nan
        return table

    pot = FlowPotential(QuaternionField(
        field._evaluate, jet=field._jet, domain=field._domain,
        name=field.name, jet_array=jet_array,
        domain_array=field._domain_array, value_array=field._value_array))
    comparison = all_force_methods(pot, sc.body, order=ORDER)
    assert "monogenic-form" in comparison.gated
    assert "monogenic-form" not in comparison.results
    assert math.isnan(comparison.max_disagreement)
    message = comparison.gated["monogenic-form"]
    assert message.startswith("monogenic force form refused: v.n = nan ")
    assert message.endswith(
        f" at {tuple(bad.tolist())} on chart {cap.chart.name!r}")


# ----------------------------------------------------------------------
# the scalar parts the two quadratic routes sum
# ----------------------------------------------------------------------

PRODUCT_ROUTES = {"components-sc": forces._components_sc_rows,
                  "monogenic-form": forces._monogenic_form_rows}


def full_product_rows(route, g, n):
    """A route's rows from the whole last product t, k row included:
    t = (conj(g) g) n with s = -1 or t = (g n) g with s = 1, then Sc t and
    the first entries of the products of t by s i and s j."""
    if route == "components-sc":
        t, s = qmul(qmul(qconj(g), g), n), -1.0
    else:
        t, s = qmul(qmul(g, n), g), 1.0
    t0, t1, t2, t3 = t
    return np.stack((t0, t0 * 0.0 - t1 * s - t2 * 0.0 - t3 * 0.0,
                     t0 * 0.0 - t1 * 0.0 - t2 * s - t3 * 0.0))


def route_rows(route, g, n):
    """The rows the route sums, for w Dbar rows g and normal rows n."""
    block = SimpleNamespace(normal_rows=n)
    return PRODUCT_ROUTES[route](block, (g, None))


@pytest.mark.parametrize("route", sorted(PRODUCT_ROUTES))
@pytest.mark.parametrize("nodes", [1, 72, 4608])
def test_route_rows_equal_the_whole_products_bit_for_bit(route, nodes):
    rng = np.random.default_rng(nodes)
    g = rng.normal(size=(4, nodes)) * 10.0 ** rng.uniform(-3, 3, (4, nodes))
    n = rng.normal(size=(3, nodes))
    got = route_rows(route, g, n)
    assert got.shape == (3, nodes)
    assert float_bits(got) == float_bits(full_product_rows(route, g, n))


@pytest.mark.parametrize("route", sorted(PRODUCT_ROUTES))
def test_route_rows_stay_non_finite_where_an_operand_is(route):
    rng = random.Random(f"product rows/{route}")
    g = np.array([q.as_tuple() for q in special_quaternions(rng, 2000)]).T
    n = np.array([q.as_tuple()[:3]
                  for q in special_quaternions(rng, 2000)]).T
    with np.errstate(all="ignore"):
        want, got = full_product_rows(route, g, n), route_rows(route, g, n)
    operand_bad = ~(np.isfinite(g).all(axis=0) & np.isfinite(n).all(axis=0))
    assert 0 < operand_bad.sum() < 2000
    assert not (operand_bad & ~np.isfinite(want) & np.isfinite(got)).any()
    # at every node: no row less finite, and a finite row the same value
    # (the whole products also multiply a non-finite t0 or t3 by 0.0)
    assert not (np.isfinite(want) & ~np.isfinite(got)).any()
    kept = np.isfinite(want)
    assert (got[kept] == want[kept]).all()


def test_a_k_component_overflowing_alone_leaves_the_form_rows_finite():
    # t = (g n) g = 1e308 (-1 + k)^2 = -2e308 k: only t3 overflows, and the
    # whole product made NaN rows of it by t3 * 0.0; the k row is not formed
    g = np.array([[-1.0], [0.0], [0.0], [1.0]])
    n = np.array([[1e308], [0.0], [0.0]])
    with np.errstate(all="ignore"):
        t = qmul(qmul(g, n), g)
        want = full_product_rows("monogenic-form", g, n)
    assert t[:, 0].tolist() == [0.0, 0.0, 0.0, -math.inf]
    assert np.isnan(want[1:]).all()
    with np.errstate(all="raise"):
        got = route_rows("monogenic-form", g, n)
    assert got[:, 0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("route", sorted(PRODUCT_ROUTES))
def test_route_rows_peak_within_nine_rows(route):
    # 13,824 nodes, the order-48 box; the slack covers Python objects
    nodes = 13824
    rng = np.random.default_rng(nodes)
    g, n = rng.normal(size=(4, nodes)), rng.normal(size=(3, nodes))
    tracemalloc.start()
    try:
        route_rows(route, g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * nodes + 4096
