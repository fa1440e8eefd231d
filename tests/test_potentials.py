"""Monogenic flow potentials, completion, stream functions, gauge."""

import cmath
import math
import random
import struct

import numpy as np
import pytest

from quatflow import (
    CompletionError,
    DomainError,
    FlowPotential,
    IntegrabilityError,
    Jet,
    Quaternion,
    QuaternionField,
    ReducedPoint,
    ScalarField,
    VelocityField,
    all_force_methods,
    catalog,
    dipole_flow,
    embedded_cylinder_flow,
    embedded_potential,
    force_blasius,
    gauge_transform,
    geometric_stream_functions,
    harmonic_catalog,
    identity_flow,
    monogenic_completion,
    monogenic_from_gradient,
    point_source,
    saddle_flow,
    sphere_body,
    sphere_flow,
    uniform_flow,
    vector_gauge_field,
)
from quatflow.planar import cylinder_vortex_2d

PROBES = [
    ReducedPoint(1.1, 0.2, 0.3),
    ReducedPoint(0.7, -0.5, 0.4),
    ReducedPoint(-0.3, 0.8, 1.2),
    ReducedPoint(0.5, 0.6, -0.7),
]


def ball_points(seed, count, radius=0.9):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        p = ReducedPoint(rng.uniform(-radius, radius),
                         rng.uniform(-radius, radius),
                         rng.uniform(-radius, radius))
        if p.norm() <= radius:
            points.append(p)
    return points


def test_catalog_entries_are_monogenic():
    for name, pot in catalog().items():
        pts = [p for p in PROBES if pot.in_domain(p)]
        assert pts, name
        report = pot.monogenicity(pts)
        assert report.ok, (name, report)


def test_uniform_flow_velocity_and_conjugate_gradient():
    pot = uniform_flow(0.8, -0.3, 0.5)
    for p in PROBES:
        v = pot.velocity_at(p)
        assert (v - ReducedPoint(0.8, -0.3, 0.5)).norm() <= 1e-14
        g = pot.conjugate_gradient_at(p)
        expect = Quaternion(2 * 0.8, -2 * -0.3, -2 * 0.5, 0.0)
        assert (g - expect).norm() <= 1e-14
        assert math.isclose(pot.speed_squared_at(p),
                            0.8 ** 2 + 0.3 ** 2 + 0.5 ** 2, rel_tol=1e-14)


def test_saddle_velocity_is_gradient_of_scalar_part():
    pot = saddle_flow()
    for p in PROBES:
        v = pot.velocity_at(p)
        assert (v - ReducedPoint(2 * p.x, -2 * p.y, 0.0)).norm() <= 1e-13


def test_point_source_velocity_is_radial_inverse_square():
    m = 2.5
    pot = point_source(m, ReducedPoint(0.0, 0.0, 0.0))
    for p in PROBES:
        v = pot.velocity_at(p)
        r = p.norm()
        expect = p * (m / (4.0 * math.pi * r ** 3))
        assert (v - expect).norm() <= 1e-9 * max(1.0, expect.norm())


def test_point_source_flux_scales_with_strength():
    # Speed through radius r accounts for the full flux m.
    pot = point_source(4.0 * math.pi)
    p = ReducedPoint(2.0, 0.0, 0.0)
    v = pot.velocity_at(p)
    assert math.isclose(v.x, 1.0 / 4.0, rel_tol=1e-9)
    assert abs(v.y) <= 1e-10 and abs(v.z) <= 1e-10


def test_sphere_flow_is_tangent_on_the_surface():
    pot = sphere_flow(1.0, 1.0)
    rng = random.Random(606)
    for _ in range(40):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        n = ReducedPoint(math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta))
        v = pot.velocity_at(n)
        assert abs(v.dot(n)) <= 1e-10
    far = pot.velocity_at(ReducedPoint(80.0, 3.0, -2.0))
    assert (far - ReducedPoint(1.0, 0.0, 0.0)).norm() <= 1e-4


def test_dipole_decays_like_inverse_cube():
    pot = dipole_flow(1.0)
    near = pot.velocity_at(ReducedPoint(1.0, 0.0, 0.0)).norm()
    far = pot.velocity_at(ReducedPoint(10.0, 0.0, 0.0)).norm()
    assert math.isclose(near / far, 1e3, rel_tol=1e-8)


def test_completion_of_x_matches_identity_closed_form():
    u = harmonic_catalog()["x"]
    built = monogenic_completion(u)
    closed = identity_flow()
    for p in ball_points(12, 100):
        assert (built(p) - closed(p)).norm() <= 1e-10
        jb, jc = built.jet_at(p), closed.jet_at(p)
        for a, b in zip(jb, jc):
            assert (a - b).norm() <= 1e-10


def test_completion_of_saddle_matches_closed_form():
    u = harmonic_catalog()["x^2-y^2"]
    built = monogenic_completion(u)
    closed = saddle_flow()
    for p in ball_points(21, 60):
        assert (built(p) - closed(p)).norm() <= 1e-10


def test_completion_scalar_part_reproduces_input_exactly():
    u = harmonic_catalog()["x^3-3xy^2"]
    built = monogenic_completion(u)
    for p in ball_points(33, 50):
        assert built(p).q0 - u(p) == 0.0


def test_completion_is_monogenic_at_interior_points():
    names = ("x", "x^2-y^2", "xy", "1+x+yz")
    cat = harmonic_catalog()
    pts = ball_points(48, 100)
    for name in names:
        built = monogenic_completion(cat[name])
        report = built.monogenicity(pts, tol=1e-6)
        assert report.ok, (name, report)
        for p in pts[::10]:
            assert abs(built(p).q0 - cat[name](p)) <= 1e-10


def test_completion_about_an_off_center_point():
    u = harmonic_catalog()["xyz"]
    c = ReducedPoint(0.5, -0.25, 0.1)
    built = monogenic_completion(u, center=c)
    pts = [c + q * 0.6 for q in ball_points(9, 40)]
    report = built.monogenicity(pts, tol=1e-6)
    assert report.ok, report
    assert built(c).q0 == u(c)


@pytest.mark.parametrize("name", ["1/r", "x/r^3", "log(x+r)"])
def test_completion_rejects_a_center_outside_the_domain(name):
    u = harmonic_catalog()[name]
    with pytest.raises(DomainError, match="completion center"):
        monogenic_completion(u, center=ReducedPoint(0.0, 0.0, 0.0))
    # a center inside the domain still completes
    monogenic_completion(u, center=ReducedPoint(1.0, 0.5, 0.25))


def test_completion_rejects_non_harmonic_input():
    bad = ScalarField(lambda p: p.x * p.x,
                      gradient=lambda p: ReducedPoint(2 * p.x, 0.0, 0.0),
                      laplacian=lambda p: 2.0,
                      hessian=lambda p: ((2.0, 0, 0), (0, 0, 0), (0, 0, 0)),
                      name="x^2")
    with pytest.raises(ValueError):
        monogenic_completion(bad)(ReducedPoint(0.3, 0.1, 0.2))


@pytest.mark.parametrize("kwargs, name", [
    ({"order": 0}, "order"),
    ({"order": -3}, "order"),
    ({"order": 2.5}, "order"),
    ({"order": True}, "order"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": 0.0}, "tol"),
    ({"max_doublings": -1}, "max_doublings"),
    ({"max_doublings": 1.0}, "max_doublings"),
])
def test_completion_rejects_bad_parameters_when_built(kwargs, name):
    with pytest.raises(ValueError, match=f"completion {name} must be"):
        monogenic_completion(harmonic_catalog()["x"], **kwargs)


@pytest.mark.parametrize("name", ["x^2-y^2", "1/r"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_completion_rejects_a_non_finite_center_when_built(name, bad):
    # before the domain check: 1/r's domain holds an infinite point and
    # rejects a NaN one as "outside the domain"
    u = harmonic_catalog()[name]
    for axis in range(3):
        coords = [1.0, 0.5, 0.25]
        coords[axis] = bad
        center = ReducedPoint(*coords)
        with pytest.raises(ValueError) as err:
            monogenic_completion(u, center=center)
        assert str(err.value) == f"completion center {center!r} is not finite"


def test_completion_takes_the_smallest_parameters():
    pot = monogenic_completion(harmonic_catalog()["x"], order=1, tol=5e-324,
                               max_doublings=0)
    p = ReducedPoint(0.3, 0.1, 0.2)
    assert (pot(p) - identity_flow()(p)).norm() <= 1e-15


def test_monogenic_from_gradient_screens_harmonicity():
    bad = ScalarField(lambda p: p.x * p.x,
                      gradient=lambda p: ReducedPoint(2 * p.x, 0.0, 0.0),
                      laplacian=lambda p: 2.0,
                      name="x^2")
    with pytest.raises(ValueError):
        monogenic_from_gradient(bad, probe_points=PROBES)
    good = monogenic_from_gradient(harmonic_catalog()["xy"],
                                   probe_points=PROBES)
    assert good.monogenicity(PROBES).ok


def test_stream_functions_for_uniform_flow():
    U = (1.0, -0.5, 0.25)
    sf = geometric_stream_functions(VelocityField.constant(*U))
    for p in ball_points(3, 20, radius=1.5):
        assert math.isclose(sf.psi1(p), 0.5 * (U[0] * p.y - U[1] * p.x),
                            rel_tol=0, abs_tol=1e-12)
        assert math.isclose(sf.psi2(p), 0.5 * (U[0] * p.z - U[2] * p.x),
                            rel_tol=0, abs_tol=1e-12)
        assert math.isclose(sf.psi3(p), 0.5 * (U[2] * p.y - U[1] * p.z),
                            rel_tol=0, abs_tol=1e-12)
        v = sf.potential.velocity_at(p)
        assert (v - ReducedPoint(*U)).norm() <= 1e-12
    assert sf.potential.monogenicity(PROBES).ok


def test_stream_functions_refuse_non_uniform_velocity():
    strain = VelocityField.from_components(lambda p: p.x, lambda p: -p.y,
                                           lambda p: 0.0, name="strain")
    with pytest.raises(IntegrabilityError):
        geometric_stream_functions(strain)


def test_stream_functions_refuse_an_empty_probe_list():
    with pytest.raises(ValueError, match="needs probe points"):
        geometric_stream_functions(VelocityField.constant(1.0, 0.0, 0.0),
                                   probe_points=[])


def test_gauge_field_is_scalar_free_and_monogenic():
    h = vector_gauge_field()
    for p in PROBES:
        q = h(p)
        assert q.q0 == 0.0
    from quatflow import is_monogenic

    assert is_monogenic(h, PROBES).ok


def test_gauge_transform_preserves_velocity():
    pot = uniform_flow(1.0)
    shifted = gauge_transform(pot, vector_gauge_field(), probe_points=PROBES)
    for p in PROBES:
        assert (shifted.velocity_at(p) - pot.velocity_at(p)).norm() == 0.0
        assert shifted(p).q0 == pot(p).q0
        assert shifted(p) != pot(p)
    assert shifted.monogenicity(PROBES).ok


def test_gauge_transform_rejects_fields_with_scalar_part():
    from quatflow import QuaternionField

    bad = QuaternionField(lambda p: Quaternion(p.x, 0.0, p.x, p.y))
    with pytest.raises(ValueError):
        gauge_transform(uniform_flow(1.0), bad, probe_points=PROBES)


def test_gauge_transform_rejects_a_non_monogenic_field():
    # x i has no scalar part, and D (x i) = i, so |D f| = 1 everywhere
    def x_i(p):
        return Quaternion(0.0, p.x)

    zero = Quaternion()
    extra = QuaternionField(
        x_i, jet=lambda p: Jet(x_i(p), Quaternion(0.0, 1.0), zero, zero),
        name="xi")
    with pytest.raises(ValueError, match=r"not monogenic: \|D f\| = 1\.000e\+00"):
        gauge_transform(uniform_flow(1.0), extra, probe_points=PROBES)


@pytest.mark.parametrize("op", [lambda a: a + 1, lambda a: a * "a",
                                lambda a: 1 + a, lambda a: "a" * a])
def test_a_potential_or_field_refuses_other_operands(op):
    pot = uniform_flow(1.0)
    for operand in (pot, pot.field):
        with pytest.raises(TypeError):
            op(operand)


def test_a_potential_repr_names_it():
    assert repr(FlowPotential(uniform_flow(1.0).field, name="u")) == \
        "FlowPotential('u')"
    assert repr(dipole_flow(1.0)) == f"FlowPotential({dipole_flow(1.0).name!r})"


def test_embedded_cylinder_matches_planar_derivative():
    U, a, gamma = 1.0, 1.0, 2.0 * math.pi
    pot = embedded_cylinder_flow(U, a, gamma)
    for z in (2.0 + 0.0j, 1.5 + 1.0j, 0.5 - 2.0j, -1.0 + 2.0j):
        fprime = U * (1.0 - a * a / (z * z)) - 1j * gamma / (2.0 * math.pi * z)
        p = ReducedPoint(z.real, z.imag, 0.7)
        if not pot.in_domain(p):
            continue
        g = pot.conjugate_gradient_at(p)
        assert abs(g.q0 - 2.0 * fprime.real) <= 1e-9
        assert abs(g.q1 - 2.0 * fprime.imag) <= 1e-9
        assert abs(g.q2) <= 1e-9 and abs(g.q3) <= 1e-9
        v = pot.velocity_at(p)
        assert abs(complex(v.x, -v.y) - fprime) <= 1e-9
        assert abs(v.z) <= 1e-10


def test_embedded_field_is_independent_of_height():
    pot = embedded_cylinder_flow(1.0, 1.0, 2.0 * math.pi)
    a = pot(ReducedPoint(1.3, 0.4, -5.0))
    b = pot(ReducedPoint(1.3, 0.4, 11.0))
    assert (a - b).norm() == 0.0


def test_potential_addition_superposes_velocities():
    combo = uniform_flow(1.0) + dipole_flow(0.5)
    p = ReducedPoint(1.5, 0.2, -0.3)
    expect = uniform_flow(1.0).velocity_at(p) + dipole_flow(0.5).velocity_at(p)
    assert (combo.velocity_at(p) - expect).norm() <= 1e-12
    scaled = 2.0 * uniform_flow(1.0)
    assert (scaled.velocity_at(p) - ReducedPoint(2.0, 0.0, 0.0)).norm() <= 1e-14


def test_velocity_field_jacobian_from_potential():
    vf = saddle_flow().velocity_field()
    p = ReducedPoint(0.4, -0.2, 0.6)
    jac = vf.jacobian_at(p)
    expect = ((2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 0.0))
    for row, erow in zip(jac, expect):
        for a, b in zip(row, erow):
            assert abs(a - b) <= 1e-6


# NaN must fail every tolerance check: `abs(x) > tol` is False for NaN, so
# each check is written `not abs(x) <= tol`.
NAN = float("nan")
ZERO_HESSIAN = ((0.0, 0.0, 0.0),) * 3


def test_completion_raises_on_a_nan_jet():
    u = ScalarField(lambda p: p.x, gradient=lambda p: (NAN, 0.0, 0.0),
                    laplacian=lambda p: 0.0, hessian=lambda p: ZERO_HESSIAN,
                    name="nan-gradient")
    pot = monogenic_completion(u, order=4)
    with pytest.raises(CompletionError, match="nan-gradient"):
        pot.jet_at(ReducedPoint(0.3, 0.1, 0.2))


def test_completion_rejects_a_nan_laplacian():
    u = ScalarField(lambda p: p.x, gradient=lambda p: (1.0, 0.0, 0.0),
                    laplacian=lambda p: NAN, hessian=lambda p: ZERO_HESSIAN,
                    name="nan-laplacian")
    with pytest.raises(ValueError, match="not harmonic"):
        monogenic_completion(u)(ReducedPoint(0.3, 0.1, 0.2))


def test_monogenic_from_gradient_rejects_a_nan_laplacian():
    u = ScalarField(lambda p: p.x, gradient=lambda p: (1.0, 0.0, 0.0),
                    laplacian=lambda p: NAN, name="nan-laplacian")
    with pytest.raises(ValueError, match="laplacian nan"):
        monogenic_from_gradient(u, probe_points=PROBES)


def test_stream_functions_reject_a_nan_jacobian():
    v = VelocityField(lambda p: ReducedPoint(1.0, 0.0, 0.0),
                      jacobian=lambda p: ((NAN, 0.0, 0.0),) * 3)
    with pytest.raises(IntegrabilityError, match="= nan"):
        geometric_stream_functions(v)


def test_stream_functions_reject_a_nan_velocity():
    v = VelocityField(lambda p: ReducedPoint(NAN, 0.0, 0.0),
                      jacobian=lambda p: ZERO_HESSIAN)
    with pytest.raises(IntegrabilityError, match="not constant"):
        geometric_stream_functions(v)


def test_gauge_transform_rejects_a_nan_scalar_part():
    # a constant NaN scalar part: D of it vanishes, so only the scalar-part
    # check can refuse it
    value = Quaternion(NAN, 0.0, 0.0, 0.0)
    zero = Quaternion()
    extra = QuaternionField(lambda p: value,
                            jet=lambda p: Jet(value, zero, zero, zero),
                            name="nan-scalar")
    with pytest.raises(ValueError, match="scalar part nan"):
        gauge_transform(uniform_flow(1.0), extra, probe_points=PROBES)


# Values of the closed forms that are now written once, recorded from the
# separate copies they replace: the harmonic catalog's log(x+r), the point
# source built on the same primitive, and the planar cylinder with
# circulation, whose f and f' the embedded cylinder flow shares; and the
# dipoles, built as Dbar of the 1/r primitive, with the catalog's 1/r and
# x/r^3 (gradient and the upper triangle of the Hessian), recorded from
# the hand-written forms before that.  The two points are the first draws
# of random.Random(20251018) in [-2, 2]^3 with |p| > 0.5 and |y|, |z| >
# 0.1, off the source's cut ray.
MERGED_POINTS = [
    ReducedPoint(1.7236786659941852, 0.7323679333497175, -1.9711508084361058),
    ReducedPoint(0.7436027342763878, 0.12087026899372466, 1.0649912141577653),
]
MERGED_VALUES = {
    "log(x+r) gradient": [
        (0.3677846249102155, 0.06062889984717495, -0.16318123651555788),
        (0.7665680691888226, 0.045239226392680125, 0.3986040491562057),
    ],
    "log(x+r) hessian": [
        ((-0.08575057002938315, -0.03643426642967537, 0.09806195828256872),
         (-0.03643426642967537, 0.07310274175300455, 0.026058907198376557),
         (0.09806195828256872, 0.026058907198376557, 0.012647828276378628)),
        ((-0.3349601584298926, -0.05444671272087246, -0.47973146060021993),
         (-0.05444671272087246, 0.3690194147555895, -0.04634402350964545),
         (-0.47973146060021993, -0.04634402350964545, -0.03405925632569695)),
    ],
    "source jet": [
        (-0.029267370523829713, 0.0048246945524506755,
         -0.012985550205649366, 0.0,
         0.006823813546562031, -0.002899346800104968, 0.007803522694971021,
         0.0,
         0.002899346800104968, 0.00581733135178048, 0.0020737019460973015,
         0.0,
         -0.007803522694971021, 0.0020737019460973015,
         0.0010064821947815526, 0.0),
        (-0.06100154871390557, 0.0036000232510241875, 0.03171990237982748,
         0.0,
         0.026655282476480902, -0.0043327317323156155,
         -0.038175816655609915, 0.0,
         0.0043327317323156155, 0.02936563197761519,
         -0.0036879402121635413, 0.0,
         0.038175816655609915, -0.0036879402121635413,
         -0.0027103495011342876, 0.0),
    ],
    "cylinder vortex f": [(2.6168894805866927-0.10387865029322252j),
                          (2.2149272875167174+0.1911126376454698j)],
    "cylinder vortex df": [(0.5932851475350329-0.2862078825760991j),
                           (-0.8842019448650094-0.7521344773916117j)],
    "dipole(1.0) jet": [
        (0.08575057002938315, -0.03643426642967537, 0.09806195828256872, 0.0,
         -0.010230762335880765, 0.02548441862443094, -0.0685907043257775,
         0.0,
         -0.02548441862443094, -0.03892059486046683, -0.02914326977824338,
         0.0,
         0.0685907043257775, -0.02914326977824338, 0.02868983252458606, 0.0),
        (0.3349601584298926, -0.05444671272087246, -0.47973146060021993, 0.0,
         0.011362465637512253, 0.07137322927474297, 0.6288714564506799, 0.0,
         -0.07137322927474297, -0.43885429943458176, 0.10222106321009898,
         0.0,
         -0.6288714564506799, 0.10222106321009898, 0.45021676507209385,
         0.0),
    ],
    "dipole(-0.37, (0.2, 0.1, -0.3)) jet": [
        (-0.04353792118995733, 0.018069417036348567, -0.04775182183623375,
         0.0,
         0.007516657988896035, -0.014978690076750404, 0.039583996453583764,
         0.0,
         0.014978690076750404, 0.0223576523463424, 0.016428431131666733,
         0.0,
         -0.039583996453583764, 0.016428431131666733, -0.014840994357446385,
         0.0),
        (-0.0633960203702168, 0.0024339318307868615, 0.1591879609161698, 0.0,
         -0.06873867808099549, -0.001838359275903385, -0.12023535781105983,
         0.0,
         0.001838359275903385, 0.11655138821543932, -0.004616136199928876,
         0.0,
         0.12023535781105983, -0.004616136199928876, -0.18529006629643488,
         0.0),
    ],
    "1/r gradient": [
        (-0.08575057002938315, -0.03643426642967537, 0.09806195828256872),
        (-0.3349601584298926, -0.05444671272087246, -0.47973146060021993),
    ],
    "1/r hessian upper": [
        (0.010230762335880765, 0.02548441862443094, -0.0685907043257775,
         -0.03892059486046683, -0.02914326977824338, 0.02868983252458606),
        (-0.011362465637512253, 0.07137322927474297, 0.6288714564506799,
         -0.43885429943458176, 0.10222106321009898, 0.45021676507209385),
    ],
    "x/r^3 gradient": [
        (-0.010230762335880765, -0.02548441862443094, 0.0685907043257775),
        (0.011362465637512253, -0.07137322927474297, -0.6288714564506799),
    ],
    "x/r^3 hessian upper": [
        (-0.03446965371364473, 0.01492410894375266, -0.04016788293162361,
         -0.022174329314495533, -0.033974394614980696, 0.056643983028140235),
        (-0.812150759964989, 0.05995348816521351, 0.5282518082042069,
         -0.5651475178670177, 0.22333296222447246, 1.377298277832006),
    ],
}


def _flat(value):
    if isinstance(value, tuple):
        return [c for part in value for c in _flat(part)]
    return [value]


def test_merged_closed_forms_reproduce_the_recorded_values():
    log_xr = harmonic_catalog()["log(x+r)"]
    source = point_source(1.0)
    vortex = cylinder_vortex_2d(1, 1, 2.0 * math.pi)
    catalog = harmonic_catalog()
    dipoles = {"dipole(1.0) jet": dipole_flow(1.0),
               "dipole(-0.37, (0.2, 0.1, -0.3)) jet":
               dipole_flow(-0.37, ReducedPoint(0.2, 0.1, -0.3))}

    def upper(h):
        return h[0][0], h[0][1], h[0][2], h[1][1], h[1][2], h[2][2]

    got = {
        "log(x+r) gradient": [log_xr.gradient_at(p).as_tuple()
                              for p in MERGED_POINTS],
        "log(x+r) hessian": [log_xr.hessian_at(p) for p in MERGED_POINTS],
        "source jet": [tuple(c for q in source.jet_at(p) for c in q.as_tuple())
                       for p in MERGED_POINTS],
        "cylinder vortex f": [vortex.f(complex(p.x, p.y))
                              for p in MERGED_POINTS],
        "cylinder vortex df": [vortex.df(complex(p.x, p.y))
                               for p in MERGED_POINTS],
    }
    for key, pot in dipoles.items():
        got[key] = [tuple(c for q in pot.jet_at(p) for c in q.as_tuple())
                    for p in MERGED_POINTS]
    for name in ("1/r", "x/r^3"):
        u = catalog[name]
        got[f"{name} gradient"] = [u.gradient_at(p).as_tuple()
                                   for p in MERGED_POINTS]
        got[f"{name} hessian upper"] = [upper(u.hessian_at(p))
                                        for p in MERGED_POINTS]
    assert got == MERGED_VALUES
    for values in got.values():
        assert all(type(c) in (float, complex)
                   for value in values for c in _flat(value))


# ----------------------------------------------------------------------
# stream functions and the gauge field as column forms
# ----------------------------------------------------------------------

def test_stream_functions_keep_the_bits_of_their_point_lambdas():
    rng = random.Random(26)
    u1, u2, u3 = (rng.uniform(-2.0, 2.0) for _ in range(3))
    sf = geometric_stream_functions(VelocityField.constant(u1, u2, u3))
    # the point lambdas the stream functions were written as before
    forms = {
        "psi1": (lambda p: 0.5 * (u1 * p.y - u2 * p.x),
                 (-0.5 * u2, 0.5 * u1, 0.0)),
        "psi2": (lambda p: 0.5 * (u1 * p.z - u3 * p.x),
                 (-0.5 * u3, 0.0, 0.5 * u1)),
        "psi3": (lambda p: 0.5 * (u3 * p.y - u2 * p.z),
                 (0.0, 0.5 * u3, -0.5 * u2)),
    }
    points = ball_points(26, 50, radius=2.0)
    xyz = np.array([p.as_tuple() for p in points])
    for psi in sf[:3]:
        value, gradient = forms[psi.name]
        assert psi._domain is None and psi._domain_array is None
        for p in points:
            assert psi(p).hex() == value(p).hex(), (psi.name, p)
            g = psi.gradient_at(p)
            assert isinstance(g, ReducedPoint)
            assert [c.hex() for c in g.as_tuple()] == \
                [c.hex() for c in gradient], psi.name
            assert psi.hessian_at(p) == ((0.0,) * 3,) * 3
            assert psi.laplacian_at(p) == 0.0
        # the array form rounds as the point form does
        assert psi._value_array is not None
        assert psi.value_array(xyz).tobytes() == \
            np.array([value(p) for p in points]).tobytes(), psi.name


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("case", ["random", "zero", "signed-zero"])
def test_stream_functions_are_the_vector_part_of_the_uniform_flow(case):
    rng = random.Random(31)
    u = [rng.uniform(-2.0, 2.0) for _ in range(3)]
    if case == "zero":
        u[1] = 0.0
    elif case == "signed-zero":
        u[0], u[2] = -0.0, 0.0
    sf = geometric_stream_functions(VelocityField.constant(*u))
    pot = uniform_flow(*u)
    points = ball_points(31, 40, radius=2.0) + [ReducedPoint(0.0, -0.0, 0.0)]
    xyz = np.random.default_rng(31).uniform(-2.0, 2.0, (60, 3))
    values = pot.value_array(xyz)
    for k, psi in enumerate(sf[:3], start=1):
        assert psi.name == f"psi{k}"
        for p in points:
            jet = pot.jet_at(p)
            assert _bits([psi(p)]) == _bits([jet.value.as_tuple()[k]]), p
            assert _bits(psi.gradient_at(p).as_tuple()) == _bits(
                [d.as_tuple()[k] for d in (jet.dx, jet.dy, jet.dz)]), p
        assert psi.value_array(xyz).tobytes() == \
            np.ascontiguousarray(values[:, k]).tobytes(), psi.name


def test_the_gauge_field_has_an_array_jet_equal_to_its_scalar_jet():
    h = vector_gauge_field()
    assert h.has_array_jet and h.name == "xj+yk"
    points = ball_points(27, 40, radius=2.0)
    table = h.jet_array(np.array([p.as_tuple() for p in points]))
    assert table.shape == (4, len(points), 4)
    for k, p in enumerate(points):
        jet = h.jet_at(p)
        # the jet written by hand before it became a closed form
        expected = (Quaternion(0.0, 0.0, p.x, p.y),
                    Quaternion(0.0, 0.0, 1.0, 0.0),
                    Quaternion(0.0, 0.0, 0.0, 1.0), Quaternion())
        rows = [q.as_tuple() for q in jet]
        assert np.array(rows).tobytes() == \
            np.array([q.as_tuple() for q in expected]).tobytes(), p
        assert table[:, k].tobytes() == np.array(rows).tobytes(), p
        assert h(p) == jet.value


def test_a_gauge_transformed_closed_form_keeps_one_array_jet():
    pot = gauge_transform(sphere_flow(1.0, 1.0), vector_gauge_field())
    field = pot.field
    # uniform + dipole + gauge: three closed forms written into one table
    assert field.has_array_jet and len(field._writers) == 3
    # the same field evaluated node by node through its scalar jet
    rows = FlowPotential(QuaternionField(field._evaluate, jet=field._jet,
                                         domain=field._domain,
                                         name=field.name))
    body = sphere_body(1.5)
    fast = all_force_methods(pot, body, order=32)
    slow = all_force_methods(rows, body, order=32)
    assert fast.results.keys() == slow.results.keys()
    assert dict(fast.gated) == dict(slow.gated)
    for name, result in fast.results.items():
        assert (result.force - slow.results[name].force).norm() <= 1e-13


def test_an_embedded_potential_of_numbers_only_raises_type_error():
    # cmath.exp takes one complex number: every node passes one by one,
    # so the array call's TypeError is the one raised
    pot = embedded_potential(cmath.exp, cmath.exp)
    p = ReducedPoint(0.3, -0.2, 0.1)
    assert pot.jet_at(p).value == Quaternion(cmath.exp(0.3 - 0.2j).real,
                                             cmath.exp(0.3 - 0.2j).imag)
    with pytest.raises(TypeError):
        force_blasius(pot, sphere_body(1.0), order=8)
