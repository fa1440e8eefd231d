"""Acceptance battery: one test per required property, at its tolerance.

Each test is a single pass/fail line under ``pytest -v``.  Expected
numbers come either from hand derivations frozen in the comments or from
the classical formulas they restate.
"""

import json
import math
import random

from quatflow import (
    Quaternion,
    QuaternionField,
    ReducedPoint,
    all_force_methods,
    apply_D,
    box_body,
    cauchy_reconstruct,
    cylinder_body,
    force_blasius,
    force_components_sc,
    force_pressure_direct,
    harmonic_catalog,
    integrate_scalar_dsigma,
    moment_quadratic,
    monogenic_completion,
    blasius_force_2d,
    blasius_moment_2d,
    cylinder_vortex_2d,
    identity_flow,
    scalar_dbar_field,
    scenario_catalog,
    sphere_body,
    vanishing_force_cases,
    vanishing_integral_cases,
    verify_cauchy_theorem,
    verify_stokes,
    PlanarContour,
    saddle_flow,
    uniform_flow,
)
from quatflow.fields import Jet


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


def coordinate_field():
    def value(p):
        return Quaternion(p.x, p.y, p.z, 0.0)

    return QuaternionField(
        value,
        jet=lambda p: Jet(value(p), Quaternion(1.0), Quaternion(0.0, 1.0),
                          Quaternion(0.0, 0.0, 1.0)),
        name="coordinate")


def test_01_algebra_laws_hold_on_random_triples():
    rng = random.Random(1234)
    for _ in range(10_000):
        p = Quaternion(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = Quaternion(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = Quaternion(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2), rng.uniform(-2, 2))
        assoc = ((p * q) * r - p * (q * r)).norm()
        assert assoc <= 1e-12 * max(1.0, (p * q * r).norm())
        anti = ((p * q).conjugate() - q.conjugate() * p.conjugate()).norm()
        assert anti <= 1e-12 * max(1.0, (p * q).norm())
        assert math.isclose((p * q).norm(), p.norm() * q.norm(),
                            rel_tol=1e-12, abs_tol=1e-300)


def test_02_operator_composition_annihilates_harmonics():
    catalog = harmonic_catalog()
    points = ball_points(2718, 100)
    # Second differences with a fixed 1e-5 step cannot resolve the
    # singular entries arbitrarily close to their poles, so the FD half
    # runs on the six polynomial fields; the analytic half covers all.
    fd_names = ("x", "xy", "x^2-y^2", "1+x+yz", "xyz", "x^3-3xy^2")
    assert len(fd_names) >= 6
    for name, u in catalog.items():
        analytic = scalar_dbar_field(u)
        for p in points:
            if not u.in_domain(p):
                continue
            lap = Quaternion(u.laplacian_at(p))
            assert (apply_D(analytic, p) - lap).norm() <= 1e-10, name
    for name in fd_names:
        u = catalog[name]
        fd = scalar_dbar_field(u).without_analytic_jet()
        for p in points:
            lap = Quaternion(u.laplacian_at(p))
            assert (apply_D(fd, p) - lap).norm() <= 1e-5, name
    coord = coordinate_field()
    for p in points[:10]:
        assert (apply_D(coord, p) - Quaternion(-1.0)).norm() <= 1e-12


def test_03_completion_extends_harmonics_monogenically():
    catalog = harmonic_catalog()
    points = ball_points(31415, 100)
    for name in ("x", "x^2-y^2", "xy", "1+x+yz"):
        u = catalog[name]
        built = monogenic_completion(u)
        for p in points:
            assert apply_D(built.field, p).norm() <= 1e-6, name
            assert abs(built(p).q0 - u(p)) <= 1e-10, name
    closed = identity_flow()
    built_x = monogenic_completion(catalog["x"])
    for p in points:
        assert (built_x(p) - closed(p)).norm() <= 1e-10


def test_04_integral_theorems_on_cube_ball_and_builders():
    coord = coordinate_field()
    cube = box_body((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    report = verify_stokes(cube, None, coord, order=12, tol=1e-7)
    assert report.ok
    # Volume side of the cube pair integrates -1 over the unit cube.
    assert (report.lhs - Quaternion(-1.0)).norm() <= 1e-7
    ball = sphere_body(1.0)
    report = verify_stokes(ball, coord, coord, order=12, tol=1e-7)
    assert report.ok
    report = verify_stokes(cube, coord, coord, order=12, tol=1e-7)
    assert report.ok

    f = saddle_flow().field
    point = ReducedPoint(0.2, 0.1, -0.1)
    rebuilt = cauchy_reconstruct(ball.surface, f, point, order=48)
    assert (rebuilt - f(point)).norm() <= 1e-6

    for name, potential, body in vanishing_integral_cases():
        assert verify_cauchy_theorem(body, potential.field, order=16,
                                     tol=1e-6).ok, name

    for body in (ball, cube, cylinder_body(1.0, -0.5, 0.5)):
        closed_form = integrate_scalar_dsigma(body.surface,
                                              lambda p: 1.0, 12)
        assert closed_form.norm() <= 1e-10, body.name


def test_05_sphere_in_uniform_stream_feels_no_load():
    sc = scenario_catalog()["sphere-stream"]
    for route in (force_pressure_direct, force_blasius, force_components_sc):
        f = route(sc.potential, sc.body, rho=sc.rho, order=32).force
        assert f.norm() <= 1e-6, route.__name__
    m = moment_quadratic(sc.potential, sc.body, ReducedPoint(0, 0, 0),
                         rho=sc.rho, order=32).moment
    assert m.norm() <= 1e-6


def test_06_circulating_cylinder_lift_reduces_to_plane():
    gamma = 2.0 * math.pi
    pot2d = cylinder_vortex_2d(1.0, 1.0, gamma)
    circle = PlanarContour.circle(1.0)
    f2 = blasius_force_2d(pot2d, circle, rho=1.0)
    # Lift magnitude rho U Gamma = 2 pi, pointing in -y for positive
    # circulation; the sign was pinned by the residue of (f')^2.
    assert abs(f2.real) <= 1e-8
    assert abs(abs(f2.imag) - gamma) <= 1e-8
    assert abs(f2 - complex(0.0, -6.283185307179586)) <= 1e-8

    from quatflow import embed_2d

    pot3d = embed_2d(pot2d)
    per_height = []
    for h in (0.5, 1.0, 2.0):
        body = cylinder_body(1.0, -h, h)
        f3 = force_blasius(pot3d, body, order=16).force / (2.0 * h)
        per_height.append(f3)
        gap = math.hypot(f3.x - f2.real, f3.y - f2.imag, f3.z)
        assert gap <= 1e-4 * abs(f2)
    for v in per_height[1:]:
        assert (v - per_height[0]).norm() <= 1e-6


def test_07_cylinder_moment_reduces_to_plane():
    gamma = 2.0 * math.pi
    pot2d = cylinder_vortex_2d(1.0, 1.0, gamma)
    circle = PlanarContour.circle(1.0)
    from quatflow import embed_2d, moment_reference_shift

    pot3d = embed_2d(pot2d)
    for h in (0.5, 1.0):
        body = cylinder_body(1.0, -h, h)
        axis = moment_quadratic(pot3d, body, ReducedPoint(0, 0, 0),
                                order=16)
        assert axis.moment.norm() / (2.0 * h) <= 1e-6
        about = ReducedPoint(0.3, 0.0, 0.0)
        offset = moment_quadratic(pot3d, body, about, order=16)
        m2 = blasius_moment_2d(pot2d, circle, about=0.3 + 0j)
        # Oracle certified symbolically ahead of the build:
        # moment about x0 = rho U Gamma x0 = 0.6 pi.
        assert abs(m2 - 1.8849555921538759) <= 1e-9
        assert abs(offset.moment.z / (2.0 * h) - m2) <= 1e-5 * abs(m2)
        force = force_blasius(pot3d, body, order=16)
        shifted = moment_reference_shift(axis, force, about)
        assert (shifted.moment - offset.moment).norm() <= 1e-6


def test_08_no_load_without_enclosed_singularities():
    for sc in vanishing_force_cases():
        f = force_blasius(sc.potential, sc.body, rho=sc.rho, order=16).force
        assert f.norm() <= 1e-6, sc.name
        m = moment_quadratic(sc.potential, sc.body, sc.body.interior_point,
                             rho=sc.rho, order=16).moment
        assert m.norm() <= 1e-6, sc.name


def test_09_force_routes_agree_on_every_scenario():
    for name, sc in scenario_catalog().items():
        comparison = all_force_methods(sc.potential, sc.body, rho=sc.rho,
                                       order=16)
        blasius = comparison.results["blasius"].force
        components = comparison.results["components-sc"].force
        for a, b in zip(components.as_tuple(), blasius.as_tuple()):
            assert abs(a - b) <= 1e-10, name
        if "monogenic-form" in comparison.results:
            mono = comparison.results["monogenic-form"].force
            assert (mono - blasius).norm() <= 1e-6, name
        else:
            assert "monogenic-form" in comparison.gated, name


def test_10_cli_reports_are_thread_deterministic(cli_thread_runs):
    # one fresh interpreter per thread count, each running every argv
    for argv, runs in cli_thread_runs.items():
        for threads, (code, stdout, stderr) in runs.items():
            assert code == 0, (argv[0], threads, stderr)
            assert json.loads(stdout)["status"] == "pass", argv[0]
        outputs = [stdout for _, stdout, _ in runs.values()]
        assert outputs[0] == outputs[1] == outputs[2], argv[0]
