"""The array path: chart node arrays, array jets and the batched routes.

Reference values for the routes were computed by the node-by-node
implementation (one Quaternion jet per node and route) at order 12; the
array routes must reproduce them to 1e-12 relative, with the same gate
decisions and messages.  The gate's messages, and the sphere-stream
monogenic-form force it now admits, were recorded from the array code
when the gate came to test the normal flux v.n alone.
"""

import functools
import gc
import json
import math
import pathlib
import random
import re
import weakref

import numpy as np
import pytest

from quatflow import (
    DomainError,
    FlowPotential,
    Quaternion,
    QuaternionField,
    ReducedPoint,
    ScalarField,
    StreamSurfaceError,
    all_force_methods,
    box_body,
    catalog,
    cylinder_body,
    dipole_flow,
    embedded_cylinder_flow,
    force_monogenic_form,
    force_pressure_direct,
    harmonic_catalog,
    integrate_g_dsigma_f,
    is_monogenic,
    laplacian,
    moment_from_pressure,
    moment_quadratic,
    monogenic_from_gradient,
    point_source,
    pressure_field,
    saddle_flow,
    scenario_catalog,
    scalar_dbar_field,
    sphere_body,
    sphere_flow,
    uniform_flow,
)
from quatflow import cli, fields, potentials
from quatflow.fields import FD_STEP2, _dbar_entries, _fd_stencil
from quatflow.planar import cylinder_vortex_2d, embed_2d

ORDER = 12
ABOUT = ReducedPoint(0.3, -0.2, 0.1)

PARENT_VALUES = {
    'control-box-uniform': {
        "forces": {
            'blasius': (0.0, 0.0, 0.0),
            'components-sc': (0.0, 0.0, 0.0),
            'pressure': (0.0, 0.0, 0.0),
        },
        "gated": {'monogenic-form': "monogenic force form refused: v.n = 8.000e-01 (tolerance 2.0e-08) at (0.7, -0.4907803171233596, -0.39124130126719164) on chart 'face+x'"},
        'moment_quadratic': (0.0, 0.0, 0.0),
        'moment_pressure': (0.0, 0.0, 0.0),
    },
    'control-cylinder-uniform': {
        "forces": {
            'blasius': (2.5792627582343908e-15, 2.9690368273747186e-16, 0.0),
            'components-sc': (2.5792627582343908e-15, 2.9690368273747186e-16, 0.0),
            'pressure': (2.5792627582343908e-15, 2.9690368273747186e-16, 0.0),
        },
        "gated": {'monogenic-form': "monogenic force form refused: v.n = 7.954e-01 (tolerance 2.0e-08) at (0.9998856980877064, 0.015119218222510979, -0.4907803171233596) on chart 'cylinder_side'"},
        'moment_quadratic': (5.551115123125783e-17, -1.6653345369377348e-16, -2.5039649173552725e-16),
        'moment_pressure': (5.551115123125783e-17, -1.6653345369377348e-16, -2.5039649173552725e-16),
    },
    'control-sphere-uniform': {
        "forces": {
            'blasius': (3.431825136568367e-15, 2.1841888039430928e-16, -3.209238430557093e-17),
            'components-sc': (3.431825136568367e-15, 2.1841888039430928e-16, -3.209238430557093e-17),
            'pressure': (3.431825136568367e-15, 2.1841888039430928e-16, -3.209238430557093e-17),
        },
        "gated": {'monogenic-form': "monogenic force form refused: v.n = 1.911e-01 (tolerance 2.0e-08) at (0.19112919421982594, 0.002890054334839337, -0.9815606342467192) on chart 'sphere'"},
        'moment_quadratic': (2.4259023609363162e-17, 4.700016417724662e-17, -6.53740028690869e-16),
        'moment_pressure': (2.4259023609363162e-17, 4.700016417724662e-17, -6.53740028690869e-16),
    },
    'cylinder-uniform': {
        "forces": {
            'blasius': (-1.0877210120461948e-15, 2.8886581404251955e-16, 0.0),
            'components-sc': (-1.0877210120461948e-15, 2.8886581404251955e-16, 0.0),
            'monogenic-form': (-1.180230191836606e-15, 6.846681174067828e-16, -0.0),
            'pressure': (-1.0877210120461948e-15, 2.8886581404251955e-16, 0.0),
        },
        "gated": {},
        'moment_quadratic': (0.0, 0.0, -8.642049520731052e-17),
        'moment_pressure': (0.0, 0.0, -8.642049520731052e-17),
    },
    'cylinder-vortex': {
        "forces": {
            'blasius': (4.3942714050837495e-16, -6.283185307179579, 0.0),
            'components-sc': (4.3942714050837495e-16, -6.283185307179579, 0.0),
            'monogenic-form': (9.794682426234047e-16, -6.283185307179581, -0.0),
            'pressure': (4.3942714050837495e-16, -6.283185307179579, 0.0),
        },
        "gated": {},
        'moment_quadratic': (-0.6283185307183885, 0.0, 1.884955592153873),
        'moment_pressure': (-0.6283185307183885, 0.0, 1.884955592153873),
    },
    'sphere-stream': {
        "forces": {
            'blasius': (1.2648844645302137e-15, 4.711485243830485e-16, -3.8077180297690916e-16),
            'components-sc': (1.2648844645302137e-15, 4.711485243830485e-16, -3.8077180297690916e-16),
            'monogenic-form': (1.1560847765212934e-15, 4.401547418100664e-16, -4.597017211338539e-17),
            'pressure': (1.2282384311002037e-15, 3.540682422817701e-16, -3.885780586188048e-16),
        },
        "gated": {},
        'moment_quadratic': (2.6400322900022033e-17, -1.3665284182007298e-15, -4.362287440995427e-16),
        'moment_pressure': (3.832654679736258e-17, -1.3268466186877603e-15, -3.702821469581119e-16),
    },
    'user-embedded-vortex': {
        "forces": {
            'blasius': (5.712552826608875e-16, -8.168140899333453, 0.0),
            'components-sc': (5.712552826608875e-16, -8.168140899333453, 0.0),
            'monogenic-form': (1.2733087154104262e-15, -8.168140899333455, -0.0),
            'pressure': (-1.9992688060632702e-16, -8.168140899333453, 0.0),
        },
        "gated": {},
        'moment_quadratic': (-0.816814089933905, 0.0, 2.450442269800035),
        'moment_pressure': (-0.8168140899324499, 0.0, 2.4504422698000368),
    },
    'user-fd-uniform': {
        "forces": {
            'blasius': (-1.1582956815914258e-12, 1.3244960683778118e-13, -1.918354364249808e-12),
            'components-sc': (-1.1582956815914258e-12, 1.3244960683778118e-13, -1.918354364249808e-12),
            'pressure': (-2.3184787423247144e-12, -1.2079226507921703e-13, -1.6237011735142914e-12),
        },
        "gated": {'monogenic-form': "monogenic force form refused: v.n = 8.000e-01 (tolerance 2.0e-08) at (0.7, -0.4907803171233596, -0.39124130126719164) on chart 'face+x'"},
        'moment_quadratic': (-3.5216274341109965e-13, -4.698186284457506e-13, 3.5743630277806915e-13),
        'moment_pressure': (-2.771394225220547e-13, -4.827804822582493e-13, 7.573663918236662e-13),
    },
}


# embed_2d's array jet reproduces the values of its per-node fallback
PARENT_VALUES["embedded-vortex"] = PARENT_VALUES["user-embedded-vortex"]


def array_fields():
    """Every catalog potential plus a sum, a multiple and a conjugate, and
    Dbar u of two harmonic scalars."""
    fields = {name: pot.field for name, pot in catalog().items()}
    fields["sum"] = (uniform_flow(0.2, 0.1, -0.3)
                     + point_source(0.7, ReducedPoint(0.1, 0.2, 0.0))).field
    fields["multiple"] = 2.5 * catalog()["dipole"].field
    fields["conjugate"] = catalog()["embedded_cylinder_vortex"].field.conjugated()
    fields["dbar"] = scalar_dbar_field(harmonic_catalog()["x/r^3"])
    fields["from-gradient"] = monogenic_from_gradient(
        harmonic_catalog()["log(x+r)"]).field
    return fields


def sample_points():
    rng = random.Random(20250803)
    seeded = [ReducedPoint(rng.uniform(-2, 2), rng.uniform(-2, 2),
                           rng.uniform(-2, 2)) for _ in range(200)]
    nodes = [p for body in (sphere_body(1.0),
                            box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
                            cylinder_body(1.0, -0.5, 0.5))
             for cn in body.surface.quadrature(8) for p in cn.points]
    # the poles, the sources' cut rays along -x and points just off them
    edges = [ReducedPoint(0.0, 0.0, 0.0), ReducedPoint(-1.0, 0.0, 0.0),
             ReducedPoint(-0.5, 0.0, 5e-9), ReducedPoint(-0.5, 0.0, 2e-8),
             ReducedPoint(0.5, 0.0, 0.0), ReducedPoint(0.1, 0.2, 0.0),
             ReducedPoint(-1.0, 0.2, 0.0)]
    return seeded + nodes + edges


def close(a, b, rel):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= rel * max(1.0, float(np.max(np.abs(b)))))


# Fields whose closed forms use only + - * / and sqrt, so that the float
# and the numpy evaluation round alike: their array values, and for the
# first four their array jets, equal the scalar ones exactly.  The Dbar u
# fields fill their arrays from u's scalar gradient and Hessian, so both
# of their array forms are exact.
EXACT_JETS = {"uniform_x", "uniform_skew", "identity", "saddle", "dbar",
              "from-gradient"}
EXACT_VALUES = EXACT_JETS | {"source", "sum"}


@pytest.mark.parametrize("name", sorted(array_fields()))
def test_array_jet_matches_scalar_jet(name, monkeypatch):
    partials_calls = []
    closed_form = potentials._closed_form

    def counting_closed_form(value, partials, *args, **kwargs):
        def counted(*columns):
            partials_calls.append(columns)
            return partials(*columns)
        return closed_form(value, counted, *args, **kwargs)

    monkeypatch.setattr(potentials, "_closed_form", counting_closed_form)
    init = ScalarField.__init__

    def counting_init(u, *args, hessian=None, **kwargs):
        # the partials of Dbar u are u's Hessian: count the callable itself,
        # whichever ScalarField method or unchecked body calls it
        if hessian is not None:
            def counted(p, hessian=hessian):
                partials_calls.append(p)
                return hessian(p)
            hessian = counted
        init(u, *args, hessian=hessian, **kwargs)

    monkeypatch.setattr(ScalarField, "__init__", counting_init)
    field = array_fields()[name]
    assert field.has_array_jet
    points = sample_points()
    xyz = np.array([p.as_tuple() for p in points])
    inside = field.in_domain_array(xyz)
    assert inside.tolist() == [field.in_domain(p) for p in points]
    kept = [p for p, ok in zip(points, inside) if ok]
    assert len(kept) > 0.9 * len(points)
    values = field.value_array(xyz[inside])
    assert partials_calls == []
    assert values.shape == (len(kept), 4)
    table = field.jet_array(xyz[inside])
    assert partials_calls
    assert table.shape == (4, len(kept), 4)
    for k, p in enumerate(kept):
        ref = [q.as_tuple() for q in field.jet_at(p)]
        assert close(table[:, k, :], ref, 1e-13), (name, p)
        if name in EXACT_JETS:
            assert table[:, k, :].tolist() == list(map(list, ref)), (name, p)
        if name in EXACT_VALUES:
            assert values[k].tolist() == list(field(p).as_tuple()), (name, p)
        else:
            assert close(values[k], field(p).as_tuple(), 1e-13), (name, p)


@pytest.mark.parametrize("kind", ["dipole", "source"])
def test_fused_column_jet_equals_the_separate_forms(kind, monkeypatch):
    center = ReducedPoint(0.1, -0.2, 0.3)
    if kind == "dipole":
        scalar = fields._inv_r(-0.7, center)
        make = functools.partial(dipole_flow, 0.7, center)
    else:
        scalar = fields._log_x_plus_r(-0.9 / (4.0 * math.pi), center)
        make = functools.partial(point_source, 0.9, center)
    _, prelude, gradient, hessian, _ = scalar
    rng = np.random.default_rng(20251019)
    units = rng.normal(size=(40, 3))
    units /= np.linalg.norm(units, axis=1)[:, None]
    units[:, 0] = np.abs(units[:, 0])   # off the cut ray
    angles = rng.uniform(0.0, 2.0 * math.pi, 40)
    # seeded points, points just outside the excluded ball about the
    # centre, and points just off the source's cut ray from it along -x
    xyz = np.array(center.as_tuple()) + np.concatenate((
        rng.uniform(-2.0, 2.0, (200, 3)), 3e-8 * units,
        np.column_stack((-rng.uniform(0.1, 2.0, 40), 3e-8 * np.cos(angles),
                         3e-8 * np.sin(angles)))))

    preludes = []
    closed_form = potentials._closed_form

    def counting_closed_form(*args, prelude, **kwargs):
        def counted(*columns):
            preludes.append(columns)
            return prelude(*columns)
        return closed_form(*args, prelude=counted, **kwargs)

    monkeypatch.setattr(potentials, "_closed_form", counting_closed_form)
    field = make().field
    assert field.in_domain_array(xyz).all()
    table = field.jet_array(xyz)
    assert len(preludes) == 1   # shared by the value and the partials
    x, y, z = xyz.T
    expected = np.empty((16, len(xyz)))
    entries = (_dbar_entries(gradient(*prelude(x, y, z, np)))
               + _dbar_entries(h=hessian(*prelude(x, y, z, np))))
    for row, entry in zip(expected, entries):
        row[...] = entry
    assert table.transpose(0, 2, 1).tobytes() == expected.tobytes()
    assert field.value_array(xyz).tobytes() == expected[:4].T.tobytes()


def stencil_laplacian(field, p):
    """The finite-difference Laplacian with one call of the field a point:
    p, then x+, x-, y+, y-, z+, z-; the error text if a call raises."""
    try:
        field._check(p)
        c = field(p)
        total = Quaternion()
        for h, plus, minus in _fd_stencil(field, p, FD_STEP2):
            total = total + (plus - c * 2.0 + minus) / (h * h)
    except DomainError as error:
        return str(error)
    return repr(total.as_tuple())


@pytest.mark.parametrize("name", sorted(EXACT_VALUES))
def test_the_laplacian_reads_its_stencil_in_one_value_array_call(name):
    field = array_fields()[name]
    value_array = field.value_array
    calls = []

    def counted(xyz):
        calls.append(len(xyz))
        return value_array(xyz)

    field.value_array = counted
    points = sample_points()
    for p in points[:20] + points[-7:]:
        calls.clear()
        try:
            got = repr(laplacian(field, p).as_tuple())
        except DomainError as error:
            got = str(error)
        assert calls == [7]
        assert got == stencil_laplacian(field, p), (name, p)


@pytest.mark.parametrize("name", sorted(harmonic_catalog()))
def test_catalog_scalar_array_forms_match_the_point_forms(name):
    u = harmonic_catalog()[name]
    points = sample_points()
    xyz = np.array([p.as_tuple() for p in points])
    inside = u.in_domain_array(xyz)
    assert inside.tolist() == [u.in_domain(p) for p in points]
    want = [u(p) for p, ok in zip(points, inside) if ok]
    got = u.value_array(xyz[inside]).tolist()
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), (name, k, a, b)


def test_array_domain_error_names_the_first_node_on_the_cut_ray():
    # The odd-order face -x has its centre node on the source's cut ray.
    pot = point_source(1.0)
    body = box_body((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))
    where = "is not defined at ReducedPoint(-0.5, 0.0, 0.0)"
    calls = (
        lambda: all_force_methods(pot, body, order=5),
        lambda: moment_quadratic(pot, body, ABOUT, order=5),
        lambda: moment_from_pressure(pressure_field(pot), body, ABOUT,
                                     order=5),
        lambda: force_monogenic_form(pot, body, order=5),
        lambda: integrate_g_dsigma_f(body.surface, None, pot, 5),
    )
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(where)):
            call()
    # the pressure route integrates pressure_field, whose error is its own
    for call in (calls[2], lambda: force_pressure_direct(pot, body, order=5)):
        with pytest.raises(DomainError, match=re.escape(
                "field pressure(source(1.0)) " + where)):
            call()


def route_cases():
    cases = {name: (sc.potential, sc.body, sc.rho)
             for name, sc in scenario_catalog().items()}
    vortex = embed_2d(cylinder_vortex_2d(1.0, 1.0, 2.0 * math.pi))
    cases["embedded-vortex"] = (vortex, cylinder_body(1.0, -0.5, 0.5), 1.3)
    # the same field without its array forms: the per-node fallback
    cases["user-embedded-vortex"] = (FlowPotential(scalar_only(vortex.field)),
                                     cylinder_body(1.0, -0.5, 0.5), 1.3)
    cases["user-fd-uniform"] = (
        FlowPotential(uniform_flow(0.8, -0.3, 0.5).field
                      .without_analytic_jet()),
        box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)), 1.0)
    return cases


_NUMBER = re.compile(r"[-+]?\d+\.\d+(?:e[-+]\d+)?")


@pytest.mark.parametrize("name", sorted(PARENT_VALUES))
def test_routes_reproduce_the_node_by_node_values(name):
    pot, body, rho = route_cases()[name]
    assert pot.field.has_array_jet == (not name.startswith("user-"))
    want = PARENT_VALUES[name]
    comparison = all_force_methods(pot, body, rho=rho, order=ORDER)
    assert set(comparison.results) == set(want["forces"])
    for route, force in want["forces"].items():
        got = comparison.results[route].force.as_tuple()
        assert close(got, force, 1e-12), (name, route, got, force)
    assert set(comparison.gated) == set(want["gated"])
    for route, message in want["gated"].items():
        got = comparison.gated[route]
        assert _NUMBER.sub("#", got) == _NUMBER.sub("#", message)
        assert close([float(x) for x in _NUMBER.findall(got)],
                     [float(x) for x in _NUMBER.findall(message)], 1e-9)
    mq = moment_quadratic(pot, body, ABOUT, rho=rho, order=ORDER).moment
    mp = moment_from_pressure(pressure_field(pot, rho=rho), body, ABOUT,
                              order=ORDER).moment
    assert close(mq.as_tuple(), want["moment_quadratic"], 1e-12)
    assert close(mp.as_tuple(), want["moment_pressure"], 1e-12)


# ----------------------------------------------------------------------
# the forces-warm benchmark's potential kinds, pinned to the last bit
# ----------------------------------------------------------------------

PIN_FILE = pathlib.Path(__file__).with_name("forces_warm_pins.json")
PIN_KINDS = ("uniform+source", "uniform+dipole", "sphere", "vortex", "saddle")
PIN_ORDERS = (32, 48)


@functools.lru_cache(maxsize=None)
def pin_bodies():
    return {"sphere": sphere_body(1.0),
            "box": box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
            "cylinder": cylinder_body(1.0, -0.5, 0.5)}


def _inner_center(rng, nodes, source):
    """A seeded point of [-0.3, 0.3]^3 at least 0.2 from every node; for a
    source, its cut ray along -x also passes at least 0.02 from them."""
    while True:
        c = np.array([rng.uniform(-0.3, 0.3) for _ in range(3)])
        rel = nodes - c
        dist = np.sqrt(np.sum(rel * rel, axis=1))
        ray = np.where(rel[:, 0] <= 0.0, np.hypot(rel[:, 1], rel[:, 2]), dist)
        if dist.min() >= 0.2 and (not source or ray.min() >= 0.02):
            return ReducedPoint(*c.tolist())


def pin_case(body_name, kind, order):
    """The seeded potential, body, rho and moment point of one pinned case."""
    rng = random.Random(f"{body_name}/{kind}/{order}")
    body = pin_bodies()[body_name]
    nodes = np.concatenate([cn.point_array
                            for cn in body.surface.quadrature(order)])
    rho = rng.uniform(0.8, 1.25)
    about = ReducedPoint(*(rng.uniform(-0.3, 0.3) for _ in range(3)))
    if kind.startswith("uniform+"):
        speed = rng.uniform(0.5, 1.5)
        direction = np.array([rng.uniform(-1.0, 1.0) for _ in range(3)])
        stream = speed * direction / np.linalg.norm(direction)
        pot = uniform_flow(*stream.tolist())
        sign = rng.choice((-1.0, 1.0))
        center = _inner_center(rng, nodes, kind == "uniform+source")
        if kind == "uniform+source":
            pot = pot + point_source(sign * rng.uniform(0.5, 1.5), center)
        else:
            pot = pot + dipole_flow(sign * rng.uniform(0.3, 1.0), center)
    elif kind == "sphere":
        radius = 1.0 if body_name == "sphere" else rng.uniform(0.3, 0.6)
        pot = sphere_flow(rng.uniform(0.5, 1.5), radius)
    elif kind == "vortex":
        pot = embedded_cylinder_flow(rng.uniform(0.5, 1.5), 1.0,
                                     rng.uniform(-2.0 * math.pi,
                                                 2.0 * math.pi))
    else:
        pot = saddle_flow()
    return pot, body, rho, about


def pin_results(body_name, kind, order):
    """Every route force, gate text, their largest gap and both moments."""
    pot, body, rho, about = pin_case(body_name, kind, order)
    comparison = all_force_methods(pot, body, rho=rho, order=order)
    mq = moment_quadratic(pot, body, about, rho=rho, order=order)
    mp = moment_from_pressure(pressure_field(pot, rho=rho), body, about,
                              order=order)
    return {"forces": {route: list(r.force.as_tuple())
                       for route, r in sorted(comparison.results.items())},
            "gated": dict(sorted(comparison.gated.items())),
            "max_disagreement": comparison.max_disagreement,
            "moment_quadratic": list(mq.moment.as_tuple()),
            "moment_pressure": list(mp.moment.as_tuple())}


def _hex(value):
    """Floats as float.hex, which tells -0.0 from 0.0; other values as is."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex(v) for v in value]
    return value


@pytest.mark.parametrize("case", [f"{body}/{kind}/{order}"
                                  for body in ("sphere", "box", "cylinder")
                                  for kind in PIN_KINDS
                                  for order in PIN_ORDERS])
def test_forces_warm_kinds_reproduce_their_pinned_bits(case):
    """Values recorded from the code whose jet tables were row-major
    (quaternion components contiguous); the layout must not move a bit."""
    want = json.loads(PIN_FILE.read_text())[case]
    body_name, kind, order = case.split("/")
    assert _hex(pin_results(body_name, kind, int(order))) == _hex(want)


def scalar_only(field):
    """The same field without its array forms."""
    return QuaternionField(field._evaluate, jet=field._jet,
                           domain=field._domain, name=field.name)


def test_array_routes_match_the_per_node_fallback():
    pot = sphere_flow(1.0, 1.0) + point_source(0.4, ReducedPoint(0.1, 0.0, 0.2))
    loop = FlowPotential(scalar_only(pot.field))
    for body in (sphere_body(1.0), cylinder_body(1.0, -0.5, 0.5)):
        a = all_force_methods(pot, body, order=8)
        b = all_force_methods(loop, body, order=8)
        for route in b.results:
            assert close(a.results[route].force.as_tuple(),
                         b.results[route].force.as_tuple(), 1e-13)
        assert a.gated == b.gated
        ma = moment_quadratic(pot, body, ABOUT, order=8).moment
        mb = moment_quadratic(loop, body, ABOUT, order=8).moment
        assert close(ma.as_tuple(), mb.as_tuple(), 1e-13)


def test_all_force_methods_evaluates_one_jet_table_per_chart(monkeypatch):
    pot = sphere_flow(1.0, 1.0)
    body = cylinder_body(1.0, -0.5, 0.5)
    field = pot.field
    tables, scalar_jets = [], []
    original = field.jet_array

    def counted(xyz):
        tables.append(len(xyz))
        return original(xyz)

    def no_scalar_jets(self, p):
        scalar_jets.append(p)
        raise AssertionError("scalar jet on the array path")

    monkeypatch.setattr(field, "jet_array", counted)
    monkeypatch.setattr(QuaternionField, "jet_at", no_scalar_jets)
    all_force_methods(pot, body, order=8)
    # one table for the whole surface: the side and both caps together
    assert tables == [body.surface.node_count(8)]
    assert scalar_jets == []


def test_non_finite_route_results_reach_max_disagreement():
    # |w Dbar|^2 overflows, so every route returns NaN components
    with np.errstate(all="ignore"):
        comparison = all_force_methods(sphere_flow(1e200, 1.0),
                                       sphere_body(1.0), order=8)
    assert any(not math.isfinite(c) for r in comparison.results.values()
               for c in r.force.as_tuple())
    assert math.isnan(comparison.max_disagreement)


def test_is_monogenic_fails_on_nan():
    nan_field = QuaternionField(lambda p: uniform_flow(1.0)(p) * math.nan)
    report = is_monogenic(nan_field, [ReducedPoint(0.1, 0.2, 0.3),
                                      ReducedPoint(0.4, 0.5, 0.6)])
    assert not report.ok
    assert math.isnan(report.max_residual)
    assert report.worst_point == ReducedPoint(0.1, 0.2, 0.3)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["force", "moment", "convergence"])
def test_cli_fails_on_non_finite_results(command, tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow", "potential": {"kind": "sphere", "speed": 1e200},
        "body": {"kind": "sphere", "radius": 1.0}}))
    code = cli.main([command, "--config", str(path), "--order", "8"])
    captured = capsys.readouterr()
    text = captured.out
    payload = strict_json(text)
    assert code == 1
    assert captured.err == ""
    assert payload["status"] == "fail"
    assert "null" in text


def test_gate_refuses_when_overflowing_jets_make_its_tolerance_inf(
        tmp_path, capsys):
    # the default tolerance scales with max |partial|, which overflows here
    with pytest.raises(StreamSurfaceError, match="not finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        force_monogenic_form(sphere_flow(1e200, 1.0), sphere_body(1.0),
                             order=8)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow", "potential": {"kind": "sphere", "speed": 1e200},
        "body": {"kind": "sphere", "radius": 1.0}}))
    assert cli.main(["force", "--config", str(path), "--order", "8"]) == 1
    payload = strict_json(capsys.readouterr().out)
    assert "monogenic-form" in payload["gated"]
    assert "monogenic-form" not in payload["results"]


@pytest.mark.parametrize("change", [
    {"rho": "nan"}, {"rho": float("inf")}, {"rho": "abc"},
    {"potential": {"kind": "sphere", "radius": "inf"}},
    {"potential": {"kind": "uniform", "components": [1.0, float("nan"), 0.0]}},
    {"body": {"kind": "box", "x": [-0.5, "-inf"]}},
    {"body": {"kind": "sphere", "center": [0.0, 0.0]}},
    {"rho": 0}, {"rho": -1.0},
])
def test_cli_rejects_non_finite_config_numbers(change, tmp_path, capsys):
    config = {"name": "bad", "potential": {"kind": "sphere"},
              "body": {"kind": "sphere", "radius": 1.0}}
    config.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    assert "quatflow:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["force", "--threads", "0"], ["force", "--threads", "-3"],
    ["verify", "--threads", "0"], ["force", "--tol", "nan"],
    ["moment", "--about", "0,inf,0"], ["force", "--tol", "-1"],
])
def test_cli_rejects_bad_numeric_arguments(argv, capsys):
    assert cli.main(argv + ["--order", "4"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# the jet tables a field remembers (QuaternionField.jet_table)
# ----------------------------------------------------------------------

def read_only(xyz):
    xyz = np.array(xyz, dtype=float)
    xyz.setflags(write=False)
    return xyz


def row_major(field):
    """The same field whose array jet returns a row-major copy of its table."""
    return QuaternionField(
        field._evaluate, jet=field._jet, domain=field._domain,
        name=field.name,
        jet_array=lambda xyz: np.ascontiguousarray(field._jet_array(xyz)))


def layout_cases():
    """Fields whose array jets equal their scalar jets exactly: a closed
    form, its lifts, a user array jet and the row-by-row fallback."""
    saddle = saddle_flow().field
    return {"closed-form": saddle,
            "sum": saddle + uniform_flow(0.8, -0.3, 0.5).field,
            "multiple": 2.5 * saddle,
            "conjugate": saddle.conjugated(),
            "user-row-major": row_major(saddle),
            "row-by-row": scalar_only(saddle)}


@pytest.mark.parametrize("name", sorted(layout_cases()))
def test_remembered_jet_tables_are_component_major(name):
    field = layout_cases()[name]
    points = sample_points()
    xyz = read_only([p.as_tuple() for p in points])
    expected = np.array([[q.as_tuple() for q in field.jet_at(p)]
                         for p in points]).transpose(1, 0, 2)
    table = field.jet_array(xyz)
    assert table.shape == (4, len(points), 4)
    assert table.tobytes() == expected.tobytes()
    # closed forms and their lifts are built component-major; any other
    # table is converted once, when jet_table remembers it
    built_so = name not in ("user-row-major", "row-by-row")
    assert table.transpose(0, 2, 1).flags.c_contiguous == built_so
    kept = field.jet_table(xyz)
    assert kept.transpose(0, 2, 1).flags.c_contiguous
    assert kept.tobytes() == expected.tobytes()
    assert field.jet_table(xyz) is kept and not kept.flags.writeable
    values = field.value_array(xyz)
    assert values.shape == (len(points), 4)
    assert values.tobytes() == expected[0].tobytes()


def test_jet_table_of_a_writable_array_follows_its_values():
    field = sphere_flow(1.0, 1.0).field
    xyz = np.array([[1.5, 0.2, -0.3], [0.4, 1.1, 0.6]])
    first = field.jet_table(xyz)
    xyz[0] = (-0.7, 1.3, 0.2)
    second = field.jet_table(xyz)
    assert np.array_equal(second, field.jet_array(xyz.copy()))
    assert not np.array_equal(first, second)
    assert field._tables == {}


def test_jet_table_of_a_read_only_view_of_writable_data_is_not_kept():
    field = sphere_flow(1.0, 1.0).field
    data = np.array([[1.5, 0.2, -0.3], [0.4, 1.1, 0.6]])
    view = data.view()
    view.setflags(write=False)
    field.jet_table(view)
    data[0] = (-0.7, 1.3, 0.2)
    assert np.array_equal(field.jet_table(view), field.jet_array(data.copy()))
    assert field._tables == {}


def test_remembered_jet_table_is_read_only_and_shared():
    field = sphere_flow(1.0, 1.0).field
    xyz = sphere_body(1.0).surface.quadrature(8)[0].point_array
    table = field.jet_table(xyz)
    assert field.jet_table(xyz) is table
    assert np.array_equal(table, field.jet_array(xyz))
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


def test_jet_table_domain_error_repeats_and_stores_nothing():
    field = point_source(1.0).field
    xyz = read_only([[0.5, 0.1, 0.0], [-0.5, 0.0, 0.0], [0.3, 0.0, 0.2]])
    texts = []
    for _ in range(2):
        with pytest.raises(DomainError) as err:
            field.jet_table(xyz)
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    assert "(-0.5, 0.0, 0.0)" in texts[0]
    assert field._tables == {}


def test_jet_tables_die_with_their_potential():
    pot = sphere_flow(1.0, 1.0)
    body = cylinder_body(1.0, -0.5, 0.5)
    all_force_methods(pot, body, order=8)
    ref = weakref.ref(pot.field.jet_table(
        body.surface.quadrature(8)[0].point_array))
    assert ref() is not None
    del pot
    gc.collect()
    assert ref() is None


def test_an_order_sweep_keeps_at_most_six_tables():
    field = sphere_flow(1.0, 1.0).field
    body = box_body((-1.0, 1.0), (-1.1, 1.0), (-1.0, 1.2))
    refs = []
    for order in range(8, 41):
        tables = [field.jet_table(cn.point_array)
                  for cn in body.surface.quadrature(order)]
        refs.append(weakref.ref(tables[0]))
        assert len(field._tables) <= 6
    del tables
    gc.collect()
    assert all(ref() is None for ref in refs[:-1])
    assert refs[-1]() is not None
    # the last order's six tables are the ones kept
    last = body.surface.quadrature(40)
    kept = [field.jet_table(cn.point_array) for cn in last]
    assert all(field.jet_table(cn.point_array) is table
               for cn, table in zip(last, kept))
    assert len(field._tables) == 6
