"""Differential operators on quaternion-valued and scalar fields."""

import math
import operator
import random
import re

import numpy as np
import pytest

from quatflow import (
    DomainError,
    Jet,
    MonogenicityReport,
    Quaternion,
    QuaternionField,
    ReducedPoint,
    ScalarField,
    apply_D,
    apply_D_right,
    apply_Dbar,
    apply_Dbar_right,
    catalog,
    dipole_flow,
    embedded_cylinder_flow,
    euler_operator,
    harmonic_catalog,
    integrate_scalar,
    is_monogenic,
    laplacian,
    moisil_theodorescu_residual,
    monogenic_completion,
    point_source,
    saddle_flow,
    scalar_dbar_field,
    sphere_body,
    velocity_from_potential,
)
from quatflow.fields import default_monogenicity_tol
from quatflow.quaternion import qconj

from test_arrays import sample_points


def random_ball_points(seed, count, radius=0.9):
    """Points in a ball, rejection-sampled for reproducibility."""
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

    def jet(p):
        return (value(p), Quaternion(1.0), Quaternion(0.0, 1.0),
                Quaternion(0.0, 0.0, 1.0))

    from quatflow.fields import Jet

    return QuaternionField(value, jet=lambda p: Jet(*jet(p)),
                           name="coordinate")


def test_D_of_coordinate_field_is_minus_one():
    f = coordinate_field()
    for p in random_ball_points(11, 20, radius=2.0):
        d = apply_D(f, p)
        assert (d - Quaternion(-1.0)).norm() <= 1e-12
    # And the conjugate operator doubles the scalar derivative instead.
    p = ReducedPoint(0.3, -0.2, 0.5)
    assert (apply_Dbar(f, p) - Quaternion(3.0)).norm() <= 1e-12


def test_catalog_has_enough_entries_and_they_are_harmonic():
    catalog = harmonic_catalog()
    assert len(catalog) >= 6
    for name, u in catalog.items():
        pts = [p for p in random_ball_points(hash(name) % 1000, 30)
               if u.in_domain(p)]
        for p in pts:
            assert abs(u.laplacian_at(p)) <= 1e-10, name


def test_DDbar_equals_laplacian_analytic_jets():
    # On harmonic fields the composition annihilates: |D(Dbar u)| <= 1e-10.
    catalog = harmonic_catalog()
    points = random_ball_points(2024, 100)
    for name, u in catalog.items():
        g = scalar_dbar_field(u)
        for p in points:
            if not u.in_domain(p):
                continue
            resid = apply_D(g, p)
            gap = resid - Quaternion(u.laplacian_at(p))
            assert gap.norm() <= 1e-10, (name, p)


def test_DDbar_equals_laplacian_fd_jets():
    catalog = harmonic_catalog()
    points = random_ball_points(7, 100)
    for name in ("x", "xy", "x^2-y^2", "1+x+yz", "xyz", "x^3-3xy^2"):
        g = scalar_dbar_field(catalog[name]).without_analytic_jet()
        for p in points:
            resid = apply_D(g, p)
            assert resid.norm() <= 1e-5, (name, p)


def test_dbar_of_scalar_is_conjugate_of_d():
    u = harmonic_catalog()["x^3-3xy^2"]
    f = u.as_quaternion_field()
    for p in random_ball_points(31, 25):
        left = apply_Dbar(f, p)
        right = apply_D(f, p).conjugate()
        assert (left - right).norm() == 0.0


def test_conjugation_swaps_operator_side():
    # conj(D f) = conj(f) Dbar, with Dbar acting from the right.
    u = harmonic_catalog()["xy"]
    g = scalar_dbar_field(u)
    for p in random_ball_points(13, 25):
        left = apply_D(g, p).conjugate()
        right = apply_Dbar_right(g.conjugated(), p)
        assert (left - right).norm() == 0.0


def test_mt_residual_matches_operator_norm():
    # The four first-order combinations are the components of D f.
    def value(p):
        return Quaternion(p.x * p.y, p.y * p.z, p.z * p.x, p.x)

    f = QuaternionField(value, name="scrambled")
    for p in random_ball_points(99, 40):
        r = moisil_theodorescu_residual(f, p)
        d = apply_D(f, p).norm()
        assert r == d


def test_mt_residual_zero_on_monogenic_field():
    g = scalar_dbar_field(harmonic_catalog()["x^2-y^2"])
    for p in random_ball_points(5, 20):
        assert moisil_theodorescu_residual(g, p) <= 1e-12


def test_catalog_dbar_fields_are_monogenic():
    catalog = harmonic_catalog()
    points = random_ball_points(321, 50)
    for name, u in catalog.items():
        g = scalar_dbar_field(u)
        pts = [p for p in points if u.in_domain(p)]
        report = is_monogenic(g, pts)
        assert report.ok, (name, report)
        assert report.max_residual <= 1e-10, name


def test_monogenicity_default_tolerances():
    g = scalar_dbar_field(harmonic_catalog()["xy"])
    pts = random_ball_points(8, 10)
    assert is_monogenic(g, pts).tol == 1e-6
    assert is_monogenic(g.without_analytic_jet(), pts).tol == 1e-4
    with pytest.raises(ValueError):
        is_monogenic(g, [])


def test_is_monogenic_flags_a_bad_field():
    def value(p):
        return Quaternion(p.x * p.x)

    report = is_monogenic(QuaternionField(value),
                          [ReducedPoint(1.0, 0.0, 0.0)])
    assert not report.ok
    assert report.max_residual > 1.0


def point_loop_report(f, points):
    """is_monogenic as the per-point loop: apply_D at each point in turn."""
    tol = default_monogenicity_tol(f)
    worst, worst_p = -1.0, points[0]
    for p in points:
        r = apply_D(f, p).norm()
        if math.isnan(r):
            return MonogenicityReport(False, r, p, tol)
        if r > worst:
            worst, worst_p = r, p
    return MonogenicityReport(worst <= tol, worst, worst_p, tol)


def counting_jets(field):
    """Count the field's jet_array and jet_at calls on this instance."""
    calls = {"jet_array": 0, "jet_at": 0}
    for name in calls:
        method = getattr(field, name)

        def counted(arg, name=name, method=method):
            calls[name] += 1
            return method(arg)
        setattr(field, name, counted)
    return calls


def completion_case(name):
    u = harmonic_catalog()[name]
    if name in ("1/r", "x/r^3", "log(x+r)"):
        center = ReducedPoint(1.6, 0.1, -0.2)
    else:
        center = ReducedPoint(0.2, -0.1, 0.3)
    offsets = ((0.3, 0.1, -0.2), (-0.35, 0.2, 0.1), (0.05, -0.4, 0.25),
               (0.2, 0.2, 0.2), (-0.1, -0.3, -0.2))
    points = [ReducedPoint(center.x + a, center.y + b, center.z + c)
              for a, b, c in offsets]
    return monogenic_completion(u, center=center).field, points


def dbar_case(name):
    field = scalar_dbar_field(harmonic_catalog()[name])
    return field, [p for p in sample_points() if field.in_domain(p)]


BATCH_CASES = [(kind, name) for kind in ("completion", "dbar")
               for name in sorted(harmonic_catalog())]


@pytest.mark.parametrize("kind,name", BATCH_CASES)
def test_is_monogenic_takes_one_batch_with_the_point_loop_report(kind, name):
    # completions and Dbar u fields form their array jets row by row with
    # the scalar jet's arithmetic, so one batch reproduces the point loop
    field, points = (completion_case if kind == "completion"
                     else dbar_case)(name)
    want = point_loop_report(field, points)
    calls = counting_jets(field)
    got = is_monogenic(field, points)
    assert calls == {"jet_array": 1, "jet_at": 0}
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_is_monogenic_takes_catalog_potentials_point_by_point(name):
    # a closed form's array jet may round differently from its scalar jet
    # in the last bits, so is_monogenic keeps to the scalar jet there
    field = catalog()[name].field
    points = [p for p in sample_points() if field.in_domain(p)]
    want = point_loop_report(field, points)
    calls = counting_jets(field)
    got = is_monogenic(field, points)
    assert calls == {"jet_array": 0, "jet_at": len(points)}
    assert repr(got) == repr(want)


def nan_left_field():
    """Dbar u for a u whose Hessian is NaN where x < 0 and 0 elsewhere,
    defined where z < 1: D of it is NaN where x < 0 and 0 elsewhere."""
    def hessian(p):
        h = math.nan if p.x < 0.0 else 0.0
        return ((h, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    u = ScalarField(lambda p: 0.0,
                    gradient=lambda p: ReducedPoint(0.0, 0.0, 0.0),
                    hessian=hessian, domain=lambda p: p.z < 1.0,
                    name="nan-left",
                    domain_array=lambda xyz: xyz[:, 2] < 1.0)
    return scalar_dbar_field(u)


def test_is_monogenic_reports_a_nan_before_a_later_domain_error():
    field = nan_left_field()
    points = [ReducedPoint(-0.5, 0.0, 0.0), ReducedPoint(0.5, 0.0, 2.0)]
    calls = counting_jets(field)
    report = is_monogenic(field, points)
    assert calls["jet_array"] == 1
    assert repr(report) == repr(point_loop_report(nan_left_field(), points))
    assert math.isnan(report.max_residual)
    assert report.worst_point is points[0]


def test_is_monogenic_raises_the_first_points_domain_error():
    points = [ReducedPoint(0.5, 0.0, 2.0), ReducedPoint(-0.5, 0.0, 0.0)]
    with pytest.raises(DomainError) as want:
        point_loop_report(nan_left_field(), points)
    field = nan_left_field()
    calls = counting_jets(field)
    with pytest.raises(DomainError) as got:
        is_monogenic(field, points)
    assert calls["jet_array"] == 1
    assert str(got.value) == str(want.value)
    assert "is not defined at ReducedPoint(0.5, 0.0, 2.0)" in str(got.value)


def test_fd_jets_track_analytic_jets():
    u = harmonic_catalog()["x/r^3"]
    g = scalar_dbar_field(u)
    g_fd = g.without_analytic_jet()
    for p in random_ball_points(17, 20, radius=0.8):
        if p.norm() < 0.3:
            continue
        exact = g.jet_at(p)
        approx = g_fd.jet_at(p)
        for a, b in zip(exact, approx):
            assert (a - b).norm() <= 1e-5


def test_euler_operator_counts_homogeneity_degree():
    catalog = harmonic_catalog()
    degrees = {"x": 1, "xy": 2, "x^2-y^2": 2, "xyz": 3, "x^3-3xy^2": 3}
    for name, k in degrees.items():
        f = catalog[name].as_quaternion_field()
        for p in random_ball_points(k, 15):
            radial = euler_operator(f, p)
            expected = Quaternion(k * catalog[name](p))
            assert (radial - expected).norm() <= 1e-9, name


def test_laplacian_helper_on_non_harmonic_field():
    def value(p):
        return Quaternion(p.x * p.x)

    f = QuaternionField(value)
    lap = laplacian(f, ReducedPoint(0.4, -0.1, 0.2))
    assert (lap - Quaternion(2.0)).norm() <= 1e-5


def test_laplacian_uses_analytic_scalar_data():
    u = harmonic_catalog()["1/r"]
    lap = laplacian(u, ReducedPoint(0.5, 0.5, 0.5))
    assert lap == Quaternion(0.0)


def test_domain_errors_propagate():
    catalog = harmonic_catalog()
    inv_r = catalog["1/r"]
    with pytest.raises(DomainError):
        inv_r(ReducedPoint(0.0, 0.0, 0.0))
    log_field = catalog["log(x+r)"]
    with pytest.raises(DomainError):
        log_field(ReducedPoint(-1.0, 0.0, 0.0))
    assert log_field.in_domain(ReducedPoint(1.0, 0.0, 0.0))
    assert not log_field.in_domain(ReducedPoint(-2.0, 1e-12, 0.0))


def test_fd_stencil_respects_domain():
    # A jet request next to the excluded ray must not evaluate inside it.
    log_field = harmonic_catalog()["log(x+r)"]
    g = scalar_dbar_field(log_field).without_analytic_jet()
    with pytest.raises(DomainError):
        g.jet_at(ReducedPoint(-0.5, 0.0, 0.0))


def test_field_arithmetic_combines_jets():
    catalog = harmonic_catalog()
    a = scalar_dbar_field(catalog["xy"])
    b = scalar_dbar_field(catalog["x"])
    combo = a + b * 2.0
    assert combo.has_analytic_jet
    p = ReducedPoint(0.2, 0.3, -0.1)
    expect = a(p) + b(p) * 2.0
    assert (combo(p) - expect).norm() <= 1e-15
    report = is_monogenic(combo, random_ball_points(3, 15))
    assert report.ok


def test_right_operator_on_right_monogenic_kernel():
    # x -> conj(x)/|x|^3 is annihilated by D from both sides.
    def value(p):
        r3 = p.norm() ** 3
        return Quaternion(p.x / r3, -p.y / r3, -p.z / r3, 0.0)

    f = QuaternionField(value, domain=lambda p: p.norm() > 1e-6)
    for p in random_ball_points(23, 20, radius=0.9):
        if p.norm() < 0.4:
            continue
        assert apply_D(f, p).norm() <= 1e-4
        assert apply_D_right(f, p).norm() <= 1e-4


# Central-difference values of the five finite-difference paths, recorded
# from the hand-written stencils each path had before they shared
# ``fields._fd_stencil``.  The shared stencil keeps every path's call order
# and arithmetic, so the values must come back bit for bit.
PARENT_FD_VALUES = {
    ('jet_at', 'dipole'): [
        (-0.06752492009551349, -0.5153426371505735, 0.4430622585479579, 0.0,
         0.5478624436533464, -0.12632288637348665, 0.10860522555167228, 0.0,
         0.12632288638805833, 0.39966771175348187, -0.8288629334163299, 0.0,
         -0.10860522555514172, -0.8288629333663698, 0.14819473181937326, 0.0),
        (0.2607812306844752, 0.06054044174135431, -0.14585391328508587, 0.0,
         -0.20116857645714314, -0.08578003973384017, 0.20666110317443062, 0.0,
         0.08578003971582147, -0.14841972687078264, -0.04797643772674886, 0.0,
         -0.20666110313871663, -0.04797643772883053, -0.05274884958827996,
         0.0),
    ],
    ('laplacian', 'dipole'): [
        (2.7755575615628914e-09, 7.771561172376096e-08, -6.661338147750939e-08,
         0.0),
        (-4.2077492878878076e-08, -2.21893939333917e-09,
         1.1204174477086326e-08, 0.0),
    ],
    ('jet_at', 'embedded_cylinder_vortex'): [
        (1.4403623666023935, -0.08123309767906203, 0.0, 0.0,
         1.0627193050227746, -0.16273606680411445, 0.0, 0.0,
         0.16273606692207565, 1.0627193051691852, 0.0, 0.0, 0.0, 0.0, 0.0,
         0.0),
        (1.933571430444894, -0.6814363809803048, 0.0, 0.0, 0.7872654701581866,
         -0.7866665243288157, 0.0, 0.0, 0.7866665242772796, 0.7872654701646108,
         0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ],
    ('laplacian', 'embedded_cylinder_vortex'): [
        (-1.3322676295501878e-07, 2.220446049250313e-08, 0.0, 0.0),
        (-9.895021996220166e-09, 4.730269731467729e-09, 0.0, 0.0),
    ],
    ('gradient_at', '1/r'): [
        (0.06752492009431954, -0.5153426371418135, 0.44306225852608344),
        (-0.26078123069211806, 0.06054044173753325, -0.14585391328036934),
    ],
    ('laplacian_at', '1/r'): [
        (-3.3306690738754696e-08,),
        (-2.157425188498152e-08,),
    ],
    ('laplacian', '1/r'): [
        (-3.3306690738754696e-08, 0.0, 0.0, 0.0),
        (-2.157425188498152e-08, 0.0, 0.0, 0.0),
    ],
    ('gradient_at', 'log(x+r)'): [
        (0.8264172405708646, 0.6920051826557471, -0.5949466569316053),
        (0.5521498108896009, -0.05909547491356192, 0.14237270201666874),
    ],
    ('laplacian_at', 'log(x+r)'): [
        (5.2735593669694936e-08,),
        (1.525146031688962e-08,),
    ],
    ('laplacian', 'log(x+r)'): [
        (5.2735593669694936e-08, 0.0, 0.0, 0.0),
        (1.525146031688962e-08, 0.0, 0.0, 0.0),
    ],
    ('jacobian_at', 'sphere'): [
        (0.20414627043274788, -0.5021378447045421, 0.4317095297912132,
         -0.5021378446025404, -0.12775733572653603, 0.16931188206378844,
         0.43170952972564064, 0.16931188208391124, -0.07638893473708996),
        (0.07852215184408391, -0.07359972827858385, 0.17731632075967949,
         -0.07359972829263442, -0.09574295962225253, -0.0566483689224545,
         0.17731632078293882, -0.05664836891863811, 0.017220807754098066),
    ],
}


def _fd_points():
    rng = random.Random(2024)
    points = []
    while len(points) < 2:
        p = ReducedPoint(*(rng.uniform(-2.0, 2.0) for _ in range(3)))
        if p.norm() > 0.5 and abs(p.y) > 0.1 and abs(p.z) > 0.1:
            points.append(p)
    return points


def _flat(value):
    if isinstance(value, float):
        return (value,)
    if hasattr(value, "as_tuple"):
        return value.as_tuple()
    return tuple(x for part in value for x in _flat(part))


def _fd_paths():
    """(path, field name) -> the FD evaluation at a point."""
    pots = catalog()
    harm = harmonic_catalog()
    paths = {}
    for name in ("dipole", "embedded_cylinder_vortex"):
        f = pots[name].field.without_analytic_jet()
        paths["jet_at", name] = f.jet_at
        paths["laplacian", name] = lambda p, f=f: laplacian(f, p)
    for name in ("1/r", "log(x+r)"):
        u = ScalarField(harm[name], domain=harm[name].in_domain, name=name)
        paths["gradient_at", name] = u.gradient_at
        paths["laplacian_at", name] = u.laplacian_at
        paths["laplacian", name] = lambda p, u=u: laplacian(u, p)
    paths["jacobian_at", "sphere"] = \
        velocity_from_potential(pots["sphere"]).jacobian_at
    return paths


def test_fd_paths_reproduce_the_recorded_stencil_values():
    paths = _fd_paths()
    assert set(paths) == set(PARENT_FD_VALUES)
    for key, expected in PARENT_FD_VALUES.items():
        got = [_flat(paths[key](p)) for p in _fd_points()]
        assert got == expected, key


def test_fd_paths_keep_their_domain_errors():
    pots = catalog()
    one_over_r = harmonic_catalog()["1/r"]
    u = ScalarField(one_over_r, domain=one_over_r.in_domain, name="1/r")
    f = pots["source"].field.without_analytic_jet()
    v = velocity_from_potential(pots["source"])
    near = ReducedPoint(1e-5, 0.0, 0.0)     # one FD_STEP off the pole
    near2 = ReducedPoint(1e-4, 0.0, 0.0)    # one FD_STEP2 off the pole
    stencil = "finite-difference stencil of {} leaves the domain near {!r}"
    undefined = "field {} is not defined at ReducedPoint(0.0, 0.0, 0.0)"
    cases = [
        (lambda: f.jet_at(near),
         stencil.format("dbar(source_log(1.0))", near)),
        (lambda: u.gradient_at(near), stencil.format("1/r", near)),
        (lambda: u.laplacian_at(near2), undefined.format("1/r")),
        (lambda: laplacian(f, near2),
         undefined.format("dbar(source_log(1.0))")),
        (lambda: laplacian(u, near2), undefined.format("1/r")),
        (lambda: v.jacobian_at(near),
         "velocity grad_sc(source(1.0)) undefined at "
         "ReducedPoint(0.0, 0.0, 0.0)"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message


# ----------------------------------------------------------------------
# sums, multiples and conjugates lift their operands' forms
# ----------------------------------------------------------------------

def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def jet_bits(jet) -> bytes:
    return bits([q.as_tuple() for q in jet])


def lifted_cases():
    """(label, lifted field, operands, quaternion op, array op)."""
    source = point_source(1.0, ReducedPoint(0.0, 0.0, 3.0)).field
    dipole = dipole_flow(0.7, ReducedPoint(0.2, 0.1, 0.0)).field
    cylinder = embedded_cylinder_flow(1.0, 1.0, 2.0 * math.pi).field
    saddle = saddle_flow().field
    a = source + dipole

    def times(q):
        return q * 2.5
    return [
        ("source+dipole", a, (source, dipole), operator.add, np.add),
        ("cylinder+saddle", cylinder + saddle, (cylinder, saddle),
         operator.add, np.add),
        ("2.5*a", 2.5 * a, (a,), times, times),
        ("conj(a)", a.conjugated(), (a,), Quaternion.conjugate, qconj),
    ]


LIFTED = {case[0]: case for case in lifted_cases()}
# points outside exactly one operand's domain
OUTSIDE = {"source+dipole": [ReducedPoint(0.0, 0.0, 3.0),
                             ReducedPoint(0.2, 0.1, 0.0)],
           "cylinder+saddle": [ReducedPoint(0.0, 0.0, 0.4)],
           "2.5*a": [ReducedPoint(0.0, 0.0, 3.0)],
           "conj(a)": [ReducedPoint(0.2, 0.1, 0.0)]}


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_lifted_scalar_jets_combine_the_operands_jets(label):
    _, field, operands, op, _ = LIFTED[label]
    inside = [p for p in sample_points() if field.in_domain(p)]
    assert len(inside) > 100
    for p in inside:
        jets = [f.jet_at(p) for f in operands]
        expected = [op(*slots) for slots in zip(*jets)]
        assert jet_bits(field.jet_at(p)) == jet_bits(expected), p
        assert bits(field(p).as_tuple()) == \
            bits(op(*(f(p) for f in operands)).as_tuple()), p


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_lifted_array_forms_combine_the_operands_tables(label):
    _, field, operands, _, array_op = LIFTED[label]
    xyz = np.array([p.as_tuple() for p in sample_points()
                    if field.in_domain(p)])
    table = field.jet_array(xyz)
    expected = array_op(*(f.jet_array(xyz) for f in operands))
    assert table.shape == expected.shape == (4, len(xyz), 4)
    assert bits(table) == bits(expected)
    values = field.value_array(xyz)
    expected = array_op(*(f.value_array(xyz) for f in operands))
    assert values.shape == expected.shape == (len(xyz), 4)
    assert bits(values) == bits(expected)


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_lifted_domain_mask_matches_the_point_domain(label):
    _, field, operands, _, _ = LIFTED[label]
    points = sample_points() + OUTSIDE[label]
    xyz = np.array([p.as_tuple() for p in points])
    mask = field.in_domain_array(xyz)
    assert mask.tolist() == [bool(field.in_domain(p)) for p in points]
    assert mask.tolist() == [all(f.in_domain(p) for f in operands)
                             for p in points]


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_lifted_field_names_itself_outside_an_operand(label):
    _, field, operands, _, _ = LIFTED[label]
    for p in OUTSIDE[label]:
        assert sum(not f.in_domain(p) for f in operands) == 1
        message = re.escape(f"field {field.name} is not defined at {p!r}")
        xyz = np.array([(0.3, 0.4, -0.2), p.as_tuple()])
        for call in (lambda: field(p), lambda: field.jet_at(p),
                     lambda: field.jet_array(xyz),
                     lambda: field.value_array(xyz)):
            with pytest.raises(DomainError, match=message):
                call()


def test_scalar_value_array_raises_the_first_point_error():
    # the point form fails at some nodes, the array form with another error
    def point_form(p):
        if p.z > 0.5:
            raise ZeroDivisionError(f"no value at {p!r}")
        return p.x

    def array_form(xyz):
        raise RuntimeError("array form failed")

    u = ScalarField(point_form, evaluate_array=array_form, name="flaky")
    body = sphere_body(1.0)
    charts = body.surface.quadrature(8)
    xyz = charts[0].point_array
    first = next(p for p in charts[0].points if p.z > 0.5)
    message = re.escape(f"no value at {first!r}")
    with pytest.raises(ZeroDivisionError, match=message):
        u.value_array(xyz)
    first = next(p for cn in charts for p in cn.points if p.z > 0.5)
    with pytest.raises(ZeroDivisionError,
                       match=re.escape(f"no value at {first!r}")):
        integrate_scalar(body, u, 8)
