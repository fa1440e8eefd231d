"""Differential operators on quaternion-valued and scalar fields."""

import math
import operator
import random
import re

import numpy as np
import pytest

from quatflow import (
    DomainError,
    FlowPotential,
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
from quatflow.fields import (_dbar_entries, _jet_entries,
                             default_monogenicity_tol)
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


POTENTIAL_OPERATORS = (apply_D, apply_Dbar, apply_D_right, apply_Dbar_right,
                       laplacian, euler_operator, moisil_theodorescu_residual)


def potential_case(name):
    """A catalog potential or a completion, and points in its domain."""
    field, points = completion_case("x/r^3")
    pot = (FlowPotential(field, name="completion") if name == "completion"
           else catalog()[name])
    return pot, [p for p in points[:3] if pot.in_domain(p)]


@pytest.mark.parametrize("name", sorted(catalog()) + ["completion"])
def test_operators_take_a_flow_potential_as_its_field(name):
    pot, points = potential_case(name)
    for op in POTENTIAL_OPERATORS:
        for p in points:
            assert repr(op(pot, p)) == repr(op(pot.field, p)), op.__name__
    assert default_monogenicity_tol(pot) == default_monogenicity_tol(
        pot.field)
    assert (repr(is_monogenic(pot, points, tol=1e-3))
            == repr(is_monogenic(pot.field, points, tol=1e-3)))


def test_is_monogenic_takes_a_completion_potential_in_one_batch():
    pot, points = potential_case("completion")
    want = point_loop_report(pot.field, points)
    calls = counting_jets(pot.field)
    got = is_monogenic(pot, points)
    assert calls == {"jet_array": 1, "jet_at": 0}
    assert repr(got) == repr(want)


def hexes(values):
    return [float.hex(v) for v in values]


def array_only_dipole():
    """The dipole's closed form, and a field given only its array forms."""
    f = dipole_flow(1.0).field
    return f, QuaternionField(None, domain=f._domain, name=f.name,
                              jet_array=f._jet_array,
                              domain_array=f._domain_array)


def test_an_array_only_field_reads_a_point_as_its_one_row_table():
    _, field = array_only_dipole()
    assert field.has_array_jet and field.has_analytic_jet
    for p in [p for p in sample_points() if field.in_domain(p)]:
        row = field.jet_array(np.array([p.as_tuple()]))[:, 0].tolist()
        assert hexes(_jet_entries(field.jet_at(p))) == hexes(sum(row, []))
        assert hexes(field(p).as_tuple()) == hexes(row[0])


def test_is_monogenic_takes_an_array_only_field_in_one_batch():
    _, field = array_only_dipole()
    points = [p for p in sample_points() if field.in_domain(p)]
    want = point_loop_report(field, points)
    calls = counting_jets(field)
    got = is_monogenic(field, points)
    assert calls == {"jet_array": 1, "jet_at": 0}
    assert repr(got) == repr(want)


def test_an_array_only_field_raises_the_closed_forms_error_at_a_point():
    closed, field = array_only_dipole()
    centre = ReducedPoint(0.0, 0.0, 0.0)
    for read in (QuaternionField.jet_at, QuaternionField.__call__):
        with pytest.raises(DomainError) as want:
            read(closed, centre)
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            read(field, centre)


def test_a_field_with_no_form_to_evaluate_is_refused():
    with pytest.raises(ValueError, match="bare has no form to evaluate: "
                       "give evaluate, value_array or jet_array"):
        QuaternionField(None, name="bare")


def test_an_array_form_alone_builds_a_field_that_evaluates():
    # the completion's form (an array jet) and an array value alone
    closed = dipole_flow(1.0).field
    p = ReducedPoint(0.3, -0.2, 0.5)
    want = hexes(closed(p).as_tuple())
    for form in ("jet_array", "value_array"):
        field = QuaternionField(None, domain=closed._domain,
                                **{form: getattr(closed, f"_{form}")})
        assert hexes(field(p).as_tuple()) == want, form
        row = field.value_array(np.array([p.as_tuple()]))[0].tolist()
        assert hexes(row) == want, form


def test_a_field_read_row_by_row_gives_an_empty_array_no_rows():
    # the row-by-row fallback has no first row to tell a real from a
    # quaternion, so the field's kind gives the row shape
    for field, row in ((ScalarField(lambda p: 1.0), ()),
                       (QuaternionField(lambda p: Quaternion(1.0)), (4,))):
        for count in (0, 2):
            values = field.value_array(np.zeros((count, 3)))
            assert values.shape == (count, *row)
            assert values.dtype == np.float64


@pytest.mark.parametrize("name", sorted(harmonic_catalog()))
def test_dbar_u_point_jet_keeps_the_bits_of_its_entries(name):
    # the point jet Dbar u wrote before it read its one-row array jet
    u = harmonic_catalog()[name]
    field = scalar_dbar_field(u)
    for p in [p for p in sample_points() if u.in_domain(p)]:
        e = _dbar_entries(u.gradient_at(p).as_tuple(), u.hessian_at(p))
        want = Jet(*(Quaternion(*e[k:k + 4]) for k in (0, 4, 8, 12)))
        assert hexes(_jet_entries(field.jet_at(p))) == \
            hexes(_jet_entries(want))


def test_a_sum_with_a_field_without_a_jet_reads_its_jets_row_by_row():
    total = dipole_flow(1.0).field + QuaternionField(
        lambda p: Quaternion(p.x, 0.0, p.y * p.z))
    assert not total.has_array_jet and not total.has_analytic_jet
    points = [p for p in sample_points() if total.in_domain(p)][:40]
    table = total.jet_array(np.array([p.as_tuple() for p in points]))
    for k, p in enumerate(points):
        assert hexes(table[:, k].ravel().tolist()) == \
            hexes(_jet_entries(total.jet_at(p)))


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
    # log(x + r) is cut along a tube about the negative x axis; one FD_STEP2
    # below far_ray in y lands on the axis, where math.log raises
    logxr = ScalarField(lambda p: math.log(p.x + p.norm()),
                        domain=lambda p: (p.x > 0.0
                                          or math.hypot(p.y, p.z) > 5e-5),
                        name="logxr")
    far_ray = ReducedPoint(-0.5, 1e-4, 0.0)
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
        (lambda: logxr.laplacian_at(far_ray),
         "field logxr is not defined at ReducedPoint(-0.5, 0.0, 0.0)"),
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

    def conj(q):   # tables and values hold the components on the last axis
        return qconj(q.T).T
    return [
        ("source+dipole", a, (source, dipole), operator.add, np.add),
        ("cylinder+saddle", cylinder + saddle, (cylinder, saddle),
         operator.add, np.add),
        ("2.5*a", 2.5 * a, (a,), times, times),
        ("conj(a)", a.conjugated(), (a,), Quaternion.conjugate, conj),
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


def sum_cases():
    """label: (sum, its two operands, term writers it streams)."""
    source = point_source(1.0, ReducedPoint(0.0, 0.0, 3.0)).field
    dipole = dipole_flow(0.7, ReducedPoint(0.2, 0.1, 0.0)).field
    saddle = saddle_flow().field
    completion = monogenic_completion(
        harmonic_catalog()["1/r"], center=ReducedPoint(1.6, 0.1, -0.2)).field
    left, right = source + dipole, dipole + saddle
    return {
        "(a+b)+c": (left + saddle, (left, saddle), 3),
        "a+(b+c)": (source + right, (source, right), 0),
        "a+completion": (source + completion, (source, completion), 0),
        "completion+a": (completion + source, (completion, source), 0),
        "2.5*a+b": (2.5 * source + dipole, (2.5 * source, dipole), 0),
        "a+2.5*b": (source + 2.5 * dipole, (source, 2.5 * dipole), 0),
    }


SUMS = sum_cases()
# rows of a batch: seeded points in a ball that every segment of the
# completion (centre (1.6, 0.1, -0.2)) reaches without nearing the origin,
# and two points outside the source (its centre and its cut ray)
SUM_POINTS = [ReducedPoint(1.2 + p.x, 0.2 + p.y, p.z)
              for p in random_ball_points(17, 24, radius=0.5)]
OFF_SOURCE = [ReducedPoint(-1.0, 0.0, 3.0), ReducedPoint(0.0, 0.0, 3.0)]


@pytest.mark.parametrize("label", sorted(SUMS))
def test_a_sum_table_is_np_add_of_its_operands_tables(label):
    field, operands, streamed = SUMS[label]
    # only a left-nested sum of closed forms writes its terms into one table
    assert len(field._writers) == streamed
    xyz = np.array([p.as_tuple() for p in SUM_POINTS])
    table = field.jet_array(xyz)
    expected = np.add(*(f.jet_array(xyz) for f in operands))
    assert table.shape == (4, len(xyz), 4)
    assert bits(table) == bits(expected)
    if streamed:   # one component-major table
        assert table.transpose(0, 2, 1).flags.c_contiguous
    values = field.value_array(xyz)
    assert values.shape == (len(xyz), 4)
    assert bits(values) == bits(np.add(*(f.value_array(xyz)
                                         for f in operands)))
    # the first row outside the sum's domain names the sum
    rows = SUM_POINTS[:5] + OFF_SOURCE + SUM_POINTS[5:]
    xyz = np.array([p.as_tuple() for p in rows])
    message = f"field {field.name} is not defined at {OFF_SOURCE[0]!r}"
    for call in (field.jet_array, field.value_array):
        with pytest.raises(DomainError) as info:
            call(xyz)
        assert str(info.value) == message


def test_the_nesting_of_a_sum_shows_in_its_bits():
    # the sum tests above tell the two nestings apart only if they round
    # differently at some of their rows
    xyz = np.array([p.as_tuple() for p in SUM_POINTS])
    a = SUMS["(a+b)+c"][0].jet_array(xyz)
    b = SUMS["a+(b+c)"][0].jet_array(xyz)
    assert bits(a) != bits(b)
    assert np.allclose(a, b, rtol=1e-14, atol=1e-14)


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


# ----------------------------------------------------------------------
# the catalog scalars are column scalars
# ----------------------------------------------------------------------

# The catalog's polynomials as point lambdas, the form they were written
# in before they became column scalars: value, gradient and Hessian.
POINT_POLYNOMIALS = {
    "x": (lambda p: p.x, lambda p: (1.0, 0.0, 0.0),
          lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    "xy": (lambda p: p.x * p.y, lambda p: (p.y, p.x, 0.0),
           lambda p: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    "x^2-y^2": (lambda p: p.x * p.x - p.y * p.y,
                lambda p: (2.0 * p.x, -2.0 * p.y, 0.0),
                lambda p: ((2.0, 0.0, 0.0), (0.0, -2.0, 0.0),
                           (0.0, 0.0, 0.0))),
    "1+x+yz": (lambda p: 1.0 + p.x + p.y * p.z, lambda p: (1.0, p.z, p.y),
               lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                          (0.0, 1.0, 0.0))),
    "x^3-3xy^2": (lambda p: p.x ** 3 - 3.0 * p.x * p.y * p.y,
                  lambda p: (3.0 * p.x * p.x - 3.0 * p.y * p.y,
                             -6.0 * p.x * p.y, 0.0),
                  lambda p: ((6.0 * p.x, -6.0 * p.y, 0.0),
                             (-6.0 * p.y, -6.0 * p.x, 0.0),
                             (0.0, 0.0, 0.0))),
    "xyz": (lambda p: p.x * p.y * p.z,
            lambda p: (p.y * p.z, p.x * p.z, p.x * p.y),
            lambda p: ((0.0, p.z, p.y), (p.z, 0.0, p.x), (p.y, p.x, 0.0))),
}
# numpy's SIMD loops for ** and log may round a last bit differently
# from libm's; every other array form uses only +, -, * and / and
# rounds as the point form does.
NOT_EXACT = {"x^3-3xy^2", "x/r^3", "log(x+r)"}


def hex_bits(values) -> list:
    return [float(v).hex() for v in _flatten(values)]


def _flatten(values):
    if isinstance(values, (tuple, list)):
        return [v for part in values for v in _flatten(part)]
    return [values]


def test_every_catalog_scalar_has_array_forms_matching_its_points():
    points = sample_points()
    for name, u in harmonic_catalog().items():
        assert u._value_array is not None, name
        inside = [p for p in points if u.in_domain(p)]
        xyz = np.array([p.as_tuple() for p in inside])
        assert u.in_domain_array(xyz).all(), name
        got = u.value_array(xyz)
        assert got.shape == (len(inside),), name
        expected = np.array([u(p) for p in inside])
        if name in NOT_EXACT:
            assert np.all(np.abs(got - expected)
                          <= 1e-15 * np.maximum(1.0, np.abs(expected))), name
        else:
            assert bits(got) == bits(expected), name


@pytest.mark.parametrize("name", sorted(POINT_POLYNOMIALS))
def test_catalog_polynomials_keep_the_bits_of_their_point_lambdas(name):
    u = harmonic_catalog()[name]
    value, gradient, hessian = POINT_POLYNOMIALS[name]
    # defined everywhere, as before: no point or array domain
    assert u._domain is None and u._domain_array is None
    for p in sample_points():
        assert hex_bits(u(p)) == hex_bits(value(p)), p
        assert hex_bits(u.gradient_at(p).as_tuple()) == \
            hex_bits(gradient(p)), p
        assert hex_bits(u.hessian_at(p)) == hex_bits(hessian(p)), p
        assert u.laplacian_at(p) == 0.0


def test_a_hessian_without_a_laplacian_gives_the_trace():
    calls = []

    def square(p):
        calls.append(p)
        return p.x * p.x

    u = ScalarField(square, gradient=lambda p: (2.0 * p.x, 0.0, 0.0),
                    hessian=lambda p: ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                                       (0.0, 0.0, 0.0)), name="x^2")
    p = ReducedPoint(0.4, -0.1, 0.2)
    assert u.has_analytic_laplacian
    assert u.laplacian_at(p) == 2.0
    assert calls == []   # the trace, not a finite-difference stencil
    # the completion's harmonic check reads that trace
    with pytest.raises(ValueError, match="is not harmonic near"):
        monogenic_completion(u).jet_at(p)


class CountedDomain:
    """The domain x > 0, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        return p.x > 0.0


ON_DOMAIN = ReducedPoint(0.3, -0.7, 0.45)
OFF_DOMAIN = ReducedPoint(-0.5, 0.25, 1.0)
SCALAR_READS = ("__call__", "gradient_at", "hessian_at", "laplacian_at")


def counted_cubic(name="cubic", **forms):
    """u = x y^2 + z^3 on x > 0 with a counted domain, its value and
    Laplacian numpy floats; ``forms`` replace its analytic gradient,
    Hessian and Laplacian (None drops one)."""
    forms = dict(dict(
        gradient=lambda p: (p.y * p.y, 2.0 * p.x * p.y, 3.0 * p.z * p.z),
        hessian=lambda p: ((0.0, 2.0 * p.y, 0.0), (2.0 * p.y, 2.0 * p.x, 0.0),
                           (0.0, 0.0, 6.0 * p.z)),
        laplacian=lambda p: np.float64(2.0 * p.x + 6.0 * p.z)), **forms)
    domain = CountedDomain()
    u = ScalarField(lambda p: np.float64(p.x * p.y * p.y + p.z ** 3),
                    domain=domain, name=name, **forms)
    return u, domain


@pytest.mark.parametrize("read", SCALAR_READS)
def test_a_public_scalar_read_checks_the_domain_once(read):
    u, domain = counted_cubic()
    got = getattr(u, read)(ON_DOMAIN)
    assert domain.calls == 1
    if read in ("__call__", "laplacian_at"):
        assert type(got) is float
    for name, shown in (("cubic", "cubic"), ("", "<anonymous>")):
        u, domain = counted_cubic(name, gradient=None, hessian=None,
                                  laplacian=None)
        with pytest.raises(DomainError) as err:
            getattr(u, read)(OFF_DOMAIN)
        assert str(err.value) == \
            f"field {shown} is not defined at ReducedPoint(-0.5, 0.25, 1.0)"
        assert domain.calls == 1


# A gradient form's result and the bits gradient_at returns for it; the
# finite differences are u's recorded central differences at ON_DOMAIN.
GRADIENT_KINDS = {
    "ReducedPoint": (lambda p: GIVEN_POINT,
                     ("0x1.999999999999ap-4", "-0x0.0p+0",
                      "0x1.8000000000000p+1")),
    "np.float64": (lambda p: (np.float64(0.1), np.float64(-0.0),
                              np.float64(1e300)),
                   ("0x1.999999999999ap-4", "-0x0.0p+0",
                    "0x1.7e43c8800759cp+996")),
    "int": (lambda p: [1, 0, 2 ** 60 + 1],
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+60")),
    "finite-differences": (None, ("0x1.f5c28f5c29e4fp-2",
                                  "-0x1.ae147ae13fc2fp-2",
                                  "0x1.370a3d71815c4p-1")),
}
GIVEN_POINT = ReducedPoint(0.1, -0.0, 3.0)


@pytest.mark.parametrize("kind", sorted(GRADIENT_KINDS))
def test_gradient_at_returns_a_fresh_point_of_floats(kind):
    form, want = GRADIENT_KINDS[kind]
    u, _ = counted_cubic(gradient=form)
    g = u.gradient_at(ON_DOMAIN)
    assert type(g) is ReducedPoint and g is not GIVEN_POINT
    assert all(type(c) is float for c in g.as_tuple())
    assert [c.hex() for c in g.as_tuple()] == list(want)


@pytest.mark.parametrize("entries", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_a_gradient_of_the_wrong_length_raises_value_error(entries):
    u, _ = counted_cubic(gradient=lambda p: entries)
    with pytest.raises(ValueError, match="values to unpack"):
        u.gradient_at(ON_DOMAIN)


def test_the_laplacian_of_a_hessian_alone_is_its_trace_in_order():
    u, domain = counted_cubic(
        laplacian=None, hessian=lambda p: ((0.1, 5.0, 5.0), (5.0, 0.2, 5.0),
                                           (5.0, 5.0, 0.3)))
    lap = u.laplacian_at(ON_DOMAIN)
    # (0.1 + 0.2) + 0.3, not 0.1 + (0.2 + 0.3) = 0.6
    assert type(lap) is float and lap.hex() == (0.1 + 0.2 + 0.3).hex()
    assert lap != 0.6
    assert domain.calls == 1


def test_dbar_u_of_an_int_hessian_has_the_bits_of_its_float_form():
    # the sign map negates floats, so an int 0 entry reads -0.0 as 0.0 does
    def hessian(kind):
        return lambda p: tuple(tuple(map(kind, row))
                               for row in ((0, 1, 0), (1, 0, 0), (0, 0, 0)))

    p = ReducedPoint(0.3, -0.2, 0.5)
    jets = [exact_jet(scalar_dbar_field(ScalarField(
        lambda p: p.x * p.y, gradient=lambda p: (p.y, p.x, 0),
        hessian=hessian(kind))).jet_at(p)) for kind in (int, float)]
    assert jets[0] == jets[1]
    assert "-0.0" in jets[0]


def exact_jet(jet):
    return repr([q.as_tuple() for q in jet])
