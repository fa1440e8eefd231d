"""Monogenic completion on its array path against the node-by-node definition.

``reference_jet`` is the radial line integral written point by point:
one segment point at a time with Quaternion arithmetic, the harmonic
check before the Dbar u jet at each t, and the nested Gauss-Kronrod
levels of ``monogenic_completion``, with its defaults; with ``slots=1``
(``reference_value``) it is the value read, which sums and converges on
the value alone.  The array path must reproduce its jets, values, Cauchy
integrals, errors and calls into u bit for bit.
"""

import inspect
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from quatflow import (
    CompletionError,
    DomainError,
    Jet,
    Quaternion,
    ReducedPoint,
    ScalarField,
    harmonic_catalog,
    laplacian,
    monogenic_completion,
    scalar_dbar_field,
    sphere_body,
)
from quatflow import potentials
from quatflow.fields import FD_STEP2, _fd_stencil
from quatflow.integrals import verify_cauchy_theorem

NAN = float("nan")
SINGULAR = ("1/r", "x/r^3", "log(x+r)")


def reference_jet(u, center, p, order=8, tol=1e-10, max_doublings=5,
                  slots=4):
    """The completion jet of u about center at p, point by point.  With
    ``slots=1`` the value read instead: the value alone, summed from the
    value of Dbar u at each segment point (u's gradient, no Hessian) and
    converged on its own gap, returned as a Quaternion."""
    if not u.in_domain(p):
        raise DomainError(f"field completion({u.name}) is not defined "
                          f"at {p!r}")
    dbar = scalar_dbar_field(u)
    lap_tol = 1e-8 if u.has_analytic_laplacian else 1e-3
    label = u.name or "<anonymous>"
    dxq = ReducedPoint(p.x - center.x, p.y - center.y, p.z - center.z)
    xq = dxq.to_quaternion()

    def add(acc, jd, t, wt):
        acc[0] = acc[0] + (jd.value * xq) * (wt * t)
        if slots == 1:
            return
        acc[1] = acc[1] + (jd.dx * xq * (wt * t * t)
                           + jd.value * (wt * t))
        acc[2] = acc[2] + (jd.dy * xq * (wt * t * t)
                           + (jd.value * Quaternion(0, 1, 0, 0)) * (wt * t))
        acc[3] = acc[3] + (jd.dz * xq * (wt * t * t)
                           + (jd.value * Quaternion(0, 0, 1, 0)) * (wt * t))

    def raw_jets(m):
        """(G_m, K_2m+1) at p from one pass over the 2m + 1 nodes of K in
        ascending t; the Gauss nodes are every second one."""
        ts, wk = potentials._kronrod01(m)
        wg = np.polynomial.legendre.leggauss(m)[1] * 0.5
        gauss = [Quaternion()] * slots
        kronrod = list(gauss)
        for k, (t, wt) in enumerate(zip(ts.tolist(), wk.tolist())):
            q = ReducedPoint(center.x + t * dxq.x, center.y + t * dxq.y,
                             center.z + t * dxq.z)
            lap = u.laplacian_at(q)
            if not abs(lap) <= lap_tol:
                raise ValueError(f"completion input {label} is not harmonic "
                                 f"near {q!r} (laplacian {lap:.3e})")
            jd = dbar.jet_at(q) if slots == 4 else Jet(dbar(q), *[None] * 3)
            add(kronrod, jd, t, wt)
            if k % 2:
                add(gauss, jd, t, float(wg[k // 2]))
        if slots == 4:
            grad = u.gradient_at(p)
            base = (u(p), grad.x, grad.y, grad.z)
        else:
            base = (u(p),)
        return [[Quaternion(b, a.q1, a.q2, a.q3) for b, a in zip(base, acc)]
                for acc in (gauss, kronrod)]

    def gap(a, b):
        return float(np.max([(qa - qb).norm() for qa, qb in zip(a, b)]))

    def result(kronrod):
        return Jet(*kronrod) if slots == 4 else kronrod[0]

    for level in range(max_doublings + 1):
        gauss, kronrod = raw_jets(order * 2 ** level)
        if gap(gauss, kronrod) <= tol:
            return result(kronrod)
    m = order * 2 ** (max_doublings + 1)
    gauss, kronrod = raw_jets(m)
    if not gap(gauss, kronrod) <= 1e-8:
        raise CompletionError(f"completion quadrature for {label} stuck "
                              f"above 1e-08 at {p!r} (order {m})")
    return result(kronrod)


def reference_value(u, center, p, **kwargs):
    """The value read of the completion of u about center at p, point by
    point: ``reference_jet`` with ``slots=1``."""
    return reference_jet(u, center, p, slots=1, **kwargs)


class Counted:
    """u with every call into its scalar forms counted; no array forms."""

    def __init__(self, u, hessian=True):
        self.calls = 0

        def counted(method):
            def wrapper(p):
                self.calls += 1
                return method(p)
            return wrapper

        self.field = ScalarField(
            counted(u), gradient=counted(u.gradient_at),
            laplacian=counted(u.laplacian_at),
            hessian=counted(u.hessian_at) if hessian else None,
            domain=u.in_domain, name=u.name)


def exact(jet):
    """A jet's components in a form that compares bits, signed zeros too."""
    return repr([q.as_tuple() for q in jet])


def table_jets(table):
    return [Jet(*(Quaternion(*q) for q in table[:, k].tolist()))
            for k in range(table.shape[1])]


def case(name):
    """(u, center, three points) for a harmonic catalog name or a wrapper."""
    cat = harmonic_catalog()
    if name == "scalar-only":
        u = Counted(cat["x/r^3"]).field
    elif name == "fd-hessian":
        u = Counted(cat["1/r"], hessian=False).field
    else:
        u = cat[name]
    if u.name in SINGULAR:
        center = ReducedPoint(1.6, 0.1, -0.2)
    elif name in ("x", "x^2-y^2"):
        center = ReducedPoint(0.0, 0.0, 0.0)
    else:
        center = ReducedPoint(0.2, -0.1, 0.3)
    offsets = ((0.3, 0.1, -0.2), (-0.35, 0.2, 0.1), (0.05, -0.4, 0.25))
    points = [ReducedPoint(center.x + a, center.y + b, center.z + c)
              for a, b, c in offsets]
    return u, center, points


CASES = sorted(harmonic_catalog()) + ["scalar-only", "fd-hessian"]


@pytest.mark.parametrize("order", [4, 32])
@pytest.mark.parametrize("name", CASES)
def test_completion_matches_the_node_by_node_definition(name, order):
    u, center, points = case(name)
    pot = monogenic_completion(u, center=center, order=order)
    want = [reference_jet(u, center, p, order=order) for p in points]
    want_values = [reference_value(u, center, p, order=order)
                   for p in points]
    xyz = np.array([p.as_tuple() for p in points])
    table = pot.jet_array(xyz)
    assert table.shape == (4, 3, 4)
    values = pot.value_array(xyz)
    for k, (p, ref) in enumerate(zip(points, want)):
        assert exact(pot.jet_at(p)) == exact(ref), (name, p)
        value = repr(want_values[k].as_tuple())
        assert repr(pot(p).as_tuple()) == value
        assert exact(table_jets(table)[k]) == exact(ref), (name, p)
        assert repr(tuple(values[k].tolist())) == value


@pytest.mark.parametrize("name", ["1/r", "log(x+r)", "fd-hessian"])
def test_a_value_read_converged_a_level_early_keeps_its_accuracy(name):
    # At order 4 the first point of these cases takes one level fewer for
    # its value than for its jet, so the two values differ in the last
    # bits; each lies within 1e-10 (1 + |w|) of an order-64 jet.
    u, center, points = case(name)
    xyz = np.array([points[0].as_tuple()])
    pot = monogenic_completion(u, center=center, order=4)
    value, jet_value = pot.value_array(xyz)[0], pot.jet_array(xyz)[0, 0]
    assert value.tobytes() != jet_value.tobytes()
    high = monogenic_completion(u, center=center, order=64).jet_array(xyz)
    w = high[0, 0]
    bound = 1e-10 * (1.0 + np.sqrt(w @ w))
    for got in (value, jet_value):
        d = got - w
        assert np.sqrt(d @ d) <= bound


@pytest.mark.parametrize("name", CASES)
def test_completed_cauchy_integral_matches_the_node_by_node_sum(name):
    u, center, _ = case(name)
    pot = monogenic_completion(u, center=center, order=4)
    sphere = sphere_body(0.1, ReducedPoint(center.x + 0.1, center.y,
                                           center.z))
    got = verify_cauchy_theorem(sphere, pot.field, order=6, tol=1e-6)
    want = verify_cauchy_theorem(
        sphere, lambda p: reference_value(u, center, p, order=4),
        order=6, tol=1e-6)
    assert got.ok
    assert repr(got.lhs.as_tuple()) == repr(want.lhs.as_tuple())


def test_signed_zeros_match_the_definition():
    # At y = -0.0 every term of the value's i part is -0.0, and a sum
    # started at 0.0, as the definition's, gives +0.0.
    u = harmonic_catalog()["x"]
    center = ReducedPoint(0.0, 0.0, 0.0)
    p = ReducedPoint(0.3, -0.0, 0.2)
    jet = monogenic_completion(u).jet_at(p)
    assert repr(jet.value.q1) == "0.0"
    assert exact(jet) == exact(reference_jet(u, center, p))


def zero_offset_points(center):
    """Points on the axes and coordinate planes through center, with each
    zero offset once +0.0 and once -0.0."""
    steps = (0.3, -0.2, 0.25)
    offsets = []
    for zero in (0.0, -0.0):
        for k in range(3):
            axis, plane = [zero] * 3, list(steps)
            axis[k], plane[k] = steps[k], zero
            offsets += [axis, plane]
    return [ReducedPoint(*(c + d for c, d in zip(center.as_tuple(), offset)))
            for offset in offsets]


def assert_jets_match_the_definition(u, center, order):
    """jet_at and jet_array on zero_offset_points(center) equal
    reference_jet bit for bit, and value_array reference_value."""
    points = zero_offset_points(center)
    pot = monogenic_completion(u, center=center, order=order)
    xyz = np.array([p.as_tuple() for p in points])
    table, values = pot.jet_array(xyz), pot.value_array(xyz)
    for k, p in enumerate(points):
        want = reference_jet(u, center, p, order=order)
        assert exact(pot.jet_at(p)) == exact(want), (p, order)
        assert exact(table_jets(table)[k]) == exact(want), (p, order)
        assert repr(tuple(values[k].tolist())) == repr(reference_value(
            u, center, p, order=order).as_tuple()), (p, order)


@pytest.mark.parametrize("name", sorted(harmonic_catalog()))
def test_jets_with_exact_zeros_in_dbar_u_match_the_definition(name):
    # On the axes and planes through the center, Dbar u, the arm x - c and
    # the segment points carry exact +-0 entries, the -0.0 centers carry
    # their signs into the points, and the endpoint terms Dbar u (1, i, j)
    # differ from a full product only in the signs of zeros.
    u = harmonic_catalog()[name]
    centers = ((1.6, 0.0, 0.0), (1.6, -0.0, -0.0)) if name in SINGULAR \
        else ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0))
    for center in centers:
        for order in (1, 4, 8):
            assert_jets_match_the_definition(u, ReducedPoint(*center), order)


def test_a_gradient_of_negative_zeros_matches_the_definition():
    # u = y with every zero of its gradient and Hessian -0.0, so Dbar u is
    # (-0.0, -1.0, 0.0, 0.0) and each partial (-0.0, 0.0, 0.0, 0.0)
    u = ScalarField(lambda p: p.y, gradient=lambda p: (-0.0, 1.0, -0.0),
                    hessian=lambda p: ((-0.0,) * 3,) * 3, name="y")
    counted = Counted(u)
    for center in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)):
        for order in (1, 4, 8):
            assert_jets_match_the_definition(counted.field,
                                             ReducedPoint(*center), order)


def test_doubling_decisions_stay_per_point():
    counted = Counted(harmonic_catalog()["1/r"])
    u = counted.field
    center = ReducedPoint(1.6, 0.1, -0.2)
    points = [ReducedPoint(0.6, 0.0, 0.1), ReducedPoint(1.7, 0.2, -0.1),
              ReducedPoint(1.2, 0.0, 0.0), ReducedPoint(0.4, 0.1, -0.1)]
    pot = monogenic_completion(u, center=center, order=4)
    single = []
    jets = []
    for p in points:
        before = counted.calls
        jets.append(pot.jet_at(p))
        single.append(counted.calls - before)
    # order 4 converging at levels 0, 1 and 2 reads 9, 9 + 17 and
    # 9 + 17 + 33 segment points, three calls into u each, and u and its
    # gradient once at the point: 29, 80 and 179 calls
    assert sorted(set(single)) == [29, 80, 179]
    before = counted.calls
    table = pot.jet_array(np.array([p.as_tuple() for p in points]))
    assert counted.calls - before == sum(single)
    assert [exact(j) for j in table_jets(table)] == [exact(j) for j in jets]
    for p, jet in zip(points, jets):
        assert exact(jet) == exact(reference_jet(u, center, p, order=4))


@pytest.mark.parametrize("max_doublings", [0, 1, 2])
def test_max_doublings_counts_the_levels_held_to_tol(max_doublings):
    # levels 0 to max_doublings use tol, one more level the 1e-8 cap
    u = harmonic_catalog()["1/r"]
    center = ReducedPoint(1.6, 0.1, -0.2)
    points = [ReducedPoint(0.6, 0.0, 0.1), ReducedPoint(1.7, 0.2, -0.1),
              ReducedPoint(1.2, 0.0, 0.0), ReducedPoint(0.4, 0.1, -0.1)]
    pot = monogenic_completion(u, center=center, order=2,
                               max_doublings=max_doublings)

    def outcome(jet_of, p):
        try:
            return exact(jet_of(p))
        except CompletionError as error:
            return str(error)

    got = [outcome(pot.jet_at, p) for p in points]
    assert got == [outcome(lambda p: reference_jet(
        u, center, p, order=2, max_doublings=max_doublings), p)
        for p in points]
    # at order 2 the first and last rows need four levels, so a cap at the
    # second or third level stops them
    assert any("stuck above" in g for g in got) == (max_doublings < 2)


def test_levels_take_rows_in_bounded_blocks(monkeypatch):
    monkeypatch.setattr(potentials, "_COMPLETION_BLOCK", 40)
    batches = []
    jet_rows = potentials._jet_rows

    def recording_jet_rows(row, xyz, *slots):
        batches.append(len(xyz))
        return jet_rows(row, xyz, *slots)

    # every block's segment table is one _jet_rows pass over its grid
    monkeypatch.setattr(potentials, "_jet_rows", recording_jet_rows)
    counted = Counted(harmonic_catalog()["1/r"])
    points = [ReducedPoint(0.6, 0.0, 0.1), ReducedPoint(1.7, 0.2, -0.1),
              ReducedPoint(1.2, 0.0, 0.0), ReducedPoint(0.4, 0.1, -0.1)] * 3
    pot = monogenic_completion(counted.field,
                               center=ReducedPoint(1.6, 0.1, -0.2), order=4)
    single = []
    jets = []
    for p in points:
        before = counted.calls
        jets.append(pot.jet_at(p))
        single.append(counted.calls - before)
    batches.clear()
    before = counted.calls
    table = pot.jet_array(np.array([p.as_tuple() for p in points]))
    assert counted.calls - before == sum(single)
    assert [exact(j) for j in table_jets(table)] == [exact(j) for j in jets]
    # 12 rows at m = 4 (9 nodes of K) are three blocks of four rows;
    # m = 8 (17 nodes) takes two rows a block and m = 16 (33 nodes) one
    assert batches[:3] == [36, 36, 36]
    assert set(batches[3:]) == {34, 17, 33}
    assert max(batches) == 36


# points about the origin with signed-zero coordinates, and points about
# a singular scalar's centre whose rows converge at different levels
SIGNED_ZERO_POINTS = [
    ReducedPoint(0.3, -0.0, 0.2), ReducedPoint(-0.0, 0.4, 0.0),
    ReducedPoint(0.0, -0.0, -0.5), ReducedPoint(-0.2, 0.0, -0.0),
    ReducedPoint(-0.0, -0.3, -0.0)]
SPREAD_CENTER = ReducedPoint(1.6, 0.1, -0.2)
SPREAD_POINTS = [ReducedPoint(0.6, 0.0, 0.1), ReducedPoint(1.7, 0.2, -0.1),
                 ReducedPoint(1.2, 0.0, 0.0), ReducedPoint(0.4, 0.1, -0.1),
                 ReducedPoint(1.9, -0.3, 0.2)]


@pytest.mark.parametrize("order", [1, 4, 8])
@pytest.mark.parametrize("name",
                         ["x", "xy", "x^2-y^2", "xyz"] + list(SINGULAR))
def test_every_slot_of_a_split_batch_equals_the_definition(monkeypatch, name,
                                                           order):
    # blocks of two rows at level 0 and of one row at every later level
    monkeypatch.setattr(potentials, "_COMPLETION_BLOCK", 2 * (2 * order + 1))
    counted = Counted(harmonic_catalog()[name])
    u = counted.field
    if name in SINGULAR:
        center, points = SPREAD_CENTER, SPREAD_POINTS
    else:
        center, points = ORIGIN, SIGNED_ZERO_POINTS
    pot = monogenic_completion(u, center=center, order=order)
    calls = []
    jets = []
    for p in points:
        before = counted.calls
        jets.append(pot.jet_at(p))
        calls.append(counted.calls - before)
    if name in SINGULAR:
        assert len(set(calls)) > 1   # the rows take different levels
    table = pot.jet_array(np.array([p.as_tuple() for p in points]))
    for p, jet, row in zip(points, jets, table_jets(table)):
        want = exact(reference_jet(u, center, p, order=order))
        assert exact(jet) == want, p
        assert exact(row) == want, p


def test_a_level_block_takes_one_vector_part_product(monkeypatch):
    # one product for the four slots' outer terms, vector parts only; the
    # endpoint terms are a signed gather, however many rows a block holds
    products, blocks = [], []
    vector_rows, jet_rows = potentials._vector_rows, potentials._jet_rows

    def counting_vector_rows(p, q):
        products.append(1)
        return vector_rows(p, q)

    def counting_jet_rows(row, xyz, *slots):
        blocks.append(len(xyz))
        return jet_rows(row, xyz, *slots)

    monkeypatch.setattr(potentials, "_vector_rows", counting_vector_rows)
    monkeypatch.setattr(potentials, "_jet_rows", counting_jet_rows)
    u, center, _ = guard_case("xyz", 0)
    pot = monogenic_completion(u, center=center)
    rng = np.random.default_rng(7)
    for rows in (1, 72):
        products.clear()
        blocks.clear()
        points = center.as_tuple() + rng.uniform(-0.5, 0.5, (rows, 3))
        pot.jet_array(points)
        # a polynomial converges at level 0: one block of 17 nodes a row
        assert blocks == [17 * rows]
        assert len(products) == 1


def test_a_thousand_row_completion_stays_within_its_memory_bound():
    u, center, _ = case("x/r^3")
    c = np.array(center.as_tuple())
    rng = np.random.default_rng(3)
    arms = rng.normal(size=(1000, 3))
    arms *= rng.uniform(0.2, 0.7, (1000, 1)) / np.linalg.norm(
        arms, axis=1, keepdims=True)
    pot = monogenic_completion(u, center=center)
    pot.jet_array(c + arms[:2])   # the rules' caches
    # 963 rows fill the first block of _COMPLETION_BLOCK segment points
    tracemalloc.start()
    try:
        pot.jet_array(c + arms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


def test_a_jet_converged_at_level_0_reads_the_nodes_of_k_once():
    # At the default order 8, G_8 and K_17 come from one table of
    # 2 * 8 + 1 segment points, in ascending t.  Each takes u's Laplacian,
    # Hessian and gradient once; the point itself u and its gradient.
    xyz_u = harmonic_catalog()["xyz"]
    segment = []

    def laplacian(p):
        segment.append(p.as_tuple())
        return xyz_u.laplacian_at(p)

    counted = Counted(ScalarField(xyz_u, gradient=xyz_u.gradient_at,
                                  laplacian=laplacian,
                                  hessian=xyz_u.hessian_at, name="xyz"))
    _, center, points = case("xyz")
    pot = monogenic_completion(counted.field, center=center)
    ts = potentials._kronrod01(8)[0]
    c = np.array(center.as_tuple())
    for p in points:
        segment.clear()
        before = counted.calls
        pot.jet_at(p)
        assert counted.calls - before == 3 * 17 + 2 == 53
        want = c + ts[:, None] * (np.array(p.as_tuple()) - c)
        assert np.array(segment).tolist() == want.tolist()
    before = counted.calls
    pot.jet_array(np.array([p.as_tuple() for p in points]))
    assert counted.calls - before == 3 * 53


def test_reference_jet_takes_the_librarys_defaults():
    library = inspect.signature(monogenic_completion).parameters
    reference = inspect.signature(reference_jet).parameters
    for name in ("order", "tol", "max_doublings"):
        assert reference[name].default == library[name].default, name


def guard_case(name, seed):
    """(u, center, six points), seeded.  Every segment from the center to
    a point stays at least 0.5 from u's singular set (the origin, and for
    log(x+r) the negative x axis): a singular u's center has x >= 1.2 and
    its points lie within 0.7 of it."""
    rng = np.random.default_rng([seed, sorted(harmonic_catalog()).index(name)])
    if name in SINGULAR:
        c, reach = rng.uniform((1.2, -0.4, -0.4), (2.0, 0.4, 0.4)), 0.7
    else:
        c, reach = rng.uniform(-0.5, 0.5, 3), 0.9
    arms = rng.normal(size=(6, 3))
    arms *= rng.uniform(0.2, reach, (6, 1)) / np.linalg.norm(
        arms, axis=1, keepdims=True)
    return harmonic_catalog()[name], ReducedPoint(*c.tolist()), c + arms


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(harmonic_catalog()))
def test_the_default_ladder_keeps_the_accuracy_of_a_high_order_rule(name,
                                                                     seed):
    u, center, xyz = guard_case(name, seed)
    got = monogenic_completion(u, center=center).jet_array(xyz)
    # one level of G_96 / K_193, accepted whatever its gap
    high = monogenic_completion(u, center=center, order=96, tol=1.0,
                                max_doublings=0).jet_array(xyz)
    scale = 1.0 + np.abs(high).max(axis=(0, 2))
    assert (np.abs(got - high).max(axis=(0, 2)) <= 1e-12 * scale).all()
    # the ladder that started at order 32 agrees to tol
    old = monogenic_completion(u, center=center, order=32,
                               max_doublings=3).jet_array(xyz)
    assert (potentials._gap(got, old) <= 1e-10).all()


def test_a_stuck_row_still_names_the_cap_level_order_512():
    u = ScalarField(lambda p: p.x, gradient=nan_above,
                    laplacian=lambda p: 0.0,
                    hessian=lambda p: ZERO_HESSIAN, name="nan-above")
    # the old defaults (32, 3) and the new (8, 5) cap at the same order
    for kwargs in ({}, {"order": 32, "max_doublings": 3}):
        pot = monogenic_completion(u, **kwargs)
        with pytest.raises(CompletionError, match=r"\(order 512\)$"):
            pot.jet_at(STUCK)


# QUADPACK's qk15 on [-1, 1]: the nonnegative nodes of K_15, the Gauss
# nodes of G_7 at the odd places, and their K_15 weights
XGK15 = (0.991455371120812639206854697526329,
         0.949107912342758524526189684047851,
         0.864864423359769072789712788640926,
         0.741531185599394439863864773280788,
         0.586087235467691130294144845693013,
         0.405845151377397166906606412076961,
         0.207784955007898467600689403773245,
         0.0)
WGK15 = (0.022935322010529224963732008058970,
         0.063092092629978553290700663189204,
         0.104790010322250183839876322541518,
         0.140653259715525918745189590510238,
         0.169004726639267902826583426598550,
         0.190350578064785409913256402421014,
         0.204432940075298892414161999234649,
         0.209482141084727828012999174891714)


def test_kronrod_rule_reproduces_the_published_g7_k15_table():
    ts, ws = potentials._kronrod01(7)
    xs = [-x for x in XGK15] + list(XGK15[-2::-1])
    wk = list(WGK15) + list(WGK15[-2::-1])
    assert np.abs(2.0 * ts - 1.0 - xs).max() <= 1e-15
    assert np.abs(2.0 * ws - wk).max() <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 5, 16, 32, 64, 256, 512])
def test_kronrod_rule_extends_the_gauss_rule(n):
    ts, ws = potentials._kronrod01(n)
    tg, _ = potentials._gauss01(n)
    assert ts.shape == ws.shape == (2 * n + 1,)
    assert (np.diff(ts) > 0.0).all() and 0.0 < ts[0] and ts[-1] < 1.0
    assert (ws > 0.0).all()
    assert ts[1::2].tobytes() == tg.tobytes()
    # exact for every monomial on [0, 1] up to degree 3n + 1
    for degree in range(3 * n + 2):
        assert abs(ws @ ts ** degree - 1.0 / (degree + 1)) <= 1e-14, degree
    assert not ts.flags.writeable and not ws.flags.writeable
    assert potentials._kronrod01(n)[0] is ts


def test_a_completion_checks_the_domain_once_per_grid_point():
    # The counted predicate is the completion field's own; u's callables
    # (the catalog's public methods) check the catalog field's domain.
    one_over_r = harmonic_catalog()["1/r"]
    checks, laplacians = [], []

    def domain(p):
        checks.append(p)
        return one_over_r.in_domain(p)

    def laplacian(p):
        laplacians.append(p)
        return one_over_r.laplacian_at(p)

    u = ScalarField(one_over_r, gradient=one_over_r.gradient_at,
                    laplacian=laplacian, hessian=one_over_r.hessian_at,
                    domain=domain, name="1/r")
    points = [ReducedPoint(0.6, 0.0, 0.1), ReducedPoint(1.7, 0.2, -0.1),
              ReducedPoint(1.2, 0.0, 0.0), ReducedPoint(0.4, 0.1, -0.1)]
    pot = monogenic_completion(u, center=ReducedPoint(1.6, 0.1, -0.2),
                               order=4)
    assert len(checks) == 1   # the centre
    per_point = []
    for p in points:
        checks.clear()
        laplacians.clear()
        pot.jet_at(p)
        # the harmonic check runs once at every grid point of every level:
        # the 2m + 1 nodes of K at m = 4, 8, ... until the row converges
        assert len(laplacians) in (9, 9 + 17, 9 + 17 + 33), p
        assert len(checks) <= len(laplacians) + 1, p
        per_point.append(len(laplacians))
    checks.clear()
    laplacians.clear()
    pot.jet_array(np.array([p.as_tuple() for p in points]))
    assert len(laplacians) == sum(per_point)
    assert len(checks) <= len(laplacians) + len(points)


def test_the_laplacian_of_a_completion_is_one_value_read_call(monkeypatch):
    calls = []
    field_class = potentials.QuaternionField

    def counting_field(*args, jet_array, value_array, **kwargs):
        def counted(read, kind):
            def call(xyz):
                calls.append((kind, len(xyz)))
                return read(xyz)
            return call
        return field_class(*args, jet_array=counted(jet_array, "jet"),
                           value_array=counted(value_array, "value"),
                           **kwargs)

    monkeypatch.setattr(potentials, "QuaternionField", counting_field)
    u, center, points = case("x/r^3")
    pot = monogenic_completion(u, center=center)
    for p in points:
        calls.clear()
        got = laplacian(pot, p)
        # p and its six stencil points, values only
        assert calls == [("value", 7)]
        # the stencil one point at a time, as the scalar calls give it
        want = Quaternion()
        for h, plus, minus in _fd_stencil(pot, p, FD_STEP2):
            want = want + (plus - pot(p) * 2.0 + minus) / (h * h)
        assert repr(got.as_tuple()) == repr(want.as_tuple())


def first_error(u, center, points, **kwargs):
    """The error reference_jet raises at the first row that fails alone."""
    for p in points:
        try:
            reference_jet(u, center, p, **kwargs)
        except (ArithmeticError, ValueError) as error:
            return error
    raise AssertionError("no row fails")


def assert_raises_in_node_order(pot, u, center, points, **kwargs):
    """Each read of the rows raises the error its reference meets first
    row by row: jets reference_jet's, values reference_value's.  Returns
    the message of jet_at at the first row."""
    xyz = np.array([p.as_tuple() for p in points])
    for call, slots in ((pot.jet_array, 4), (pot.value_array, 1)):
        want = first_error(u, center, points, slots=slots, **kwargs)
        with pytest.raises(type(want)) as info:
            call(xyz)
        assert str(info.value) == str(want)
    want = first_error(u, center, points, **kwargs)
    with pytest.raises(type(want)) as info:
        pot.jet_at(points[0])
    return str(info.value)


# NaN gradients where y > 0: their segments never converge.
def nan_above(p):
    return ReducedPoint(NAN if p.y > 0.0 else 1.0, 0.0, 0.0)


ZERO_HESSIAN = ((0.0, 0.0, 0.0),) * 3
ORIGIN = ReducedPoint(0.0, 0.0, 0.0)
STUCK = ReducedPoint(0.3, 0.1, 0.2)


def test_a_completion_error_row_before_a_domain_error_row():
    u = ScalarField(lambda p: p.x, gradient=nan_above,
                    laplacian=lambda p: 0.0,
                    hessian=lambda p: ZERO_HESSIAN,
                    domain=lambda p: p.z < 1.0, name="nan-above")
    pot = monogenic_completion(u)
    outside = ReducedPoint(0.1, -0.2, 2.0)
    message = assert_raises_in_node_order(pot, u, ORIGIN, [STUCK, outside])
    # the default ladder m = 8, ..., 256 held to tol, then the cap at 512
    assert message == ("completion quadrature for nan-above stuck above "
                       "1e-08 at ReducedPoint(0.3, 0.1, 0.2) (order 512)")
    message = assert_raises_in_node_order(pot, u, ORIGIN, [outside, STUCK])
    assert "is not defined at ReducedPoint(0.1, -0.2, 2.0)" in message


def test_a_non_harmonic_row_before_a_nan_jet_row():
    u = ScalarField(lambda p: p.x, gradient=nan_above,
                    laplacian=lambda p: 1.0 if p.z < 0.0 else 0.0,
                    hessian=lambda p: ZERO_HESSIAN, name="half-harmonic")
    pot = monogenic_completion(u)
    bent = ReducedPoint(0.3, -0.1, -0.2)
    message = assert_raises_in_node_order(pot, u, ORIGIN, [bent, STUCK])
    # the row fails at its first segment point, the lowest node of K_17
    t = potentials._kronrod01(8)[0][0]
    first = ReducedPoint(*(t * np.array(bent.as_tuple())).tolist())
    assert message.startswith(f"completion input half-harmonic is not "
                              f"harmonic near {first!r}")
    message = assert_raises_in_node_order(pot, u, ORIGIN, [STUCK, bent])
    assert message.startswith("completion quadrature")
    assert message.endswith("(order 512)")


def test_within_a_row_the_lower_t_fails_first():
    # Far along the segment the Laplacian check fails; near the centre the
    # Hessian raises.  A jet meets the Hessian's error first, at the lowest
    # t; a value read calls no Hessian and meets the Laplacian's.
    def hessian(p):
        if p.norm() < 0.1:
            raise ZeroDivisionError(f"no hessian at {p!r}")
        return ZERO_HESSIAN

    u = ScalarField(lambda p: p.x, gradient=lambda p: (1.0, 0.0, 0.0),
                    laplacian=lambda p: 1.0 if p.norm() > 0.3 else 0.0,
                    hessian=hessian, name="two-faults")
    pot = monogenic_completion(u, order=4)
    rows = [ReducedPoint(0.4, 0.2, 0.1), ReducedPoint(0.1, 0.0, 0.0)]
    message = assert_raises_in_node_order(pot, u, ORIGIN, rows, order=4)
    assert message.startswith("no hessian at")
    with pytest.raises(ValueError) as info:
        pot.value_array(np.array([p.as_tuple() for p in rows]))
    assert str(info.value).startswith(
        "completion input two-faults is not harmonic near")


def test_an_empty_batch_has_no_rows():
    pot = monogenic_completion(harmonic_catalog()["xy"])
    assert pot.jet_array(np.empty((0, 3))).shape == (4, 0, 4)
    assert pot.value_array(np.empty((0, 3))).shape == (0, 4)


def test_a_segment_through_a_hole_names_the_field_checked_first():
    # The segment from the centre to p crosses a hole in u's domain.  The
    # harmonic check meets it first and names u.
    one_over_r = harmonic_catalog()["1/r"]

    def domain(p):
        return one_over_r.in_domain(p) and not (
            1.0 < p.x < 1.2 and abs(p.y) < 0.2 and abs(p.z) < 0.3)

    u = ScalarField(one_over_r, gradient=one_over_r.gradient_at,
                    laplacian=one_over_r.laplacian_at,
                    hessian=one_over_r.hessian_at, domain=domain,
                    name="holed")
    center = ReducedPoint(1.6, 0.1, -0.2)
    p = ReducedPoint(0.6, 0.0, 0.0)
    pot = monogenic_completion(u, center=center)
    with pytest.raises(DomainError) as at_point:
        pot.jet_at(p)
    with pytest.raises(DomainError) as on_array:
        pot.jet_array(np.array([p.as_tuple()]))
    # K_17's nodes 0 to 6 lie before the hole and node 7 in it
    ts = potentials._kronrod01(8)[0]
    c = np.array(center.as_tuple())
    q = c + ts[7] * (np.array(p.as_tuple()) - c)
    assert not domain(ReducedPoint(*q.tolist()))
    assert all(domain(ReducedPoint(*(c + t * (np.array(p.as_tuple()) - c))
                                   .tolist())) for t in ts[:7])
    assert str(at_point.value) == ("field holed is not defined at "
                                   f"{ReducedPoint(*q.tolist())!r}")
    assert str(on_array.value) == str(at_point.value)
    assert str(at_point.value) == str(first_error(u, center, [p]))


class Recorded:
    """u = xyz whose five forms log (form, point) in call order; a form
    named by ``missing`` is left out, so u takes its fallback."""

    FORMS = ("value", "gradient", "laplacian", "hessian", "domain")

    def __init__(self, domain=lambda p: True, missing=None):
        xyz = harmonic_catalog()["xyz"]
        self.log = []

        def recorded(form, method):
            def wrapper(p):
                self.log.append((form, p.as_tuple()))
                return method(p)
            return wrapper

        forms = dict(zip(self.FORMS, (xyz, xyz.gradient_at, xyz.laplacian_at,
                                      xyz.hessian_at, domain)))
        forms = {form: recorded(form, method) if form != missing else None
                 for form, method in forms.items()}
        self.field = ScalarField(forms.pop("value"), name="xyz", **forms)


SEGMENT_READS = ("domain", "laplacian", "hessian", "gradient")
# a value read's: no Hessian
VALUE_SEGMENT_READS = ("domain", "laplacian", "gradient")


def test_each_segment_point_reads_domain_laplacian_hessian_gradient():
    recorded = Recorded()
    center = ReducedPoint(0.2, -0.1, 0.3)
    pot = monogenic_completion(recorded.field, center=center)
    xyz = np.array([(0.5, 0.1, -0.2), (-0.1, 0.2, 0.6)])
    c = np.array(center.as_tuple())
    ts = potentials._kronrod01(8)[0]

    def jet_at(rows):
        return pot.jet_at(ReducedPoint(*rows[0].tolist()))

    def call(rows):
        return pot(ReducedPoint(*rows[0].tolist()))

    jet_reads = (SEGMENT_READS, ("gradient", "value"))
    value_reads = (VALUE_SEGMENT_READS, ("value",))
    for read, rows, (segment_reads, point_reads) in (
            (jet_at, xyz[:1], jet_reads), (pot.jet_array, xyz[:1], jet_reads),
            (pot.jet_array, xyz, jet_reads), (call, xyz[:1], value_reads),
            (pot.value_array, xyz[:1], value_reads),
            (pot.value_array, xyz, value_reads)):
        grid = (c + ts[:, None] * (rows - c)[:, None, :]).reshape(-1, 3)
        points = [tuple(p) for p in rows.tolist()]
        # the field's own domain check, the 17 nodes of K_17 of each row
        # (a polynomial converges at level 0), then u at the point: a jet
        # reads its gradient and value, a value read its value alone
        want = [("domain", p) for p in points]
        want += [(form, tuple(q)) for q in grid.tolist()
                 for form in segment_reads]
        want += [(form, p) for p in points for form in point_reads]
        recorded.log.clear()
        read(rows)
        assert recorded.log == want


def test_a_domain_failure_at_a_later_segment_point_raises_checks_error():
    # a slab of x outside u's domain holds node 4 of K_17 alone, so nodes
    # 0 to 3 read all four forms and node 4 its domain, which fails
    ts = potentials._kronrod01(8)[0]
    p = ReducedPoint(0.4, 0.2, -0.1)
    lo, hi = 0.2 * (ts[3] + ts[4]), 0.2 * (ts[4] + ts[5])
    recorded = Recorded(domain=lambda q: not lo < q.x < hi)
    pot = monogenic_completion(recorded.field)
    nodes = [tuple(q) for q in (ts[:, None] * np.array(p.as_tuple())).tolist()]
    with pytest.raises(DomainError) as want:
        recorded.field._check(ReducedPoint(*nodes[4]))
    assert str(want.value) == \
        f"field xyz is not defined at {ReducedPoint(*nodes[4])!r}"
    recorded.log.clear()
    with pytest.raises(DomainError) as got:
        pot.jet_at(p)
    assert str(got.value) == str(want.value)
    assert recorded.log == [("domain", p.as_tuple())] + [
        (form, q) for q in nodes[:4] for form in SEGMENT_READS] + [
        ("domain", nodes[4])]
    # the array forms, after their row-by-row rerun, raise the same
    for read in (pot.jet_array, pot.value_array):
        with pytest.raises(DomainError) as got:
            read(np.array([p.as_tuple()]))
        assert str(got.value) == str(want.value)


def test_a_gradient_of_any_sequence_kind_gives_the_same_bits():
    # u = x, whose gradient (1, 0, 0) every kind can carry, integers too
    x = harmonic_catalog()["x"]
    kinds = {"tuple": tuple, "ReducedPoint": lambda g: ReducedPoint(*g),
             "np.float64": lambda g: tuple(map(np.float64, g)), "list": list,
             "int": lambda g: [int(v) for v in g]}
    xyz = np.array([p.as_tuple() for p in SIGNED_ZERO_POINTS])
    got = {}
    for name, kind in kinds.items():
        u = ScalarField(x, laplacian=x.laplacian_at, hessian=x.hessian_at,
                        gradient=lambda p, kind=kind: kind(
                            x.gradient_at(p).as_tuple()), name="x")
        pot = monogenic_completion(u)
        got[name] = [exact(pot.jet_at(p)) for p in SIGNED_ZERO_POINTS]
        assert [exact(j) for j in table_jets(pot.jet_array(xyz))] == \
            got[name], name
    want = [exact(reference_jet(x, ORIGIN, p)) for p in SIGNED_ZERO_POINTS]
    assert got == dict.fromkeys(kinds, want)


# Calls into u, form by form, of one jet_at of the completion of xyz about
# (0.2, -0.1, 0.3) at (0.5, 0.1, -0.2) when u lacks one form.  Without a
# Hessian the Dbar u jet takes central differences of the gradient at six
# stencil points, each domain-checked; without a gradient that is
# central differences of u; without a Laplacian, the Hessian's trace.
FALLBACK_CALLS = {
    "hessian": {"domain": 1 + 17 * 7, "laplacian": 17,
                "gradient": 17 * 7 + 1, "value": 1},
    "gradient": {"domain": 1 + 17 * 7 + 6, "laplacian": 17, "hessian": 17,
                 "value": 17 * 6 + 6 + 1},
    "laplacian": {"domain": 1 + 17, "hessian": 2 * 17, "gradient": 17 + 1,
                  "value": 1},
}


@pytest.mark.parametrize("missing", sorted(FALLBACK_CALLS))
def test_a_scalar_without_a_form_keeps_its_fallbacks_bits_and_calls(missing):
    recorded = Recorded(missing=missing)
    center = ReducedPoint(0.2, -0.1, 0.3)
    p = ReducedPoint(0.5, 0.1, -0.2)
    pot = monogenic_completion(recorded.field, center=center)
    recorded.log.clear()
    jet = pot.jet_at(p)
    calls = Counter(form for form, _ in recorded.log)
    assert calls == FALLBACK_CALLS[missing]
    assert exact(jet) == exact(reference_jet(recorded.field, center, p))
