"""Arithmetic laws of the quaternion layer."""

import math
import random

import numpy as np
import pytest

from quatflow import (
    BASIS,
    I,
    J,
    K,
    ONE,
    Quaternion,
    ReducedPoint,
    cross,
)
from quatflow.quaternion import qconj, qmul


def random_quaternion(rng, span=2.0):
    return Quaternion(rng.uniform(-span, span), rng.uniform(-span, span),
                      rng.uniform(-span, span), rng.uniform(-span, span))


def test_basis_multiplication_table():
    # ij = k and cyclic; squares of the imaginary units are -1.
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    for e in BASIS:
        assert ONE * e == e
        assert e * ONE == e


def test_product_components_against_expanded_formula():
    p = Quaternion(1.0, 2.0, 3.0, 4.0)
    q = Quaternion(-2.0, 0.5, 1.5, -1.0)
    r = p * q
    a0, a1, a2, a3 = p.as_tuple()
    b0, b1, b2, b3 = q.as_tuple()
    assert r.q0 == a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    assert r.q1 == a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    assert r.q2 == a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    assert r.q3 == a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0


def test_associativity_random_triples():
    rng = random.Random(20240301)
    for _ in range(500):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        r = random_quaternion(rng)
        left = (p * q) * r
        right = p * (q * r)
        scale = max(1.0, left.norm())
        assert (left - right).norm() <= 1e-12 * scale


def test_conjugate_reverses_products():
    rng = random.Random(77)
    for _ in range(200):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        lhs = (p * q).conjugate()
        rhs = q.conjugate() * p.conjugate()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_norm_is_multiplicative():
    rng = random.Random(4242)
    for _ in range(500):
        p = random_quaternion(rng)
        q = random_quaternion(rng)
        assert math.isclose((p * q).norm(), p.norm() * q.norm(),
                            rel_tol=1e-12, abs_tol=1e-300)


def test_norm_squared_equals_self_conjugate_product():
    q = Quaternion(0.3, -1.2, 0.7, 2.1)
    prod = q * q.conjugate()
    assert math.isclose(prod.q0, q.norm_sq(), rel_tol=1e-14)
    assert prod.vector_part().norm() <= 1e-14


def test_scalar_vector_split():
    q = Quaternion(1.5, -0.5, 2.0, 3.0)
    assert q.q0 == 1.5
    assert q.vector_part() == Quaternion(0.0, -0.5, 2.0, 3.0)
    assert q.scalar_part() + 0.0 == 1.5
    assert q == q.vector_part() + Quaternion(q.q0)


def test_inner_product_matches_component_sum():
    p = Quaternion(1.0, 2.0, 3.0, 4.0)
    q = Quaternion(0.5, -1.0, 0.25, 2.0)
    expected = 1.0 * 0.5 + 2.0 * -1.0 + 3.0 * 0.25 + 4.0 * 2.0
    assert p.inner(q) == expected
    assert math.isclose(q.inner(q), q.norm_sq(), rel_tol=1e-15)


def test_scalar_multiplication_and_division():
    q = Quaternion(1.0, -2.0, 0.5, 4.0)
    assert 2.0 * q == q * 2.0
    assert (q / 2.0) * 2.0 == q
    with pytest.raises(ZeroDivisionError):
        q / 0.0


def test_reduced_frame_sandwich_identity():
    # q + iqi + jqj = -conj(q) holds exactly when the k slot vanishes;
    # a nonzero k slot leaves a residual of 2 q3 k.
    rng = random.Random(9090)
    for _ in range(100):
        q = Quaternion(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2), 0.0)
        total = q + I * q * I + J * q * J
        assert (total - (-q.conjugate())).norm() == 0.0
        assert q.is_reduced()
    full = Quaternion(1.0, 2.0, 3.0, 4.0)
    gap = (full + I * full * I + J * full * J) - (-full.conjugate())
    assert gap == Quaternion(0.0, 0.0, 0.0, 2.0 * full.q3)
    assert not full.is_reduced()


def test_reduced_point_round_trip():
    p = ReducedPoint(1.0, -2.5, 0.75)
    q = p.to_quaternion()
    assert q == Quaternion(1.0, -2.5, 0.75, 0.0)
    assert ReducedPoint.from_quaternion(q) == p
    assert q.to_point() == p
    with pytest.raises(ValueError):
        ReducedPoint.from_quaternion(Quaternion(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        Quaternion(0.0, 0.0, 0.0, 1.0).to_point(tol=1e-12)


def test_reduced_point_vector_operations():
    a = ReducedPoint(1.0, 0.0, 0.0)
    b = ReducedPoint(0.0, 1.0, 0.0)
    assert a.cross(b) == ReducedPoint(0.0, 0.0, 1.0)
    assert b.cross(a) == ReducedPoint(0.0, 0.0, -1.0)
    assert a.dot(b) == 0.0
    assert (a + b).norm() == math.sqrt(2.0)
    assert (a - b).norm_sq() == 2.0
    assert (a * 3.0).x == 3.0
    assert a.distance_to(b) == math.sqrt(2.0)


def test_cross_of_random_vectors_is_orthogonal():
    rng = random.Random(55)
    for _ in range(100):
        a = ReducedPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-1, 1))
        b = ReducedPoint(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-1, 1))
        c = cross(a, b)
        assert abs(c.dot(a)) <= 1e-14
        assert abs(c.dot(b)) <= 1e-14


def test_cross_reads_reduced_quaternions_and_refuses_other_operands():
    a, b = ReducedPoint(0.3, -1.2, 0.7), ReducedPoint(-0.4, 0.5, 2.0)
    expected = a.cross(b)
    for r, s in ((Quaternion(0.3, -1.2, 0.7, 0.0), b),
                 (a, Quaternion(-0.4, 0.5, 2.0, 0.0)),
                 (Quaternion(0.3, -1.2, 0.7, 0.0),
                  Quaternion(-0.4, 0.5, 2.0, 0.0))):
        got = cross(r, s)
        assert isinstance(got, ReducedPoint)
        assert got.as_tuple() == expected.as_tuple()
    with pytest.raises(ValueError, match="must be reduced"):
        cross(Quaternion(0.3, -1.2, 0.7, 0.5), b)
    with pytest.raises(ValueError, match="must be reduced"):
        cross(a, Quaternion(-0.4, 0.5, 2.0, -1e-3))
    with pytest.raises(TypeError):
        cross((0.3, -1.2, 0.7), b)


def test_a_real_operand_acts_on_the_scalar_part():
    q = Quaternion(1.0, -2.0, 0.5, 3.0)
    assert (q + 2.0).as_tuple() == (3.0, -2.0, 0.5, 3.0)
    assert (2.0 + q).as_tuple() == (3.0, -2.0, 0.5, 3.0)
    assert (q - 2.0).as_tuple() == (-1.0, -2.0, 0.5, 3.0)
    assert (2.0 - q).as_tuple() == (1.0, 2.0, -0.5, -3.0)


@pytest.mark.parametrize("op", [
    lambda a: a + "x", lambda a: a - "x", lambda a: "x" - a,
    lambda a: a * "x", lambda a: None * a, lambda a: a / "x",
])
@pytest.mark.parametrize("value", [Quaternion(1.0, 2.0),
                                   ReducedPoint(1.0, 2.0, 3.0)])
def test_an_unsupported_operand_raises_type_error(op, value):
    with pytest.raises(TypeError):
        op(value)


def test_isclose_reads_the_relative_and_absolute_tolerances():
    q = Quaternion(1.0, 2.0, 2.0, 4.0)   # norm 5
    assert q.isclose(q + Quaternion(4e-12))
    assert not q.isclose(q + Quaternion(6e-12))
    assert q.isclose(q + Quaternion(1e-3), abs_tol=1e-3)
    p = ReducedPoint(3.0, 4.0, 0.0)      # norm 5
    assert p.isclose(p + ReducedPoint(0.0, 0.0, 4e-12))
    assert not p.isclose(p + ReducedPoint(0.0, 0.0, 6e-12))
    assert p.isclose(p + ReducedPoint(1e-3, 0.0, 0.0), abs_tol=1e-3)


def test_point_negation_unit_and_hash():
    p = ReducedPoint(3.0, -4.0, 0.0)
    assert (-p).as_tuple() == (-3.0, 4.0, -0.0)
    assert p.unit() == ReducedPoint(0.6, -0.8, 0.0)
    with pytest.raises(ZeroDivisionError, match="zero vector"):
        ReducedPoint().unit()
    same = ReducedPoint(3.0, -4.0, 0.0)
    assert hash(same) == hash(p)
    assert len({p, same}) == 1


def test_repr_round_trips_through_eval():
    q = Quaternion(1.0, -2.0, 0.5, 0.0)
    assert eval(repr(q), {"Quaternion": Quaternion}) == q
    p = ReducedPoint(0.25, -1.0, 3.0)
    assert eval(repr(p), {"ReducedPoint": ReducedPoint}) == p


def test_quaternion_hash_consistent_with_equality():
    a = Quaternion(1.0, 2.0, 3.0, 4.0)
    b = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


SPECIALS = (0.0, -0.0, 1.0, -2.5, 0.75, math.inf, -math.inf, math.nan,
            5e-324, 1e308)


def special_quaternions(rng, count):
    """Components drawn from SPECIALS and from a random spread."""
    def component():
        if rng.random() < 0.5:
            return rng.choice(SPECIALS)
        return rng.uniform(-3.0, 3.0)
    return [Quaternion(*(component() for _ in range(4)))
            for _ in range(count)]


def float_bits(values):
    """The IEEE bit patterns: NaN, -0.0 and infinities compare exactly."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_qmul_on_component_rows_equals_the_scalar_product_bit_for_bit():
    rng = random.Random(31)
    ps, qs = special_quaternions(rng, 400), special_quaternions(rng, 400)
    expected = [(p * q).as_tuple() for p, q in zip(ps, qs)]
    rows_p = np.array([p.as_tuple() for p in ps]).T   # (4, N)
    rows_q = np.array([q.as_tuple() for q in qs]).T
    with np.errstate(all="ignore"):
        got = qmul(rows_p, rows_q)
        # four separate rows, and a (4, N) array against them
        as_rows = qmul(tuple(rows_p), list(rows_q))
    assert got.shape == (4, 400)
    assert float_bits(got.T) == float_bits(expected)
    assert float_bits(as_rows) == float_bits(got)
    # three rows are a reduced quaternion: its k is 0.0 in every product
    reduced = [Quaternion(*p.as_tuple()[:3], 0.0) for p in ps]
    reduced_q = [Quaternion(*q.as_tuple()[:3], 0.0) for q in qs]
    for left, right, pairs in ((rows_p[:3], rows_q, zip(reduced, qs)),
                               (rows_p, rows_q[:3], zip(ps, reduced_q)),
                               (rows_p[:3], tuple(rows_q[:3]),
                                zip(reduced, reduced_q))):
        with np.errstate(all="ignore"):
            got = qmul(left, right)
        assert got.shape == (4, 400)
        assert float_bits(got.T) == float_bits(
            [(p * q).as_tuple() for p, q in pairs])
    for rows in (rows_p[:2], np.vstack((rows_p, rows_p[:1]))):
        with pytest.raises(ValueError):
            qmul(rows, rows_q)
        with pytest.raises(ValueError):
            qmul(rows_q, rows)


def test_qmul_broadcasts_a_constant_quaternion_against_rows():
    rng = random.Random(32)
    ps = special_quaternions(rng, 200)
    rows = np.array([p.as_tuple() for p in ps]).T
    for unit in (ONE, I, J, K, Quaternion(0.0, -1.0, 0.0, 0.0)):
        with np.errstate(all="ignore"):
            right = qmul(rows, unit.as_tuple())
            left = qmul(unit.as_tuple(), rows)
        assert float_bits(right.T) == float_bits(
            [(p * unit).as_tuple() for p in ps])
        assert float_bits(left.T) == float_bits(
            [(unit * p).as_tuple() for p in ps])


def test_qconj_on_component_rows_matches_the_scalar_conjugate():
    rng = random.Random(33)
    ps = [p for p in special_quaternions(rng, 200)
          if not any(map(math.isnan, p.as_tuple()))]
    rows = np.array([p.as_tuple() for p in ps]).T
    assert float_bits(qconj(rows).T) == float_bits(
        [p.conjugate().as_tuple() for p in ps])
    stacked = np.stack([rows, rows[:, ::-1]], axis=1)   # (4, 2, N)
    assert float_bits(qconj(stacked)) == float_bits(
        np.stack([qconj(rows), qconj(rows[:, ::-1])], axis=1))
