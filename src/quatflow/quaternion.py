"""Hamilton quaternion arithmetic and the reduced-quaternion model of 3-space.

The algebra uses the basis (1, i, j, k) with i*i = j*j = k*k = ijk = -1,
hence ij = k = -ji and cyclically.  A quaternion whose k-component
vanishes, x + y*i + z*j, is called reduced and is identified with the
point (x, y, z) of 3-space.  Vector geometry (dot, cross, distances)
lives on :class:`ReducedPoint`; the noncommutative algebra lives on
:class:`Quaternion`.  :func:`qmul` and :func:`qconj` apply the same
algebra to component-first numpy operands, one row per component
(``qmul`` also reads three rows as a reduced quaternion, k = 0).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Quaternion",
    "ReducedPoint",
    "cross",
    "qmul",
    "qconj",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "BASIS",
]


class Quaternion:
    """A quaternion q0 + q1*i + q2*j + q3*k with float components.

    Instances are treated as immutable values; all operators return new
    objects.  Scalars (int/float) broadcast into the q0 slot where that
    makes sense (addition, subtraction) and act by scaling under ``*``.
    """

    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        self.q0 = float(q0)
        self.q1 = float(q1)
        self.q2 = float(q2)
        self.q3 = float(q3)

    # ------------------------------------------------------------------
    # ring structure
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                              self.q2 + other.q2, self.q3 + other.q3)
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 + other, self.q1, self.q2, self.q3)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                              self.q2 - other.q2, self.q3 - other.q3)
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 - other, self.q1, self.q2, self.q3)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(other - self.q0, -self.q1, -self.q2, -self.q3)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
            b0, b1, b2, b3 = other.q0, other.q1, other.q2, other.q3
            return Quaternion(
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 * other, self.q1 * other,
                              self.q2 * other, self.q3 * other)
        return NotImplemented

    def __rmul__(self, other):
        # only scalars reach here; quaternion*quaternion is handled above
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 * other, self.q1 * other,
                              self.q2 * other, self.q3 * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.q0 / other, self.q1 / other,
                              self.q2 / other, self.q3 / other)
        return NotImplemented

    # ------------------------------------------------------------------
    # involution and metric
    # ------------------------------------------------------------------
    def conjugate(self) -> "Quaternion":
        return Quaternion(self.q0, -self.q1, -self.q2, -self.q3)

    def norm_sq(self) -> float:
        return (self.q0 * self.q0 + self.q1 * self.q1
                + self.q2 * self.q2 + self.q3 * self.q3)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def scalar_part(self) -> float:
        return self.q0

    def vector_part(self) -> "Quaternion":
        return Quaternion(0.0, self.q1, self.q2, self.q3)

    def inner(self, other: "Quaternion") -> float:
        """Euclidean inner product, the scalar part of self * conj(other)."""
        return (self.q0 * other.q0 + self.q1 * other.q1
                + self.q2 * other.q2 + self.q3 * other.q3)

    # ------------------------------------------------------------------
    # reduced-quaternion view
    # ------------------------------------------------------------------
    def is_reduced(self, tol: float = 1e-12) -> bool:
        return abs(self.q3) <= tol * (1.0 + self.norm())

    def to_point(self, tol: float | None = None) -> "ReducedPoint":
        """Drop into R^3 as (q0, q1, q2).

        With ``tol`` given, a k-component above tol*(1+|q|) is rejected.
        """
        if tol is not None and not self.is_reduced(tol):
            raise ValueError(
                f"quaternion {self!r} has a k-component and is not reduced")
        return ReducedPoint(self.q0, self.q1, self.q2)

    def as_tuple(self):
        return (self.q0, self.q1, self.q2, self.q3)

    def isclose(self, other: "Quaternion", rel: float = 1e-12,
                abs_tol: float = 0.0) -> bool:
        return (self - other).norm() <= abs_tol + rel * max(self.norm(),
                                                            other.norm())

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return (f"Quaternion({self.q0!r}, {self.q1!r}, "
                f"{self.q2!r}, {self.q3!r})")


class ReducedPoint:
    """A point (x, y, z) of 3-space, alias the reduced quaternion x+y*i+z*j."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x=0.0, y=0.0, z=0.0):
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    # vector space operations
    def __add__(self, other):
        if isinstance(other, ReducedPoint):
            return ReducedPoint(self.x + other.x, self.y + other.y,
                                self.z + other.z)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ReducedPoint):
            return ReducedPoint(self.x - other.x, self.y - other.y,
                                self.z - other.z)
        return NotImplemented

    def __neg__(self):
        return ReducedPoint(-self.x, -self.y, -self.z)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return ReducedPoint(self.x * s, self.y * s, self.z * s)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, s):
        if isinstance(s, (int, float)):
            return ReducedPoint(self.x / s, self.y / s, self.z / s)
        return NotImplemented

    def dot(self, other: "ReducedPoint") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "ReducedPoint") -> "ReducedPoint":
        """Vector product, expanded along the reduced basis (1, i, j)."""
        return ReducedPoint(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    __abs__ = norm

    def distance_to(self, other: "ReducedPoint") -> float:
        return (self - other).norm()

    def unit(self) -> "ReducedPoint":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return self / n

    def to_quaternion(self) -> Quaternion:
        return Quaternion(self.x, self.y, self.z, 0.0)

    @classmethod
    def from_quaternion(cls, q: Quaternion, tol: float = 1e-9) -> "ReducedPoint":
        return q.to_point(tol)

    def as_tuple(self):
        return (self.x, self.y, self.z)

    def isclose(self, other: "ReducedPoint", rel: float = 1e-12,
                abs_tol: float = 0.0) -> bool:
        return (self - other).norm() <= abs_tol + rel * max(self.norm(),
                                                            other.norm())

    def __eq__(self, other):
        if isinstance(other, ReducedPoint):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"ReducedPoint({self.x!r}, {self.y!r}, {self.z!r})"


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
BASIS = (ONE, I, J, K)


def _as_point(r, what: str) -> ReducedPoint:
    if isinstance(r, ReducedPoint):
        return r
    if isinstance(r, Quaternion):
        if not r.is_reduced(1e-12):
            raise ValueError(f"{what} must be reduced (zero k-component), got {r!r}")
        return ReducedPoint(r.q0, r.q1, r.q2)
    raise TypeError(f"{what} must be a ReducedPoint or reduced Quaternion")


def cross(r, s) -> ReducedPoint:
    """Cross product of two reduced quaternions / points.

    Expanding the formal determinant with first row (1, i, j) gives the
    usual vector product carried back to the reduced basis.  Quaternion
    inputs with a nonzero k-component are rejected.
    """
    return _as_point(r, "cross operand").cross(_as_point(s, "cross operand"))


def _rows(q):
    """The four component rows of a component-first operand; three rows are
    the reduced quaternion x + y i + z j, whose k is the literal 0.0."""
    return q if len(q) == 4 else (*q, 0.0)


def qmul(p, q) -> np.ndarray:
    """Hamilton product of component-first operands ((4, ...) arrays, four
    component rows, or three rows of a reduced quaternion, k = 0.0) as a
    broadcast (4, ...) array, each entry formed by the expressions of
    ``Quaternion.__mul__`` in order, so equal to it bit for bit."""
    p, q = tuple(_rows(p)), tuple(_rows(q))
    a0, a1, a2, a3 = p
    b0, b1, b2, b3 = q
    return np.stack((a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                     *_vector_rows(p, q)))


def _vector_rows(p, q) -> tuple:
    """The i, j and k components of ``qmul(p, q)``, by its expressions, for
    a caller that would discard the scalar part."""
    a0, a1, a2, a3 = _rows(p)
    b0, b1, b2, b3 = _rows(q)
    return (a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


_CONJUGATION = np.array([1.0, -1.0, -1.0, -1.0])


def qconj(q) -> np.ndarray:
    """Conjugate of a component-first (4, ...) array, in its memory order."""
    return (np.asarray(q, dtype=float).T * _CONJUGATION).T
