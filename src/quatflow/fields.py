"""Scalar and quaternion-valued fields with first-derivative jets.

The central object is the generalized Cauchy-Riemann operator

    D = d/dx + i d/dy + j d/dz

acting on quaternion-valued functions of a reduced-quaternion variable,
together with its conjugate Dbar and the right-hand variants (units
multiplied on the right of the coordinate partials).  A field with
D f = 0 is called (left) monogenic; componentwise this is the
Moisil-Theodorescu system of four first-order equations.

Derivatives come either from caller-supplied analytic formulas or from
central finite differences; every operator consumes the jet, so analytic
and FD-backed fields share one code path.

A field may also carry array forms: a jet on an (N, 3) array of points
returning a (4, N, 4) array (value, d/dx, d/dy, d/dz; quaternion
components last), the values alone as an (N, 4) array, and an array
domain predicate.  Quadrature routes use them to evaluate a whole chart
in one call; fields without them are evaluated point by point through
the scalar jet.  A closed form written once over coordinate columns
(``_closed_form``) gives a field all of its scalar and array forms;
``coordinate_field``, the reduced coordinate x + y i + z j, is built
that way.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .quaternion import Quaternion, ReducedPoint, I, J, qconj
from .surfaces import _frozen, as_points, in_node_order, node_rows

__all__ = [
    "DomainError",
    "Jet",
    "QuaternionField",
    "ScalarField",
    "scalar_dbar_field",
    "coordinate_field",
    "apply_D",
    "apply_Dbar",
    "apply_D_right",
    "apply_Dbar_right",
    "laplacian",
    "euler_operator",
    "moisil_theodorescu_residual",
    "MonogenicityReport",
    "is_monogenic",
    "default_monogenicity_tol",
    "harmonic_catalog",
    "FD_STEP",
    "FD_STEP2",
    "DEFAULT_EXCLUSION",
]

# Central-difference step sizes, scaled per coordinate by max(1, |coordinate|).
FD_STEP = 1e-5
FD_STEP2 = 1e-4
# Radius of the default excluded ball around point singularities.
DEFAULT_EXCLUSION = 1e-8


# A function of an (N, 3) point array returning an array over its N rows.
ArrayMap = Callable[[np.ndarray], np.ndarray]

# Jet tables a field keeps: the box's six charts, the most of any body.
_TABLES_KEPT = 6


class DomainError(ValueError):
    """Evaluation was requested outside a field's domain of definition."""


class Jet(NamedTuple):
    """Value and first coordinate partials of a quaternion field at a point."""

    value: Quaternion
    dx: Quaternion
    dy: Quaternion
    dz: Quaternion


def _checked(field, xyz: np.ndarray) -> np.ndarray:
    """xyz, after DomainError at its first row outside the field's domain."""
    if field._domain is not None:
        inside = field.in_domain_array(xyz)
        if not inside.all():
            p = ReducedPoint(*xyz[int(np.argmin(inside))].tolist())
            raise DomainError(
                f"field {field.name or '<anonymous>'} is not defined at {p!r}")
    return xyz


def _lift(op, *forms):
    """The array form xyz -> op(form(xyz), ...), or None if a form is None."""
    if any(form is None for form in forms):
        return None
    return lambda xyz: op(*(form(xyz) for form in forms))


def _lifted_field(name: str, op, array_op, *fields) -> "QuaternionField":
    """The field p -> op(f(p), ...) of the operand fields, named ``name``.

    ``op`` combines the operands' quaternions and ``array_op`` their
    arrays.  The scalar jet applies ``op`` slot by slot to the operands'
    jets, and the array jet and value-only array form apply ``array_op``
    to their tables; each exists where every operand has it.  The domain,
    point and array, is the intersection of the operands' domains.
    """
    jets = [f._jet for f in fields]
    jet = None
    if all(j is not None for j in jets):
        def jet(p: ReducedPoint) -> Jet:
            return Jet(*map(op, *(j(p) for j in jets)))
    bounded = [f for f in fields if f._domain is not None]
    domain = domain_array = None
    if len(bounded) == 1:
        domain, domain_array = bounded[0]._domain, bounded[0]._domain_array
    elif bounded:
        def domain(p: ReducedPoint) -> bool:
            return all(f._domain(p) for f in bounded)

        def domain_array(xyz: np.ndarray) -> np.ndarray:
            return np.logical_and.reduce([f.in_domain_array(xyz)
                                          for f in bounded])
    return QuaternionField(
        lambda p: op(*(f._evaluate(p) for f in fields)), jet=jet,
        domain=domain, name=name,
        jet_array=_lift(array_op, *(f._jet_array for f in fields)),
        domain_array=domain_array,
        value_array=_lift(array_op, *(f._value_array for f in fields)))


def _fd_steps(p: ReducedPoint, scale: float) -> tuple[float, float, float]:
    return (scale * max(1.0, abs(p.x)),
            scale * max(1.0, abs(p.y)),
            scale * max(1.0, abs(p.z)))


def _fd_stencil(fn, p: ReducedPoint, scale: float, field=None) -> list:
    """fn on the central-difference stencil at p, axis by axis.

    Returns [(h, fn(p + h e), fn(p - h e))] for e = x, y, z with the steps
    of ``_fd_steps``, calling fn in that order.  With ``field`` given, a
    stencil point outside its domain raises DomainError before fn runs.
    """
    hx, hy, hz = _fd_steps(p, scale)
    axes = ((hx, ReducedPoint(p.x + hx, p.y, p.z),
             ReducedPoint(p.x - hx, p.y, p.z)),
            (hy, ReducedPoint(p.x, p.y + hy, p.z),
             ReducedPoint(p.x, p.y - hy, p.z)),
            (hz, ReducedPoint(p.x, p.y, p.z + hz),
             ReducedPoint(p.x, p.y, p.z - hz)))
    if field is not None:
        for _, plus, minus in axes:
            if not (field.in_domain(plus) and field.in_domain(minus)):
                raise DomainError(
                    f"finite-difference stencil of "
                    f"{field.name or '<anonymous>'} leaves the domain near "
                    f"{p!r}")
    return [(h, fn(plus), fn(minus)) for h, plus, minus in axes]


class _Field:
    """What both field classes share: a ``name``, a domain predicate
    ``_domain`` (None for everywhere) with its optional (N, 3) array form
    ``_domain_array``, and an optional value-only array form
    ``_value_array``, which assumes the points lie in the domain."""

    def in_domain(self, p: ReducedPoint) -> bool:
        return self._domain is None or self._domain(p)

    def in_domain_array(self, xyz: np.ndarray) -> np.ndarray:
        """``in_domain`` for every row of an (N, 3) array, as (N,) bools."""
        if self._domain is None:
            return np.ones(len(xyz), dtype=bool)
        if self._domain_array is not None:
            return np.asarray(self._domain_array(xyz), dtype=bool)
        return np.array([bool(self._domain(p)) for p in as_points(xyz)],
                        dtype=bool)

    def _check(self, p: ReducedPoint) -> None:
        if not self.in_domain(p):
            raise DomainError(
                f"field {self.name or '<anonymous>'} is not defined at {p!r}")

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, 3) array: (N, 4) quaternion rows or
        (N,) reals, from the value-only array form, or else the field row by
        row.  An error is the one the field meets first row by row."""
        if self._value_array is None:
            return node_rows(self, xyz)
        return in_node_order(
            lambda xyz: self._value_array(_checked(self, xyz)), self, xyz)


class QuaternionField(_Field):
    """A quaternion-valued function of a point, with an optional analytic jet.

    Parameters
    ----------
    evaluate : callable
        Maps a ReducedPoint to a Quaternion.
    jet : callable, optional
        Maps a ReducedPoint to a :class:`Jet`.  When omitted, jets are
        formed by central differences of ``evaluate`` with step
        ``FD_STEP * max(1, |coordinate|)`` per axis.
    domain : callable, optional
        Predicate marking where the field may be evaluated.  Violations
        raise :class:`DomainError`.
    jet_array : callable, optional
        The analytic jet on an (N, 3) point array, returning a (4, N, 4)
        array that matches ``jet`` row by row.  Requires ``jet``.
    domain_array : callable, optional
        ``domain`` on an (N, 3) point array, returning (N,) booleans.
    value_array : callable, optional
        The values alone on an (N, 3) point array, returning the (N, 4)
        value slot of ``jet_array`` without computing the partials.  It
        defaults to that slot of ``jet_array``.

    The domain checks and ``value_array`` come from the base shared with
    :class:`ScalarField`.  ``_closed_form`` derives every form from one
    closed form; sums, multiples and conjugates lift the operands' forms
    (``_lifted_field``).
    """

    # True when jet_array forms each row with the scalar jet's own
    # arithmetic, so that it equals jet_at bit for bit (set by
    # ``scalar_dbar_field`` and ``monogenic_completion``).  A closed form
    # rounds differently on numpy columns than on floats at some points.
    _array_jet_is_rowwise = False

    def __init__(self, evaluate: Callable[[ReducedPoint], Quaternion],
                 jet: Optional[Callable[[ReducedPoint], Jet]] = None,
                 domain: Optional[Callable[[ReducedPoint], bool]] = None,
                 name: str = "",
                 jet_array: Optional[ArrayMap] = None,
                 domain_array: Optional[ArrayMap] = None,
                 value_array: Optional[ArrayMap] = None):
        if jet_array is not None and jet is None:
            raise ValueError("an array jet needs the scalar jet beside it")
        if value_array is None and jet_array is not None:
            def value_array(xyz):
                return jet_array(xyz)[0]
        self._evaluate = evaluate
        self._jet = jet
        self._domain = domain
        self._jet_array = jet_array
        self._domain_array = domain_array
        self._value_array = value_array
        self.name = name
        self._tables: dict[int, tuple] = {}   # see jet_table

    @property
    def has_analytic_jet(self) -> bool:
        return self._jet is not None

    @property
    def has_array_jet(self) -> bool:
        return self._jet_array is not None

    def jet_array(self, xyz: np.ndarray) -> np.ndarray:
        """Jets at the rows of an (N, 3) array as a (4, N, 4) array.

        Index 0 of the first axis is the value, 1 to 3 the partials along
        x, y, z.  Fields without an array jet call ``jet_at`` row by row.
        An error is the one ``jet_at`` meets first row by row, so
        DomainError names the first row outside the domain.
        """
        if self._jet_array is None:
            return _jet_rows(lambda p: _jet_entries(self.jet_at(p)), xyz)
        return in_node_order(
            lambda xyz: self._jet_array(_checked(self, xyz)), self.jet_at, xyz)

    def jet_table(self, xyz: np.ndarray) -> np.ndarray:
        """``jet_array(xyz)``, remembered by the identity of xyz when it and
        the data it views are read-only (as ``ChartNodes.point_array`` is).
        Remembered tables are read-only and kept, each beside its xyz so
        that no other array takes that id, for the ``_TABLES_KEPT`` most
        recently used arrays.  An error stores nothing."""
        base = xyz
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:   # a writable array, or data numpy cannot see
            return self.jet_array(xyz)
        entry = self._tables.pop(id(xyz), None)
        if entry is None:
            entry = (xyz, _frozen(self.jet_array(xyz)))
            if len(self._tables) == _TABLES_KEPT:
                self._tables.pop(next(iter(self._tables)), None)
        self._tables[id(xyz)] = entry
        return entry[1]

    def __call__(self, p: ReducedPoint) -> Quaternion:
        self._check(p)
        return self._evaluate(p)

    def jet_at(self, p: ReducedPoint) -> Jet:
        self._check(p)
        if self._jet is not None:
            return self._jet(p)
        return self._fd_jet(p)

    def _fd_jet(self, p: ReducedPoint) -> Jet:
        partials = [(plus - minus) / (2.0 * h) for h, plus, minus
                    in _fd_stencil(self._evaluate, p, FD_STEP, self)]
        return Jet(self._evaluate(p), *partials)

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def __add__(self, other: "QuaternionField") -> "QuaternionField":
        if not isinstance(other, QuaternionField):
            return NotImplemented
        return _lifted_field(f"({self.name}+{other.name})", operator.add,
                             np.add, self, other)

    def __mul__(self, s):
        if not isinstance(s, (int, float)):
            return NotImplemented

        def times(q, factor=float(s)):   # a quaternion or an array
            return q * factor
        return _lifted_field(f"{s}*{self.name}", times, times, self)

    __rmul__ = __mul__

    def conjugated(self) -> "QuaternionField":
        """The field p -> conj(f(p)), jets conjugated componentwise."""
        return _lifted_field(f"conj({self.name})", Quaternion.conjugate,
                             qconj, self)

    def without_analytic_jet(self) -> "QuaternionField":
        """A copy that always differentiates by finite differences."""
        return QuaternionField(self._evaluate, jet=None, domain=self._domain,
                               name=self.name,
                               domain_array=self._domain_array)


def _closed_form(value, partials, domain=None, name="") -> QuaternionField:
    """A field from one closed form written over coordinate columns.

    ``value(x, y, z, xp)`` returns the four components of the field,
    ``partials(x, y, z, xp)`` the twelve of its x, y and z partials (four
    each) and ``domain(x, y, z, xp)`` where it is defined.  ``xp`` is
    ``math`` when x, y, z are the floats of one point and ``numpy`` when
    they are the (N,) columns of a point array.  The scalar value and jet
    run on floats; the array jet, the value-only array form and the array
    domain run on columns.
    """
    def evaluate(p: ReducedPoint) -> Quaternion:
        return Quaternion(*value(p.x, p.y, p.z, math))

    def jet(p: ReducedPoint) -> Jet:
        d = partials(p.x, p.y, p.z, math)
        return Jet(evaluate(p), Quaternion(*d[:4]), Quaternion(*d[4:8]),
                   Quaternion(*d[8:]))

    point_domain = None
    if domain is not None:
        def point_domain(p: ReducedPoint) -> bool:
            return domain(p.x, p.y, p.z, math)

    def fill(out: np.ndarray, entries) -> np.ndarray:
        for idx, entry in enumerate(entries):
            out[idx // 4, :, idx % 4] = entry
        return out

    def jet_array(xyz: np.ndarray) -> np.ndarray:
        # the value's columns are stored before the partials run, so they
        # are not held beside the partials' temporaries
        x, y, z = xyz.T
        out = fill(np.empty((4, len(xyz), 4)), value(x, y, z, np))
        fill(out[1:], partials(x, y, z, np))
        return out

    def value_array(xyz: np.ndarray) -> np.ndarray:
        return fill(np.empty((1, len(xyz), 4)), value(*xyz.T, np))[0]

    domain_array = None if domain is None else \
        (lambda xyz: domain(*xyz.T, np))
    return QuaternionField(evaluate, jet=jet, domain=point_domain, name=name,
                           jet_array=jet_array, domain_array=domain_array,
                           value_array=value_array)


class ScalarField(_Field):
    """A real-valued function of a point with optional analytic derivatives.

    ``gradient`` maps a point to a ReducedPoint or three numbers;
    ``hessian`` to a 3x3 nested sequence (row-major, symmetric);
    ``laplacian`` to a float.
    Missing derivatives fall back to central differences with steps
    ``FD_STEP`` (first order) and ``FD_STEP2`` (second order).
    ``evaluate_array`` and ``domain_array`` are optional array forms of
    ``evaluate`` and ``domain`` on (N, 3) point arrays; the domain checks
    and ``value_array`` come from the base shared with
    :class:`QuaternionField`, so ``value_array`` raises the error the
    field meets first row by row.

    Every public method checks the domain at its point first.  Code that
    works on a batch of points checks the domain once for the whole
    batch (``_checked``) and then calls the private unchecked bodies
    (``_gradient_unchecked``, ``_hessian_unchecked``,
    ``_laplacian_unchecked``) row by row, so the predicate runs once per
    point rather than once per derivative.
    """

    def __init__(self, evaluate: Callable[[ReducedPoint], float],
                 gradient=None, laplacian=None, hessian=None,
                 domain=None, name: str = "", evaluate_array=None,
                 domain_array=None):
        self._evaluate = evaluate
        self._gradient = gradient
        self._laplacian = laplacian
        self._hessian = hessian
        self._domain = domain
        self._value_array = evaluate_array
        self._domain_array = domain_array
        self.name = name

    @property
    def has_analytic_hessian(self) -> bool:
        return self._hessian is not None

    @property
    def has_analytic_laplacian(self) -> bool:
        return self._laplacian is not None or self._hessian is not None

    def __call__(self, p: ReducedPoint) -> float:
        self._check(p)
        return float(self._evaluate(p))

    def gradient_at(self, p: ReducedPoint) -> ReducedPoint:
        self._check(p)
        return ReducedPoint(*self._gradient_unchecked(p))

    def hessian_at(self, p: ReducedPoint):
        self._check(p)
        return self._hessian_unchecked(p)

    def laplacian_at(self, p: ReducedPoint) -> float:
        self._check(p)
        return self._laplacian_unchecked(p)

    # The bodies below assume p lies in the domain; callers that checked a
    # whole grid at once (``_checked``) call them row by row.  The gradient
    # is a tuple of three floats.
    def _gradient_unchecked(self, p: ReducedPoint) -> tuple:
        if self._gradient is None:
            g = [(plus - minus) / (2.0 * h) for h, plus, minus
                 in _fd_stencil(self._evaluate, p, FD_STEP, self)]
        else:
            g = self._gradient(p)
            if isinstance(g, ReducedPoint):
                return g.as_tuple()
        gx, gy, gz = g
        return float(gx), float(gy), float(gz)

    def _hessian_unchecked(self, p: ReducedPoint):
        return None if self._hessian is None else self._hessian(p)

    def _laplacian_unchecked(self, p: ReducedPoint) -> float:
        if self._laplacian is not None:
            return float(self._laplacian(p))
        if self._hessian is not None:
            h = self._hessian(p)
            return float(h[0][0] + h[1][1] + h[2][2])
        c = self._evaluate(p)
        out = 0.0
        for h, plus, minus in _fd_stencil(self._evaluate, p, FD_STEP2):
            out += (plus - 2.0 * c + minus) / (h * h)
        return out

    def as_quaternion_field(self) -> QuaternionField:
        """Embed into the scalar slot; the jet uses the gradient."""
        jet = None
        if self._gradient is not None:
            def jet(p, g=self.gradient_at, f=self._evaluate):
                gr = g(p)
                return Jet(Quaternion(f(p)), Quaternion(gr.x),
                           Quaternion(gr.y), Quaternion(gr.z))
        return QuaternionField(lambda p: Quaternion(self._evaluate(p)),
                               jet=jet, domain=self._domain, name=self.name)


def _dbar_entries(g=None, h=None) -> tuple:
    """The sign map of Dbar u = u_x - u_y i - u_z j, on floats or columns:
    the four components of Dbar u from u's gradient g (three entries), then
    the twelve of its x, y and z partials from u's Hessian h (three rows,
    of which only the upper triangle is read); sixteen jet entries in all.
    """
    out = ()
    if g is not None:
        gx, gy, gz = g
        out = (gx, -gy, -gz, 0.0)
    if h is not None:
        (h00, h01, h02), (_, h11, h12), (_, _, h22) = h
        out += (h00, -h01, -h02, 0.0, h01, -h11, -h12, 0.0,
                h02, -h12, -h22, 0.0)
    return out


def _jet_entries(jet: Jet) -> list:
    """The sixteen components of a jet, slot by slot."""
    return [v for q in jet for v in q.as_tuple()]


def _jet_rows(row, xyz: np.ndarray, slots: int = 4) -> np.ndarray:
    """A (slots, N, 4) table from row(p), the 4 * slots components of p's
    quaternions, at each row p of xyz in order.  The rows stream into one
    flat float array (faster than rows of a subarray dtype, and no list of
    row tuples is held), so the first row that raises stops the table."""
    rows = np.fromiter(chain.from_iterable(map(row, as_points(xyz))), float,
                       count=4 * slots * len(xyz))
    return np.ascontiguousarray(
        rows.reshape(len(xyz), slots, 4).transpose(1, 0, 2))


def scalar_dbar_field(u: ScalarField) -> QuaternionField:
    """The field Dbar u = u_x - u_y i - u_z j built from u's gradient.

    When u carries an analytic Hessian the jet is analytic as well;
    applying D to the result then reproduces the Laplacian of u exactly,
    since D(Dbar u) = (Laplacian u) holds componentwise.  The array jet
    (with a Hessian) and the array values fill one float table from u's
    scalar gradient and Hessian, row by row, and equal the scalar jet and
    value bit for bit.  The field checks u's domain (once per point, or
    once per array) before any of its forms runs, so the forms call u's
    unchecked bodies.
    """
    gradient = u._gradient_unchecked

    def entries(p: ReducedPoint) -> tuple:
        h = u._hessian_unchecked(p)   # the Hessian first, in every form
        return _dbar_entries(gradient(p), h)

    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(*_dbar_entries(gradient(p)))

    def value_array(xyz: np.ndarray) -> np.ndarray:
        return _jet_rows(lambda p: _dbar_entries(gradient(p)), xyz, 1)[0]

    jet = jet_array = None
    if u.has_analytic_hessian:
        def jet(p: ReducedPoint) -> Jet:
            e = entries(p)
            return Jet(*(Quaternion(*e[k:k + 4]) for k in (0, 4, 8, 12)))

        def jet_array(xyz: np.ndarray) -> np.ndarray:
            return _jet_rows(entries, xyz)

    field = QuaternionField(value, jet=jet, domain=u._domain,
                            name=f"dbar({u.name})", jet_array=jet_array,
                            domain_array=u._domain_array,
                            value_array=value_array)
    field._array_jet_is_rowwise = jet_array is not None
    return field


def coordinate_field() -> QuaternionField:
    """x + y i + z j as a field with scalar and array jets; D of it is -1."""
    return _closed_form(lambda x, y, z, xp: (x, y, z, 0.0),
                        lambda x, y, z, xp: (1.0, 0.0, 0.0, 0.0,
                                             0.0, 1.0, 0.0, 0.0,
                                             0.0, 0.0, 1.0, 0.0),
                        name="coordinate")


# ----------------------------------------------------------------------
# first-order operators
# ----------------------------------------------------------------------

def _as_field(f) -> QuaternionField:
    if isinstance(f, ScalarField):
        return f.as_quaternion_field()
    return f


def _d_of(jet: Jet) -> Quaternion:
    """D f from the jet of f."""
    return jet.dx + I * jet.dy + J * jet.dz


def apply_D(f, p: ReducedPoint) -> Quaternion:
    """Left action of D = d/dx + i d/dy + j d/dz."""
    return _d_of(_as_field(f).jet_at(p))


def apply_Dbar(f, p: ReducedPoint) -> Quaternion:
    """Left action of the conjugate operator d/dx - i d/dy - j d/dz."""
    jet = _as_field(f).jet_at(p)
    return jet.dx - I * jet.dy - J * jet.dz


def apply_D_right(f, p: ReducedPoint) -> Quaternion:
    """Right action f D, the units multiplying the partials on the right."""
    jet = _as_field(f).jet_at(p)
    return jet.dx + jet.dy * I + jet.dz * J


def apply_Dbar_right(f, p: ReducedPoint) -> Quaternion:
    """Right action f Dbar."""
    jet = _as_field(f).jet_at(p)
    return jet.dx - jet.dy * I - jet.dz * J


def laplacian(f, p: ReducedPoint) -> Quaternion:
    """Componentwise Laplacian; equals D(Dbar f) and Dbar(D f).

    Scalar fields with analytic second-derivative data use it; otherwise
    second-order central differences with step FD_STEP2 are applied to
    each quaternion component.
    """
    if isinstance(f, ScalarField) and f.has_analytic_laplacian:
        return Quaternion(f.laplacian_at(p))
    g = _as_field(f)
    g._check(p)
    c = g(p)
    total = Quaternion()
    for h, plus, minus in _fd_stencil(g, p, FD_STEP2):
        total = total + (plus - c * 2.0 + minus) / (h * h)
    return total


def euler_operator(f, p: ReducedPoint) -> Quaternion:
    """The radial derivative x d/dx + y d/dy + z d/dz."""
    jet = _as_field(f).jet_at(p)
    return jet.dx * p.x + jet.dy * p.y + jet.dz * p.z


def moisil_theodorescu_residual(f, p: ReducedPoint) -> float:
    """Euclidean norm of the four Moisil-Theodorescu combinations.

    The four real equations are exactly the components of D f, so the
    residual coincides with |D f|; both are exposed because tests check
    the componentwise system independently of the algebraic product.
    """
    jet = _as_field(f).jet_at(p)
    dx, dy, dz = jet.dx, jet.dy, jet.dz
    r0 = dx.q0 - dy.q1 - dz.q2
    r1 = dx.q1 + dy.q0 + dz.q3
    r2 = dx.q2 + dz.q0 - dy.q3
    r3 = dx.q3 + dy.q2 - dz.q1
    return math.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3)


class MonogenicityReport(NamedTuple):
    ok: bool
    max_residual: float
    worst_point: ReducedPoint
    tol: float


def default_monogenicity_tol(f) -> float:
    """1e-6 for analytic jets, 1e-4 when jets come from finite differences."""
    field = _as_field(f)
    return 1e-6 if field.has_analytic_jet else 1e-4


def _batch_residuals(field, pts: list):
    """|D f| at every point from one ``jet_array`` call, formed from the
    table rows as ``apply_D`` forms it from a jet; None unless the field's
    array jet equals its scalar jet bit for bit, or if the call raises."""
    if not getattr(field, "_array_jet_is_rowwise", False):
        return None
    try:
        table = field.jet_array(np.array([p.as_tuple() for p in pts]))
    except Exception:
        return None
    return [_d_of(Jet(*(Quaternion(*q) for q in rows))).norm()
            for rows in table.transpose(1, 0, 2).tolist()]


def is_monogenic(f, points: Sequence[ReducedPoint],
                 tol: float | None = None) -> MonogenicityReport:
    """Check max |D f| over sample points against a tolerance.

    A NaN residual fails the check at once and is reported with its point.
    A Dbar u field with an array jet and a monogenic completion, whose
    array jets equal their scalar jets bit for bit, are evaluated at every
    point in one ``jet_array`` call; other fields point by point.  If that
    call raises, the points are taken one by one, so a NaN residual still
    returns its report before a later point raises, and the error raised
    is the one the first failing point meets.
    """
    pts = list(points)
    if not pts:
        raise ValueError("is_monogenic needs at least one sample point")
    if tol is None:
        tol = default_monogenicity_tol(f)
    residuals = _batch_residuals(_as_field(f), pts)
    if residuals is None:
        residuals = (apply_D(f, p).norm() for p in pts)
    worst, worst_p = -1.0, pts[0]
    for p, r in zip(pts, residuals):
        if math.isnan(r):
            return MonogenicityReport(False, r, p, tol)
        if r > worst:
            worst, worst_p = r, p
    return MonogenicityReport(worst <= tol, worst, worst_p, tol)


# ----------------------------------------------------------------------
# harmonic catalog
# ----------------------------------------------------------------------

def _poly(name, evaluate, gradient, hessian):
    return ScalarField(evaluate, gradient=gradient, laplacian=lambda p: 0.0,
                       hessian=hessian, name=name)


def _column_scalar(name: str, value, gradient, hessian,
                   domain) -> ScalarField:
    """A harmonic ScalarField from its value, gradient (three entries),
    Hessian (three rows) and domain over columns, as ``_closed_form``
    takes them: each gives its point form on floats, and the value and
    domain give ``evaluate_array`` and ``domain_array`` on columns."""
    def at_point(form):
        return lambda p: form(p.x, p.y, p.z, math)

    def on_columns(form):
        return lambda xyz: form(*xyz.T, np)

    return ScalarField(at_point(value), gradient=at_point(gradient),
                       laplacian=lambda p: 0.0, hessian=at_point(hessian),
                       domain=at_point(domain), name=name,
                       evaluate_array=on_columns(value),
                       domain_array=on_columns(domain))


def _relative(center: ReducedPoint):
    """(x, y, z, xp) -> (u, v, w, r): the offset from center and its norm."""
    cx, cy, cz = center.x, center.y, center.z

    def relative(x, y, z, xp):
        u, v, w = x - cx, y - cy, z - cz
        return u, v, w, xp.sqrt(u * u + v * v + w * w)
    return relative


def _inv_r(scale: float = 1.0, center: ReducedPoint = ReducedPoint()):
    """scale / r with r = |x - c|, over columns: its value, gradient,
    Hessian and domain as ``_log_x_plus_r`` gives them.  The domain
    excludes a ball of radius ``DEFAULT_EXCLUSION`` about c."""
    relative = _relative(center)

    def value(x, y, z, xp):
        return scale / relative(x, y, z, xp)[3]

    def gradient(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        r3 = r ** 3
        return -scale * u / r3, -scale * v / r3, -scale * w / r3

    def hessian(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        r3, r5 = r ** 3, r ** 5
        uv = scale * 3.0 * u * v / r5
        uw = scale * 3.0 * u * w / r5
        vw = scale * 3.0 * v * w / r5
        return ((scale * (3.0 * u * u / r5 - 1.0 / r3), uv, uw),
                (uv, scale * (3.0 * v * v / r5 - 1.0 / r3), vw),
                (uw, vw, scale * (3.0 * w * w / r5 - 1.0 / r3)))

    def domain(x, y, z, xp):
        return relative(x, y, z, xp)[3] > DEFAULT_EXCLUSION

    return value, gradient, hessian, domain


def _log_x_plus_r(scale: float = 1.0, center: ReducedPoint = ReducedPoint()):
    """scale * log(u + r) with u = x - c_x and r = |x - c|, over columns.

    Returns its value, gradient (three entries), Hessian (three rows) and
    domain, each a function of (x, y, z, xp) as in ``_closed_form``.  The
    domain excludes a ball of radius ``DEFAULT_EXCLUSION`` about c and a
    tube of that radius about the ray from c along -x, where u + r = 0.
    """
    relative = _relative(center)

    def value(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        return scale * xp.log(u + r)

    def gradient(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        s = u + r
        return scale / r, scale * v / (r * s), scale * w / (r * s)

    def hessian(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        s = u + r
        r3 = r ** 3
        c = (s + r) / (r3 * s * s)
        return ((scale * -u / r3, scale * -v / r3, scale * -w / r3),
                (scale * -v / r3, scale * (1.0 / (r * s) - v * v * c),
                 scale * -v * w * c),
                (scale * -w / r3, scale * -v * w * c,
                 scale * (1.0 / (r * s) - w * w * c)))

    def domain(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        off_ray = (u > 0.0) | (xp.hypot(v, w) > DEFAULT_EXCLUSION)
        return (r > DEFAULT_EXCLUSION) & off_ray

    return value, gradient, hessian, domain


def harmonic_catalog() -> dict[str, ScalarField]:
    """Named harmonic scalar fields with analytic gradients and Hessians.

    The singular entries exclude a ball of radius ``DEFAULT_EXCLUSION``
    around the singular point, and ``log(x+r)`` additionally excludes a
    thin tube around the negative x-axis where its argument vanishes;
    their values and domains have array forms too (``_column_scalar``).
    """
    fields: dict[str, ScalarField] = {}

    fields["x"] = _poly(
        "x", lambda p: p.x,
        lambda p: (1.0, 0.0, 0.0),
        lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))

    fields["xy"] = _poly(
        "xy", lambda p: p.x * p.y,
        lambda p: (p.y, p.x, 0.0),
        lambda p: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))

    fields["x^2-y^2"] = _poly(
        "x^2-y^2", lambda p: p.x * p.x - p.y * p.y,
        lambda p: (2.0 * p.x, -2.0 * p.y, 0.0),
        lambda p: ((2.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 0.0)))

    fields["1+x+yz"] = _poly(
        "1+x+yz", lambda p: 1.0 + p.x + p.y * p.z,
        lambda p: (1.0, p.z, p.y),
        lambda p: ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)))

    fields["x^3-3xy^2"] = _poly(
        "x^3-3xy^2", lambda p: p.x ** 3 - 3.0 * p.x * p.y * p.y,
        lambda p: (3.0 * p.x * p.x - 3.0 * p.y * p.y, -6.0 * p.x * p.y,
                   0.0),
        lambda p: ((6.0 * p.x, -6.0 * p.y, 0.0),
                   (-6.0 * p.y, -6.0 * p.x, 0.0),
                   (0.0, 0.0, 0.0)))

    fields["xyz"] = _poly(
        "xyz", lambda p: p.x * p.y * p.z,
        lambda p: (p.y * p.z, p.x * p.z, p.x * p.y),
        lambda p: ((0.0, p.z, p.y), (p.z, 0.0, p.x), (p.y, p.x, 0.0)))

    fields["1/r"] = _column_scalar("1/r", *_inv_r())

    norm = _relative(ReducedPoint())   # (x, y, z, xp) -> (x, y, z, r)

    def x_over_r3(x, y, z, xp):
        return x / norm(x, y, z, xp)[3] ** 3

    def x_over_r3_grad(x, y, z, xp):
        r = norm(x, y, z, xp)[3]
        r3, r5 = r ** 3, r ** 5
        return (1.0 / r3 - 3.0 * x * x / r5, -3.0 * x * y / r5,
                -3.0 * x * z / r5)

    def x_over_r3_hess(x, y, z, xp):
        r = norm(x, y, z, xp)[3]
        r5, r7 = r ** 5, r ** 7
        xy = -3.0 * y / r5 + 15.0 * x * x * y / r7
        xz = -3.0 * z / r5 + 15.0 * x * x * z / r7
        yz = 15.0 * x * y * z / r7
        return ((-9.0 * x / r5 + 15.0 * x ** 3 / r7, xy, xz),
                (xy, -3.0 * x / r5 + 15.0 * x * y * y / r7, yz),
                (xz, yz, -3.0 * x / r5 + 15.0 * x * z * z / r7))

    fields["x/r^3"] = _column_scalar("x/r^3", x_over_r3, x_over_r3_grad,
                                     x_over_r3_hess, _inv_r()[3])
    fields["log(x+r)"] = _column_scalar("log(x+r)", *_log_x_plus_r())
    return fields
