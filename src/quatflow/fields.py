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
components last, component-major in memory: a view of (4, 4, N)), the
values alone as an (N, 4) array, and an array domain predicate.
Quadrature routes use them to evaluate a whole surface in one call; fields
without them are evaluated point by point through the scalar jet.  A
closed form written once over coordinate columns (``_closed_form``)
gives a field all of its scalar and array forms; ``coordinate_field``,
the reduced coordinate x + y i + z j, is built that way.
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

# Jet tables a field keeps, one per node block: six surfaces or orders.
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
            field._check(ReducedPoint(*xyz[int(np.argmin(inside))].tolist()))
    return xyz


def _undefined(field, p: ReducedPoint) -> DomainError:
    """The DomainError of a point p outside the field's domain."""
    return DomainError(
        f"field {field.name or '<anonymous>'} is not defined at {p!r}")


def _lift(op, *forms):
    """The array form xyz -> op(form(xyz), ...), or None if a form is None."""
    if any(form is None for form in forms):
        return None
    return lambda xyz: op(*(form(xyz) for form in forms))


def _lifted_field(name: str, op, array_op, *fields,
                  writers=()) -> "QuaternionField":
    """The field p -> op(f(p), ...) of the operand fields, named ``name``.

    ``op`` combines the operands' quaternions and ``array_op`` their
    arrays.  The scalar jet applies ``op`` slot by slot to the operands'
    jets, and the array jet and value-only array form apply ``array_op``
    to their tables; each exists where every operand has it.  Given
    term ``writers`` (``_written_field``), the array forms are theirs
    instead.  The domain, point and array, is the intersection of the
    operands' domains.
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
    forms = dict(jet=jet, domain=domain, name=name, domain_array=domain_array)

    def evaluate(p: ReducedPoint) -> Quaternion:
        return op(*(f._evaluate(p) for f in fields))
    if writers:
        return _written_field(writers, evaluate, **forms)
    return QuaternionField(
        evaluate, **forms,
        jet_array=_lift(array_op, *(f._jet_array for f in fields)),
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


def _fd_partials(fn, p: ReducedPoint, field=None) -> list:
    """The x, y and z partials of fn at p by central differences with step
    ``FD_STEP``, over ``_fd_stencil`` (with its domain check, given a field)."""
    return [(plus - minus) / (2.0 * h) for h, plus, minus
            in _fd_stencil(fn, p, FD_STEP, field)]


def _fd_laplacian(value_array, p: ReducedPoint):
    """Second central differences with step ``FD_STEP2``, summed axis by axis
    from 0: p and its six stencil points are read by one ``value_array``
    call, so an error is the first point's to fail.  A float for (N,) real
    values, four components for (N, 4) quaternion rows."""
    axes = _fd_stencil(ReducedPoint.as_tuple, p, FD_STEP2)
    c, *sides = value_array(np.array(
        [p.as_tuple()] + [q for _, plus, minus in axes for q in (plus, minus)]))
    total = 0.0
    for (h, _, _), plus, minus in zip(axes, sides[::2], sides[1::2]):
        total = total + (plus - 2.0 * c + minus) / (h * h)
    return total


class _Field:
    """What both field classes share: a ``name``, a domain predicate
    ``_domain`` (None for everywhere) with its optional (N, 3) array form
    ``_domain_array``, and an optional value-only array form
    ``_value_array``, which assumes the points lie in the domain."""

    # The shape of one value in ``value_array``'s rows: () for a real,
    # (4,) for a quaternion.
    _value_shape: tuple

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
        if self._domain is not None and not self._domain(p):
            raise _undefined(self, p)

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        """Values at the rows of an (N, 3) array: (N, 4) quaternion rows or
        (N,) reals, from the value-only array form, or else the field row by
        row.  An error is the one the field meets first row by row."""
        if self._value_array is None:
            if not len(xyz):
                return np.empty((0, *self._value_shape))
            return node_rows(self, xyz)
        return in_node_order(
            lambda xyz: self._value_array(_checked(self, xyz)), self, xyz)


class QuaternionField(_Field):
    """A quaternion-valued function of a point, with an optional analytic jet.

    Parameters
    ----------
    evaluate : callable or None
        Maps a ReducedPoint to a Quaternion.  None reads the value at p as
        the one-row ``value_array`` of [p], so ``value_array`` or
        ``jet_array`` must then be given; with neither, ValueError is
        raised.
    jet : callable, optional
        Maps a ReducedPoint to a :class:`Jet`.  When omitted, jets are the
        one-row ``jet_array`` of [p], slot by slot, given that, or else
        central differences of ``evaluate`` with step
        ``FD_STEP * max(1, |coordinate|)`` per axis.
    domain : callable, optional
        Predicate marking where the field may be evaluated.  Violations
        raise :class:`DomainError` before any form runs.
    jet_array : callable, optional
        The analytic jet on an (N, 3) point array, returning a (4, N, 4)
        array that matches ``jet`` row by row (bit for bit without ``jet``).
    domain_array : callable, optional
        ``domain`` on an (N, 3) point array, returning (N,) booleans.
    value_array : callable, optional
        The values alone on an (N, 3) point array, returning (N, 4) rows
        without computing the partials.  It defaults to the value slot of
        ``jet_array``.  A closed form's equals that slot bit for bit; a
        completion's sums and converges on the value alone, so it equals
        the slot wherever both take the same quadrature level.

    The domain checks and ``value_array`` come from the base shared with
    :class:`ScalarField`.  ``_closed_form`` derives every form from one
    closed form; sums, multiples and conjugates lift the operands' forms
    (``_lifted_field``), and a left-nested sum of closed forms writes its
    terms into one table (``_written_field``).
    """

    _value_shape = (4,)
    # The term writers of a closed form or of a left-nested sum of closed
    # forms (see ``_written_field``); empty for any other field.
    _writers: tuple = ()

    def __init__(self, evaluate: Optional[Callable[[ReducedPoint],
                                                   Quaternion]],
                 jet: Optional[Callable[[ReducedPoint], Jet]] = None,
                 domain: Optional[Callable[[ReducedPoint], bool]] = None,
                 name: str = "",
                 jet_array: Optional[ArrayMap] = None,
                 domain_array: Optional[ArrayMap] = None,
                 value_array: Optional[ArrayMap] = None):
        if evaluate is None and value_array is None and jet_array is None:
            raise ValueError(f"field {name or '<anonymous>'} has no form to "
                             f"evaluate: give evaluate, value_array or "
                             f"jet_array")
        if value_array is None and jet_array is not None:
            def value_array(xyz):
                return jet_array(xyz)[0]
        self._array_jet_is_rowwise = jet is None and jet_array is not None
        if self._array_jet_is_rowwise:
            def jet(p: ReducedPoint) -> Jet:
                rows = jet_array(np.array([p.as_tuple()]))[:, 0].tolist()
                return Jet(*(Quaternion(*q) for q in rows))
        if evaluate is None:
            def evaluate(p: ReducedPoint) -> Quaternion:
                row = value_array(np.array([p.as_tuple()]))[0]
                return Quaternion(*row.tolist())
        self._evaluate = evaluate
        self._jet = jet
        self._domain = domain
        self._jet_array = jet_array
        self._domain_array = domain_array
        self._value_array = value_array
        self.name = name
        self._tables: dict[int, tuple] = {}   # see _remembered

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
        recently used arrays, component-major.  An error stores nothing."""
        entry = self._remembered(xyz)
        return self.jet_array(xyz) if entry is None else entry[1]

    def table_rows(self, xyz: np.ndarray, derive: Callable):
        """``derive(jet_table(xyz))``, kept beside a remembered table (one
        result per ``derive`` function) and evicted with it; derived afresh
        for a table that is not remembered.  An error stores nothing."""
        entry = self._remembered(xyz)
        if entry is None:
            return derive(self.jet_array(xyz))
        if derive not in entry[2]:
            entry[2][derive] = derive(entry[1])
        return entry[2][derive]

    def _remembered(self, xyz: np.ndarray) -> Optional[tuple]:
        """The kept (xyz, table, derived rows) of a read-only xyz, made on
        a miss, now the most recently used; None for a writable xyz."""
        base = xyz
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is not None:   # a writable array, or data numpy cannot see
            return None
        entry = self._tables.pop(id(xyz), None)
        if entry is None:
            rows = np.ascontiguousarray(self.jet_array(xyz).swapaxes(1, 2))
            entry = (xyz, _frozen(rows.swapaxes(1, 2)), {})
            if len(self._tables) == _TABLES_KEPT:
                self._tables.pop(next(iter(self._tables)), None)
        self._tables[id(xyz)] = entry
        return entry

    def __call__(self, p: ReducedPoint) -> Quaternion:
        self._check(p)
        return self._evaluate(p)

    def jet_at(self, p: ReducedPoint) -> Jet:
        self._check(p)
        if self._jet is not None:
            return self._jet(p)
        return self._fd_jet(p)

    def _fd_jet(self, p: ReducedPoint) -> Jet:
        partials = _fd_partials(self._evaluate, p, self)
        return Jet(self._evaluate(p), *partials)

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def __add__(self, other: "QuaternionField") -> "QuaternionField":
        if not isinstance(other, QuaternionField):
            return NotImplemented
        # a sum of closed forms fills one table while it nests to the left:
        # a + (b + c) rounds differently from (a + b) + c
        writers = ()
        if self._writers and len(other._writers) == 1:
            writers = self._writers + other._writers
        return _lifted_field(f"({self.name}+{other.name})", operator.add,
                             np.add, self, other, writers=writers)

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
                             lambda q: qconj(q.T).T, self)

    def without_analytic_jet(self) -> "QuaternionField":
        """A copy that always differentiates by finite differences."""
        return QuaternionField(self._evaluate, jet=None, domain=self._domain,
                               name=self.name,
                               domain_array=self._domain_array)


def _closed_form(value, partials, domain=None, name="",
                 prelude=None) -> QuaternionField:
    """A field from one closed form written over coordinate columns.

    ``value(x, y, z, xp)`` returns the four components of the field,
    ``partials(x, y, z, xp)`` the twelve of its x, y and z partials (four
    each) and ``domain(x, y, z, xp)`` where it is defined.  ``xp`` is
    ``math`` when x, y, z are the floats of one point and ``numpy`` when
    they are the (N,) columns of a point array.  With a ``prelude``, value
    and partials take what ``prelude(x, y, z, xp)`` returns, computed once
    per jet.  The scalar value and jet run on floats; the array jet, the
    value-only array form and the array domain run on columns, each
    component filling one contiguous row.
    """
    prelude = prelude or (lambda *columns: columns)

    def evaluate(p: ReducedPoint) -> Quaternion:
        return Quaternion(*value(*prelude(p.x, p.y, p.z, math)))

    def jet(p: ReducedPoint) -> Jet:
        columns = prelude(p.x, p.y, p.z, math)
        d = partials(*columns)
        return Jet(Quaternion(*value(*columns)), Quaternion(*d[:4]),
                   Quaternion(*d[4:8]), Quaternion(*d[8:]))

    point_domain = None
    if domain is not None:
        def point_domain(p: ReducedPoint) -> bool:
            return domain(p.x, p.y, p.z, math)

    def fill(rows: np.ndarray, entries, add: bool) -> None:
        for row, entry in zip(rows, entries):
            if add:
                row += entry
            else:
                row[...] = entry

    def write(rows: np.ndarray, xyz: np.ndarray, add: bool) -> None:
        # the value's rows are stored before the partials run, so they are
        # not held beside the partials' temporaries
        columns = prelude(*xyz.T, np)
        fill(rows, value(*columns), add)
        if len(rows) > 4:
            fill(rows[4:], partials(*columns), add)

    domain_array = None if domain is None else \
        (lambda xyz: domain(*xyz.T, np))
    return _written_field((write,), evaluate, jet=jet, domain=point_domain,
                          name=name, domain_array=domain_array)


def _written_field(writers, evaluate, **forms) -> QuaternionField:
    """A QuaternionField whose array jet and values are the sum of the
    terms ``writers`` put into one (16, N) or (4, N) table of component
    rows: ``write(rows, xyz, add)`` stores its term's components there,
    or adds them in place with ``add``, the value's four rows first and,
    in a 16-row table, the twelve partials' after them.  The terms are
    added in order, as a left-nested sum (a + b) + c rounds."""
    def table(xyz: np.ndarray, count: int) -> np.ndarray:
        rows = np.empty((count, len(xyz)))
        for k, write in enumerate(writers):
            write(rows, xyz, k > 0)
        return rows

    field = QuaternionField(
        evaluate, **forms,
        jet_array=lambda xyz: table(xyz, 16).reshape(
            4, 4, len(xyz)).transpose(0, 2, 1),
        value_array=lambda xyz: table(xyz, 4).T)
    field._writers = writers
    return field


class ScalarField(_Field):
    """A real-valued function of a point with optional analytic derivatives.

    ``gradient`` maps a point to a ReducedPoint or three numbers;
    ``hessian`` to a 3x3 nested sequence (row-major, symmetric);
    ``laplacian`` to a float.
    Missing derivatives fall back to central differences: the gradient to
    ``_fd_partials`` (step ``FD_STEP``), the Laplacian to ``_fd_laplacian``
    (step ``FD_STEP2``) through the domain-checked ``value_array``.
    ``evaluate_array`` and ``domain_array`` are optional array forms of
    ``evaluate`` and ``domain`` on (N, 3) point arrays; the domain checks
    and ``value_array`` come from the base shared with
    :class:`QuaternionField`, so ``value_array`` raises the error the
    field meets first row by row.

    A public read checks the domain once and applies an analytic form in
    the same frame, one float per number (``gradient_at`` unpacks three
    into a new ReducedPoint), or else its private unchecked fallback body.
    Code that works on a batch of points checks the domain once for the
    whole batch (``_checked``) and then calls the forms or those bodies
    row by row, so the predicate runs once per point, not per derivative.
    """

    _value_shape = ()

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
        if self._domain is not None and not self._domain(p):
            raise _undefined(self, p)
        return float(self._evaluate(p))

    def gradient_at(self, p: ReducedPoint) -> ReducedPoint:
        if self._domain is not None and not self._domain(p):
            raise _undefined(self, p)
        g = self._gradient_unchecked(p) if self._gradient is None \
            else self._gradient(p)
        gx, gy, gz = (g.x, g.y, g.z) if isinstance(g, ReducedPoint) else g
        return ReducedPoint(gx, gy, gz)

    def hessian_at(self, p: ReducedPoint):
        if self._domain is not None and not self._domain(p):
            raise _undefined(self, p)
        return None if self._hessian is None else self._hessian(p)

    def laplacian_at(self, p: ReducedPoint) -> float:
        if self._domain is not None and not self._domain(p):
            raise _undefined(self, p)
        return self._laplacian_unchecked(p) if self._laplacian is None \
            else float(self._laplacian(p))

    # The bodies below assume p lies in the domain; callers that checked a
    # whole grid at once (``_checked``) call them row by row.  The gradient
    # is a tuple of three floats.
    def _gradient_unchecked(self, p: ReducedPoint) -> tuple:
        if self._gradient is None:
            g = _fd_partials(self._evaluate, p, self)
        else:
            g = self._gradient(p)
            if isinstance(g, ReducedPoint):
                return g.as_tuple()
        gx, gy, gz = g
        return float(gx), float(gy), float(gz)

    def _laplacian_unchecked(self, p: ReducedPoint) -> float:
        # callers apply an analytic Laplacian themselves
        if self._hessian is not None:
            h = self._hessian(p)
            return float(h[0][0] + h[1][1] + h[2][2])
        return float(_fd_laplacian(self.value_array, p))

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


# [c, s]: the one of u's nine derivatives that component c of slot s maps
_DBAR_SLOTS = np.array(((0, 3, 4, 5), (1, 4, 6, 7), (2, 5, 7, 8)))


def _dbar_table(rows: np.ndarray) -> np.ndarray:
    """The (4, N, 4) Dbar u jet table of (N, 9) rows (gx, gy, gz, h00, h01,
    h02, h11, h12, h22), or the (1, N, 4) value slot alone of (N, 3)
    gradient rows: ``_dbar_entries`` of the gradient's and Hessian rows'
    columns (``_DBAR_SLOTS``), the bits it gives them as floats."""
    slots = _DBAR_SLOTS[:, :1] if rows.shape[1] == 3 else _DBAR_SLOTS
    out = np.empty((4, slots.shape[1], len(rows)))   # component, slot, row
    out[0], out[1], out[2], out[3] = _dbar_entries(rows.T[slots])
    return out.transpose(1, 2, 0)


def _jet_rows(row, xyz: np.ndarray, slots=4, width=4) -> np.ndarray:
    """A (slots, N, width) table from row(p), p's slots * width numbers, at
    each row p of xyz in order.  The rows stream into one flat float array
    (faster than rows of a subarray dtype, and no list of row tuples is
    held), so the first row that raises stops the table."""
    rows = np.fromiter(chain.from_iterable(map(row, as_points(xyz))), float,
                       count=width * slots * len(xyz))
    return np.ascontiguousarray(
        rows.reshape(len(xyz), slots, width).transpose(1, 0, 2))


def scalar_dbar_field(u: ScalarField) -> QuaternionField:
    """The field Dbar u = u_x - u_y i - u_z j built from u's gradient.

    When u carries an analytic Hessian the jet is analytic as well;
    applying D to the result then reproduces the Laplacian of u exactly,
    since D(Dbar u) = (Laplacian u) holds componentwise.  The array values
    fill one float table from u's gradient, and the array jet (with a
    Hessian) one from u's nine distinct derivatives, row by row, as the
    completion does (``_dbar_table``); ``jet_at`` is the one-row array jet.
    The field checks u's domain (once per point, or once per array) first,
    so the forms call u's Hessian, then its unchecked gradient body.
    """
    gradient = u._gradient_unchecked

    def value(p: ReducedPoint) -> Quaternion:
        return Quaternion(*_dbar_entries(gradient(p)))

    def value_array(xyz: np.ndarray) -> np.ndarray:
        return _jet_rows(lambda p: _dbar_entries(gradient(p)), xyz, 1)[0]

    jet_array = None
    if u.has_analytic_hessian:
        def distinct(p: ReducedPoint) -> tuple:
            (h00, h01, h02), (_, h11, h12), (_, _, h22) = u._hessian(p)
            return (*gradient(p), h00, h01, h02, h11, h12, h22)

        def jet_array(xyz: np.ndarray) -> np.ndarray:
            return _dbar_table(_jet_rows(distinct, xyz, 1, 9)[0])

    return QuaternionField(value, domain=u._domain, name=f"dbar({u.name})",
                           jet_array=jet_array, domain_array=u._domain_array,
                           value_array=value_array)


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
    """The quaternion field of a field, a ScalarField or a FlowPotential."""
    if isinstance(f, ScalarField):
        return f.as_quaternion_field()
    return getattr(f, "field", f)   # a FlowPotential's field


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

    A ScalarField gives its own ``laplacian_at`` in the scalar slot.  Any
    other field takes second-order central differences with step FD_STEP2
    of each quaternion component (``_fd_laplacian``), at p and its six
    stencil points read by one ``value_array`` call (an error is the first
    point's to fail).
    """
    if isinstance(f, ScalarField):
        return Quaternion(f.laplacian_at(p))
    return Quaternion(*_fd_laplacian(_as_field(f).value_array, p))


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
    A field given an array jet and no point jet (Dbar u with a Hessian, a
    completion) reads a point as its array jet's one-row case, so it is
    evaluated in one ``jet_array`` call; other fields point by point.  If that
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

def _column_scalar(name: str, value, prelude, gradient, hessian,
                   domain) -> ScalarField:
    """A harmonic ScalarField from its value and domain over columns, and
    its gradient (three entries) and Hessian (three rows) over the columns
    ``prelude(x, y, z, xp)`` returns, as ``_closed_form`` takes them: each
    gives its point form on floats, and the value and domain give
    ``evaluate_array`` and ``domain_array`` on columns.  With ``prelude``
    None the gradient and Hessian read (x, y, z, xp) too; with ``domain``
    None the field is defined everywhere, with no domain form."""
    def at_point(form):
        return lambda p: form(p.x, p.y, p.z, math)

    def after_prelude(form):
        return at_point(form) if prelude is None else \
            (lambda p: form(*prelude(p.x, p.y, p.z, math)))

    def on_columns(form):
        return lambda xyz: form(*xyz.T, np)

    return ScalarField(at_point(value), gradient=after_prelude(gradient),
                       laplacian=lambda p: 0.0,
                       hessian=after_prelude(hessian),
                       domain=domain and at_point(domain), name=name,
                       evaluate_array=on_columns(value),
                       domain_array=domain and on_columns(domain))


def _relative(center: ReducedPoint):
    """(x, y, z, xp) -> (u, v, w, r): the offset from center and its norm."""
    cx, cy, cz = center.x, center.y, center.z

    def relative(x, y, z, xp):
        u, v, w = x - cx, y - cy, z - cz
        return u, v, w, xp.sqrt(u * u + v * v + w * w)
    return relative


def _inv_r(scale: float = 1.0, center: ReducedPoint = ReducedPoint()):
    """scale / r with r = |x - c|, over columns: its value, prelude,
    gradient, Hessian and domain as ``_log_x_plus_r`` gives them; the
    prelude is (u, v, w, r, r ** 3).  The domain excludes a ball of radius
    ``DEFAULT_EXCLUSION`` about c."""
    relative = _relative(center)

    def prelude(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        return u, v, w, r, r ** 3

    def value(x, y, z, xp):
        return scale / relative(x, y, z, xp)[3]

    def gradient(u, v, w, r, r3):
        return -scale * u / r3, -scale * v / r3, -scale * w / r3

    def hessian(u, v, w, r, r3):
        r5 = r ** 5
        uv = scale * 3.0 * u * v / r5
        uw = scale * 3.0 * u * w / r5
        vw = scale * 3.0 * v * w / r5
        return ((scale * (3.0 * u * u / r5 - 1.0 / r3), uv, uw),
                (uv, scale * (3.0 * v * v / r5 - 1.0 / r3), vw),
                (uw, vw, scale * (3.0 * w * w / r5 - 1.0 / r3)))

    def domain(x, y, z, xp):
        return relative(x, y, z, xp)[3] > DEFAULT_EXCLUSION

    return value, prelude, gradient, hessian, domain


def _log_x_plus_r(scale: float = 1.0, center: ReducedPoint = ReducedPoint()):
    """scale * log(u + r) with u = x - c_x and r = |x - c|, over columns.

    Returns its value, prelude (u, v, w, r), gradient (three entries),
    Hessian (three rows) and domain as in ``_closed_form``: the gradient
    and Hessian take the prelude's columns, the rest (x, y, z, xp).  The
    domain excludes a ball of radius ``DEFAULT_EXCLUSION`` about c and a
    tube of that radius about the ray from c along -x, where u + r = 0.
    """
    relative = _relative(center)

    def value(x, y, z, xp):
        u, v, w, r = relative(x, y, z, xp)
        return scale * xp.log(u + r)

    def gradient(u, v, w, r):
        s = u + r
        return scale / r, scale * v / (r * s), scale * w / (r * s)

    def hessian(u, v, w, r):
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

    return value, relative, gradient, hessian, domain


def harmonic_catalog() -> dict[str, ScalarField]:
    """Named harmonic scalar fields with analytic gradients and Hessians.

    Every entry is a ``_column_scalar``: its value, gradient and Hessian
    are written once over coordinate columns, and its value (and domain)
    have array forms too.  The six polynomials are defined everywhere.
    The singular entries exclude a ball of radius ``DEFAULT_EXCLUSION``
    around the singular point, and ``log(x+r)`` additionally excludes a
    thin tube around the negative x-axis where its argument vanishes.
    """
    fields: dict[str, ScalarField] = {}

    fields["x"] = _column_scalar(
        "x", lambda x, y, z, xp: x, None,
        lambda x, y, z, xp: (1.0, 0.0, 0.0),
        lambda x, y, z, xp: ((0.0, 0.0, 0.0),) * 3, None)
    fields["xy"] = _column_scalar(
        "xy", lambda x, y, z, xp: x * y, None,
        lambda x, y, z, xp: (y, x, 0.0),
        lambda x, y, z, xp: ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                             (0.0, 0.0, 0.0)), None)
    fields["x^2-y^2"] = _column_scalar(
        "x^2-y^2", lambda x, y, z, xp: x * x - y * y, None,
        lambda x, y, z, xp: (2.0 * x, -2.0 * y, 0.0),
        lambda x, y, z, xp: ((2.0, 0.0, 0.0), (0.0, -2.0, 0.0),
                             (0.0, 0.0, 0.0)), None)
    fields["1+x+yz"] = _column_scalar(
        "1+x+yz", lambda x, y, z, xp: 1.0 + x + y * z, None,
        lambda x, y, z, xp: (1.0, z, y),
        lambda x, y, z, xp: ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                             (0.0, 1.0, 0.0)), None)
    fields["x^3-3xy^2"] = _column_scalar(
        "x^3-3xy^2", lambda x, y, z, xp: x ** 3 - 3.0 * x * y * y, None,
        lambda x, y, z, xp: (3.0 * x * x - 3.0 * y * y, -6.0 * x * y, 0.0),
        lambda x, y, z, xp: ((6.0 * x, -6.0 * y, 0.0),
                             (-6.0 * y, -6.0 * x, 0.0), (0.0, 0.0, 0.0)),
        None)
    fields["xyz"] = _column_scalar(
        "xyz", lambda x, y, z, xp: x * y * z, None,
        lambda x, y, z, xp: (y * z, x * z, x * y),
        lambda x, y, z, xp: ((0.0, z, y), (z, 0.0, x), (y, x, 0.0)), None)
    fields["1/r"] = _column_scalar("1/r", *_inv_r())

    norm = _relative(ReducedPoint())   # (x, y, z, xp) -> (x, y, z, r)

    def x_over_r3(x, y, z, xp):
        return x / norm(x, y, z, xp)[3] ** 3

    def x_over_r3_grad(x, y, z, r):
        r3, r5 = r ** 3, r ** 5
        return (1.0 / r3 - 3.0 * x * x / r5, -3.0 * x * y / r5,
                -3.0 * x * z / r5)

    def x_over_r3_hess(x, y, z, r):
        r5, r7 = r ** 5, r ** 7
        xy = -3.0 * y / r5 + 15.0 * x * x * y / r7
        xz = -3.0 * z / r5 + 15.0 * x * x * z / r7
        yz = 15.0 * x * y * z / r7
        return ((-9.0 * x / r5 + 15.0 * x ** 3 / r7, xy, xz),
                (xy, -3.0 * x / r5 + 15.0 * x * y * y / r7, yz),
                (xz, yz, -3.0 * x / r5 + 15.0 * x * z * z / r7))

    fields["x/r^3"] = _column_scalar("x/r^3", x_over_r3, norm,
                                     x_over_r3_grad, x_over_r3_hess,
                                     _inv_r()[4])
    fields["log(x+r)"] = _column_scalar("log(x+r)", *_log_x_plus_r())
    return fields
