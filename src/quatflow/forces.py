"""Force and moment evaluation for ideal flow around rigid bodies.

All routes start from the Bernoulli pressure p = p0 - (rho/2)|v|^2 and
the closed-surface identity F = -(integral of) p dsigma, but differ in
how the quadratic velocity term is expressed:

* ``force_pressure_direct``: the pressure integral as written,
  ``force_from_pressure`` of the Bernoulli ``pressure_field``.
* ``force_blasius``: (rho/8) times the integral of |w Dbar|^2 dsigma,
  using |w Dbar|^2 = 4 |v|^2 for a monogenic potential w.
* ``force_components_sc``: the same quantity component by component as
  scalar parts of quaternion products, F_k = (rho/8) Sc(gbar g dsigma u_k).
* ``force_monogenic_form``: -(rho/8) times the integral of the assembled
  scalar parts of g dsigma g with g = w Dbar.  Its density is
  rho (|v|^2 n / 2 - v (v.n)), the pressure density plus the momentum
  flux, so it is the pressure-route force exactly where v.n = 0.  A gate
  admits it only on surfaces where the normal flux vanishes at every
  node (StreamSurfaceError otherwise).

Moments use the same quadratic densities against the moment arm
(x - about) x n.

Every route works on arrays over all of a body's nodes at once, the
surface's ``NodeBlock``: one (4, N, 4) jet table from the potential's
array jet (or, for fields without one, from ``jet_at`` node by node),
component-major in memory, so each component is a contiguous row; the
block's (3, N) rows of points and normals; and ``qmul`` of component
rows, or its scalar entry alone.  ``surfaces.quadrature_sum`` sums each
chart span of the (3, N) kernel rows pairwise by ``np.add.reduce`` of
C-ordered rows, in bits that do not depend on numpy's SIMD level.  The
pressure integrals for a given pressure are the surface integrals
``integrate_scalar_dsigma`` and ``integrate_moment_kernel``, negated.
The potential's field remembers one read-only table per node block
(``QuaternionField.jet_table``), so all force and moment routes, the gate
and ``pressure_field`` evaluate each surface once per order and
potential.  Beside each table it keeps the read-only rows derived from it
that several routes read (``QuaternionField.table_rows``): w Dbar and
|w Dbar|^2 (``_flow_rows``) and |v|^2 (``_speed_sq``, also the gate's
tolerance), formed once per table and evicted with it.
``pressure_field``'s array form relies on the table's own domain check,
made before the table is, and runs no second one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .quaternion import ReducedPoint, qconj, qmul
from .fields import ScalarField
from .potentials import FlowPotential
from .surfaces import (
    NodeBlock,
    RegularBody,
    _frozen,
    _surface_of,
    in_node_order,
    integrate_moment_kernel,
    integrate_scalar_dsigma,
    quadrature_sum,
)

__all__ = [
    "ForceResult",
    "MomentResult",
    "StreamSurfaceError",
    "FlowScenario",
    "pressure_field",
    "force_from_pressure",
    "force_pressure_direct",
    "force_blasius",
    "force_components_sc",
    "force_monogenic_form",
    "moment_quadratic",
    "moment_from_pressure",
    "moment_reference_shift",
    "ForceComparison",
    "all_force_methods",
]

class ForceResult(NamedTuple):
    force: ReducedPoint
    method: str
    order: int
    node_count: int


class MomentResult(NamedTuple):
    moment: ReducedPoint
    about: ReducedPoint
    method: str
    order: int
    node_count: int


class StreamSurfaceError(ValueError):
    """The monogenic force form was refused: v.n is not zero on the surface."""


@dataclass(frozen=True)
class FlowScenario:
    """A potential, a closed surface, and bookkeeping for expectations."""

    name: str
    potential: FlowPotential
    body: RegularBody
    rho: float = 1.0
    description: str = ""
    expected_force: Optional[ReducedPoint] = None


# ----------------------------------------------------------------------
# row kernels on (4, N, 4) jet tables and (3, N) node block rows
# ----------------------------------------------------------------------

def _conj_grad(jets: np.ndarray) -> tuple:
    """w Dbar = dx - dy i - dz j, 2(v1 - v2 i - v3 j) if D w = 0, as rows."""
    dx, dy, dz = jets[1].T, jets[2].T, jets[3].T
    return (dx[0] + dy[1] + dz[2], dx[1] - dy[0] + dz[3],
            dx[2] - dy[3] - dz[0], dx[3] + dy[2] - dz[1])


def _norm_sq(q) -> np.ndarray:
    q0, q1, q2, q3 = q
    return q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3


def _flow_rows(jets: np.ndarray) -> tuple:
    """w Dbar as read-only (4, N) rows and |w Dbar|^2 as a read-only row."""
    g = _frozen(np.array(_conj_grad(jets)))
    return g, _frozen(_norm_sq(g))


def _sc_rows(t, s: float) -> np.ndarray:
    """Sc t, Sc(t (s i)) and Sc(t (s j)) as (3, N) rows; the last two are
    the first entries of ``qmul`` by s i and s j, formed alone."""
    t0, t1, t2, t3 = t
    return np.stack((t0, t0 * 0.0 - t1 * s - t2 * 0.0 - t3 * 0.0,
                     t0 * 0.0 - t1 * 0.0 - t2 * s - t3 * 0.0))


def _speed_sq(jets: np.ndarray) -> np.ndarray:
    """|grad Sc w|^2 at every node of a jet table, as a read-only row."""
    vx, vy, vz = jets[1][:, 0], jets[2][:, 0], jets[3][:, 0]
    return _frozen(vx * vx + vy * vy + vz * vz)


def _reduce(potential, body, order, derive, rows_fn,
            scale: float) -> ReducedPoint:
    """scale times the quadrature sum of rows_fn(node block, rows), with
    rows the derive(jet table) the potential keeps beside the table."""
    block = _surface_of(body).nodes(order)
    rows = rows_fn(block, potential.table_rows(block.point_array, derive))
    return ReducedPoint(*(scale * quadrature_sum(block, rows)))


def _force(potential, body, order, derive, rows_fn, scale, method):
    force = _reduce(potential, body, order, derive, rows_fn, scale)
    return ForceResult(force, method, order,
                       _surface_of(body).node_count(order))


def _blasius_rows(block: NodeBlock, flow: tuple) -> np.ndarray:
    return flow[1] * block.normal_rows


def _components_sc_rows(block: NodeBlock, flow: tuple) -> np.ndarray:
    g = flow[0]
    return _sc_rows(qmul(qmul(qconj(g), g), block.normal_rows), -1.0)


def _monogenic_form_rows(block: NodeBlock, flow: tuple) -> np.ndarray:
    g = flow[0]
    return _sc_rows(qmul(qmul(g, block.normal_rows), g), 1.0)


# ----------------------------------------------------------------------
# force routes
# ----------------------------------------------------------------------

class _Pressure(ScalarField):
    """A pressure whose array form reads jet tables, which the potential's
    field makes only after its own domain check, so ``value_array`` makes
    no second one; an error is still the pressure's, row by row."""

    def value_array(self, xyz: np.ndarray) -> np.ndarray:
        return in_node_order(self._value_array, self, xyz)


def pressure_field(potential, rho: float = 1.0,
                   stagnation: float = 0.0) -> ScalarField:
    """Bernoulli pressure p0 - (rho/2) |grad Sc w|^2.

    Its array form reads the |v|^2 rows kept beside the jet tables the
    potential's field remembers.
    """
    pot = potential if isinstance(potential, FlowPotential) \
        else FlowPotential(potential)
    field = pot.field

    def bernoulli(speed_sq):
        return stagnation - 0.5 * rho * speed_sq

    def ev(p: ReducedPoint) -> float:
        return bernoulli(pot.speed_squared_at(p))

    def ev_array(xyz: np.ndarray) -> np.ndarray:
        return bernoulli(field.table_rows(xyz, _speed_sq))

    return _Pressure(ev, domain=field.in_domain, name=f"pressure({pot.name})",
                     evaluate_array=ev_array,
                     domain_array=field.in_domain_array)


def force_from_pressure(pressure, body, order: int = 16) -> ForceResult:
    """F = - (integral of) p dsigma for any scalar pressure callable."""
    surface = _surface_of(body)
    # 0 - F rather than -F, so that a zero integral stays +0.0
    force = ReducedPoint() - integrate_scalar_dsigma(surface, pressure,
                                                     order).to_point()
    return ForceResult(force, "pressure", order, surface.node_count(order))


def force_pressure_direct(potential, body, rho: float = 1.0,
                          order: int = 16, *,
                          stagnation: float = 0.0) -> ForceResult:
    """The pressure route: ``force_from_pressure`` of ``pressure_field``."""
    return force_from_pressure(pressure_field(potential, rho, stagnation),
                               body, order)


def force_blasius(potential, body, rho: float = 1.0,
                  order: int = 16) -> ForceResult:
    """F = (rho/8) (integral of) |w Dbar|^2 dsigma."""
    return _force(potential, body, order, _flow_rows, _blasius_rows,
                  rho / 8.0, "blasius")


def force_components_sc(potential, body, rho: float = 1.0,
                        order: int = 16) -> ForceResult:
    """Componentwise scalar-part force formulas.

    Each component is the scalar part of (conj(g) g) dsigma followed by a
    trailing unit: 1 for the x component, -i for y, -j for z.  Since
    conj(g) g is a scalar, these agree with the norm route exactly, which
    the tests pin down to the last bit.
    """
    return _force(potential, body, order, _flow_rows, _components_sc_rows,
                  rho / 8.0, "components-sc")


# ----------------------------------------------------------------------
# monogenic form with its stream-surface gate
# ----------------------------------------------------------------------

def _gate_stream_surface(potential, block: NodeBlock) -> None:
    """Raise StreamSurfaceError unless v.n vanishes at every node.

    With v = grad Sc w, the density of the monogenic form is
    rho (|v|^2 n / 2 - v (v.n)), which equals the Bernoulli pressure
    density -p n exactly where the normal flux v.n is zero, i.e. on a
    stream surface.  The tolerance is 1e-8 (1 + the largest |v| over the
    nodes), the root of the largest kept |v|^2 (sqrt is monotone); the
    first node where |v.n| is not within it (NaN included) is reported,
    in chart-major node order.  When the velocities overflow the
    tolerance is not finite and admits nothing.
    """
    # v = (dx, dy, dz) of Sc w at every node, as (3, N) rows
    v = potential.jet_table(block.point_array)[1:, :, 0]
    # fmax skips NaN, as a running max over the nodes would
    scale_sq = np.fmax.reduce(
        potential.table_rows(block.point_array, _speed_sq), initial=0.0)
    tol = 1e-8 * (1.0 + float(np.sqrt(scale_sq)))
    if not np.isfinite(tol):
        raise StreamSurfaceError(
            f"monogenic force form refused: gate tolerance {tol} is not "
            f"finite")

    flux = sum(v * block.normal_rows)   # the rows added in turn to 0
    bad = ~(np.abs(flux) <= tol)
    if bad.any():
        k = int(np.argmax(bad))
        chart = next(cn.chart for cn, span in zip(block.charts, block.spans)
                     if k < span.stop)
        raise StreamSurfaceError(
            f"monogenic force form refused: v.n = {flux[k]:.3e} "
            f"(tolerance {tol:.1e}) at "
            f"{tuple(block.point_array[k].tolist())} on chart {chart.name!r}")


def force_monogenic_form(potential, body, rho: float = 1.0,
                         order: int = 16) -> ForceResult:
    """F = -(rho/8) (integral of) [Sc(g dsigma g) + Sc(g dsigma g i) i
    + Sc(g dsigma g j) j] with g = w Dbar.

    The assembled scalar parts equal rho (|v|^2 n / 2 - v (v.n)) dS, the
    pressure density plus the momentum flux.  The gate admits the surface
    only where v.n = 0 at every node, so that an admitted form is the
    pressure-route force; StreamSurfaceError otherwise.
    """
    _gate_stream_surface(potential, _surface_of(body).nodes(order))
    return _force(potential, body, order, _flow_rows, _monogenic_form_rows,
                  -rho / 8.0, "monogenic-form")


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

def moment_quadratic(potential, body, about: ReducedPoint, rho: float = 1.0,
                     order: int = 16) -> MomentResult:
    """M = (rho/8) (integral of) |w Dbar|^2 (x - about) x n dS."""
    def rows(block, flow):
        return flow[1] * block.moment_arms(about)

    return MomentResult(_reduce(potential, body, order, _flow_rows, rows,
                                rho / 8.0),
                        about, "quadratic-form", order,
                        _surface_of(body).node_count(order))


def moment_from_pressure(pressure, body, about: ReducedPoint,
                         order: int = 16) -> MomentResult:
    """M = -(integral of) p (x - about) x n dS for a scalar pressure."""
    surface = _surface_of(body)
    # 0 - M rather than -M, so that a zero integral stays +0.0
    moment = ReducedPoint() - integrate_moment_kernel(surface, pressure,
                                                      about, order)
    return MomentResult(moment, about, "pressure", order,
                        surface.node_count(order))


def moment_reference_shift(moment: MomentResult, force: ForceResult,
                           new_about: ReducedPoint) -> MomentResult:
    """Transport a moment to a new reference: M' = M + (x0 - x1) x F."""
    shift = (moment.about - new_about).cross(force.force)
    return MomentResult(moment.moment + shift, new_about,
                        moment.method + "+shift", moment.order,
                        moment.node_count)


# ----------------------------------------------------------------------
# method comparison
# ----------------------------------------------------------------------

class ForceComparison(NamedTuple):
    results: dict
    gated: dict
    max_disagreement: float


def all_force_methods(potential, body, rho: float = 1.0,
                      order: int = 16) -> ForceComparison:
    """Run every force route and report their largest pairwise gap.

    The routes and the gate share the jet table the field remembers for
    the surface's node block.  The monogenic form participates only when
    its gate admits the surface; a refusal is recorded verbatim under
    ``gated``.
    A non-finite route result makes ``max_disagreement`` non-finite.
    """
    shared = {"rho": rho, "order": order}
    results = {
        "pressure": force_pressure_direct(potential, body, **shared),
        "blasius": force_blasius(potential, body, **shared),
        "components-sc": force_components_sc(potential, body, **shared),
    }
    gated: dict = {}
    try:
        results["monogenic-form"] = force_monogenic_form(potential, body,
                                                         **shared)
    except StreamSurfaceError as err:
        gated["monogenic-form"] = str(err)

    names = sorted(results)
    gaps = [(results[a].force - results[b].force).norm()
            for i, a in enumerate(names) for b in names[i + 1:]]
    # np.max propagates NaN where the builtin max would drop it
    return ForceComparison(results, gated, float(np.max(gaps)))
