"""Force and moment evaluation for ideal flow around rigid bodies.

All routes start from the Bernoulli pressure p = p0 - (rho/2)|v|^2 and
the closed-surface identity F = -(integral of) p dsigma, but differ in
how the quadratic velocity term is expressed:

* ``force_pressure_direct``: the pressure integral as written.
* ``force_blasius``: (rho/8) times the integral of |w Dbar|^2 dsigma,
  using |w Dbar|^2 = 4 |v|^2 for a monogenic potential w.
* ``force_components_sc``: the same quantity component by component as
  scalar parts of quaternion products, F_k = (rho/8) Sc(gbar g dsigma u_k).
* ``force_monogenic_form``: -(rho/8) times the integral of the assembled
  scalar parts of g dsigma g with g = w Dbar.  This form is built from a
  two-sided monogenic integrand, so its value is unchanged under
  deformations of the surface; in return it is only a force when the
  surface has the stream-surface structure the derivation assumes, which
  is gated explicitly (StreamSurfaceError otherwise).

Moments use the same quadratic densities against the moment arm
(x - about) x n.

Every route works on arrays: one (4, N, 4) jet table per chart from the
potential's array jet (or, for fields without one, from ``jet_at`` node
by node), (N, 3) node arrays, and the array Hamilton product.  Rows are
reduced by ``surfaces.quadrature_sum``, chart by chart.  The pressure
integrals for a given pressure are the surface integrals
``integrate_scalar_dsigma`` and ``integrate_moment_kernel``, negated.
The potential's field remembers one read-only table per chart node array
(``QuaternionField.jet_table``), so all force and moment routes, the gate
and ``pressure_field`` evaluate each chart once per potential.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple, Optional

import numpy as np

from .quaternion import ReducedPoint, qconj, qmul
from .fields import ScalarField
from .potentials import FlowPotential
from .surfaces import (
    ChartNodes,
    RegularBody,
    _chart_sum,
    _surface_of,
    integrate_moment_kernel,
    integrate_scalar_dsigma,
    moment_arms,
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

_I = np.array([0.0, 1.0, 0.0, 0.0])
_J = np.array([0.0, 0.0, 1.0, 0.0])
_MINUS_I = np.array([0.0, -1.0, 0.0, 0.0])
_MINUS_J = np.array([0.0, 0.0, -1.0, 0.0])


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
    """The surface lacks the structure the monogenic force form requires."""


@dataclass(frozen=True)
class FlowScenario:
    """A potential, a closed surface, and bookkeeping for expectations."""

    name: str
    potential: FlowPotential
    body: RegularBody
    rho: float = 1.0
    description: str = ""
    expected_force: Optional[ReducedPoint] = None
    expected: dict = dataclass_field(default_factory=dict)


# ----------------------------------------------------------------------
# per-chart row kernels on (4, N, 4) jet tables and (N, 3) node arrays
# ----------------------------------------------------------------------

def _conj_grad(jets: np.ndarray) -> np.ndarray:
    """w Dbar = dx - dy i - dz j as (N, 4); 2(v1 - v2 i - v3 j) if D w = 0."""
    dx, dy, dz = jets[1], jets[2], jets[3]
    return np.stack((dx[:, 0] + dy[:, 1] + dz[:, 2],
                     dx[:, 1] - dy[:, 0] + dz[:, 3],
                     dx[:, 2] - dy[:, 3] - dz[:, 0],
                     dx[:, 3] + dy[:, 2] - dz[:, 1]), axis=1)


def _norm_sq(q: np.ndarray) -> np.ndarray:
    return q[:, 0] * q[:, 0] + q[:, 1] * q[:, 1] + q[:, 2] * q[:, 2] \
        + q[:, 3] * q[:, 3]


def _bernoulli(jets: np.ndarray, rho: float, stagnation: float) -> np.ndarray:
    """p0 - (rho/2) |grad Sc w|^2 at every node of a jet table."""
    vx, vy, vz = jets[1][:, 0], jets[2][:, 0], jets[3][:, 0]
    return stagnation - 0.5 * rho * (vx * vx + vy * vy + vz * vz)


def _jet_tables(potential, body, order) -> list[np.ndarray]:
    """The potential's remembered jet table of each chart of body."""
    return [potential.jet_table(cn.point_array)
            for cn in _surface_of(body).quadrature(order)]


def _reduce(potential, body, order, rows_fn, scale: float) -> ReducedPoint:
    """scale times the quadrature sum of rows_fn(chart nodes, jet table)."""
    jets = _jet_tables(potential, body, order)
    return ReducedPoint(*(scale * _chart_sum(body, order, rows_fn, jets)))


def _force(potential, body, order, rows_fn, scale, method):
    return ForceResult(_reduce(potential, body, order, rows_fn, scale),
                       method, order, _surface_of(body).node_count(order))


def _blasius_rows(cn: ChartNodes, jets: np.ndarray) -> np.ndarray:
    return _norm_sq(_conj_grad(jets))[:, None] * cn.normal_array


def _components_sc_rows(cn: ChartNodes, jets: np.ndarray) -> np.ndarray:
    g = _conj_grad(jets)
    t = qmul(qmul(qconj(g), g), cn.normal_quaternions())
    return np.stack((t[:, 0], qmul(t, _MINUS_I)[:, 0],
                     qmul(t, _MINUS_J)[:, 0]), axis=1)


def _monogenic_form_rows(cn: ChartNodes, jets: np.ndarray) -> np.ndarray:
    g = _conj_grad(jets)
    t = qmul(qmul(g, cn.normal_quaternions()), g)
    return np.stack((t[:, 0], qmul(t, _I)[:, 0], qmul(t, _J)[:, 0]), axis=1)


# ----------------------------------------------------------------------
# force routes
# ----------------------------------------------------------------------

def pressure_field(potential, rho: float = 1.0,
                   stagnation: float = 0.0) -> ScalarField:
    """Bernoulli pressure p0 - (rho/2) |grad Sc w|^2.

    Its array form reads the jet tables the potential's field remembers.
    """
    pot = potential if isinstance(potential, FlowPotential) \
        else FlowPotential(potential)
    field = pot.field

    def ev(p: ReducedPoint) -> float:
        return stagnation - 0.5 * rho * pot.speed_squared_at(p)

    def ev_array(xyz: np.ndarray) -> np.ndarray:
        return _bernoulli(field.jet_table(xyz), rho, stagnation)

    return ScalarField(ev, domain=field.in_domain,
                       name=f"pressure({pot.name})", evaluate_array=ev_array,
                       domain_array=field.in_domain_array)


def force_from_pressure(pressure, body, order: int = 16, *,
                        method: str = "pressure") -> ForceResult:
    """F = - (integral of) p dsigma for any scalar pressure callable."""
    surface = _surface_of(body)
    # 0 - F rather than -F, so that a zero integral stays +0.0
    force = ReducedPoint() - integrate_scalar_dsigma(surface, pressure,
                                                     order).to_point()
    return ForceResult(force, method, order, surface.node_count(order))


def force_pressure_direct(potential, body, rho: float = 1.0,
                          order: int = 16, *,
                          stagnation: float = 0.0) -> ForceResult:
    """The pressure route, with p from the Bernoulli relation."""
    def rows(cn, j):
        return -_bernoulli(j, rho, stagnation)[:, None] * cn.normal_array

    return _force(potential, body, order, rows, 1.0, "pressure")


def force_blasius(potential, body, rho: float = 1.0,
                  order: int = 16) -> ForceResult:
    """F = (rho/8) (integral of) |w Dbar|^2 dsigma."""
    return _force(potential, body, order, _blasius_rows, rho / 8.0,
                  "blasius")


def force_components_sc(potential, body, rho: float = 1.0,
                        order: int = 16) -> ForceResult:
    """Componentwise scalar-part force formulas.

    Each component is the scalar part of (conj(g) g) dsigma followed by a
    trailing unit: 1 for the x component, -i for y, -j for z.  Since
    conj(g) g is a scalar, these agree with the norm route exactly, which
    the tests pin down to the last bit.
    """
    return _force(potential, body, order, _components_sc_rows, rho / 8.0,
                  "components-sc")


# ----------------------------------------------------------------------
# monogenic form with its stream-surface gate
# ----------------------------------------------------------------------

_PROBE_LABELS = ("psi1 varies with z", "psi2 varies with y",
                 "psi3 varies with x")


def _gate_stream_surface(quadrature, jets_per_chart,
                         tol: Optional[float]) -> None:
    """Raise StreamSurfaceError unless the surface fits the derivation.

    Checked structure: the vector components keep their planar pattern
    (psi1 free of z, psi2 free of y, psi3 free of x) and each of them is
    constant along both chart tangent directions.  Cap charts that come
    in mirrored pairs are exempt from the tangency probe when the jet is
    z-invariant on them, because a mirrored pair's contributions cancel
    identically for z-invariant integrands.  The first offending node is
    reported, in chart-major node order, pattern probes before tangency.
    A tolerance that is not finite (the default one is, when the jets
    overflow) admits nothing, since no probe could exceed it.
    """
    if tol is None:
        scale = 0.0
        for jets in jets_per_chart:
            for partial in jets[1:]:
                # fmax skips NaN, as the running max over nodes did
                scale = float(np.fmax.reduce(np.sqrt(_norm_sq(partial)),
                                             initial=scale))
        tol = 1e-8 * (1.0 + scale)
    if not np.isfinite(tol):
        raise StreamSurfaceError(
            f"monogenic force form refused: gate tolerance {tol} is not "
            f"finite")

    for cn, jets in zip(quadrature, jets_per_chart):
        probes = np.stack((jets[3][:, 1], jets[2][:, 2], jets[1][:, 3]),
                          axis=1)
        bad = np.abs(probes) > tol
        if bad.any():
            k, which = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise StreamSurfaceError(
                f"monogenic force form refused: {_PROBE_LABELS[which]} "
                f"({probes[k, which]:.3e} > {tol:.1e}) at "
                f"{tuple(cn.point_array[k].tolist())} "
                f"on chart {cn.chart.name!r}")

    exempt: set[int] = set()
    pairs: dict[str, list[int]] = {}
    for idx, cn in enumerate(quadrature):
        meta = cn.chart.meta
        if meta.get("role") == "cap" and "pair_id" in meta:
            pairs.setdefault(meta["pair_id"], []).append(idx)
    for idxs in pairs.values():
        if len(idxs) != 2:
            continue
        a, b = idxs
        if quadrature[a].chart.orientation == quadrature[b].chart.orientation:
            continue
        flat = all(np.all(np.sqrt(_norm_sq(jets_per_chart[idx][3])) <= tol)
                   for idx in (a, b))
        if flat:
            exempt.update((a, b))

    for idx, (cn, jets) in enumerate(zip(quadrature, jets_per_chart)):
        if idx in exempt:
            continue
        # drift[k, d, slot]: gradient of component slot + 1 at node k
        # along the unit tangent d (s, then t)
        tangents = cn.tangent_array.transpose(1, 0, 2)[:, :, :, None]
        dx, dy, dz = (jets[axis][:, None, 1:] for axis in (1, 2, 3))
        drift = (dx * tangents[:, :, 0] + dy * tangents[:, :, 1]
                 + dz * tangents[:, :, 2])
        bad = np.abs(drift) > tol
        if bad.any():
            k, d, slot = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise StreamSurfaceError(
                f"monogenic force form refused: component "
                f"{slot + 1} drifts along chart {cn.chart.name!r} "
                f"({drift[k, d, slot]:.3e} > {tol:.1e}) at "
                f"{tuple(cn.point_array[k].tolist())}")


def force_monogenic_form(potential, body, rho: float = 1.0, order: int = 16,
                         *, gate_tol: Optional[float] = None) -> ForceResult:
    """F = -(rho/8) (integral of) [Sc(g dsigma g) + Sc(g dsigma g i) i
    + Sc(g dsigma g j) j] with g = w Dbar.

    The integrand is quadratic in the two-sided monogenic g, which makes
    the integral deformation invariant; the stream-surface gate rejects
    surfaces where the assembled scalar parts stop being a force density.
    """
    _gate_stream_surface(_surface_of(body).quadrature(order),
                         _jet_tables(potential, body, order), gate_tol)
    return _force(potential, body, order, _monogenic_form_rows, -rho / 8.0,
                  "monogenic-form")


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------

def moment_quadratic(potential, body, about: ReducedPoint, rho: float = 1.0,
                     order: int = 16) -> MomentResult:
    """M = (rho/8) (integral of) |w Dbar|^2 (x - about) x n dS."""
    def rows(cn, jets):
        return _norm_sq(_conj_grad(jets))[:, None] * moment_arms(cn, about)

    return MomentResult(_reduce(potential, body, order, rows, rho / 8.0),
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


def all_force_methods(potential, body, rho: float = 1.0, order: int = 16,
                      *, stagnation: float = 0.0) -> ForceComparison:
    """Run every force route and report their largest pairwise gap.

    The routes and the gate share the jet table the field remembers for
    each chart.  The monogenic form participates only when its gate
    admits the surface; a refusal is recorded verbatim under ``gated``.
    A non-finite route result makes ``max_disagreement`` non-finite.
    """
    shared = {"rho": rho, "order": order}
    results = {
        "pressure": force_pressure_direct(potential, body,
                                          stagnation=stagnation, **shared),
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
