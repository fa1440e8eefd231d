"""Named flow scenarios: a potential, a closed surface, expected results.

These pair the closed-form potentials with bodies or control surfaces.
Forces that classical theory pins down exactly are recorded on the
scenario so tests, demos and the command line all check against the same
frozen numbers:

* circulation-free flows past sphere and cylinder carry no force;
* the circulating cylinder flow carries the lift (0, -rho U Gamma H, 0)
  for height H, here H = 1 so the magnitude is 2 pi;
* uniform streams exert no net force on any closed control surface.
"""

from __future__ import annotations

import math

from .quaternion import ReducedPoint
from .forces import FlowScenario
from .potentials import (
    FlowPotential,
    dipole_flow,
    embedded_cylinder_flow,
    point_source,
    saddle_flow,
    sphere_flow,
    uniform_flow,
)
from .surfaces import RegularBody, box_body, cylinder_body, sphere_body

__all__ = [
    "cylinder_uniform_scenario",
    "cylinder_vortex_scenario",
    "sphere_stream_scenario",
    "control_sphere_scenario",
    "control_box_scenario",
    "control_cylinder_scenario",
    "scenario_catalog",
    "vanishing_force_cases",
    "vanishing_integral_cases",
]

_ZERO = ReducedPoint(0.0, 0.0, 0.0)


def _unit_cylinder() -> RegularBody:
    # height exactly 1 so 3D totals equal the per-unit-length 2D values
    return cylinder_body(1.0, -0.5, 0.5)


def cylinder_uniform_scenario() -> FlowScenario:
    """Circulation-free cylinder flow; zero force and moment."""
    return FlowScenario(
        name="cylinder-uniform",
        potential=embedded_cylinder_flow(1.0, 1.0),
        body=_unit_cylinder(),
        expected_force=_ZERO,
        description="uniform stream past a unit cylinder, no circulation")


def cylinder_vortex_scenario(circulation: float = 2.0 * math.pi) -> FlowScenario:
    """Circulating cylinder flow carrying the classical lift."""
    gamma = float(circulation)
    return FlowScenario(
        name="cylinder-vortex",
        potential=embedded_cylinder_flow(1.0, 1.0, gamma),
        body=_unit_cylinder(),
        expected_force=ReducedPoint(0.0, -gamma, 0.0),
        description="cylinder with circulation; lift -rho U Gamma per "
                    "unit height")


def sphere_stream_scenario() -> FlowScenario:
    """Uniform stream past a unit sphere; drag-free."""
    return FlowScenario(
        name="sphere-stream",
        potential=sphere_flow(1.0, 1.0),
        body=sphere_body(1.0),
        expected_force=_ZERO,
        description="stream past a sphere: closed body, no net force")


def control_sphere_scenario() -> FlowScenario:
    return FlowScenario(
        name="control-sphere-uniform",
        potential=uniform_flow(1.0),
        body=sphere_body(1.0),
        expected_force=_ZERO,
        description="uniform stream through a spherical control surface")


def control_box_scenario() -> FlowScenario:
    return FlowScenario(
        name="control-box-uniform",
        potential=uniform_flow(0.8, -0.3, 0.5),
        body=box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55)),
        expected_force=_ZERO,
        description="skew uniform stream through a box control surface")


def control_cylinder_scenario() -> FlowScenario:
    return FlowScenario(
        name="control-cylinder-uniform",
        potential=uniform_flow(0.8, -0.3, 0.5),
        body=_unit_cylinder(),
        expected_force=_ZERO,
        description="skew uniform stream through a cylinder control surface")


def scenario_catalog() -> dict[str, FlowScenario]:
    items = (
        cylinder_uniform_scenario(),
        cylinder_vortex_scenario(),
        sphere_stream_scenario(),
        control_sphere_scenario(),
        control_box_scenario(),
        control_cylinder_scenario(),
    )
    return {s.name: s for s in items}


def vanishing_force_cases() -> list[FlowScenario]:
    """Scenarios whose net force must vanish."""
    return [
        control_sphere_scenario(),
        control_box_scenario(),
        control_cylinder_scenario(),
        sphere_stream_scenario(),
        cylinder_uniform_scenario(),
    ]


def vanishing_integral_cases() -> list[tuple[str, FlowPotential, RegularBody]]:
    """Closed surfaces with a potential monogenic throughout the inside.

    The boundary integral of dsigma w vanishes for each.  The source sits
    at (0, 0, 3): its logarithmic ray runs along -x from there and never
    meets the unit ball, so the field is regular where it matters.  The
    dipole and vortex boxes likewise keep clear of the origin and of the
    vortex branch half-plane x < 0.
    """
    return [
        ("uniform-on-sphere", uniform_flow(1.0), sphere_body(1.0)),
        ("saddle-on-box", saddle_flow(),
         box_body((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55))),
        ("source-ray-clear", point_source(1.0, ReducedPoint(0.0, 0.0, 3.0)),
         sphere_body(1.0)),
        ("dipole-offset-box", dipole_flow(1.0),
         box_body((1.0, 2.0), (-0.5, 0.5), (-0.5, 0.5))),
        ("vortex-offset-box", embedded_cylinder_flow(1.0, 1.0, 2.0 * math.pi),
         box_body((1.5, 2.5), (-0.4, 0.4), (-0.5, 0.5))),
    ]
