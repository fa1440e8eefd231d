"""The one table of potential and body kinds, and the named scenarios.

A config dict names a kind and may override the keys it reads.  The
command line's JSON configs (``ScenarioConfig``), the named scenarios and
the vanishing-integral surfaces are all rows of such dicts.  Each named
scenario carries the force classical theory pins down, from its parsed
keys: zero on closed bodies without circulation and on control surfaces
in uniform streams, and the lift (0, -rho U Gamma H, 0) on a circulating
cylinder of height H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quaternion import ReducedPoint
from .forces import FlowScenario
from .potentials import (
    FlowPotential,
    dipole_flow,
    embedded_cylinder_flow,
    identity_flow,
    point_source,
    saddle_flow,
    sphere_flow,
    uniform_flow,
)
from .surfaces import RegularBody, box_body, cylinder_body, sphere_body

__all__ = [
    "ScenarioConfig",
    "scenario_catalog",
    "vanishing_force_cases",
    "vanishing_integral_cases",
]


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------

def _finite(value, what: str) -> float:
    """A finite float from outside input; ValueError otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    except OverflowError:   # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _number(value, key: str) -> float:
    """A finite JSON number of config key; not a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return _finite(value, repr(key))


def _read(cfg: dict, key: str, default):
    """cfg[key] shaped like its default: a float default reads one finite
    number, a tuple default reads that many."""
    value = cfg.get(key, default)
    if not isinstance(default, tuple):
        return _number(value, key)
    if not isinstance(value, (list, tuple)) or len(value) != len(default):
        raise ValueError(f"{key!r} needs {len(default)} numbers, got {value!r}")
    return tuple(_number(v, key) for v in value)


# Each potential and body kind: its constructor and the keys it reads
# besides "kind", with their defaults.
_POTENTIAL_KINDS = {
    "uniform": (lambda components: uniform_flow(*components),
                {"components": (1.0, 0.0, 0.0)}),
    "identity": (identity_flow, {}),
    "saddle": (saddle_flow, {}),
    "source": (lambda strength, center:
               point_source(strength, ReducedPoint(*center)),
               {"strength": 1.0, "center": (0.0, 0.0, 0.0)}),
    "dipole": (lambda coefficient, center:
               dipole_flow(coefficient, ReducedPoint(*center)),
               {"coefficient": 1.0, "center": (0.0, 0.0, 0.0)}),
    "sphere": (sphere_flow, {"speed": 1.0, "radius": 1.0}),
    "embedded_cylinder": (embedded_cylinder_flow,
                          {"speed": 1.0, "radius": 1.0, "circulation": 0.0}),
}
_BODY_KINDS = {
    "sphere": (lambda radius, center: sphere_body(radius,
                                                  ReducedPoint(*center)),
               {"radius": 1.0, "center": (0.0, 0.0, 0.0)}),
    "box": (lambda x, y, z: box_body(x, y, z),
            {"x": (-0.5, 0.5), "y": (-0.5, 0.5), "z": (-0.5, 0.5)}),
    "cylinder": (lambda radius, z, center2d:
                 cylinder_body(radius, z[0], z[1], center2d),
                 {"radius": 1.0, "z": (-0.5, 0.5), "center2d": (0.0, 0.0)}),
}


def _kind(cfg: dict, what: str, kinds: dict):
    """The constructor of a config object's kind and its parsed keys.

    An unknown kind, a key the kind does not read, or a value of the
    wrong shape raises ValueError.
    """
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    make, defaults = kinds[kind]
    unknown = set(cfg) - {"kind"} - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown {what} keys for kind {kind!r}: {sorted(unknown)}")
    return make, {key: _read(cfg, key, default)
                  for key, default in defaults.items()}


def _build(name: str, potential: dict, body: dict, description: str = "",
           oracle=None, rho: float = 1.0) -> FlowScenario:
    """The scenario of a potential and a body config; ``oracle(potential,
    body, rho)`` of their parsed keys gives its expected force."""
    make_potential, potential = _kind(potential, "potential", _POTENTIAL_KINDS)
    make_body, body = _kind(body, "body", _BODY_KINDS)
    expected = None if oracle is None else oracle(potential, body, rho)
    return FlowScenario(name=name, potential=make_potential(**potential),
                        body=make_body(**body), rho=rho,
                        description=description, expected_force=expected)


@dataclass(frozen=True)
class ScenarioConfig:
    """JSON-facing description of a potential, a body, and a density.

    A name that is not a string, an unknown potential or body kind, a key
    its kind does not read, a value that is not finite or has the wrong
    length, or a density rho that is not a finite positive number raises
    ValueError, from ``from_dict`` and from direct construction alike.
    """

    name: str
    potential: dict
    body: dict
    rho: float = 1.0

    def __post_init__(self):
        for key in ("potential", "body"):
            if not isinstance(getattr(self, key), dict):
                raise ValueError(f"config needs a {key!r} object")
            object.__setattr__(self, key, dict(getattr(self, key)))
        rho = _number(self.rho, "rho")
        if not rho > 0.0:
            raise ValueError(f"'rho' must be positive, got {rho!r}")
        object.__setattr__(self, "rho", rho)
        _kind(self.potential, "potential", _POTENTIAL_KINDS)
        _kind(self.body, "body", _BODY_KINDS)
        if not isinstance(self.name, str):
            raise ValueError(f"'name' must be a string, got {self.name!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("scenario config must be a JSON object")
        unknown = set(data) - {"name", "potential", "body", "rho"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(name=data.get("name", "custom"),
                   potential=data.get("potential"), body=data.get("body"),
                   rho=data.get("rho", 1.0))

    def to_dict(self) -> dict:
        return {"name": self.name, "potential": dict(self.potential),
                "body": dict(self.body), "rho": self.rho}

    def build(self) -> FlowScenario:
        return _build(self.name, self.potential, self.body, rho=self.rho)


# ----------------------------------------------------------------------
# named scenarios
# ----------------------------------------------------------------------

def _no_force(potential: dict, body: dict, rho: float) -> ReducedPoint:
    return ReducedPoint(0.0, 0.0, 0.0)


def _kutta_joukowski(potential: dict, body: dict, rho: float) -> ReducedPoint:
    """(0, -rho U Gamma (z1 - z0), 0) on a cylinder from z0 to z1."""
    z0, z1 = body["z"]
    return ReducedPoint(0.0, -rho * potential["speed"]
                        * potential["circulation"] * (z1 - z0), 0.0)


_SKEW_STREAM = {"kind": "uniform", "components": (0.8, -0.3, 0.5)}
_SKEW_BOX = {"kind": "box", "x": (-0.6, 0.7), "y": (-0.5, 0.5),
             "z": (-0.4, 0.55)}

# Each named scenario: potential, body, description and force oracle.
# The default cylinder has height exactly 1, so 3D totals equal the
# per-unit-length 2D values.
_SCENARIOS = {
    "cylinder-uniform": (
        {"kind": "embedded_cylinder"}, {"kind": "cylinder"},
        "uniform stream past a unit cylinder, no circulation", _no_force),
    "cylinder-vortex": (
        {"kind": "embedded_cylinder", "circulation": 2.0 * math.pi},
        {"kind": "cylinder"},
        "cylinder with circulation; lift -rho U Gamma per unit height",
        _kutta_joukowski),
    "sphere-stream": (
        {"kind": "sphere"}, {"kind": "sphere"},
        "stream past a sphere: closed body, no net force", _no_force),
    "control-sphere-uniform": (
        {"kind": "uniform"}, {"kind": "sphere"},
        "uniform stream through a spherical control surface", _no_force),
    "control-box-uniform": (
        _SKEW_STREAM, _SKEW_BOX,
        "skew uniform stream through a box control surface", _no_force),
    "control-cylinder-uniform": (
        _SKEW_STREAM, {"kind": "cylinder"},
        "skew uniform stream through a cylinder control surface", _no_force),
}


def scenario_catalog() -> dict[str, FlowScenario]:
    return {name: _build(name, *row) for name, row in _SCENARIOS.items()}


def vanishing_force_cases() -> list[FlowScenario]:
    """Scenarios whose net force must vanish."""
    return [_build(name, *row) for name, row in _SCENARIOS.items()
            if row[3] is _no_force]


# Closed surfaces with a potential monogenic throughout the inside.  The
# source sits at (0, 0, 3): its logarithmic ray runs along -x from there
# and never meets the unit ball, so the field is regular where it
# matters.  The dipole and vortex boxes likewise keep clear of the origin
# and of the vortex branch half-plane x < 0.
_INTEGRAL_CASES = {
    "uniform-on-sphere": ({"kind": "uniform"}, {"kind": "sphere"}),
    "saddle-on-box": ({"kind": "saddle"}, _SKEW_BOX),
    "source-ray-clear": ({"kind": "source", "center": (0.0, 0.0, 3.0)},
                         {"kind": "sphere"}),
    "dipole-offset-box": ({"kind": "dipole"},
                          {"kind": "box", "x": (1.0, 2.0)}),
    "vortex-offset-box": (
        {"kind": "embedded_cylinder", "circulation": 2.0 * math.pi},
        {"kind": "box", "x": (1.5, 2.5), "y": (-0.4, 0.4)}),
}


def vanishing_integral_cases() -> list[tuple[str, FlowPotential, RegularBody]]:
    """Closed surfaces on which the integral of dsigma w vanishes."""
    cases = [_build(name, *row) for name, row in _INTEGRAL_CASES.items()]
    return [(case.name, case.potential, case.body) for case in cases]
