"""Command line interface.

Subcommands: ``verify`` (self-check battery over the integral theorems),
``force`` (all force routes on a scenario), ``moment`` (moment routes and
reference shifts), ``convergence`` (force across quadrature orders) and
``reduce2d`` (planar formulas against the embedded 3D machinery).

Scenarios come from the built-in catalog (``--scenario``) or a JSON
config (``--config``); output is canonical JSON (sorted keys, two-space
indent, trailing newline, non-finite numbers written as null) or CSV with
fixed columns.  Exit codes: 0 all checks passed, 1 a numerical check
failed or a result was not finite, 2 bad usage or config, including
non-finite numbers, unknown config keys and a thread count below 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from .quaternion import ReducedPoint
from .fields import coordinate_field
from .potentials import (
    catalog,
    dipole_flow,
    embedded_cylinder_flow,
    identity_flow,
    point_source,
    saddle_flow,
    sphere_flow,
    uniform_flow,
)
from .surfaces import (
    box_body,
    cylinder_body,
    integrate_g_dsigma_f,
    sphere_body,
)
from .integrals import cauchy_reconstruct, verify_stokes
from .forces import (
    FlowScenario,
    all_force_methods,
    force_blasius,
    moment_from_pressure,
    moment_quadratic,
    moment_reference_shift,
    pressure_field,
)
from .scenarios import scenario_catalog, vanishing_integral_cases
from .planar import PlanarContour, cylinder_vortex_2d, reduce_and_compare

__all__ = ["ScenarioConfig", "main", "console_main"]

DEFAULT_SCENARIO = "sphere-stream"


# ----------------------------------------------------------------------
# configuration
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


@dataclass(frozen=True)
class ScenarioConfig:
    """JSON-facing description of a potential, a body, and a density.

    An unknown potential or body kind, a key its kind does not read, or
    a value that is not finite or has the wrong length raises ValueError.
    """

    name: str
    potential: dict
    body: dict
    rho: float = 1.0

    def __post_init__(self):
        _kind(self.potential, "potential", _POTENTIAL_KINDS)
        _kind(self.body, "body", _BODY_KINDS)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("scenario config must be a JSON object")
        unknown = set(data) - {"name", "potential", "body", "rho"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("potential", "body"):
            if key not in data or not isinstance(data[key], dict):
                raise ValueError(f"config needs a {key!r} object")
        return cls(name=str(data.get("name", "custom")),
                   potential=dict(data["potential"]),
                   body=dict(data["body"]),
                   rho=_read(data, "rho", 1.0))

    def to_dict(self) -> dict:
        return {"name": self.name, "potential": dict(self.potential),
                "body": dict(self.body), "rho": self.rho}

    def build(self) -> FlowScenario:
        make_potential, potential = _kind(self.potential, "potential",
                                          _POTENTIAL_KINDS)
        make_body, body = _kind(self.body, "body", _BODY_KINDS)
        return FlowScenario(name=self.name,
                            potential=make_potential(**potential),
                            body=make_body(**body), rho=self.rho)


def _resolve_scenario(args) -> FlowScenario:
    if args.config and args.scenario:
        raise ValueError("give either --scenario or --config, not both")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return ScenarioConfig.from_dict(data).build()
    name = args.scenario or DEFAULT_SCENARIO
    cat = scenario_catalog()
    if name not in cat:
        raise ValueError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(cat))}")
    return cat[name]


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _strict(value):
    """The payload with every non-finite float replaced by None."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _all_finite(value) -> bool:
    """True when every float in a nested payload is finite."""
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _emit(args, payload: dict, csv_header: list[str],
          csv_rows: list[list]) -> None:
    if args.format == "json":
        text = json.dumps(_strict(payload), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, payload: dict, ok: bool, csv_header: list[str],
            csv_rows: list[list]) -> int:
    """Set the status (a non-finite result fails), emit, return the code."""
    ok = ok and _all_finite(payload)
    payload["status"] = "pass" if ok else "fail"
    _emit(args, payload, csv_header, csv_rows)
    return 0 if ok else 1


def _vec(p: ReducedPoint) -> list[float]:
    return [p.x, p.y, p.z]


def _parse_components(text: str, count: int) -> tuple[float, ...]:
    parts = [t for t in text.replace(" ", "").split(",") if t]
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated numbers, "
                         f"got {text!r}")
    return tuple(_finite(t, "coordinate") for t in parts)


def _single_order(args, default: int = 16) -> int:
    return int(args.order[-1]) if args.order else default


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_force(args) -> int:
    scenario = _resolve_scenario(args)
    order = _single_order(args)
    comparison = all_force_methods(scenario.potential, scenario.body,
                                   rho=scenario.rho, order=order)
    expected = scenario.expected_force
    expected_gap = None
    if expected is not None:
        expected_gap = max((r.force - expected).norm()
                           for r in comparison.results.values())
    ok = comparison.max_disagreement <= args.tol
    if expected_gap is not None:
        ok = ok and expected_gap <= args.tol

    payload = {
        "command": "force",
        "scenario": scenario.name,
        "rho": scenario.rho,
        "order": order,
        "tol": args.tol,
        "results": {name: {"force": _vec(r.force), "nodes": r.node_count}
                    for name, r in comparison.results.items()},
        "gated": dict(comparison.gated),
        "max_disagreement": comparison.max_disagreement,
        "expected_force": _vec(expected) if expected is not None else None,
        "expected_gap": expected_gap,
    }
    rows = [[scenario.name, name, order, r.node_count,
             r.force.x, r.force.y, r.force.z]
            for name, r in sorted(comparison.results.items())]
    return _finish(args, payload, ok, ["scenario", "method", "order",
                                       "nodes", "fx", "fy", "fz"], rows)


def _cmd_moment(args) -> int:
    scenario = _resolve_scenario(args)
    order = _single_order(args)
    about = ReducedPoint(*_parse_components(args.about, 3))
    mq = moment_quadratic(scenario.potential, scenario.body, about,
                          rho=scenario.rho, order=order)
    mp = moment_from_pressure(
        pressure_field(scenario.potential, rho=scenario.rho),
        scenario.body, about, order=order)
    gap = (mq.moment - mp.moment).norm()
    results = {mq.method: mq, mp.method: mp}
    if args.shift_to:
        target = ReducedPoint(*_parse_components(args.shift_to, 3))
        force = force_blasius(scenario.potential, scenario.body,
                              rho=scenario.rho, order=order)
        shifted = moment_reference_shift(mq, force, target)
        results[shifted.method] = shifted
    ok = gap <= args.tol
    payload = {
        "command": "moment",
        "scenario": scenario.name,
        "rho": scenario.rho,
        "order": order,
        "tol": args.tol,
        "about": _vec(about),
        "results": {name: {"moment": _vec(m.moment), "about": _vec(m.about),
                           "nodes": m.node_count}
                    for name, m in results.items()},
        "method_gap": gap,
    }
    rows = [[scenario.name, name, order, m.about.x, m.about.y, m.about.z,
             m.moment.x, m.moment.y, m.moment.z]
            for name, m in sorted(results.items())]
    return _finish(args, payload, ok, ["scenario", "method", "order",
                                       "about_x", "about_y", "about_z",
                                       "mx", "my", "mz"], rows)


def _cmd_verify(args) -> int:
    order = _single_order(args)
    tol = args.tol
    checks: list[dict] = []

    def record(name: str, gap: float, bound: float):
        checks.append({"check": name, "gap": gap, "tol": bound,
                       "status": "pass" if gap <= bound else "fail"})

    probes = [ReducedPoint(1.1, 0.2, 0.3), ReducedPoint(0.7, -0.5, 0.4),
              ReducedPoint(-0.3, 0.8, 1.2), ReducedPoint(0.5, 0.6, -0.7)]
    for name, pot in sorted(catalog().items()):
        report = pot.monogenicity(probes)
        record(f"monogenic:{name}", report.max_residual, report.tol)

    for name, pot, body in vanishing_integral_cases():
        q = integrate_g_dsigma_f(body.surface, None, pot, order)
        record(f"vanishing-integral:{name}", q.norm(), tol)

    coord = coordinate_field()
    box = box_body((-0.5, 0.6), (-0.4, 0.5), (-0.55, 0.45))
    rep = verify_stokes(box, coord, coord, order=order, tol=tol)
    record("stokes-two-sided:box", rep.gap, tol)
    rep = verify_stokes(sphere_body(1.0), None, coord, order=order, tol=tol)
    record("stokes-left:sphere", rep.gap, tol)

    target = ReducedPoint(0.2, 0.1, -0.1)
    f = saddle_flow().field
    rec = cauchy_reconstruct(sphere_body(1.0), f, target)
    record("cauchy-reconstruct:saddle", (rec - f(target)).norm(), 1e-6)

    report = reduce_and_compare(cylinder_vortex_2d(1.0, 1.0, 2.0 * math.pi),
                                PlanarContour.circle(1.0),
                                cylinder_body(1.0, -0.5, 0.5),
                                order_3d=order, tol=tol)
    record("planar-reduction:cylinder-vortex",
           max(report.force_gap, report.moment_gap), tol)

    ok = all(c["status"] == "pass" for c in checks)
    payload = {"command": "verify", "order": order, "tol": tol,
               "checks": checks}
    rows = [[c["check"], c["gap"], c["tol"], c["status"]] for c in checks]
    return _finish(args, payload, ok, ["check", "gap", "tol", "status"],
                   rows)


def _cmd_convergence(args) -> int:
    scenario = _resolve_scenario(args)
    orders = sorted(set(args.order)) if args.order else [8, 16, 32]
    entries = []
    prev: Optional[ReducedPoint] = None
    for order in orders:
        res = force_blasius(scenario.potential, scenario.body,
                            rho=scenario.rho, order=order)
        step = (res.force - prev).norm() if prev is not None else None
        entries.append({"order": order, "nodes": res.node_count,
                        "force": _vec(res.force),
                        "change_from_previous": step})
        prev = res.force
    payload = {"command": "convergence", "scenario": scenario.name,
               "rho": scenario.rho, "method": "blasius",
               "entries": entries}
    rows = [[scenario.name, "blasius", e["order"], e["nodes"],
             e["force"][0], e["force"][1], e["force"][2],
             "" if e["change_from_previous"] is None
             else repr(e["change_from_previous"])]
            for e in entries]
    return _finish(args, payload, True, ["scenario", "method", "order",
                                         "nodes", "fx", "fy", "fz",
                                         "change"], rows)


def _cmd_reduce2d(args) -> int:
    speed, radius, circulation = 1.0, 1.0, 2.0 * math.pi
    (z_min, z_max), rho = (-0.5, 0.5), 1.0
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = ScenarioConfig.from_dict(json.load(fh))
        # the comparison needs the extrusion of the circular contour, a
        # streamline of the planar flow
        pot = _kind(cfg.potential, "potential", _POTENTIAL_KINDS)[1]
        body = _kind(cfg.body, "body", _BODY_KINDS)[1]
        if cfg.potential["kind"] != "embedded_cylinder":
            raise ValueError(
                "reduce2d config needs an embedded_cylinder potential")
        if (cfg.body["kind"] != "cylinder" or body["radius"] != pot["radius"]
                or body["center2d"] != (0.0, 0.0)):
            raise ValueError(
                "reduce2d config needs a cylinder body about the z axis "
                "with the potential's radius")
        speed, radius, circulation = (pot["speed"], pot["radius"],
                                      pot["circulation"])
        (z_min, z_max), rho = body["z"], cfg.rho
    about = complex(*_parse_components(args.about, 2)) if args.about else 0j
    report = reduce_and_compare(cylinder_vortex_2d(speed, radius, circulation),
                                PlanarContour.circle(radius),
                                cylinder_body(radius, z_min, z_max), rho=rho,
                                order_3d=_single_order(args), about=about,
                                height=z_max - z_min, tol=args.tol)
    payload = {
        "command": "reduce2d",
        "speed": speed, "radius": radius, "circulation": circulation,
        "rho": rho, "about": [about.real, about.imag],
        "force_2d": [report.force_2d.real, report.force_2d.imag],
        "force_3d": _vec(report.force_3d),
        "force_gap": report.force_gap,
        "moment_2d": report.moment_2d,
        "moment_3d_z": report.moment_3d.z,
        "moment_gap": report.moment_gap,
        "tol": report.tol,
    }
    rows = [
        ["force_x", report.force_2d.real, report.force_3d.x],
        ["force_y", report.force_2d.imag, report.force_3d.y],
        ["moment_z", report.moment_2d, report.moment_3d.z],
    ]
    return _finish(args, payload, report.ok,
                   ["quantity", "planar", "embedded_3d"], rows)


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _finite_arg(text: str) -> float:
    try:
        return _finite(text, "the value")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be at least 1, got {count}")
    return count


# Every option a subcommand may take: its flag and argparse keywords.
_OPTIONS = {
    "scenario": ("--scenario", {"help": "named scenario from the catalog"}),
    "config": ("--config", {"help": "path to a JSON scenario config"}),
    "order": ("--order", {"action": "append", "type": int,
                          "help": "quadrature order (repeatable for "
                                  "convergence)"}),
    "tol": ("--tol", {"type": _finite_arg, "default": 1e-8,
                      "help": "pass/fail tolerance (default 1e-8)"}),
    "about": ("--about", {"default": "0,0,0",
                          "help": "reference point, three comma-separated "
                                  "numbers"}),
    "shift-to": ("--shift-to", {"dest": "shift_to",
                                "help": "also transport the moment to this "
                                        "reference point"}),
    "about-2d": ("--about", {"help": "planar moment reference, two "
                                     "comma-separated numbers"}),
    "format": ("--format", {"choices": ("json", "csv"), "default": "json"}),
    "output": ("--output", {"help": "write output to this file"}),
    "threads": ("--threads", {"type": _thread_count, "default": None,
                              "help": "accepted for compatibility; has no "
                                      "effect, evaluation is serial"}),
}

# Each subcommand with the options it reads; every one also takes
# --format, --output and --threads.
_COMMANDS = (
    ("verify", _cmd_verify, "run the integral-theorem battery",
     ("order", "tol")),
    ("force", _cmd_force, "evaluate every force route",
     ("scenario", "config", "order", "tol")),
    ("moment", _cmd_moment, "evaluate moment routes",
     ("scenario", "config", "order", "tol", "about", "shift-to")),
    ("convergence", _cmd_convergence, "force across quadrature orders",
     ("scenario", "config", "order")),
    ("reduce2d", _cmd_reduce2d, "compare planar formulas with embedded 3D",
     ("config", "order", "tol", "about-2d")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatflow",
        description="quaternionic flow potentials, surface integrals, "
                    "and force/moment formulas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text, options in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for option in options + ("format", "output", "threads"):
            flag, keywords = _OPTIONS[option]
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        # non-finite results are reported in the JSON verdict, so numpy's
        # overflow and invalid-value warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"quatflow: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
