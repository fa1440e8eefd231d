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
import functools
import io
import json
import math
import sys
from typing import Optional

import numpy as np

from .quaternion import ReducedPoint
from .fields import coordinate_field
from .potentials import catalog, saddle_flow
from .surfaces import box_body, cylinder_body, sphere_body
from .integrals import cauchy_reconstruct, verify_cauchy_theorem, verify_stokes
from .forces import (
    FlowScenario,
    all_force_methods,
    force_blasius,
    moment_from_pressure,
    moment_quadratic,
    moment_reference_shift,
    pressure_field,
)
from .scenarios import (
    _BODY_KINDS,
    _POTENTIAL_KINDS,
    _SCENARIOS,
    ScenarioConfig,
    _build,
    _finite,
    _kind,
    vanishing_integral_cases,
)
from .planar import PlanarContour, cylinder_vortex_2d, reduce_and_compare

__all__ = ["ScenarioConfig", "main", "console_main"]

DEFAULT_SCENARIO = "sphere-stream"


def _resolve_scenario(args) -> FlowScenario:
    if args.config and args.scenario:
        raise ValueError("give either --scenario or --config, not both")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return ScenarioConfig.from_dict(data).build()
    name = args.scenario or DEFAULT_SCENARIO
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: "
                         f"{', '.join(sorted(_SCENARIOS))}")
    return _build(name, *_SCENARIOS[name])


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _strict(value, replaced: list):
    """The payload, each non-finite float None and appended to replaced."""
    if isinstance(value, dict):
        return {k: _strict(v, replaced) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v, replaced) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        replaced.append(value)
        return None
    return value


def _emit(args, payload: dict, csv_header: list[str],
          csv_rows: list[list]) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2,
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
    """Emit the strict payload with its status (a non-finite value fails);
    return the exit code."""
    replaced: list = []
    payload = _strict(payload, replaced)
    ok = ok and not replaced
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
    """The one --order value, or default; only convergence takes several."""
    if not args.order:
        return default
    if len(args.order) > 1:
        raise ValueError(f"{args.command} takes one --order, got "
                         f"{', '.join(map(str, args.order))}")
    return int(args.order[0])


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
        # np.max propagates NaN where the builtin max would drop it
        expected_gap = float(np.max([(r.force - expected).norm()
                                     for r in comparison.results.values()]))
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
        rep = verify_cauchy_theorem(body, pot, order=order, tol=tol)
        record(f"vanishing-integral:{name}", rep.gap, tol)

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
           float(np.max((report.force_gap, report.moment_gap))), tol)

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
    cfg = ScenarioConfig("cylinder-vortex", *_SCENARIOS["cylinder-vortex"][:2])
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
        raise ValueError("reduce2d config needs a cylinder body about the z "
                         "axis with the potential's radius")
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

def _tolerance(text: str) -> float:
    try:
        tol = _finite(text, "the value")
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if tol < 0.0:
        raise argparse.ArgumentTypeError(
            f"the tolerance must not be negative, got {text!r}")
    return tol + 0.0   # -0 reads as 0.0


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None


def _thread_count(text: str) -> int:
    count = _integer(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"thread count must be at least 1, got {count}")
    return count


# The largest --order.  The Gauss-Legendre nodes come from a dense
# order x order eigenproblem, so a far larger order would run out of memory
# before any result; orders below 2 fail later, in the quadrature builders.
_MAX_ORDER = 256


def _quadrature_order(text: str) -> int:
    order = _integer(text)
    if order > _MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"quadrature order must be at most {_MAX_ORDER}, got {order}")
    return order


# Every option a subcommand may take: its flag and argparse keywords.
_OPTIONS = {
    "scenario": ("--scenario", {"help": "named scenario from the catalog"}),
    "config": ("--config", {"help": "path to a JSON scenario config"}),
    "order": ("--order", {"action": "append", "type": _quadrature_order,
                          "help": f"quadrature order, at most {_MAX_ORDER} "
                                  f"(repeatable for convergence)"}),
    "tol": ("--tol", {"type": _tolerance, "default": 1e-8,
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
# --format, --output and --threads.  ``main`` looks ``_cmd_<name>`` up
# in the module when it runs, so a rebinding of that name takes effect.
_COMMANDS = (
    ("verify", "run the integral-theorem battery", ("order", "tol")),
    ("force", "evaluate every force route",
     ("scenario", "config", "order", "tol")),
    ("moment", "evaluate moment routes",
     ("scenario", "config", "order", "tol", "about", "shift-to")),
    ("convergence", "force across quadrature orders",
     ("scenario", "config", "order")),
    ("reduce2d", "compare planar formulas with embedded 3D",
     ("config", "order", "tol", "about-2d")),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatflow",
        description="quaternionic flow potentials, surface integrals, "
                    "and force/moment formulas")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, options in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for option in options + ("format", "output", "threads"):
            flag, keywords = _OPTIONS[option]
            p.add_argument(flag, **keywords)
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
            return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"quatflow: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
