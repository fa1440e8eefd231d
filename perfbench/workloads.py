"""Seeded inputs, request execution and output checks for the workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous one returned, because library callers wait for
each result.  Inputs are plain data ("specs") derived from the seed alone,
so the same seed always gives the same request list; they are turned into
quatflow objects only when a request runs.  Requests are grouped into
passes of fixed composition (only the seeded parameters and the order
vary), and a run always measures whole passes, so two runs with different
seeds exercise the same mix of work.

Program calls go through module attributes (``quatflow.cli.main``,
``quatflow.forces.all_force_methods``, ...) at call time, so the traced run
can rebind them.  Checks run outside the timed region and are written so
that NaN fails them (``not (gap <= tol)``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

import quatflow
import quatflow.cli
import quatflow.fields
import quatflow.forces
import quatflow.integrals
import quatflow.potentials
from quatflow.quaternion import ReducedPoint

WORKLOAD_NAMES = ("cli-mix", "forces-warm", "completion")


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    """The generator for one pass; a string seed is hashed stably."""
    return random.Random(f"{workload}/{seed}/{pass_index}")


@dataclass
class Outcome:
    """What one request returned: latency, CPU time, and check verdict."""

    latency_s: float
    cpu_s: float
    ok: bool
    error: str = ""
    tags: dict = field(default_factory=dict)


class Workload:
    """Defaults for the hooks run.py calls on every workload."""

    min_passes = 1

    def tags(self, spec: dict) -> dict:
        """Facts about a request that the metrics group by."""
        return {}

    def end_of_pass(self, specs, results, outcomes) -> None:
        """Checks that compare the requests of one pass."""

    def reset_stats(self) -> None:
        """Forget the workload's own measurements."""

    def stats(self) -> dict:
        """The workload's own measurements since the last reset."""
        return {}


# ----------------------------------------------------------------------
# shared checks
# ----------------------------------------------------------------------

def _vec_norm(v) -> float:
    return math.sqrt(v.x * v.x + v.y * v.y + v.z * v.z)


def _within(gap: float, tol: float) -> bool:
    """NaN-safe comparison: a NaN gap fails."""
    return gap <= tol


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ----------------------------------------------------------------------
# cli-mix
# ----------------------------------------------------------------------

CLI_SCENARIOS = ("sphere-stream", "cylinder-uniform", "cylinder-vortex",
                 "control-sphere-uniform", "control-box-uniform",
                 "control-cylinder-uniform")

CLI_ARGVS = (
    ("verify",),
    *(("force", "--scenario", name, "--order", "16")
      for name in CLI_SCENARIOS),
    ("force", "--scenario", "sphere-stream", "--order", "64"),
    ("force", "--scenario", "cylinder-vortex", "--order", "32"),
    ("moment", "--scenario", "cylinder-vortex", "--about", "0.3,0,0",
     "--shift-to", "0,0,0"),
    ("convergence", "--scenario", "sphere-stream", "--order", "8",
     "--order", "16", "--order", "32"),
    ("reduce2d", "--about", "0.3,0"),
)

def cli_pass(seed: int, pass_index: int) -> list[dict]:
    """Every argv once with the default threads and once with two."""
    specs = [{"argv": list(argv), "threads": threads}
             for argv in CLI_ARGVS for threads in (None, 2)]
    pass_rng("cli-mix", seed, pass_index).shuffle(specs)
    return specs


def cli_full_argv(spec: dict) -> list[str]:
    argv = list(spec["argv"])
    if spec["threads"] is not None:
        argv += ["--threads", str(spec["threads"])]
    return argv


class CliMix(Workload):
    name = "cli-mix"
    min_passes = 2   # 48 requests: the tail is p75

    def setup(self, seed: int) -> None:
        self.seed = seed

    def make_pass(self, pass_index: int) -> list[dict]:
        return cli_pass(self.seed, pass_index)

    def call(self, spec: dict):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = quatflow.cli.main(cli_full_argv(spec))
        return code, out.getvalue(), err.getvalue()

    def check(self, spec: dict, result) -> str:
        code, stdout, stderr = result
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        try:
            payload = strict_json(stdout)
        except ValueError as err:
            return f"output is not strict JSON: {err}"
        if not isinstance(payload, dict) or payload.get("status") != "pass":
            return "status is not pass"
        return ""

    def tags(self, spec: dict) -> dict:
        return {"argv": " ".join(spec["argv"]),
                "threaded": spec["threads"] is not None}

    def end_of_pass(self, specs: list[dict], results: list,
                    outcomes: list[Outcome]) -> None:
        """Default and --threads 2 output of one argv must match bytewise."""
        by_argv: dict[tuple, dict] = {}
        for spec, result, outcome in zip(specs, results, outcomes):
            slot = "threaded" if spec["threads"] is not None else "default"
            by_argv.setdefault(tuple(spec["argv"]), {})[slot] = (result,
                                                                 outcome)
        for pair in by_argv.values():
            (res_d, _), (res_t, out_t) = pair["default"], pair["threaded"]
            if res_d is None or res_t is None:
                continue
            if res_d[1] != res_t[1] and out_t.ok:
                out_t.ok = False
                out_t.error = "output differs from the default-thread bytes"


# ----------------------------------------------------------------------
# forces-warm
# ----------------------------------------------------------------------

FORCE_ORDERS = (32, 48)

# Body and potential pairs of one pass; each runs at both orders.  Every
# potential kind and every classical oracle appears: the sphere flow on
# the sphere, a uniform stream through the box, the circulating cylinder,
# and the saddle (whose pressure integral is 4 rho times the volume
# moment of (x, y, 0), so nonzero on the off-centre box).
FORCE_MIX = (
    ("sphere", "stream+source"),
    ("sphere", "stream+dipole"),
    ("sphere", "sphere"),
    ("box", "stream"),
    ("box", "stream+dipole"),
    ("box", "saddle"),
    ("cylinder", "stream+source"),
    ("cylinder", "vortex"),
    ("cylinder", "sphere"),
    ("cylinder", "saddle"),
)

BOX_RANGES = ((-0.6, 0.7), (-0.5, 0.5), (-0.4, 0.55))

# Singular points keep this distance from every quadrature node, and a
# source's cut ray (along -x from the source) keeps RAY_CLEARANCE.
POINT_CLEARANCE = 0.2
RAY_CLEARANCE = 0.02


def build_bodies() -> dict:
    return {
        "sphere": quatflow.sphere_body(1.0),
        "box": quatflow.box_body(*BOX_RANGES),
        "cylinder": quatflow.cylinder_body(1.0, -0.5, 0.5),
    }


def node_array(body, order: int) -> np.ndarray:
    """All quadrature points of a body at an order, as an (N, 3) array."""
    return np.array([p.as_tuple() for cn in body.surface.quadrature(order)
                     for p in cn.points])


def _unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if 0.1 < n <= 1.0:
            return tuple(c / n for c in v)


def _stream(rng: random.Random) -> list[float]:
    speed = rng.uniform(0.5, 1.5)
    return [speed * c for c in _unit_vector(rng)]


def _inner_point(rng: random.Random, body: str) -> list[float]:
    """A point well inside the body, before the node clearance test."""
    if body == "sphere":
        while True:
            p = [rng.uniform(-0.6, 0.6) for _ in range(3)]
            if sum(c * c for c in p) <= 0.36:
                return p
    if body == "box":
        return [rng.uniform(lo + 0.25, hi - 0.25) for lo, hi in BOX_RANGES]
    while True:
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        if x * x + y * y <= 0.36:
            return [x, y, rng.uniform(-0.25, 0.25)]


def point_clearance(nodes: np.ndarray, center) -> float:
    return float(np.min(np.linalg.norm(nodes - np.asarray(center), axis=1)))


def ray_clearance(nodes: np.ndarray, center) -> float:
    """Distance from the nodes to the ray running along -x from center."""
    rel = nodes - np.asarray(center)
    behind = rel[:, 0] <= 0.0
    radial = np.hypot(rel[:, 1], rel[:, 2])
    dist = np.where(behind, radial, np.linalg.norm(rel, axis=1))
    return float(np.min(dist))


def singular_clearance_ok(spec: dict, nodes: np.ndarray) -> bool:
    """The domain rule for sources and dipoles placed inside a body."""
    if "center" not in spec:
        return True
    if point_clearance(nodes, spec["center"]) < POINT_CLEARANCE:
        return False
    if spec["kind"] == "stream+source":
        return ray_clearance(nodes, spec["center"]) >= RAY_CLEARANCE
    return True


def force_spec(rng: random.Random, body: str, kind: str, order: int,
               nodes: np.ndarray) -> dict:
    spec = {"body": body, "kind": kind, "order": order,
            "rho": rng.uniform(0.8, 1.25),
            "about": [rng.uniform(-0.3, 0.3) for _ in range(3)]}
    if kind.startswith("stream"):
        spec["stream"] = _stream(rng)
    if kind == "stream+source":
        spec["strength"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    elif kind == "stream+dipole":
        spec["coefficient"] = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
    elif kind == "sphere":
        spec["speed"] = rng.uniform(0.5, 1.5)
        spec["radius"] = 1.0 if body == "sphere" else rng.uniform(0.3, 0.6)
    elif kind == "vortex":
        spec["speed"] = rng.uniform(0.5, 1.5)
        spec["circulation"] = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
    if kind in ("stream+source", "stream+dipole"):
        while True:
            spec["center"] = _inner_point(rng, body)
            if singular_clearance_ok(spec, nodes):
                break
    return spec


def forces_pass(seed: int, pass_index: int, node_arrays: dict) -> list[dict]:
    """One pass of forces-warm: every FORCE_MIX pair at both orders."""
    rng = pass_rng("forces-warm", seed, pass_index)
    specs = [force_spec(rng, body, kind, order, node_arrays[body, order])
             for body, kind in FORCE_MIX for order in FORCE_ORDERS]
    rng.shuffle(specs)
    return specs


def build_potential(spec: dict):
    kind = spec["kind"]
    if kind.startswith("stream"):
        pot = quatflow.uniform_flow(*spec["stream"])
        if kind == "stream+source":
            pot = pot + quatflow.point_source(
                spec["strength"], ReducedPoint(*spec["center"]))
        elif kind == "stream+dipole":
            pot = pot + quatflow.dipole_flow(
                spec["coefficient"], ReducedPoint(*spec["center"]))
        return pot
    if kind == "sphere":
        return quatflow.sphere_flow(spec["speed"], spec["radius"])
    if kind == "vortex":
        return quatflow.embedded_cylinder_flow(spec["speed"], 1.0,
                                               spec["circulation"])
    if kind == "saddle":
        return quatflow.saddle_flow()
    raise ValueError(f"unknown potential kind {kind!r}")


def force_oracle(spec: dict):
    """The classical force on the body, or None where none is known."""
    body, kind, rho = spec["body"], spec["kind"], spec["rho"]
    if kind == "stream" or (kind == "sphere" and body == "sphere"):
        return (0.0, 0.0, 0.0)
    if kind == "vortex":
        # Kutta-Joukowski: -rho U Gamma H along y, H = 1
        return (0.0, -rho * spec["speed"] * spec["circulation"], 0.0)
    if kind == "saddle":
        # Gauss: -(integral) p n dS = (rho/2) (integral) grad|v|^2 dV
        # with |v|^2 = 4 (x^2 + y^2), i.e. 4 rho (integral) (x, y, 0) dV.
        if body != "box":
            return (0.0, 0.0, 0.0)
        (x0, x1), (y0, y1), (z0, z1) = BOX_RANGES
        vol = (x1 - x0) * (y1 - y0) * (z1 - z0)
        return (4.0 * rho * vol * 0.5 * (x0 + x1),
                4.0 * rho * vol * 0.5 * (y0 + y1), 0.0)
    return None


FORCE_TOL = 1e-8


def check_forces(spec: dict, comparison, moments) -> str:
    """Route agreement, moment agreement and classical oracles."""
    forces = {name: r.force for name, r in comparison.results.items()}
    if len(forces) < 3:
        return f"only {sorted(forces)} returned a force"
    scale = 1.0 + max(_vec_norm(f) for f in forces.values())
    names = sorted(forces)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            gap = _vec_norm(forces[names[a]] - forces[names[b]])
            if not _within(gap, FORCE_TOL * scale):
                return f"routes {names[a]}/{names[b]} disagree by {gap!r}"
    mq, mp = moments
    gap = _vec_norm(mq.moment - mp.moment)
    if not _within(gap, FORCE_TOL * (1.0 + _vec_norm(mq.moment))):
        return f"moment routes disagree by {gap!r}"
    oracle = force_oracle(spec)
    if oracle is not None:
        expected = ReducedPoint(*oracle)
        tol = FORCE_TOL * (1.0 + _vec_norm(expected))
        for name, f in forces.items():
            gap = _vec_norm(f - expected)
            if not _within(gap, tol):
                return f"{name} misses the oracle by {gap!r}"
    return ""


class ForcesWarm(Workload):
    name = "forces-warm"
    min_passes = 2   # 40 requests: the tail is p75

    def setup(self, seed: int) -> None:
        """Build the fixed bodies and warm their node tables."""
        self.seed = seed
        self.bodies = build_bodies()
        self.node_arrays = {(name, order): node_array(body, order)
                            for name, body in self.bodies.items()
                            for order in FORCE_ORDERS}
        self.node_counts = {key: len(arr)
                            for key, arr in self.node_arrays.items()}

    def make_pass(self, pass_index: int) -> list[dict]:
        return forces_pass(self.seed, pass_index, self.node_arrays)

    def call(self, spec: dict):
        pot = build_potential(spec)
        body = self.bodies[spec["body"]]
        order, rho = spec["order"], spec["rho"]
        about = ReducedPoint(*spec["about"])
        comparison = quatflow.forces.all_force_methods(pot, body, rho=rho,
                                                       order=order)
        mq = quatflow.forces.moment_quadratic(pot, body, about, rho=rho,
                                              order=order)
        mp = quatflow.forces.moment_from_pressure(
            quatflow.forces.pressure_field(pot, rho=rho), body, about,
            order=order)
        return comparison, (mq, mp)

    def check(self, spec: dict, result) -> str:
        return check_forces(spec, *result)

    def tags(self, spec: dict) -> dict:
        return {"nodes": self.node_counts[spec["body"], spec["order"]]}


# ----------------------------------------------------------------------
# completion
# ----------------------------------------------------------------------

POLYNOMIALS = ("x", "xy", "x^2-y^2", "1+x+yz", "x^3-3xy^2", "xyz")
SINGULAR = ("1/r", "x/r^3", "log(x+r)")
COMPLETION_SCALARS = POLYNOMIALS + SINGULAR
# scalars whose completion about the origin has a closed form
CLOSED_FORMS = {"x": "identity_flow", "x^2-y^2": "saddle_flow"}

REQUESTS_PER_SCALAR = 4   # one of them also runs the Cauchy check
POINTS_PER_REQUEST = 3
CAUCHY_RADIUS = 0.1
CAUCHY_ORDER = 6
CAUCHY_TOL = 1e-6
# Every segment from the centre to a sample point, and the Cauchy sphere,
# stays this far from u's singular set (origin, plus the negative x-axis
# for log(x+r)).
SINGULAR_MARGIN = 0.5


def distance_to_singular_set(name: str, p) -> float:
    """Distance from p to where u is singular; inf for polynomials."""
    if name in POLYNOMIALS:
        return math.inf
    x, y, z = p
    r = math.sqrt(x * x + y * y + z * z)
    if name == "log(x+r)" and x < 0.0:
        return math.hypot(y, z)
    return r


def completion_reach(spec: dict) -> float:
    """Radius about the centre of a ball holding every segment used."""
    c = spec["center"]
    reach = max(math.dist(c, p) for p in spec["points"])
    if spec["cauchy"] is not None:
        reach = max(reach, math.dist(c, spec["cauchy"]["center"])
                    + spec["cauchy"]["radius"])
    return reach


def completion_domain_ok(spec: dict) -> bool:
    """Segments from the centre stay inside u's domain with a margin.

    Every segment lies in the ball about the centre of radius
    ``completion_reach``; the ball keeps SINGULAR_MARGIN from the
    singular set (the set is the origin or a ray ending there, and the
    ball sits at x > 0, so the distance from the centre bounds it).
    """
    d = distance_to_singular_set(spec["scalar"], spec["center"])
    return d - completion_reach(spec) >= SINGULAR_MARGIN


def _point_in_shell(rng: random.Random, center, r_lo: float, r_hi: float):
    r = rng.uniform(r_lo, r_hi)
    return [c + r * d for c, d in zip(center, _unit_vector(rng))]


def completion_spec(rng: random.Random, scalar: str, cauchy: bool) -> dict:
    while True:
        if scalar in CLOSED_FORMS:
            center = [0.0, 0.0, 0.0]
        elif scalar in POLYNOMIALS:
            center = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        else:
            center = [rng.uniform(1.4, 1.8), rng.uniform(-0.3, 0.3),
                      rng.uniform(-0.3, 0.3)]
        r_hi = 0.8 if scalar in POLYNOMIALS else 0.5
        spec = {"scalar": scalar, "center": center,
                "points": [_point_in_shell(rng, center, 0.2, r_hi)
                           for _ in range(POINTS_PER_REQUEST)],
                "cauchy": None}
        if cauchy:
            spec["cauchy"] = {
                "center": _point_in_shell(rng, center, 0.0, 0.3),
                "radius": CAUCHY_RADIUS, "order": CAUCHY_ORDER}
        if completion_domain_ok(spec):
            return spec


def completion_pass(seed: int, pass_index: int) -> list[dict]:
    rng = pass_rng("completion", seed, pass_index)
    specs = []
    for scalar in COMPLETION_SCALARS:
        cauchy_slot = rng.randrange(REQUESTS_PER_SCALAR)
        specs += [completion_spec(rng, scalar, k == cauchy_slot)
                  for k in range(REQUESTS_PER_SCALAR)]
    rng.shuffle(specs)
    return specs


class CountingScalar:
    """Wraps a catalog scalar so that every call into it is counted."""

    def __init__(self, u):
        self.calls = 0

        def counted(method):
            def wrapper(p):
                self.calls += 1
                return method(p)
            return wrapper

        self.field = quatflow.ScalarField(
            counted(u), gradient=counted(u.gradient_at),
            laplacian=counted(u.laplacian_at),
            hessian=counted(u.hessian_at) if u.has_analytic_hessian else None,
            domain=u.in_domain, name=u.name)


def _jet_gap(a, b) -> float:
    return max(abs(qa_c - qb_c)
               for qa, qb in zip(a, b)
               for qa_c, qb_c in zip((qa.q0, qa.q1, qa.q2, qa.q3),
                                     (qb.q0, qb.q1, qb.q2, qb.q3)))


class Completion(Workload):
    name = "completion"
    # 108 requests: the tail is p90, inside the quarter of requests that
    # run the Cauchy check (p75 would sit on the boundary)
    min_passes = 3

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.catalog = quatflow.harmonic_catalog()
        self.reset_stats()

    def reset_stats(self) -> None:
        self.jet_seconds = 0.0
        self.jets = 0
        self.u_calls_in_jets = 0

    def stats(self) -> dict:
        """Time and u calls of the benchmark's own completion jets."""
        return {"completion_jet_s": self.jet_seconds,
                "completion_jets": self.jets,
                "completion_u_calls": self.u_calls_in_jets}

    def make_pass(self, pass_index: int) -> list[dict]:
        return completion_pass(self.seed, pass_index)

    def call(self, spec: dict):
        u = CountingScalar(self.catalog[spec["scalar"]])
        pot = quatflow.potentials.monogenic_completion(
            u.field, ReducedPoint(*spec["center"]))
        points = [ReducedPoint(*p) for p in spec["points"]]
        jets = []
        for p in points:
            before = u.calls
            t0 = time.perf_counter()
            jets.append(pot.field.jet_at(p))
            self.jet_seconds += time.perf_counter() - t0
            self.u_calls_in_jets += u.calls - before
            self.jets += 1
        report = quatflow.fields.is_monogenic(pot.field, points)
        cauchy = None
        if spec["cauchy"] is not None:
            c = spec["cauchy"]
            sphere = quatflow.sphere_body(c["radius"],
                                          ReducedPoint(*c["center"]))
            cauchy = quatflow.integrals.verify_cauchy_theorem(
                sphere, pot.field, order=c["order"], tol=CAUCHY_TOL)
        return pot, points, jets, report, cauchy

    def check(self, spec: dict, result) -> str:
        pot, points, jets, report, cauchy = result
        u = self.catalog[spec["scalar"]]
        tol = quatflow.fields.default_monogenicity_tol(pot.field)
        if not (0.0 <= report.max_residual <= tol):
            return f"|Dw| = {report.max_residual!r} exceeds {tol!r}"
        for p, jet in zip(points, jets):
            want = u(p)
            gap = abs(jet.value.q0 - want)
            if not _within(gap, 1e-12 * (1.0 + abs(want))):
                return f"Sc w differs from u by {gap!r} at {p.as_tuple()}"
        closed = CLOSED_FORMS.get(spec["scalar"])
        if closed is not None:
            ref = getattr(quatflow, closed)()
            for p, jet in zip(points, jets):
                want = ref.jet_at(p)
                scale = 1.0 + max(abs(c) for q in want
                                  for c in (q.q0, q.q1, q.q2, q.q3))
                gap = _jet_gap(jet, want)
                if not _within(gap, 1e-9 * scale):
                    return f"completion misses {closed} by {gap!r}"
        if cauchy is not None and not _within(cauchy.gap, CAUCHY_TOL):
            return f"Cauchy integral {cauchy.gap!r} exceeds {CAUCHY_TOL!r}"
        return ""


def make_workload(name: str):
    return {"cli-mix": CliMix, "forces-warm": ForcesWarm,
            "completion": Completion}[name]()
