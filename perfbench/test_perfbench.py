"""Tests of the benchmark itself: seeded inputs, domain rules, checks.

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import quatflow  # noqa: E402
from quatflow.quaternion import ReducedPoint  # noqa: E402

import metrics  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = (0, 1, 7)


@pytest.fixture(scope="module")
def forces():
    wl = W.ForcesWarm()
    wl.setup(0)
    return wl


def _passes(name, seed, forces, count=2):
    if name == "forces-warm":
        return [W.forces_pass(seed, k, forces.node_arrays)
                for k in range(count)]
    if name == "cli-mix":
        return [W.cli_pass(seed, k) for k in range(count)]
    return [W.completion_pass(seed, k) for k in range(count)]


@pytest.mark.parametrize("name", W.WORKLOAD_NAMES)
def test_same_seed_gives_identical_requests(name, forces):
    first = json.dumps(_passes(name, 3, forces))
    assert json.dumps(_passes(name, 3, forces)) == first
    assert json.dumps(_passes(name, 4, forces)) != first


def test_cli_pass_runs_every_argv_with_both_thread_settings():
    specs = W.cli_pass(0, 0)
    pairs = sorted((tuple(s["argv"]), s["threads"] or 0) for s in specs)
    assert pairs == sorted((argv, t) for argv in W.CLI_ARGVS
                           for t in (0, 2))


def test_force_pass_has_fixed_composition(forces):
    for seed in SEEDS:
        specs = W.forces_pass(seed, 0, forces.node_arrays)
        mix = sorted((s["body"], s["kind"], s["order"]) for s in specs)
        assert mix == sorted((b, k, o) for b, k in W.FORCE_MIX
                             for o in W.FORCE_ORDERS)


def test_singularities_sit_inside_the_body_clear_of_every_node(forces):
    for seed in SEEDS:
        for spec in W.forces_pass(seed, 0, forces.node_arrays):
            if "center" not in spec:
                continue
            key = (spec["body"], spec["order"])
            nodes = forces.node_arrays[key]
            assert W.point_clearance(nodes, spec["center"]) \
                >= W.POINT_CLEARANCE
            if spec["kind"] == "stream+source":
                assert W.ray_clearance(nodes, spec["center"]) \
                    >= W.RAY_CLEARANCE
            body = forces.bodies[spec["body"]]
            center = ReducedPoint(*spec["center"])
            assert _inside(spec["body"], center)
            pot = W.build_potential(spec)
            assert all(pot.in_domain(p)
                       for cn in body.surface.quadrature(spec["order"])
                       for p in cn.points)


def _inside(body: str, p: ReducedPoint) -> bool:
    if body == "sphere":
        return p.norm() < 1.0
    if body == "box":
        return all(lo < c < hi for c, (lo, hi)
                   in zip(p.as_tuple(), W.BOX_RANGES))
    return math.hypot(p.x, p.y) < 1.0 and -0.5 < p.z < 0.5


def test_completion_segments_stay_in_the_domain():
    catalog = quatflow.harmonic_catalog()
    for seed in SEEDS:
        for spec in W.completion_pass(seed, 0):
            assert W.completion_domain_ok(spec)
            u = catalog[spec["scalar"]]
            c = spec["center"]
            ends = list(spec["points"])
            if spec["cauchy"] is not None:
                ends.append(spec["cauchy"]["center"])
            for end in ends:
                for k in range(33):
                    t = k / 32.0
                    q = [a + t * (b - a) for a, b in zip(c, end)]
                    assert u.in_domain(ReducedPoint(*q))
                    assert W.distance_to_singular_set(spec["scalar"], q) \
                        >= W.SINGULAR_MARGIN


def test_completion_pass_runs_each_scalar_with_one_cauchy_check():
    specs = W.completion_pass(0, 0)
    for scalar in W.COMPLETION_SCALARS:
        mine = [s for s in specs if s["scalar"] == scalar]
        assert len(mine) == W.REQUESTS_PER_SCALAR
        assert sum(s["cauchy"] is not None for s in mine) == 1


def test_nan_forces_fail_the_check():
    nan = ReducedPoint(math.nan, 0.0, 0.0)
    result = quatflow.ForceResult(nan, "pressure", 4, 1)
    comparison = quatflow.forces.ForceComparison(
        {"pressure": result, "blasius": result._replace(method="blasius"),
         "components-sc": result._replace(method="components-sc")}, {}, 0.0)
    moment = quatflow.MomentResult(ReducedPoint(), ReducedPoint(), "m", 4, 1)
    spec = {"body": "box", "kind": "stream+dipole", "rho": 1.0}
    assert W.check_forces(spec, comparison, (moment, moment)) != ""


def test_forces_request_passes_its_checks(forces):
    spec = next(s for s in W.forces_pass(0, 0, forces.node_arrays)
                if s["body"] == "sphere" and s["order"] == 32)
    assert forces.check(spec, forces.call(spec)) == ""


def test_cli_output_with_nan_is_rejected():
    wl = W.CliMix()
    assert wl.check({}, (0, '{"status": "pass", "gap": NaN}', "")) != ""
    assert wl.check({}, (0, '{"status": "pass"}', "")) == ""
    assert wl.check({}, (1, '{"status": "pass"}', "")) != ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert metrics.tail_percentile(20) == 50.0
    assert metrics.tail_percentile(40) == 75.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(1000) == 99.0


def test_tracer_restores_every_binding_and_records_spans():
    before = (quatflow.forces.all_force_methods, quatflow.all_force_methods,
              quatflow.fields.QuaternionField.jet_at,
              quatflow.quaternion.Quaternion.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        quatflow.all_force_methods(quatflow.uniform_flow(1.0),
                                   quatflow.sphere_body(1.0), order=4)
    finally:
        tracer.uninstall()
    after = (quatflow.forces.all_force_methods, quatflow.all_force_methods,
             quatflow.fields.QuaternionField.jet_at,
             quatflow.quaternion.Quaternion.__mul__)
    assert before == after
    assert tracer.absent == []
    names = {s[0] for s in tracer.spans}
    assert {"all_force_methods", "force_blasius"} <= names
    assert tracer.count("jet_calls") > 0 and tracer.count("products") > 0


def test_benchmark_json_lists_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [row[:3]
                                            for row in metrics.PER_LAYER]


def test_tracer_reports_removed_targets_as_absent(monkeypatch):
    monkeypatch.delattr(quatflow.cli, "_cmd_reduce2d")
    monkeypatch.delattr(quatflow.surfaces, "evaluate_nodes")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.absent) == {"quatflow.cli._cmd_reduce2d",
                                  "quatflow.surfaces.evaluate_nodes"}
