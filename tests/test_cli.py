"""End-to-end checks of the command line interface."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quatflow import (
    ReducedPoint,
    all_force_methods,
    box_body,
    cylinder_body,
    dipole_flow,
    embedded_cylinder_flow,
    identity_flow,
    point_source,
    saddle_flow,
    sphere_body,
    sphere_flow,
    uniform_flow,
)
from quatflow import cli

CLI = [sys.executable, "-m", "quatflow.cli"]


def run_cli(*argv):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True)


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_verify_passes_and_reports_every_check():
    payload = run_json("verify")
    assert payload["status"] == "pass"
    assert len(payload["checks"]) >= 15
    for check in payload["checks"]:
        assert check["status"] == "pass", check
        assert check["gap"] <= check["tol"]


def test_verify_is_deterministic_across_thread_counts():
    outputs = [run_cli("verify", "--threads", str(n)).stdout
               for n in (1, 4, 8)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_verify_reports_failure_when_tolerance_is_unreachable():
    proc = run_cli("verify", "--tol", "1e-30")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["status"] == "fail"
    failing = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failing
    for check in failing:
        assert check["gap"] > check["tol"]


def test_force_default_scenario_passes():
    payload = run_json("force")
    assert payload["command"] == "force"
    assert payload["scenario"] == "sphere-stream"
    assert payload["status"] == "pass"
    assert set(payload["results"]) >= {"pressure", "blasius",
                                       "components-sc"}
    assert payload["max_disagreement"] <= payload["tol"]


def test_force_is_deterministic_across_thread_counts():
    outputs = [run_cli("force", "--scenario", "cylinder-vortex",
                       "--threads", str(n)).stdout for n in (1, 4, 8)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_force_reports_the_lift_oracle():
    payload = run_json("force", "--scenario", "cylinder-vortex")
    assert payload["expected_force"] is not None
    assert payload["expected_gap"] <= 1e-8
    lift = payload["results"]["blasius"]["force"][1]
    assert abs(lift + 6.283185307179586) <= 1e-8
    assert "monogenic-form" in payload["results"]
    assert payload["gated"] == {}


def test_force_gates_the_sphere_scenario():
    payload = run_json("force", "--scenario", "sphere-stream")
    assert "monogenic-form" in payload["gated"]
    assert "monogenic-form" not in payload["results"]


def test_force_csv_output(tmp_path):
    out = tmp_path / "force.csv"
    proc = run_cli("force", "--scenario", "control-box-uniform",
                   "--format", "csv", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,method,order,nodes,fx,fy,fz"
    assert len(lines) >= 4
    for line in lines[1:]:
        assert line.startswith("control-box-uniform,")


def test_moment_subcommand_with_shift():
    payload = run_json("moment", "--scenario", "cylinder-vortex",
                       "--about", "0.3,0,0", "--shift-to", "0,0,0")
    assert payload["status"] == "pass"
    mz = payload["results"]["quadratic-form"]["moment"][2]
    assert abs(mz - 0.6 * 3.141592653589793) <= 1e-8
    shifted = payload["results"]["quadratic-form+shift"]["moment"]
    assert abs(shifted[2]) <= 1e-8
    assert payload["method_gap"] <= payload["tol"]


def test_convergence_subcommand():
    payload = run_json("convergence", "--scenario", "cylinder-vortex",
                       "--order", "8", "--order", "16")
    assert payload["status"] == "pass"
    assert [e["order"] for e in payload["entries"]] == [8, 16]
    assert payload["entries"][0]["change_from_previous"] is None


def test_reduce2d_subcommand():
    payload = run_json("reduce2d", "--about", "0.3,0")
    assert payload["status"] == "pass"
    assert payload["force_gap"] <= 1e-8
    assert payload["moment_gap"] <= 1e-8


def test_config_file_round_trip(tmp_path):
    from quatflow.cli import ScenarioConfig

    cfg = ScenarioConfig(
        name="skew-box",
        potential={"kind": "uniform", "components": [0.8, -0.3, 0.5]},
        body={"kind": "box", "x": [-0.6, 0.7], "y": [-0.5, 0.5],
              "z": [-0.4, 0.55]},
        rho=1.25)
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()))
    payload = run_json("force", "--config", str(path))
    assert payload["scenario"] == "skew-box"
    assert payload["status"] == "pass"
    blasius = payload["results"]["blasius"]["force"]
    assert max(abs(c) for c in blasius) <= 1e-8


def test_config_components_set_the_uniform_stream():
    from quatflow import ReducedPoint
    from quatflow.cli import ScenarioConfig

    cfg = ScenarioConfig.from_dict({
        "name": "stream", "potential": {"kind": "uniform",
                                        "components": [0.0, 0.0, 2.0]},
        "body": {"kind": "sphere", "radius": 1.0}})
    v = cfg.build().potential.velocity_at(ReducedPoint(0.3, -0.2, 0.1))
    assert v.as_tuple() == (0.0, 0.0, 2.0)


@pytest.mark.parametrize("command", ["force", "reduce2d"])
@pytest.mark.parametrize("config", [
    {"potential": {"kind": "uniform", "velocity": [0.0, 0.0, 2.0]},
     "body": {"kind": "sphere", "radius": 1.0}},
    {"potential": {"kind": "embedded_cylinder", "raduis": 1.0},
     "body": {"kind": "cylinder"}},
    {"potential": {"kind": "embedded_cylinder"},
     "body": {"kind": "sphere", "raduis": 1.0}},
])
def test_misspelled_config_key_exits_with_usage_error(command, config,
                                                      tmp_path, capsys):
    from quatflow import cli

    path = tmp_path / "typo.json"
    path.write_text(json.dumps(dict(config, name="typo")))
    assert cli.main([command, "--config", str(path), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown" in captured.err


ORIGIN = ReducedPoint(0.0, 0.0, 0.0)

# Each config kind built by a direct constructor call with the defaults
# the README promises; a kind missing here fails its test with KeyError.
DIRECT_POTENTIALS = {
    "uniform": lambda: uniform_flow(1.0, 0.0, 0.0),
    "identity": identity_flow,
    "saddle": saddle_flow,
    "source": lambda: point_source(1.0, ORIGIN),
    "dipole": lambda: dipole_flow(1.0, ORIGIN),
    "sphere": lambda: sphere_flow(1.0, 1.0),
    "embedded_cylinder": lambda: embedded_cylinder_flow(1.0, 1.0, 0.0),
}
DIRECT_BODIES = {
    "sphere": lambda: sphere_body(1.0, ORIGIN),
    "box": lambda: box_body((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)),
    "cylinder": lambda: cylinder_body(1.0, -0.5, 0.5, (0.0, 0.0)),
}


def _forces(potential, body):
    comparison = all_force_methods(potential, body, order=8)
    return ({name: r.force.as_tuple()
             for name, r in comparison.results.items()},
            dict(comparison.gated))


@pytest.mark.parametrize("kind", sorted(cli._POTENTIAL_KINDS))
def test_potential_kind_defaults_match_the_direct_constructor(kind):
    cfg = cli.ScenarioConfig(name="k", potential={"kind": kind},
                             body={"kind": "sphere"})
    built = cfg.build()
    assert built.rho == 1.0
    assert (_forces(built.potential, built.body)
            == _forces(DIRECT_POTENTIALS[kind](), DIRECT_BODIES["sphere"]()))


@pytest.mark.parametrize("kind", sorted(cli._BODY_KINDS))
def test_body_kind_defaults_match_the_direct_constructor(kind):
    cfg = cli.ScenarioConfig(name="k", potential={"kind": "uniform"},
                             body={"kind": kind})
    built = cfg.build()
    assert (_forces(built.potential, built.body)
            == _forces(DIRECT_POTENTIALS["uniform"](), DIRECT_BODIES[kind]()))


def _readme_kinds(lead: str, end: str) -> dict:
    """Kind -> keys from one README sentence such as "Body kinds: ..."."""
    text = " ".join((Path(__file__).parents[1] / "README.md")
                    .read_text(encoding="utf-8").split())
    sentence = text[text.index(lead) + len(lead):text.index(end)]
    return {kind: set(re.findall(r"`(\w+)`", keys))
            for kind, keys in re.findall(r"`(\w+)`(?: \(([^)]*)\))?",
                                         sentence)}


def test_readme_names_every_config_kind_and_key():
    potentials = _readme_kinds("Potential kinds and their keys:",
                               "Body kinds:")
    bodies = _readme_kinds("Body kinds:", "Every key is optional")
    assert potentials == {kind: set(defaults) for kind, (_, defaults)
                          in cli._POTENTIAL_KINDS.items()}
    assert bodies == {kind: set(defaults) for kind, (_, defaults)
                      in cli._BODY_KINDS.items()}


@pytest.mark.parametrize("what", ["potential", "body"])
def test_unhashable_config_kind_exits_with_usage_error(what, tmp_path,
                                                       capsys):
    config = {"name": "k", "potential": {"kind": "uniform"},
              "body": {"kind": "sphere"}}
    config[what] = {"kind": ["sphere"]}
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(config))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    assert f"unknown {what} kind" in capsys.readouterr().err


def _reduce2d_config(tmp_path, body):
    path = tmp_path / "reduce.json"
    path.write_text(json.dumps({
        "name": "r", "body": body,
        "potential": {"kind": "embedded_cylinder", "speed": 1.0,
                      "radius": 1.0, "circulation": 2.0 * math.pi}}))
    return ["reduce2d", "--about", "0.3,0", "--config", str(path)]


@pytest.mark.parametrize("body", [
    {"kind": "sphere", "radius": 5.0},
    {"kind": "cylinder", "radius": 2.0},
    {"kind": "cylinder", "center2d": [0.1, 0.0]},
    {"kind": "box"},
])
def test_reduce2d_config_rejects_a_body_that_is_not_the_extruded_contour(
        body, tmp_path, capsys):
    assert cli.main(_reduce2d_config(tmp_path, body)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cylinder body" in captured.err


def test_reduce2d_config_body_height_sets_the_per_unit_comparison(
        tmp_path, capsys):
    assert cli.main(["reduce2d", "--about", "0.3,0"]) == 0
    default = json.loads(capsys.readouterr().out)
    body = {"kind": "cylinder", "radius": 1.0, "z": [-2, 2]}
    assert cli.main(_reduce2d_config(tmp_path, body)) == 0
    tall = json.loads(capsys.readouterr().out)
    assert tall["status"] == "pass"
    for key in ("force_gap", "moment_gap"):
        assert tall[key] <= tall["tol"]
    assert math.dist(tall["force_3d"], default["force_3d"]) <= tall["tol"]
    assert abs(tall["moment_3d_z"] - default["moment_3d_z"]) <= tall["tol"]


def test_bad_config_exits_with_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "potential": {"kind": "no"},
                                "body": {"kind": "sphere", "radius": 1.0},
                                "bogus": 1}))
    proc = run_cli("force", "--config", str(path))
    assert proc.returncode == 2
    assert "quatflow:" in proc.stderr


SPHERE = {"kind": "sphere"}
UNIFORM = {"kind": "uniform"}


@pytest.mark.parametrize("config", [
    {"rho": "2",
     "potential": {"kind": "uniform", "components": [1, "0", True]},
     "body": {"kind": "sphere", "radius": True}},
    {"rho": "2", "potential": UNIFORM, "body": SPHERE},
    {"rho": False, "potential": UNIFORM, "body": SPHERE},
    {"rho": None, "potential": UNIFORM, "body": SPHERE},
    {"rho": 10 ** 400, "potential": UNIFORM, "body": SPHERE},
    {"potential": {"kind": "uniform", "components": [1, "0", 0]},
     "body": SPHERE},
    {"potential": {"kind": "uniform", "components": [1, 0, True]},
     "body": SPHERE},
    {"potential": {"kind": "dipole", "coefficient": "1.5"}, "body": SPHERE},
    {"potential": UNIFORM, "body": {"kind": "sphere", "radius": True}},
])
def test_config_value_that_is_not_a_finite_number_exits_with_usage_error(
        config, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(config, name="bad")))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_unknown_scenario_exits_with_usage_error():
    proc = run_cli("force", "--scenario", "not-a-scenario")
    assert proc.returncode == 2


def test_scenario_and_config_are_mutually_exclusive(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"name": "x",
                                "potential": {"kind": "identity"},
                                "body": {"kind": "sphere", "radius": 1.0}}))
    proc = run_cli("force", "--scenario", "cylinder-vortex", "--config",
                   str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "no-such-scenario"],
    ["verify", "--config", "/nonexistent.json"],
    ["reduce2d", "--scenario", "x"],
    ["convergence", "--scenario", "sphere-stream", "--tol", "1e-3"],
])
def test_subcommands_reject_options_they_do_not_read(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_help_exits_cleanly():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("force", "moment", "verify", "convergence", "reduce2d"):
        assert name in proc.stdout
