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
from quatflow import cli, scenarios

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


def test_verify_is_deterministic_across_thread_counts(cli_thread_runs):
    runs = cli_thread_runs[("verify",)]
    assert all(code == 0 for code, _, _ in runs.values())
    outputs = [stdout for _, stdout, _ in runs.values()]
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


def test_force_is_deterministic_across_thread_counts(cli_thread_runs):
    runs = cli_thread_runs[("force", "--scenario", "cylinder-vortex")]
    assert all(code == 0 for code, _, _ in runs.values())
    outputs = [stdout for _, stdout, _ in runs.values()]
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
    # the stream past the sphere has v.n = 0 on it; the uniform stream
    # through the spherical control surface does not
    payload = run_json("force", "--scenario", "sphere-stream")
    assert "monogenic-form" in payload["results"]
    assert payload["gated"] == {}
    payload = run_json("force", "--scenario", "control-sphere-uniform")
    assert "monogenic-form" not in payload["results"]
    assert payload["gated"]["monogenic-form"].startswith(
        "monogenic force form refused: v.n")


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


@pytest.mark.parametrize("kind", sorted(scenarios._POTENTIAL_KINDS))
def test_potential_kind_defaults_match_the_direct_constructor(kind):
    cfg = cli.ScenarioConfig(name="k", potential={"kind": kind},
                             body={"kind": "sphere"})
    built = cfg.build()
    assert built.rho == 1.0
    assert (_forces(built.potential, built.body)
            == _forces(DIRECT_POTENTIALS[kind](), DIRECT_BODIES["sphere"]()))


@pytest.mark.parametrize("kind", sorted(scenarios._BODY_KINDS))
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
                          in scenarios._POTENTIAL_KINDS.items()}
    assert bodies == {kind: set(defaults) for kind, (_, defaults)
                      in scenarios._BODY_KINDS.items()}


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
    {"rho": 0, "potential": UNIFORM, "body": SPHERE},
    {"rho": -1, "potential": UNIFORM, "body": SPHERE},
])
def test_config_value_that_is_not_a_finite_number_exits_with_usage_error(
        config, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(config, name="bad")))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err


def test_a_negative_tol_or_a_non_positive_rho_is_named(tmp_path, capsys):
    assert cli.main(["force", "--tol", "-1", "--order", "4"]) == 2
    assert ("argument --tol: the tolerance must not be negative, got '-1'"
            in capsys.readouterr().err)
    path = tmp_path / "still.json"
    path.write_text(json.dumps({"name": "still", "rho": 0,
                                "potential": UNIFORM, "body": SPHERE}))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    assert (capsys.readouterr().err
            == "quatflow: 'rho' must be positive, got 0.0\n")


def test_a_zero_tol_is_valid(capsys):
    assert cli.main(["force", "--tol", "0", "--order", "4"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["tol"] == 0.0


@pytest.mark.parametrize("zero", ["-0", "-0.0"])
def test_a_negative_zero_tol_reads_as_zero(zero, capsys):
    assert cli.main(["force", "--tol", zero, "--order", "4"]) in (0, 1)
    out = capsys.readouterr().out
    assert re.findall(r'"tol": [^,\n]*', out) == ['"tol": 0.0']


def test_verify_fails_on_a_nan_planar_moment_gap(monkeypatch, capsys):
    real = cli.reduce_and_compare

    def nan_moment(*args, **kwargs):
        return real(*args, **kwargs)._replace(moment_gap=math.nan)
    monkeypatch.setattr(cli, "reduce_and_compare", nan_moment)
    assert cli.main(["verify", "--order", "8"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    planar = [c for c in checks
              if c["check"] == "planar-reduction:cylinder-vortex"]
    assert planar == [{"check": "planar-reduction:cylinder-vortex",
                       "gap": None, "tol": 1e-8, "status": "fail"}]


def test_force_reports_a_nan_expected_gap(monkeypatch, capsys):
    real = cli.all_force_methods

    def nan_route(*args, **kwargs):
        comparison = real(*args, **kwargs)
        results = dict(comparison.results)
        # not the first route, so the builtin max would drop it
        results["blasius"] = results["blasius"]._replace(
            force=ReducedPoint(math.nan, 0.0, 0.0))
        return comparison._replace(results=results)
    monkeypatch.setattr(cli, "all_force_methods", nan_route)
    assert cli.main(["force", "--scenario", "cylinder-vortex",
                     "--order", "8"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_gap"] is None
    assert payload["status"] == "fail"


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


IDENTITY_IN_SPHERE = {"name": "x", "potential": {"kind": "identity"},
                      "body": {"kind": "sphere", "radius": 1.0}}

# argv, the config written for --config (None for none) and the message
REJECTIONS = {
    "about-with-two-numbers": (
        ["moment", "--about", "1,2"], None,
        "quatflow: expected 3 comma-separated numbers, got '1,2'\n"),
    # an empty component is a fault, not a number to drop
    "about-with-an-empty-component": (
        ["moment", "--about", "0.3,,0,0", "--shift-to", "0,0,0"], None,
        "quatflow: expected 3 comma-separated numbers, got '0.3,,0,0'\n"),
    "shift-to-with-a-trailing-comma": (
        ["moment", "--about", "0.3,0,0", "--shift-to", "0,0,0,"], None,
        "quatflow: expected 3 comma-separated numbers, got '0,0,0,'\n"),
    "about-with-an-empty-middle": (
        ["moment", "--about", "1,,2"], None,
        "quatflow: expected 3 comma-separated numbers, got '1,,2'\n"),
    "reduce2d-about-with-a-leading-comma": (
        ["reduce2d", "--about", ",0.3,0"], None,
        "quatflow: expected 2 comma-separated numbers, got ',0.3,0'\n"),
    "reduce2d-about-with-a-trailing-comma": (
        ["reduce2d", "--about", "0.3,"], None,
        "quatflow: expected 2 comma-separated numbers, got '0.3,'\n"),
    "threads-not-an-int": (
        ["force", "--threads", "x"], None,
        "quatflow force: error: argument --threads: invalid int value: "
        "'x'\n"),
    "tol-not-a-number": (
        ["force", "--tol", "abc"], None,
        "quatflow force: error: argument --tol: the value must be a number, "
        "got 'abc'\n"),
    # refused by its parse type, before any quadrature rule is built
    "order-above-256": (
        ["force", "--order", "257"], None,
        "quatflow force: error: argument --order: quadrature order must be "
        "at most 256, got 257\n"),
    "convergence-order-above-256": (
        ["convergence", "--order", "8", "--order", "300"], None,
        "quatflow convergence: error: argument --order: quadrature order "
        "must be at most 256, got 300\n"),
    "order-below-2": (
        ["force", "--order", "1"], None,
        "quatflow: quadrature order must be at least 2\n"),
    "config-a-list": (
        ["force"], [1, 2], "quatflow: scenario config must be a JSON object\n"),
    "config-unknown-key": (
        ["force"], dict(IDENTITY_IN_SPHERE, extra=1),
        "quatflow: unknown config keys: ['extra']\n"),
    "reduce2d-uniform": (
        ["reduce2d"], {"name": "x", "potential": {"kind": "uniform"},
                       "body": {"kind": "cylinder"}},
        "quatflow: reduce2d config needs an embedded_cylinder potential\n"),
    "unknown-scenario": (
        ["force", "--scenario", "not-a-scenario"], None,
        "quatflow: unknown scenario 'not-a-scenario'; known: "
        "control-box-uniform, control-cylinder-uniform, "
        "control-sphere-uniform, cylinder-uniform, cylinder-vortex, "
        "sphere-stream\n"),
    "scenario-and-config": (
        ["force", "--scenario", "cylinder-vortex"], IDENTITY_IN_SPHERE,
        "quatflow: give either --scenario or --config, not both\n"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_a_rejected_argv_or_config_names_its_fault(case, tmp_path, capsys):
    argv, config, message = REJECTIONS[case]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message)


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


@pytest.mark.parametrize("argv", [
    ["force", "--scenario", "sphere-stream"],
    ["moment", "--scenario", "cylinder-vortex"],
    ["verify"],
    ["reduce2d"],
])
def test_single_order_subcommands_reject_a_repeated_order(argv, capsys):
    # only convergence runs several orders
    assert cli.main(argv + ["--order", "8", "--order", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} takes one --order, got 8, 12" in captured.err


def test_the_parser_built_once_keeps_no_state_between_calls(capsys):
    argvs = [["force", "--threads", "0"],
             ["convergence", "--scenario", "sphere-stream", "--order", "8",
              "--order", "12"],
             ["force", "--scenario", "cylinder-vortex", "--order", "8",
              "--format", "csv"]]

    def run(argv):
        code = cli.main(argv)
        return (code,) + tuple(capsys.readouterr())

    # one parser for the three calls, the erroring one first
    in_turn = [run(argv) for argv in argvs]
    assert in_turn[0][0] == 2 and "thread count" in in_turn[0][2]
    assert [result[0] for result in in_turn[1:]] == [0, 0]
    for argv, result in zip(argvs, in_turn):
        cli._build_parser.cache_clear()
        assert run(argv) == result, argv


def test_main_calls_the_subcommand_bound_in_the_module(monkeypatch, capsys):
    # a rebinding of cli._cmd_<name> (as a tracer makes) takes effect,
    # though the parser is built once and cached
    cli._build_parser()
    calls = []
    original = cli._cmd_force

    def recording(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "_cmd_force", recording)
    code = cli.main(["force", "--order", "8"])
    assert calls == ["force"]
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    monkeypatch.setattr(cli, "_cmd_force", lambda args: 7)
    assert cli.main(["force"]) == 7


def test_help_exits_cleanly():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("force", "moment", "verify", "convergence", "reduce2d"):
        assert name in proc.stdout


@pytest.mark.parametrize("name", [None, {"a": 1}, 3])
def test_a_config_name_that_is_not_a_string_exits_with_usage_error(
        name, tmp_path, capsys):
    path = tmp_path / "name.json"
    path.write_text(json.dumps({"name": name, "potential": UNIFORM,
                                "body": SPHERE}))
    assert cli.main(["force", "--config", str(path), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"quatflow: 'name' must be a string, got {name!r}\n"


@pytest.mark.parametrize("potential", [
    {"kind": "sphere", "radius": 0},
    {"kind": "sphere", "radius": -1.0},
    {"kind": "embedded_cylinder", "radius": 0.0},
    {"kind": "embedded_cylinder", "radius": -2.0, "circulation": 1.0},
])
@pytest.mark.parametrize("command", ["force", "moment", "convergence"])
def test_a_potential_radius_that_is_not_positive_exits_with_usage_error(
        potential, command, tmp_path, capsys):
    path = tmp_path / "radius.json"
    path.write_text(json.dumps({"name": "r", "potential": potential,
                                "body": SPHERE}))
    assert cli.main([command, "--config", str(path), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a finite radius > 0" in captured.err


@pytest.mark.parametrize("name", sorted(scenarios._SCENARIOS))
def test_a_named_scenario_and_its_row_as_a_config_give_the_same_forces(
        name, tmp_path, capsys):
    potential, body = scenarios._SCENARIOS[name][:2]
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"name": name, "potential": potential,
                                "body": body}))
    reports = []
    for source in (["--scenario", name], ["--config", str(path)]):
        cli.main(["force", *source, "--order", "12"])
        reports.append(json.loads(capsys.readouterr().out))
    named, config = reports
    for key in ("results", "gated", "max_disagreement"):
        assert json.dumps(named[key]) == json.dumps(config[key]), key
    assert config["expected_force"] is None
    assert named["scenario"] == config["scenario"] == name
