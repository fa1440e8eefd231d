"""The kind table: named scenarios, vanishing-integral cases and configs."""

import math

import pytest

from quatflow import (
    cylinder_2d,
    cylinder_vortex_2d,
    embedded_cylinder_flow,
    scenario_catalog,
    sphere_flow,
    vanishing_force_cases,
    vanishing_integral_cases,
)
from quatflow import scenarios
from quatflow.scenarios import ScenarioConfig

UNIFORM = {"kind": "uniform"}
SPHERE = {"kind": "sphere"}


def test_every_oracle_is_pinned_exactly():
    oracles = {name: repr(sc.expected_force.as_tuple())
               for name, sc in scenario_catalog().items()}
    zero = repr((0.0, 0.0, 0.0))
    assert oracles == {
        "cylinder-uniform": zero,
        "cylinder-vortex": repr((0.0, -2.0 * math.pi, 0.0)),
        "sphere-stream": zero,
        "control-sphere-uniform": zero,
        "control-box-uniform": zero,
        "control-cylinder-uniform": zero,
    }


def test_the_kutta_joukowski_oracle_reads_the_parsed_keys():
    potential = {"kind": "embedded_cylinder", "speed": 0.5, "radius": 2.0,
                 "circulation": 3.0}
    body = {"kind": "cylinder", "radius": 2.0, "z": (-1.0, 0.5)}
    sc = scenarios._build("kj", potential, body, "",
                          scenarios._kutta_joukowski, rho=1.5)
    assert sc.expected_force.as_tuple() == (0.0, -1.5 * 0.5 * 3.0 * 1.5, 0.0)
    assert ScenarioConfig("kj", potential, body).build().expected_force \
        is None


def test_vanishing_force_cases_are_the_rows_with_zero_oracle():
    names = [sc.name for sc in vanishing_force_cases()]
    assert names == [name for name, sc in scenario_catalog().items()
                     if sc.expected_force.as_tuple() == (0.0, 0.0, 0.0)]
    assert sorted(names) == ["control-box-uniform", "control-cylinder-uniform",
                             "control-sphere-uniform", "cylinder-uniform",
                             "sphere-stream"]


def test_vanishing_integral_cases_keep_their_names():
    cases = [(name, pot.name, pot.field.name, body.name)
             for name, pot, body in vanishing_integral_cases()]
    vortex = "embedded_cylinder(U=1.0,a=1.0,G=6.283185307179586)"
    assert cases == [
        ("uniform-on-sphere", "uniform(1.0,0.0,0.0)", "uniform(1.0,0.0,0.0)",
         "sphere(R=1.0)"),
        ("saddle-on-box", "saddle", "saddle", "box"),
        ("source-ray-clear", "source(1.0)", "dbar(source_log(1.0))",
         "sphere(R=1.0)"),
        ("dipole-offset-box", "dipole(1.0)", "dipole(1.0)", "box"),
        ("vortex-offset-box", vortex, vortex, "box"),
    ]


@pytest.mark.parametrize("name", [None, {"a": 1}, 3, b"x"])
def test_a_name_that_is_not_a_string_is_refused(name):
    with pytest.raises(ValueError, match="'name' must be a string"):
        ScenarioConfig(name, UNIFORM, SPHERE)
    with pytest.raises(ValueError, match="'name' must be a string"):
        ScenarioConfig.from_dict({"name": name, "potential": UNIFORM,
                                  "body": SPHERE})


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan, True, False,
                                 "1", None, 0, 0.0, -1.0, 10 ** 400])
def test_direct_construction_refuses_every_rho_from_dict_refuses(rho):
    with pytest.raises(ValueError) as direct:
        ScenarioConfig("r", UNIFORM, SPHERE, rho=rho)
    with pytest.raises(ValueError) as parsed:
        ScenarioConfig.from_dict({"name": "r", "potential": UNIFORM,
                                  "body": SPHERE, "rho": rho})
    assert str(direct.value) == str(parsed.value)
    assert str(direct.value).startswith("'rho' must be")


@pytest.mark.parametrize("what", ["potential", "body"])
def test_direct_construction_refuses_a_config_that_is_not_a_dict(what):
    fields = {"name": "d", "potential": UNIFORM, "body": SPHERE}
    for value in (None, [["kind", "sphere"]], "sphere"):
        with pytest.raises(ValueError, match=f"config needs a '{what}'"):
            ScenarioConfig(**dict(fields, **{what: value}))


def test_a_valid_rho_reads_as_a_float():
    cfg = ScenarioConfig("r", UNIFORM, SPHERE, rho=2)
    assert repr(cfg.rho) == "2.0"
    assert cfg == ScenarioConfig.from_dict(cfg.to_dict())


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_potential_radii_must_be_finite_and_positive(radius):
    for build in (lambda: sphere_flow(1.0, radius),
                  lambda: embedded_cylinder_flow(1.0, radius),
                  lambda: embedded_cylinder_flow(1.0, radius, 2.0),
                  lambda: cylinder_2d(1.0, radius),
                  lambda: cylinder_vortex_2d(1.0, radius, 2.0)):
        with pytest.raises(ValueError, match="finite radius > 0"):
            build()


def test_a_config_keeps_its_own_copy_of_the_kind_dicts():
    potential, body = {"kind": "sphere"}, {"kind": "sphere"}
    direct = ScenarioConfig("c", potential, body)
    parsed = ScenarioConfig.from_dict({"name": "c", "potential": potential,
                                       "body": body})
    potential["kind"] = body["kind"] = "torus"
    for cfg in (direct, parsed):
        assert cfg.potential == cfg.body == {"kind": "sphere"}
        assert cfg.build().potential.name == "sphere(U=1.0,a=1.0)"
