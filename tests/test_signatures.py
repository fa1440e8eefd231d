"""The public API evaluates serially and takes no thread-count argument
and no switch between scalar and array evaluation."""

import importlib
import inspect
import pkgutil

import pytest

import quatflow
from quatflow import (
    FlowPotential,
    PlanarContour,
    all_force_methods,
    cylinder_body,
    cylinder_vortex_2d,
    force_from_pressure,
    force_monogenic_form,
    force_pressure_direct,
    harmonic_catalog,
    reduce_and_compare,
    monogenic_completion,
    pressure_field,
    sphere_body,
    sphere_flow,
)


def _public_objects():
    """Every object named by quatflow or by a quatflow module's __all__."""
    names = getattr(quatflow, "__all__",
                    [n for n in vars(quatflow) if not n.startswith("_")])
    objects = [getattr(quatflow, n) for n in names]
    for info in pkgutil.iter_modules(quatflow.__path__):
        module = importlib.import_module(f"quatflow.{info.name}")
        objects.extend(getattr(module, n) for n in getattr(module, "__all__",
                                                           ()))
    return objects


def _callables(obj):
    """obj itself when it is a function, or a class's own methods."""
    if inspect.isclass(obj):
        for name, member in vars(obj).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                yield f"{obj.__qualname__}.{name}", member
    elif inspect.isfunction(obj):
        yield obj.__qualname__, obj


def _public_callables():
    """(qualified name, function) of every public callable, once each."""
    checked = {}
    for obj in _public_objects():
        for name, fn in _callables(obj):
            checked.setdefault(fn, name)
    return [(name, fn) for fn, name in checked.items()]


def test_no_public_callable_takes_workers():
    callables = _public_callables()
    offenders = [name for name, fn in callables
                 if "workers" in inspect.signature(fn).parameters]
    assert len(callables) > 100
    assert offenders == []


def test_no_public_callable_takes_vectorized():
    # planar callables always map arrays; there is no scalar-only switch
    offenders = [name for name, fn in _public_callables()
                 if "vectorized" in inspect.signature(fn).parameters]
    assert offenders == []


def test_no_public_callable_takes_jets():
    # jet tables are shared through QuaternionField.jet_table, not passed
    offenders = [name for name, fn in _public_callables()
                 if "jets" in inspect.signature(fn).parameters]
    assert offenders == []


def test_parameters_after_order_are_keyword_only():
    # a stale positional thread count must not land in another parameter
    pot, body = sphere_flow(1.0, 1.0), sphere_body(1.0)
    with pytest.raises(TypeError):
        force_pressure_direct(pot, body, 1.0, 16, 2)
    with pytest.raises(TypeError):
        all_force_methods(pot, body, 1.0, 16, 2)
    with pytest.raises(TypeError):
        force_monogenic_form(pot, body, 1.0, 16, 2)
    with pytest.raises(TypeError):
        force_from_pressure(pressure_field(pot), body, 16, 2)


def test_options_no_caller_sets_are_gone():
    # the harmonic check always runs, the comparison's pressure takes
    # p0 = 0, a pressure force is always labelled "pressure", a potential
    # carries no description and the planar integrals take order 32
    pot, body = sphere_flow(1.0, 1.0), sphere_body(1.0)
    with pytest.raises(TypeError):
        monogenic_completion(harmonic_catalog()["x"], check_harmonic=False)
    with pytest.raises(TypeError):
        all_force_methods(pot, body, stagnation=1.0)
    with pytest.raises(TypeError):
        force_from_pressure(pressure_field(pot), body, method="other")
    with pytest.raises(TypeError):
        FlowPotential(pot.field, description="a sphere in a stream")
    with pytest.raises(TypeError):
        reduce_and_compare(cylinder_vortex_2d(1.0, 1.0, 1.0),
                           PlanarContour.circle(1.0),
                           cylinder_body(1.0, -0.5, 0.5), order_2d=16)
