"""Stream functions, gauge freedom, and the stream-surface gate.

The vector part of a monogenic potential plays the role of a stream
function triple.  For a uniform stream the triple has a closed
geometric construction; it is unique only up to a monogenic vector
field (a gauge), and the quadratic force form that exploits it only
applies on surfaces the gate recognizes as stream surfaces.
"""

from quatflow import (
    IntegrabilityError,
    ReducedPoint,
    StreamSurfaceError,
    VelocityField,
    cylinder_body,
    force_blasius,
    force_monogenic_form,
    gauge_transform,
    geometric_stream_functions,
    scenario_catalog,
    sphere_body,
    uniform_flow,
    vector_gauge_field,
)

PROBE = ReducedPoint(0.4, -0.3, 0.2)


def main():
    print("== geometric stream functions of a uniform stream ==")
    sf = geometric_stream_functions(VelocityField.constant(1.0, -0.5, 0.25))
    print(f"  psi1{PROBE.as_tuple()} = {sf.psi1(PROBE):+.6f}")
    print(f"  psi2{PROBE.as_tuple()} = {sf.psi2(PROBE):+.6f}")
    print(f"  psi3{PROBE.as_tuple()} = {sf.psi3(PROBE):+.6f}")
    v = sf.potential.velocity_at(PROBE)
    print(f"  recovered velocity: {v.as_tuple()}")

    print("\n== the construction needs a uniform stream ==")
    strain = VelocityField.from_components(lambda p: p.x, lambda p: -p.y,
                                           lambda p: 0.0, name="strain")
    try:
        geometric_stream_functions(strain)
    except IntegrabilityError as err:
        print(f"  IntegrabilityError: {err}")

    print("\n== gauge freedom leaves the velocity alone ==")
    pot = uniform_flow(1.0)
    probes = [PROBE, ReducedPoint(-0.2, 0.6, -0.5)]
    shifted = gauge_transform(pot, vector_gauge_field(), probe_points=probes)
    for p in probes:
        dv = (shifted.velocity_at(p) - pot.velocity_at(p)).norm()
        dw = (shifted(p) - pot(p)).norm()
        print(f"  at {p.as_tuple()}: velocity moved {dv:.1e}, "
              f"potential moved {dw:.3f}")

    print("\n== the quadratic force form and its gate ==")
    sc = scenario_catalog()["cylinder-vortex"]
    f_gate = force_monogenic_form(sc.potential, sc.body, order=16)
    f_ref = force_blasius(sc.potential, sc.body, order=16)
    print(f"  cylinder admitted: F = {f_gate.force.as_tuple()}")
    print(f"  reference route:   F = {f_ref.force.as_tuple()}")
    for label, potential, body in (
            ("uniform flow on a sphere", uniform_flow(1.0), sphere_body(1.0)),
            ("crossflow on a cylinder", uniform_flow(0.0, 1.0, 0.0),
             cylinder_body(1.0, -0.5, 0.5))):
        try:
            force_monogenic_form(potential, body, order=8)
        except StreamSurfaceError as err:
            first = str(err).splitlines()[0]
            print(f"  {label} refused:\n    {first}")


if __name__ == "__main__":
    main()
