"""A sphere in a uniform stream carries no load.

The exterior potential superposes a uniform stream with a dipole sized
to make the sphere a stream surface.  All force routes then integrate
to zero, as does the moment about the center: the classical paradox of
ideal flow, reproduced here to quadrature precision.
"""

import math

from quatflow import (
    ReducedPoint,
    all_force_methods,
    moment_quadratic,
    pressure_field,
    scenario_catalog,
)


def main():
    sc = scenario_catalog()["sphere-stream"]
    print(f"scenario: {sc.name} ({sc.description})")

    print("\n== velocity on the surface is tangent ==")
    for theta in (0.25, 0.5, 0.75):
        ang = theta * math.pi
        n = ReducedPoint(math.cos(ang), math.sin(ang), 0.0)
        v = sc.potential.velocity_at(n)
        print(f"  at polar angle {theta:.2f} pi: v.n = {v.dot(n):+.2e}, "
              f"|v| = {v.norm():.4f}")

    print("\n== surface pressure (Bernoulli) ==")
    p = pressure_field(sc.potential, rho=sc.rho, stagnation=1.0)
    for theta in (0.0, 0.25, 0.5):
        ang = theta * math.pi
        n = ReducedPoint(math.cos(ang), math.sin(ang), 0.0)
        print(f"  at polar angle {theta:.2f} pi: p = {p(n):+.6f}")

    print("\n== every force route integrates to zero ==")
    comparison = all_force_methods(sc.potential, sc.body, rho=sc.rho,
                                   order=32)
    for name, result in sorted(comparison.results.items()):
        print(f"  {name:<14} |F| = {result.force.norm():.3e} "
              f"({result.node_count} nodes)")
    for name, reason in comparison.gated.items():
        print(f"  {name:<14} gated: {reason.splitlines()[0][:70]}...")

    m = moment_quadratic(sc.potential, sc.body, ReducedPoint(0, 0, 0),
                         rho=sc.rho, order=32)
    print(f"\n  moment about the center: |M| = {m.moment.norm():.3e}")


if __name__ == "__main__":
    main()
