"""Lift of a circulating cylinder, in the plane and in space.

The planar contour formulas give the classical lift -rho U Gamma and a
moment that grows linearly with the reference offset.  Embedding the
same potential into the quaternion algebra and integrating over an
extruded cylinder reproduces both per unit height.
"""

import math

from quatflow import (
    PlanarContour,
    ReducedPoint,
    all_force_methods,
    blasius_force_2d,
    blasius_moment_2d,
    cylinder_body,
    cylinder_vortex_2d,
    kutta_joukowski_lift,
    moment_quadratic,
    moment_reference_shift,
    force_blasius,
    reduce_and_compare,
    scenario_catalog,
)

U, A, GAMMA = 1.0, 1.0, 2.0 * math.pi


def main():
    pot2d = cylinder_vortex_2d(U, A, GAMMA)
    circle = PlanarContour.circle(A)

    print("== planar formulas ==")
    f2 = blasius_force_2d(pot2d, circle)
    print(f"  contour force   = {f2:.12f}")
    print(f"  classical value = {kutta_joukowski_lift(1.0, U, GAMMA):.12f}")
    m0 = blasius_moment_2d(pot2d, circle, about=0j)
    m3 = blasius_moment_2d(pot2d, circle, about=0.3 + 0j)
    print(f"  moment about 0:     {m0:+.3e}")
    print(f"  moment about 0.3:   {m3:.12f}  (rho U Gamma 0.3 = "
          f"{U * GAMMA * 0.3:.12f})")

    print("\n== the embedded 3D machinery agrees per unit height ==")
    body = cylinder_body(A, -0.5, 0.5)
    report = reduce_and_compare(pot2d, circle, body, about=0.3 + 0j)
    print(f"  {report}")

    print("\n== all four force routes on the 3D cylinder ==")
    sc = scenario_catalog()["cylinder-vortex"]
    comparison = all_force_methods(sc.potential, sc.body, order=16)
    for name, result in sorted(comparison.results.items()):
        f = result.force
        print(f"  {name:<14} F = ({f.x:+.3e}, {f.y:+.12f}, {f.z:+.3e})")
    print(f"  largest pairwise gap: {comparison.max_disagreement:.3e}")

    print("\n== moment transport ==")
    force = force_blasius(sc.potential, sc.body, order=16)
    base = moment_quadratic(sc.potential, sc.body, ReducedPoint(0, 0, 0),
                            order=16)
    target = ReducedPoint(0.3, 0.0, 0.0)
    direct = moment_quadratic(sc.potential, sc.body, target, order=16)
    shifted = moment_reference_shift(base, force, target)
    print(f"  M about origin      = {base.moment.as_tuple()}")
    print(f"  M about (0.3,0,0)   = {direct.moment.as_tuple()}")
    print(f"  transported moment  = {shifted.moment.as_tuple()}")


if __name__ == "__main__":
    main()
