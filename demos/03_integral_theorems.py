"""Surface integrals of the quaternion 2-form and their volume doubles.

The 2-form dsigma = n dS drives everything: Stokes connects a boundary
integral with a volume integral of derivative terms, closed surfaces
swallow monogenic integrands, and the reproducing kernel rebuilds field
values from boundary data alone.
"""

from quatflow import (
    MarginError,
    ReducedPoint,
    box_body,
    cauchy_reconstruct,
    coordinate_field,
    reconstruction_margin,
    saddle_flow,
    sphere_body,
    vanishing_integral_cases,
    verify_cauchy_theorem,
    verify_stokes,
)


def main():
    coord = coordinate_field()
    cube = box_body((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
    ball = sphere_body(1.0)

    print("== Stokes: boundary against volume ==")
    # D(x + yi + zj) = -1, so the cube integral lands on -volume = -1.
    report = verify_stokes(cube, None, coord, order=12)
    print(f"  cube, left form:  lhs = {report.lhs}, gap = {report.gap:.3e}")
    report = verify_stokes(ball, None, coord, order=12)
    print(f"  ball, left form:  lhs = {report.lhs} "
          f"(-4 pi/3 = {-4 * 3.141592653589793 / 3:.12f})")
    report = verify_stokes(cube, coord, coord, order=12)
    print(f"  cube, two-sided:  lhs = {report.lhs}, gap = {report.gap:.3e}")

    print("\n== closed surfaces swallow monogenic integrands ==")
    for name, potential, body in vanishing_integral_cases():
        rep = verify_cauchy_theorem(body, potential.field, order=16)
        print(f"  {name:<22} gap = {rep.gap:.3e}  "
              f"({'ok' if rep.ok else 'FAILED'})")

    print("\n== reconstruction from boundary data ==")
    f = saddle_flow().field
    surface = ball.surface
    point = ReducedPoint(0.2, 0.1, -0.1)
    rebuilt = cauchy_reconstruct(surface, f, point, order=48)
    print(f"  margin at order 48: {reconstruction_margin(surface, 48):.4f}")
    print(f"  f{point.as_tuple()}    = {f(point)}")
    print(f"  rebuilt     = {rebuilt}")
    outside = cauchy_reconstruct(surface, f, ReducedPoint(2.0, 0.0, 0.0),
                                 order=48)
    print(f"  outside the ball the same integral returns {outside}")
    try:
        cauchy_reconstruct(surface, f, ReducedPoint(0.9, 0.0, 0.0), order=48)
    except MarginError as err:
        print(f"  MarginError: {err}")


if __name__ == "__main__":
    main()
