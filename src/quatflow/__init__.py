"""Quaternionic analysis for 3D ideal flow.

Reduced quaternions x + y i + z j model points of space; monogenic
fields (kernel of the generalized Cauchy-Riemann operator) model flow
potentials; quaternionic surface quadrature turns the Cauchy-type
integral theorems and the quadratic force and moment formulas into
numbers.  The planar module carries the classical complex-variable
versions for dimension-reduction checks.
"""

from .quaternion import (
    Quaternion,
    ReducedPoint,
    ZERO,
    ONE,
    I,
    J,
    K,
    BASIS,
    cross,
)
from .fields import (
    DomainError,
    Jet,
    QuaternionField,
    ScalarField,
    scalar_dbar_field,
    coordinate_field,
    apply_D,
    apply_Dbar,
    apply_D_right,
    apply_Dbar_right,
    laplacian,
    euler_operator,
    moisil_theodorescu_residual,
    MonogenicityReport,
    is_monogenic,
    harmonic_catalog,
)
from .potentials import (
    FlowPotential,
    VelocityField,
    velocity_from_potential,
    monogenic_from_gradient,
    monogenic_completion,
    CompletionError,
    IntegrabilityError,
    StreamFunctions,
    geometric_stream_functions,
    gauge_transform,
    vector_gauge_field,
    uniform_flow,
    identity_flow,
    saddle_flow,
    point_source,
    dipole_flow,
    sphere_flow,
    embedded_potential,
    embedded_cylinder_flow,
    catalog,
)
from .surfaces import (
    Chart,
    ChartNodes,
    ParametricSurface,
    RegularBody,
    VolumeNodes,
    evaluate_nodes,
    sphere_body,
    box_body,
    cylinder_body,
    integrate_g_dsigma_f,
    integrate_scalar_dsigma,
    integrate_scalar,
    integrate_vector_area,
    integrate_moment_kernel,
)
from .integrals import (
    cauchy_kernel,
    cauchy_kernel_field,
    TheoremReport,
    verify_stokes,
    verify_cauchy_theorem,
    MarginError,
    reconstruction_margin,
    cauchy_reconstruct,
)
from .forces import (
    ForceResult,
    MomentResult,
    StreamSurfaceError,
    FlowScenario,
    pressure_field,
    force_from_pressure,
    force_pressure_direct,
    force_blasius,
    force_components_sc,
    force_monogenic_form,
    moment_quadratic,
    moment_from_pressure,
    moment_reference_shift,
    all_force_methods,
)
from .scenarios import (
    scenario_catalog,
    vanishing_force_cases,
    vanishing_integral_cases,
)
from .planar import (
    ComplexPotential,
    uniform_2d,
    cylinder_2d,
    cylinder_vortex_2d,
    kutta_joukowski_lift,
    PlanarContour,
    contour_integral,
    StreamlineError,
    streamline_residual,
    blasius_force_2d,
    blasius_moment_2d,
    embed_2d,
    ReductionReport,
    reduce_and_compare,
)

__version__ = "0.1.0"
