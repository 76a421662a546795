"""Symbolic-numeric verification engine for the N=1 supersymmetric
sine-Gordon equation: Grassmann arithmetic, superfield calculus, graded
prolongation, the symmetry superalgebra, and the invariant-solution catalog.
"""

from .grassmann import (
    AlgebraContext,
    DEFAULT_CONTEXT,
    GrassmannNumber,
    Parity,
    apply_analytic,
    invert,
    parse,
    to_text,
)
from .analytic import Poly, TaylorFn, TrigPoly
from .superjet import SuperJet, jet_constant, jet_variable
from .superfield import (
    Superfield,
    component_superfield,
    constant_superfield,
    evaluate_bundle,
    op_D,
    op_Q,
    random_superfield,
    ssg_residual,
    superfield_jet,
    theta_coefficients,
)
from .prolongation import (
    COMPONENT_SIGNATURE,
    SSG_SIGNATURE,
    VectorFieldSpec,
    component_named_generators,
    prolong,
    prolong_expanded,
    random_jet_point,
    ssg_named_generators,
    symmetry_residual,
)
from .superalgebra import (
    AlgebraElement,
    adjoint_closed_form,
    adjoint_exp,
    basis_element,
    bracket,
    solve_conjugation_to_L,
    subalgebra_catalog,
    verify_structure,
)
from .elliptic import JacobiCn, JacobiDn, JacobiSn, ellipk, jacobi, jacobi_jet
from .odes import (
    Trajectory,
    drift_ratio,
    first_integral_check,
    integrate_profile_ode,
    make_system,
)
from .reductions import (
    nonstandard_obstruction,
    random_reduction_profiles,
    reduction_case_ids,
    reduction_consistency,
)
from .catalog import catalog_entry, catalog_names, catalog_solution, verify_entry

__version__ = "0.1.0"
