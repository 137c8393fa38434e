"""loewner-kit: numerical toolkit for chordal Loewner evolution.

Composable holomorphic-map evaluators, the chordal Loewner solver with
driving-function extraction, half-plane capacity functionals and function
class estimators, evolution-family and Loewner-chain verification, and
nested-domain admissibility proxies.
"""

__version__ = "0.1.0"

from .driving import DrivingFunction
from .errors import LoewnerKitError
from .maps import (
    Affine,
    CAYLEY,
    CAYLEY_INV,
    Cayley,
    CayleyInverse,
    Composition,
    DiskAutomorphism,
    Domain,
    GenericCallable,
    Identity,
    MapEvaluator,
    Moebius,
    SlitStep,
    Tail,
    cayley,
    cayley_inverse,
    compose,
    conjugate_by_cayley,
    invert_numeric,
    map_from_spec,
    map_to_spec,
    pseudo_hyperbolic,
    sqrt_upper,
)
from .measures import DensityPiece, MeasureSpec
from .reports import Report, strict_json
from .classes import (
    ClassReport,
    MeasureMap,
    NevanlinnaMap,
    angular_derivative_at_infinity,
    boundary_derivative,
    build_from_measure,
    build_nevanlinna,
    burns_krantz_check,
    caratheodory_growth_check,
    class_c_check,
    class_ctilde_check,
    classify,
    disk_ell_from_expansion,
    ell,
    is_p0,
)
from .chordal import (
    DiskField,
    disk_field_eval,
    evolution_operator,
    evolve_points,
    evolve_slices,
    extract_driving,
    hull_uniformizer,
    solve_disk_ode,
    solve_phi,
    solve_phi_rk,
    trace_from_driving,
)
from .families import (
    BetaClassification,
    ChainHandle,
    DerivativeSchedule,
    FamilyHandle,
    alternate_chain,
    beta,
    broken_family,
    chordal_chain,
    chordal_family,
    classify_beta_limit,
    conformal_radius_along_chain,
    conjugate_family,
    goryainov_ba_check,
    radial_chain,
    radial_family,
    standard_range_radius,
    translation_chain,
    translation_family,
    verify_chain_association,
    verify_ef_axioms,
)
from .chains import (
    ChainReport,
    DomainFamily,
    RadiusProfile,
    TimeMap,
    cantor_family,
    cantor_function,
    chain_report,
    check_admissible,
    check_inclusion_chain,
    chordal_admissibility_probe,
    radius_profile,
    reparametrize,
    scaled_disks,
    slit_half_plane,
    spiral_curve,
    spiral_cut_disk,
    translated_half_planes,
)
