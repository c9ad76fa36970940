"""Numerical two-solution theory for polyharmonic k-Hessian boundary value problems.

The package solves and cross-checks the problem (with the Navier boundary
conditions the grid imposes, see ``grid``)

    (-1)^alpha Delta^alpha u = (-1)^k S_k[u] + lambda f   on a box,

with S_k the k-th elementary symmetric polynomial of the Hessian eigenvalues,
producing the local minimizer / mountain-pass pair of critical points of the
associated action together with the exact-rational exponent bookkeeping that
selects alpha and the datum space.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    GeometryError,
    NonconvergenceError,
    PolyhessError,
)
from .exponents import (
    LebesgueExponents,
    ProblemParams,
    Regime,
    RegimeReport,
    alpha_main,
    alpha_summable,
    alpha_weak,
    classify_regime,
    lebesgue_exponents,
    regime_report,
)
from .hessian_algebra import (
    MAX_DIM,
    as_symmetric,
    newton_flux,
    shifted_trace_identity,
    sigma_k,
    sk_of_entries,
    sk_of_matrix,
    sk_of_stack,
    sk_partials,
    sk_partials_stack,
)
from .grid import (
    BoxDomain,
    ScalarField,
    bump_field,
    dump_field,
    from_function,
    gradient_centered,
    half_order,
    hessian,
    hessian_entries,
    inner,
    integrate,
    invert_polyharmonic,
    l2_norm,
    laplacian,
    load_field,
    polyharmonic,
    random_smooth_field,
    seminorm,
    seminorm_inner,
    sk_field,
    sk_fields,
    unit_box,
    zeros,
)
from .energy import (
    Calibration,
    EnergyReport,
    EnergySetting,
    Form,
    MinorantGeometry,
    calibrate,
    cutoff,
    energy_report,
    evaluate_H,
    evaluate_J,
    evaluate_J_weak,
    fit_minorant,
    geometry_witnesses,
    make_setting,
    minorant_geometry,
    residual_strong,
    residual_weak_field,
    residual_weak_pairing,
    with_lambda,
)
from .solvers import (
    ContinuationRow,
    ContinuationTable,
    PSRecord,
    ProbeReport,
    SolutionPair,
    SolveRun,
    SolverConfig,
    ball_uniqueness_probe,
    continuation_in_lambda,
    minimize_local,
    mountain_pass,
    solve_run,
)

__version__ = "0.1.0"
