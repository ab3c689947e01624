"""Transfer matrices, boundary operators, and passivity certification for
anisotropic layered media."""

from .analyticity import (
    AnalyticityReport,
    HerglotzCertificate,
    certify_point,
    cr_residual,
    herglotz_certify,
    omega_grid_points,
    phase_tensors,
    scalar_sample,
    slice_analyticity,
)
from .dtn import (
    DtnCertificate,
    DtnMap,
    EnergyReport,
    FluxForm,
    GammaMatrix,
    WellDefinedCertificate,
    apply_dtn,
    check_well_defined,
    dtn,
    dtn_from_tensors,
    energy_balance,
    flux_block_expression,
    flux_form,
    gamma,
    lambda_map,
)
from .exceptions import (
    ContractError,
    DimensionError,
    DomainError,
    GeometryError,
    NumericRangeError,
    ParameterError,
    SingularMatrixError,
    StackParseError,
    ToolkitError,
)
from .herglotz import (
    ConstantModel,
    DrudeModel,
    HerglotzModel,
    MaterialSpec,
    PassivityCertificate,
    eval_herglotz,
    make_constant,
    make_drude,
    passivity_check,
    vacuum_material,
)
from .linalg import (
    HermitianPair,
    hermitian_parts,
    mat_exp,
    solve,
    split_blocks,
)
from .report import PACKAGE_VERSION as __version__
from .stack import Layer, StackSpec, locate, make_sandwich, parse_stack
from .transfer import (
    J,
    RHO,
    TransferMatrix,
    build_A,
    field_profile,
    layer_propagator,
    normal_components,
    transfer,
)
from .tubular import (
    TrajectorySpec,
    basis,
    cone_member,
    herglotz_along_trajectory,
    phi,
    phi_inv,
    self_duality_check,
    trajectory_coeffs,
    trajectory_point,
    trajectory_roundtrip,
)
