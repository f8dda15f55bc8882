"""Two-qubit entanglement negativity and concurrence via SPA-PT."""

from .linalg import (
    PSD_CLAMP,
    RESIDUAL_TOL,
    VALIDATE_TOL,
    herm_eigen_batch,
    partial_transpose_b,
    partial_transpose_batch,
    psd_sqrt_batch,
)
from .measures import (
    BatchReport,
    EntanglementReport,
    WitnessPair,
    batch_report,
    concurrence_quasi,
    concurrence_wootters,
    concurrence_wootters_batch,
    estimator_bias,
    favg_from_mu,
    full_report,
    ls_upper_bound,
    mu_from_favg,
    negativity_exact,
    negativity_lower_bound,
    negativity_normalized,
    negativity_normalized_batch,
    pt_spectrum_batch,
    verstraete_rhs,
    witness_pair,
)
from .shotsim import ShotEstimate, estimate_negativity
from .spa import (
    SpaOutcome,
    choi_matrix,
    depol_d,
    mu_min_batch,
    spa_pt_affine,
    spa_pt_affine_batch,
    spa_pt_compositional,
    spa_pt_compositional_batch,
    spa_pt_paper_entries,
    spa_pt_paper_entries_batch,
    spa_theta,
    spa_transpose_tilde,
)
from .states import (
    DensityMatrix,
    StateValidationError,
    bell_state,
    family_batch,
    family_horodecki,
    family_pure_m,
    family_quasi,
    load_state,
    pure_from_vector,
    pure_from_vectors,
    random_mixed,
    random_mixed_batch,
    random_pure,
    random_pure_batch,
    save_state,
    validate,
    validate_batch,
)

__version__ = "0.1.0"
