"""Two-qubit entanglement negativity and concurrence via SPA-PT.

ShotEstimate and estimate_negativity load lazily: the first access of either
name imports spaneg.shotsim (and with it spaneg.btpe), so `import spaneg`
does not pay for the shot machinery.  `from spaneg import *` does not list
them; import them by name.
"""

from .linalg import (
    PSD_CLAMP,
    RESIDUAL_TOL,
    VALIDATE_TOL,
    herm_eigen_batch,
    partial_transpose_batch,
    psd_sqrt_batch,
)
from .measures import (
    BatchReport,
    EntanglementReport,
    WitnessPair,
    batch_report,
    concurrence_quasi,
    concurrence_wootters_batch,
    estimator_bias,
    favg_from_mu,
    full_report,
    ls_upper_bound,
    negativity_normalized_batch,
    pt_spectrum_batch,
    verstraete_rhs,
    witness_pair,
)
from .spa import (
    SpaOutcome,
    choi_matrix,
    depol_d,
    mu_min_batch,
    spa_pt_affine,
    spa_pt_affine_batch,
    spa_pt_compositional_batch,
    spa_pt_paper_entries_batch,
    spa_theta,
    spa_transpose_tilde,
)
from .states import (
    DensityMatrix,
    StateValidationError,
    bell_state,
    family_batch,
    load_state,
    pure_from_vectors,
    random_mixed_batch,
    random_pure_batch,
    save_state,
    validate,
    validate_batch,
)

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: called only for a name the module does not hold.
    if name in ("ShotEstimate", "estimate_negativity"):
        from . import shotsim

        return getattr(shotsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
