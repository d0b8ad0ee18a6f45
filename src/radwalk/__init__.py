"""Radial random walks on matrix spaces: Kronecker algebra, multiset
combinatorics, matrix-Gaussian moment formulas, radial-measure samplers, and
Monte Carlo verification of the associated central limit theorems."""

__version__ = "0.1.0"

from .clt_experiments import (
    CovarianceEstimate,
    ExperimentReport,
    MomentDecayReport,
    WalkConfig,
    estimate_covariance,
    moment_decay_experiment,
    predict_covariances,
    trial_stream,
    verify_clt,
)
from .combinatorics import (
    apply_perm_kron,
    compositions,
    kron_multinomial_expand,
    multiset_perms,
    ordered_tuples,
    pair_blocks,
)
from .errors import (
    BadArity,
    NoConvergence,
    NotPSD,
    RadwalkError,
    RankDeficient,
    ShapeMismatch,
    SizeOverflow,
    TooFewSamples,
)
from .gaussian_moments import (
    MatrixNormalSpec,
    MomentTensor,
    moment_tensor,
    sample_matrix_normal,
    sum_moment,
    wick_moment,
)
from .kron_algebra import (
    PermMat,
    hadamard,
    kron,
    kron_power,
    reorder_perm,
    unvec,
    vec,
)
from .matrix_core import (
    frobenius_norm,
    gram,
    psd_sqrt,
    sym_eig,
    symmetrize,
)
from .radial_measures import (
    RadialLaw,
    RadialSampleBatch,
    phi,
    r2,
    radial_moment_mc,
    sample_radial_batch,
    sigma_nu,
    t_nu,
    uniform_sphere_cosine,
)
