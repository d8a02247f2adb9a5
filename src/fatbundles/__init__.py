"""Certification of fat covectors for canonical invariant connections on
homogeneous principal bundles, with exact rational root-data arithmetic
and numeric curvature oracles."""

__version__ = "0.1.0"  # set first: certificates record it

from .coupling import (
    BlockReport,
    HomogeneousBundleInstance,
    InvariantTwoForm,
    bundle_instance,
    ce_closedness,
    instance_form,
    nondegenerate_and_top_power,
    verify_block_structure,
)
from .curvature import (
    CurvatureTensor,
    berger_check,
    constant_curvature,
    pinching_estimate,
    random_frames,
    random_pinched,
    twistor_fatness,
    twistor_form,
)
from .duality import DualPair, compare_fat_sets, dualize, standard_involution
from .errors import (
    CriteriaDisagree,
    DegenerateRestriction,
    DimensionMismatch,
    FatBundleError,
    InvolutionInvalid,
    NotCompact,
    OddDimension,
    ScaleFailure,
    TorusMismatch,
)
from .fatness import (
    FatnessCertificate,
    certify,
    fat_by_centralizer,
    fat_by_oracle,
    fatness_gram,
    isotropy_algebra,
    sample_rational_vectors,
)
from .liealg import (
    LieAlgebra,
    SubalgebraEmbedding,
    block_torus,
    build_algebra,
    killing_signature,
    matrix_algebra,
    maximal_torus,
    reductive_split,
    so,
    so_block_embedding,
    so_pq,
    su,
    torus_embedding,
    u_block_embedding,
    u_in_so,
)
from .rootdata import (
    RootSystem,
    SubSystem,
    build_root_system,
    detect_subsystem,
    fat_by_roots,
    find_centralizing_vector,
    find_fat_shift,
    fundamental_coweights,
    root_system_for,
    subsystem_from_members,
    verify_shift,
)
from .verdicts import FAT, NOT_APPLICABLE, NOT_FAT, Verdict
