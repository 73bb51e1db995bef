"""Exact entropy computations for banded endomorphisms of block groups.

Algebraic entropy on restricted direct sums, topological entropy on full
products, the duality bridge between them, and Willis depth, all in exact
integer arithmetic with certified stabilization.
"""

from .errors import (
    AmbientMismatchError,
    ContainmentError,
    DimensionError,
    HypothesisFailure,
    Inconclusive,
    InversionFailure,
    NormalityError,
    ValidationError,
)
from .finabel import (
    AbSubgroup,
    FiniteAbelianGroup,
    Hom,
    canonical_subgroup,
    hom_validate,
    quotient_invariants,
    subgroup_index,
)
from .gengroup import (
    FiniteGroup,
    GenSubgroup,
    cayley_group,
    closure,
    heart,
    is_normal,
    subgroup_product,
)
from .lattice import smith_normal_form
from .values import CheckRecord, EntropyValue, StabilizationPolicy
from .discrete import (
    BandedEndo,
    LFGroup,
    LFSubgroup,
    TrajectoryReport,
    banded_endo,
    locally_finite_group,
    trajectory,
    trajectory_limits,
)
from .profinite import (
    CotrajectoryReport,
    CylinderSubgroup,
    PowerEndo,
    ProGroup,
    RowFiniteEndo,
    TailCylinder,
    cokernel_order,
    cotrajectory,
    cotrajectory_limits,
    cylinder,
    kernel_order,
    log_law_check,
    pro_group,
    quotient_system,
    rowfinite_endo,
)
from .duality import (
    DualPairing,
    annihilator,
    bridge,
    dual_group,
    dual_hom,
    verify_duality_facts,
    weiss_bridge_check,
)
from .depth import (
    AntistableCertificate,
    DepthReport,
    antistable_check,
    base_sequence,
    depth_report,
    invert,
    plus_minus,
)

__version__ = "0.1.0"
