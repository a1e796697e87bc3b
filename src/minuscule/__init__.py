"""Exact combinatorial dynamics over minuscule posets.

Rowmotion on plane partitions (order ideals of a poset times a chain),
K-promotion on increasing tableaux, gapless orbit tables, and exact
cyclic-sieving verdicts by root-of-unity evaluation of the plane-partition
generating function.  All arithmetic is exact integer arithmetic.
"""

from .errors import (
    ExactnessError,
    ParameterError,
    StateCapExceeded,
    UnsupportedPosetError,
    state_cap,
)
from .poset import (
    Poset,
    ShapeDiagram,
    build_minuscule_poset,
    cayley_moufang,
    chain_product,
    freudenthal,
    load_poset,
    parse_poset_spec,
    poset_from_shape,
    propeller,
    rank_vector,
    rectangle,
    shifted_staircase,
)
from .ideals import (
    OrbitSummary,
    OrderIdeal,
    PlanePartition,
    enumerate_ideals,
    ideal_to_plane_partition,
    plane_partition_to_ideal,
    rowmotion,
    rowmotion_orbits,
)
from .qpoly import (
    QPolynomial,
    RootOfUnityValue,
    cyclotomic,
    eval_at_root,
    is_zero_at_primitive_root,
    plane_partition_gf,
    q_binomial,
    q_binomial_at_root,
    q_factorial,
    q_int,
    q_ratio_limit,
)
from .tableaux import (
    IncreasingTableau,
    content_vector,
    deflate,
    enumerate_gapless,
    enumerate_increasing,
    inflate,
    k_bender_knuth,
    promotion,
    promotion_census,
    rotate_left,
    vector_inflation,
)
from .orbits import (
    CspRecord,
    CspVerdict,
    FrameReport,
    GaplessOrbitRow,
    GaplessOrbitTable,
    PeriodReport,
    build_gapless_table,
    count_fixed,
    count_fixed_qbinomial,
    exact_period_vector_count,
    frame,
    frame_check,
    inflated_period,
    load_or_build_table,
    max_dual_tree_filter,
    max_tree_ideal,
    promote_pair,
    promotion_order,
    verify_csp,
)

__version__ = "0.1.0"
