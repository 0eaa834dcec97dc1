"""Stopping sets of codes built from elliptic curves over small finite
fields: exact classification, counting, and matrix-level verification.

The slow routes that tests check these against live in stopset.reference,
which this package does not import."""

from .agcode import (
    CodeMatrix,
    Distribution,
    EllipticCodeSpec,
    dual_rows,
    generator_matrix,
    hstar_rows,
    hstar_support_masks,
    mds_distribution,
    min_distance_bruteforce,
    null_space,
    residue_min_distance,
    rr_basis,
    spec_all_points,
    weight_enumerator,
)
from .curve import (
    INFINITY,
    EllipticCurve,
    GroupStructure,
    Point,
    add,
    curve,
    group_structure,
    neg,
    point_order,
    rational_points,
    scalar_mul,
    sum_points,
)
from .decoder import ErasureInstance, make_instance, peel
from .errors import FieldMismatchError, IntegrityError, SizeLimitError
from .ffield import FieldSpec, parse_field
from .groupcount import (
    AbelianGroup,
    closed_form_p_power,
    closed_form_two_power_terms,
    closed_form_two_primes,
    count_S_m,
    count_formula,
    e_of_b,
    moebius,
    torsion_count,
)
from .stoptheory import (
    StoppingReport,
    StoppingStatus,
    Verdict,
    build_report,
    build_S_m_plus,
    classify,
    distribution,
    enumerate_S_m,
    is_subgroup_minus_O,
    oracle_agreement_check,
    stopping_distance,
)

__version__ = "1.0.0"
