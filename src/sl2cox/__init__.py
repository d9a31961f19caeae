"""Exact computer algebra for almost homogeneous SL2-threefolds.

From the combinatorial data of a normal SL2/F-embedding (exceptional points,
G-stable divisor valuations, section convention) the package computes the
divisor class group by generators and relations, Cox-ring presentations,
singularity diagnostics and the iteration sequence of Cox rings, all in
exact rational / Gaussian-rational arithmetic.  An element of Q(i) is the
integer triple (x, y, d), meaning (x + y*i)/d; ``qi`` reads one from an int,
a 'p/q' string, {"re", "im"} or a list [re, im].
"""

from .exactmath import (
    EmptySolutionSet,
    FinAbGroup,
    IntMatrix,
    SmithDecomposition,
    cokernel,
    qi,
    rat,
    smith_normal_form,
    solve_nonneg,
)
from .groups import FiniteSubgroup, cyclic, dihedral, ICOSA, OCTA, TETRA
from .hyperspace import (
    BasePoint,
    ColoredHypercone,
    HyperspaceVector,
    X0,
    XD,
    XE,
    XF,
    XINF,
    XV,
    color_vector,
    epsilon,
    hypercone_from_generators,
    interiors_disjoint,
    is_supported,
    point,
    valuation_cone_contains,
)
from .embedding import (
    EmbeddingData,
    GStableDivisorSpec,
    InvalidEmbedding,
    affine_embedding,
    derive_ap0_input,
    embedding_from_dict,
    load_embedding,
)
from .classgroup import (
    ClassGroupResult,
    class_group,
    express_in_invariant_divisors,
    restrict_to_Fhat,
)
from .coxring import (
    BatyrevHaddadParams,
    batyrev_haddad,
    clebsch_gordan,
    cox_u_presentation,
    eliminate,
    full_cox_presentation_cyclic,
    special_fiber_u,
)
from .diagnostics import (
    PlatonicVerdict,
    classify_hypercone_orbit,
    constant_functions_only,
    is_platonic_ring,
    is_platonic_tuple,
    log_terminal_X,
    special_fiber_normal,
)
from .iteration import (
    IterationReport,
    bound_for,
    cyclic_iteration_exact,
    descend_subgroup,
    iterate,
    torsion_characters,
)

__version__ = "0.1.0"
