"""conjlab: conjugacy class sizes of finite groups given by generators,
the divisibility-cover digraph on those sizes, the SP/CH/CA/F group
classes, and classification of SP groups into structural types."""

from .classgraph import (ClassSizeSet, CoverDigraph, build_gamma, class_size_set,
                         export, is_primitive, n_set)
from .classifier import (Analysis, FrobeniusStructure, SPClassification, Verdict,
                         check_corollary1, classify, find_frobenius_structure)
from .errors import (CapExceeded, ConjlabError, ConstructionError,
                     InternalCheckError, SpecFileError)
from .families import (agl1, alternating_group, build_family, cyclic_group,
                       dihedral_group, direct_product,
                       elementary_abelian_group, gl2, heisenberg,
                       quaternion_group, remark_group, sl2, symmetric_group,
                       to_permutation, type3_frobenius)
from .gf import Field, make_field
from .groups import (DEFAULT_MAX_ORDER, ConjugacyClass, FiniteGroup, MatrixRep,
                     PermutationRep, QuotientRep, Subgroup)
from .predicates import PredicateReport, evaluate, is_ca, is_ch, is_f, is_sp
from .specio import (analysis_report, group_spec_dict, load_group_spec,
                     parse_group_spec, write_group_spec)

__version__ = "0.1.0"
