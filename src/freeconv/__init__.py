"""Exact Catalan combinatorics and operator-valued function series.

Everything computes over matrices of rationals, so each identity the
package claims is checked by literal equality of tensor coefficients:
no floats, no tolerances.
"""

from .algebra import AlgebraElement, NotInvertibleError
from .catalan import (FAMILIES, NAMED_BIJECTIONS, catalan_compose,
                      catalan_decompose, catalan_iso, family_elements,
                      named_bijection, verify_diagram)
from .freeprob import (CumulantSpec, MomentSpec, cumulants_by_trees,
                       cumulants_from_moments, mixed_tree_cumulant,
                       moments_by_trees, moments_from_cumulants,
                       product_cumulants, product_cumulants_oracle,
                       product_moments_oracle, sab_search,
                       speicher_relation_check, verify_freeprob_identities)
from .multiseries import (MultiMap, TruncSeries, alt_tree_eval, comp_inverse,
                          compose_at, is_gdif, is_gi, is_ginv, mul_at,
                          mult_inverse, operad_eval, operad_evaluator,
                          random_series, tree_eval, word_action)
from .partitions import enumerate_ncp, interleave, kreweras, merge_op
from .transforms import (boxconv, boxconv_by_trees, s_prime, s_transform,
                         strip_identity, u_transform,
                         verify_transform_identities)
from .trees import (classify, comb_decompose, enumerate_trees, parity_trees,
                    pi_set, rmap, splits, tree_from_text, tree_to_text,
                    unwedge, wedge, yb_set)
from .verify import (run_suite, verify_bijection_identities,
                     verify_operad_identities)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "NotInvertibleError",
    "FAMILIES", "NAMED_BIJECTIONS", "catalan_compose", "catalan_decompose",
    "catalan_iso", "family_elements", "named_bijection", "verify_diagram",
    "CumulantSpec", "MomentSpec", "cumulants_by_trees",
    "cumulants_from_moments", "mixed_tree_cumulant", "moments_by_trees",
    "moments_from_cumulants", "product_cumulants",
    "product_cumulants_oracle", "product_moments_oracle", "sab_search",
    "speicher_relation_check", "verify_freeprob_identities",
    "MultiMap", "TruncSeries", "alt_tree_eval", "comp_inverse", "compose_at",
    "is_gdif", "is_gi", "is_ginv", "mul_at", "mult_inverse", "operad_eval",
    "operad_evaluator", "random_series", "tree_eval", "word_action",
    "enumerate_ncp", "interleave", "kreweras", "merge_op",
    "boxconv", "boxconv_by_trees", "s_prime", "s_transform",
    "strip_identity", "u_transform",
    "verify_transform_identities",
    "classify", "comb_decompose", "enumerate_trees", "parity_trees",
    "pi_set", "rmap", "splits", "tree_from_text", "tree_to_text", "unwedge",
    "wedge", "yb_set",
    "run_suite", "verify_bijection_identities", "verify_operad_identities",
]
