"""Quantitative term rewriting over quantale-valued relations.

Subpackages: quantale (value algebras), qrel (finite weighted relations and
their confluence checks), term (first-order terms and unification), qtrs
(rewrite systems and their grades, critical pairs, certification),
invariants (symbol-count invariants that prove unreachability, and the
count potential that prices pruned branches), graded (parallel multi-steps and
their diamond), search (metric word problems), systems (example catalog and
oracles), dsl (the .qtrs format), cli (command line).
"""

from .quantale import (
    BOOL,
    FUZZY_GODEL,
    FUZZY_LUKASIEWICZ,
    FUZZY_PRODUCT,
    INF,
    LAWVERE,
    NAT_INF,
    QUANTALES,
    STRONG_LAWVERE,
    QuantaleError,
    QuantaleSpec,
    get_quantale,
)
from .term import Application, Symbol, Term, Variable
from .qtrs import (
    CriticalPeak,
    RewriteStep,
    RewriteSystem,
    Rule,
    SymbolFamily,
    balanced_check,
    confluence_report,
    critical_pairs,
    cross_critical_pairs,
    degree_at_position,
    degree_of_variable,
    join_check,
    one_step,
    orthogonality_check,
    strongly_closed_check,
    sum_systems,
)
from .graded import multi_step, multistep_diamond_probe
from .qrel import FiniteQRel, SoundnessError, hindley_rosen_check
from .search import (
    DistanceAnswer,
    SearchBudget,
    convertibility_distance,
    epsilon_reachability,
    normalize,
    reachability,
    reduction_distance,
    valley_distance,
)
from .dsl import emit_system, parse_system, parse_term

__version__ = "0.1.0"
