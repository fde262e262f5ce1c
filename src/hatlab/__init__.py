"""hatlab: an exact workbench for hat-guessing games on graphs.

Construct games by the theorem-constructors (sums, products,
substitutions, losing compositions), certify winning/losing/maximal
status through independence-polynomial arithmetic, isolate polynomial
roots by Descartes bisection, and decide small games exhaustively with a
built-in SAT search.  All arithmetic is exact rational; no floating
point touches any certificate.
"""

from .algebra import (
    Certificate,
    CliqueLeaf,
    ExprError,
    GameExpr,
    PendantLose,
    Product,
    Substitute,
    Sum,
    SumLose,
    conclude_hg,
    conclude_muhat,
    eval_expr,
)
from .certify import (
    CertifyError,
    Inconclusive,
    LosingCertificate,
    MaximalityCertificate,
    MuHatResult,
    Refutation,
    check_maximal_compositional,
    check_maximal_direct,
    losing_by_Z_positive,
    mu_hat_chordal,
)
from .games import (
    CriterionResult,
    GameError,
    HatGame,
    clique_criterion,
    fraction_vector,
    glue_hatness,
    make_game,
    uniform_game,
)
from .graphs import (
    Graph,
    GraphError,
    GraphStats,
    clique_join,
    complete_graph,
    diameter,
    is_chordal,
    make_graph,
    path_graph,
    stats,
    substitute,
    vertex_glue,
)
from .indpoly import eval_P, eval_Z, univariate_P, univariate_U
from .poly import UnivariatePoly
from .roots import (
    IsolatingInterval,
    family,
    smallest_positive_root,
    verify_root_interval,
)
from .solver import (
    GameVerdict,
    GuardExceeded,
    SolverError,
    decide_game,
    encode,
    hg_search,
    search_game,
    verify_strategy,
)

__version__ = "1.0.0"
