"""TUPELO — data mapping as heuristic search.

A faithful, from-scratch reproduction of *Data Mapping as Search*
(G.H.L. Fletcher & C.M. Wyss, EDBT 2006).  Given small "critical instances"
illustrating the same information under a source and a target relational
schema, TUPELO searches the space of transformations of the source instance
— under the dynamic relational language L (a FIRA fragment) extended with
complex semantic functions — until it contains the target instance, and
returns the transformation path as an executable mapping expression.

Quickstart::

    from repro import Database, Tupelo

    source = Database.from_dict({"Prices": [
        {"Carrier": "AirEast", "Route": "ATL29", "Cost": 100, "AgentFee": 15},
    ]})
    target = Database.from_dict({"Flights": [
        {"Carrier": "AirEast", "Fee": 15, "ATL29": 100},
    ]})
    result = Tupelo(algorithm="rbfs", heuristic="h1").discover(source, target)
    print(result.expression)          # the discovered pipeline in L
    print(result.stats.states_examined)
"""

from .backends import (
    ExecutionResult,
    Executor,
    SqlBackend,
    available_backends,
    backend_names,
    execute_mapping,
    get_backend,
)
from .errors import (
    BackendError,
    BackendExecutionError,
    BackendUnavailableError,
    BackendUnsupportedError,
    MappingNotFound,
    SearchBudgetExceeded,
    SearchCancelled,
    SearchDeadlineExceeded,
    SearchError,
    SemanticError,
    TransformError,
    TupeloError,
    UnknownBackendError,
)
from .fira import (
    ApplyFunction,
    CartesianProduct,
    Demote,
    Dereference,
    DropAttribute,
    MappingExpression,
    Merge,
    Operator,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
    Select,
    compile_expression,
    expression_of,
    parse_expression,
    parse_operator,
)
from .fira.macros import pivot, unpivot
from .fira.matching import extract_matching
from .heuristics import HEURISTIC_NAMES, PAPER_SCALING_CONSTANTS, make_heuristic
from .instances import align_rows, extract_critical_instances
from .minisql import MiniSqlEngine, run_script
from .relational import (
    NULL,
    Database,
    Relation,
    database_string,
    tnf_decode,
    tnf_encode,
)
from .search import (
    ALGORITHM_NAMES,
    CancelToken,
    MappingProblem,
    SearchConfig,
    SearchResult,
    SearchStats,
    Tupelo,
    discover_mapping,
    simplify_expression,
)
from .semantics import (
    Correspondence,
    FunctionRegistry,
    SemanticFunction,
    builtin_registry,
)

__version__ = "1.0.0"

__all__ = [
    "BackendError",
    "BackendExecutionError",
    "BackendUnavailableError",
    "BackendUnsupportedError",
    "ExecutionResult",
    "Executor",
    "SqlBackend",
    "UnknownBackendError",
    "available_backends",
    "backend_names",
    "execute_mapping",
    "get_backend",
    "MappingNotFound",
    "SearchBudgetExceeded",
    "SearchCancelled",
    "SearchDeadlineExceeded",
    "SearchError",
    "SemanticError",
    "TransformError",
    "TupeloError",
    "ApplyFunction",
    "CartesianProduct",
    "Demote",
    "Dereference",
    "DropAttribute",
    "MappingExpression",
    "Merge",
    "Operator",
    "Partition",
    "Promote",
    "RenameAttribute",
    "RenameRelation",
    "Select",
    "compile_expression",
    "expression_of",
    "parse_expression",
    "parse_operator",
    "extract_matching",
    "pivot",
    "unpivot",
    "align_rows",
    "extract_critical_instances",
    "MiniSqlEngine",
    "run_script",
    "HEURISTIC_NAMES",
    "PAPER_SCALING_CONSTANTS",
    "make_heuristic",
    "NULL",
    "Database",
    "Relation",
    "database_string",
    "tnf_decode",
    "tnf_encode",
    "ALGORITHM_NAMES",
    "CancelToken",
    "MappingProblem",
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "Tupelo",
    "discover_mapping",
    "simplify_expression",
    "Correspondence",
    "FunctionRegistry",
    "SemanticFunction",
    "builtin_registry",
    "__version__",
]
