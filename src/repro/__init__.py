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

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backends.executor": ("ExecutionResult", "execute_mapping"),
        ".errors": (
            "BackendError", "BackendExecutionError", "BackendUnsupportedError",
            "UnknownBackendError",
            "MappingNotFound", "SearchBudgetExceeded", "SearchCancelled",
            "SearchDeadlineExceeded", "SearchError", "SemanticError",
            "TransformError", "TupeloError",
        ),
        ".fira.base": ("Operator",),
        ".fira.combine": ("CartesianProduct", "Merge"),
        ".fira.dynamic": ("Demote", "Dereference", "Partition", "Promote"),
        ".fira.expression": ("MappingExpression", "expression_of"),
        ".fira.macros": ("pivot", "unpivot"),
        ".fira.matching": ("extract_matching",),
        ".fira.parser": ("parse_expression", "parse_operator"),
        ".fira.renames": ("RenameAttribute", "RenameRelation"),
        ".fira.semantic": ("ApplyFunction",),
        ".fira.sqlcompile": ("compile_expression",),
        ".fira.structure": ("DropAttribute", "Select"),
        ".heuristics.registry": (
            "HEURISTIC_NAMES", "PAPER_SCALING_CONSTANTS", "make_heuristic",
        ),
        ".instances": ("align_rows", "extract_critical_instances"),
        ".relational.database": ("Database",),
        ".relational.relation": ("Relation",),
        ".relational.tnf": ("database_string", "tnf_decode", "tnf_encode"),
        ".relational.types": ("NULL",),
        ".search.cancel": ("CancelToken",),
        ".search.config": ("SearchConfig",),
        ".search.engine": ("ALGORITHM_NAMES", "Tupelo", "discover_mapping"),
        ".search.problem": ("MappingProblem",),
        ".search.result": ("SearchResult",),
        ".search.simplify": ("simplify_expression",),
        ".search.stats": ("SearchStats",),
        ".semantics.correspondence": ("Correspondence",),
        ".semantics.functions": (
            "FunctionRegistry", "SemanticFunction", "builtin_registry",
        ),
    },
)
__all__.append("__version__")
