"""The transformation language L (FIRA fragment, Table 1 + λ of §4).

Operators:

========================  =========================================
Paper notation            Class
========================  =========================================
``ρatt X→X'``             :class:`RenameAttribute`
``ρrel X→X'``             :class:`RenameRelation`
``π̄A``                    :class:`DropAttribute`
``↑A→B``                  :class:`Promote`
``↓``                     :class:`Demote`
``→B/A``                  :class:`Dereference`
``℘A``                    :class:`Partition`
``×``                     :class:`CartesianProduct`
``µA``                    :class:`Merge`
``λB f,Ā``                :class:`ApplyFunction`
``σ`` (post-processing)   :class:`Select`
========================  =========================================
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Operator", "RelationOperator"),
        ".combine": (
            "CartesianProduct", "Merge", "merge_group", "merge_tuples",
            "tuples_compatible",
        ),
        ".dynamic": (
            "DEMOTE_ATT_ATTR", "DEMOTE_REL_ATTR", "Demote", "Dereference",
            "Partition", "Promote",
        ),
        ".expression": ("MappingExpression", "equivalent_on", "expression_of"),
        ".macros": ("pivot", "unpivot"),
        ".matching": (
            "AttributeMatch", "RelationMatch", "SchemaMatching",
            "extract_matching",
        ),
        ".parser": ("parse_expression", "parse_operator"),
        ".renames": ("RenameAttribute", "RenameRelation"),
        ".semantic": ("ApplyFunction",),
        ".sqlcompile": (
            "SqlScript", "compile_expression", "compile_operator",
            "compile_script",
        ),
        ".structure": ("DropAttribute", "Select"),
    },
)
