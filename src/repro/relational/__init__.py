"""Relational substrate: immutable relations, databases, TNF, I/O, SQL.

This package provides the data model everything else is built on:

* :class:`~repro.relational.relation.Relation` and
  :class:`~repro.relational.database.Database` — immutable, canonical,
  hashable values suitable for use as search states;
* :data:`~repro.relational.types.NULL` — the null sentinel introduced by
  the dynamic data-metadata operators;
* Tuple Normal Form (:mod:`repro.relational.tnf`) — the fixed-schema
  interoperability encoding TUPELO uses internally;
* CSV I/O (:mod:`repro.relational.csvio`) and SQL rendering
  (:mod:`repro.relational.sql`).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".csvio": (
            "database_from_mapping", "load_database", "load_database_dir",
            "load_relation", "parse_value", "relation_from_csv",
            "relation_to_csv", "save_database", "save_relation",
        ),
        ".database": ("Database",),
        ".dialect": (
            "CANONICAL_DIALECT", "DIALECTS", "DuckDbDialect", "MiniSqlDialect",
            "SqlDialect", "SqliteDialect", "get_dialect",
        ),
        ".fingerprint": (
            "instance_digest", "pair_fingerprint", "pair_shape_fingerprint",
            "relation_digest", "relation_shape_digest", "shape_digest",
        ),
        ".intern": ("NULL_TOKEN", "intern_value", "token_text"),
        ".relation": ("Relation", "Row", "TokenRow"),
        ".sql": ("database_to_sql", "relation_to_sql", "tnf_construction_sql"),
        ".tnf": (
            "TNF_ATTRIBUTES", "database_string", "iter_tnf_cells", "tnf_cells",
            "tnf_decode", "tnf_encode", "tnf_projections", "tnf_triples",
        ),
        ".types": (
            "NULL", "NullType", "Value", "check_value", "is_null",
            "value_to_text",
        ),
    },
)
