"""Exporting TUPELO artifacts to SQL.

TUPELO's internal format is Tuple Normal Form and its output is an
executable mapping expression; both can be rendered as SQL (SQLite's, the
engine the library runs mappings on) so the discovered mapping can be
replayed inside an RDBMS:

* DDL + INSERTs recreating the critical instances,
* the TNF-construction statement for a relation (paper §2.2),
* the discovered pipeline compiled to a step-by-step SQL script (dynamic
  operators are materialised against the instance, since their column and
  table names come from data), and run on sqlite.

Run:  python examples/sql_export.py
"""

from __future__ import annotations

from repro import discover_mapping, execute_mapping
from repro.relational import relation_to_sql, tnf_construction_sql
from repro.workloads import flights_a, flights_b


def main() -> None:
    source, target = flights_b(), flights_a()

    print("-- DDL + DML for the source critical instance " + "-" * 24)
    print(relation_to_sql(source.relation("Prices")))
    print()

    print("-- TNF construction (one UNION ALL branch per attribute) " + "-" * 13)
    print(tnf_construction_sql(source.relation("Prices")))
    print()

    result = discover_mapping(source, target, heuristic="euclid_norm")
    assert result.found
    print("-- discovered mapping expression " + "-" * 38)
    for line in str(result.expression).splitlines():
        print(f"--   {line}")
    print()

    # prove the script is executable: compile it for sqlite and run it there
    executed = execute_mapping(result.expression, source, backend="sqlite")
    print("-- the same expression compiled to sqlite's SQL " + "-" * 23)
    print(executed.script.text)
    mapped = executed.database
    assert mapped == result.expression.apply(source)
    assert mapped.contains(target)
    print("-- script executed by sqlite; result " + "-" * 34)
    print("\n".join(f"--   {line}" for line in mapped.to_text().splitlines()))


if __name__ == "__main__":
    main()
