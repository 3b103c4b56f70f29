"""CSV import/export for relations and databases.

The paper's TUPELO elicits critical instances through a GUI (Fig. 3); this
module is the programmatic stand-in.  A critical instance is small, so the
loaders favour clarity over throughput.  Values are parsed conservatively:
integers and floats are recognised, the literal ``NULL`` (or an empty field)
becomes the NULL sentinel, everything else stays a string.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import SchemaError
from .database import Database
from .relation import Relation
from .types import NULL, Value, is_null, value_to_text


def parse_value(text: str) -> Value:
    """Parse a CSV field into a relational value.

    Empty string and the literal ``NULL`` parse to NULL; decimal integers
    and floats are converted; ``true``/``false`` become booleans; all other
    text stays a string.  So do ``nan``, ``NaN`` and the other spellings
    :class:`float` reads as NaN (a first name ``Nan``, say): NaN equals
    nothing, not even itself, so it is no relational value.
    """
    if text == "" or text == "NULL":
        return NULL
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        number = float(text)
    except ValueError:
        return text
    return number if number == number else text


def render_value(value: Value) -> str:
    """Render a relational value into a CSV field (inverse of parse_value)."""
    if is_null(value):
        return "NULL"
    return value_to_text(value)


def relation_from_csv(name: str, text: str) -> Relation:
    """Parse CSV *text* (first row = header) into a relation called *name*."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise SchemaError(f"CSV for relation {name!r} is empty")
    header = [field.strip() for field in rows[0]]
    parsed_rows = []
    for raw in rows[1:]:
        if len(raw) != len(header):
            raise SchemaError(
                f"CSV row {raw!r} has {len(raw)} fields, expected {len(header)} "
                f"for relation {name!r}"
            )
        parsed_rows.append([parse_value(field.strip()) for field in raw])
    return Relation(name, header, parsed_rows)


def relation_to_csv(relation: Relation) -> str:
    """Render a relation to CSV text (header + canonical-order rows)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(relation.attributes)
    for row in relation.sorted_rows():
        writer.writerow([render_value(v) for v in row])
    return out.getvalue()


def load_relation(path: str | Path, name: str | None = None) -> Relation:
    """Load a relation from a CSV file; name defaults to the file stem."""
    path = Path(path)
    return relation_from_csv(name or path.stem, path.read_text())


def save_relation(relation: Relation, path: str | Path) -> None:
    """Write a relation to a CSV file."""
    Path(path).write_text(relation_to_csv(relation))


def load_database(paths: Iterable[str | Path]) -> Database:
    """Load a database from multiple CSV files (one relation per file)."""
    return Database(load_relation(path) for path in paths)


def load_database_dir(directory: str | Path, pattern: str = "*.csv") -> Database:
    """Load every CSV file in *directory* as one database.

    Raises :class:`~repro.errors.SchemaError` when *directory* is not a
    directory or no file in it matches *pattern*, rather than returning an
    empty database.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SchemaError(f"{directory} is not a directory")
    paths = sorted(directory.glob(pattern))
    if not paths:
        raise SchemaError(f"{directory} holds no file matching {pattern!r}")
    return load_database(paths)


def save_database(db: Database, directory: str | Path) -> list[Path]:
    """Write each relation of *db* to ``<directory>/<relation>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for rel in db:
        path = directory / f"{rel.name}.csv"
        save_relation(rel, path)
        written.append(path)
    return written


def database_from_mapping(data: Mapping[str, str]) -> Database:
    """Build a database from ``{relation_name: csv_text}``."""
    return Database(relation_from_csv(name, text) for name, text in data.items())
