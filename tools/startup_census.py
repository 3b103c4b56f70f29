#!/usr/bin/env python
"""Count what each ``repro`` CLI call loads, each call in a fresh interpreter.

For every row of the "What each call loads" table in
``docs/performance.md`` this runs the call in a new interpreter and
reports how many ``repro`` modules it loaded, the size of their ``.py``
source in KiB, the size of ``sys.modules``, and which of numpy, sqlite3
and orjson it loaded.  The output is that Markdown table, so the docs are
regenerated rather than typed.  With ``--baseline`` every cell reads
``baseline → measured``.

Each call runs on CSV instances of the Fig. 5 matching pair (n=5), with
an expression file and a JSONL trace made by the measured checkout's own
CLI in a temporary directory.  Counts do not depend on the host's speed,
only on the Python version, whose standard library import graph differs.

Usage::

    python tools/startup_census.py [--src DIR] [--baseline DIR]

``--src`` is the ``src`` directory to measure (default: this checkout's),
``--baseline`` another checkout's ``src`` to compare against.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT_SRC = Path(__file__).resolve().parent.parent / "src"

#: the third-party and stdlib modules worth a column: each is a large
#: import a lean call avoids
FLAGGED = ("numpy", "sqlite3", "orjson")

#: (row label, CLI arguments, or None for a bare import); the {names} are
#: filled in with the inputs _prepare writes
CALLS: tuple[tuple[str, tuple[str, ...] | None], ...] = (
    ("`import repro`", None),
    ("`discover --source --target`", ("discover", "{pair}")),
    (
        "`discover ... --algorithm ida --heuristic h0` (perfbench fig5_ida)",
        ("discover", "{pair}", "--algorithm", "ida", "--heuristic", "h0"),
    ),
    ("`discover --synthetic 3`", ("discover", "--synthetic", "3")),
    (
        "`discover ... --show-matching --show-sql`",
        ("discover", "{pair}", "--show-matching", "--show-sql"),
    ),
    ("`discover ... --execute`", ("discover", "{pair}", "--execute")),
    ("`discover ... --trace FILE`", ("discover", "{pair}", "--trace", "{scratch}")),
    ("`discover ... --progress`", ("discover", "{pair}", "--progress")),
    ("`apply`", ("apply", "--expression", "{expression}", "--source", "{source}")),
    ("`execute`", ("execute", "--expression", "{expression}", "--source", "{source}")),
    ("`tnf`", ("tnf", "--source", "{source}")),
    ("`trace --inspect`", ("trace", "--inspect", "{trace}")),
    ("`info`", ("info",)),
)

#: runs in the measured interpreter: the call, then one line of counts.
#: Counted before anything else is imported, and printed without json.
_CENSUS = textwrap.dedent(
    """
    import os, sys
    argv = {argv!r}
    if argv is None:
        import repro
    else:
        import runpy
        sys.argv = ["repro", *argv]
        sys.stdout = open(os.devnull, "w")
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit:
            pass
        sys.stdout = sys.__stdout__
    loaded = list(sys.modules)
    files = [
        getattr(sys.modules[name], "__file__", None)
        for name in loaded
        if name == "repro" or name.startswith("repro.")
    ]
    size = sum(os.path.getsize(path) for path in files if path)
    flags = [name for name in {flagged!r} if name in sys.modules]
    print(len(files), size, len(loaded), ",".join(flags) or "-")
    """
)


def _run(src: Path, code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=cwd, timeout=300,
    )


def _prepare(src: Path, work: Path) -> dict[str, str | tuple[str, ...]]:
    """Write the inputs every call reads, with *src*'s own code."""
    source, target = work / "source", work / "target"
    made = _run(src, textwrap.dedent(f"""
        from repro.relational import save_database
        from repro.workloads import matching_pair
        pair = matching_pair(5)
        save_database(pair.source, {str(source)!r})
        save_database(pair.target, {str(target)!r})
        """), work)
    if made.returncode != 0:
        raise SystemExit(f"cannot write the CSV pair:\n{made.stderr}")
    paths = {
        "pair": ("--source", str(source), "--target", str(target)),
        "source": str(source),
        "expression": str(work / "expression.txt"),
        "trace": str(work / "trace.jsonl"),
        "scratch": str(work / "scratch.jsonl"),
    }
    argv = [
        "discover", *paths["pair"], "--algorithm", "ida", "--heuristic", "h0",
        "--output", paths["expression"], "--trace", paths["trace"],
    ]
    made = _run(src, _CENSUS.format(argv=argv, flagged=FLAGGED), work)
    if made.returncode != 0 or not Path(paths["expression"]).is_file():
        raise SystemExit(f"cannot discover the pair's mapping:\n{made.stderr}")
    return paths


def _expand(argv: tuple[str, ...], paths: dict) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if arg.startswith("{") and arg.endswith("}"):
            value = paths[arg[1:-1]]
            out.extend(value if isinstance(value, tuple) else [value])
        else:
            out.append(arg)
    return out


def census(src: Path) -> list[tuple[int, float, int, str]]:
    """One ``(repro modules, source KiB, all modules, flags)`` per call."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="startup_census_") as tmp:
        work = Path(tmp)
        paths = _prepare(src, work)
        for label, argv in CALLS:
            code = _CENSUS.format(
                argv=None if argv is None else _expand(argv, paths),
                flagged=FLAGGED,
            )
            done = _run(src, code, work)
            if done.returncode != 0:
                raise SystemExit(f"{label} failed:\n{done.stderr}")
            modules, size, everything, flags = done.stdout.split()[-4:]
            rows.append((int(modules), int(size) / 1024, int(everything), flags))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=ROOT_SRC,
        help="the src directory to measure (default: this checkout's)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="another checkout's src directory; cells read baseline → measured",
    )
    args = parser.parse_args(argv)
    measured = census(args.src)
    baseline = census(args.baseline) if args.baseline else None
    print(f"| call | repro modules | source KiB | all modules | {', '.join(FLAGGED)} |")
    print("|---|---|---|---|---|")
    for index, (label, _argv) in enumerate(CALLS):
        now = measured[index]
        cells = [str(now[0]), f"{now[1]:.1f}", str(now[2]), now[3]]
        if baseline is not None:
            then = baseline[index]
            before = [str(then[0]), f"{then[1]:.1f}", str(then[2]), then[3]]
            cells = [f"{b} → {a}" for b, a in zip(before, cells)]
        print(f"| {label} | " + " | ".join(cells) + " |")
    print(
        f"\nPython {sys.version.split()[0]}; source KiB is the size of the "
        "loaded repro modules' .py files"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
