"""Tests for the public package surface (repro.__init__)."""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path
from types import ModuleType

import pytest

import repro
from repro import Database
from repro.relational import save_database
from repro.workloads import matching_pair

#: the directory holding the ``repro`` package under test
SRC = str(Path(repro.__file__).resolve().parent.parent)

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

#: what a CSV discovery never runs: execution backends, the SQL compiler,
#: fan-out, the store, the experiment harness, workload generators and
#: trace merging
NOT_ON_DISCOVER_PATH = (
    "numpy",
    "sqlite3",
    "repro.backends",
    "repro.parallel",
    "repro.store",
    "repro.experiments",
    "repro.workloads",
    "repro.fira.sqlcompile",
    "repro.obs.merge",
)

#: what a default CSV discovery (rbfs/h1, no trace, progress or
#: correspondence) does not run either: the JSONL writer's serializer and
#: fault site, the progress layer, the algorithms and heuristics it did not
#: name, and λ support
NOT_ON_DEFAULT_DISCOVER_PATH = (
    "orjson",
    "repro.serialize",
    "repro.resilience",
    "repro.obs.progress",
    "repro.search.ida",
    "repro.search.beam",
    "repro.search.best_first",
    "repro.heuristics.hybrid",
    "repro.heuristics.stringview",
    "repro.heuristics.vector",
    "repro.fira.semantic",
    "repro.semantics.correspondence",
)

#: option -> (its discover arguments, the prefixes of the one layer it may
#: load, and the modules it must load)
LAYER_OPTIONS = {
    "trace": (
        ["--trace", "{trace}"],
        ("orjson", "repro.serialize", "repro.resilience"),
        ("repro.serialize", "repro.resilience.faults"),
    ),
    "progress": (["--progress"], ("repro.obs.progress",), ("repro.obs.progress",)),
    "correspondence": (
        ["--correspondence", "C<-add(A,B)"],
        ("repro.fira.semantic", "repro.semantics.correspondence"),
        ("repro.fira.semantic", "repro.semantics.correspondence"),
    ),
    "beam": (["--algorithm", "beam"], ("repro.search.beam",), ("repro.search.beam",)),
    "cosine": (
        ["--heuristic", "cosine"],
        ("repro.heuristics.vector",),
        ("repro.heuristics.vector",),
    ),
}


def _under(name: str, prefixes) -> bool:
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


def _fresh_interpreter(script: str):
    """Run *script* in a new interpreter; return its last stdout line as JSON."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_from_module_docstring(self):
        """The README/docstring quickstart must actually work."""
        from repro import Database, Tupelo

        source = Database.from_dict(
            {
                "Prices": [
                    {
                        "Carrier": "AirEast",
                        "Route": "ATL29",
                        "Cost": 100,
                        "AgentFee": 15,
                    }
                ]
            }
        )
        target = Database.from_dict(
            {"Flights": [{"Carrier": "AirEast", "Fee": 15, "ATL29": 100}]}
        )
        result = Tupelo(algorithm="rbfs", heuristic="h1").discover(source, target)
        assert result.found
        assert result.stats.states_examined > 0

    def test_error_hierarchy(self):
        from repro import (
            MappingNotFound,
            SearchBudgetExceeded,
            SearchError,
            TupeloError,
        )

        assert issubclass(MappingNotFound, SearchError)
        assert issubclass(SearchBudgetExceeded, SearchError)
        assert issubclass(SearchError, TupeloError)

    def test_algorithm_and_heuristic_catalogues(self):
        assert set(repro.ALGORITHM_NAMES) >= {"ida", "rbfs"}
        assert len(repro.HEURISTIC_NAMES) == 8

    def test_algorithm_registry_resolves(self):
        from repro.search import a_star, beam_search, greedy, ida_star, rbfs
        from repro.search.engine import ALGORITHM_NAMES, ALGORITHMS

        assert ALGORITHMS == {
            "ida": ida_star,
            "rbfs": rbfs,
            "astar": a_star,
            "greedy": greedy,
            "beam": beam_search,
        }
        assert tuple(ALGORITHMS) == ALGORITHM_NAMES

    def test_operator_classes_exported(self):
        operators = [
            repro.RenameAttribute,
            repro.RenameRelation,
            repro.DropAttribute,
            repro.Promote,
            repro.Demote,
            repro.Dereference,
            repro.Partition,
            repro.CartesianProduct,
            repro.Merge,
            repro.ApplyFunction,
            repro.Select,
        ]
        assert all(issubclass(op, repro.Operator) for op in operators)

    @pytest.mark.parametrize(
        "name",
        [
            "SqlBackend", "get_backend", "backend_names", "MiniSqlBackend",
            "MiniSqlEngine", "run_script", "SqliteBackend", "SqlDialect",
            "CanonicalDialect", "CANONICAL_DIALECT", "SqliteDialect",
            "OPERATOR_FAMILIES", "config_signature", "pair_shape_fingerprint",
            "shape_digest", "relation_shape_digest",
        ],
    )
    def test_removed_execution_exports_stay_gone(self, name):
        """One engine and one dialect are left, so no backend ABC, backend
        object, registry, SQL interpreter or dialect class is exported.
        Search proposes every operator family and the memo serves on the
        exact fingerprint, so no family list, config signature or
        rename-insensitive digest is exported either."""
        import repro.backends
        import repro.relational
        import repro.search
        import repro.store

        packages = (
            repro, repro.backends, repro.relational, repro.search, repro.store,
        )
        for package in packages:
            assert name not in package.__all__
            assert not hasattr(package, name)


class TestStartUp:
    """Importing the package and running a command load only what they use.

    Asserted on module sets, not timings, so load on the host cannot flake
    them.
    """

    def test_import_loads_only_the_package_and_lazy_helper(self):
        added = _fresh_interpreter(
            """
            import json, sys
            before = set(sys.modules)
            import repro
            print(json.dumps(sorted(set(sys.modules) - before)))
            """
        )
        # importlib is the helper's one import; interpreters started
        # without -S have it loaded already
        assert set(added) - {"importlib"} == {"repro", "repro._lazy"}

    def test_csv_discovery_skips_unused_layers(self, tmp_path):
        code, loaded = _run_cli(["discover", *_rename_pair(tmp_path)])
        assert code == 0
        assert "repro.search.engine" in loaded
        unused = NOT_ON_DISCOVER_PATH + NOT_ON_DEFAULT_DISCOVER_PATH
        assert [name for name in loaded if _under(name, unused)] == []

    @pytest.mark.parametrize("option", sorted(LAYER_OPTIONS))
    def test_each_option_loads_its_layer(self, tmp_path, option):
        extra, layer, required = LAYER_OPTIONS[option]
        trace = tmp_path / "trace.jsonl"
        argv = [arg.replace("{trace}", str(trace)) for arg in extra]
        pair = _lambda_pair if option == "correspondence" else _rename_pair
        code, loaded = _run_cli(["discover", *pair(tmp_path), *argv])
        assert code == 0
        assert set(required) <= set(loaded)
        unused = NOT_ON_DISCOVER_PATH + NOT_ON_DEFAULT_DISCOVER_PATH
        assert [
            name
            for name in loaded
            if _under(name, unused) and not _under(name, layer)
        ] == []
        if option == "trace":
            from repro.obs import load_trace

            assert load_trace(trace)[-1]["event"] == "search_end"

    def test_named_algorithm_loads_no_other(self, tmp_path):
        from repro.search.engine import ALGORITHMS

        pair = _rename_pair(tmp_path)
        code, loaded = _run_cli(["discover", *pair, "--algorithm", "ida", "--heuristic", "h0"])
        assert code == 0
        assert "repro.search.ida" in loaded
        others = {fn.__module__ for name, fn in ALGORITHMS.items() if name != "ida"}
        assert others.isdisjoint(loaded)

    def test_synthetic_discovery_skips_semantics(self):
        code, loaded = _run_cli(["discover", "--synthetic", "3"])
        assert code == 0
        assert "repro.workloads.synthetic" in loaded
        assert "repro.semantics.correspondence" not in loaded

    def test_parser_algorithm_names_match_the_engine(self):
        from repro.cli import ALGORITHM_NAMES as parser_names
        from repro.search.engine import ALGORITHM_NAMES as engine_names

        assert parser_names == engine_names

    def test_tnf_skips_the_search_engine(self, tmp_path):
        save_database(matching_pair(2).source, tmp_path / "source")
        code, loaded = _run_cli(["tnf", "--source", str(tmp_path / "source")])
        assert code == 0
        assert "repro.search.engine" not in loaded
        assert "repro.search.problem" not in loaded

    def test_no_export_resolves_to_a_submodule(self):
        """Every export stays bound to the exported object once every
        submodule is loaded: importing a submodule sets the package attribute
        of its own name, so no export may share its submodule's name."""
        modules = _fresh_interpreter(
            """
            import importlib, json, pkgutil, sys, types, repro
            names = ["repro"] + [
                info.name
                for info in pkgutil.walk_packages(repro.__path__, "repro.")
                if not info.name.endswith("__main__")
            ]
            for name in names:
                importlib.import_module(name)
            print(json.dumps([
                f"{name}.{export}"
                for name in names
                for export in getattr(sys.modules[name], "__all__", ())
                if isinstance(getattr(sys.modules[name], export), types.ModuleType)
            ]))
            """
        )
        assert modules == []

    @pytest.mark.parametrize("name", PACKAGES)
    def test_dir_lists_exports_and_unknown_names_raise(self, name):
        package = import_module(name)
        listed = dir(package)
        assert len(set(package.__all__)) == len(package.__all__)
        for export in package.__all__:
            assert export in listed
            assert not isinstance(getattr(package, export), ModuleType)
        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(package, "no_such_export")


def _saved_pair(tmp_path: Path, source, target) -> list[str]:
    """Save a pair as CSV directories; the discover arguments naming them."""
    save_database(source, tmp_path / "source")
    save_database(target, tmp_path / "target")
    return ["--source", str(tmp_path / "source"), "--target", str(tmp_path / "target")]


def _rename_pair(tmp_path: Path) -> list[str]:
    """The Fig. 5 matching pair of size 3: three attribute renames."""
    pair = matching_pair(3)
    return _saved_pair(tmp_path, pair.source, pair.target)


def _lambda_pair(tmp_path: Path) -> list[str]:
    """A pair whose mapping is one λ, C = add(A, B)."""
    rows = [{"A": 1, "B": 2}, {"A": 3, "B": 4}]
    target = [{**row, "C": row["A"] + row["B"]} for row in rows]
    return _saved_pair(
        tmp_path, Database.from_dict({"R": rows}), Database.from_dict({"R": target})
    )


def _run_cli(argv: list[str]):
    """Run ``repro`` *argv* in a fresh interpreter; its exit code and modules."""
    return _fresh_interpreter(
        f"""
        import json, runpy, sys
        sys.argv = ["repro"] + {argv!r}
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as done:
            code = done.code
        print(json.dumps([code, sorted(sys.modules)]))
        """
    )
