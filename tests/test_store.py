"""Warm-start store suite: fingerprints, memo, and failure modes.

The store's contract is *warmth is optional, correctness is not*: every
test that damages a store file (corruption, truncation, version skew,
forged entries) asserts the search degrades to a cold run
with a ``resilience.store_*`` counter — never an exception, never an
unverified answer.
"""

from __future__ import annotations

import json
import threading

from repro import Database, Relation, discover_mapping
from repro.fira import parse_expression
from repro.obs import MemorySink, Tracer
from repro.relational.fingerprint import (
    instance_digest,
    pair_fingerprint,
    relation_digest,
)
from repro.resilience.runtime import resilience_counters, resilience_delta
from repro.semantics import builtin_registry
from repro.store import MappingMemo, WarmStartStore
from repro.workloads.synthetic import matching_pair


def _pair(n: int = 3):
    pair = matching_pair(n)
    return pair.source, pair.target


def _discover(source, target, store=None, **kwargs):
    kwargs.setdefault("algorithm", "ida")
    kwargs.setdefault("heuristic", "h0")
    return discover_mapping(source, target, store=store, **kwargs)


# -- fingerprints ------------------------------------------------------------


def test_digest_insensitive_to_construction_order():
    rows = [("a", 1), ("b", 2), ("c", 3)]
    fwd = Database.single(Relation("R", ("X", "Y"), rows))
    rev = Database.single(Relation("R", ("X", "Y"), list(reversed(rows))))
    assert instance_digest(fwd) == instance_digest(rev)
    r1 = Relation("R", ("X",), [("x",)])
    s1 = Relation("S", ("Y",), [("y",)])
    assert instance_digest(Database([r1, s1])) == instance_digest(
        Database([s1, r1])
    )


def test_digest_is_type_faithful():
    ints = Database.single(Relation("R", ("X",), [(1,)]))
    strs = Database.single(Relation("R", ("X",), [("1",)]))
    assert instance_digest(ints) != instance_digest(strs)


def test_rename_changes_exact_but_not_shape_digest():
    # The rename-insensitive shape digest this test is named for is
    # deleted: nothing read it.  A rename still changes the exact digests,
    # so a mapping stored under other names is never served.
    base = Relation("R", ("X", "Y"), [("a", 1), ("b", 2)])
    renamed = Relation("Q", ("P", "Q"), [("a", 1), ("b", 2)])
    assert relation_digest(base) != relation_digest(renamed)
    assert instance_digest(Database.single(base)) != instance_digest(
        Database.single(renamed)
    )


def test_pair_fingerprint_is_direction_sensitive():
    source, target = _pair(2)
    assert pair_fingerprint(source, target) != pair_fingerprint(target, source)


def test_fingerprint_stable_across_processes():
    # The digest must not depend on the process-local intern pool: a child
    # process interning in a different order reports the same fingerprint.
    import subprocess
    import sys

    source, target = _pair(2)
    code = (
        "import sys; sys.path.insert(0, 'src');"
        "from repro.workloads.synthetic import matching_pair;"
        "from repro.relational.fingerprint import pair_fingerprint;"
        "p = matching_pair(2);"
        "print(pair_fingerprint(p.source, p.target))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == pair_fingerprint(source, target)


# -- mapping memo ------------------------------------------------------------


def test_memo_round_trip_is_bit_identical(tmp_path):
    source, target = _pair(3)
    cold = _discover(source, target)
    memo = MappingMemo(tmp_path / "memo.jsonl")
    memo.record(
        source,
        target,
        expression=cold.expression,
        algorithm="ida",
        heuristic="h0",
    )
    served = memo.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    expression, entry = served
    assert str(expression) == str(cold.expression)
    assert entry["fingerprint"] == pair_fingerprint(source, target)


def test_memo_prefers_exact_request_variant(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    memo = MappingMemo(tmp_path / "memo.jsonl")
    memo.record(
        source, target, expression=cold.expression,
        algorithm="astar", heuristic="h1",
    )
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    served = memo.serve(source, target, algorithm="astar", heuristic="h1")
    assert served is not None
    assert served[1]["algorithm"] == "astar"


def test_memo_survives_corrupt_and_torn_lines(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    with path.open("a", encoding="utf-8") as fh:
        fh.write("this is not json\n")
        fh.write('{"kind": "mapping", "fingerprint": 7}\n')
        fh.write('{"kind": "mapping", "fingerprint": "abc", "expr')  # torn
    baseline = resilience_counters()
    fresh = MappingMemo(path)
    served = fresh.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    assert str(served[0]) == str(cold.expression)
    assert fresh.corrupt_lines == 3
    assert resilience_delta(baseline).get("resilience.store_corrupt_entry") == 3


#: a memo file written by the format that also stored a rename-insensitive
#: ``shape`` fingerprint and a config ``signature`` per entry: matching
#: pair 3, discovered by IDA*/h0
EARLIER_FORMAT_MEMO = (
    '{"kind":"header","store":"tupelo-memo","version":1}\n'
    '{"algorithm":"ida","expression":"rename_att[R](A01 -> B01)\\n'
    'rename_att[R](A02 -> B02)\\nrename_att[R](A03 -> B03)",'
    '"fingerprint":"21ddf02f82099b1543370bb361b757fe55d83486d36760a011d52a881aad0f95",'
    '"heuristic":"h0","k":null,"kind":"mapping","ops":3,'
    '"shape":"327408e8ca478c616a936afdba3bb7bb14885bcb9dd9bdf0a215003ea808b3d7",'
    '"signature":"f493b2e719e535182cd8d8604b06196829cbebe8d135ede014b81260636aedba",'
    '"states_examined":76,"version":1}\n'
)


def test_earlier_format_entry_still_serves(tmp_path):
    source, target = _pair(3)
    store = tmp_path / "store"
    store.mkdir()
    (store / "memo.jsonl").write_text(EARLIER_FORMAT_MEMO, encoding="utf-8")
    baseline = resilience_counters()
    warm = _discover(source, target, store=store)
    assert warm.served_from_store
    assert warm.states_examined == 0
    assert str(warm.expression) == str(_discover(source, target).expression)
    assert resilience_delta(baseline) == {}
    # what this format writes: the fields serving reads, plus two counts
    entry = MappingMemo(tmp_path / "memo.jsonl").record(
        source, target, expression=warm.expression,
        algorithm="ida", heuristic="h0", states_examined=76,
    )
    assert set(entry) == {
        "kind", "version", "fingerprint", "algorithm", "heuristic", "k",
        "expression", "ops", "states_examined",
    }


def test_memo_version_mismatch_degrades_cold(tmp_path):
    path = tmp_path / "memo.jsonl"
    path.write_text(
        '{"kind": "header", "store": "tupelo-memo", "version": 99}\n'
    )
    baseline = resilience_counters()
    memo = MappingMemo(path)
    source, target = _pair(2)
    assert memo.serve(source, target) is None
    assert memo.version_mismatch
    delta = resilience_delta(baseline)
    assert delta.get("resilience.store_version_mismatch") == 1


def test_forged_fingerprint_collision_is_rejected(tmp_path):
    # An entry whose fingerprint matches but whose expression maps the
    # pair wrongly (hash collision / hand-edited file) must be refused by
    # verification, not served.
    source, target = _pair(2)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    forged = {
        "kind": "mapping",
        "version": 1,
        "fingerprint": pair_fingerprint(source, target),
        "algorithm": "ida",
        "heuristic": "h0",
        "k": None,
        "expression": "rename_rel(A -> NoSuchPlace)",
        "ops": 1,
    }
    path.write_text(
        memo._header_line() + "\n" + json.dumps(forged) + "\n"
    )
    baseline = resilience_counters()
    assert memo.serve(source, target, algorithm="ida", heuristic="h0") is None
    delta = resilience_delta(baseline)
    assert delta.get("resilience.store_stale_entry", 0) >= 1


def test_stale_entry_falls_back_to_older_verified_entry(tmp_path):
    source, target = _pair(2)
    cold = _discover(source, target)
    path = tmp_path / "memo.jsonl"
    memo = MappingMemo(path)
    memo.record(
        source, target, expression=cold.expression,
        algorithm="ida", heuristic="h0",
    )
    # a newer-but-wrong entry for the same fingerprint shadows the good one
    forged = {
        "kind": "mapping",
        "version": 1,
        "fingerprint": pair_fingerprint(source, target),
        "algorithm": "ida",
        "heuristic": "h0",
        "k": None,
        "expression": "rename_rel(A -> Elsewhere)",
        "ops": 1,
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(forged) + "\n")
    fresh = MappingMemo(path)
    served = fresh.serve(source, target, algorithm="ida", heuristic="h0")
    assert served is not None
    assert str(served[0]) == str(cold.expression)


def test_memo_gc_bounds_entries(tmp_path):
    memo = MappingMemo(tmp_path / "memo.jsonl", max_entries=3)
    expression = parse_expression("rename_rel(R -> S)")
    for i in range(6):
        db = Database.single(Relation("R", ("X",), [(f"v{i}",)]))
        out = Database.single(Relation("S", ("X",), [(f"v{i}",)]))
        memo.record(
            db, out, expression=expression, algorithm="ida", heuristic="h0"
        )
    assert len(memo.fingerprints()) <= 3
    summary = memo.gc()
    assert summary["kept"] <= 3
    # the newest pair is among the survivors
    newest = Database.single(Relation("R", ("X",), [("v5",)]))
    newest_out = Database.single(Relation("S", ("X",), [("v5",)]))
    assert memo.serve(newest, newest_out) is not None


def test_concurrent_reader_and_writer_on_one_path(tmp_path):
    path = tmp_path / "memo.jsonl"
    expression = parse_expression("rename_rel(R -> S)")
    pairs = []
    for i in range(20):
        db = Database.single(Relation("R", ("X",), [(f"w{i}",)]))
        out = Database.single(Relation("S", ("X",), [(f"w{i}",)]))
        pairs.append((db, out))
    errors: list[BaseException] = []

    def writer():
        memo = MappingMemo(path, max_entries=8)
        try:
            for db, out in pairs:
                memo.record(
                    db, out, expression=expression,
                    algorithm="ida", heuristic="h0",
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def reader():
        memo = MappingMemo(path, max_entries=8)
        try:
            for _ in range(60):
                for db, out in pairs[:4]:
                    memo.serve(db, out)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # after the dust settles, the file is readable and serves verified hits
    memo = MappingMemo(path)
    db, out = pairs[-1]
    served = memo.serve(db, out)
    assert served is not None and str(served[0]) == str(expression)


# -- store facade and engine wiring ------------------------------------------


def test_store_serves_verified_hit_bit_identically(tmp_path):
    source, target = _pair(3)
    cold = _discover(source, target, store=tmp_path / "store")
    warm = _discover(source, target, store=tmp_path / "store")
    assert not cold.served_from_store
    assert warm.served_from_store
    assert warm.states_examined == 0
    assert str(warm.expression) == str(cold.expression)
    # a served expression verifies against the live pair by construction
    assert (
        warm.expression.apply(source, builtin_registry()).contains(target)
    )


def test_served_request_clock_covers_the_store_lookup(tmp_path):
    source, target = _pair(3)
    _discover(source, target, store=tmp_path / "store")
    sink = MemorySink()
    served = _discover(source, target, store=tmp_path / "store", tracer=Tracer(sink))
    assert served.served_from_store
    (lookup,) = [
        e
        for e in sink.events
        if e["event"] == "span_end" and e["name"] == "store_lookup"
    ]
    assert served.stats.elapsed >= lookup["dur"]


def test_store_info_and_gc(tmp_path):
    source, target = _pair(2)
    store = WarmStartStore(tmp_path / "store")
    _discover(source, target, store=store)
    info = store.info()
    assert info["memo"]["entries"] == 1
    assert store.gc()["memo"]["kept"] == 1
    assert store.info()["memo"]["entries"] == 1


def test_store_directory_holds_only_the_memo(tmp_path):
    source, target = _pair(2)
    store_dir = tmp_path / "store"
    _discover(source, target, store=store_dir)
    _discover(source, target, store=store_dir)
    assert sorted(p.name for p in store_dir.iterdir()) == ["memo.jsonl"]


def test_leftover_files_in_store_directory_are_ignored(tmp_path):
    # a directory written by an older layout (e.g. a warm/ subdirectory)
    # neither breaks serving nor changes a cold search
    source, target = _pair(2)
    store_dir = tmp_path / "store"
    (store_dir / "warm").mkdir(parents=True)
    (store_dir / "warm" / "stale.json").write_text("{not json")
    cold = _discover(source, target)
    miss = _discover(source, target, store=store_dir)
    hit = _discover(source, target, store=store_dir)
    assert not miss.served_from_store and hit.served_from_store
    assert miss.states_examined == cold.states_examined
    assert str(hit.expression) == str(miss.expression) == str(cold.expression)


def test_cli_store_info_and_gc(tmp_path, capsys):
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    source, target = _pair(2)
    _discover(source, target, store=store_dir)
    assert main(["store", "info", "--path", store_dir]) == 0
    out = capsys.readouterr().out
    assert "memo: 1 entr(ies)" in out
    assert main(["store", "gc", "--path", store_dir]) == 0
    assert "kept" in capsys.readouterr().out
