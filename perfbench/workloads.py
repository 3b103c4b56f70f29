"""Paper workloads for the ledger benchmark, generated from a seed.

Each workload is a fixed mix of discovery tasks drawn from the paper's
evaluation (Fig. 1 flights, Fig. 5/6 synthetic matching, Fig. 7/8 BAMM,
Fig. 9 complex semantic mappings).  The seed changes the critical-instance
*values* (where renaming a value cannot change which operators the search
proposes), the order tasks run in, and the larger instances each discovered
mapping is executed on.  Task shapes never depend on the seed, so the work
a run measures is the same for every seed and the run-to-run spread is
measurement noise, not a different workload.

This module imports ``repro`` and must only be imported after ``src`` is on
``sys.path``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro import Database, Relation
from repro.semantics import builtin_registry
from repro.workloads import (
    bamm_domain,
    inventory_domain,
    real_estate_domain,
    source_attribute,
    target_attribute,
    total_cost_correspondence,
)
from repro.workloads.bamm import domain_concepts

#: BAMM corpus seed used by the paper reproduction; fixed so that interface
#: shapes (and so search effort) do not vary with the benchmark seed
BAMM_CORPUS_SEED = 2006

#: rows in the instances discovered mappings are executed on
EXEC_ROWS = 200


@dataclass
class Task:
    """One discovery request plus the instance its mapping is executed on."""

    label: str
    source: Database
    target: Database
    algorithm: str
    heuristic: str
    exec_source: Database
    correspondences: tuple = ()
    registry: object = None
    #: text of the mapping the paper expects, when it is known exactly
    expected: str | None = None


@dataclass
class CliTask:
    """One ``python -m repro discover`` invocation over CSV instances."""

    source: Database
    target: Database
    args: list[str] = field(default_factory=list)


@dataclass
class Workload:
    tasks: list[Task]
    cli: CliTask
    #: serve requests through a warm-start store (in-process and CLI alike)
    uses_store: bool = False
    #: back-to-back requests per task in an untraced round, timed together;
    #: more than one only where a single request is too short to time alone
    repeats: int = 1


class Tokens:
    """Distinct lower-case value tokens; never equal to a schema name."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self) -> str:
        while True:
            token = "v" + "".join(self.rng.choices(string.ascii_lowercase, k=7))
            if token not in self.used:
                self.used.add(token)
                return token


def _rows(rng: random.Random, width: int, count: int = EXEC_ROWS) -> list[list[str]]:
    tokens = Tokens(rng)
    return [[tokens() for _ in range(width)] for _ in range(count)]


# -- Fig. 5 / Fig. 6: synthetic schema matching ------------------------------


def synthetic_task(
    n: int, algorithm: str, heuristic: str, rng: random.Random, exec_rows: int = EXEC_ROWS
) -> Task:
    """The size-*n* matching pair ``A01..An -> B01..Bn`` with seeded values."""
    tokens = Tokens(rng)
    values = [tokens() for _ in range(n)]
    source_attrs = [source_attribute(i) for i in range(1, n + 1)]
    target_attrs = [target_attribute(i) for i in range(1, n + 1)]
    expected = "\n".join(
        f"rename_att[R]({a} -> {b})" for a, b in sorted(zip(source_attrs, target_attrs))
    )
    return Task(
        label=f"synthetic n={n} {algorithm}/{heuristic}",
        source=Database.single(Relation("R", source_attrs, [values])),
        target=Database.single(Relation("R", target_attrs, [values])),
        algorithm=algorithm,
        heuristic=heuristic,
        exec_source=Database.single(Relation("R", source_attrs, _rows(rng, n, exec_rows))),
        expected=expected,
    )


def fig5_ida(rng: random.Random) -> Workload:
    # Few, long searches: larger execution instances keep the execute
    # timing from being a handful of sub-millisecond samples.
    tasks = [synthetic_task(n, "ida", "h0", rng, 5 * EXEC_ROWS) for n in (4, 5, 6)]
    cli = synthetic_task(5, "ida", "h0", rng)
    return Workload(tasks, CliTask(cli.source, cli.target, ["--algorithm", "ida", "--heuristic", "h0"]))


# -- Fig. 1: flights data-metadata restructuring ------------------------------


def _distinct_ints(rng: random.Random, count: int, low: int, high: int, avoid: set[int]) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        value = rng.randint(low, high)
        if value not in avoid:
            avoid.add(value)
            out.append(value)
    return out


def _flights_prices(rng: random.Random) -> tuple[dict, dict]:
    """Seeded costs per (carrier, route) and fees per carrier.

    Every cost, fee and total is a distinct number, as in Fig. 1, so the
    search sees the same equalities between cells for every seed.
    """
    carriers, routes = ("AirEast", "JetWest"), ("ATL29", "ORD17")
    while True:
        used: set[int] = set()
        costs = _distinct_ints(rng, 4, 100, 999, used)
        fees = _distinct_ints(rng, 2, 10, 99, used)
        totals = {c + fees[i // 2] for i, c in enumerate(costs)}
        if len(totals) == 4 and not totals & used:
            break
    cost = {(carrier, route): costs[2 * i + j] for i, carrier in enumerate(carriers) for j, route in enumerate(routes)}
    fee = dict(zip(carriers, fees))
    return cost, fee


def _flights_instances(rng: random.Random) -> tuple[Database, Database, Database]:
    cost, fee = _flights_prices(rng)
    b = Database.from_dict(
        {
            "Prices": [
                {"Carrier": c, "Route": r, "Cost": cost[c, r], "AgentFee": fee[c]}
                for (c, r) in sorted(cost, key=lambda key: (key[1], key[0]))
            ]
        }
    )
    a = Database.from_dict(
        {
            "Flights": [
                {"Carrier": c, "Fee": fee[c], "ATL29": cost[c, "ATL29"], "ORD17": cost[c, "ORD17"]}
                for c in fee
            ]
        }
    )
    c_db = Database.from_dict(
        {
            carrier: [
                {"Route": r, "BaseCost": cost[carrier, r], "TotalCost": cost[carrier, r] + fee[carrier]}
                for r in ("ATL29", "ORD17")
            ]
            for carrier in fee
        }
    )
    return a, b, c_db


def _flights_exec_source(rng: random.Random) -> Database:
    """A FlightsB instance with every (carrier, route) pair priced."""
    letters = string.ascii_uppercase
    carriers = ["AirEast", "JetWest"] + [
        "Air" + "".join(rng.choices(letters, k=5)).capitalize() for _ in range(18)
    ]
    carriers = list(dict.fromkeys(carriers))
    routes = ["ATL29", "ORD17"] + [
        "".join(rng.choices(letters, k=3)) + f"{rng.randint(10, 99)}" for _ in range(8)
    ]
    routes = list(dict.fromkeys(routes))
    rows = []
    for carrier in carriers:
        agent_fee = rng.randint(10, 99)
        for route in routes:
            rows.append(
                {"Carrier": carrier, "Route": route, "Cost": rng.randint(100, 999), "AgentFee": agent_fee}
            )
    return Database.from_dict({"Prices": rows})


def fig1_flights(rng: random.Random) -> Workload:
    a, b, c_db = _flights_instances(rng)
    exec_b = _flights_exec_source(rng)
    registry = builtin_registry()
    total = (total_cost_correspondence(),)
    tasks = [
        Task(f"flights B->A {alg}/{h}", b, a, alg, h, exec_b)
        for alg, h in (("rbfs", "euclid_norm"), ("rbfs", "cosine"), ("ida", "cosine"), ("ida", "euclid_norm"))
    ] + [
        # RBFS only: IDA* finds B->C mappings that partition a relation into
        # one of its own name, which the sqlite backend cannot execute.
        Task(f"flights B->C {alg}/{h}", b, c_db, alg, h, exec_b, total, registry)
        for alg, h in (("rbfs", "h1"), ("rbfs", "h3"), ("rbfs", "euclid_norm"), ("rbfs", "cosine"))
    ]
    return Workload(tasks, CliTask(b, a, ["--algorithm", "rbfs", "--heuristic", "euclid_norm"]))


# -- Fig. 7/8: BAMM deep-web query interfaces ---------------------------------


def _relabel(db: Database, mapping: dict) -> Database:
    return Database(
        Relation(rel.name, rel.attributes, [[mapping.get(v, v) for v in row] for row in rel.sorted_rows()])
        for rel in db
    )


def bamm_books_tasks(rng: random.Random) -> list[Task]:
    """Every Books interface of the paper's BAMM corpus, values seeded."""
    domain = bamm_domain("Books", seed=BAMM_CORPUS_SEED)
    tokens = Tokens(rng)
    values = {concept.value: tokens() for concept in domain_concepts("Books")}
    attrs = list(domain.source.relations[0].attributes)
    exec_source = Database.single(Relation("Books", attrs, _rows(rng, len(attrs))))
    source = _relabel(domain.source, values)
    return [
        Task(
            f"bamm Books Q{task.interface_id:02d} rbfs/euclid_norm",
            source,
            _relabel(task.target, values),
            "rbfs",
            "euclid_norm",
            exec_source,
        )
        for task in domain.tasks
    ]


# -- Fig. 9: complex semantic mappings ----------------------------------------


def _semantic_exec_source(name: str, rng: random.Random, source: Database) -> Database:
    """Rows with values every Fig. 9 function accepts, drawn from the seed."""
    sample_row = next(source.relations[0].iter_dicts())
    rows = []
    for i in range(EXEC_ROWS):
        row = {}
        for attr, sample in sample_row.items():
            if attr in ("ListedDate", "ListDate"):
                row[attr] = f"{rng.randint(1, 12)}/{rng.randint(1, 28)}/{rng.randint(1990, 2020)}"
            elif isinstance(sample, float):
                row[attr] = round(rng.uniform(0.01, 500.0), 2)
            elif isinstance(sample, int):
                row[attr] = rng.randint(1, 100_000)
            else:
                row[attr] = f"{attr}{i:03d}" + "".join(rng.choices(string.ascii_lowercase, k=4))
        rows.append(row)
    return Database.from_dict({name: rows})


def informed(rng: random.Random) -> Workload:
    """Informed search: RBFS synthetic matching (Fig. 6), the BAMM Books
    interfaces (Fig. 7/8) and the complex semantic λ tasks (Fig. 9)."""
    tasks = [
        synthetic_task(n, "rbfs", heuristic, rng)
        for n in (8, 12)
        for heuristic in ("h1", "h3", "cosine", "euclid_norm")
    ]
    tasks += bamm_books_tasks(rng)
    cli = None
    for domain in (inventory_domain(), real_estate_domain()):
        exec_source = _semantic_exec_source(domain.target_relation, rng, domain.source)
        for n in (2, 4, 6, 8):
            task = domain.task(n)
            runs = [("ida", "h1"), ("rbfs", "h1")] + ([("ida", "h0")] if n <= 4 else [])
            for alg, h in runs:
                tasks.append(
                    Task(
                        f"{domain.name} n={n} {alg}/{h}",
                        task.source,
                        task.target,
                        alg,
                        h,
                        exec_source,
                        task.correspondences,
                        task.registry,
                    )
                )
            if domain.name == "Inventory" and n == 8:
                args = ["--algorithm", "ida", "--heuristic", "h1"]
                for corr in task.correspondences:
                    args += ["--correspondence", f"{corr.output}<-{corr.function}({','.join(corr.inputs)})"]
                cli = CliTask(task.source, task.target, args)
    return Workload(tasks, cli)


# -- warm-start store: repeated requests served from the mapping memo --------


def store_hit(rng: random.Random) -> Workload:
    fig5 = fig5_ida(rng).tasks
    flights = fig1_flights(rng).tasks[:2]
    cli = synthetic_task(5, "ida", "h0", rng)
    return Workload(
        fig5 + flights,
        CliTask(cli.source, cli.target, ["--algorithm", "ida", "--heuristic", "h0"]),
        uses_store=True,
        repeats=10,
    )


BUILDERS = {
    "fig5_ida": fig5_ida,
    "informed_mix": informed,
    "fig1_flights": fig1_flights,
    "store_hit": store_hit,
}


def build(name: str, seed: int) -> Workload:
    """The workload *name* with inputs drawn from *seed*; tasks shuffled."""
    rng = random.Random(f"{name}:{seed}")
    workload = BUILDERS[name](rng)
    rng.shuffle(workload.tasks)
    return workload
