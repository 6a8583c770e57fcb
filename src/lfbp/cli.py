"""Scenario files, experiment orchestration, and CSV emission.

Scenario files are versioned JSON documents (conventionally ``.scn``):

    {
      "version": 1,
      "name": "sixnode-fixed",
      "description": "...",
      "nodes": [0, 1, 2],
      "edges": [[0, 1, 15], [1, 2, "5/2"]],
      "commodities": [{"id": 0, "source": 0, "dest": 2,
                       "rate": 15.0, "dummy_packets": 0}],
      "initial_dag": "by_id" | "optimal" | [[tail, head], ...],
      "lfbp": {"thresholds": [60], "periods": [150, 50]},
      "topology": {"fail_prob": 1e-4, "recover_prob": 1e-3} | null,
      "dummy_scale": null | 500,
      "load_factors": [0.5],
      "horizon": 200000,
      "seeds": [1]
    }

``load_scenario`` reads a file, or else the bundled scenario of that name.
Each object accepts only the fields shown, each once.  Capacities and lfbp
thresholds may be integers or fraction strings; every other number must be a
JSON number, and ``horizon`` at least 1.  A load factor or a seed given twice
is rejected, as it would run cells twice.  ``initial_dag`` is built at load;
any other value is rejected with ``expected 'by_id', 'optimal' or pair list``.
``dummy_scale`` S adds floor(S / rho) startup packets to each commodity
source, lfbp runs only.  Every load factor gets ``lfbp run --rho``'s checks,
named ``load_factors[i]``: rate x load at most 700, and S / load and the
startup packets summed over the commodities within the float range.

Summary CSV columns (one row per run):
    scenario,policy,rho,seed,horizon,arrivals,delivered,delivered_net,
    avg_backlog,avg_backlog_net,final_backlog,reversal_events,
    edges_reversed,topo_events,live_fraction
Bucketed trace CSV columns (optional, one row per slot bucket, the last
ending at the horizon):
    seed,slot_bucket,policy,load,total_backlog_avg,delivered,reversals,live_edges
The ``csv`` module writes every row, a float as its ``repr``; ``lfbp run``
prints its summary row the same way.
Reversal event CSV columns (whenever a run used lfbp, one row per marked epoch):
    rho,seed,slot,commodity,edges_reversed,marked
Every row carries the seed needed to reproduce it exactly.  An ``--out`` that
is a directory or lies in a missing directory is rejected before any work
runs; a file that still cannot be written is reported as an ``--out`` error.

Importing ``lfbp`` or this module loads neither ``concurrent.futures`` (and
the ``logging`` it imports) nor a process pool: only ``sweep`` with ``jobs``
above 1 (``lfbp sweep --jobs N``, N > 1) imports that package and starts its
``ProcessPoolExecutor``.  Nor do that import and a scenario load import three
more standard modules: ``main`` imports ``argparse`` (with its ``gettext``), a
verb that writes a row imports ``csv`` (``_write_csv``, and ``lfbp run`` for
its stdout row), and ``graph.orient_explicit`` imports ``graphlib``, so only a
scenario whose ``initial_dag`` is a pair list loads it.
"""
from __future__ import annotations

import json
import random
import sys
from importlib import resources
from pathlib import Path

from .graph import (
    InvariantViolation,
    Network,
    SamplingError,
    Value,
    as_rational,
    erdos_renyi_network,
    orient_by_ranking,
)
from .flow import max_flow_undirected
from .protocol import LfbpParams
from .reversal import converge, default_max_iters
from .sim import (
    SUMMARY_FIELDS,
    CommoditySpec,
    MetricsReport,
    TopologyProcess,
    check_load,
    initial_orientation,
    run,
    startup_packets,
)

SCHEMA_VERSION = 1

# The columns of the trace and reversal event CSVs.
BUCKET_FIELDS = ["seed", "slot_bucket", "policy", "load", "total_backlog_avg", "delivered", "reversals", "live_edges"]
REVERSAL_FIELDS = ["rho", "seed", "slot", "commodity", "edges_reversed", "marked"]


class ValidationError(ValueError):
    """A scenario file or a command-line value failed validation; the message
    names the field or the flag."""


class ScenarioConfig(Value):
    """A loaded scenario; ``initial_dag`` is "by_id", "optimal" or a tuple of
    (tail, head) pairs."""

    __slots__ = ("name", "network", "commodities", "initial_dag", "lfbp_params", "topology", "load_factors",
                 "horizon", "seeds", "dummy_scale", "description")

    def __init__(self, name: str, network: Network, commodities: tuple[CommoditySpec, ...], initial_dag: object,
                 lfbp_params: LfbpParams | None, topology: TopologyProcess | None, load_factors: tuple[float, ...],
                 horizon: int, seeds: tuple[int, ...], dummy_scale: float | None = None, description: str = ""):
        self._set(name, network, commodities, initial_dag, lfbp_params, topology, load_factors, horizon, seeds,
                  dummy_scale, description)


# What converting a rational may raise: a wrong type, a malformed string or
# NaN, an infinite float, and a fraction string with a zero denominator.
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError, ZeroDivisionError)
_REQUIRED = object()
_GIVEN_TWICE = Ellipsis  # the JSON hook's value for a repeated key, which no JSON value is
_SCENARIO_FIELDS = ("version", "name", "description", "nodes", "edges", "commodities", "initial_dag", "lfbp",
                    "topology", "dummy_scale", "load_factors", "horizon", "seeds")


def _kind(value, where: str, kind, name: str):
    """``value`` if it is of JSON kind ``kind`` (a bool never is), else an
    error naming ``where``."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"{where}: expected {name}, got {type(value).__name__}")
    return value


def _int(value, where: str) -> int:
    return _kind(value, where, int, "an integer")


def _number(value, where: str) -> float:
    try:
        return float(_kind(value, where, (int, float), "a number"))
    except OverflowError as exc:  # an integer beyond the float range
        raise ValidationError(f"{where}: {exc}") from exc


def _str(value, where: str) -> str:
    return _kind(value, where, str, "a string")


def _list(value, where: str) -> list:
    return _kind(value, where, list, "a list")


def _object(value, where: str, fields) -> dict:
    """``value`` if it is an object whose keys are in ``fields``, each once."""
    for key, item in _kind(value, where, dict, "an object").items():
        if item is _GIVEN_TWICE:
            raise ValidationError(f"{where}: field {key!r} given twice")
        if key not in fields:
            raise ValidationError(f"{where}.{key}: unknown field")
    return value


def _rational(value, where: str):
    """An integer, a float or a fraction string such as ``"3/4"``, exact."""
    try:
        return as_rational(value)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _items(read):
    """A reader of a list whose element ``i`` ``read`` reads at ``where[i]``."""
    return lambda value, where: [read(item, f"{where}[{pos}]") for pos, item in enumerate(_list(value, where))]


def _get(data: dict, key: str, where: str, read, default=_REQUIRED):
    """Field ``key`` of ``data`` as ``read`` reads it at ``where.key``;
    ``default`` when the field is absent and a default is given."""
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing field {key!r}")
        return default
    return read(data[key], f"{where}.{key}")


def _build(where: str, make, *args):
    """``make(*args)``, with its ``ValueError`` reported at ``where``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _check_load(commodities, dummy_scale, rho: float, where: str) -> None:
    """The engine's checks of load ``rho`` and its startup packets, reported at ``where``."""
    _build(where, check_load, commodities, rho)
    _build(where, startup_packets, commodities, dummy_scale, rho)


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    _object(data, where, _SCENARIO_FIELDS)
    version = _get(data, "version", where, _int)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"{where}.version: unsupported schema version {version}")
    name = _get(data, "name", where, _str)
    nodes = _get(data, "nodes", where, _items(_int))
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValidationError(f"{where}.nodes: node IDs must be unique")

    def node(value, field: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value not in node_set:
            raise ValidationError(f"{field}: {value!r} is not one of the nodes")
        return value

    def edge(item, ewhere: str):
        if not isinstance(item, list) or len(item) != 3:
            raise ValidationError(f"{ewhere}: expected [i, j, capacity]")
        return node(item[0], ewhere), node(item[1], ewhere), _rational(item[2], f"{ewhere}.capacity")

    ids = set()

    def commodity(item, cwhere: str) -> CommoditySpec:
        _object(item, cwhere, ("id", "source", "dest", "rate", "dummy_packets"))
        cid = _get(item, "id", cwhere, _int)
        if cid in ids:
            raise ValidationError(f"{cwhere}.id: duplicate commodity id {cid}")
        ids.add(cid)
        rate = _get(item, "rate", cwhere, _number)
        dummy_packets = _get(item, "dummy_packets", cwhere, _int, 0)
        source = node(_get(item, "source", cwhere, _int), f"{cwhere}.source")
        dest = node(_get(item, "dest", cwhere, _int), f"{cwhere}.dest")
        return _build(cwhere, CommoditySpec, cid, source, dest, rate, dummy_packets)

    edges = _get(data, "edges", where, _items(edge))
    commodities = _get(data, "commodities", where, _items(commodity))
    if not commodities:
        raise ValidationError(f"{where}.commodities: at least one commodity required")
    network = _build(f"{where}.edges", Network.build, nodes, edges, commodities[0].source, commodities[0].dest)

    def pair(item, pwhere: str):
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(f"{pwhere}: expected [tail, head]")
        return node(item[0], pwhere), node(item[1], pwhere)

    initial = data.get("initial_dag", "by_id")
    if isinstance(initial, list):
        initial = tuple(_items(pair)(initial, f"{where}.initial_dag"))
    _build(f"{where}.initial_dag", initial_orientation, network, initial)

    lfbp_params = None
    raw = data.get("lfbp")
    if raw is not None:
        lwhere = f"{where}.lfbp"
        _object(raw, lwhere, ("thresholds", "periods"))
        thresholds = _get(raw, "thresholds", lwhere, _items(_rational), [60])
        periods = _get(raw, "periods", lwhere, _items(_int), [50])
        lfbp_params = _build(lwhere, LfbpParams, tuple(thresholds), tuple(periods))

    topology = None
    raw = data.get("topology")
    if raw is not None:
        twhere = f"{where}.topology"
        _object(raw, twhere, ("fail_prob", "recover_prob"))
        fail_prob = _get(raw, "fail_prob", twhere, _number)
        topology = _build(twhere, TopologyProcess, fail_prob, _get(raw, "recover_prob", twhere, _number))

    dummy_scale = data.get("dummy_scale")
    if dummy_scale is not None:
        dummy_scale = _number(dummy_scale, f"{where}.dummy_scale")
        _build(f"{where}.dummy_scale", startup_packets, (), dummy_scale, 1.0)  # the rule on S alone
    load_factors = tuple(_get(data, "load_factors", where, _items(_number)))
    if not load_factors:
        raise ValidationError(f"{where}.load_factors: at least one load factor required")
    if len(set(load_factors)) < len(load_factors):
        raise ValidationError(f"{where}.load_factors: each load factor may be given once, got {list(load_factors)}")
    for pos, rho in enumerate(load_factors):
        _check_load(commodities, dummy_scale, rho, f"{where}.load_factors[{pos}]")
    horizon = _get(data, "horizon", where, _int)
    if horizon < 1:
        raise ValidationError(f"{where}.horizon: must be at least 1")
    seeds = tuple(_get(data, "seeds", where, _items(_int)))
    if not seeds:
        raise ValidationError(f"{where}.seeds: at least one seed required")
    if len(set(seeds)) < len(seeds):
        raise ValidationError(f"{where}.seeds: each seed may be given once, got {list(seeds)}")

    return ScenarioConfig(
        name=name,
        network=network,
        commodities=tuple(commodities),
        initial_dag=initial,
        lfbp_params=lfbp_params,
        topology=topology,
        load_factors=load_factors,
        horizon=horizon,
        seeds=seeds,
        dummy_scale=dummy_scale,
        description=_get(data, "description", where, _str, ""),
    )


def load_scenario(path) -> ScenarioConfig:
    """The scenario in the file at ``path``, or else the bundled scenario of
    that name (``sixnode_fixed.scn``).  Every error in a file found names it
    by its base name, as in ``bad.scn: invalid JSON: ...``."""
    found = Path(path)
    if not found.exists():
        found = resources.files("lfbp").joinpath("scenarios", str(path))
        if not found.is_file():
            raise ValidationError(f"scenario not found (no file or bundled name): {path}")

    def mark_repeats(pairs) -> dict:
        data = {}
        for key, value in pairs:
            data[key] = _GIVEN_TWICE if key in data else value
        return data

    try:
        data = json.loads(found.read_text(encoding="utf-8"), object_pairs_hook=mark_repeats)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{found.name}: invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{found.name}: cannot read: {exc}") from exc
    return scenario_from_dict(data, where=found.name)


def _run_cell(args):
    config, policy, rho, seed, horizon, bucket = args
    return run(config, policy, horizon, rho=rho, seed=seed, bucket=bucket)


def sweep(
    config: ScenarioConfig,
    policies=("bp", "lfbp"),
    out_path=None,
    *,
    jobs: int = 1,
    horizon: int | None = None,
    bucket: int = 0,
) -> list[MetricsReport]:
    """Run every (load, policy, seed) cell and emit one summary row per run.

    Cells execute independently (optionally in a worker pool); results are
    merged in deterministic key order regardless of completion order.
    """
    cells = [
        (config, policy, rho, seed, horizon, bucket)
        for rho in config.load_factors
        for policy in policies
        for seed in config.seeds
    ]
    # The pool starts all its workers at once, so never more than the cells.
    workers = min(jobs, len(cells))
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_cell, cells))
    else:
        reports = [_run_cell(cell) for cell in cells]
    reports.sort(key=lambda r: (r.rho, r.policy, r.seed))
    if out_path is not None:
        for path, write in _out_files(out_path, bucket, "lfbp" in policies):
            write(reports, path)
    return reports


def _out_files(out, bucket: int, lfbp: bool):
    """Each file a run's ``--out`` names, with its writer: the summary CSV at
    ``out``, then beside it ``.trace.csv`` when ``bucket`` is above 0 and
    ``.reversals.csv`` when a run uses lfbp."""
    yield out, write_summary_csv
    if bucket:
        yield str(Path(out).with_suffix(".trace.csv")), write_trace_csv
    if lfbp:
        yield str(Path(out).with_suffix(".reversals.csv")), write_reversal_events_csv


def _write_csv(path, fields, rows) -> None:
    """One CSV file: a header of ``fields``, then one line per row dict.  A
    file that cannot be written is reported as an ``--out`` error."""
    import csv

    try:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise ValidationError(f"--out: {exc}") from exc


def write_summary_csv(reports, path) -> None:
    _write_csv(path, SUMMARY_FIELDS, (report.to_row() for report in reports))


def write_trace_csv(reports, path) -> None:
    """One row per slot bucket of each report."""
    rows = (
        dict(zip(BUCKET_FIELDS, (report.seed, slot, report.policy, report.rho, avg, got, flips, live)))
        for report in reports
        for slot, avg, got, flips, live in report.buckets
    )
    _write_csv(path, BUCKET_FIELDS, rows)


def write_reversal_events_csv(reports, path) -> None:
    """One row per epoch with marks: which nodes were flagged, how many links flipped."""
    _write_csv(
        path,
        REVERSAL_FIELDS,
        (
            {
                "rho": report.rho,
                "seed": report.seed,
                "slot": slot,
                "commodity": commodity,
                "edges_reversed": flips,
                "marked": ";".join(str(n) for n in marked),
            }
            for report in reports
            for slot, commodity, flips, marked in report.reversal_log
        ),
    )


def er_batch(
    samples: int,
    n_range: tuple[int, int] = (10, 50),
    p: float = 0.5,
    cap_range: tuple[int, int] = (1, 10),
    seed=0,
    out_path=None,
) -> dict:
    """Convergence statistics over random graphs: sample connected graphs with
    uniform integer capacities, start from a random orientation, and converge
    at the network max-flow rate.  Every sample is checked against the
    iteration bound: ``converge`` raises ``InvariantViolation`` past it."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(f"{seed}|er-batch")
    rows = []
    for k in range(samples):
        n = rng.randint(*n_range)
        net = erdos_renyi_network(n, p, rng, cap_low=cap_range[0], cap_high=cap_range[1])
        ranking = list(sorted(net.nodes))
        rng.shuffle(ranking)
        dag0 = orient_by_ranking(net, {node: pos for node, pos in zip(sorted(net.nodes), ranking)})
        fmax = max_flow_undirected(net)
        bound = default_max_iters(dag0, fmax)
        iters = converge(dag0, fmax, max_iters=bound).iterations
        rows.append(dict(sample=k, n=n, edges=len(net.capacity), fmax=str(fmax), iterations=iters, bound=bound))
    iterations = [row["iterations"] for row in rows]
    stats = {
        "samples": samples,
        "mean_iterations": sum(iterations) / samples,
        "max_iterations": max(iterations),
        "rows": rows,
    }
    if out_path is not None:
        _write_csv(out_path, list(rows[0]), rows)
    return stats


def _load_arg_scenario(value: str) -> ScenarioConfig:
    """A scenario the CLI can simulate: the schema's checks, and integer
    capacities, which the slot engine needs (the analysis modules do not)."""
    config, where = load_scenario(value), Path(value).name
    for pos, cap in enumerate(config.network.capacity.values()):
        if type(cap) is not int:
            raise ValidationError(f"{where}.edges[{pos}].capacity: the simulator requires an integer, got {cap}")
    return config


# The least value each numeric flag accepts; a flag the verb lacks is skipped.
_ARG_MINIMUMS = (("horizon", 1), ("trace_bucket", 0), ("jobs", 1), ("samples", 1), ("n_min", 2), ("cap_min", 1))


def _check_args(args) -> None:
    """Reject a nonsensical number on the command line, naming its flag."""

    def reject(name, rule, value):
        raise ValidationError(f"--{name.replace('_', '-')}: must be {rule}, got {value}")

    for name, low in _ARG_MINIMUMS:
        value = getattr(args, name, None)
        if value is not None and value < low:
            reject(name, f"at least {low}", value)
    for low, high in (("n_min", "n_max"), ("cap_min", "cap_max")):
        if hasattr(args, high) and getattr(args, high) < getattr(args, low):
            reject(high, f"at least --{low.replace('_', '-')} ({getattr(args, low)})", getattr(args, high))
    p = getattr(args, "p", None)
    if p is not None and not 0 < p <= 1:
        reject("p", "a finite number in (0, 1]", p)
    # sweep's --policy repeats; a policy named twice would run each cell twice.
    if args.command == "sweep" and args.policy and len(set(args.policy)) < len(args.policy):
        raise ValidationError(f"--policy: each policy may be given once, got {' '.join(args.policy)}")
    # Every file --out writes is in an existing directory, checked before any
    # work; only run's --out may be empty, and then it writes nothing.
    out = getattr(args, "out", None)
    if out is not None and (out or args.command != "run"):
        policies = (args.policy or ["lfbp"]) if args.command == "sweep" else [getattr(args, "policy", None)]
        for path, _ in _out_files(out, getattr(args, "trace_bucket", 0), "lfbp" in policies):
            if Path(path).is_dir() or not Path(path).parent.is_dir():
                raise ValidationError(f"--out: {path!r} is not a file in an existing directory")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="lfbp",
        description="Loop-free backpressure experiments: single runs, sweeps, and random-graph convergence batches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario cell")
    p_run.add_argument("--scenario", required=True, help="scenario file or bundled name")
    p_run.add_argument("--policy", choices=("bp", "lfbp"), default="lfbp")
    p_run.add_argument("--horizon", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--rho", type=float, default=None)
    p_run.add_argument("--out", default=None, help="summary CSV path")
    p_run.add_argument("--trace-bucket", type=int, default=0, help="bucket size for per-slot trace rows")

    p_sweep = sub.add_parser("sweep", help="paired policy sweep over load factors and seeds")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--policy", action="append", choices=("bp", "lfbp"), default=None)
    p_sweep.add_argument("--horizon", type=int, default=None)
    p_sweep.add_argument("--out", required=True, help="summary CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--trace-bucket", type=int, default=0)

    p_er = sub.add_parser("er-batch", help="random-graph convergence statistics")
    p_er.add_argument("--samples", type=int, default=1000)
    p_er.add_argument("--n-min", type=int, default=10)
    p_er.add_argument("--n-max", type=int, default=50)
    p_er.add_argument("--p", type=float, default=0.5)
    p_er.add_argument("--cap-min", type=int, default=1)
    p_er.add_argument("--cap-max", type=int, default=10)
    p_er.add_argument("--seed", type=int, default=0)
    p_er.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="schema-check a scenario file")
    p_val.add_argument("--scenario", required=True)

    args = parser.parse_args(argv)
    try:
        _check_args(args)
        if args.command == "run":
            config = _load_arg_scenario(args.scenario)
            rho = config.load_factors[0] if args.rho is None else args.rho
            seed = config.seeds[0] if args.seed is None else args.seed
            _check_load(config.commodities, config.dummy_scale, rho, "--rho")
            cell = config.replace(load_factors=(rho,), seeds=(seed,))
            [report] = sweep(cell, (args.policy,), args.out or None, horizon=args.horizon, bucket=args.trace_bucket)
            import csv

            csv.DictWriter(sys.stdout, SUMMARY_FIELDS, lineterminator="\n").writerow(report.to_row())
        elif args.command == "sweep":
            config = _load_arg_scenario(args.scenario)
            policies = tuple(args.policy) if args.policy else ("bp", "lfbp")
            reports = sweep(
                config,
                policies,
                args.out,
                jobs=args.jobs,
                horizon=args.horizon,
                bucket=args.trace_bucket,
            )
            print(f"wrote {len(reports)} summary rows to {args.out}")
        elif args.command == "er-batch":
            try:
                stats = er_batch(
                    args.samples,
                    (args.n_min, args.n_max),
                    args.p,
                    (args.cap_min, args.cap_max),
                    seed=args.seed,
                    out_path=args.out,
                )
            except SamplingError as exc:  # whether p is too small depends on n
                raise ValidationError(f"--p: too small, {exc}") from exc
            print(
                f"samples={stats['samples']} mean_iterations={stats['mean_iterations']:.3f} "
                f"max_iterations={stats['max_iterations']}"
            )
        elif args.command == "validate":
            config = _load_arg_scenario(args.scenario)
            print(f"ok: {config.name} ({len(config.network.nodes)} nodes, {len(config.network.capacity)} edges)")
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
