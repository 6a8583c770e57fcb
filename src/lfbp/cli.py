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

Capacities may be integers or fraction strings.  ``dummy_scale`` S adds
floor(S / rho) startup packets to every commodity source, lfbp runs only.

Summary CSV columns (one row per run):
    scenario,policy,rho,seed,horizon,arrivals,delivered,delivered_net,
    avg_backlog,avg_backlog_net,final_backlog,reversal_events,
    edges_reversed,topo_events,live_fraction
Bucketed trace CSV columns (optional, one row per slot bucket):
    seed,slot_bucket,policy,load,total_backlog_avg,delivered,reversals,live_edges
Reversal event CSV columns (whenever a run used lfbp, one row per marked epoch):
    rho,seed,slot,commodity,edges_reversed,marked
Every row carries the seed needed to reproduce it exactly.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .graph import (
    InvariantViolation,
    Network,
    SamplingError,
    as_rational,
    erdos_renyi_network,
    orient_by_ranking,
)
from .flow import max_flow_undirected
from .protocol import LfbpParams
from .reversal import converge, default_max_iters
from .sim import (
    BUCKET_FIELDS,
    SUMMARY_FIELDS,
    CommoditySpec,
    MetricsReport,
    TopologyProcess,
    check_load,
    run,
)

SCHEMA_VERSION = 1


class ValidationError(ValueError):
    """A scenario file failed validation; the message names the field."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    network: Network
    commodities: tuple[CommoditySpec, ...]
    initial_dag: object  # "by_id" | "optimal" | tuple of (tail, head)
    lfbp_params: LfbpParams | None
    topology: TopologyProcess | None
    load_factors: tuple[float, ...]
    horizon: int
    seeds: tuple[int, ...]
    dummy_scale: float | None = None
    description: str = ""


# What converting a field's value may raise: a wrong type, a malformed string
# or NaN, an infinite float, and a fraction string with a zero denominator.
_CONVERSION_ERRORS = (TypeError, ValueError, OverflowError, ZeroDivisionError)
_REQUIRED = object()


def _field(data: dict, key: str, kind, where: str, default=_REQUIRED):
    if key not in data:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing field {key!r}")
        return default
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValidationError(f"{where}.{key}: expected {kind}, got {type(value).__name__}")
    return value


def _object(data: dict, key: str, where: str) -> dict | None:
    """An optional sub-object; None when absent or null."""
    value = data.get(key)
    if value is not None and not isinstance(value, dict):
        raise ValidationError(f"{where}.{key}: expected an object, got {type(value).__name__}")
    return value


def _int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"{where}: expected a number, got bool")
    try:
        return float(value)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _rational(value, where: str):
    try:
        return as_rational(value)
    except _CONVERSION_ERRORS as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict, where: str = "scenario") -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object, got {type(data).__name__}")
    version = _field(data, "version", int, where)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"{where}.version: unsupported schema version {version}")
    name = _field(data, "name", str, where)
    nodes = [_int(n, f"{where}.nodes[{pos}]") for pos, n in enumerate(_field(data, "nodes", list, where))]
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValidationError(f"{where}.nodes: node IDs must be unique")

    def node(value, field: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value not in node_set:
            raise ValidationError(f"{field}: {value!r} is not one of the nodes")
        return value

    edges = []
    for pos, item in enumerate(_field(data, "edges", list, where)):
        ewhere = f"{where}.edges[{pos}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ValidationError(f"{ewhere}: expected [i, j, capacity]")
        i, j, cap = item
        edges.append((node(i, ewhere), node(j, ewhere), _rational(cap, f"{ewhere}.capacity")))

    raw_commodities = _field(data, "commodities", list, where)
    if not raw_commodities:
        raise ValidationError(f"{where}.commodities: at least one commodity required")
    commodities = []
    for pos, item in enumerate(raw_commodities):
        cwhere = f"{where}.commodities[{pos}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{cwhere}: expected an object, got {type(item).__name__}")
        cid = _field(item, "id", int, cwhere)
        if any(c.id == cid for c in commodities):
            raise ValidationError(f"{cwhere}.id: duplicate commodity id {cid}")
        rate = _number(_field(item, "rate", (int, float), cwhere), f"{cwhere}.rate")
        if not math.isfinite(rate):
            raise ValidationError(f"{cwhere}.rate: must be finite, got {rate}")
        dummy_packets = _field(item, "dummy_packets", int, cwhere, 0)
        if dummy_packets < 0:
            raise ValidationError(f"{cwhere}.dummy_packets: must be nonnegative")
        try:
            commodities.append(
                CommoditySpec(
                    id=cid,
                    source=node(_field(item, "source", int, cwhere), f"{cwhere}.source"),
                    dest=node(_field(item, "dest", int, cwhere), f"{cwhere}.dest"),
                    rate=rate,
                    dummy_packets=dummy_packets,
                )
            )
        except ValueError as exc:
            raise ValidationError(f"{cwhere}: {exc}") from exc

    try:
        network = Network.build(nodes, edges, commodities[0].source, commodities[0].dest)
    except ValueError as exc:
        raise ValidationError(f"{where}.edges: {exc}") from exc

    initial = data.get("initial_dag", "by_id")
    if isinstance(initial, list):
        pairs = []
        for pos, pair in enumerate(initial):
            pwhere = f"{where}.initial_dag[{pos}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{pwhere}: expected [tail, head]")
            pairs.append((node(pair[0], pwhere), node(pair[1], pwhere)))
        from .graph import orient_explicit

        try:
            orient_explicit(network, pairs)  # acyclicity / coverage check
        except ValueError as exc:
            raise ValidationError(f"{where}.initial_dag: {exc}") from exc
        initial = tuple(pairs)
    elif initial not in ("by_id", "optimal"):
        raise ValidationError(f"{where}.initial_dag: expected 'by_id', 'optimal' or pair list")

    lfbp_params = None
    raw = _object(data, "lfbp", where)
    if raw is not None:
        lwhere = f"{where}.lfbp"
        thresholds = _field(raw, "thresholds", list, lwhere, [60])
        periods = _field(raw, "periods", list, lwhere, [50])
        if raw.get("delta") is not None:
            raise ValidationError(
                f"{lwhere}.delta: no longer used (orientations are a node order); remove it or set it to null"
            )
        # Accepted for older files and ignored: orientations need no rescaling.
        if _field(raw, "rescale_every", int, lwhere, 0) < 0:
            raise ValidationError(f"{lwhere}.rescale_every: must be nonnegative")
        try:
            lfbp_params = LfbpParams(
                thresholds=tuple(_rational(t, f"{lwhere}.thresholds[{pos}]") for pos, t in enumerate(thresholds)),
                periods=tuple(_int(p, f"{lwhere}.periods[{pos}]") for pos, p in enumerate(periods)),
            )
        except ValueError as exc:
            raise ValidationError(f"{lwhere}: {exc}") from exc

    topology = None
    raw = _object(data, "topology", where)
    if raw is not None:
        twhere = f"{where}.topology"
        try:
            topology = TopologyProcess(
                fail_prob=_number(_field(raw, "fail_prob", (int, float), twhere), f"{twhere}.fail_prob"),
                recover_prob=_number(_field(raw, "recover_prob", (int, float), twhere), f"{twhere}.recover_prob"),
            )
        except ValueError as exc:
            raise ValidationError(f"{twhere}: {exc}") from exc

    load_factors = tuple(
        _number(r, f"{where}.load_factors[{pos}]") for pos, r in enumerate(_field(data, "load_factors", list, where))
    )
    if not load_factors or not all(math.isfinite(r) and r > 0 for r in load_factors):
        raise ValidationError(f"{where}.load_factors: all load factors must be finite and > 0")
    for pos, c in enumerate(commodities):
        try:
            check_load([c], max(load_factors))
        except ValueError as exc:
            raise ValidationError(f"{where}.commodities[{pos}].rate: {exc} at the largest of load_factors") from exc
    horizon = _field(data, "horizon", int, where)
    if horizon < 0:
        raise ValidationError(f"{where}.horizon: must be nonnegative")
    seeds = tuple(_int(s, f"{where}.seeds[{pos}]") for pos, s in enumerate(_field(data, "seeds", list, where)))
    if not seeds:
        raise ValidationError(f"{where}.seeds: at least one seed required")
    dummy_scale = data.get("dummy_scale")
    if dummy_scale is not None:
        dummy_scale = _number(dummy_scale, f"{where}.dummy_scale")
        if not (math.isfinite(dummy_scale) and dummy_scale >= 0):
            raise ValidationError(f"{where}.dummy_scale: must be finite and nonnegative")

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
        description=str(data.get("description", "")),
    )


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, where=path.name)


def bundled_scenario(name: str) -> ScenarioConfig:
    """Load one of the scenarios shipped with the package."""
    ref = resources.files("lfbp").joinpath("scenarios", name)
    if not ref.is_file():
        raise ValidationError(f"no bundled scenario named {name!r}")
    return scenario_from_dict(json.loads(ref.read_text()), where=name)


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_cell, cells))
    else:
        reports = [_run_cell(cell) for cell in cells]
    reports.sort(key=lambda r: (r.rho, r.policy, r.seed))
    if out_path is not None:
        write_run_csvs(reports, out_path, bucket)
    return reports


def write_run_csvs(reports, out_path, bucket: int) -> None:
    """The summary CSV at ``out_path`` and beside it ``.trace.csv`` when
    ``bucket`` is above 0 and ``.reversals.csv`` when any report ran lfbp."""
    write_summary_csv(reports, out_path)
    if bucket:
        write_trace_csv(reports, Path(out_path).with_suffix(".trace.csv"))
    if any(report.policy == "lfbp" for report in reports):
        write_reversal_events_csv(reports, Path(out_path).with_suffix(".reversals.csv"))


def _write_csv(path, fields, rows) -> None:
    """One CSV file: a header of ``fields``, then one line per row dict."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_summary_csv(reports, path) -> None:
    _write_csv(path, SUMMARY_FIELDS, (report.to_row() for report in reports))


def write_trace_csv(reports, path) -> None:
    rows = ({"seed": report.seed, **row} for report in reports for row in report.buckets)
    _write_csv(path, ["seed"] + BUCKET_FIELDS, rows)


REVERSAL_FIELDS = ["rho", "seed", "slot", "commodity", "edges_reversed", "marked"]


def write_reversal_events_csv(reports, path) -> None:
    """One row per epoch with marks: which nodes were flagged, how many links flipped."""
    _write_csv(
        path,
        REVERSAL_FIELDS,
        (
            {
                "rho": repr(report.rho),
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
    iteration bound."""
    import random as _random

    if samples < 1:
        raise ValueError("need at least one sample")
    rng = _random.Random(f"{seed}|er-batch")
    rows = []
    total_iters = 0
    max_iters_seen = 0
    for k in range(samples):
        n = rng.randint(*n_range)
        net = erdos_renyi_network(n, p, rng, cap_low=cap_range[0], cap_high=cap_range[1])
        ranking = list(sorted(net.nodes))
        rng.shuffle(ranking)
        dag0 = orient_by_ranking(net, {node: pos for node, pos in zip(sorted(net.nodes), ranking)})
        fmax = max_flow_undirected(net)
        bound = default_max_iters(dag0, fmax)
        trace = converge(dag0, fmax, max_iters=bound, record_overload=False)
        iters = trace.iterations
        if iters > bound:
            raise InvariantViolation(f"sample {k}: {iters} iterations exceeds bound {bound}")
        total_iters += iters
        max_iters_seen = max(max_iters_seen, iters)
        rows.append(
            {
                "sample": k,
                "n": n,
                "edges": len(net.capacity),
                "fmax": str(fmax),
                "iterations": iters,
                "bound": bound,
            }
        )
    stats = {
        "samples": samples,
        "mean_iterations": total_iters / samples,
        "max_iterations": max_iters_seen,
        "rows": rows,
    }
    if out_path is not None:
        _write_csv(out_path, ["sample", "n", "edges", "fmax", "iterations", "bound"], rows)
    return stats


def _load_arg_scenario(value: str) -> ScenarioConfig:
    """A scenario the CLI can simulate: the schema's checks, and integer
    capacities, which the slot engine needs (the analysis modules do not)."""
    path = Path(value)
    if path.exists():
        config, where = load_scenario(path), path.name
    else:
        try:
            config, where = bundled_scenario(value), value
        except ValidationError:
            raise ValidationError(f"scenario not found (no file or bundled name): {value}")
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


def main(argv=None) -> int:
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
            if args.rho is not None:
                try:
                    check_load(config.commodities, args.rho)
                except ValueError as exc:
                    raise ValidationError(f"--rho: {exc}") from exc
            report = run(
                config,
                args.policy,
                args.horizon,
                rho=args.rho,
                seed=args.seed,
                bucket=args.trace_bucket,
            )
            if args.out:
                write_run_csvs([report], args.out, args.trace_bucket)
            row = report.to_row()
            print(",".join(str(row[k]) for k in SUMMARY_FIELDS))
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
