"""The lfbp benchmark workloads and the traced replays that split them by layer.

Every workload has two halves.  The slot half is one heavy sweep cell of a
bundled scenario -- its highest load, its declared horizon and seed -- run
as a bp/lfbp pair through ``sim.run``, which is what ``lfbp run`` and each
``lfbp sweep`` cell execute.  The analysis half runs ``cli.er_batch`` on
Erdos-Renyi graphs, then one ``lex_min_overload`` solve per sample.  The
workloads differ in which half dominates and in the sizes; BENCHMARK.json
says why each one exists and README.md in this directory says what each
should move.

Untraced runs time the public entry points directly (``sim.run``,
``cli.er_batch``, ``overload.lex_min_overload``).  Traced runs repeat the
same work through replays in this file that call the public step functions
in the order ``sim.run`` and ``cli.er_batch`` use, with a span around each
call; the replays must reproduce the untraced outputs exactly.
"""
from __future__ import annotations

import hashlib
import random
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from lfbp import cli, flow, graph, overload, protocol, reversal, sim

from timing import Timing, timed
from tracer import Tracer

POLICIES = ("bp", "lfbp")


@dataclass(frozen=True)
class SlotCell:
    """A sweep cell of a bundled scenario.  One run per policy at the full
    horizon gives the outputs; repeated runs at the timing horizon give the
    throughput, so each timed run is short enough to sit between two
    calibration loops that see the same host conditions."""

    scenario: str  # file name under src/lfbp/scenarios
    rho: float
    horizon: int | None = None  # None: the scenario's declared horizon
    timing_slots: int = 10_000  # slots per timed unit


@dataclass(frozen=True)
class ErSpec:
    """``er_batch`` strata: one call per node-count range, ``per_stratum``
    samples each.  With ``seeded`` the graphs come from the workload seed;
    without it every run solves the same graphs."""

    strata: tuple[tuple[int, int], ...]
    per_stratum: int
    solve_group: int  # overload solves timed together between calibrations
    seeded: bool = True
    p: float = 0.5
    cap_range: tuple[int, int] = (1, 10)

    @property
    def samples(self) -> int:
        return len(self.strata) * self.per_stratum


@dataclass(frozen=True)
class Workload:
    name: str
    slot: SlotCell
    er: ErSpec
    timing_share: float  # share of --seconds spent on slot timing runs


def _strata(lo: int, hi: int, k: int) -> tuple[tuple[int, int], ...]:
    """[lo, hi] cut into k contiguous node-count ranges of near-equal width.
    Stratifying n keeps the batch's mean graph size, which sets most of its
    cost, the same from seed to seed."""
    cuts = [lo + round(i * (hi - lo + 1) / k) for i in range(k + 1)]
    return tuple((cuts[i], cuts[i + 1] - 1) for i in range(k))


SMALL_ER = ErSpec(strata=_strata(10, 20, 4), per_stratum=120, solve_group=30)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sixnode_near_capacity",
            SlotCell("sixnode_fixed.scn", 0.95),
            SMALL_ER,
            0.4,
        ),
        Workload(
            "grid_churn",
            SlotCell("grid4x4.scn", 0.6),
            SMALL_ER,
            0.3,
        ),
        Workload(
            "grid_multi",
            SlotCell("grid4x4_multi.scn", 0.9, timing_slots=4_000),
            SMALL_ER,
            0.35,
        ),
        Workload(
            "er_analysis",
            SlotCell("sixnode_detect.scn", 0.9),
            ErSpec(strata=_strata(40, 80, 16), per_stratum=8, solve_group=4, seeded=False),
            0.12,
        ),
    )
}

# Kernel curve of the traced run: seeded ER graphs with exactly these node counts.
KERNEL_SIZES = (20, 40, 80)
KERNEL_REPS = 3


class Ledger:
    """Counts operations and their failed output checks; keeps every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def attempt(self, label: str, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # an op that raises is a failed op, reported below
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _median_timing(samples: list[Timing]) -> Timing:
    return Timing(
        statistics.median(t.raw_s for t in samples), statistics.median(t.scaled_s for t in samples)
    )


def run_units(units: list, deadline: float) -> None:
    """Run every unit once, then keep cycling through them while the next
    one, at its last duration, should end before ``deadline``."""
    walls = []
    for unit in units:
        t0 = time.perf_counter()
        unit()
        walls.append(time.perf_counter() - t0)
    k = 0
    while units and time.perf_counter() + walls[k % len(units)] <= deadline:
        t0 = time.perf_counter()
        units[k % len(units)]()
        walls[k % len(units)] = time.perf_counter() - t0
        k += 1


# ---------------------------------------------------------------- slot half


def slot_checks(config, reports: dict) -> dict[str, list[str]]:
    """Per-report output checks: conservation, plus identical arrival paths
    for the paired runs."""
    problems = {}
    for policy, r in reports.items():
        extra = 0
        if policy == "lfbp" and config.dummy_scale:
            extra = int(config.dummy_scale / r.rho) * len(config.commodities)
        injected = r.arrivals + sum(c.dummy_packets for c in config.commodities) + extra
        bad = []
        if injected != r.delivered + r.final_backlog:
            bad.append(
                f"packets not conserved: arrivals+dummies={injected} != "
                f"delivered+final_backlog={r.delivered + r.final_backlog}"
            )
        other = reports.get("lfbp" if policy == "bp" else "bp")
        if other is not None and other.arrivals_by_commodity != r.arrivals_by_commodity:
            bad.append("bp and lfbp saw different arrivals_by_commodity")
        problems[policy] = bad
    return problems


class SlotHalf:
    """Untraced slot half: one full-horizon run per policy for the outputs,
    and repeated timed units whose summary rows must repeat exactly.  A
    timed unit is one run of ``timing_slots`` slots, or back-to-back runs at
    the full horizon when that is shorter."""

    def __init__(self, config, cell: SlotCell, ledger: Ledger):
        self.config = config
        self.cell = cell
        self.horizon = config.horizon if cell.horizon is None else cell.horizon
        self.timing_horizon = min(cell.timing_slots, self.horizon)
        self.timing_runs = max(1, cell.timing_slots // self.timing_horizon)
        self.seed = config.seeds[0]
        self.ledger = ledger
        self.reports: dict = {}
        self.timing_rows: dict = {}
        self.timings: dict[str, list[Timing]] = {p: [] for p in POLICIES}

    def _sim(self, policy: str, horizon: int):
        return sim.run(self.config, policy, horizon, rho=self.cell.rho, seed=self.seed)

    def full_runs(self) -> None:
        label = f"{self.cell.scenario} horizon={self.horizon}"
        for policy in POLICIES:
            report = self.ledger.attempt(f"sim.run[{policy}] {label}", self._sim, policy, self.horizon)
            if report is not None:
                self.reports[policy] = report
        for policy, problems in slot_checks(self.config, self.reports).items():
            self.ledger.record(f"sim.run[{policy}] {label}", problems)

    def _timed_run(self, policy: str) -> None:
        label = f"sim.run[{policy}] {self.cell.scenario} horizon={self.timing_horizon}"

        def unit():
            return [self._sim(policy, self.timing_horizon) for _ in range(self.timing_runs)]

        result = self.ledger.attempt(label, timed, unit)
        if result is None:
            return
        reports, timing = result
        self.timings[policy].append(timing)
        for report in reports:
            row = self.timing_rows.setdefault(policy, report.to_row())
            bad = slot_checks(self.config, {policy: report})[policy]
            if report.to_row() != row:
                bad.append("same (scenario, seed) gave a different summary row")
            self.ledger.record(label, bad)

    def timing_units(self) -> list:
        return [lambda p=p: self._timed_run(p) for p in POLICIES]

    def slots_per_s(self, policy: str) -> tuple[float, float, int]:
        """(scaled, raw, timed runs) slots per CPU second of the median run."""
        med = _median_timing(self.timings[policy])
        n = self.timing_horizon * self.timing_runs
        return n / med.scaled_s, n / med.raw_s, len(self.timings[policy])


# ------------------------------------------------------------ analysis half


def er_seed(spec: ErSpec, seed: int, stratum: int) -> int:
    return (seed if spec.seeded else 0) * 100 + stratum


@contextmanager
def patched(module, name: str, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


def er_sample_checks(row: dict, final_dag, fmax) -> list[str]:
    bad = []
    if row["iterations"] > row["bound"]:
        bad.append(f"iterations {row['iterations']} exceed bound {row['bound']}")
    if row["fmax"] != str(fmax):
        bad.append(f"row fmax {row['fmax']} != converge rate {fmax}")
    cut = flow.smallest_min_cut(final_dag).capacity
    if cut != fmax:
        bad.append(f"final orientation's smallest min-cut {cut} != fmax {fmax}")
    return bad


def overload_checks(dag, rate, vec) -> list[str]:
    bad = []
    expected = rate - flow.max_flow(dag).value
    if vec.total() != expected:
        bad.append(f"overload total {vec.total()} != rate - max_flow = {expected}")
    side = flow.smallest_min_cut(dag).source_side
    if not vec.support() <= side:
        bad.append(f"overload support {sorted(vec.support() - side)} outside the smallest min-cut source side")
    return bad


class ErHalf:
    """Untraced analysis half.  ``cli.er_batch`` runs once per stratum; the
    (dag0, rate, trace) triple of each sample is captured from its
    ``converge`` call, so the samples are checked and the overload solves
    run on the same orientations without replaying the batch.  The first
    call of a stratum gives the outputs; later calls add timing samples and
    must repeat the rows exactly."""

    def __init__(self, spec: ErSpec, seed: int, ledger: Ledger, out_dir: Path, tag: str):
        self.spec = spec
        self.seed = seed
        self.ledger = ledger
        self.csv_paths = [out_dir / f"{tag}.er{k}.csv" for k in range(len(spec.strata))]
        self.rows: list[list[dict] | None] = [None] * len(spec.strata)
        self.batch: list[list[Timing]] = [[] for _ in spec.strata]
        self.solves: list[list[Timing]] = [[] for _ in spec.strata]

    def _stratum(self, k: int) -> None:
        n_range = self.spec.strata[k]
        first = self.rows[k] is None
        captured = []

        def capturing(dag0, rate, *args, **kwargs):
            trace = original(dag0, rate, *args, **kwargs)
            captured.append((dag0, rate, trace))
            return trace

        with patched(cli, "converge", capturing) as original:
            stats, timing = timed(
                cli.er_batch,
                self.spec.per_stratum,
                n_range,
                self.spec.p,
                self.spec.cap_range,
                seed=er_seed(self.spec, self.seed, k),
                out_path=self.csv_paths[k] if first else None,
            )
        self.batch[k].append(timing)
        rows = stats["rows"]
        if first:
            self.rows[k] = rows
        if len(captured) != len(rows):
            raise RuntimeError(f"captured {len(captured)} converge calls for {len(rows)} samples")
        for row, (dag0, rate, trace) in zip(rows, captured):
            bad = er_sample_checks(row, trace.final, rate)
            if row != self.rows[k][row["sample"]]:
                bad.append("same seed gave a different er_batch row")
            self.ledger.record(f"er sample n{n_range} #{row['sample']}", bad)

        group = self.spec.solve_group
        spent = []
        for g in range(0, len(rows), group):
            batch = list(zip(rows, captured))[g : g + group]

            def solve_group():
                return [
                    self.ledger.attempt(f"lex_min_overload n{n_range} #{row['sample']}", overload.lex_min_overload, dag0, rate)
                    for row, (dag0, rate, _trace) in batch
                ]

            vecs, timing = timed(solve_group)
            spent.append(timing)
            for (row, (dag0, rate, _trace)), vec in zip(batch, vecs):
                if vec is not None:
                    self.ledger.record(f"lex_min_overload n{n_range} #{row['sample']}", overload_checks(dag0, rate, vec))
        self.solves[k].append(Timing(sum(t.raw_s for t in spent), sum(t.scaled_s for t in spent)))

    def units(self) -> list:
        return [
            lambda k=k: self.ledger.attempt(f"er_batch n{self.spec.strata[k]}", self._stratum, k)
            for k in range(len(self.spec.strata))
        ]

    def _rate(self, timings) -> tuple[float, float]:
        """(scaled, raw) samples per CPU second, each stratum at its median."""
        meds = [_median_timing(t) for t in timings if t]
        done = len(meds) * self.spec.per_stratum
        return done / sum(m.scaled_s for m in meds), done / sum(m.raw_s for m in meds)

    def samples_per_s(self) -> tuple[float, float]:
        return self._rate(self.batch)

    def solves_per_s(self) -> tuple[float, float]:
        return self._rate(self.solves)

    def timed_runs(self) -> int:
        return min(len(t) for t in self.batch)

    def csv_digest(self) -> str:
        return _sha256(p for p, rows in zip(self.csv_paths, self.rows) if rows is not None)


# ------------------------------------------------------------ traced replays


def _topology_phase(state) -> None:
    # The topology phase of a slot as sim.run runs it: the guard, then the step.
    if state.topology is not None:
        sim.topology_step(state)


def traced_sim_run(tracer: Tracer, config, policy: str, horizon: int, rho: float, seed, flips: list):
    """``sim.run`` rebuilt from its public step functions, one span per call.

    Appends (commodity index, orientation before the reversal) to ``flips``
    for every epoch reversal that changed an orientation.
    """
    call = tracer.call
    with tracer.span("sim.run"):
        params = None
        dummies = None
        if policy == "lfbp":
            params = config.lfbp_params or protocol.LfbpParams()
            dummies = []
            for c in config.commodities:
                extra = int(config.dummy_scale / rho) if config.dummy_scale else 0
                dummies.append(c.dummy_packets + extra)
        state = call(
            "sim.SimState",
            sim.SimState,
            config.network,
            config.commodities,
            policy,
            rho,
            seed,
            topology=config.topology,
            initial_dags=sim.build_initial_dags(config, policy),
            dummies=dummies,
        )
        if policy == "lfbp":
            if params.delta is not None:
                state.dags = [replace(d, delta=params.delta) for d in state.dags]
            state.epoch_left = params.period(0)
        lfbp = policy == "lfbp"
        ncom = len(config.commodities)
        arrivals_step, bp_step = sim.arrivals_step, sim.bp_step
        mark_step, epoch_reversal = protocol.mark_step, protocol.epoch_reversal
        for t in range(horizon):
            call("sim.arrivals_step", arrivals_step, state)
            call("sim.bp_step", bp_step, state)
            if lfbp:
                call("protocol.mark_step", mark_step, state, params)
                state.epoch_left -= 1
                if state.epoch_left <= 0:
                    before = list(state.dags)
                    call("protocol.epoch_reversal", epoch_reversal, state, params)
                    for y, dag in enumerate(before):
                        if state.dags[y] is not dag:
                            flips.append((y, dag))
            call("sim.topology_step", _topology_phase, state)
            state.t = t + 1
            state.backlog_integral += state.backlog_now
            net_backlog = state.backlog_now
            for y in range(ncom):
                out = state.dummies[y] - state.delivered[y]
                if out > 0:
                    net_backlog -= out
            state.backlog_net_integral += net_backlog
            state.live_integral += len(state.live_order)
    total_del = sum(state.delivered)
    return sim.MetricsReport(
        scenario=getattr(config, "name", ""),
        policy=policy,
        rho=rho,
        seed=seed,
        horizon=horizon,
        arrivals=sum(state.arrivals),
        delivered=total_del,
        delivered_net=max(0, total_del - sum(state.dummies)),
        avg_backlog=(state.backlog_integral / horizon) if horizon else 0.0,
        avg_backlog_net=(state.backlog_net_integral / horizon) if horizon else 0.0,
        final_backlog=state.backlog_now,
        reversal_events=state.reversal_events,
        edges_reversed=state.edges_reversed,
        topo_events=state.topo_events,
        live_fraction=(state.live_integral / (horizon * state.m)) if horizon and state.m else 1.0,
        delivered_by_commodity=tuple(state.delivered),
        arrivals_by_commodity=tuple(state.arrivals),
        reversal_log=state.reversal_log,
        final_dags=tuple(state.dags) if state.dags is not None else None,
    )


def traced_er_batch(tracer: Tracer, samples: int, n_range, p: float, cap_range, seed):
    """``cli.er_batch`` rebuilt from public calls, one span per sample and
    per call.  Returns (rows, [(dag0, fmax, trace)])."""
    call = tracer.call
    rng = random.Random(f"{seed}|er-batch")
    rows, results = [], []
    for k in range(samples):
        with tracer.span("cli.er_batch.sample"):
            n = rng.randint(*n_range)
            net = call(
                "graph.erdos_renyi_network",
                graph.erdos_renyi_network,
                n,
                p,
                rng,
                cap_low=cap_range[0],
                cap_high=cap_range[1],
            )
            ranking = list(sorted(net.nodes))
            rng.shuffle(ranking)
            dag0 = call(
                "graph.orient_by_ranking",
                graph.orient_by_ranking,
                net,
                {node: pos for node, pos in zip(sorted(net.nodes), ranking)},
            )
            fmax = call("flow.max_flow_undirected", flow.max_flow_undirected, net)
            bound = call("reversal.default_max_iters", reversal.default_max_iters, dag0, fmax)
            trace = call(
                "reversal.converge", reversal.converge, dag0, fmax, max_iters=bound, record_overload=False
            )
        rows.append(
            {
                "sample": k,
                "n": n,
                "edges": len(net.capacity),
                "fmax": str(fmax),
                "iterations": trace.iterations,
                "bound": bound,
            }
        )
        results.append((dag0, fmax, trace))
    return rows, results


@contextmanager
def traced_flow_calls(tracer: Tracer):
    """Spans around the flow calls ``reversal`` makes inside
    ``default_max_iters`` and ``converge``, so flow's self time shows."""
    with (
        patched(reversal, "max_flow_undirected", tracer.wrap("flow.max_flow_undirected", reversal.max_flow_undirected)),
        patched(reversal, "smallest_min_cut", tracer.wrap("flow.smallest_min_cut", reversal.smallest_min_cut)),
        patched(reversal, "delta_bound", tracer.wrap("flow.delta_bound", reversal.delta_bound)),
    ):
        yield


def state_bits(dags) -> int:
    """Largest bit length of any numerator or denominator among the states."""
    bits = 0
    for dag in dags or ():
        for x in dag.states.values():
            x = Fraction(x)
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


def unneeded_reversals(config, rho: float, flips) -> int:
    """Flipping reversals of a commodity whose orientation already carried
    its offered rate."""
    count = 0
    for y, dag in flips:
        c = config.commodities[y]
        cut = flow.smallest_min_cut(dag, c.source, c.dest)
        if cut.capacity >= Fraction(rho * c.rate):
            count += 1
    return count


def kernel_graph(seed: int, n: int, rep: int):
    """A seeded ER graph with exactly n nodes and a random orientation."""
    rng = random.Random(f"{seed}|kernel|{n}|{rep}")
    net = graph.erdos_renyi_network(n, 0.5, rng)
    ranking = list(sorted(net.nodes))
    rng.shuffle(ranking)
    return net, graph.orient_by_ranking(net, dict(zip(sorted(net.nodes), ranking)))


# ------------------------------------------------------------ orchestration


def scenario_path(src: Path, cell: SlotCell) -> Path:
    return src / "lfbp" / "scenarios" / cell.scenario


def measure(wl: Workload, config, seed: int, seconds: float, out_dir: Path) -> dict:
    """The untraced run: every end-to-end figure except setup time and memory."""
    ledger = Ledger()
    start = time.perf_counter()
    slot = SlotHalf(config, wl.slot, ledger)
    run_units(slot.timing_units(), start + wl.timing_share * seconds)
    slot.full_runs()
    er = ErHalf(wl.er, seed, ledger, out_dir, wl.name)
    run_units(er.units(), start + seconds)

    summary = out_dir / f"{wl.name}.summary.csv"
    cli.write_summary_csv([slot.reports[p] for p in POLICIES if p in slot.reports], summary)
    cell = f"{wl.slot.scenario} rho={wl.slot.rho} seed={slot.seed}"
    values, notes = {}, {}
    for policy in POLICIES:
        if slot.timings[policy]:
            scaled, raw, runs = slot.slots_per_s(policy)
            values[f"{policy}_slots_per_s"] = scaled
            notes[f"{policy}_slots_per_s"] = (
                f"{cell} horizon={slot.timing_horizon} x {slot.timing_runs} runs per timed unit; "
                f"median of {runs} units; raw {raw:.1f} slots per CPU s"
            )
        if policy in slot.reports:
            values[f"{policy}_avg_backlog"] = slot.reports[policy].avg_backlog
            notes[f"{policy}_avg_backlog"] = f"{cell} horizon={slot.horizon}"
    er_cell = f"{wl.er.samples} samples, n strata {list(wl.er.strata)}, p={wl.er.p}, caps {wl.er.cap_range}"
    if all(er.batch):
        scaled, raw = er.samples_per_s()
        values["er_samples_per_s"] = scaled
        notes["er_samples_per_s"] = f"{er_cell}; median of {er.timed_runs()} passes; raw {raw:.2f} per CPU s"
        scaled, raw = er.solves_per_s()
        values["overload_solves_per_s"] = scaled
        notes["overload_solves_per_s"] = (
            f"{wl.er.samples} solves at each sample's fmax; median of {er.timed_runs()} passes; raw {raw:.2f} per CPU s"
        )
    return {
        "values": values,
        "notes": notes,
        "ledger": ledger,
        "digests": {"summary_csv": _sha256([summary]), "er_batch_csv": er.csv_digest()},
    }


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def trace(wl: Workload, config_path: Path, seed: int, out_dir: Path) -> dict:
    """The traced run: every slot run and er_batch call once untraced and
    once through the traced replays, then the kernel curve; returns the
    per-layer figures."""
    ledger = Ledger()
    tracer = Tracer(f"{wl.name} seed={seed}")
    tracer.begin_run("setup")
    config = tracer.call("cli.load_scenario", cli.load_scenario, config_path)
    horizon = config.horizon if wl.slot.horizon is None else wl.slot.horizon
    sim_seed = config.seeds[0]
    wall_untraced = wall_traced = 0.0
    reports, flips = {}, {}

    for policy in POLICIES:
        label = f"sim.run[{policy}] {wl.slot.scenario}"
        t0 = time.perf_counter()
        plain = ledger.attempt(label, sim.run, config, policy, horizon, rho=wl.slot.rho, seed=sim_seed)
        wall_untraced += time.perf_counter() - t0
        tracer.begin_run(f"slot:{policy}")
        flips[policy] = []
        with patched(sim, "apply_topology_event", tracer.wrap("graph.apply_topology_event", sim.apply_topology_event)):
            t0 = time.perf_counter()
            traced = ledger.attempt(
                label + " traced", traced_sim_run, tracer, config, policy, horizon, wl.slot.rho, sim_seed, flips[policy]
            )
            wall_traced += time.perf_counter() - t0
        if plain is None or traced is None:
            continue
        reports[policy] = traced
        same = traced.to_row() == plain.to_row()
        ledger.record(
            label + " replay fidelity",
            [] if same else [f"traced replay diverged from sim.run: {traced.to_row()} != {plain.to_row()}"],
        )
    for policy, problems in slot_checks(config, reports).items():
        ledger.record(f"sim.run[{policy}] {wl.slot.scenario}", problems)
    tracer.begin_run("setup")
    tracer.call("cli.write_summary_csv", cli.write_summary_csv, list(reports.values()), out_dir / f"{wl.name}.traced.summary.csv")

    iterations = []
    for k, n_range in enumerate(wl.er.strata):
        args = (wl.er.per_stratum, n_range, wl.er.p, wl.er.cap_range)
        t0 = time.perf_counter()
        stats = ledger.attempt(f"er_batch n{n_range}", cli.er_batch, *args, seed=er_seed(wl.er, seed, k))
        wall_untraced += time.perf_counter() - t0
        tracer.begin_run(f"er:{k}")
        with traced_flow_calls(tracer):
            t0 = time.perf_counter()
            out = ledger.attempt(f"er_batch n{n_range} traced", traced_er_batch, tracer, *args, er_seed(wl.er, seed, k))
            wall_traced += time.perf_counter() - t0
        if stats is None or out is None:
            continue
        rows, results = out
        ledger.record(
            f"er_batch n{n_range} replay fidelity",
            [] if rows == stats["rows"] else ["traced replay rows differ from er_batch rows"],
        )
        for row, (_dag0, fmax, tr) in zip(rows, results):
            iterations.append(tr.iterations)
            ledger.record(f"er sample n{n_range} #{row['sample']}", er_sample_checks(row, tr.final, fmax))

    for n in KERNEL_SIZES:
        for rep in range(KERNEL_REPS):
            net, dag = kernel_graph(seed, n, rep)
            tracer.begin_run(f"kernel:n{n}")
            fmax = tracer.call("flow.max_flow_undirected", flow.max_flow_undirected, net)
            tracer.call("flow.smallest_min_cut", flow.smallest_min_cut, dag)
            label = f"lex_min_overload kernel n{n} #{rep}"
            vec = ledger.attempt(label, tracer.call, "overload.lex_min_overload", overload.lex_min_overload, dag, fmax)
            if vec is not None:
                ledger.record(label, overload_checks(dag, fmax, vec))

    tracer.write(out_dir / f"{wl.name}.spans")
    lf = reports.get("lfbp")
    values = layer_metrics(tracer, wl, horizon, reports, iterations)
    values["protocol.unneeded_reversals"] = unneeded_reversals(config, wl.slot.rho, flips.get("lfbp", []))
    values["graph.state_bits"] = state_bits(lf.final_dags) if lf else 0
    covered = sum(ns for prefix in ("slot:", "er:") for _n, ns in tracer.self_times(prefix).values()) / 1e9
    values["trace.overhead_ratio"] = _per(wall_traced, wall_untraced)
    values["trace.residual_share"] = _per(wall_traced - covered, wall_traced)
    return {
        "values": values,
        "ledger": ledger,
        "layers": layer_table(tracer),
        "accounting": {
            "untraced_wall_s": wall_untraced,
            "traced_wall_s": wall_traced,
            "span_self_s": covered,
            "residual_s": wall_traced - covered,
            "overhead_s": wall_traced - wall_untraced,
        },
        "spans": len(tracer.name),
        "horizon": horizon,
        "sim_seed": sim_seed,
    }


def layer_metrics(tracer: Tracer, wl: Workload, horizon: int, reports: dict, iterations: list) -> dict:
    v = {}
    slot = {p: tracer.self_times(f"slot:{p}") for p in POLICIES}

    def ns(policy, name):
        return slot[policy].get(name, (0, 0))

    both = horizon * len(POLICIES)
    v["sim.arrivals_step.ns_per_slot"] = _per(sum(ns(p, "sim.arrivals_step")[1] for p in POLICIES), both)
    v["sim.slot_loop.ns_per_slot"] = _per(sum(ns(p, "sim.run")[1] for p in POLICIES), both)
    for p in POLICIES:
        v[f"sim.bp_step.ns_per_slot.{p}"] = _per(ns(p, "sim.bp_step")[1], horizon)
        v[f"sim.topology_step.ns_per_slot.{p}"] = _per(ns(p, "sim.topology_step")[1], horizon)
    v["sim.plan_invalidations"] = sum(r.topo_events + r.reversal_events for r in reports.values())
    v["protocol.mark_step.ns_per_slot"] = _per(ns("lfbp", "protocol.mark_step")[1], horizon)
    calls, total = ns("lfbp", "protocol.epoch_reversal")
    v["protocol.epoch_reversal.us_per_epoch"] = _per(total / 1e3, calls)
    log = reports["lfbp"].reversal_log if "lfbp" in reports else []
    v["protocol.marked_epochs"] = len(log)
    v["protocol.flipping_epochs"] = sum(1 for entry in log if entry[2])
    v["protocol.flip_ratio"] = _per(v["protocol.flipping_epochs"], v["protocol.marked_epochs"])
    v["graph.apply_topology_event.calls"] = sum(ns(p, "graph.apply_topology_event")[0] for p in POLICIES)

    er = tracer.self_times("er:")
    samples = er.get("cli.er_batch.sample", (0, 0))[0]
    calls, total = er.get("graph.erdos_renyi_network", (0, 0))
    v["graph.erdos_renyi_network.ms_per_call"] = _per(total / 1e6, calls)
    for name in ("reversal.converge", "reversal.default_max_iters"):
        spans = tracer.durations(name, "er:")
        v[f"{name}.ms_per_call"] = _per(sum(spans) / 1e6, len(spans))
    v["reversal.converge.iterations_mean"] = _per(sum(iterations), len(iterations))
    v["flow.max_flow_undirected.calls_per_sample"] = _per(er.get("flow.max_flow_undirected", (0, 0))[0], samples)
    sample_ns = sum(tracer.durations("cli.er_batch.sample", "er:"))
    v["flow.er_batch_share"] = _per(sum(t for name, (_c, t) in er.items() if name.startswith("flow.")), sample_ns)
    per_sample = sorted(d / 1e6 for d in tracer.durations("cli.er_batch.sample", "er:"))
    if len(per_sample) >= 2:
        deciles = statistics.quantiles(per_sample, n=10)
        v["cli.er_batch.ms_per_sample.p50"] = statistics.median(per_sample)
        v["cli.er_batch.ms_per_sample.p90"] = deciles[8]

    for n in KERNEL_SIZES:
        kern = tracer.self_times(f"kernel:n{n}")
        for name, unit, scale in (
            ("flow.max_flow_undirected", "us", 1e3),
            ("flow.smallest_min_cut", "us", 1e3),
            ("overload.lex_min_overload", "ms", 1e6),
        ):
            calls, total = kern.get(name, (0, 0))
            v[f"{name}.{unit}_per_call.n{n}"] = _per(total / scale, calls)
    setup = tracer.self_times("setup")
    v["cli.load_scenario.ms"] = setup.get("cli.load_scenario", (0, 0))[1] / 1e6
    v["cli.write_summary_csv.ms"] = setup.get("cli.write_summary_csv", (0, 0))[1] / 1e6
    return v


def layer_table(tracer: Tracer) -> dict:
    """Self time per layer (module) over the slot and er runs, in seconds."""
    out: dict[str, float] = {}
    for prefix in ("slot:", "er:"):
        for name, (_calls, ns) in tracer.self_times(prefix).items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + ns / 1e9
    return dict(sorted(out.items()))
