"""Shared instance generators and independent oracles for the test suite.

Helpers the package itself never calls live here: ``grid_network``, the
orientation readers ``direction`` and ``signature``, and the scenario-file
writers ``scenario_to_dict``, ``write_scenario`` and
``bundled_scenario_names`` moved here from ``lfbp`` unchanged.

The oracles here deliberately avoid the production code paths: min cuts by
exhaustive subset enumeration, max-flow by grid enumeration of feasible
flows.  They are slow and only meant for small instances.  The slot engine's
earlier per-link forwarding step, topology round and term-by-term Poisson
draw (``reference_poisson_draws``, one sorted walk for many draws) are kept
here as references for the compiled plans, the per-edge flip probabilities
and the CDF table that replaced them, and the earlier lexicographic overload
solver, which built a fresh auxiliary network for every density guess, as
the reference for the one built per call.
The arc-list max-flow ``_solve`` serves the kernel tests and these references,
and the earlier ``converge``, which solved every step's min-cut cold and
walked the links entering the cut a second time to find a usable one, is the
reference for the one kept warm across steps.  ``ReferenceMaxFlow`` is the
Dinic kernel before it pruned the dead ends at the sink's level.  The
paper's numeric state rule (drop the reversed-toward nodes by 2^k * delta,
rescale now and then) is kept on ``PaperStates`` as the reference for the
node order that replaced it.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

import pytest

from lfbp import sim
from lfbp.cli import SCHEMA_VERSION, ScenarioConfig
from lfbp.flow import CutPartition, FlowAllocation, FlowNetwork, MaxFlow
from lfbp.graph import (
    DagOrientation,
    Edge,
    InvariantViolation,
    Network,
    Rational,
    apply_topology_event,
    as_rational,
    orient_by_ranking,
)
from lfbp.overload import OverloadVector, lex_min_overload
from lfbp.reversal import ReversalTrace, TraceEntry, default_max_iters, reverse_toward

from oracles import _fluid_arcs, topological_order


# Network, orientation and scenario-file helpers that only the tests use.


def grid_network(
    rows: int, cols: int, capacity: Rational, source: int | None = None, dest: int | None = None
) -> Network:
    """Grid with column-major 1-based IDs; links join horizontal/vertical neighbors."""
    def node_id(r: int, c: int) -> int:
        return c * rows + r + 1

    nodes = [node_id(r, c) for c in range(cols) for r in range(rows)]
    edges = []
    for c in range(cols):
        for r in range(rows):
            if r + 1 < rows:
                edges.append((node_id(r, c), node_id(r + 1, c), capacity))
            if c + 1 < cols:
                edges.append((node_id(r, c), node_id(r, c + 1), capacity))
    if source is None:
        source = nodes[0]
    if dest is None:
        dest = nodes[-1]
    return Network.build(nodes, edges, source, dest)


def direction(dag: DagOrientation, edge: Edge) -> tuple[int, int]:
    i, j = edge
    return (i, j) if dag.states[i] < dag.states[j] else (j, i)


def signature(dag: DagOrientation) -> frozenset[tuple[int, int]]:
    """Hashable identity of the orientation (live directed edge set)."""
    return frozenset((tail, head) for tail, head, _ in dag.directed_edges())


def scenario_to_dict(config: ScenarioConfig) -> dict:
    def cap_repr(c):
        return c if isinstance(c, int) else str(c)

    return {
        "version": SCHEMA_VERSION,
        "name": config.name,
        "description": config.description,
        "nodes": sorted(config.network.nodes),
        "edges": [[i, j, cap_repr(cap)] for (i, j), cap in sorted(config.network.capacity.items())],
        "commodities": [
            {
                "id": c.id,
                "source": c.source,
                "dest": c.dest,
                "rate": c.rate,
                "dummy_packets": c.dummy_packets,
            }
            for c in config.commodities
        ],
        "initial_dag": list(map(list, config.initial_dag))
        if isinstance(config.initial_dag, tuple)
        else config.initial_dag,
        "lfbp": None
        if config.lfbp_params is None
        else {
            "thresholds": [cap_repr(t) for t in config.lfbp_params.thresholds],
            "periods": list(config.lfbp_params.periods),
        },
        "topology": None
        if config.topology is None
        else {"fail_prob": config.topology.fail_prob, "recover_prob": config.topology.recover_prob},
        "dummy_scale": config.dummy_scale,
        "load_factors": list(config.load_factors),
        "horizon": config.horizon,
        "seeds": list(config.seeds),
    }


def write_scenario(config: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(config), indent=2) + "\n")


def bundled_scenario_names() -> list[str]:
    folder = resources.files("lfbp").joinpath("scenarios")
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".scn"))


class PairedFlowNetwork(FlowNetwork):
    """A ``FlowNetwork`` whose arcs are added by node pair: ``arc`` maps
    ``(tail, head)`` to its arc id."""

    __slots__ = ("arc",)

    def __init__(self, nodes: Iterable):
        super().__init__(nodes)
        self.arc: dict = {}

    def pair(self, u, v) -> int:
        """The id of arc u -> v, adding the twin pair if it is missing."""
        k = self.arc.get((u, v))
        if k is None:
            k = len(self.head)
            self.arc[(u, v)] = k
            self.arc[(v, u)] = k + 1
            iu, iv = self.index[u], self.index[v]
            self.head.append(iv)
            self.head.append(iu)
            self.adj[iu].append(k)
            self.adj[iv].append(k + 1)
        return k


def _arc_network(nodes: Iterable, arcs: Iterable[tuple[object, object, Rational]]):
    """The ``PairedFlowNetwork`` of one arc list, its integer capacities and
    their scale.

    Capacities are scaled once by the least common multiple of their
    denominators.  Arcs between the same two nodes, either way round, merge
    into one twin pair ``k``/``k ^ 1``; arcs without positive capacity are
    dropped.
    """
    net = PairedFlowNetwork(nodes)
    index, arc, head, adj = net.index, net.arc, net.head, net.adj
    arcs = list(arcs)
    scale = math.lcm(*{c.denominator for _, _, c in arcs})
    res: list[int] = []
    # PairedFlowNetwork.pair inlined, with parallel arcs summed into one pair.
    for u, v, c in arcs:
        if c <= 0:
            continue
        if scale != 1 or type(c) is not int:
            c = c.numerator * (scale // c.denominator)
        k = arc.get((u, v))
        if k is None:
            k = len(head)
            arc[(u, v)] = k
            arc[(v, u)] = k + 1
            iu, iv = index[u], index[v]
            head.append(iv)
            head.append(iu)
            res.append(c)
            res.append(0)
            adj[iu].append(k)
            adj[iv].append(k + 1)
        else:
            res[k] += c
    return net, res, scale


def _solve(nodes: Iterable, arcs: Iterable[tuple[object, object, Rational]], s, t) -> MaxFlow:
    """Max-flow of one arc list: build its network (``_arc_network``) and
    solve it once."""
    net, res, scale = _arc_network(nodes, arcs)
    return net.solve(res, s, t, scale)


class ReferenceMaxFlow(MaxFlow):
    """``MaxFlow`` with the Dinic loop as it was before it pruned the other
    nodes at the sink's level ahead of each blocking flow."""

    __slots__ = ()

    def augment(self) -> None:
        """Push flow along shortest residual paths until the sink is cut off,
        then set ``value`` and ``source_side``."""
        adj, head, res, si, ti = self._net.adj, self._net.head, self._res, self._s, self._t
        while True:
            level = [-1] * len(adj)
            level[si] = 0
            queue = [si]
            for u in queue:
                below = level[u] + 1
                for k in adj[u]:
                    v = head[k]
                    if res[k] and level[v] < 0:
                        level[v] = below
                        queue.append(v)
                if level[ti] >= 0:
                    break
            else:
                nodes = self._net.nodes
                self.source_side: frozenset = frozenset(nodes[i] for i in queue)
                break
            self._total += _blocking_flow(adj, head, res, level, si, ti)
        total, scale = self._total, self.scale
        self.value: Rational = total if scale == 1 else Fraction(total, scale)



def _blocking_flow(adj, head, res, level, s: int, t: int) -> int:
    """Saturate every shortest s-t path of the level graph; returns the flow
    pushed.  Iterative DFS with one arc pointer per node: an arc is passed
    over only once it is saturated or leads to a dead end."""
    pointer = [0] * len(adj)
    path: list[int] = []
    pushed = 0
    u = s
    while True:
        if u == t:
            f = min(res[k] for k in path)
            pushed += f
            first = None
            for j, k in enumerate(path):
                res[k] -= f
                res[k ^ 1] += f
                if first is None and not res[k]:
                    first = j
            u = head[path[first] ^ 1]
            del path[first:]
            continue
        out = adj[u]
        i, end, below = pointer[u], len(out), level[u] + 1
        while i < end:
            k = out[i]
            if res[k] and level[head[k]] == below:
                break
            i += 1
        pointer[u] = i
        if i < end:
            path.append(out[i])
            u = head[out[i]]
        elif u == s:
            return pushed
        else:
            level[u] = -1
            u = head[path.pop() ^ 1]
            pointer[u] += 1


def net_flow(result: MaxFlow, u, v) -> Rational:
    """Exact flow from u to v less any flow from v to u (0 if no arc joins
    them) in a ``_solve`` result; arcs between the same two nodes share one
    pair."""
    k = result._net.arc.get((u, v))
    if k is None:
        return 0
    used = result.arc_flow(k)
    return used if result.scale == 1 else Fraction(used, result.scale)


def reference_smallest_min_cut(dag: DagOrientation, src: int | None = None, dst: int | None = None) -> CutPartition:
    """The min-cut whose source side has the fewest nodes (unique).

    Computed as the residual-reachable set after a max-flow; that set is
    contained in every min-cut source side, hence minimal and unique.
    """
    src = dag.net.source if src is None else src
    dst = dag.net.dest if dst is None else dst
    result = _solve(dag.net.nodes, dag.directed_edges(), src, dst)
    return CutPartition(
        source_side=result.source_side,
        capacity=result.value,
    )


def reference_converge(
    dag0: DagOrientation,
    rate: Rational,
    max_iters: int | None = None,
    record_overload: bool = True,
) -> ReversalTrace:
    """The earlier ``converge``: a cold max-flow on a fresh arc list for each
    step's smallest min-cut.  Iterate reversal steps until the orientation
    supports the rate or no link qualifies.  The trace keeps one entry per
    visited orientation."""
    if max_iters is None:
        max_iters = default_max_iters(dag0)
    entries: list[TraceEntry] = []
    dag = dag0
    for _ in range(max_iters + 1):
        cut = reference_smallest_min_cut(dag)
        overload = lex_min_overload(dag, rate) if record_overload else None
        if as_rational(rate) <= cut.capacity:
            entries.append(TraceEntry(dag, cut.capacity, None, (), overload))
            return ReversalTrace(entries)
        if not _has_usable_entering(dag, cut.source_side):
            # Nothing useful to reverse: the orientation already meets the
            # network max-flow and the excess rate is simply infeasible.
            entries.append(
                TraceEntry(dag, cut.capacity, cut.source_side, (), overload)
            )
            return ReversalTrace(entries)
        new_dag, flips = reverse_toward(dag, cut.source_side)
        entries.append(
            TraceEntry(dag, cut.capacity, cut.source_side, flips, overload)
        )
        dag = new_dag
    raise InvariantViolation(
        f"link reversal did not converge within {max_iters} iterations"
    )


def _has_usable_entering(dag: DagOrientation, inside) -> bool:
    return any(
        cap > 0
        for tail, head, cap in dag.directed_edges()
        if tail not in inside and head in inside
    )


def cut_capacity(dag: DagOrientation, side_a: Iterable[int], side_b: Iterable[int]) -> Rational:
    """Total capacity of live directed edges going from side_a into side_b."""
    side_a, side_b = set(side_a), set(side_b)
    if side_a & side_b:
        raise ValueError(f"cut sides overlap on {sorted(side_a & side_b)}")
    total: Rational = 0
    for tail, head, cap in dag.directed_edges():
        if tail in side_a and head in side_b:
            total += cap
    return total


def csv_rows(trace: ReversalTrace) -> list[dict]:
    """One row per trace entry, as ``ReversalTrace.csv_rows`` wrote them;
    ``k`` is the entry's index, the count of reversals that led to it."""
    rows = []
    for k, e in enumerate(trace.entries):
        rows.append(
            {
                "k": k,
                "max_flow": str(e.max_flow_value),
                "overloaded_size": len(e.overloaded) if e.overloaded else 0,
                "edges_reversed": len(e.reversed_edges),
                "reversed": ";".join(f"{u}->{v}" for u, v in e.reversed_edges),
            }
        )
    return rows


def write_csv(trace: ReversalTrace, path) -> None:
    rows = csv_rows(trace)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]) if rows else ["k"])
        writer.writeheader()
        writer.writerows(rows)


DEFAULT_RESCALE_EVERY = 32


@dataclass(frozen=True)
class PaperStates:
    """Per-node topological states under the paper's update rule: ``step``
    counts reversals since the last rescale and feeds the exponent of the
    drop 2^k * delta."""

    net: Network
    states: dict[int, Rational]
    step: int = 0
    delta: Rational = 1


def paper_states(net: Network, ranking: Mapping[int, Rational], delta: Rational | None = None) -> PaperStates:
    """The states an orientation by ``ranking`` started from: the ranking
    values themselves, with delta their span plus one unless given."""
    states = {n: ranking[n] for n in net.nodes}
    return PaperStates(net, states, 0, _span(states.values()) + 1 if delta is None else delta)


def paper_reverse_toward(paper: PaperStates, overloaded, rescale_every: int = DEFAULT_RESCALE_EVERY) -> PaperStates:
    """The states after a reversal toward ``overloaded`` that flipped a link."""
    paper = update_states_after_reversal(paper, overloaded, paper.step + 1, paper.delta)
    return maybe_rescale(paper, rescale_every)


def _span(values) -> Rational:
    vals = list(values)
    return max(vals) - min(vals) if vals else 0


def update_states_after_reversal(
    dag: PaperStates, overloaded: Iterable[int], k: int, delta: Rational
) -> PaperStates:
    """Drop overloaded nodes' states by 2^k * delta; leave the rest unchanged."""
    overloaded = set(overloaded)
    if not overloaded:
        return dag
    drop = (2 ** k) * delta
    states = {n: (x - drop if n in overloaded else x) for n, x in dag.states.items()}
    return replace(dag, states=states, step=k)


def rescale_states(dag: PaperStates, divisor: Rational) -> PaperStates:
    """Shrink all states by a positive divisor, preserving their order.

    Resets the reversal counter and picks a fresh delta exceeding the largest
    rescaled state difference, so the update rule can start doubling anew.
    """
    if divisor <= 0:
        raise ValueError(f"divisor must be positive, got {divisor}")
    states = {n: Fraction(x) / divisor for n, x in dag.states.items()}
    states = {n: as_rational(x) for n, x in states.items()}
    return replace(dag, states=states, step=0, delta=_span(states.values()) + 1)


def maybe_rescale(dag: PaperStates, rescale_every: int = DEFAULT_RESCALE_EVERY) -> PaperStates:
    """Rescale automatically once enough reversals have accumulated."""
    if rescale_every and dag.step >= rescale_every:
        span = _span(dag.states.values())
        n = max(len(dag.net.nodes), 1)
        divisor = Fraction(span, n) if span > n else 1
        return rescale_states(dag, divisor)
    return dag


def random_network(rng: random.Random, n_min=3, n_max=6, cap_max=4, p=0.5, max_edges=None):
    """Random undirected network on nodes 0..n-1 with source 0, dest n-1."""
    while True:
        n = rng.randint(n_min, n_max)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.randint(1, cap_max)))
        if not edges:
            continue
        if max_edges is not None and len(edges) > max_edges:
            continue
        touched = {v for i, j, _ in edges for v in (i, j)}
        if 0 in touched and n - 1 in touched:
            return Network.build(range(n), edges, 0, n - 1)


def random_orientation(rng: random.Random, net: Network):
    """Uniformly random acyclic orientation via a shuffled node ranking."""
    nodes = sorted(net.nodes)
    ranking = list(range(len(nodes)))
    rng.shuffle(ranking)
    return orient_by_ranking(net, {node: ranking[i] for i, node in enumerate(nodes)})


def exhaustive_smallest_min_cut(dag):
    """Enumerate every source-side subset; keep min capacity, then min size.

    Only usable on small node counts; this is the Definition-style oracle the
    residual-reachability implementation is checked against.
    """
    net = dag.net
    others = sorted(net.nodes - {net.source, net.dest})
    best_side = None
    best_cap = None
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            side = frozenset({net.source, *combo})
            cap = cut_capacity(dag, side, net.nodes - side)
            if (
                best_cap is None
                or cap < best_cap
                or (cap == best_cap and len(side) < len(best_side))
            ):
                best_cap = cap
                best_side = side
    return best_side, best_cap


def brute_force_max_flow(dag, src=None, dst=None, cap_limit=200_000):
    """Max feasible integral flow by direct enumeration over the live DAG.

    Walks nodes in topological order assigning integer flows per out-edge,
    subject to conservation (no node ships more than it received), and keeps
    the best terminal delivery.  Independent of the residual-graph solver.
    """
    net = dag.net
    src = net.source if src is None else src
    dst = net.dest if dst is None else dst
    arcs = [(u, v, int(c)) for u, v, c in dag.directed_edges() if u != dst]
    order = topological_order(net.nodes, [(u, v) for u, v, _ in arcs])
    assert order is not None
    outs = {n: [] for n in net.nodes}
    for u, v, c in arcs:
        outs[u].append((v, c))
    seq = [n for n in order if n != dst]
    total_cap = sum(c for _, _, c in arcs)
    inflow = {n: 0 for n in net.nodes}
    best = 0
    count = 0

    def descend(idx):
        nonlocal best, count
        count += 1
        if count > cap_limit:
            raise RuntimeError("oracle instance too large")
        if idx == len(seq):
            best = max(best, inflow[dst])
            return
        node = seq[idx]
        avail = inflow[node] + (total_cap if node == src else 0)

        def assign(e_idx, budget):
            if e_idx == len(outs[node]):
                descend(idx + 1)
                return
            head, cap = outs[node][e_idx]
            for f in range(min(cap, budget), -1, -1):
                inflow[head] += f
                assign(e_idx + 1, budget - f)
                inflow[head] -= f

        assign(0, avail)

    descend(0)
    return best


def reference_edge_plan(state):
    """Per-edge forwarding options ``(cap, ((y, tail, head), ...))``, ``None``
    for a dead link: the engine's earlier per-slot plan, rebuilt from the
    state's live mask, policy and orientations."""
    edge_plan = [None] * state.m
    ncom = len(state.commodities)
    for e_idx in range(state.m):
        if not state.live_mask[e_idx]:
            edge_plan[e_idx] = None
            continue
        a, b = state.edge_list[e_idx]
        ia, ib = state.idx[a], state.idx[b]
        cap = state.cap_int[e_idx]
        options = []
        if state.policy == "bp":
            for y in range(ncom):
                options.append((y, ia, ib))
                options.append((y, ib, ia))
        else:
            edge = state.edge_list[e_idx]
            for y, dag in enumerate(state.dags):
                if edge not in dag.live:
                    continue
                tail, head = direction(dag, edge)
                options.append((y, state.idx[tail], state.idx[head]))
        edge_plan[e_idx] = (cap, tuple(options))
    return edge_plan


def reference_bp_step(state):
    """The engine's earlier backpressure round: snapshot every queue vector,
    pick each live link's winner, then serve each tail's winners sorted by
    descending differential."""
    edge_plan = reference_edge_plan(state)
    queues = state.queues
    snaps = [q.copy() for q in queues]
    node_of = state.node_of
    sends_by_tail: dict[int, list] = {}
    for e_idx in state.live_order:
        cap, options = edge_plan[e_idx]
        best_d = 0
        best = None
        for y, u, v in options:
            d = snaps[y][u] - snaps[y][v]
            if d > best_d:
                best_d = d
                best = (y, u, v)
        if best is None:
            continue
        y, u, v = best
        sends_by_tail.setdefault(u, []).append((-best_d, node_of[v], y, v, cap))
    dst_idx = state.dst_idx
    delivered = state.delivered
    for u in sorted(sends_by_tail):
        plans = sends_by_tail[u]
        plans.sort()
        avail: dict[int, int] = {}
        for _negd, _vid, y, v, cap in plans:
            a = avail.get(y)
            if a is None:
                a = snaps[y][u]
            send = cap if cap < a else a
            if send <= 0:
                avail[y] = a
                continue
            avail[y] = a - send
            queues[y][u] -= send
            if v == dst_idx[y]:
                delivered[y] += send
                state.backlog_now -= send
            else:
                queues[y][v] += send
    return state


def reference_topology_step(state):
    """The engine's earlier topology round: each edge's flip probability is
    chosen from its live flag as it is drawn, one uniform per edge, in edge
    order; then the events are applied in the same order."""
    proc = state.topology
    if proc is None:
        return state
    rng_random = state.topo_rng.random
    fail, recover = proc.fail_prob, proc.recover_prob
    live = state.live_mask
    events = [i for i in range(state.m) if rng_random() < (fail if live[i] else recover)]
    if not events:
        return state
    dags, edge_list, apply = state.dags, state.edge_list, apply_topology_event
    for e_idx in events:
        kind = "remove" if live[e_idx] else "add"
        live[e_idx] = not live[e_idx]
        if dags is not None:
            edge = edge_list[e_idx]
            for y in range(len(dags)):
                dags[y] = apply(dags[y], kind, edge)
    state.topo_events += len(events)
    state.live_order = [i for i in range(state.m) if live[i]]
    state.rebuild_plans()
    return state


def run_recording_arrivals(monkeypatch, *args, **kwargs) -> list[list[int]]:
    """The arrival path of ``sim.run(*args, **kwargs)``: for every slot, the
    packets each commodity drew, recorded from each ``sim.bisect_left`` call
    (in ``sim`` only the arrival draw calls it, once per commodity per slot,
    in commodity order)."""
    search, draws = sim.bisect_left, []

    def recorded(*search_args):
        k = search(*search_args)
        draws.append(k)
        return k

    with monkeypatch.context() as patch:
        patch.setattr(sim, "bisect_left", recorded)
        report = sim.run(*args, **kwargs)
    ncom = len(report.arrivals_by_commodity)
    paths = [draws[i : i + ncom] for i in range(0, len(draws), ncom)]
    assert len(paths) == report.horizon
    assert all(len(path) == ncom for path in paths)
    assert [sum(counts) for counts in zip(*paths)] == list(report.arrivals_by_commodity)
    return paths


def reference_poisson_draws(rng: random.Random, mean: float, count: int) -> list[int]:
    """``count`` draws of the engine's earlier Poisson draw, which took one
    uniform and walked the CDF term by term from 0.

    All uniforms are taken first, in order; then one walk with the same
    recurrence and the same ``k > 100_000`` stop serves them in ascending
    order, so each gets the k its own walk from 0 would reach."""
    uniforms = [rng.random() for _ in range(count)]
    out = [0] * count
    if mean <= 0.0:
        return out
    p = math.exp(-mean)
    c = p
    k = 0
    for i in sorted(range(count), key=uniforms.__getitem__):
        u = uniforms[i]
        while u > c and k <= 100_000:  # the stop is numerically unreachable for desk-scale means
            k += 1
            p *= mean / k
            c += p
        out[i] = k
    return out


def _max_surplus_set(
    active: set[int],
    supply: Mapping[int, Rational],
    arcs: list[tuple[int, int, Rational]],
    absorb: Mapping[int, Rational],
    tau: Rational,
):
    """Maximize supply(S) - cutcap(S) - tau*|S| over S within the active set.

    Encoded as a min-cut: a super-source feeds each node its supply, each node
    may leak tau (plus its absorption capacity) to a super-sink, and internal
    arcs are kept.  Returns (max value, maximal maximizing set).
    """
    SRC, SINK = object(), object()
    ordered = sorted(active)
    aux_nodes = ordered + [SRC, SINK]
    aux_arcs: list = []
    total_supply: Rational = 0
    for n in ordered:
        sup = supply.get(n, 0)
        if sup > 0:
            aux_arcs.append((SRC, n, sup))
            total_supply += sup
        leak = absorb.get(n, 0) + tau
        if leak > 0:
            aux_arcs.append((n, SINK, leak))
    aux_arcs.extend(arcs)
    result = _solve(aux_nodes, aux_arcs, SRC, SINK)
    return total_supply - result.value, result.maximal_source_side() - {SRC}


def _surplus(
    subset: set[int],
    active: set[int],
    supply: Mapping[int, Rational],
    arcs: list[tuple[int, int, Rational]],
    absorb: Mapping[int, Rational],
) -> Rational:
    total = sum(supply.get(n, 0) for n in subset)
    total -= sum(absorb.get(n, 0) for n in subset)
    for u, v, c in arcs:
        if u in subset and v in active and v not in subset:
            total -= c
    return total


def _lex_min_rates(dag: DagOrientation, rate: Rational) -> dict[int, Rational]:
    """Water-filling: repeatedly peel the maximal set of maximum mean surplus.

    Each peeled set is forced to a common growth rate (the mean surplus
    density); its outgoing links saturate, feeding the remaining nodes as
    extra supply, and levels strictly decrease until all surplus is zero.
    """
    net = dag.net
    dest = net.dest
    rates: dict[int, Rational] = {n: 0 for n in net.nodes}
    active = set(net.nodes) - {dest}
    supply: dict[int, Rational] = {n: 0 for n in active}
    supply[net.source] = rate
    absorb: dict[int, Rational] = {n: 0 for n in active}
    arcs = []
    for u, v, c in _fluid_arcs(dag):
        if v == dest:
            absorb[u] += c
        else:
            arcs.append((u, v, c))

    while active:
        value, top = _max_surplus_set(active, supply, arcs, absorb, 0)
        if value <= 0:
            break
        tau = Fraction(_surplus(top, active, supply, arcs, absorb)) / len(top)
        guard = len(active) + 2
        while True:
            guard -= 1
            if guard < 0:
                raise InvariantViolation("density search failed to converge")
            gap, cand = _max_surplus_set(active, supply, arcs, absorb, tau)
            if gap > 0 and cand:
                tau = Fraction(_surplus(cand, active, supply, arcs, absorb)) / len(cand)
                continue
            top = cand
            break
        if not top or tau <= 0:
            raise InvariantViolation("positive surplus but empty peel set")
        for n in top:
            rates[n] = as_rational(tau)
        # Saturated outgoing links become supply for the rest; links into the
        # peeled set carry nothing and disappear with it.
        for u, v, c in arcs:
            if u in top and v not in top:
                supply[v] += c
        arcs = [(u, v, c) for u, v, c in arcs if u not in top and v not in top]
        active -= top
    return rates


def _inducing_flow(dag: DagOrientation, rate: Rational, rates: Mapping[int, Rational]) -> FlowAllocation:
    """Recover a feasible flow whose conservation residues equal the rates."""
    net = dag.net
    src, dest = net.source, net.dest
    arcs = _fluid_arcs(dag)
    SRC, SINK = object(), object()
    aux = []
    needed: Rational = 0
    for n in net.nodes:
        if n == dest:
            continue
        balance = (rate if n == src else 0) - rates[n]  # net amount n must push out
        if balance > 0:
            aux.append((SRC, n, balance))
            needed += balance
        elif balance < 0:
            aux.append((n, SINK, -balance))
    aux.append((dest, SINK, needed))
    aux.extend(arcs)
    result = _solve(list(net.nodes) + [SRC, SINK], aux, SRC, SINK)
    if result.value != needed:
        raise InvariantViolation("overload rates admit no inducing flow")
    flow = {}
    delivered: Rational = 0
    for u, v, c in dag.directed_edges():
        if u == dest:
            flow[(u, v)] = 0
            continue
        used = net_flow(result, u, v)
        flow[(u, v)] = as_rational(used)
        if v == dest:
            delivered += used
    # The extracted flow must reproduce the rates exactly via conservation.
    div: dict[int, Rational] = {n: 0 for n in net.nodes}
    for (u, v), f in flow.items():
        div[u] += f
        div[v] -= f
    for n in net.nodes:
        if n == dest:
            continue
        induced = (rate if n == src else 0) - div[n]
        if induced != rates[n]:
            raise InvariantViolation(
                f"inducing flow mismatch at node {n}: {induced} != {rates[n]}"
            )
    return FlowAllocation(flow=flow, value=as_rational(delivered))


def reference_lex_min_overload(dag: DagOrientation, rate: Rational) -> OverloadVector:
    """The earlier ``lex_min_overload``: one fresh max-flow network per
    density guess, surplus recomputed over every arc."""
    rate = as_rational(rate)
    rates = _lex_min_rates(dag, rate)
    return OverloadVector(rates=rates, inducing_flow=_inducing_flow(dag, rate, rates))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
