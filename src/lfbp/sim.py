"""Slot-driven stochastic simulation: arrivals, backpressure forwarding,
random link failures, and per-run metrics.

The engine is synchronous: every transmission of a slot is decided from the
start-of-slot queue values (after that slot's arrivals).  The step reads a
snapshot of the queues and applies every send to the live queues as soon as
it is decided.  The updates are sums, so the order in which they are applied
cannot change the result.  Queues hold integer packets, so capacities must be
integers here; the analytical modules accept general rationals.

Policies: ``bp`` is classical backpressure on the bidirected live network
(loop-prone); ``lfbp`` constrains forwarding to a per-commodity acyclic
orientation maintained by threshold-driven link reversals.

The links a slot reads change only when the orientation or the live mask
does, so ``SimState.rebuild_plans`` compiles them into a forwarding plan at
those moments, not every slot.  With several commodities a link offers one
option per commodity; under ``bp`` the contest computes its differential
once and takes whichever direction it favours.  Poisson arrivals come from a
CDF table built once per commodity.

``run`` is one slot loop: it draws the arrivals and marks the queues above
the threshold inline, and forwards one commodity through ``_forward_one`` and
several through ``_step_many``.  Its records stay raw: each commodity's
marks are a set of node indices, and each trace bucket is a tuple of numbers
that ``cli`` formats.  ``arrivals_step``, ``bp_step``,
``protocol.mark_step`` and ``topology_step`` are the step-by-step API for code
that drives a ``SimState`` itself, as the benchmark's traced replay and the
tests do; ``bp_step`` forwards through the same two functions as ``run``.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .graph import DagOrientation, Network, apply_topology_event, initial_dag, orient_explicit
from .protocol import LfbpParams, epoch_reversal
from .reversal import optimal_dag


@dataclass(frozen=True)
class CommoditySpec:
    """One source-destination traffic demand with a Poisson arrival rate."""

    id: int
    source: int
    dest: int
    rate: float  # base packets/slot, scaled by the load factor at run time
    dummy_packets: int = 0

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError(f"commodity {self.id}: source equals destination")
        if self.rate < 0:
            raise ValueError(f"commodity {self.id}: negative rate")
        if self.dummy_packets < 0:
            raise ValueError(f"commodity {self.id}: negative dummy packet count")


@dataclass(frozen=True)
class TopologyProcess:
    """Per-slot independent link failure/recovery probabilities."""

    fail_prob: float
    recover_prob: float

    def __post_init__(self):
        for name in ("fail_prob", "recover_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")


@dataclass
class MetricsReport:
    scenario: str
    policy: str
    rho: float
    seed: int
    horizon: int
    arrivals: int
    delivered: int
    delivered_net: int
    avg_backlog: float
    avg_backlog_net: float
    final_backlog: int
    reversal_events: int
    edges_reversed: int
    topo_events: int
    live_fraction: float
    delivered_by_commodity: tuple[int, ...]
    arrivals_by_commodity: tuple[int, ...]
    reversal_log: list = field(default_factory=list)
    # (slot, average backlog, delivered, edges reversed, live links) per bucket
    buckets: list = field(default_factory=list)
    final_dags: tuple | None = None

    def to_row(self) -> dict:
        """One summary CSV row: the ``SUMMARY_FIELDS`` attributes, floats as
        their ``repr``."""
        row = {}
        for name in SUMMARY_FIELDS:
            value = getattr(self, name)
            row[name] = repr(value) if isinstance(value, float) else value
        return row


SUMMARY_FIELDS = [
    "scenario",
    "policy",
    "rho",
    "seed",
    "horizon",
    "arrivals",
    "delivered",
    "delivered_net",
    "avg_backlog",
    "avg_backlog_net",
    "final_backlog",
    "reversal_events",
    "edges_reversed",
    "topo_events",
    "live_fraction",
]


# Largest Poisson mean an arrival stream accepts: above it exp(-mean), the
# first term of the CDF, is no longer a normal float.
MAX_POISSON_MEAN = 700


def check_load(commodities, rho: float) -> None:
    """Raise ``ValueError`` unless the load factor is finite and positive and
    every commodity's Poisson mean ``rate x rho`` is at most
    ``MAX_POISSON_MEAN``."""
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"load factor must be finite and positive, got {rho}")
    for c in commodities:
        if c.rate * rho > MAX_POISSON_MEAN:
            raise ValueError(
                f"commodity {c.id}: Poisson mean rate x load = {c.rate * rho} exceeds {MAX_POISSON_MEAN}"
            )


def _stream(seed, label: str) -> random.Random:
    return random.Random(f"{seed}|{label}")


def poisson_cdf(mean: float) -> list[float]:
    """Cumulative Poisson probabilities ``table[k] = P(X <= k)`` as floats,
    summed term by term from ``exp(-mean)`` until the sum stops changing.

    Above ``MAX_POISSON_MEAN`` the first term ``exp(-mean)`` is no longer a
    normal float (it is 0.0 from about 745 on), so such a mean is rejected.
    """
    if not 0.0 <= mean <= MAX_POISSON_MEAN:
        raise ValueError(f"Poisson mean must be in [0, {MAX_POISSON_MEAN}], got {mean}")
    p = math.exp(-mean)
    c = p
    table = [c]
    k = 0
    while True:
        k += 1
        p *= mean / k
        if c + p == c:
            return table
        c += p
        table.append(c)


class SimState:
    """Mutable per-run simulation state; one writer, never shared."""

    def __init__(
        self,
        net: Network,
        commodities: list[CommoditySpec],
        policy: str,
        rho: float,
        seed,
        *,
        topology: TopologyProcess | None = None,
        initial_dags: list[DagOrientation] | None = None,
        dummies: list[int] | None = None,
    ):
        if policy not in ("bp", "lfbp"):
            raise ValueError(f"unknown policy {policy!r}")
        if policy == "lfbp" and not initial_dags:
            raise ValueError("lfbp policy requires per-commodity initial orientations")
        check_load(commodities, rho)
        self.commodities = commodities
        self.policy = policy
        self.two_way = policy == "bp"
        self.topology = topology

        self.node_of = sorted(net.nodes)
        self.idx = {node: i for i, node in enumerate(self.node_of)}
        self.n = len(self.node_of)
        self.edge_list = sorted(net.capacity)
        self.m = len(self.edge_list)
        self.cap_int = []
        for e in self.edge_list:
            cap = Fraction(net.capacity[e])
            if cap.denominator != 1:
                raise ValueError(
                    f"simulator requires integer capacities; edge {e} has {cap}"
                )
            self.cap_int.append(int(cap))

        ncom = len(commodities)
        self.src_idx = [self.idx[c.source] for c in commodities]
        self.dst_idx = [self.idx[c.dest] for c in commodities]
        self.cdfs = [poisson_cdf(rho * c.rate) for c in commodities]
        self.queues = [[0] * self.n for _ in range(ncom)]
        self.dummies = list(dummies) if dummies is not None else [c.dummy_packets for c in commodities]
        self.backlog_now = 0
        for y, d in enumerate(self.dummies):
            self.queues[y][self.src_idx[y]] += d
            self.backlog_now += d

        self.dags = list(initial_dags) if initial_dags is not None else None
        if self.dags is not None:
            live0 = self.dags[0].live
            for dag in self.dags:
                if dag.live != live0:
                    raise ValueError("all commodity orientations must share one live mask")
            self.live_mask = [e in live0 for e in self.edge_list]
        else:
            self.live_mask = [True] * self.m
        self.live_order = [i for i in range(self.m) if self.live_mask[i]]
        # With a topology process, each edge's chance of changing state this
        # slot: fail while live, recover while dead.  ``topology_step`` keeps
        # it in step with ``live_mask``.
        if topology is not None:
            self.flip_prob = [topology.fail_prob if x else topology.recover_prob for x in self.live_mask]

        # Per commodity, the indices of the nodes marked this epoch.
        self.marks = [set() for _ in range(ncom)]
        self.epoch = 0
        self.epoch_left = 0  # set by the lfbp driver

        self.arr_rngs = [_stream(seed, f"arrivals|{c.id}") for c in commodities]
        self.topo_rng = _stream(seed, "topology")

        self.t = 0
        self.arrivals = [0] * ncom
        self.delivered = [0] * ncom
        # Summed by code that steps a state itself; ``run`` sums in locals.
        self.backlog_integral = 0
        self.backlog_net_integral = 0
        self.live_integral = 0
        self.reversal_events = 0
        self.edges_reversed = 0
        self.topo_events = 0
        self.reversal_log: list = []

        self.rebuild_plans()

    def rebuild_plans(self) -> None:
        """Compile the forwarding plan that ``run``'s slot loop and ``bp_step``
        read.

        Run at init and whenever the orientation or the live mask changes.
        Each live link offers one arc ``(y, a, b)`` per commodity it may
        carry: under ``bp`` every commodity, oriented as the link is listed,
        and the link may send either way (``two_way``); under ``lfbp`` each
        commodity's DAG direction only, from its lower-ranked end to its
        higher (every commodity's DAG has the live set of ``live_order``).
        With one commodity the arcs are grouped by tail as
        ``(u, ((v, cap), ...))``, a two-way link under both endpoints; with
        several, each link keeps its options
        ``(queues[y], a, b, y)``, commodity ascending, as ``(cap, options)``.
        A zero-capacity link never sends, so it is left out.
        """
        idx, two_way = self.idx, self.two_way
        links = []
        for e_idx in self.live_order:
            cap = self.cap_int[e_idx]
            if not cap:
                continue
            a, b = self.edge_list[e_idx]
            ia, ib = idx[a], idx[b]
            if two_way:
                arcs = [(y, ia, ib) for y in range(len(self.commodities))]
            else:
                arcs = [
                    (y, ia, ib) if dag.states[a] < dag.states[b] else (y, ib, ia)
                    for y, dag in enumerate(self.dags)
                ]
            if arcs:
                links.append((cap, arcs))
        if len(self.commodities) == 1:
            by_tail: dict[int, list] = {}
            for cap, arcs in links:
                for _y, u, v in arcs:
                    by_tail.setdefault(u, []).append((v, cap))
                    if two_way:
                        by_tail.setdefault(v, []).append((u, cap))
            self.plans = [(u, tuple(by_tail[u])) for u in sorted(by_tail)]
        else:
            queues = self.queues
            self.plans = [
                (cap, tuple((queues[y], a, b, y) for y, a, b in arcs))
                for cap, arcs in links
            ]


def arrivals_step(state: SimState) -> SimState:
    """Inject Poisson arrivals at each commodity's source by CDF inversion.

    Each commodity consumes exactly one uniform per slot, even at mean 0, so
    parallel runs stay on identical sample paths.  The draw is the smallest k
    with ``u <= table[k]`` in the commodity's ``poisson_cdf`` table; a uniform
    above the table's last entry (probability about 1e-16) takes the last k.
    """
    for y, table in enumerate(state.cdfs):
        k = bisect_left(table, state.arr_rngs[y].random(), 0, len(table) - 1)
        if k:
            state.queues[y][state.src_idx[y]] += k
            state.arrivals[y] += k
            state.backlog_now += k
    return state


def bp_step(state: SimState) -> SimState:
    """One backpressure transmission round.

    Per live link, the commodity (and direction) with the largest positive
    queue differential wins the slot, the lower commodity on a tie.  Each
    tail then serves its winning links in descending differential order
    (ties to the lower neighbour ID, then the lower commodity) without
    overdrawing its start-of-slot backlog of that commodity.  Every send is
    decided from the queues as they stood before the step; a packet sent to
    its destination is delivered.

    With one commodity there is no contest on a link.  A tail whose winning
    capacities sum to at most its backlog sends each in full; a contended
    tail sorts its winners and stops once its backlog is spent.  What lands
    at the destination is delivered; the destination keeps what it held and
    did not send (a hand-built state may leave packets there).

    With several commodities, a commodity's option on a link yields
    ``d = q[a] - q[b]``: ``a -> b`` wins when ``d`` beats the best so far,
    and on a two-way (``bp``) link ``b -> a`` when ``-d`` does.  At most one
    of the two is positive, so a strict comparison in commodity order keeps
    the lower commodity on a tie.  One sort over all winners, keyed by tail
    first, puts each tail's winners in serving order.
    """
    if len(state.commodities) == 1:
        gone = _forward_one(state.queues[0], state.plans, state.dst_idx[0])
        state.delivered[0] += gone
    else:
        gone = _step_many(state)
    state.backlog_now -= gone
    return state


def _forward_one(q: list[int], plans: list, dst: int) -> int:
    """One commodity's transmission round over the queues ``q`` by the
    one-commodity ``plans``; returns the packets delivered at ``dst``."""
    q0 = q[:]
    dst_sent = 0
    for u, arcs in plans:
        qu = q0[u]
        if not qu:
            continue
        total = 0
        for v, cap in arcs:
            if q0[v] < qu:
                total += cap
        if not total:
            continue
        if total <= qu:
            for v, cap in arcs:
                if q0[v] < qu:
                    q[v] += cap
        else:
            # The winners overdraw the backlog, so all of it goes, in descending
            # differential order, ties to the lower node (indices follow IDs).
            total = avail = qu
            for _qv, v, cap in sorted([(q0[v], v, cap) for v, cap in arcs if q0[v] < qu]):
                if cap < avail:
                    q[v] += cap
                    avail -= cap
                else:
                    q[v] += avail
                    break
        q[u] -= total
        if u == dst:
            dst_sent = total
    # Whatever reached the destination this slot is delivered.
    kept = q0[dst] - dst_sent
    gone = q[dst] - kept
    q[dst] = kept
    return gone


def _step_many(state: SimState) -> int:
    """The several-commodity round of ``bp_step``; returns the packets
    delivered."""
    two_way = state.two_way
    wins = []
    for cap, options in state.plans:
        best_d = 0
        for q, a, b, y in options:
            d = q[a] - q[b]
            if d > best_d:
                best_d, u, v, best_y = d, a, b, y
            elif two_way and -d > best_d:
                best_d, u, v, best_y = -d, b, a, y
        if best_d:
            wins.append((u, -best_d, v, best_y, cap))
    # One sort groups the winners by tail, in serving order (indices follow IDs).
    wins.sort()
    queues = state.queues
    avail = [q[:] for q in queues]
    dst_idx, delivered = state.dst_idx, state.delivered
    gone = 0
    for u, _negd, v, y, cap in wins:
        left = avail[y]
        a = left[u]
        send = cap if cap < a else a
        if send > 0:
            left[u] = a - send
            queue = queues[y]
            queue[u] -= send
            if v == dst_idx[y]:
                delivered[y] += send
                gone += send
            else:
                queue[v] += send
    return gone


def topology_step(state: SimState) -> SimState:
    """Fail live links / revive dead ones; one uniform draw per edge per slot
    regardless of state, so sample paths are comparable across runs.

    The draws are taken first, in edge order, each against that edge's entry
    of ``state.flip_prob``; then the events are applied in the same order,
    each updating its edge's entry."""
    proc = state.topology
    if proc is None:
        return state
    rng_random = state.topo_rng.random
    flip_prob = state.flip_prob
    events = [i for i, p in enumerate(flip_prob) if rng_random() < p]
    if not events:
        return state
    live = state.live_mask
    dags, edge_list, apply = state.dags, state.edge_list, apply_topology_event
    for e_idx in events:
        kind = "remove" if live[e_idx] else "add"
        live[e_idx] = not live[e_idx]
        flip_prob[e_idx] = proc.fail_prob if live[e_idx] else proc.recover_prob
        if dags is not None:
            edge = edge_list[e_idx]
            for y in range(len(dags)):
                dags[y] = apply(dags[y], kind, edge)
    state.topo_events += len(events)
    state.live_order = [i for i in range(state.m) if live[i]]
    state.rebuild_plans()
    return state


def initial_orientation(net: Network, mode) -> DagOrientation:
    """The starting orientation a scenario's ``initial_dag`` names: "by_id",
    "optimal" or explicit (tail, head) pairs."""
    if mode == "by_id":
        return initial_dag(net)
    if mode == "optimal":
        return optimal_dag(net)
    if isinstance(mode, (list, tuple)):
        return orient_explicit(net, mode)
    raise ValueError(f"unknown initial orientation mode {mode!r}")


def build_initial_dags(config, policy: str) -> list[DagOrientation] | None:
    """Per-commodity starting orientations for the lfbp policy, each built on
    the network with that commodity's endpoints."""
    if policy != "lfbp":
        return None
    return [
        initial_orientation(replace(config.network, source=c.source, dest=c.dest), config.initial_dag)
        for c in config.commodities
    ]


def run(
    config,
    policy: str,
    horizon: int | None = None,
    *,
    rho: float | None = None,
    seed=None,
    bucket: int = 0,
) -> MetricsReport:
    """Simulate one (policy, load, seed) cell of a scenario.

    Identical (config, seed) pairs produce identical trajectories, and the
    arrival streams depend only on (seed, commodity), so bp and lfbp runs
    consume the same arrival sample paths.
    """
    horizon = config.horizon if horizon is None else horizon
    rho = config.load_factors[0] if rho is None else rho
    seed = config.seeds[0] if seed is None else seed
    lfbp = policy == "lfbp"

    params = None
    dummies = None
    if lfbp:
        params = config.lfbp_params or LfbpParams()
        extra = int(config.dummy_scale / rho) if config.dummy_scale else 0
        dummies = [c.dummy_packets + extra for c in config.commodities]

    state = SimState(
        config.network,
        config.commodities,
        policy,
        rho,
        seed,
        topology=config.topology,
        initial_dags=build_initial_dags(config, policy),
        dummies=dummies,
    )
    if lfbp:
        state.epoch_left = params.period(0)

    # One slot loop, with no call per slot into the step functions: the
    # arrival draws and the marking run inline, and one commodity is forwarded
    # by ``_forward_one``, several by ``_step_many``.  ``epoch_reversal`` and
    # ``topology_step`` replace ``plans``, so it is read where it is used;
    # ``epoch_reversal`` clears the mark sets in place, so they are read once.
    # The backlog is kept in a local, and ``state.t`` is set only for
    # ``epoch_reversal``, which logs it: nothing else the loop calls reads
    # either.  ``delivered`` only rises, so the startup debt (the dummies not
    # yet delivered) is summed only until it reaches 0.  Only ``topology_step``
    # changes the live set, so its size is a local refreshed after that call.
    one = len(config.commodities) == 1
    queues, arrivals, dummies, delivered = state.queues, state.arrivals, state.dummies, state.delivered
    draws = [
        (y, rng.random, table, len(table) - 1, queues[y], state.src_idx[y])
        for y, (rng, table) in enumerate(zip(state.arr_rngs, state.cdfs))
    ]
    _y, draw0, table0, last0, queue0, src0 = draws[0]
    dst0, marks, marks0 = state.dst_idx[0], state.marks, state.marks[0]
    limit = params.threshold(state.epoch) if lfbp else None
    topology = state.topology is not None
    debt = sum(dummies)
    backlog = state.backlog_now
    live = len(state.live_order)
    backlog_integral = debt_integral = live_integral = 0
    buckets = []
    bucket_backlog = 0
    for t in range(horizon):
        if one:
            k = bisect_left(table0, draw0(), 0, last0)
            if k:
                queue0[src0] += k
                arrivals[0] += k
                backlog += k
            gone = _forward_one(queue0, state.plans, dst0)
            delivered[0] += gone
            backlog -= gone
            if lfbp and max(queue0) > limit:
                for i, packets in enumerate(queue0):
                    if packets > limit:
                        marks0.add(i)
        else:
            for y, draw, table, last, queue, src in draws:
                k = bisect_left(table, draw(), 0, last)
                if k:
                    queue[src] += k
                    arrivals[y] += k
                    backlog += k
            backlog -= _step_many(state)
            if lfbp:
                for queue, marked in zip(queues, marks):
                    if max(queue) > limit:
                        for i, packets in enumerate(queue):
                            if packets > limit:
                                marked.add(i)
        if lfbp:
            state.epoch_left -= 1
            if state.epoch_left <= 0:
                state.t = t
                epoch_reversal(state, params)
                limit = params.threshold(state.epoch)
        if topology:
            topology_step(state)
            live = len(state.live_order)
        backlog_integral += backlog
        if debt:
            debt = sum(d - got for d, got in zip(dummies, delivered) if d > got)
            debt_integral += debt
        live_integral += live
        if bucket:
            bucket_backlog += backlog
            # A bucket ends every ``bucket`` slots, and the last at the horizon.
            if (t + 1) % bucket == 0 or t + 1 == horizon:
                buckets.append((t + 1, bucket_backlog / (t % bucket + 1), sum(delivered), state.edges_reversed, live))
                bucket_backlog = 0

    total_del = sum(delivered)
    return MetricsReport(
        scenario=getattr(config, "name", ""),
        policy=policy,
        rho=rho,
        seed=seed,
        horizon=horizon,
        arrivals=sum(state.arrivals),
        delivered=total_del,
        delivered_net=max(0, total_del - sum(dummies)),
        avg_backlog=(backlog_integral / horizon) if horizon else 0.0,
        avg_backlog_net=((backlog_integral - debt_integral) / horizon) if horizon else 0.0,
        final_backlog=backlog,
        reversal_events=state.reversal_events,
        edges_reversed=state.edges_reversed,
        topo_events=state.topo_events,
        live_fraction=(live_integral / (horizon * state.m)) if horizon and state.m else 1.0,
        delivered_by_commodity=tuple(state.delivered),
        arrivals_by_commodity=tuple(state.arrivals),
        reversal_log=state.reversal_log,
        buckets=buckets,
        final_dags=tuple(state.dags) if state.dags is not None else None,
    )
