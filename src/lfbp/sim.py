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
those moments, not every slot.  Every commodity count is forwarded by one
straight-line kernel, ``SimState.forward``, generated and compiled once per
(node count, destinations, links) and kept in the bounded cache of
``_kernel``, with a local per (commodity, queue).  A commodity's destination
never sends: its local reads 0, no send out of it is emitted, and whatever
sits there when the round ends is delivered.  With one commodity the kernel
tests every arc, both directions of every link, and sums each tail's
winners.  With several, each link's contest is followed by one dispatch that
sends the winner at once, and each (commodity, tail) then pays one test that
its sends fit its backlog.  A tail whose winners overdraw its backlog finds its first winner,
the least (q[v], v), with one test per arc in ascending head order, and
sends it the whole backlog when its capacity covers it; only when it falls
short does ``_overdrawn`` sort the winners.  The source holds only node and
arc indices; the plan is its data, a capacity per (arc, commodity), 0 where
that commodity may not send on that arc.  To read it:
``print(_kernel_source(state.n, tuple(state.dst_idx), state.edge_nodes))``.
Poisson arrivals come from a CDF table built once per commodity.

Link churn draws one uniform per edge per slot, as ``random()`` would, but
reads all of a slot's from one ``getrandbits(64 * m)``: edge ``i``'s is the
two Mersenne Twister words of 64-bit lane ``i``.  A filter over the whole
integer flags every lane whose draw may fall below its bound, and only
flagged lanes get the exact integer check (``topology_step``).

``run`` is one slot loop: it draws the arrivals, marks the queues above the
threshold and filters the churn draw inline, and forwards through the
kernel.  Its records stay raw: each commodity's marks are a set of node
indices, and each trace bucket is a tuple of numbers that ``cli`` formats.
``arrivals_step``, ``bp_step``, ``protocol.mark_step`` and ``topology_step``
are the step-by-step API for code that drives a ``SimState`` itself, as the
benchmark's traced replay and the tests do; ``bp_step`` forwards through the
same kernel as ``run``, and ``topology_step`` churns through the same
``_churn``.
"""
from __future__ import annotations

import functools
import math
import random
import sys
from bisect import bisect_left
from fractions import Fraction

from .graph import DagOrientation, Network, Value, apply_topology_event, initial_dag, orient_explicit
from .protocol import LfbpParams, epoch_reversal
from .reversal import optimal_dag


class CommoditySpec(Value):
    """One source-destination traffic demand with a Poisson arrival rate;
    ``rate`` is in base packets/slot, scaled by the load factor at run time."""

    __slots__ = ("id", "source", "dest", "rate", "dummy_packets")

    def __init__(self, id: int, source: int, dest: int, rate: float, dummy_packets: int = 0):
        if source == dest:
            raise ValueError(f"commodity {id}: source equals destination")
        if not 0 <= rate < math.inf:
            raise ValueError(f"commodity {id}: rate must be finite and nonnegative, got {rate}")
        if dummy_packets < 0:
            raise ValueError(f"commodity {id}: dummy_packets must be nonnegative, got {dummy_packets}")
        self._set(id, source, dest, rate, dummy_packets)


class TopologyProcess(Value):
    """Per-slot independent link failure/recovery probabilities."""

    __slots__ = ("fail_prob", "recover_prob")

    def __init__(self, fail_prob: float, recover_prob: float):
        for name, p in zip(self.__slots__, (fail_prob, recover_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {p}")
        self._set(fail_prob, recover_prob)


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


class MetricsReport(Value):
    """One run's summary (the ``SUMMARY_FIELDS``), per-commodity counts, the
    reversal log, one (slot, average backlog, delivered, edges reversed,
    live links) tuple per trace bucket, and the final orientations."""

    __slots__ = (*SUMMARY_FIELDS, "delivered_by_commodity", "arrivals_by_commodity", "reversal_log", "buckets",
                 "final_dags")

    def __init__(self, scenario: str, policy: str, rho: float, seed: int, horizon: int, arrivals: int,
                 delivered: int, delivered_net: int, avg_backlog: float, avg_backlog_net: float, final_backlog: int,
                 reversal_events: int, edges_reversed: int, topo_events: int, live_fraction: float,
                 delivered_by_commodity: tuple[int, ...], arrivals_by_commodity: tuple[int, ...],
                 reversal_log: list | None = None, buckets: list | None = None, final_dags: tuple | None = None):
        self._set(scenario, policy, rho, seed, horizon, arrivals, delivered, delivered_net, avg_backlog,
                  avg_backlog_net, final_backlog, reversal_events, edges_reversed, topo_events, live_fraction,
                  delivered_by_commodity, arrivals_by_commodity, [] if reversal_log is None else reversal_log,
                  [] if buckets is None else buckets, final_dags)

    def to_row(self) -> dict:
        """One summary CSV row: the ``SUMMARY_FIELDS`` attributes, unchanged."""
        return {name: getattr(self, name) for name in SUMMARY_FIELDS}


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


def startup_packets(commodities, dummy_scale, rho: float) -> list[int]:
    """Each commodity's startup packets at load ``rho``: its ``dummy_packets``,
    plus ``floor(dummy_scale / rho)`` when ``dummy_scale`` is set.  Raise
    ``ValueError`` when a set ``dummy_scale`` is not finite and nonnegative,
    or when ``dummy_scale / rho``, or the packets summed over the commodities,
    are beyond the float range: a run's average backlog is about that sum."""
    if dummy_scale is not None and not (math.isfinite(dummy_scale) and dummy_scale >= 0):
        raise ValueError(f"dummy_scale must be finite and nonnegative, got {dummy_scale}")
    each = 0
    if dummy_scale:
        each = dummy_scale / rho if rho else math.inf
        if not math.isfinite(each):
            raise ValueError(f"dummy_scale / load = {dummy_scale} / {rho} is beyond the float range")
        each = int(each)
    packets = [c.dummy_packets + each for c in commodities]
    if sum(packets) > sys.float_info.max:
        raise ValueError(
            "the startup packets summed over the commodities, dummy_packets plus "
            "floor(dummy_scale / load) each, are beyond the float range"
        )
    return packets


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
        if not commodities:
            raise ValueError("at least one commodity required")
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
        # With a topology process: the bounds a 53-bit draw must fall below
        # to fail a live edge or revive a dead one, and the lane filter's
        # masks and floor (``topology_step``).
        if topology is not None:
            self.fail_bound = _draw_bound(topology.fail_prob)
            self.recover_bound = _draw_bound(topology.recover_prob)
            self.churn_lanes = int.from_bytes(b"\0\0\xff\xff\0\0\0\0" * self.m, "little")
            self.churn_signs = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * self.m, "little")
            self.churn_floor = _churn_floor(self)

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

        # Forwarding runs through a kernel compiled for the links and the
        # destinations; ``rebuild_plans`` gives it each capacity.
        self.edge_nodes = tuple((self.idx[a], self.idx[b]) for a, b in self.edge_list)
        self.forward = _kernel(self.n, tuple(self.dst_idx), self.edge_nodes)
        self.rebuild_plans()

    def rebuild_plans(self) -> None:
        """Compile the forwarding plan that ``forward`` reads.

        Run at init and whenever the orientation or the live mask changes.
        The plan is one capacity per (arc, commodity), 0 where that commodity
        may not send on that arc: edge ``e`` is arcs ``2e`` and ``2e + 1``
        (its reverse), and commodity ``y`` of ``ncom`` is entry
        ``k * ncom + y`` of arc ``k``.  Under ``bp`` every live link sends
        both ways (``two_way``); under ``lfbp`` each commodity sends along its
        DAG, from the lower-ranked end to the higher (every commodity's DAG
        has the live set of ``live_order``).
        """
        ncom = len(self.commodities)
        caps = [0] * (2 * self.m * ncom)
        for e in self.live_order:
            cap = self.cap_int[e]
            if self.two_way:
                caps[2 * e * ncom : (2 * e + 2) * ncom] = [cap] * (2 * ncom)
                continue
            a, b = self.edge_list[e]
            for y, dag in enumerate(self.dags):
                caps[(2 * e + (not dag.states[a] < dag.states[b])) * ncom + y] = cap
        self.plans = tuple(caps)


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
    decided from the queues as they stood before the step.

    A tail whose winning capacities of a commodity sum to at most its
    backlog of that commodity sends each in full; a contended one sorts its
    winners and stops once its backlog is spent.  Each commodity is served
    from its own backlog, so the order across commodities at one tail does
    not matter.  A commodity's destination never sends: the step reads its
    queue as 0.  Whatever sits there when the round ends is delivered, with
    what a hand-built state left there (``run`` never leaves any).

    With one commodity there is no contest on a link.  With several, a
    commodity's turn on a link yields ``d = q[a] - q[b]``: ``a -> b`` wins
    when ``d`` beats the best so far and the commodity may send that way,
    ``b -> a`` when ``-d`` does.  At most one of the two is positive, so a
    strict comparison in commodity order keeps the lower commodity on a tie.
    """
    state.backlog_now -= state.forward(state.queues, state.plans, state.delivered)
    return state


@functools.lru_cache(maxsize=16)
def _kernel(n: int, dsts: tuple, edges: tuple):
    """The transmission round ``forward(queues, caps, delivered)`` for nodes
    ``0..n-1``, one commodity per destination in ``dsts`` and the links
    ``edges`` (index pairs), compiled from ``_kernel_source``."""
    scope = {"_overdrawn": _overdrawn, "_LOST": _LOST}
    exec(compile(_kernel_source(n, dsts, edges), f"<lfbp kernel n={n} dsts={dsts}>", "exec"), scope)
    return scope["forward"]


def _kernel_source(n: int, dsts: tuple, edges: tuple) -> str:
    """Straight-line Python for one transmission round of the commodities
    whose destinations are ``dsts``.  Commodity ``y``'s queue list is
    ``q_{y}`` and its start-of-slot queue at node ``u`` the local
    ``q{y * n + u}``; arc ``k``'s capacity for it is ``c{k * ncom + y}``.

    With one commodity, each tail ``u`` sums the capacities of its arcs to
    a ``v`` with ``q[v] < q[u]``, one ``if`` per arc, and sends each in full
    when the sum fits its backlog.

    With several, each link ``e`` runs its contest in commodity order into
    a winner code ``w{e}``, and one ``if w{e}:`` dispatch sends the winner's
    capacity at once and adds it to the local ``o{y}_{u}`` of its
    (commodity ``y``, tail ``u``).  Each (commodity, tail) then pays one
    test: it is charged its sends, or, when they overdraw its backlog,
    takes them back.

    An overdrawn tail spends its backlog on its first winner, the least
    ``(q[v], v)``, when that winner's capacity covers it.  One ``if`` per
    arc, in ascending head ``v`` with a strict ``<``, finds it into ``b``
    (its queue), ``x`` (its head) and ``w`` (its capacity); with several
    commodities it sits in the block that takes that arc's send back.  The
    blocks are flat, since an ``if``/``elif`` chain would recurse once per
    arm in the compiler.  A tail with one arc needs no test: its one winner
    overdraws, so it covers.  A first winner that falls short leaves the
    sorted spend to ``_overdrawn``.  A commodity's destination never sends:
    its local is set to 0, so it wins no contest, and it gets no tail block,
    and no contest test, dispatch arm or ``o{y}_{dst}`` local on a link out
    of it.  Whatever sits there when the round ends is delivered, added to
    ``D`` and to the count returned."""
    ncom = len(dsts)
    one = ncom == 1
    out: list[list] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        out[a].append((2 * e, b))
        out[b].append((2 * e + 1, a))
    lines = ["def forward(Q, c, D):", "    " + "".join(f"q_{y}, " for y in range(ncom)) + "= Q"]
    for y, dst in enumerate(dsts):
        lines += ["    " + "".join(f"q{y * n + u}, " for u in range(n)) + f"= q_{y}", f"    q{y * n + dst} = 0"]
    lines += ["    " + "".join(f"c{k}, " for k in range(2 * len(edges) * ncom)) + "= c"] if edges else []
    if not one and edges:
        tails = [(y, u) for y, dst in enumerate(dsts) for u, arcs in enumerate(out) if arcs and u != dst]
        lines += ["    " + "".join(f"o{y}_{u} = " for y, u in tails) + "0"]
    for e, (a, b) in enumerate([] if one else edges):
        # Winner code 2y + 1 is commodity y from a to b, 2y + 2 from b to a;
        # a commodity's destination never wins, so its direction gets no code.
        sends = [
            (2 * y + 1 + (k & 1), y, u, v, f"c{k * ncom + y}")
            for y, dst in enumerate(dsts)
            for k, u, v in ((2 * e, a, b), (2 * e + 1, b, a))
            if u != dst
        ]
        for y in range(ncom):
            arms = [(code, c, f"q{y * n + u}", f"q{y * n + v}") for code, z, u, v, c in sends if z == y]
            for i, (code, c, qu, qv) in enumerate(arms):
                test = f"{qu} > {qv}" if y == 0 else f"{qu} - {qv} > b"
                # No commodity after the last compares against its difference.
                won = f"b, w{e} = {qu} - {qv}, " if y < ncom - 1 else f"w{e} = "
                lines += [f"    {'el' if i else ''}if {c} and {test}: {won}{code}"]
            lines += [] if y else [f"    else: b = w{e} = 0"]
        lines += [f"    if w{e}:"]
        for i, (code, y, u, v, c) in enumerate(sends):
            arm = "else" if i == len(sends) - 1 else f"{'el' if i else ''}if w{e} == {code}"
            lines += [f"        {arm}: q_{y}[{v}] += {c}; o{y}_{u} += {c}"]
    for y, dst in enumerate(dsts):
        for u, arcs in enumerate(out):
            if not arcs or u == dst:
                continue
            qu = f"q{y * n + u}"
            won = [
                (f"q{v} < {qu}" if one else f"w{k >> 1} == {2 * y + 1 + (k & 1)}", f"c{k * ncom + y}", v)
                for k, v in arcs
            ]
            # How an overdrawn tail spends its backlog ``avail``.  Several
            # commodities first take back the tail's sends, in the same pass.
            avail = "t" if one else f"o{y}_{u}"
            if len(won) == 1:
                (test, c, v), = won
                spend = [] if one else [f"if {test}: q_{y}[{v}] -= {c}"]
                spend += [f"{avail} = {qu}", f"q_{y}[{v}] += {avail}"]
            else:
                spend = [f"{avail} = b = {qu}"]
                for test, c, v in sorted(won, key=lambda arc: arc[2]):
                    first = f"q{y * n + v} < b: b = q{y * n + v}; x = {v}; w = {c}"
                    if one:
                        spend += [f"if {c} and {first}"]
                    else:
                        spend += [f"if {test}:", f"    q_{y}[{v}] -= {c}", f"    if {first}"]
                # With several commodities an arc may lose the contest whatever
                # q[v]; with one, an arc that may send and lost has q[v] >= q[u].
                split = "".join(f"(q{y * n + v}, {v}, {c}) if {c if one else test} else _LOST, " for test, c, v in won)
                spend += [f"if w >= {avail}: q_{y}[x] += {avail}", f"else: _overdrawn(q_{y}, {avail}, ({split}))"]
            if one:
                lines += [f"    if {qu}:", "        t = 0"] + [f"        if {test}: t += {c}" for test, c, _v in won]
                lines += ["        if t:", f"            if t <= {qu}:"]
                lines += [f"                if {test}: q_0[{v}] += {c}" for test, c, v in won]
                lines += ["            else:"] + [f"                {line}" for line in spend]
                lines += [f"            q_0[{u}] -= t"]
                continue
            lines += [f"    if {avail}:", f"        if {avail} > {qu}:"] + [f"            {line}" for line in spend]
            lines += [f"        q_{y}[{u}] -= {avail}"]
        lines += [f"    g = q_{y}[{dst}]", f"    q_{y}[{dst}] = 0", f"    D[{y}] += g", f"    r {'+=' if y else '='} g"]
    return "\n".join(lines + ["    return r"]) + "\n"


# What an arc that may not send, or lost its link's contest to another
# commodity, passes to ``_overdrawn``: it sorts after every winner.
_LOST = (math.inf, 0, 0)


def _overdrawn(q: list[int], avail: int, arcs: tuple) -> None:
    """Spend a tail's whole backlog ``avail`` on its arcs ``(q0[v], v, cap)``
    in descending differential order, ties to the lower node (indices follow
    IDs).  The winners sort first: an arc that may not send or lost its link
    to another commodity comes as ``_LOST``, and any other losing arc has
    ``q0[v] >= avail``.  The winners' capacities overdraw ``avail``, so no
    loser is reached.  The kernel calls it only when the first winner's
    capacity falls short of ``avail``: it spends the covering case itself."""
    for _qv, v, cap in sorted(arcs):
        if cap < avail:
            q[v] += cap
            avail -= cap
        else:
            q[v] += avail
            return


def _draw_bound(p: float) -> int:
    """The least integer ``T`` with ``N / 2**53 < p`` exactly when ``N < T``,
    for every 53-bit ``N``: ``p * 2**53`` is exact for a probability."""
    return math.ceil(p * 2**53)


def _churn_floor(state: SimState) -> int:
    """The filter's floor: in edge ``i``'s lane, ``((T - 1) >> 37) + 1`` at
    bit ``64i + 16``, ``T`` its fail bound while live, else its recover
    bound."""
    fail, recover = ((((bound - 1) >> 37) + 1) << 16 for bound in (state.fail_bound, state.recover_bound))
    fail, recover = fail.to_bytes(8, "little"), recover.to_bytes(8, "little")
    return int.from_bytes(b"".join(fail if x else recover for x in state.live_mask), "little")


def topology_step(state: SimState) -> SimState:
    """Fail live links / revive dead ones; one uniform draw per edge per slot
    regardless of state, so sample paths are comparable across runs.

    Edge ``i``'s uniform is read, as ``random()`` reads it, from two
    Mersenne Twister words, here words ``2i`` and ``2i + 1`` of one
    ``getrandbits(64 * m)``: with ``a`` and ``b`` the lane's low and high
    32 bits, it is ``N / 2**53`` for ``N = (a >> 5) << 26 | b >> 6``.  The
    stream advances exactly as ``m`` calls of ``random()`` would, and the
    edge changes state when ``N`` is below its integer bound.

    A filter tests every lane at once: ``a``'s top 16 bits are ``N >> 37``,
    and less the floor ``((T - 1) >> 37) + 1`` they borrow into the lane's
    top bit whenever ``N < T``.  A borrow out of a lane can flag the lane
    above it too, so ``_churn`` checks only the flagged lanes exactly, in
    edge order, and applies each event as it finds it."""
    if state.topology is None:
        return state
    bits = state.topo_rng.getrandbits(64 * state.m)
    flags = ((bits & state.churn_lanes) - state.churn_floor) & state.churn_signs
    if flags:
        _churn(state, bits, flags)
    return state


def _churn(state: SimState, bits: int, flags: int) -> None:
    """Check each lane whose top bit ``flags`` sets against its edge's
    bound and apply the events in edge order, then rebuild the live set,
    the floor and the plans."""
    live, dags, events = state.live_mask, state.dags, 0
    while flags:
        low = flags & -flags
        flags ^= low
        i = low.bit_length() // 64 - 1
        lane = bits >> 64 * i
        draw = ((lane & 0xFFFFFFFF) >> 5) << 26 | ((lane >> 32) & 0xFFFFFFFF) >> 6
        if draw < (state.fail_bound if live[i] else state.recover_bound):
            kind = "remove" if live[i] else "add"
            live[i] = not live[i]
            events += 1
            for y, dag in enumerate(dags or ()):
                dags[y] = apply_topology_event(dag, kind, state.edge_list[i])
    if events:
        state.topo_events += events
        state.live_order = [i for i in range(state.m) if live[i]]
        state.churn_floor = _churn_floor(state)
        state.rebuild_plans()


def initial_orientation(net: Network, mode) -> DagOrientation:
    """The starting orientation a scenario's ``initial_dag`` names: "by_id",
    "optimal" or explicit (tail, head) pairs; ``ValueError`` for any other
    mode, or for pairs that do not orient ``net`` acyclically."""
    if mode == "by_id":
        return initial_dag(net)
    if mode == "optimal":
        return optimal_dag(net)
    if isinstance(mode, (list, tuple)):
        return orient_explicit(net, mode)
    raise ValueError(f"expected 'by_id', 'optimal' or pair list, got {mode!r}")


def build_initial_dags(config, policy: str) -> list[DagOrientation] | None:
    """Per-commodity starting orientations for the lfbp policy, each built on
    the network with that commodity's endpoints."""
    if policy != "lfbp":
        return None
    return [
        initial_orientation(config.network.replace(source=c.source, dest=c.dest), config.initial_dag)
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
    for name, value in (("horizon", horizon), ("bucket", bucket)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    lfbp = policy == "lfbp"

    # Both policies check the startup packets; only lfbp starts with them.
    dummies = startup_packets(config.commodities, config.dummy_scale, rho)
    params = (config.lfbp_params or LfbpParams()) if lfbp else None

    state = SimState(
        config.network,
        config.commodities,
        policy,
        rho,
        seed,
        topology=config.topology,
        initial_dags=build_initial_dags(config, policy),
        dummies=dummies if lfbp else None,
    )
    if lfbp:
        state.epoch_left = params.period(0)

    # One slot loop, with no call per slot into the step functions: the
    # arrival draws and the marking run inline, with a branch for one
    # commodity, and both branches forward by ``state.forward``.
    # ``epoch_reversal`` and ``topology_step`` replace ``plans``, so it is read
    # where it is used; ``epoch_reversal`` clears the mark sets in place, so
    # they are read once.
    # The backlog is kept in a local, and ``state.t`` is set only for
    # ``epoch_reversal``, which logs it: nothing else the loop calls reads
    # either.  ``delivered`` only rises, so the startup debt (the dummies not
    # yet delivered) is summed only until it reaches 0.  The churn draw and
    # its filter are ``topology_step``'s; only ``_churn`` changes the live set
    # and the filter's floor, so both are locals refreshed after that call.
    one = len(config.commodities) == 1
    queues, arrivals, dummies, delivered = state.queues, state.arrivals, state.dummies, state.delivered
    draws = [
        (y, rng.random, table, len(table) - 1, queues[y], state.src_idx[y])
        for y, (rng, table) in enumerate(zip(state.arr_rngs, state.cdfs))
    ]
    _y, draw0, table0, last0, queue0, src0 = draws[0]
    forward, marks, marks0 = state.forward, state.marks, state.marks[0]
    # Queues are integers, so a threshold R marks them as floor(R) does.
    limit = math.floor(params.threshold(state.epoch)) if lfbp else None
    topology = state.topology is not None
    if topology:
        churn_draw, churn_width = state.topo_rng.getrandbits, 64 * state.m
        churn_lanes, churn_signs, churn_floor = state.churn_lanes, state.churn_signs, state.churn_floor
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
            backlog -= forward(queues, state.plans, delivered)
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
            backlog -= forward(queues, state.plans, delivered)
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
                limit = math.floor(params.threshold(state.epoch))
        if topology:
            bits = churn_draw(churn_width)
            flags = ((bits & churn_lanes) - churn_floor) & churn_signs
            if flags:
                _churn(state, bits, flags)
                live, churn_floor = len(state.live_order), state.churn_floor
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
