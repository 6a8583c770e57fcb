"""Exact max-flow / min-cut computations over orientations and raw networks.

Dinic's blocking-flow max-flow on exact rational capacities (scaled once to
integers), the unique smallest min-cut via residual reachability,
construction of a throughput-optimal orientation from an undirected
max-flow, and the cut granularity constant used to bound link-reversal
iteration counts.

A ``FlowNetwork`` holds one network's integer arc structure (node index,
twin arc pairs, heads and adjacency) apart from its capacities, and its
``solve`` runs Dinic on any integer capacity vector over those arcs.
``_solve`` builds one for a single arc list and solves it once; a caller
that solves the same arcs many times with different capacities builds the
network once and calls ``solve`` again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import (
    DagOrientation,
    InvariantViolation,
    Network,
    Rational,
    topological_order,
)

# Exhaustive subset enumeration stays tractable only at desk scale.
MAX_EXHAUSTIVE_EDGES = 20


@dataclass(frozen=True)
class FlowAllocation:
    """Per-directed-edge flow values plus the net flow delivered at the sink."""

    flow: dict[tuple[int, int], Rational]
    value: Rational


@dataclass(frozen=True)
class CutPartition:
    """A source-side / sink-side node partition and its directed crossing capacity."""

    source_side: frozenset[int]
    sink_side: frozenset[int]
    capacity: Rational


class FlowNetwork:
    """The integer arc structure of one max-flow network, kept apart from its
    capacities so one network can be solved again with new ones.

    ``arc`` maps ``(tail, head)`` to an arc id ``k`` whose twin ``k ^ 1``
    runs the other way; ``head[k]`` is the index of arc ``k``'s head and
    ``adj[i]`` lists the arcs leaving node ``i``.
    """

    __slots__ = ("nodes", "index", "arc", "head", "adj")

    def __init__(self, nodes: Iterable):
        self.nodes = list(nodes)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.arc: dict = {}
        self.head: list[int] = []
        self.adj: list[list[int]] = [[] for _ in self.nodes]

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

    def solve(self, res: list[int], s, t, scale: int) -> "MaxFlow":
        """Dinic's blocking-flow max-flow on the integer capacities ``res``
        (one per arc id, consumed as the residual); ``scale`` is the factor
        they were multiplied by."""
        if s == t:
            raise ValueError("source and sink must differ")
        cap = res[:]
        adj, head = self.adj, self.head
        si, ti = self.index[s], self.index[t]
        total = 0
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
                source_side = frozenset(self.nodes[i] for i in queue)
                break
            total += _blocking_flow(adj, head, res, level, si, ti)
        value = total if scale == 1 else Fraction(total, scale)
        return MaxFlow(value, source_side, self, cap, res, ti, scale)


class MaxFlow:
    """One solved max-flow, kept on the kernel's scaled integer residual.

    ``value`` is the exact flow value and ``source_side`` the smallest min-cut
    source side: the nodes labelled by the last level-graph BFS, the one that
    failed to reach the sink.  ``scale`` is the factor the capacities were
    multiplied by.  The maximal source side and the flow between two nodes
    are derived on demand.
    """

    __slots__ = ("value", "source_side", "scale", "_net", "_cap", "_res", "_t")

    def __init__(self, value, source_side, net, cap, res, t, scale):
        self.value: Rational = value
        self.source_side: frozenset = source_side
        self.scale: int = scale
        self._net, self._cap, self._res, self._t = net, cap, res, t

    def maximal_source_side(self) -> frozenset:
        """The largest min-cut source side: every node that cannot reach the
        sink in the residual graph, found by a reverse BFS from the sink."""
        net, res = self._net, self._res
        head, adj = net.head, net.adj
        reaches = [False] * len(adj)
        reaches[self._t] = True
        queue = [self._t]
        for v in queue:
            for k in adj[v]:
                u = head[k]
                if not reaches[u] and res[k ^ 1]:
                    reaches[u] = True
                    queue.append(u)
        return frozenset(n for n, r in zip(net.nodes, reaches) if not r)

    def arc_flow(self, k: int) -> int:
        """Flow on arc ``k`` less any flow on its twin, times ``scale``."""
        return self._cap[k] - self._res[k]

    def net_flow(self, u, v) -> Rational:
        """Exact flow from u to v less any flow from v to u (0 if no arc
        joins them); arcs between the same two nodes share one pair."""
        k = self._net.arc.get((u, v))
        if k is None:
            return 0
        used = self.arc_flow(k)
        return used if self.scale == 1 else Fraction(used, self.scale)


def _solve(nodes: Iterable, arcs: Iterable[tuple[object, object, Rational]], s, t) -> MaxFlow:
    """Max-flow of one arc list: build its ``FlowNetwork`` and solve it once.

    Capacities are scaled once by the least common multiple of their
    denominators.  Arcs between the same two nodes, either way round, merge
    into one twin pair ``k``/``k ^ 1``; arcs without positive capacity are
    dropped.
    """
    net = FlowNetwork(nodes)
    index, arc, head, adj = net.index, net.arc, net.head, net.adj
    arcs = list(arcs)
    scale = math.lcm(*{c.denominator for _, _, c in arcs})
    res: list[int] = []
    # FlowNetwork.pair inlined: a method call per arc is a tenth of er_batch.
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
    return net.solve(res, s, t, scale)


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


def max_flow(dag: DagOrientation, src: int | None = None, dst: int | None = None) -> FlowAllocation:
    """Max-flow over the live directed edges of an orientation."""
    src = dag.net.source if src is None else src
    dst = dag.net.dest if dst is None else dst
    if src == dst:
        raise ValueError("source and destination must differ")
    arcs = list(dag.directed_edges())
    result = _solve(dag.net.nodes, arcs, src, dst)
    flow = {(tail, head): result.net_flow(tail, head) for tail, head, _ in arcs}
    return FlowAllocation(flow=flow, value=result.value)


def _undirected_arcs(net: Network) -> list[tuple[int, int, Rational]]:
    arcs = []
    for (i, j), cap in net.capacity.items():
        arcs.append((i, j, cap))
        arcs.append((j, i, cap))
    return arcs


def max_flow_undirected(net: Network, src: int | None = None, dst: int | None = None) -> Rational:
    """Max-flow when every undirected edge is usable in either direction."""
    src = net.source if src is None else src
    dst = net.dest if dst is None else dst
    return _solve(net.nodes, _undirected_arcs(net), src, dst).value


def smallest_min_cut(dag: DagOrientation, src: int | None = None, dst: int | None = None) -> CutPartition:
    """The min-cut whose source side has the fewest nodes (unique).

    Computed as the residual-reachable set after a max-flow; that set is
    contained in every min-cut source side, hence minimal and unique.
    """
    src = dag.net.source if src is None else src
    dst = dag.net.dest if dst is None else dst
    result = _solve(dag.net.nodes, dag.directed_edges(), src, dst)
    return CutPartition(
        source_side=result.source_side,
        sink_side=frozenset(dag.net.nodes) - result.source_side,
        capacity=result.value,
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


def _trim_cycles(support: dict[int, dict[int, Rational]]) -> None:
    """Cancel positive flow on directed cycles, lowest-ID-first DFS order."""
    while True:
        cycle = _find_cycle(support)
        if cycle is None:
            return
        slack = min(support[u][v] for u, v in cycle)
        for u, v in cycle:
            support[u][v] -= slack
            if support[u][v] == 0:
                del support[u][v]


def _find_cycle(support: dict[int, dict[int, Rational]]) -> list[tuple[int, int]] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for root in sorted(support):
        if color.get(root, WHITE) != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        iters = [iter(sorted(support.get(root, ())))]
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                color[path.pop()] = BLACK
                iters.pop()
                continue
            c = color.get(nxt, WHITE)
            if c == GRAY:
                cyc_nodes = path[path.index(nxt):] + [nxt]
                return list(zip(cyc_nodes, cyc_nodes[1:]))
            if c == WHITE:
                color[nxt] = GRAY
                path.append(nxt)
                iters.append(iter(sorted(support.get(nxt, ()))))
    return None


def optimal_dag(net: Network) -> DagOrientation:
    """An orientation whose max-flow matches the undirected max-flow.

    Solve the undirected max-flow, cancel any flow circulating on directed
    cycles, orient flow-carrying edges along the flow, and orient idle edges
    consistently with a deterministic topological order of the flow support.
    """
    s, d = net.source, net.dest
    result = _solve(net.nodes, _undirected_arcs(net), s, d)
    support: dict[int, dict[int, Rational]] = {}
    for i, j in net.capacity:
        net_flow = result.net_flow(i, j)
        if net_flow > 0:
            support.setdefault(i, {})[j] = net_flow
        elif net_flow < 0:
            support.setdefault(j, {})[i] = -net_flow
    _trim_cycles(support)

    pairs = [(u, v) for u, row in support.items() for v in row]
    order = topological_order(net.nodes, pairs)
    if order is None:
        raise InvariantViolation("trimmed flow support still cyclic")
    position = {n: pos for pos, n in enumerate(order)}

    heads = {}
    for i, j in net.capacity:
        if support.get(i, {}).get(j, 0) > 0:
            heads[(i, j)] = j
        elif support.get(j, {}).get(i, 0) > 0:
            heads[(i, j)] = i
        else:
            heads[(i, j)] = j if position[i] < position[j] else i
    return DagOrientation(
        net=net,
        heads=heads,
        states={n: position[n] for n in net.nodes},
        version=0,
        step=0,
        delta=len(order) + 1,
    )


def delta_bound(net: Network, method: str = "auto") -> Fraction:
    """Smallest positive difference between capacities of any two cuts.

    ``exhaustive`` enumerates all subset sums of the edge capacities (desk
    scale only).  ``analytic`` returns the 1/D lower bound from the least
    common denominator D of the capacities; it is a bound, not the exact
    value.  ``auto`` picks exhaustive when the edge count permits.
    """
    caps = list(net.capacity.values())
    if not caps or all(c == 0 for c in caps):
        raise ValueError("degenerate network: no positive capacity, delta undefined")
    if method == "auto":
        method = "exhaustive" if len(caps) <= MAX_EXHAUSTIVE_EDGES else "analytic"
    if method == "analytic":
        return Fraction(1, math.lcm(*(c.denominator for c in caps)))
    if method != "exhaustive":
        raise ValueError(f"unknown method {method!r}")
    if len(caps) > MAX_EXHAUSTIVE_EDGES:
        raise ValueError(f"exhaustive mode limited to {MAX_EXHAUSTIVE_EDGES} edges")
    sums = {Fraction(0)}
    for c in caps:
        c = Fraction(c)
        sums |= {s + c for s in sums}
    ordered = sorted(sums)
    best = None
    for a, b in zip(ordered, ordered[1:]):
        gap = b - a
        if gap > 0 and (best is None or gap < best):
            best = gap
    if best is None:
        raise ValueError("degenerate network: all subset sums equal")
    return best
