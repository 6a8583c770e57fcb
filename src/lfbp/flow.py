"""Exact max-flow / min-cut computations over orientations and raw networks.

Dinic's blocking-flow max-flow on exact rational capacities (scaled once to
integers), the unique smallest min-cut via residual reachability, and the
cut granularity constant used to bound link-reversal iteration counts.

A ``FlowNetwork`` holds one network's integer arc structure (node index,
twin arc pairs, heads and adjacency) apart from its capacities, and its
``solve`` runs Dinic on any integer capacity vector over those arcs.  A
``Network`` builds one layout on its first max-flow and keeps it: one twin
pair ``2e``/``2e + 1`` per positive-capacity edge, which its max-flows fill
both ways round and those of its orientations from each live link's lower
to its higher rank.  ``ReversalFlow`` keeps one such flow warm across link
reversals: turning around links that carry no flow keeps it feasible, so
each later min-cut continues Dinic from the last residual.

Dinic's DFS takes its last hop with one test.  Each node has at most one
arc into the sink, recorded once per max-flow, and the level BFS leaves the
sink alone on its level, so a node one level below the sink goes on only
through that arc.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .graph import (
    DagOrientation,
    Edge,
    InvariantViolation,
    Network,
    Rational,
    Value,
)


class FlowAllocation(Value):
    """Per-directed-edge flow values plus the net flow delivered at the sink."""

    __slots__ = ("flow", "value")

    def __init__(self, flow: dict[tuple[int, int], Rational], value: Rational):
        self._set(flow, value)


class CutPartition(Value):
    """A cut's source side and its directed crossing capacity; the sink side
    is every other node of the network."""

    __slots__ = ("source_side", "capacity")

    def __init__(self, source_side: frozenset[int], capacity: Rational):
        self._set(source_side, capacity)


class FlowNetwork:
    """The integer arc structure of one max-flow network, kept apart from its
    capacities so one network can be solved again with new ones.

    Arc ``k``'s twin ``k ^ 1`` runs the other way; ``head[k]`` is the index
    of arc ``k``'s head and ``adj[i]`` lists the arcs leaving node ``i``.
    """

    __slots__ = ("nodes", "index", "head", "adj")

    def __init__(self, nodes: Iterable):
        self.nodes = list(nodes)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.head: list[int] = []
        self.adj: list[list[int]] = [[] for _ in self.nodes]

    def solve(self, res: list[int], s, t, scale: int) -> "MaxFlow":
        """Dinic's blocking-flow max-flow on the integer capacities ``res``
        (one per arc id, consumed as the residual); ``scale`` is the factor
        they were multiplied by."""
        if s == t:
            raise ValueError("source and sink must differ")
        return MaxFlow(self, res, self.index[s], self.index[t], scale)


class MaxFlow:
    """One max-flow, kept on the kernel's scaled integer residual.

    ``value`` is the exact flow value and ``source_side`` the smallest min-cut
    source side: the nodes labelled by the last level-graph BFS, the one that
    failed to reach the sink.  ``scale`` is the factor the capacities were
    multiplied by.  The maximal source side and the flow on an arc are
    derived on demand.
    """

    __slots__ = ("value", "source_side", "scale", "_net", "_cap", "_res", "_s", "_t", "_last", "_total")

    def __init__(self, net, res, s, t, scale):
        self.scale: int = scale
        self._net, self._cap, self._res, self._s, self._t = net, res[:], res, s, t
        # Each node's one arc into the sink, or -1: the DFS's last hop.
        self._last = last = [-1] * len(net.adj)
        for k in net.adj[t]:
            if last[net.head[k]] >= 0:
                raise ValueError(f"node {net.nodes[net.head[k]]!r} has more than one arc into the sink")
            last[net.head[k]] = k ^ 1
        self._total = 0
        self.augment()

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
            top = level[ti]  # the BFS stopped there: the sink's peers are dead ends
            while level[queue[-1]] == top:
                level[queue.pop()] = -1
            level[ti] = top
            self._total += _blocking_flow(adj, head, res, level, self._last, si, ti)
        total, scale = self._total, self.scale
        self.value: Rational = total if scale == 1 else Fraction(total, scale)

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


def _edge_layout(net: Network) -> tuple[FlowNetwork, list[Edge], list[Rational], bool]:
    """``net``'s arcs, one twin pair ``2e``/``2e + 1`` per positive-capacity
    edge ``e`` in ``net.capacity`` order, arc ``2e`` from the edge's first
    endpoint to its second: the ``FlowNetwork``, the edges, their capacities
    and whether all are ``int``.  Kept in ``net``'s private ``_flow_layout``
    slot, which ``==``, ``repr``, ``replace`` and pickling leave out."""
    layout = net._flow_layout
    if layout is None:
        fn = FlowNetwork(net.nodes)
        index, head, adj = fn.index, fn.head, fn.adj
        edges = [edge for edge, c in net.capacity.items() if c > 0]
        caps = [net.capacity[edge] for edge in edges]
        for e, (i, j) in enumerate(edges):
            i, j = index[i], index[j]
            head += (j, i)
            adj[i].append(2 * e)
            adj[j].append(2 * e + 1)
        layout = fn, edges, caps, set(map(type, caps)) <= {int}
        object.__setattr__(net, "_flow_layout", layout)
    return layout


def _edge_flow(net: Network, src, dst, dag: DagOrientation | None = None) -> tuple[MaxFlow, list[Edge]]:
    """Max-flow over the arcs of ``_edge_layout``, each edge usable both ways
    round or, given an orientation ``dag``, only from its lower to its higher
    rank while live, with capacities scaled by the LCM of the usable edges'
    denominators."""
    fn, edges, caps, whole = _edge_layout(net)
    scale = 1
    if not whole:
        capacity = net.capacity
        scale = math.lcm(*{capacity[e].denominator for e in (capacity if dag is None else dag.live)})
        caps = [c.numerator * (scale // c.denominator) for c in caps]
    if dag is None:
        res = [x for c in caps for x in (c, c)]
    else:
        live, rank = dag.live, dag.states
        res = []
        for edge, c in zip(edges, caps):
            if edge not in live:
                res += (0, 0)
            elif rank[edge[0]] < rank[edge[1]]:
                res += (c, 0)
            else:
                res += (0, c)
    return fn.solve(res, src, dst, scale), edges


class ReversalFlow:
    """The smallest min-cut of an orientation, and of each orientation that
    link reversals reach from it, from one max-flow kept warm.

    The first ``cut`` is ``smallest_min_cut``'s solve.  At a min-cut no flow
    runs from the sink side into the source side, so flipping the links that
    enter the source side leaves a feasible flow of the same value; Dinic
    continues from that residual, and its last BFS again labels the smallest
    min-cut source side.
    """

    __slots__ = ("_flow", "_arc")

    def __init__(self, dag: DagOrientation, src: int | None = None, dst: int | None = None):
        src = dag.net.source if src is None else src
        dst = dag.net.dest if dst is None else dst
        self._flow, edges = _edge_flow(dag.net, src, dst, dag)
        # Arc 2e runs from edge e's first endpoint to its second, 2e + 1 back.
        arcs = range(2 * len(edges))
        self._arc = dict(zip(edges + [(j, i) for i, j in edges], [*arcs[::2], *arcs[1::2]]))

    def cut(self) -> CutPartition:
        """The smallest min-cut of the current orientation."""
        return CutPartition(source_side=self._flow.source_side, capacity=self._flow.value)

    def reverse(self, flips: Iterable[tuple[int, int]]) -> None:
        """Turn the flipped ``(tail, head)`` links around and continue the
        max-flow on the new orientation.  A flipped link that carries flow
        raises ``InvariantViolation``: only links entering the last cut's
        source side may be flipped."""
        flow = self._flow
        res, cap = flow._res, flow._cap
        for tail, head in flips:
            k = self._arc.get((tail, head))
            if k is None:  # a zero-capacity link has no pair
                continue
            if res[k ^ 1]:
                raise InvariantViolation(f"flipped link ({tail},{head}) carries flow {res[k ^ 1]}/{flow.scale}")
            res[k], res[k ^ 1] = 0, res[k]
            cap[k], cap[k ^ 1] = 0, cap[k]
        flow.augment()


def _blocking_flow(adj, head, res, level, last, s: int, t: int) -> int:
    """Saturate every shortest s-t path of the level graph; returns the flow
    pushed.  Iterative DFS with one arc pointer per node: an arc is passed
    over only once it is saturated or leads to a dead end.

    The last hop takes one test.  The BFS left the sink alone on its level,
    so a node one level below it goes on only through its one arc into the
    sink, ``last[u]`` (-1 for none), and is a dead end once that arc is
    saturated: the arc a pointer scan of its list would find."""
    pointer = [0] * len(adj)
    path: list[int] = []
    pushed = 0
    top = level[t] - 1
    u = s
    while True:
        if level[u] == top:
            k = last[u]
            if k >= 0 and res[k]:
                path.append(k)
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
        else:
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
                continue
        if u == s:
            return pushed
        level[u] = -1
        u = head[path.pop() ^ 1]
        pointer[u] += 1


def max_flow(dag: DagOrientation) -> FlowAllocation:
    """Max-flow over the live directed edges of an orientation, from its
    network's source to its destination."""
    result, edges = _edge_flow(dag.net, dag.net.source, dag.net.dest, dag)
    flow = {(tail, head): 0 for tail, head, _ in dag.directed_edges()}
    live, rank = dag.live, dag.states
    for e, edge in enumerate(edges):
        if edge in live:
            i, j = edge
            used = result.arc_flow(2 * e)
            if not rank[i] < rank[j]:
                i, j, used = j, i, -used
            flow[(i, j)] = used if result.scale == 1 else Fraction(used, result.scale)
    return FlowAllocation(flow=flow, value=result.value)


def max_flow_undirected(net: Network) -> Rational:
    """Max-flow from the network's source to its destination when every
    undirected edge is usable in either direction."""
    return _edge_flow(net, net.source, net.dest)[0].value


def smallest_min_cut(dag: DagOrientation, src: int | None = None, dst: int | None = None) -> CutPartition:
    """The min-cut whose source side has the fewest nodes (unique).

    Computed as the residual-reachable set after a max-flow; that set is
    contained in every min-cut source side, hence minimal and unique.
    """
    return ReversalFlow(dag, src, dst).cut()


def delta_bound(net: Network) -> Fraction:
    """A lower bound on the smallest positive difference between any two cut
    capacities: ``g/D``, for ``D`` the LCM of the positive capacities'
    denominators and ``g`` the GCD of those capacities times ``D``.  Every
    cut capacity is a sum of edge capacities, hence a whole multiple of
    ``g/D``, so two that differ do so by at least ``g/D``."""
    _, _, caps, whole = _edge_layout(net)
    if not caps:
        raise ValueError("degenerate network: no positive capacity, delta undefined")
    if whole:
        return Fraction(math.gcd(*caps))
    scale = math.lcm(*(c.denominator for c in caps))
    return Fraction(math.gcd(*(c.numerator * (scale // c.denominator) for c in caps)), scale)
