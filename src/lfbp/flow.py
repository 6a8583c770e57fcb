"""Exact max-flow / min-cut computations over orientations and raw networks.

Dinic's blocking-flow max-flow on exact rational capacities (scaled once to
integers), the unique smallest min-cut via residual reachability,
construction of a throughput-optimal orientation from an undirected
max-flow, and the cut granularity constant used to bound link-reversal
iteration counts.
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


class MaxFlow:
    """One solved max-flow, kept on the kernel's scaled integer residual.

    ``value`` is the exact flow value and ``source_side`` the smallest min-cut
    source side: the nodes labelled by the last level-graph BFS, the one that
    failed to reach the sink.  The maximal source side and the flow between
    two nodes are derived on demand.
    """

    __slots__ = ("value", "source_side", "_nodes", "_arc", "_head", "_cap", "_res", "_adj", "_t", "_scale")

    def __init__(self, value, source_side, nodes, arc, head, cap, res, adj, t, scale):
        self.value: Rational = value
        self.source_side: frozenset = source_side
        self._nodes, self._arc, self._head, self._cap = nodes, arc, head, cap
        self._res, self._adj, self._t, self._scale = res, adj, t, scale

    def maximal_source_side(self) -> frozenset:
        """The largest min-cut source side: every node that cannot reach the
        sink in the residual graph, found by a reverse BFS from the sink."""
        head, res = self._head, self._res
        reaches = [False] * len(self._nodes)
        reaches[self._t] = True
        queue = [self._t]
        for v in queue:
            for k in self._adj[v]:
                u = head[k]
                if not reaches[u] and res[k ^ 1]:
                    reaches[u] = True
                    queue.append(u)
        return frozenset(n for n, r in zip(self._nodes, reaches) if not r)

    def net_flow(self, u, v) -> Rational:
        """Exact flow from u to v less any flow from v to u (0 if no arc joins
        them); arcs between the same two nodes share one residual pair."""
        k = self._arc.get((u, v))
        if k is None:
            return 0
        used = self._cap[k] - self._res[k]
        return used if self._scale == 1 else Fraction(used, self._scale)


def _solve(nodes: Iterable, arcs: Iterable[tuple[object, object, Rational]], s, t) -> MaxFlow:
    """Dinic's blocking-flow max-flow on integer arrays.

    Capacities are scaled once by the least common multiple of their
    denominators.  Arcs between the same two nodes, either way round, merge
    into one twin pair ``k``/``k ^ 1``; arcs without positive capacity are
    dropped.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    nodes = list(nodes)
    index = {n: i for i, n in enumerate(nodes)}
    arcs = list(arcs)
    scale = math.lcm(*{c.denominator for _, _, c in arcs})
    arc: dict = {}  # (tail, head) -> arc id
    head: list[int] = []
    res: list[int] = []
    adj: list[list[int]] = [[] for _ in nodes]
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
    cap = res[:]

    si, ti = index[s], index[t]
    total = 0
    while True:
        level = [-1] * len(nodes)
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
            source_side = frozenset(nodes[i] for i in queue)
            break
        total += _blocking_flow(adj, head, res, level, si, ti)
    value = total if scale == 1 else Fraction(total, scale)
    return MaxFlow(value, source_side, nodes, arc, head, cap, res, adj, ti, scale)


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
        denom = math.lcm(*(Fraction(c).denominator for c in caps))
        return Fraction(1, denom)
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
