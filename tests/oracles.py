"""Test-only oracles and helpers that the package itself never calls.

``brute_force_lex_min`` is the grid-enumeration oracle for the overload
vector on small instances, ``lex_key``/``lex_compare`` order vectors by
their sorted-descending components, ``overloaded_set`` is the smallest
min-cut when a rate exceeds an orientation's max-flow, ``is_acyclic``
checks an orientation by the oracles' own topological sort
(``topological_order``, over ``graphlib``), and ``check_state_consistency``
checks that the states are a node order that every live link climbs.
``erdos_renyi_network`` is the random-graph sampler as it was while it drew
each capacity with ``rng.randint``, the reference for the sampler that draws
the same stream inline.  ``HeadsOrientation`` and the ``reference_*``
constructors, reversal and topology event keep every direction in a
``heads`` map, as the package did before it derived each direction from the
node order; they are the reference for the derived one.  ``exhaustive_delta``
is the cut granularity by full subset-sum enumeration, the upper reference
for ``delta_bound``'s lower bound.  ``scanning_blocking_flow`` is Dinic's
blocking flow as it was while the last hop into the sink scanned each
node's arc list, the reference for the one that takes that hop in one test.
"""
from __future__ import annotations

import graphlib
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from lfbp.flow import FlowAllocation, smallest_min_cut
from lfbp.graph import (
    DagOrientation,
    Edge,
    InvariantViolation,
    Network,
    Rational,
    as_rational,
    edge_key,
)
from lfbp.overload import OverloadVector

LESS, EQUAL, GREATER = -1, 0, 1

# Subset enumeration stays tractable only at desk scale.
MAX_EXHAUSTIVE_EDGES = 20


def lex_key(values: Iterable[Rational]) -> tuple:
    return tuple(sorted(values, reverse=True))


def lex_compare(u: Sequence[Rational], v: Sequence[Rational]) -> int:
    """Compare two vectors by their sorted-descending component sequences.

    Returns -1 (less), 0 (equal) or 1 (greater).
    """
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    ku, kv = lex_key(u), lex_key(v)
    if ku < kv:
        return LESS
    if ku > kv:
        return GREATER
    return EQUAL


def _fluid_arcs(dag: DagOrientation) -> list[tuple[int, int, Rational]]:
    """Live directed edges carrying fluid flow: everything except links out of
    the destination (it absorbs and never forwards)."""
    dest = dag.net.dest
    return [(u, v, c) for u, v, c in dag.directed_edges() if u != dest]


def overloaded_set(dag: DagOrientation, rate: Rational):
    """The smallest min-cut when the rate exceeds the orientation's max-flow,
    else None.  Its source side is exactly the set of overloaded nodes."""
    cut = smallest_min_cut(dag)
    if as_rational(rate) <= cut.capacity:
        return None
    return cut


def brute_force_lex_min(
    dag: DagOrientation,
    rate: Rational,
    grid: Rational = 1,
    max_work: int = 5_000_000,
) -> OverloadVector:
    """Grid-search oracle: enumerate every flow allocation whose edge values
    are multiples of ``grid`` and keep the lexicographically smallest induced
    overload vector.

    Only valid on small instances; raises when the instance or the implied
    enumeration is too large, or when grid does not divide all capacities and
    the arrival rate.  Completeness caveat: the result is the minimum over the
    grid, which matches the true optimum only when the grid is fine enough.
    """
    net = dag.net
    if len(net.nodes) > 6:
        raise ValueError("instance too large: oracle limited to 6 nodes")
    grid = Fraction(grid)
    if grid <= 0:
        raise ValueError("grid step must be positive")

    def units(x) -> int:
        q = Fraction(x) / grid
        if q.denominator != 1:
            raise ValueError(f"{x} is not a multiple of grid step {grid}")
        return int(q)

    rate_u = units(rate)
    dest = net.dest
    arcs = _fluid_arcs(dag)
    pairs = [(u, v) for u, v, _ in arcs]
    order = topological_order(net.nodes, pairs)
    if order is None:
        raise ValueError("orientation is not acyclic")
    out_by_node: dict[int, list[tuple[int, int]]] = {n: [] for n in net.nodes}
    for u, v, c in arcs:
        out_by_node[u].append((v, units(c)))
    for n in out_by_node:
        out_by_node[n].sort()

    # Upfront work estimate: per-node split counts with throughflow <= rate.
    est = 1
    for n in order:
        if n == dest:
            continue
        est *= _split_count([c for _, c in out_by_node[n]], rate_u)
        if est > max_work:
            raise ValueError("instance too large: grid enumeration exceeds budget")

    node_seq = [n for n in order if n != dest]
    n_count = len(node_seq)
    best_key: tuple | None = None
    best_rates: dict[int, int] = {}
    best_flow: dict[tuple[int, int], int] = {}
    inflow = {n: 0 for n in net.nodes}
    q_units: dict[int, int] = {}
    flow_units: dict[tuple[int, int], int] = {}

    def descend(idx: int) -> None:
        nonlocal best_key, best_rates, best_flow
        if idx == n_count:
            key = tuple(sorted(((q * grid) for q in q_units.values()), reverse=True))
            key = key + (Fraction(0),)  # destination contributes a zero
            if best_key is None or key < best_key:
                best_key = key
                best_rates = dict(q_units)
                best_flow = dict(flow_units)
            return
        node = node_seq[idx]
        avail = inflow[node] + (rate_u if node == net.source else 0)
        outs = out_by_node[node]
        bound = None
        if best_key is not None:
            bound = best_key[0]

        def assign(e_idx: int, budget: int) -> None:
            if e_idx == len(outs):
                q = budget
                if bound is not None and q * grid > bound:
                    return
                q_units[node] = q
                descend(idx + 1)
                del q_units[node]
                return
            head, cap_u = outs[e_idx]
            top = cap_u if cap_u < budget else budget
            for f in range(top, -1, -1):
                inflow[head] += f
                flow_units[(node, head)] = f
                assign(e_idx + 1, budget - f)
                inflow[head] -= f
            del flow_units[(node, head)]

        assign(0, avail)

    descend(0)
    if best_key is None:
        raise InvariantViolation("oracle found no feasible allocation")
    rates = {n: as_rational(q * grid) for n, q in best_rates.items()}
    rates[dest] = 0
    flow = {}
    delivered: Rational = 0
    for u, v, c in dag.directed_edges():
        used = best_flow.get((u, v), 0) * grid
        flow[(u, v)] = as_rational(used)
        if v == dest and u != dest:
            delivered += used
    return OverloadVector(rates=rates, inducing_flow=FlowAllocation(flow=flow, value=as_rational(delivered)))


def _split_count(caps: list[int], budget: int) -> int:
    """Number of ways to pick per-edge sends within caps summing to <= budget."""
    counts = {0: 1}
    for cap in caps:
        nxt: dict[int, int] = {}
        for total, ways in counts.items():
            for f in range(0, cap + 1):
                if total + f > budget:
                    break
                nxt[total + f] = nxt.get(total + f, 0) + ways
        counts = nxt
    return sum(counts.values())


@dataclass(frozen=True)
class HeadsOrientation:
    """The orientation as it was kept while it stored every direction twice:
    ``heads`` maps each live edge to the endpoint it points at, next to the
    ``states`` node order.  The reference for ``DagOrientation``, which
    derives each direction from the ranks."""

    net: Network
    heads: dict[Edge, int]
    states: dict[int, int]

    @property
    def live(self) -> frozenset[Edge]:
        return frozenset(self.heads)

    def directed_edges(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (tail, head, capacity) for every live directed edge."""
        cap = self.net.capacity
        for edge, head in self.heads.items():
            tail = edge[0] if edge[1] == head else edge[1]
            yield tail, head, cap[edge]

    def signature(self) -> frozenset[tuple[int, int]]:
        """Hashable identity of the orientation (live directed edge set)."""
        return frozenset((e[0], e[1]) if h == e[1] else (e[1], e[0]) for e, h in self.heads.items())


def reference_orient_by_ranking(net: Network, ranking: Mapping[int, Rational]) -> HeadsOrientation:
    """Orient every edge from lower-ranked to higher-ranked endpoint.

    The ranking values must be distinct; the orientation keeps each node's
    position in their order as its rank.
    """
    order = sorted(net.nodes, key=ranking.__getitem__)
    if len({ranking[n] for n in order}) != len(order):
        raise ValueError("ranking values must be distinct")
    states = {n: pos for pos, n in enumerate(order)}
    heads = {}
    for i, j in net.capacity:
        heads[(i, j)] = j if states[i] < states[j] else i
    return HeadsOrientation(net=net, heads=heads, states=states)


def reference_reverse_toward(dag: HeadsOrientation, overloaded: Iterable[int]):
    """Reverse all live links entering ``overloaded`` from outside, then move
    the overloaded nodes below all others in the node order, each side
    keeping its own order.  Returns (new dag, reversed (tail, head) pairs)."""
    overloaded = set(overloaded)
    flips = []
    heads = dict(dag.heads)
    for edge, head in dag.heads.items():
        tail = edge[0] if edge[1] == head else edge[1]
        if tail not in overloaded and head in overloaded:
            heads[edge] = tail
            flips.append((tail, head))
    if not flips:
        return dag, ()
    order = sorted(dag.states, key=dag.states.__getitem__)
    order = [n for n in order if n in overloaded] + [n for n in order if n not in overloaded]
    states = {n: pos for pos, n in enumerate(order)}
    return replace(dag, heads=heads, states=states), tuple(sorted(flips))


def reference_apply_topology_event(dag: HeadsOrientation, action: str, edge: tuple[int, int]) -> HeadsOrientation:
    """Remove a live edge, or add a dead one oriented from lower to higher rank."""
    key = edge_key(*edge)
    if key not in dag.net.capacity:
        raise ValueError(f"edge {{{edge[0]},{edge[1]}}} is not part of the network")
    heads = dict(dag.heads)
    if action == "remove":
        if key not in heads:
            raise ValueError(f"cannot remove dead edge {{{key[0]},{key[1]}}}")
        del heads[key]
    elif action == "add":
        if key in heads:
            raise ValueError(f"cannot add live edge {{{key[0]},{key[1]}}}")
        i, j = key
        heads[key] = j if dag.states[i] < dag.states[j] else i
    else:
        raise ValueError(f"unknown topology action {action!r}")
    return replace(dag, heads=heads)


def exhaustive_delta(net: Network) -> Fraction:
    """Smallest positive difference between capacities of any two cuts, from
    all subset sums of the edge capacities scaled to integers by their least
    common denominator (desk scale only)."""
    caps = list(net.capacity.values())
    if not caps or all(c == 0 for c in caps):
        raise ValueError("degenerate network: no positive capacity, delta undefined")
    scale = math.lcm(*(c.denominator for c in caps))
    if len(caps) > MAX_EXHAUSTIVE_EDGES:
        raise ValueError(f"exhaustive mode limited to {MAX_EXHAUSTIVE_EDGES} edges")
    sums = {0}
    for c in caps:
        c = c.numerator * (scale // c.denominator)
        sums |= {s + c for s in sums}
    # Some capacity is positive, so there are at least two distinct sums.
    ordered = sorted(sums)
    return Fraction(min(b - a for a, b in zip(ordered, ordered[1:])), scale)


def topological_order(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[int] | None:
    """``nodes`` in an order that every (tail, head) pair climbs, by
    ``graphlib``'s sort; None if the pairs hold a directed cycle."""
    sorter = graphlib.TopologicalSorter({n: () for n in nodes})
    for tail, head in pairs:
        sorter.add(head, tail)
    try:
        return list(sorter.static_order())
    except graphlib.CycleError:
        return None


def is_acyclic(dag: DagOrientation) -> bool:
    """True iff the live directed graph admits a topological ordering."""
    pairs = [(tail, head) for tail, head, _ in dag.directed_edges()]
    return topological_order(dag.net.nodes, pairs) is not None


def check_state_consistency(dag: DagOrientation) -> None:
    """Raise unless ``states`` ranks the network's nodes 0..n-1 and every live
    directed edge goes from lower to higher state."""
    states = dag.states
    if set(states) != dag.net.nodes or sorted(states.values()) != list(range(len(states))):
        raise InvariantViolation(f"states are not a node order of the network: {states}")
    for tail, head, _ in dag.directed_edges():
        if not states[tail] < states[head]:
            raise InvariantViolation(
                f"edge ({tail},{head}) violates state order: "
                f"x[{tail}]={states[tail]} >= x[{head}]={states[head]}"
            )


def scanning_blocking_flow(adj, head, res, level, s: int, t: int) -> int:
    """Saturate every shortest s-t path of the level graph; returns the flow
    pushed.  Iterative DFS with one arc pointer per node: an arc is passed
    over only once it is saturated or leads to a dead end.  Every hop,
    the last one into the sink too, scans the node's arc list from its
    pointer."""
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


def erdos_renyi_network(
    n: int,
    p: float,
    rng: random.Random,
    cap_low: int = 1,
    cap_high: int = 10,
    require_connected: bool = True,
    max_tries: int = 1000,
) -> Network:
    """Sample an ER graph with uniform integer capacities; resample until the
    source (node 0) and destination (node n-1) are connected."""
    if n < 2:
        raise ValueError("need at least two nodes")
    for _ in range(max_tries):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.randint(cap_low, cap_high)))
        net = Network.build(range(n), edges, 0, n - 1)
        if not require_connected or _connects(net, 0, n - 1):
            return net
    raise RuntimeError(f"no s-d connected sample after {max_tries} tries")


def _connects(net: Network, s: int, d: int) -> bool:
    # Network.neighbors, which only this check called, inlined.
    adj: dict[int, list[int]] = {n: [] for n in net.nodes}
    for i, j in net.capacity:
        adj[i].append(j)
        adj[j].append(i)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == d:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False
