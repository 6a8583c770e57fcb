"""Test-only oracles and helpers that the package itself never calls.

``brute_force_lex_min`` is the grid-enumeration oracle for the overload
vector on small instances, ``lex_key``/``lex_compare`` order vectors by
their sorted-descending components, ``overloaded_set`` is the smallest
min-cut when a rate exceeds an orientation's max-flow, ``is_acyclic``
checks an orientation by topological sort, and ``check_state_consistency``
checks that the states are a node order that every live link climbs.
``erdos_renyi_network`` is the random-graph sampler as it was while it drew
each capacity with ``rng.randint``, the reference for the sampler that draws
the same stream inline.  ``HeadsOrientation`` and the ``reference_*``
constructors, reversal, topology event and optimal orientation keep every
direction in a ``heads`` map, as the package did before it derived each
direction from the node order; they are the reference for the derived one.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from lfbp.flow import FlowAllocation, _edge_flow, _trim_cycles, smallest_min_cut
from lfbp.graph import (
    DagOrientation,
    Edge,
    InvariantViolation,
    Network,
    Rational,
    as_rational,
    edge_key,
    topological_order,
)
from lfbp.overload import OverloadVector

LESS, EQUAL, GREATER = -1, 0, 1


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
    version: int = 0

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
    return replace(dag, heads=heads, states=states, version=dag.version + 1), tuple(sorted(flips))


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


def reference_optimal_dag(net: Network) -> HeadsOrientation:
    """An orientation whose max-flow matches the undirected max-flow.

    Solve the undirected max-flow, cancel any flow circulating on directed
    cycles, orient flow-carrying edges along the flow, and orient idle edges
    consistently with a deterministic topological order of the flow support.
    """
    result, edges = _edge_flow(net, net.source, net.dest)
    support: dict[int, dict[int, Rational]] = {}
    for e, (i, j) in enumerate(edges):
        net_flow = result.arc_flow(2 * e)
        if result.scale != 1:
            net_flow = Fraction(net_flow, result.scale)
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
    return HeadsOrientation(net=net, heads=heads, states=position)


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
