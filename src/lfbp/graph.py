"""Undirected capacitated networks and acyclic orientations over them.

A ``Network`` is the ground-truth undirected topology.  A ``DagOrientation``
assigns a direction to every currently-live link so that the directed graph
is acyclic; a node order (each node's rank) keeps newly appearing links
orientable without global recomputation.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Rational = int | Fraction
Edge = tuple[int, int]  # canonical: (lo, hi)


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee was broken; indicates a bug."""


class SamplingError(RuntimeError):
    """A random-graph sampler found no graph meeting its condition."""


def edge_key(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def as_rational(value) -> Rational:
    """Normalize a numeric value to int or Fraction (exact).

    Floats convert to their exact binary value; fraction strings like "3/4"
    are accepted for file inputs.
    """
    if isinstance(value, bool):
        raise TypeError("expected a number, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, (Fraction, float, str)):
        frac = Fraction(value)
        return int(frac) if frac.denominator == 1 else frac
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Network:
    """Undirected capacitated graph with a designated source and destination."""

    nodes: frozenset[int]
    capacity: dict[Edge, Rational]  # keyed by canonical undirected edge
    source: int
    dest: int

    @classmethod
    def build(cls, nodes: Iterable[int], edges: Iterable[tuple], source: int, dest: int) -> "Network":
        """Construct and validate a network from (i, j, capacity) triples."""
        node_list = list(nodes)
        node_set = frozenset(node_list)
        if len(node_list) != len(node_set):
            raise ValueError("node IDs must be unique")
        if source == dest:
            raise ValueError("source and destination must differ")
        if source not in node_set or dest not in node_set:
            raise ValueError("source/destination must be network nodes")
        capacity: dict[Edge, Rational] = {}
        for i, j, cap in edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if i not in node_set or j not in node_set:
                raise ValueError(f"edge {{{i},{j}}} references unknown node")
            key = (i, j) if i < j else (j, i)
            if key in capacity:
                raise ValueError(f"duplicate edge {{{i},{j}}}")
            if type(cap) is not int:
                cap = as_rational(cap)
            if cap < 0:
                raise ValueError(f"negative capacity {cap} on edge {{{i},{j}}}")
            capacity[key] = cap
        return cls(nodes=node_set, capacity=capacity, source=source, dest=dest)

    @property
    def edges(self) -> list[Edge]:
        return sorted(self.capacity)


@dataclass(frozen=True)
class DagOrientation:
    """A direction assignment over the live links of a Network.

    ``heads`` maps each live undirected edge to the endpoint it points at;
    dead edges are simply absent.  ``states`` is a node order: each node's
    rank, 0..n-1, and every live directed edge goes from lower rank to
    higher rank.  ``version`` is a monotone sequence number for traces.
    """

    net: Network
    heads: dict[Edge, int]
    states: dict[int, int]
    version: int = 0

    @property
    def live(self) -> frozenset[Edge]:
        return frozenset(self.heads)

    def is_live(self, edge: Edge) -> bool:
        return edge in self.heads

    def directed_edges(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (tail, head, capacity) for every live directed edge."""
        cap = self.net.capacity
        for edge, head in self.heads.items():
            tail = edge[0] if edge[1] == head else edge[1]
            yield tail, head, cap[edge]

    def direction(self, edge: Edge) -> tuple[int, int]:
        head = self.heads[edge]
        tail = edge[0] if edge[1] == head else edge[1]
        return tail, head

    def signature(self) -> frozenset[tuple[int, int]]:
        """Hashable identity of the orientation (live directed edge set)."""
        return frozenset((e[0], e[1]) if h == e[1] else (e[1], e[0]) for e, h in self.heads.items())


def orient_by_ranking(net: Network, ranking: Mapping[int, Rational]) -> DagOrientation:
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
    return DagOrientation(net=net, heads=heads, states=states)


def initial_dag(net: Network) -> DagOrientation:
    """The ID-order orientation: every link goes from lower to higher node ID."""
    return orient_by_ranking(net, {n: n for n in net.nodes})


def orient_explicit(net: Network, directed_pairs: Iterable[tuple[int, int]]) -> DagOrientation:
    """Build an orientation from explicit (tail, head) pairs covering all edges."""
    heads: dict[Edge, int] = {}
    for tail, head in directed_pairs:
        key = edge_key(tail, head)
        if key not in net.capacity:
            raise ValueError(f"directed pair ({tail},{head}) is not one of the network's edges")
        if key in heads:
            raise ValueError(f"edge {{{tail},{head}}} oriented twice")
        heads[key] = head
    missing = set(net.capacity) - set(heads)
    if missing:
        raise ValueError(f"missing direction for edges {sorted(missing)}")
    order = topological_order(net.nodes, _directed_pairs(heads))
    if order is None:
        raise ValueError("explicit orientation contains a directed cycle")
    return DagOrientation(net=net, heads=heads, states={n: pos for pos, n in enumerate(order)})


def _directed_pairs(heads: Mapping[Edge, int]) -> list[tuple[int, int]]:
    return [((e[0] if e[1] == h else e[1]), h) for e, h in heads.items()]


def topological_order(nodes: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[int] | None:
    """Kahn's algorithm with lowest-ID-first tie breaking; None if cyclic."""
    nodes = set(nodes)
    out: dict[int, list[int]] = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for tail, head in pairs:
        out[tail].append(head)
        indeg[head] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    return order if len(order) == len(nodes) else None


def apply_topology_event(dag: DagOrientation, action: str, edge: tuple[int, int]) -> DagOrientation:
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
    source (node 0) and destination (node n-1) are connected.  Capacities are
    drawn inline as CPython's ``rng.randint(cap_low, cap_high)`` draws them,
    leaving the same stream and ``rng`` state."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if cap_low > cap_high:
        raise ValueError(f"empty capacity range [{cap_low}, {cap_high}]")
    draw, getrandbits = rng.random, rng.getrandbits
    width = cap_high - cap_low + 1
    bits = width.bit_length()
    for _ in range(max_tries):
        edges = []
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if draw() < p:
                    r = getrandbits(bits)
                    while r >= width:
                        r = getrandbits(bits)
                    edges.append((i, j, cap_low + r))
                    adj[i].append(j)
                    adj[j].append(i)
        net = Network.build(range(n), edges, 0, n - 1)
        seen = [True] + [False] * (n - 1)  # reached from the source
        queue = [0]
        for u in queue:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        if not require_connected or seen[n - 1]:
            return net
    raise SamplingError(f"no s-d connected sample of n={n} at p={p} after {max_tries} tries")
