"""Undirected capacitated networks and acyclic orientations over them.

A ``Network`` is the ground-truth undirected topology.  A ``DagOrientation``
is a live set and a node order: each live link runs from its lower-ranked
endpoint to its higher-ranked one, as Gafni and Bertsekas direct a link by
comparing the heights of its ends.  So the directed graph is acyclic, and a
link that comes back to life is directed without any recomputation.
"""
from __future__ import annotations

import random
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


class Value:
    """A value type.  Its fields are the public names in its ``__slots__``
    (after those of its bases), in order; its ``__init__`` sets them with
    ``_set``, and they cannot be assigned or deleted after that.  Two values
    are equal when they have one type and equal fields, ``hash`` hashes the
    fields, ``repr`` reads ``Name(field=value, ...)``, and a pickle or copy
    calls the type with the fields.  A private slot is no field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy of this value with the fields named in ``changes`` changed."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class Network(Value):
    """Undirected capacitated graph with a designated source and destination.

    ``capacity`` is keyed by canonical undirected edge.  The private
    ``_flow_layout`` slot caches ``flow._edge_layout``'s arcs."""

    __slots__ = ("nodes", "capacity", "source", "dest", "_flow_layout")

    def __init__(self, nodes: frozenset[int], capacity: dict[Edge, Rational], source: int, dest: int):
        self._set(nodes, capacity, source, dest)
        object.__setattr__(self, "_flow_layout", None)

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


class DagOrientation(Value):
    """The live links of a Network and a node order that directs them.

    ``live`` holds the live undirected edges; dead edges are simply absent.
    ``states`` is a node order: each node's rank, 0..n-1.  Every live link
    runs from its lower-ranked endpoint to its higher-ranked one, so the
    orientation is acyclic by construction.
    """

    __slots__ = ("net", "live", "states")

    def __init__(self, net: Network, live: frozenset[Edge], states: dict[int, int]):
        self._set(net, live, states)

    def directed_edges(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (tail, head, capacity) for every live link, in
        ``net.capacity`` order."""
        live, rank = self.live, self.states
        for edge, cap in self.net.capacity.items():
            if edge in live:
                i, j = edge
                yield (i, j, cap) if rank[i] < rank[j] else (j, i, cap)


def orient_by_ranking(net: Network, ranking: Mapping[int, Rational]) -> DagOrientation:
    """Orient every edge from lower-ranked to higher-ranked endpoint.

    The ranking values must be distinct; the orientation keeps each node's
    position in their order as its rank.
    """
    order = sorted(net.nodes, key=ranking.__getitem__)
    if len({ranking[n] for n in order}) != len(order):
        raise ValueError("ranking values must be distinct")
    states = {n: pos for pos, n in enumerate(order)}
    return DagOrientation(net=net, live=frozenset(net.capacity), states=states)


def initial_dag(net: Network) -> DagOrientation:
    """The ID-order orientation: every link goes from lower to higher node ID."""
    return orient_by_ranking(net, {n: n for n in net.nodes})


def orient_explicit(net: Network, directed_pairs: Iterable[tuple[int, int]]) -> DagOrientation:
    """Build an orientation from explicit (tail, head) pairs covering all edges.

    Its ranks are one topological order of the pairs, as ``graphlib`` sorts
    them: link reversal reads only each link's direction, not which order."""
    pairs: dict[Edge, tuple[int, int]] = {}
    for tail, head in directed_pairs:
        key = edge_key(tail, head)
        if key not in net.capacity:
            raise ValueError(f"directed pair ({tail},{head}) is not one of the network's edges")
        if key in pairs:
            raise ValueError(f"edge {{{tail},{head}}} oriented twice")
        pairs[key] = (tail, head)
    missing = set(net.capacity) - set(pairs)
    if missing:
        raise ValueError(f"missing direction for edges {sorted(missing)}")
    import graphlib

    preds: dict[int, list[int]] = {n: [] for n in net.nodes}
    for tail, head in pairs.values():
        preds[head].append(tail)
    try:
        order = list(graphlib.TopologicalSorter(preds).static_order())
    except graphlib.CycleError:
        raise ValueError("explicit orientation contains a directed cycle") from None
    return DagOrientation(net=net, live=frozenset(pairs), states={n: pos for pos, n in enumerate(order)})


def apply_topology_event(dag: DagOrientation, action: str, edge: tuple[int, int]) -> DagOrientation:
    """Remove a live edge, or add a dead one; either way the node order, and
    so every other link's direction, stays as it is."""
    key = edge_key(*edge)
    if key not in dag.net.capacity:
        raise ValueError(f"edge {{{edge[0]},{edge[1]}}} is not part of the network")
    if action == "remove":
        if key not in dag.live:
            raise ValueError(f"cannot remove dead edge {{{key[0]},{key[1]}}}")
        live = dag.live - {key}
    elif action == "add":
        if key in dag.live:
            raise ValueError(f"cannot add live edge {{{key[0]},{key[1]}}}")
        live = dag.live | {key}
    else:
        raise ValueError(f"unknown topology action {action!r}")
    return DagOrientation(dag.net, live, dag.states)


ER_MAX_TRIES = 1000


def erdos_renyi_network(n: int, p: float, rng: random.Random, cap_low: int = 1, cap_high: int = 10) -> Network:
    """Sample an ER graph with uniform integer capacities; resample, up to
    ``ER_MAX_TRIES`` times, until the source (node 0) and destination
    (node n-1) are connected.  Capacities are drawn inline as CPython's
    ``rng.randint(cap_low, cap_high)`` draws them, leaving the same stream
    and ``rng`` state.  The pair walk yields canonical, distinct, in-range
    edges, so the network is built without ``Network.build``'s checks."""
    if n < 2:
        raise ValueError("need at least two nodes")
    if not (isinstance(cap_low, int) and isinstance(cap_high, int)):
        raise ValueError(f"non-integer capacity range [{cap_low!r}, {cap_high!r}]")
    if cap_low > cap_high:
        raise ValueError(f"empty capacity range [{cap_low}, {cap_high}]")
    if cap_low < 0:
        raise ValueError(f"negative capacity range [{cap_low}, {cap_high}]")
    draw, getrandbits = rng.random, rng.getrandbits
    width = cap_high - cap_low + 1
    bits = width.bit_length()
    for _ in range(ER_MAX_TRIES):
        capacity: dict[Edge, int] = {}
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if draw() < p:
                    r = getrandbits(bits)
                    while r >= width:
                        r = getrandbits(bits)
                    capacity[(i, j)] = cap_low + r
                    adj[i].append(j)
                    adj[j].append(i)
        seen = [True] + [False] * (n - 1)  # reached from the source
        queue = [0]
        for u in queue:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        if seen[n - 1]:
            return Network(frozenset(range(n)), capacity, 0, n - 1)
    raise SamplingError(f"no s-d connected sample of n={n} at p={p} after {ER_MAX_TRIES} tries")
