"""Decomposable (chordal) graph primitives.

Vertices are indices 0..n-1 and vertex sets are plain ints used as bit
masks, which keeps subset and intersection tests cheap in every inner
loop (and, ints being arbitrary precision, works beyond 64 vertices).
Graphs are immutable values; induced subgraphs keep the original vertex
labels so that induced pieces of different host graphs compare by
value.

An edge mask has one bit per vertex pair, in ascending (i, j) order:
vertex i's pairs with the higher vertices i+1..n-1 fill one contiguous
block of n-i-1 bits starting at bit ``_row_shift(n, i)``, so a row of
the adjacency above the diagonal moves in and out of the mask with one
shift. This module is the only one that knows the layout: one encoder
sums adjacency rows above the diagonal into a mask, one decoder cuts a
mask's blocks into adjacency rows, every edge list is peeled off the
rows, and ``json.dumps`` of it is the one formatter. The writers of
every graph on n vertices (graph lines and density entries) split each
mask at the row boundary nearest its middle and look the two halves up
in one cached tuple of texts each, which ``json.dumps`` fills once per
vertex count, so a graph's edge list is two lookups and one join.

Recognition is one maximum cardinality search that reads the cliques
and separators off its running clique as it goes and tests chordality
only where a new clique starts; a graph is searched once and keeps the
result in a single slot. Unvisited vertices wait in buckets by number
of visited neighbours, one mask each, and a visit moves them up by one
mask operation per bucket, at most the vertex's degree plus one, so the
search is O(n + m) (Tarjan & Yannakakis 1984); the lowest set bit of
the top bucket breaks ties toward the lowest index, which fixes the
order of the cliques. Junction-tree orderings from any start clique are
built from the cliques. The same search runs on many graphs in
lockstep, a numpy step per vertex, with the same buckets, moves and
tie-break. Exhaustive enumeration extends and filters: deleting vertex
0 from a chordal graph leaves a chordal graph, so the candidates on n
vertices are each chordal graph on n-1 vertices joined to a new vertex
0 by every neighbourhood, and the lockstep search keeps the chordal
ones, in ascending mask order.
One cached table per vertex count lists every enumerated graph's
cliques and separators, with their signs, and its adjacency rows, as
compact numpy columns; a second lockstep search on each block's
chordal rows fills 2n+1 fixed slots per graph, whose kept slots, read
in order, are the entries in the order that the single-graph search
emits them. The table holds the one enumeration per vertex
count that normalisation, the density parser and the decomposition
index read, and :func:`enumerate_decomposable` yields every graph
view of its rows; only counting and the CLI listing stream the blocks
and never build it.
Graphs and the edge fields of graph and density files share one
set of edge checks, and a graph file is checked and converted once.
Every JSON file is parsed by one reader, which turns each density entry
into one int of its pairs and its probability as soon as the entry
closes, so a density's dicts and edge lists never exist all at once.

One integer rule, :func:`_index`, reads every vertex, vertex set,
vertex count and index that a public function takes: ``operator.index``
reads a numpy integer as an int, and a bool, a float or anything else
is a ``DomainError``. :func:`_check_vertex_count`,
:func:`_check_enumerable` and :func:`_check_subset` read through it and
return the int that they read. The decomposition tests
(:func:`is_decomposition`, :func:`in_U_star`, :func:`in_U_plus`) and
:meth:`Graph._with_bit_toggled` are timed hot paths and take their
arguments raw. Files are read by their own checks, which take JSON
integers only.
"""

from __future__ import annotations

import json
import operator
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, nan
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError

#: Sanity cap on vertex counts; masks themselves have no width limit.
MAX_VERTICES = 1024

#: Cap on exhaustive enumeration (617,675 decomposable graphs at n=7).
ENUMERATION_LIMIT = 7


def _index(value, what: str | None = "vertex index") -> int:
    """``value`` through ``operator.index``, bools refused; else an error naming ``what``, or nan if it is None."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    if what is None:
        return nan
    raise DomainError(f"{what} {value!r} is not an integer")


def _check_vertex_count(n) -> int:
    """``n`` read as a vertex count in 1..``MAX_VERTICES``, before anything (1 << n) is built from it."""
    n = _index(n, "vertex count")
    if not 1 <= n <= MAX_VERTICES:
        raise DomainError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    return n


def _check_enumerable(n) -> int:
    """``n`` read as a vertex count in 1..``ENUMERATION_LIMIT``, before anything is built from it."""
    n = _check_vertex_count(n)
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"enumeration over {n} vertices exceeds the limit of {ENUMERATION_LIMIT}")
    return n


def vset(vertices: Iterable[int]) -> int:
    """Bit mask of a collection of vertex indices."""
    m = 0
    for v in map(_index, vertices):
        if not 0 <= v < MAX_VERTICES:  # before 1 << v, huge for a huge v
            raise DomainError(f"vertex index {v} outside 0..{MAX_VERTICES - 1}")
        m |= 1 << v
    return m


def members(mask: int) -> list[int]:
    """Sorted vertex indices packed in a bit mask."""
    mask = _check_subset(mask, -1, "vertex mask")  # any mask that is not negative
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _row_shift(n: int, i: int) -> int:
    """Edge-mask bit of the pair (i, i+1), where vertex i's block starts."""
    return i * (2 * n - i - 1) // 2


def _pair_at(n: int, k: int) -> tuple[int, int]:
    """The vertex pair (i, j) at bit k of an edge mask on n vertices.

    Row i is the last whose block starts at or before k: the largest i
    with i(2n-1-i)/2 <= k, the floor of the smaller root of that
    quadratic, which an integer square root finds exactly or one too high.
    """
    m = 2 * n - 1
    i = (m - isqrt(m * m - 8 * k)) // 2
    start = i * (m - i) // 2
    if start > k:
        i -= 1
        start = i * (m - i) // 2
    return i, k - start + i + 1


def _mask_rows(n: int, mask: int) -> tuple[int, ...]:
    """Adjacency rows of an edge mask on n vertices: block i, shifted up by
    i+1, is row i above the diagonal, and each of its pairs (i, j) sets bit
    i of row j. Blocks are cut out of the mask's bytes, so no row copies the whole mask."""
    data = mask.to_bytes((n * (n - 1) // 2 + 7) // 8, "little")
    cuts = [_row_shift(n, i) for i in range(n + 1)]  # block i: bits cuts[i] to cuts[i+1] - 1
    adj = [(int.from_bytes(data[k >> 3 : e + 7 >> 3], "little") >> (k & 7) & ~(-1 << e - k)) << i + 1
           for i, (k, e) in enumerate(zip(cuts, cuts[1:]))]
    for i, j in _row_edges(adj):
        adj[j] |= 1 << i
    return tuple(adj)


def _row_edges(adj) -> list[tuple[int, int]]:
    """The vertex pairs (i, j), i < j, of the adjacency rows ``adj``, in
    ascending order: the set bits of each row above the diagonal, peeled."""
    edges = []
    for i, a in enumerate(adj):
        row = a >> i + 1
        while row:
            b = row & -row
            edges.append((i, i + b.bit_length()))
            row ^= b
    return edges


def _rows_mask(n: int, rows) -> int:
    """Edge mask of the adjacency rows ``rows`` on n vertices: row i above
    the diagonal is vertex i's block, and disjoint blocks sum to their union."""
    return sum((a >> (i + 1)) << _row_shift(n, i) for i, a in enumerate(rows))


def within_edge_mask(n: int, vmask: int) -> int:
    """Edge mask of the complete graph on the vertices in ``vmask``."""
    vmask = _check_subset(vmask, _full_mask(n), "vertex set")  # a vertex past n would bleed into the next row
    return _rows_mask(n, [vmask if vmask >> i & 1 else 0 for i in range(n)])


def _mcs(n: int, adj, vmask: int):
    """Maximum cardinality search over the vertices in ``vmask``.

    Ties break toward the lowest vertex index. Returns ``[cliques,
    separators]``, two lists of masks, or None if the induced graph is
    not chordal. A running clique grows by each visited vertex adjacent
    to all of it. Any other vertex closes it: it is emitted, and the
    vertex with its previously visited neighbours starts the next one,
    those neighbours being that clique's separator.

    The graph is chordal iff every vertex's previously visited
    neighbours form a clique, the reversed visit order then being a
    perfect elimination ordering (Tarjan & Yannakakis 1984). A vertex
    adjacent to all of the running clique has exactly that clique as
    its previously visited neighbours, so it passes: the clique is the
    last visited vertex u with u's earlier neighbours, and when u was
    chosen the vertex had no more visited neighbours than u had. Only a
    vertex that starts a new clique needs the test.

    Unvisited vertices wait in buckets by weight, their number of
    visited neighbours: ``buckets[k]`` is the mask of those with weight
    k, and no weight exceeds n-1. The heaviest bucket that may be
    non-empty is ``top``; the next vertex v is the lowest set bit of
    ``buckets[top]``, the lowest index among those of maximum weight.
    Its unvisited neighbours move up one bucket, one mask operation per
    bucket, in a scan down from v's bucket (none is heavier) that stops
    once all have moved; v weighs at most deg(v), so at most deg(v)+1
    buckets. ``top`` rises by one if a neighbour was in its bucket and
    falls, no further than it rose, only when a vertex is chosen: O(n + m).
    """
    buckets = [0] * n
    buckets[0] = vmask
    top = 0
    numbered = 0
    current = 0
    cl: list[int] = []
    seps: list[int] = []
    un = vmask
    while un:
        while not buckets[top]:
            top -= 1
        b = buckets[top]
        bv = b & -b
        buckets[top] = b ^ bv
        v = bv.bit_length() - 1
        av = adj[v]
        if current & ~av:
            prior = av & numbered
            if not _is_clique(adj, prior):
                return None
            cl.append(current)
            seps.append(prior)
            current = prior | bv
        else:
            current |= bv
        numbered |= bv
        un ^= bv
        m = av & un
        k = top
        if m & buckets[top]:
            top += 1
        while m:
            b = buckets[k] & m
            buckets[k] ^= b
            buckets[k + 1] |= b
            m ^= b
            k -= 1
    if current:
        cl.append(current)
    return [cl, seps]


def _checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Adjacency rows and edge mask of ``edges`` on 0..n-1, rejecting
    self-loops, edges out of range and duplicate edges, in that order
    for each edge."""
    adj = [0] * n
    for i, j in edges:
        if i == j:
            raise DomainError(f"self-loop at vertex {i}")
        if i > j:
            i, j = j, i
        if not (0 <= i and j < n):
            raise DomainError(f"edge ({i},{j}) out of range for n={n}")
        if adj[i] >> j & 1:
            raise DomainError(f"duplicate edge ({i},{j})")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj, _rows_mask(n, adj)


class Graph:
    """Immutable undirected graph on labelled vertices 0..n-1.

    ``vertices`` is the active vertex set (a bit mask); it is all of
    0..n-1 except for induced subgraphs, which keep their host's labels.
    Equality and hashing use ``(n, vertices, edge_mask)``.

    ``_summary`` holds the one search of the graph: None before it,
    False if the graph is not chordal, else the ``[cliques, separators]``
    list of :func:`_mcs`.
    """

    __slots__ = ("n", "vertices", "adj", "edge_mask", "_summary")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = _check_vertex_count(n)
        adj, self.edge_mask = _checked_edges(n, [(_index(i), _index(j)) for i, j in edges])
        self.n = n
        self.vertices = _full_mask(n)
        self.adj = tuple(adj)
        self._summary = None

    @classmethod
    def _from_parts(cls, n, vertices, adj, edge_mask) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g.vertices = vertices
        g.adj = adj
        g.edge_mask = edge_mask
        g._summary = None
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        n = _check_vertex_count(n)  # before 1 << n
        return complete_sets_graph(n, [_full_mask(n)])

    @classmethod
    def from_edge_mask(cls, n: int, edge_mask: int) -> "Graph":
        n = _check_vertex_count(n)
        edge_mask = _index(edge_mask, "edge mask")
        if edge_mask >> (n * (n - 1) // 2):
            raise DomainError("edge mask has bits beyond the pair range")
        return cls._from_parts(n, _full_mask(n), _mask_rows(n, edge_mask), edge_mask)

    def edges(self) -> list[tuple[int, int]]:
        return _row_edges(self.adj)

    def _active_pair(self, i, j) -> tuple[int, int]:
        i, j = _index(i), _index(j)
        if min(i, j) < 0 or not self.vertices >> i & self.vertices >> j & 1:
            raise DomainError(f"vertex pair ({i},{j}) not active")
        return i, j

    def has_edge(self, i: int, j: int) -> bool:
        i, j = self._active_pair(i, j)
        return bool(self.adj[i] >> j & 1)

    def with_edge_toggled(self, i: int, j: int) -> "Graph":
        if i == j:
            raise DomainError("cannot toggle a self-loop")
        i, j = sorted(self._active_pair(i, j))
        return self._with_bit_toggled(_row_shift(self.n, i) + j - i - 1)

    def _with_bit_toggled(self, k: int) -> "Graph":
        """This graph with the pair at edge-mask bit k toggled; k is used raw, unchecked,
        for callers that drew it among pairs of active vertices on every chain step."""
        i, j = _pair_at(self.n, k)
        adj = list(self.adj)
        adj[i] ^= 1 << j
        adj[j] ^= 1 << i
        return Graph._from_parts(self.n, self.vertices, tuple(adj), self.edge_mask ^ 1 << k)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.vertices == other.vertices
            and self.edge_mask == other.edge_mask
        )

    def __hash__(self):
        return hash((self.n, self.vertices, self.edge_mask))

    def __repr__(self):
        extra = "" if self.vertices == _full_mask(self.n) else f", vertices={members(self.vertices)}"
        return f"Graph(n={self.n}, edges={self.edges()}{extra})"


def _check_subset(a, universe: int, what: str) -> int:
    """``a`` read as a vertex set: an integer (see :func:`_index`) whose set bits all lie in ``universe``."""
    a = _index(a, what)
    if a < 0:  # its set bits never run out
        raise DomainError(f"negative {what} {a}")
    if a & ~universe:
        raise DomainError(f"{what} contains vertices outside the graph: {members(a & ~universe)}")
    return a


def _is_clique(adj, a: int) -> bool:
    m = a
    while m:
        b = m & -m
        if a & ~(adj[b.bit_length() - 1] | b):
            return False
        m ^= b
    return True


def is_complete(g: Graph, a: int) -> bool:
    """True iff every pair of vertices in ``a`` is an edge of ``g``."""
    a = _check_subset(a, g.vertices, "vertex set")
    return _is_clique(g.adj, a)


def induced_subgraph(g: Graph, a: int) -> Graph:
    """Subgraph induced on ``a``, keeping the original vertex labels."""
    a = _check_subset(a, g.vertices, "vertex set")
    adj = tuple(g.adj[v] & a if a >> v & 1 else 0 for v in range(g.n))
    emask = g.edge_mask & within_edge_mask(g.n, a)
    return Graph._from_parts(g.n, a, adj, emask)


def is_decomposable(g: Graph) -> bool:
    """True iff ``g`` is chordal; keeps the cliques and separators that
    the same search read off, for :func:`clique_separators`."""
    if g._summary is None:
        g._summary = _mcs(g.n, g.adj, g.vertices) or False
    return g._summary is not False


def _require_decomposable(g: Graph) -> None:
    if not is_decomposable(g):
        raise PreconditionError("graph is not decomposable")


def cliques(g: Graph) -> tuple[int, ...]:
    """Maximal complete vertex sets of a decomposable graph, as masks."""
    _require_decomposable(g)
    return tuple(g._summary[0])


def clique_separators(g: Graph) -> tuple[tuple[int, ...], Counter]:
    """``(cliques, separator multiset)`` of a decomposable graph, built
    afresh on each call from the graph's one search, so the caller owns it.

    The separator multiset maps each separator mask to its multiplicity,
    in order of first emission; it is invariant across junction trees, so
    the separators that the search emitted with the cliques suffice.
    """
    _require_decomposable(g)
    cl, seps = g._summary
    return tuple(cl), Counter(seps)


@dataclass(frozen=True)
class PluperfectOrder:
    """Cliques in visitation order with the separators and parents joining them.

    ``separators[k]`` is the intersection of ``cliques[k+1]`` with the
    union of all earlier cliques, and is contained in the earlier clique
    ``cliques[parents[k]]``; linking each clique to its parent yields a
    junction tree. Orderings constructed here run Prim's algorithm on the
    clique graph weighted by intersection size: each step takes the first
    remaining clique with the largest separator. Every remaining clique is
    attachable (running intersection), so no alternative choice could
    produce a strict superset separator at any step.
    """

    n: int
    cliques: tuple[int, ...]
    separators: tuple[int, ...]
    parents: tuple[int, ...]


def pluperfect_order(g: Graph, first: int = 0) -> PluperfectOrder:
    """Order the cliques of ``g`` by Prim's algorithm on intersection size.

    ``first`` indexes into :func:`cliques` and selects the starting
    clique; any clique may start. Ties break toward the earliest clique
    in the base ordering, and the parent is the earliest ordered clique
    containing the separator.
    """
    first = _index(first, "first clique index")
    cl = cliques(g)
    j = len(cl)
    if not 0 <= first < j:
        raise DomainError(f"first clique index {first} out of range for {j} cliques")
    order = [cl[first]]
    seps: list[int] = []
    parents: list[int] = []
    remaining = [c for k, c in enumerate(cl) if k != first]
    covered = cl[first]
    while remaining:
        c = max(remaining, key=lambda d: (d & covered).bit_count())
        remaining.remove(c)
        s = c & covered
        parents.append(next(i for i, o in enumerate(order) if s & ~o == 0))
        order.append(c)
        seps.append(s)
        covered |= c
    return PluperfectOrder(g.n, tuple(order), tuple(seps), tuple(parents))


def separator_multiset(order: PluperfectOrder) -> Counter:
    """Multiset of separators of a junction-tree ordering, with multiplicity."""
    return Counter(order.separators)


def is_decomposition(g: Graph, a: int, b: int) -> bool:
    """True iff ``a`` and ``b`` cover the vertices, ``a & b`` is complete,
    and every path from ``a`` minus ``b`` to ``b`` minus ``a`` meets ``a & b``.

    Because ``a | b`` covers every vertex, the separation condition is
    equivalent to there being no edge joining the two set differences.

    ``a`` and ``b`` are used raw, unlike every other vertex-set argument:
    a cold decomposition index at n=6 makes 805,192 calls, so only a
    failed cover reads them through :func:`_check_subset`, and a float
    part raises ``TypeError``.
    """
    # Parts that cover the vertices lie inside them, so only a failed cover
    # needs the subset checks, which come first to keep the error order.
    if a | b != g.vertices:
        _check_subset(a, g.vertices, "first part")
        _check_subset(b, g.vertices, "second part")
        raise PreconditionError("parts do not cover the vertex set")
    adj = g.adj
    if not _is_clique(adj, a & b):
        return False
    only_b = b & ~a
    m = a & ~b
    while m:
        bit = m & -m
        if adj[bit.bit_length() - 1] & only_b:
            return False
        m ^= bit
    return True


def _is_maximal_within(g: Graph, s: int, part: int) -> bool:
    """No vertex of ``part`` outside ``s`` is adjacent to all of ``s``."""
    m = part & ~s
    while m:
        bit = m & -m
        if s & ~g.adj[bit.bit_length() - 1] == 0:
            return False
        m ^= bit
    return True


def in_U_star(g: Graph, a: int, b: int) -> bool:
    """True iff ``(a, b)`` decomposes ``g`` and ``a & b`` is a clique of the
    subgraph induced on ``a`` (complete and maximal there). Its parts are
    used raw, as :func:`is_decomposition` uses them."""
    return is_decomposition(g, a, b) and _is_maximal_within(g, a & b, a)


def in_U_plus(g: Graph, a: int, b: int) -> bool:
    """True iff ``(a, b)`` decomposes ``g`` and ``a & b`` is a clique of ``g``
    itself, i.e. maximal within both parts. Its parts are used raw, as
    :func:`is_decomposition` uses them."""
    return in_U_star(g, a, b) and _is_maximal_within(g, a & b, b)


def _reach(adj, start: int, within: int) -> int:
    """Vertices of ``within`` reachable from ``start``, itself one of them,
    along paths that stay inside ``within``."""
    reach = 1 << start
    frontier = reach
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= adj[b.bit_length() - 1]
            m ^= b
        frontier = nxt & within & ~reach
        reach |= frontier
    return reach


def is_connected(g: Graph) -> bool:
    """True iff the active vertices form one connected component."""
    if g.vertices == 0:
        return True
    start = (g.vertices & -g.vertices).bit_length() - 1
    return _reach(g.adj, start, g.vertices) == g.vertices


def complete_sets_graph(n: int, sets: Iterable[int]) -> Graph:
    """Graph on 0..n-1 whose edges make each given vertex set complete.

    This realises the compact bracket notation for decomposable graphs:
    the maximal elements of ``sets`` (plus leftover singletons) are its
    cliques.
    """
    n = _check_vertex_count(n)
    full = _full_mask(n)
    adj = [0] * n
    for s in sets:
        s = _check_subset(s, full, "vertex set")
        m = s
        while m:
            b = m & -m
            adj[b.bit_length() - 1] |= s & ~b
            m ^= b
    return Graph._from_parts(n, full, tuple(adj), _rows_mask(n, adj))


#: Candidate rows per block of the enumeration's lockstep search. Its (n, block) uint8 arrays
#: stay near 50 KiB; larger blocks count a little faster but raise the peak RSS of counting.
_LOCKSTEP_BLOCK = 1 << 13


def _lockstep(n: int, adj: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Maximum cardinality search on every row of the ``(graphs, n)`` uint8
    adjacency ``adj`` at once, n ≤ 8: each of its n steps yields ``(bv, av,
    numbered)``, the bit of each graph's next vertex, that vertex's
    adjacency row, and the vertices numbered before it.

    It is :func:`_mcs` with a numpy step per vertex: ``buckets[k]`` holds
    each graph's unnumbered vertices with k numbered neighbours, the next
    vertex is the lowest of the heaviest non-empty bucket, and its
    unnumbered neighbours move up one bucket by one mask operation per bucket.
    """
    cols = np.ascontiguousarray(adj.T)  # cols[v]: every graph's row of vertex v
    bit = (1 << np.arange(n, dtype=np.uint8))[:, None]
    buckets = np.zeros((n, len(adj)), dtype=np.uint8)
    buckets[0] = _full_mask(n)
    numbered = np.zeros(len(adj), dtype=np.uint8)
    for _ in range(n):
        top = buckets[0].copy()
        for b in buckets[1:]:
            np.copyto(top, b, where=b != 0)
        bv = top & -top
        av = np.bitwise_or.reduce(cols * (bv & bit != 0), axis=0)
        yield bv, av, numbered
        numbered = numbered | bv
        buckets &= ~bv
        moved = buckets & av & ~numbered
        buckets ^= moved
        buckets[1:] |= moved[:-1]


def _chordal_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(masks, adj)`` for every chordal graph on n vertices, in
    ascending edge-mask order, a block at a time: ``masks`` are the
    block's chordal edge masks (int64) and ``adj`` their ``(graphs, n)``
    uint8 adjacency rows.

    Deleting vertex 0 from a chordal graph leaves a chordal graph on
    vertices 1..n-1 (induced subgraphs of chordal graphs are chordal),
    whose edge mask is the top bits ``mask >> (n-1)``. So the candidates
    on k vertices are ``h << (k-1) | low`` for each chordal graph ``h`` on
    k-1 vertices and each of the 2^(k-1) neighbourhoods ``low`` of vertex
    0, ascending in ``h`` and then in ``low``, which is ascending mask
    order. A candidate's rows are ``h``'s rows moved up one vertex, OR'd
    with one precomputed table of vertex 0's edges. One :func:`_lockstep`
    keeps the candidates where every vertex's previously numbered
    neighbours form a clique, which holds iff the graph is chordal, the
    reversed visit order then being a perfect elimination ordering
    (Tarjan & Yannakakis 1984). One loop builds the levels k = 2..n-1 in
    full (at most 18,154 graphs), then the blocks of level n are
    yielded. A block extends ``_LOCKSTEP_BLOCK >> (k-1)`` graphs (at
    least one) and is never empty, since each ``h`` with vertex 0
    isolated is kept.
    """
    n = _check_enumerable(n)

    def extend(k, masks, adj):
        low = np.arange(1 << (k - 1), dtype=np.uint8)  # bit j - 1: the edge (0, j)
        # zero[v, low]: vertex v's edges to vertex 0, or vertex 0's row for v = 0
        zero = np.concatenate([low[None] << 1, low >> np.arange(k - 1, dtype=np.uint8)[:, None] & 1])
        bit = (1 << np.arange(k, dtype=np.uint8))[:, None]
        step = max(1, _LOCKSTEP_BLOCK >> (k - 1))
        for lo in range(0, len(masks), step):
            h = np.pad(adj[lo : lo + step].T, ((1, 0), (0, 0)))  # h[v]: every graph's row of vertex v - 1
            cols = (h[:, :, None] << 1 | zero[:, None]).reshape(k, -1)
            away = ~(cols | bit)  # away[u]: the vertices neither u nor adjacent to u
            miss = np.zeros(cols.shape[1], dtype=np.uint8)
            for _, av, numbered in _lockstep(k, cols.T):
                prior = av & numbered
                miss |= prior & np.bitwise_or.reduce(away * (prior & bit != 0), axis=0)
            keep = miss == 0
            yield (masks[lo : lo + step, None] << (k - 1) | low).ravel()[keep], cols.T[keep]

    def blocks():
        level = [(np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=np.uint8))]  # the graph on one vertex
        for k in range(2, n + 1):
            level = extend(k, *map(np.concatenate, zip(*level)))
        yield from level

    return blocks()


@dataclass(frozen=True, eq=False)
class _CliqueSeparatorTable:
    """Every decomposable graph on n vertices as a signed list of vertex sets.

    ``masks`` are the edge masks that :func:`_chordal_blocks` yields, in its ascending order,
    as one read-only int64 buffer, which every density and the decomposition index share and
    whose items are Python ints. Entry k gives graph ``gi[k]`` (an index into ``masks``) the
    set ``sets[k]`` with coefficient ``coef[k]``: +1 for each clique, in the order that
    :func:`_mcs` on the graph would emit them, then minus the multiplicity for each separator,
    in order of first emission. A graph's entries are contiguous, and the graphs ascend. Row k
    of ``adj`` holds graph k's n adjacency masks, as the blocks yield them. The dtypes are
    compact: sets of up to 8 vertices fit in a byte, and so does a multiplicity. Every column
    is read-only, since the table is cached for the process.
    """

    masks: memoryview
    gi: np.ndarray
    sets: np.ndarray
    coef: np.ndarray
    adj: np.ndarray

    def __post_init__(self):
        for column in (self.gi, self.sets, self.coef, self.adj):
            column.flags.writeable = False


def _lockstep_entries(n: int, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clique/separator table entries ``(gi, sets, coef)`` of the chordal
    graphs whose ``(graphs, n)`` uint8 adjacency rows are ``adj``, n ≤ 8,
    with ``gi`` indexing those rows.

    One :func:`_lockstep` emits what :func:`_mcs` emits for each graph: at
    step j, a row whose running clique is not inside the next vertex's
    neighbourhood closes that clique and emits the separator ``av &
    numbered``, the start of the next clique. No chordality test is
    needed, since the rows are chordal.

    Each graph has 2n+1 slots: slot j < n holds the clique that step j
    closes, slot n the last clique, and slot n+1+j the separator of step
    j. A clique slot is kept where it is not empty (a closed clique never
    is); a separator slot where step j closes and no earlier step emits
    the same set, since a separator can be empty. Reading the kept slots
    graph by graph gives a graph's cliques in emission order, then its
    separators in order of first emission, with no sort.
    """
    current = np.zeros(len(adj), dtype=np.uint8)
    steps = []  # each step's (closed clique or 0, separator, close), one entry per graph
    for bv, av, numbered in _lockstep(n, adj):
        close = current & ~av != 0
        sep = av & numbered
        steps.append((np.where(close, current, 0), sep, close))
        current = np.where(close, sep, current) | bv
    clique, sep, close = map(np.array, zip(*steps))
    same = close[:, None] & (sep[:, None] == sep)  # same[k, j]: step k emits step j's separator
    first = close & ~(same & np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]).any(axis=0)
    sets = np.concatenate([clique, current[None], sep])  # (2n+1, graphs): the slots
    slot = np.flatnonzero(np.concatenate([sets[: n + 1] != 0, first]).T)
    coef = np.concatenate([np.ones((n + 1, len(adj)), dtype=np.int8), -same.sum(axis=0, dtype=np.int8)])
    return slot // (2 * n + 1), sets.T.ravel()[slot], coef.T.ravel()[slot]


@lru_cache(maxsize=4)
def _clique_separator_table(n: int) -> _CliqueSeparatorTable:
    """The cached :class:`_CliqueSeparatorTable` of n vertices:
    :func:`_lockstep_entries` reads the entries off each block of
    :func:`_chordal_blocks`."""
    masks, counts, sets, coef, rows = array("q"), array("B"), array("B"), array("b"), array("B")
    for block, adj in _chordal_blocks(n):  # checks n before 1 << n is built
        masks.frombytes(block.tobytes())
        rows.frombytes(adj.tobytes())
        gi, bsets, bcoef = _lockstep_entries(n, adj)
        counts.frombytes(np.bincount(gi, minlength=len(adj)).astype(np.uint8).tobytes())
        sets.frombytes(bsets.tobytes())
        coef.frombytes(bcoef.tobytes())
    return _CliqueSeparatorTable(
        memoryview(masks).toreadonly(),
        np.repeat(np.arange(len(masks), dtype=np.int32), np.frombuffer(counts, dtype=np.uint8)),
        np.frombuffer(sets, dtype=np.uint8),
        np.frombuffer(coef, dtype=np.int8),
        np.frombuffer(rows, dtype=np.uint8).reshape(len(masks), n),
    )


def enumerate_decomposable(n: int) -> Iterator[Graph]:
    """Yield every decomposable labelled graph on n vertices exactly once,
    in ascending edge-mask order, as views of the rows of the cached
    :func:`_clique_separator_table`, made ``_LOCKSTEP_BLOCK`` rows at a time."""
    n = _check_enumerable(n)  # the cached table is keyed by n, so 4.0 would hit the table of 4
    t = _clique_separator_table(n)
    for lo in range(0, len(t.masks), _LOCKSTEP_BLOCK):
        for row, mask in zip(t.adj[lo : lo + _LOCKSTEP_BLOCK].tolist(), t.masks[lo : lo + _LOCKSTEP_BLOCK]):
            yield Graph._from_parts(n, _full_mask(n), tuple(row), mask)


def count_decomposable(n: int) -> int:
    """Number of decomposable labelled graphs on n vertices."""
    # Sums the block lengths: no graph is made.
    return sum(len(masks) for masks, _ in _chordal_blocks(n))


@lru_cache(maxsize=4)
def _edges_json_halves(n: int) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """``(s, low, high)`` for edge masks on n vertices, split at bit s, the
    row boundary nearest the middle of the mask: ``low[m]`` is the text
    inside the brackets of ``json.dumps`` of the pairs of each mask m of
    the rows below s, and ``high[h]`` the same for the mask ``h << s`` of
    the rows from s on. At n=7 they hold 2,048 and 1,024 texts."""
    n = _check_enumerable(n)  # before any text: each half holds about 2^(n(n-1)/4)
    pairs = n * (n - 1) // 2
    s = min((_row_shift(n, i) for i in range(n)), key=lambda b: abs(2 * b - pairs))
    low, high = range(1 << s), range(0, 1 << pairs, 1 << s)  # the masks h << s, h ascending
    return (s, *(tuple(json.dumps(_row_edges(_mask_rows(n, m)))[1:-1] for m in half) for half in (low, high)))


def _edges_json_texts(n: int, masks: Iterable[int]) -> Iterator[str]:
    """``json.dumps`` of the pairs of each of ``masks`` on n vertices, n in
    1..``ENUMERATION_LIMIT`` (checked at once), as the masks arrive: the
    texts of a mask's two halves, looked up in :func:`_edges_json_halves`,
    joined by a comma where both hold pairs."""
    s, low, high = _edges_json_halves(n)
    cut = (1 << s) - 1
    return (f"[{a}, {b}]" if a and b else f"[{a}{b}]" for a, b in ((low[m & cut], high[m >> s]) for m in masks))


def graph_to_json(g: Graph) -> str:
    """Serialise a graph to the ``{"n":..., "edges":[[i,j],...]}`` format,
    in the exact bytes of ``json.dumps(..., sort_keys=True)``."""
    return json.dumps({"edges": g.edges(), "n": g.n}, sort_keys=True)


def _json_value(text: str | bytes, what: str):
    """Parsed JSON value of ``text``, str or UTF bytes; invalid JSON is an "invalid ``what`` JSON" error.
    A density's entries become :class:`_Entry` values as the parse goes, never all dicts and lists at once."""
    try:
        if isinstance(text, bytes):  # as json.loads decodes bytes, but frees them before the parse
            text = text.decode(json.detect_encoding(text), "surrogatepass")
        value = json.loads(text, object_pairs_hook=_entry_or_dict)
    # ValueError: JSONDecodeError or an integer past the digit limit; RecursionError: nested too deep.
    except (ValueError, RecursionError) as e:
        raise DomainError(f"invalid {what} JSON: {e}") from e
    return value.as_dict() if type(value) is _Entry else value


def _entry_or_dict(pairs: list):
    """``object_pairs_hook`` that never raises: an object with keys ``edges`` then ``p``, its edges strictly
    ascending pairs [i, j] of ints, 0 <= i < j < 7 (no enumerable density has a vertex past 6), is an
    :class:`_Entry`, and any other object the dict that ``json.loads`` makes, with an ``_Entry`` among its
    values back as its dict; so only list items stay entries."""
    if len(pairs) == 2 and pairs[0][0] == "edges" and pairs[1][0] == "p" and type(pairs[0][1]) is list:
        colex, last = 0, -1
        for e in pairs[0][1]:
            if type(e) is not list or len(e) != 2:
                break
            i, j = e
            if type(i) is not int or type(j) is not int or not 0 <= i < j < 7 or 7 * i + j <= last:
                break
            colex, last = colex | 1 << j * (j - 1) // 2 + i, 7 * i + j
        else:
            return _Entry(colex, pairs[1][1])
    return {k: v.as_dict() if type(v) is _Entry else v for k, v in pairs}


class _Entry:
    """``{"edges": [[i, j], ...], "p": p}`` without its lists: bit j(j-1)/2 + i of ``colex`` is the pair (i, j)
    whatever the vertex count, and the pairs ascend in the list. It prints as that dict, in error messages too."""

    __slots__ = ("colex", "p")

    def __init__(self, colex: int, p):
        self.colex, self.p = colex, p

    def as_dict(self) -> dict:
        return {"edges": self.edges(), "p": self.p}

    def __repr__(self) -> str:
        return repr(self.as_dict())

    def edges(self) -> list[list[int]]:
        return [list(e) for e in _row_edges(_mask_rows(7, self.edge_mask(7)))]

    def edge_mask(self, n: int) -> int:
        """``_checked_edge_fields(n, self.edges())[1]`` for an int n: its error, or three lookups."""
        c = self.colex
        if not 1 <= n <= MAX_VERTICES or c >> n * (n - 1) // 2:  # a bad n, or a vertex past it
            return _checked_edge_fields(n, self.edges())[1]
        low, mid, high = _colex_bytes(n)
        return low[c & 255] | mid[c >> 8 & 255] | high[c >> 16]


@lru_cache(maxsize=4)
def _colex_bytes(n: int) -> tuple[tuple[int, ...], ...]:
    """Table b maps byte b of an :class:`_Entry`'s ``colex`` to the edge mask on n vertices of its pairs below n."""
    bits = [1 << _row_shift(n, i) + j - i - 1 if j < n else 0 for j in range(7) for i in range(j)] + [0] * 3
    return tuple(tuple(sum(bit for k, bit in enumerate(bits[8 * b : 8 * b + 8]) if v >> k & 1) for v in range(256))
                 for b in range(3))


def graph_from_json(text: str) -> Graph:
    """Parse the ``{"n":..., "edges":[[i,j],...]}`` format.

    Edges are unordered within pairs; duplicate pairs are rejected.
    """
    return _graph_from_obj(_json_value(text, "graph"))


def _graph_from_obj(obj) -> Graph:
    """Graph from a parsed JSON value; see :func:`graph_from_json`."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise DomainError("graph JSON must have fields 'n' and 'edges'")
    n = obj["n"]
    if type(n) is not int:
        raise DomainError("'n' must be an integer")
    adj, mask = _checked_edge_fields(n, obj["edges"])
    return Graph._from_parts(n, _full_mask(n), tuple(adj), mask)


def _checked_edge_fields(n: int, edges) -> tuple[list[int], int]:
    """:func:`_checked_edges` of a parsed ``edges`` JSON value: its types
    are checked, then ``n``, then each edge as :class:`Graph` checks it."""
    # ``type(v) is int``: JSON true and false parse as bool, a subclass of int.
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and type(e[0]) is int and type(e[1]) is int for e in edges
    ):
        raise DomainError("'edges' must be an array of 2-element arrays of vertex indices")
    n = _check_vertex_count(n)
    return _checked_edges(n, edges)


def to_dot(g: Graph, hubs: int = 0) -> str:
    """Render a graph in DOT; vertices in ``hubs`` get ``style=filled``."""
    hubs = _check_subset(hubs, g.vertices, "hub set")
    lines = ["graph G {"]
    for v in members(g.vertices):
        attr = " [style=filled]" if hubs >> v & 1 else ""
        lines.append(f"  {v}{attr};")
    for i, j in g.edges():
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
