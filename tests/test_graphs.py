import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cliquesep
from cliquesep import (
    CapacityError,
    DomainError,
    Graph,
    PluperfectOrder,
    PreconditionError,
    clique_separators,
    cliques,
    complete_sets_graph,
    count_decomposable,
    enumerate_decomposable,
    graph_from_json,
    graph_to_json,
    hub_law,
    in_U_plus,
    in_U_star,
    induced_subgraph,
    is_complete,
    is_connected,
    is_decomposable,
    is_decomposition,
    normalize_by_enumeration,
    pluperfect_order,
    run_chain,
    separator_multiset,
    to_dot,
    uniform_csf,
    vset,
)
from cliquesep.graphs import (
    MAX_VERTICES,
    _Entry,
    _checked_edge_fields,
    _chordal_blocks,
    _clique_separator_table,
    _edges_json_halves,
    _edges_json_texts,
    _json_value,
    _lockstep_entries,
    _mcs,
    _pair_at,
    _row_shift,
    members,
    within_edge_mask,
)
from conftest import count_chordal_blocks, search_entries


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# Independent oracles


def _connected_within(g, w):
    start = (w & -w).bit_length() - 1
    reach = 1 << start
    frontier = reach
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= g.adj[b.bit_length() - 1]
            m ^= b
        frontier = nxt & w & ~reach
        reach |= frontier
    return reach == w


def brute_is_chordal(g):
    """No vertex subset induces a chordless cycle: every induced 2-regular
    connected subgraph on >= 4 vertices is such a cycle."""
    vs = members(g.vertices)
    for k in range(4, len(vs) + 1):
        for combo in itertools.combinations(vs, k):
            w = vset(combo)
            if all((g.adj[v] & w).bit_count() == 2 for v in combo) and _connected_within(g, w):
                return False
    return True


def brute_cliques(g):
    """Maximal complete sets by direct search over all vertex subsets."""
    out = set()
    vs = g.vertices
    n = g.n
    for a in range(1 << n):
        if a & ~vs or not is_complete(g, a):
            continue
        extendable = any(
            is_complete(g, a | (1 << v)) for v in range(n) if vs >> v & 1 and not a >> v & 1
        )
        if not extendable and (a or vs == 0):
            out.add(a)
    return out


def oracle_mcs(n, adj, vmask):
    """Two-pass oracle, first pass: maximum cardinality search over
    ``vmask``, ties toward the lowest index, returning ``(order, ok)``.
    ``ok`` is the Tarjan-Yannakakis test run at every vertex: its
    previously visited neighbours other than the latest of them, found
    by a backward scan of the order, are adjacent to that latest one."""
    w = [0] * n
    order = []
    numbered = 0
    un = vmask
    while un:
        v = max(members(un), key=lambda u: (w[u], -u))
        prior = adj[v] & numbered
        if prior:
            p = next(u for u in reversed(order) if prior >> u & 1)
            if prior & ~(adj[p] | (1 << p)):
                return order, False
        order.append(v)
        numbered |= 1 << v
        un ^= 1 << v
        for u in members(adj[v] & un):
            w[u] += 1
    return order, True


def oracle_cliques_from_order(adj, order):
    """Two-pass oracle, second pass: cliques and separators read off an
    MCS order by growing a running clique and emitting it whenever the
    next vertex is not adjacent to all of it."""
    numbered = 0
    current = 0
    cl, seps = [], []
    for v in order:
        if current & ~adj[v]:
            cl.append(current)
            seps.append(adj[v] & numbered)
            current = seps[-1] | 1 << v
        else:
            current |= 1 << v
        numbered |= 1 << v
    if current:
        cl.append(current)
    return cl, seps


def oracle_search(n, adj, vmask):
    """``_mcs``'s result by the two-pass oracle: ``[cliques, separators]``
    or None if the graph on ``vmask`` is not chordal."""
    order, ok = oracle_mcs(n, adj, vmask)
    return list(oracle_cliques_from_order(adj, order)) if ok else None


def all_adjacencies(n):
    """``(edge mask, adjacency)`` for all 2^(n(n-1)/2) graphs on n
    vertices, in ascending mask order; the adjacency list is updated in
    place from one mask to the next."""
    pairs = _pairs(n)
    adj = [0] * n
    for mask in range(1 << len(pairs)):
        if mask:
            changed = mask ^ (mask - 1)
            top = changed.bit_length() - 1
            i, j = pairs[top]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            m = changed ^ (1 << top)
            while m:
                b = m & -m
                i, j = pairs[b.bit_length() - 1]
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)
                m ^= b
        yield mask, adj


def mask_walk(n):
    """Edge masks of the chordal graphs on n vertices, by walking all
    masks in ascending order and keeping those that the two-pass
    oracle's search accepts."""
    full = (1 << n) - 1
    for mask, adj in all_adjacencies(n):
        if oracle_mcs(n, adj, full)[1]:
            yield mask


def brute_separates(g, a, b):
    """BFS from a-minus-b avoiding a&b; separation iff b-minus-a unreachable."""
    s = a & b
    sources = a & ~b
    targets = b & ~a
    reach = sources
    frontier = sources
    while frontier:
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            nxt |= g.adj[bit.bit_length() - 1]
            m ^= bit
        frontier = nxt & ~reach & ~s
        reach |= frontier
    return reach & targets == 0


def _pairs(n):
    """Unordered vertex pairs on n vertices, in ascending (i, j) order: the
    oracle of the edge-mask layout, where pair k is bit k of the mask."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def pair_encode(n, edges):
    """Edge mask with bit k set for each edge that is pair k of ``_pairs(n)``."""
    pairs = _pairs(n)
    return sum(1 << pairs.index(e) for e in edges)


def pair_decode(n, mask):
    """Edges of an edge mask, as the pairs of ``_pairs(n)`` at its set bits."""
    return [p for k, p in enumerate(_pairs(n)) if mask >> k & 1]


# ---------------------------------------------------------------------------
# Edge-mask layout


def _layout_masks(n):
    if n <= 5:
        return range(1 << (n * (n - 1) // 2))
    return [g.edge_mask for g in enumerate_decomposable(n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_mask_layout_matches_pair_order(n):
    pairs = _pairs(n)
    for v in range(1 << n):
        assert within_edge_mask(n, v) == pair_encode(n, [(i, j) for i, j in pairs if v >> i & v >> j & 1])
    for mask in _layout_masks(n):
        edges = pair_decode(n, mask)
        g = Graph.from_edge_mask(n, mask)
        assert g.edge_mask == mask
        assert g.edges() == edges
        assert Graph(n, edges).edge_mask == mask
        assert g.adj == Graph(n, edges).adj and g == Graph(n, edges)
        for k, (i, j) in enumerate(pairs):
            assert g.with_edge_toggled(i, j).edge_mask == mask ^ 1 << k


def bit_decode(n, mask):
    """Edges of an edge mask by :func:`_pair_at` on each set bit, read off
    the mask's binary digits: an oracle for masks too long for ``_pairs``."""
    return [_pair_at(n, k) for k, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


@pytest.mark.parametrize("n", [64, 65, 66, 100, 333, MAX_VERTICES])
def test_long_masks_decode_across_their_split(n):
    # Each block is cut from the mask's bytes, mostly across byte boundaries: the decoded rows, both
    # triangles, against the rows that Graph builds from the pairs at the mask's set bits.
    rng = random.Random(n)
    npairs = n * (n - 1) // 2
    masks = [(1 << npairs) - 1, 1 << npairs - 1, 1 | 1 << npairs - 1, rng.getrandbits(npairs)]
    masks += [sum(1 << rng.randrange(npairs) for _ in range(50)) for _ in range(3)]
    masks += [Graph(n, [(0, v) for v in range(1, n)] + [(n - 2, n - 1)]).edge_mask]
    masks += [sum(1 << _row_shift(n, i) + rng.randrange(n - 1 - i) for i in range(n - 1))]
    for mask in masks:
        edges = bit_decode(n, mask)
        g = Graph.from_edge_mask(n, mask)
        assert g.edges() == edges
        assert g.adj == Graph(n, edges).adj
        assert Graph(n, edges).edge_mask == mask


def test_pair_at_decodes_every_bit_up_to_64_vertices():
    for n in range(1, 65):
        assert [_pair_at(n, k) for k in range(n * (n - 1) // 2)] == list(_pairs(n))


def test_pair_at_decodes_the_ends_of_every_row_up_to_the_vertex_cap():
    for n in range(2, MAX_VERTICES + 1):
        for i in range(n - 1):
            assert _pair_at(n, _row_shift(n, i)) == (i, i + 1)
            assert _pair_at(n, _row_shift(n, i + 1) - 1) == (i, n - 1)


# The child caps its own address space at 1 GiB, so a layout whose memory
# grows with the square of the pair count ends in a MemoryError there
# instead of exhausting the machine.
_VERTEX_CAP_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cliquesep import Graph
from cliquesep.graphs import MAX_VERTICES as n
g = Graph(n, [(0, n - 1)]).with_edge_toggled(1, 2)
assert g.edges() == [(0, n - 1), (1, 2)], g.edges()
k = Graph.complete(n)
assert Graph.from_edge_mask(n, k.edge_mask) == k
assert Graph.from_edge_mask(n, k.edge_mask).adj == k.adj == Graph(n, k.edges()).adj
assert len(k.edges()) == n * (n - 1) // 2 == 523776
"""


def test_vertex_cap_fits_in_linear_memory():
    src = os.path.dirname(os.path.dirname(cliquesep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _VERTEX_CAP_SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Each call once looped forever on the negative mask (or raised a bare
# ValueError on a negative shift), so it runs in a child with a timeout.
@pytest.mark.parametrize("call", [
    "is_complete(Graph(3), -1)",
    "to_dot(Graph(3), -1)",
    "induced_subgraph(Graph(3), -2)",
    "is_decomposition(Graph(3), -1, 7)",
    "verify_lemma2_ratio(normalize_by_enumeration(uniform_csf(4)), -8)",
    "Graph(4).has_edge(-1, 2)",
    "Graph(4).with_edge_toggled(-1, 2)",
    "Graph(4).with_edge_toggled(2, -1)",
    "vset([-1])",
    "hub_law(4, [-1])",
])
def test_negative_masks_and_vertices_raise_domain_error(call):
    script = f"from cliquesep import *\ntry:\n    {call}\nexcept DomainError:\n    pass\nelse:\n    raise SystemExit('no error')\n"
    src = os.path.dirname(os.path.dirname(cliquesep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr


# Every public function that takes a vertex mask, a vertex index, a vertex
# count or an index, at n=4, with ``v`` standing for the value under test;
# ``g`` is a path on 0..3.
_VERTEX_ARGUMENT_CALLS = [
    "vset([v])",
    "members(v)",
    "within_edge_mask(4, v)",
    "Graph(4, [(0, v)])",
    "Graph(4, [(v, 1)])",
    "graph_from_json(json.dumps({'n': 4, 'edges': [[0, v]]}))",
    "g.has_edge(0, v)",
    "g.has_edge(v, 0)",
    "g.with_edge_toggled(0, v)",
    "g.with_edge_toggled(v, 0)",
    "is_complete(g, v)",
    "induced_subgraph(g, v)",
    "is_decomposition(g, v, 15)",
    "is_decomposition(g, 15, v)",
    "in_U_star(g, v, 15)",
    "in_U_star(g, 15, v)",
    "in_U_plus(g, v, 15)",
    "in_U_plus(g, 15, v)",
    "complete_sets_graph(4, [v])",
    "to_dot(g, v)",
    "t_statistic(g, v)",
    "t_plus(g, v)",
    "t_minus(g, v)",
    "hub_law(4, v)",
    "hub_law(4, [v])",
    "CsfLaw(4, PotentialTable(overrides={v: 0.0}), PotentialTable())",
    "CsfLaw(4, PotentialTable(), PotentialTable(hubs=v))",
    "conditioning_set(4, v, 15, PropertyKind.WSM)",
    "conditioning_set(4, 15, v, PropertyKind.EWSM)",
    "verify_lemma2_ratio(density, v)",
    "bernoulli_dirichlet_score([[0, 1, 1, 0], [1, 1, 0, 0]]).log_marginal(v)",
    "Graph(v)",
    "Graph.from_edge_mask(4, v)",
    "pluperfect_order(g, v)",
    "csf_dimension(v)",
    "uniform_csf(v)",
    "count_decomposable(v)",
    "run_chain(uniform_csf(3), steps=v)",
    "run_chain(uniform_csf(3), thin=v)",
]

# -1, 0, the full mask, the full mask + 1 (which is 1 << n), 1 << MAX_VERTICES,
# and 2**64 as an index: 1 << 2**64 cannot be built. No value lies between
# about 2^25 and 2^40, where 1 << v would really allocate.
_VERTEX_ARGUMENT_VALUES = [-1, 0, 15, 16, 1 << MAX_VERTICES, 2**64]

# A chain of v steps takes the values below 2^20 only: it would run for ever.
_STEP_CALLS = {"run_chain(uniform_csf(3), steps=v)"}

# Values that are not integers, then a numpy integer, which must act as 15.
# The calls that take their parts raw (the timed decomposition tests) and
# ``json.dumps``, which refuses a numpy integer, get the ints only.
_NON_INTEGER_VALUES = '[1.0, True, "1", None, np.int64(15)]'
_RAW_INTEGER_CALLS = {
    c for c in _VERTEX_ARGUMENT_CALLS if c.startswith(("graph_from_json", "is_decomposition", "in_U_"))
}

_VERTEX_ARGUMENT_SCRIPT = """
import json, sys
import numpy as np
from cliquesep import *
from cliquesep.graphs import within_edge_mask
g = Graph(4, [(0, 1), (1, 2), (2, 3)])
density = normalize_by_enumeration(uniform_csf(4))
def outcome(v):
    try:
        r = {call}
    except DomainError as e:
        return "DomainError", str(e)
    return "returned", law_to_json(r) if isinstance(r, CsfLaw) else r
for v in {values}:
    print(repr(v), flush=True)  # the last value printed names a call that hung
    outcome(v)
if {numpy_too}:
    assert outcome(np.int64(15)) == outcome(15), (outcome(np.int64(15)), outcome(15))
"""


@pytest.mark.parametrize("call", _VERTEX_ARGUMENT_CALLS)
def test_vertex_arguments_return_or_raise_domain_error(call):
    # One child per call runs it on every value, under a timeout: some of
    # these once looped forever or tried to build 1 << v.
    values = [v for v in _VERTEX_ARGUMENT_VALUES if call not in _STEP_CALLS or v < 1 << 20]
    numpy_too = call not in _RAW_INTEGER_CALLS
    values = f"{values} + {_NON_INTEGER_VALUES}" if numpy_too else values
    script = _VERTEX_ARGUMENT_SCRIPT.format(values=values, call=call, numpy_too=numpy_too)
    src = os.path.dirname(os.path.dirname(cliquesep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_numpy_integers_are_vertices_and_floats_are_not():
    # 1 << np.int64(70) wraps in int64: the hub mask once read 0, and vset(range(100)) -1.
    assert vset(np.arange(100)) == (1 << 100) - 1
    assert hub_law(100, np.arange(70, 75)).psi.hubs == vset(range(70, 75))
    assert Graph(5, [(np.int64(0), np.int64(4))]) == Graph(5, [(0, 4)])
    # A numpy integer hub mask was iterated as a vertex list; a numpy vertex count
    # reached numpy's shifts in the normalisation's keys.
    assert hub_law(4, np.int64(1)).psi.hubs == 1
    assert normalize_by_enumeration(uniform_csf(np.int64(4))).p == normalize_by_enumeration(uniform_csf(4)).p
    for call in (
        lambda: vset([1.0]),
        lambda: Graph(5, [(0.0, 4)]),
        lambda: Graph(5, [(0, "4")]),
        lambda: Graph(4).has_edge(0, 1.0),
        lambda: Graph(4).with_edge_toggled(0, 1.0),
    ):
        with pytest.raises(DomainError, match="is not an integer"):
            call()


# ---------------------------------------------------------------------------
# Completeness, induced subgraphs


def test_is_complete_trivia():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_complete(tri, vset([0, 1, 2]))
    assert is_complete(tri, vset([1]))
    assert is_complete(tri, 0)
    c4 = cycle_graph(4)
    assert not is_complete(c4, vset([0, 2]))


def test_is_complete_out_of_range():
    g = path_graph(3)
    with pytest.raises(DomainError):
        is_complete(g, vset([0, 3]))


def test_induced_subgraph():
    g = path_graph(3)
    h = induced_subgraph(g, vset([0, 2]))
    assert h.edge_mask == 0
    assert h.vertices == vset([0, 2])

    k4 = Graph.complete(4)
    h = induced_subgraph(k4, vset([1, 2, 3]))
    assert h.edges() == [(1, 2), (1, 3), (2, 3)]

    assert induced_subgraph(g, g.vertices) == g
    with pytest.raises(DomainError):
        induced_subgraph(g, vset([5]))


# ---------------------------------------------------------------------------
# Recognition


def test_is_decomposable_examples():
    assert is_decomposable(Graph.complete(4))
    assert not is_decomposable(cycle_graph(4))
    assert sum(1 for m in range(1 << 6) if is_decomposable(Graph.from_edge_mask(4, m))) == 61


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recognition_matches_chordless_cycle_search(n):
    npairs = n * (n - 1) // 2
    for mask in range(1 << npairs):
        g = Graph.from_edge_mask(n, mask)
        assert is_decomposable(g) == brute_is_chordal(g), g


def test_recognition_matches_chordless_cycle_search_n6():
    for mask in range(1 << 15):
        g = Graph.from_edge_mask(6, mask)
        assert is_decomposable(g) == brute_is_chordal(g), g


@pytest.mark.parametrize("n", range(1, 7))
def test_search_matches_two_pass_oracle(n):
    full = (1 << n) - 1
    for mask, adj in all_adjacencies(n):
        assert _mcs(n, adj, full) == oracle_search(n, adj, full), pair_decode(n, mask)


@pytest.mark.parametrize("n", range(1, 6))
def test_search_matches_two_pass_oracle_on_induced_subgraphs(n):
    for g in enumerate_decomposable(n):
        for a in range(1 << n):
            h = induced_subgraph(g, a)
            assert _mcs(n, h.adj, a) == oracle_search(n, h.adj, a), (g, members(a))


# Large graphs: the search's weight buckets span more than one 64-bit
# word and grow tall, which the exhaustive tests above never reach.


def assert_search_matches_oracle(n, adj, vmask=None):
    vmask = (1 << n) - 1 if vmask is None else vmask
    got = _mcs(n, adj, vmask)
    assert got == oracle_search(n, adj, vmask)
    return got


def random_chordal(n, rng, p=0.6):
    """Chordal graph grown by vertex extension in a random label order:
    each new vertex joins a random complete set of the earlier ones."""
    order = rng.sample(range(n), n)
    edges = []
    adj = [0] * n
    for k, v in enumerate(order):
        if k == 0 or rng.random() < 0.1:
            continue
        u = rng.choice(order[:k])
        clique = 1 << u
        nbrs = members(adj[u])
        rng.shuffle(nbrs)
        for w in nbrs:
            if clique & ~adj[w] == 0 and rng.random() < p:
                clique |= 1 << w
        for w in members(clique):
            edges.append((v, w))
            adj[v] |= 1 << w
            adj[w] |= 1 << v
    return Graph(n, edges)


@pytest.mark.parametrize("n, hubs, seed", [(65, 7, 5), (200, 20, 11)])
def test_search_matches_oracle_on_hub_chain_states_and_their_toggles(n, hubs, seed):
    star = Graph(n, [(0, v) for v in range(1, n)])
    summary = run_chain(hub_law(n, range(hubs), 4.0, 0.5), init=star, steps=300, thin=100, seed=seed)
    rng = random.Random(seed)
    pairs = _pairs(n)
    chordal = not_chordal = 0
    for record in summary.records:
        g = record.graph
        assert assert_search_matches_oracle(n, g.adj) is not None
        # Random pairs are nearly all additions; deletions break chordality more often.
        for i, j in rng.sample(pairs, 15) + rng.sample(g.edges(), 15):
            if assert_search_matches_oracle(n, g.with_edge_toggled(i, j).adj) is None:
                not_chordal += 1
            else:
                chordal += 1
    assert chordal and not_chordal
    assert len({r.graph for r in summary.records}) == len(summary.records)


@pytest.mark.parametrize("n", [10, 65, 130])
def test_search_matches_oracle_on_random_chordal_graphs(n):
    rng = random.Random(n)
    for _ in range(10):
        g = random_chordal(n, rng)
        assert assert_search_matches_oracle(n, g.adj) is not None
        a = rng.getrandbits(n)
        h = induced_subgraph(g, a)
        assert assert_search_matches_oracle(n, h.adj, a) is not None


@pytest.mark.parametrize("n", [10, 65, 130])
def test_search_matches_oracle_on_random_graphs(n):
    rng = random.Random(n)
    not_chordal = 0
    for p in (2 / n, 3 / n, 5 / n, 0.3, 0.7):
        for _ in range(4):
            g = Graph(n, [e for e in _pairs(n) if rng.random() < p])
            not_chordal += assert_search_matches_oracle(n, g.adj) is None
    assert not_chordal >= 10


def threshold_graph(n, rng):
    """Each vertex in turn joins all earlier ones or none, and the last
    joins all: nested neighbourhoods, with vertex n-1 dominating."""
    return Graph(n, [(u, v) for v in range(1, n) if v == n - 1 or rng.random() < 0.5 for u in range(v)])


def most_buckets_in_one_visit(n, adj):
    """The most distinct weights among one visit's unvisited neighbours,
    along the oracle's search order: how many buckets one visit moves."""
    order, _ = oracle_mcs(n, adj, (1 << n) - 1)
    w, most = [0] * n, 0
    for k, v in enumerate(order):
        later = [u for u in order[k + 1 :] if adj[v] >> u & 1]
        most = max(most, len({w[u] for u in later}))
        for u in later:
            w[u] += 1
    return most


def test_search_matches_oracle_on_a_threshold_graph_its_induced_subgraphs_and_toggles():
    n = 100
    rng = random.Random(3)
    g = threshold_graph(n, rng)
    # One scan moves many buckets at once, not only the top one or two.
    assert most_buckets_in_one_visit(n, g.adj) >= 20
    assert assert_search_matches_oracle(n, g.adj) is not None
    for _ in range(20):
        a = rng.getrandbits(n)
        assert assert_search_matches_oracle(n, induced_subgraph(g, a).adj, a) is not None
    not_chordal = sum(
        assert_search_matches_oracle(n, g.with_edge_toggled(i, j).adj) is None for i, j in rng.sample(_pairs(n), 30)
    )
    assert 0 < not_chordal < 30


def test_search_bucket_edge_cases():
    n = 100
    assert assert_search_matches_oracle(n, Graph.empty(n).adj) == [[1 << v for v in range(n)], [0] * (n - 1)]
    path = assert_search_matches_oracle(n, path_graph(n).adj)
    assert path == [[3 << v for v in range(n - 1)], [1 << v for v in range(1, n - 1)]]
    star = Graph(n, [(7, v) for v in range(n) if v != 7])
    hub = 1 << 7
    assert assert_search_matches_oracle(n, star.adj) == [
        [hub | 1 << v for v in range(n) if v != 7], [hub] * (n - 2)
    ]
    # Cliques of sizes 1..13 on shuffled labels: after each one is done,
    # ``top`` must fall back to bucket 0 for the next component.
    labels = random.Random(0).sample(range(n), 91)
    blocks = [vset(labels[k * (k - 1) // 2 : k * (k + 1) // 2]) for k in range(1, 14)]
    cl, seps = assert_search_matches_oracle(n, complete_sets_graph(n, blocks).adj, vset(labels))
    assert sorted(cl) == sorted(blocks) and seps == [0] * 12
    assert assert_search_matches_oracle(MAX_VERTICES, Graph.complete(MAX_VERTICES).adj) == [
        [(1 << MAX_VERTICES) - 1], []
    ]
    assert _mcs(n, Graph.empty(n).adj, 0) == [[], []]


# ---------------------------------------------------------------------------
# Cliques


def test_cliques_trivia():
    g = complete_sets_graph(3, [vset([0, 1]), vset([1, 2])])
    assert set(cliques(g)) == {vset([0, 1]), vset([1, 2])}
    assert set(cliques(Graph.empty(3))) == {1, 2, 4}
    with pytest.raises(PreconditionError):
        cliques(cycle_graph(4))


@pytest.mark.parametrize("n", range(1, 7))
def test_cliques_match_brute_force(n):
    for g in enumerate_decomposable(n):
        assert set(cliques(g)) == brute_cliques(g), g


@pytest.mark.parametrize("n", range(1, 6))
def test_cliques_of_every_induced_subgraph_match_brute_force(n):
    for g in enumerate_decomposable(n):
        for a in range(1, 1 << n):
            h = induced_subgraph(g, a)
            assert set(cliques(h)) == brute_cliques(h), (g, members(a))
            census = clique_separators(h)[1]
            assert census == separator_multiset(pluperfect_order(h, 0)), (g, members(a))
            assert list(census) == _first_occurrences(pluperfect_order(h, 0).separators), (g, members(a))


def _first_occurrences(seq):
    """Distinct items of ``seq`` in the order they first appear."""
    return list(dict.fromkeys(seq))


def test_cliques_cover_and_are_incomparable():
    for g in enumerate_decomposable(5):
        cl = cliques(g)
        union = 0
        for c in cl:
            union |= c
            assert is_complete(g, c)
        assert union == g.vertices
        assert all(not (c1 != c2 and c1 & ~c2 == 0) for c1 in cl for c2 in cl)


def test_cliques_of_induced_subgraph():
    g = path_graph(4)
    h = induced_subgraph(g, vset([0, 1, 3]))
    assert set(cliques(h)) == {vset([0, 1]), vset([3])}


# ---------------------------------------------------------------------------
# Junction-tree orderings


def test_pluperfect_two_cliques():
    g = complete_sets_graph(3, [vset([0, 1]), vset([1, 2])])
    o = pluperfect_order(g, 0)
    assert o.cliques == (vset([0, 1]), vset([1, 2]))
    assert o.separators == (vset([1]),)
    assert o.parents == (0,)
    o2 = pluperfect_order(g, 1)
    assert o2.cliques == (vset([1, 2]), vset([0, 1]))
    assert o2.separators == (vset([1]),)


def test_pluperfect_single_clique():
    o = pluperfect_order(Graph.complete(4))
    assert len(o.cliques) == 1 and o.separators == () and o.parents == ()


def test_pluperfect_bad_first():
    with pytest.raises(DomainError):
        pluperfect_order(Graph.complete(3), first=5)


def test_separator_multiset_trivia():
    g = complete_sets_graph(3, [vset([0, 1]), vset([1, 2])])
    assert separator_multiset(pluperfect_order(g)) == {vset([1]): 1}
    empty = Graph.empty(4)
    assert separator_multiset(pluperfect_order(empty)) == {0: 3}


def _attachable_separators(cl, order_masks, covered):
    """Separators that other attachable cliques would create right now."""
    seps = []
    for c in cl:
        if c in order_masks:
            continue
        s = c & covered
        if any(s & ~o == 0 for o in order_masks):
            seps.append(s)
    return seps


def _greedy_pluperfect_order(g, first):
    """The greedy that Prim's algorithm replaced in ``pluperfect_order``: scan
    every remaining clique for attachability, and keep the first of largest
    separator by the strict ``>``."""
    cl = cliques(g)
    order = [cl[first]]
    seps, parents = [], []
    remaining = [k for k in range(len(cl)) if k != first]
    covered = cl[first]
    while remaining:
        best_k = best_pos = best_size = -1
        for pos, k in enumerate(remaining):
            s = cl[k] & covered
            size = s.bit_count()
            if size > best_size and any(s & ~c == 0 for c in order):
                best_size, best_k, best_pos = size, k, pos
        assert best_k >= 0, "no attachable clique"
        del remaining[best_pos]
        c = cl[best_k]
        s = c & covered
        parents.append(next(i for i, o in enumerate(order) if s & ~o == 0))
        order.append(c)
        seps.append(s)
        covered |= c
    return PluperfectOrder(g.n, tuple(order), tuple(seps), tuple(parents))


@pytest.mark.parametrize("n", range(1, 7))
def test_pluperfect_condition_and_invariance(n):
    for g in enumerate_decomposable(n):
        cl = cliques(g)
        reference = None
        for first in range(len(cl)):
            o = pluperfect_order(g, first)
            assert o == _greedy_pluperfect_order(g, first), (g, first)
            assert len(o.separators) == len(o.cliques) - 1
            assert sorted(o.cliques) == sorted(cl)
            covered = o.cliques[0]
            taken = [o.cliques[0]]
            for j in range(1, len(o.cliques)):
                c = o.cliques[j]
                s = o.separators[j - 1]
                assert s == c & covered
                assert s & ~o.cliques[o.parents[j - 1]] == 0
                assert o.parents[j - 1] <= j - 1
                # no alternative attachable clique yields a strict superset separator
                for alt in _attachable_separators(cl, taken, covered):
                    assert not (s & ~alt == 0 and s != alt), (g, first, j)
                covered |= c
                taken.append(c)
            census = separator_multiset(o)
            # the one-pass separators of the cached search are the same multiset
            assert census == clique_separators(g)[1], (g, first)
            if reference is None:
                reference = census
            else:
                assert census == reference, (g, first)
        # ... in the reference's first-occurrence order, which fixes the
        # order of the floating-point sum in the log-density
        seps = clique_separators(g)[1]
        assert list(seps) == _first_occurrences(pluperfect_order(g, 0).separators), g


def test_empty_separator_multiplicity_is_components_minus_one():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    census = separator_multiset(pluperfect_order(g))
    assert census[0] == 2  # three components


# ---------------------------------------------------------------------------
# Decompositions


def test_is_decomposition_trivia():
    k3 = Graph.complete(3)
    assert is_decomposition(k3, vset([0, 1, 2]), vset([1, 2]))
    g = Graph(3, [(0, 2)])
    assert not is_decomposition(g, vset([0, 1]), vset([1, 2]))
    with pytest.raises(PreconditionError):
        is_decomposition(k3, vset([0]), vset([1]))


def test_is_decomposition_fig2_configuration():
    # five vertices; a & b = {1, 3} joined by an edge, sides not bridged
    a = vset([0, 1, 3, 4])
    b = vset([1, 2, 3])
    g = Graph(5, [(1, 3), (0, 1), (4, 3), (2, 1)])
    assert is_decomposition(g, a, b)
    assert not is_decomposition(g.with_edge_toggled(0, 2), a, b)


def test_is_decomposition_matches_path_search():
    for g in enumerate_decomposable(4):
        for a in range(1, 16):
            for b in range(1, 16):
                if a | b != 15:
                    continue
                expected = is_complete(g, a & b) and brute_separates(g, a, b)
                assert is_decomposition(g, a, b) == expected


def five_step_is_decomposition(g, a, b):
    """``is_decomposition`` before its single pass, as the oracle: both
    subset checks, the cover check, ``is_complete`` on the intersection,
    then the cross edges."""
    for part, what in ((a, "first part"), (b, "second part")):
        if part & ~g.vertices:
            raise DomainError(f"{what} contains vertices outside the graph: {members(part & ~g.vertices)}")
    if a | b != g.vertices:
        raise PreconditionError("parts do not cover the vertex set")
    if not is_complete(g, a & b):
        return False
    return not any(g.adj[v] & b & ~a for v in members(a & ~b))


@pytest.mark.parametrize("n", [3, 4])
def test_is_decomposition_matches_the_five_step_test_on_any_parts(n):
    # Parts range over every pair of subsets of n + 1 vertices, so some
    # miss the graph or its cover; induced subgraphs have fewer vertices.
    def outcome(test, g, a, b):
        try:
            return test(g, a, b)
        except DomainError as e:
            return type(e), str(e)

    full = (1 << n) - 1
    graphs = list(enumerate_decomposable(n))
    graphs += [induced_subgraph(g, full & ~(1 << (k % n))) for k, g in enumerate(graphs)]
    for g in graphs:
        for a in range(2 << n):
            for b in range(2 << n):
                assert outcome(is_decomposition, g, a, b) == outcome(five_step_is_decomposition, g, a, b)


def test_in_U_star_rejects_extendable_intersection():
    # a & b = {1}; vertex 0 inside a is adjacent to all of it
    g = Graph(3, [(0, 1)])
    a = vset([0, 1])
    b = vset([1, 2])
    assert is_decomposition(g, a, b)
    assert not in_U_star(g, a, b)
    assert in_U_star(g, b, a)


def test_conditioning_families_nest():
    a = vset([0, 1, 2])
    b = vset([2, 3])
    for g in enumerate_decomposable(4):
        if in_U_plus(g, a, b):
            assert in_U_star(g, a, b)
        if in_U_star(g, a, b):
            assert is_decomposition(g, a, b)


# ---------------------------------------------------------------------------
# Enumeration


def test_enumeration_counts():
    assert [count_decomposable(n) for n in range(1, 6)] == [1, 2, 8, 61, 822]
    assert len(list(enumerate_decomposable(4))) == 61
    assert count_decomposable(6) == 18154


def test_enumeration_is_deterministic_and_unique():
    first = [g.edge_mask for g in enumerate_decomposable(4)]
    second = [g.edge_mask for g in enumerate_decomposable(4)]
    assert first == second == sorted(set(first))


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_mask_walk(n):
    expected = list(mask_walk(n))
    assert [g.edge_mask for g in enumerate_decomposable(n)] == expected
    assert count_decomposable(n) == len(expected)


def test_walk_n7_mask_stream_digest():
    # Pins the order as well as the set of the 617,675 graphs at the enumeration limit.
    h = hashlib.sha256()
    for masks, _ in _chordal_blocks(7):
        for mask in masks.tolist():
            h.update(f"{mask:x};".encode())
    assert h.hexdigest() == "4d332be9199d35a9757b3b62ff3c73f7c066c22079c0d868668e86c59c8c5d7d"


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_adjacency_matches_its_edge_mask(n):
    for masks, adj in _chordal_blocks(n):
        for mask, row in zip(masks.tolist(), adj.tolist()):
            assert tuple(row) == Graph.from_edge_mask(n, mask).adj


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerated_graphs_are_the_graphs_of_their_edge_masks(n):
    # The views of the table's rows against the decoder of one mask at a time.
    count = 0
    for g in enumerate_decomposable(n):
        want = Graph.from_edge_mask(n, g.edge_mask)
        assert (g.n, g.vertices, g.adj, g.edge_mask) == (want.n, want.vertices, want.adj, want.edge_mask)
        assert type(g.edge_mask) is int and type(g.adj[0]) is int
        count += 1
    assert count == count_decomposable(n)


@pytest.mark.parametrize("n", range(2, 7))
def test_deleting_vertex_0_leaves_the_chordal_graphs_on_one_vertex_fewer(n):
    # The premise of enumeration by extension, against the brute-force oracle: the top bits of
    # every chordal mask name a chordal graph on vertices 1..n-1, and every one is reached.
    assert {m >> (n - 1) for m in mask_walk(n)} == set(mask_walk(n - 1))


def test_block_adjacency_matches_its_edge_masks_at_the_limit():
    # One numpy step per vertex pair fills each block's rows from its masks alone.
    count = 0
    for masks, adj in _chordal_blocks(7):
        want = np.zeros(adj.shape, dtype=np.uint8)
        for k, (i, j) in enumerate(_pairs(7)):
            e = (masks >> k & 1).astype(np.uint8)
            want[:, i] |= e << j
            want[:, j] |= e << i
        assert np.array_equal(adj, want)
        count += len(masks)
    assert count == 617675


def assert_table_is_search_order(n, block=1 << 15):
    """Check the clique/separator table of n vertices, entry for entry and
    in order, against :func:`search_entries` on the table's own adjacency
    rows, ``block`` graphs at a time."""
    t = _clique_separator_table(n)
    assert (t.gi.dtype, t.sets.dtype, t.coef.dtype, t.adj.dtype) == (np.int32, np.uint8, np.int8, np.uint8)
    assert t.adj.shape == (len(t.masks), n)
    stop = 0
    for lo in range(0, len(t.masks), block):
        gi, sets, coef = search_entries(n, t.adj[lo : lo + block].tolist(), lo)
        start, stop = stop, stop + len(gi)
        assert t.gi[start:stop].tolist() == gi, (n, lo)
        assert t.sets[start:stop].tolist() == sets, (n, lo)
        assert t.coef[start:stop].tolist() == coef, (n, lo)
    assert stop == len(t.gi) == len(t.sets) == len(t.coef)


@pytest.mark.parametrize("n, count, every", [(1, 1, 1), (2, 2, 1), (3, 8, 1), (4, 61, 1), (5, 822, 1), (6, 18154, 1),
                                             (7, 617675, 97)])
def test_chordal_block_count_and_sampled_entries(n, count, every):
    # n=8 runs as a CI step, in about 20 s.
    assert count_chordal_blocks(n, every) == count


@pytest.mark.parametrize(
    "n, size", [*((n, size) for n in range(1, 5) for size in (1, 7)), (5, 1), (5, 97), (5, 4096), (6, 97), (6, 4096)]
)
def test_lockstep_entries_match_the_table_and_the_search_across_block_boundaries(n, size):
    # Slices that split the walk's rows anywhere give the table once joined.
    t = _clique_separator_table(n)
    parts = []
    for lo in range(0, len(t.adj), size):
        gi, sets, coef = _lockstep_entries(n, t.adj[lo : lo + size])
        parts.append((gi + lo, sets, coef))
    for got, want in zip(map(np.concatenate, zip(*parts)), (t.gi, t.sets, t.coef)):
        assert np.array_equal(got, want)
    assert_table_is_search_order(n, block=size)


@pytest.mark.parametrize("block", [1, 7, 97, 4096])
def test_blocks_of_any_size_give_the_same_graphs_and_table(monkeypatch, block):
    # Blocks of 1 and 7 candidate rows extend one graph at a time, so they split the chordal graphs
    # after every graph on n-1 vertices.
    want = {n: _clique_separator_table(n) for n in range(1, 6)}
    monkeypatch.setattr(cliquesep.graphs, "_LOCKSTEP_BLOCK", block)
    _clique_separator_table.cache_clear()
    try:
        for n in range(1, 6):
            expected = list(mask_walk(n))
            assert [m for masks, _ in _chordal_blocks(n) for m in masks.tolist()] == expected
            assert [g.edge_mask for g in enumerate_decomposable(n)] == expected
            assert count_decomposable(n) == len(expected)
            t = _clique_separator_table(n)
            assert t.masks == want[n].masks
            for field in ("gi", "sets", "coef", "adj"):
                got, exp = getattr(t, field), getattr(want[n], field)
                assert got.dtype == exp.dtype and np.array_equal(got, exp), (n, field)
        sizes = [len(masks) for masks, _ in _chordal_blocks(5)]
        assert sum(sizes) == 822 and len(sizes) == -(-61 // max(1, block >> 4))
        assert 0 not in sizes  # each block keeps its graphs with vertex 0 isolated
    finally:
        _clique_separator_table.cache_clear()


def test_enumeration_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        next(enumerate_decomposable(8))
    with pytest.raises(DomainError):
        count_decomposable(0)
    with pytest.raises(CapacityError):
        _clique_separator_table(8)
    with pytest.raises(DomainError):
        _clique_separator_table(0)
    with pytest.raises(DomainError):  # checked before 1 << n is built
        _clique_separator_table(1 << 40)
    monkeypatch.setattr(cliquesep.graphs, "_mask_rows", lambda n, m: pytest.fail("text built before the check"))
    with pytest.raises(CapacityError):  # about 2^14 texts a half otherwise
        _edges_json_halves(8)
    with pytest.raises(CapacityError):
        _edges_json_texts(8, [])
    with pytest.raises(DomainError):
        _edges_json_texts(0, [])
    with pytest.raises(DomainError):
        _edges_json_halves(1 << 40)


# ---------------------------------------------------------------------------
# Values, serialisation, rendering


def test_graph_equality_and_hash():
    g1 = Graph(3, [(0, 1)])
    g2 = Graph(3, [(1, 0)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Graph(4, [(0, 1)])


def test_graph_validation():
    with pytest.raises(DomainError):
        Graph(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 5)])
    with pytest.raises(DomainError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(DomainError):
        Graph(0)


def test_graph_json_round_trip():
    g = Graph(5, [(1, 3), (0, 1)])
    assert graph_from_json(graph_to_json(g)) == g
    parsed = graph_from_json('{"n":5,"edges":[[1,3],[0,1]]}')
    assert parsed == g
    with pytest.raises(DomainError):
        graph_from_json('{"n":3,"edges":[[0,1],[1,0]]}')
    with pytest.raises(DomainError):
        graph_from_json('{"edges":[]}')
    with pytest.raises(DomainError):
        graph_from_json("not json")


def dumped(g):
    """The graph format as ``json.dumps`` writes it: the oracle for the formatter."""
    return json.dumps({"n": g.n, "edges": [[i, j] for i, j in g.edges()]}, sort_keys=True)


def test_graph_json_is_json_dumps_bytes():
    graphs = [Graph.from_edge_mask(n, m) for n in range(1, 6) for m in range(1 << n * (n - 1) // 2)]
    graphs += [Graph.empty(7), induced_subgraph(Graph.complete(5), vset([1, 3, 4]))]
    for g in graphs:
        assert graph_to_json(g) == dumped(g), g
    assert _edges_json_halves(1) == (0, ("",), ("",))  # no pair: both halves hold the empty mask
    for n in range(1, 7):  # every edge mask, chordal or not
        assert_edge_texts_are_edges_json(n, range(1 << n * (n - 1) // 2))


def assert_edge_texts_are_edges_json(n, masks):
    """The two-lookup texts of ``masks`` equal ``json.dumps`` of each one's
    pairs by :func:`pair_decode`, one mask at a time."""
    count = 0
    for m, text in zip(masks, _edges_json_texts(n, masks)):
        assert text == json.dumps([list(e) for e in pair_decode(n, m)]), (n, m)
        count += 1
    assert count == len(masks)


@pytest.mark.parametrize("n", range(1, 6))
def test_decoded_rows_are_the_table_rows(n):
    assert_decoded_rows_are_the_table_rows(n)


def assert_decoded_rows_are_the_table_rows(n, block=1 << 15):
    """:meth:`Graph.from_edge_mask` of every mask of the clique/separator
    table on n vertices has the table's adjacency row, both triangles, and
    the edges of :func:`pair_decode`, ``block`` graphs at a time."""
    t = _clique_separator_table(n)
    for lo in range(0, len(t.masks), block):
        for m, row in zip(t.masks[lo : lo + block], t.adj[lo : lo + block].tolist()):
            g = Graph.from_edge_mask(n, m)
            assert g.adj == tuple(row), (n, m)
            assert g.edges() == pair_decode(n, m), (n, m)


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 5, 6, 7, 8, 40, MAX_VERTICES, MAX_VERTICES + 1])
def test_read_entry_edge_mask_is_the_edge_checks_mask(n):
    # The reader's entry against the checks of a parsed edge list: the same mask or the same error, for
    # every set of pairs on vertices 0..4 at n <= 5, and else for 3,000 random sets of pairs below 7.
    rng = random.Random(n)
    sets = range(1 << 10) if n <= 5 else [rng.getrandbits(21) >> rng.randrange(22) for _ in range(3000)]
    for colex in sets:
        edges = [[i, j] for j in range(7) for i in range(j) if colex >> j * (j - 1) // 2 + i & 1]
        entry = _json_value(json.dumps([{"edges": sorted(edges), "p": 0.5}]), "entries")[0]
        assert type(entry) is _Entry and entry.edges() == sorted(edges)
        outcomes = []
        for read in (entry.edge_mask, lambda n: _checked_edge_fields(n, sorted(edges))[1]):
            try:
                outcomes.append(read(n))
            except DomainError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1], (n, colex)


@given(colex=st.integers(0, (1 << 21) - 1))
def test_entry_edges_decode_the_colex_pairs(colex):
    # The one decoder of edge masks, on the entry's mask at n=7, against its colex bits read pair by pair.
    expected = [[i, j] for i in range(7) for j in range(i + 1, 7) if colex >> j * (j - 1) // 2 + i & 1]
    assert _Entry(colex, 0.5).edges() == expected


def test_complete_sets_graph_absorbs_subsets():
    g = complete_sets_graph(4, [vset([0, 1, 2]), vset([1, 2])])
    assert set(cliques(g)) == {vset([0, 1, 2]), vset([3])}


@pytest.mark.parametrize("n", [0, -2, MAX_VERTICES + 1])
def test_complete_sets_graph_checks_vertex_count(n):
    with pytest.raises(DomainError):
        complete_sets_graph(n, [])


def test_complete_graph_checks_vertex_count_before_building(monkeypatch):
    def build(n, rows):
        raise AssertionError("edge mask built before the vertex-count check")

    monkeypatch.setattr(cliquesep.graphs, "_rows_mask", build)
    with pytest.raises(AssertionError):
        Graph.complete(3)
    with pytest.raises(DomainError):
        Graph.complete(MAX_VERTICES + 1)
    with pytest.raises(DomainError):
        Graph.from_edge_mask(MAX_VERTICES + 1, 0)


def test_to_dot_marks_hubs():
    g = Graph(3, [(0, 1)])
    dot = to_dot(g, hubs=vset([1]))
    assert "1 [style=filled];" in dot
    assert "0;" in dot
    assert "0 -- 1;" in dot


def test_is_connected():
    assert is_connected(path_graph(4))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))


# ---------------------------------------------------------------------------
# Property tests


@given(n=st.integers(3, 6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_induced_subgraph_of_decomposable_is_decomposable(n, data):
    npairs = n * (n - 1) // 2
    mask = data.draw(st.integers(0, (1 << npairs) - 1))
    g = Graph.from_edge_mask(n, mask)
    if not is_decomposable(g):
        return
    a = data.draw(st.integers(0, (1 << n) - 1))
    assert is_decomposable(induced_subgraph(g, a))


@given(n=st.integers(2, 6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_induced_edges_are_exactly_the_restriction(n, data):
    npairs = n * (n - 1) // 2
    mask = data.draw(st.integers(0, (1 << npairs) - 1))
    g = Graph.from_edge_mask(n, mask)
    a = data.draw(st.integers(0, (1 << n) - 1))
    h = induced_subgraph(g, a)
    assert h.edge_mask == g.edge_mask & within_edge_mask(n, a)
    assert h.edges() == pair_decode(n, h.edge_mask) == [(i, j) for i, j in g.edges() if a >> i & a >> j & 1]
