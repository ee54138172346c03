"""Metropolis-Hastings sampling from factorisation laws.

Moves toggle a uniformly chosen vertex pair; candidates that break
decomposability, or that some infinite separator potential puts outside
the law's support, are rejected and the chain holds, so detailed balance
holds with respect to the normalised law restricted to its support.
On graphs small enough to enumerate, the chain memoises the full search
and the log-density of each decomposable candidate it meets, by edge
mask, so a revisited candidate costs its O(n) rebuild and two dict
lookups. Above that, a step is local (Giudici & Green 1999): a few mask
operations decide decomposability and four potential lookups give the
log-ratio; a retained record past the start rescores its state in full.
One step loop serves the retained-record chain and the visit counter.

Randomness comes from a counter-based generator keyed by (seed, chain
index), so independent chains are reproducible regardless of how they
are scheduled.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .errors import DomainError, PreconditionError
from .graphs import (ENUMERATION_LIMIT, Graph, _index, _is_clique, _pair_at, _reach, clique_separators,
                     is_decomposable, members)
from .laws import INF, CsfLaw, _check_on_all_vertices, _clique_log_potential, log_density_unnorm

_MASK64 = (1 << 64) - 1

#: Draws per refill of each buffered stream; it fixes how pair indices and
#: uniforms interleave in the generator's output, so seeded chains depend on it.
_BLOCK = 8192


def _generator(seed: int, chain_index: int) -> np.random.Generator:
    """Philox keyed by (seed, chain index), each in 0..2^64-1, so distinct pairs never share a stream."""
    key = [_index(seed, None), _index(chain_index, None)]  # nan, refused below, if not an integer
    if not all(0 <= v <= _MASK64 for v in key):
        raise DomainError(f"seed {seed!r} and chain index {chain_index!r} must be integers in 0..2^64-1")
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


class _BufferedRandom:
    """Pair indices below ``npairs`` and uniforms from one generator, each an endless
    chain of blocks of ``_BLOCK`` draws, the next drawn only when the last runs out."""

    __slots__ = ("_ints", "_unis")

    def __init__(self, rng: np.random.Generator, npairs: int):
        # Over ``rng``, not ``self``: a reference cycle would keep a chain's blocks until a full collection.
        self._ints = chain.from_iterable(iter(lambda: rng.integers(0, npairs, size=_BLOCK).tolist(), None))
        self._unis = chain.from_iterable(iter(lambda: rng.random(size=_BLOCK).tolist(), None))

    def integers(self, npairs: int) -> int:
        return next(self._ints)

    def random(self) -> float:
        return next(self._unis)


@dataclass
class ChainState:
    """Current graph with its cached log-density and move counters.

    ``memo``, when not None, maps the edge mask of each decomposable
    candidate met so far to the pair (its search, as kept in
    ``Graph._summary``, log-density).
    """

    graph: Graph
    log_density: float
    step_count: int = 0
    accept_count: int = 0
    memo: dict[int, tuple[list, float]] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class SampleRecord:
    step: int
    graph: Graph
    log_density: float
    num_cliques: int
    max_clique: int
    separator_sizes: tuple[int, ...]


@dataclass(frozen=True)
class SampleSummary:
    n: int
    steps: int
    thin: int
    seed: int
    chain_index: int
    records: tuple[SampleRecord, ...]
    acceptance_rate: float


def default_init(law: CsfLaw) -> Graph:
    """Start of a chain when none is given.

    A hub law starts at the star on its lowest hub, whose separators are
    all that hub, when the law supports it: the complete graph is the hub
    law's mode, and every toggle away from it is a steep drop in density,
    so a chain started there stays put (none of 5000 steps accepted at
    n=6 or n=20 with the default rates). Other laws with hard separator
    constraints start at the complete graph (a single clique has no
    separators, so it is always supported); the rest at the empty graph.
    """
    n = law.n
    hubs = law.psi.hubs
    if hubs:
        h = (hubs & -hubs).bit_length() - 1
        star = Graph(n, [(h, v) for v in range(n) if v != h])
        if log_density_unnorm(law, star) > -INF:
            return star
    hard = hubs is not None or any(v == INF for v in law.psi.overrides.values())
    return Graph.complete(n) if hard else Graph.empty(n)


def initial_state(law: CsfLaw, init: Graph | None = None) -> ChainState:
    g = default_init(law) if init is None else init
    _check_on_all_vertices(g, law.n, "a law for")  # every proposal draws among all n vertices
    if not is_decomposable(g):
        raise DomainError("initial graph is not decomposable")
    ld = log_density_unnorm(law, g)
    if ld == -INF:
        raise DomainError("initial graph is outside the law's support")
    return ChainState(g, ld)


def propose_edge_flip(state: ChainState, rand) -> Graph | None:
    """Toggle a uniformly chosen vertex pair; None if that breaks
    decomposability. The pair choice is symmetric between a graph and
    any single-toggle neighbour. A candidate in the state's memo gets the
    stored search. Without a memo, removing an edge needs the pair's common
    neighbours S complete, and adding it needs S to separate the pair."""
    g, memo = state.graph, state.memo
    n = g.n
    k = int(rand.integers(n * (n - 1) // 2))
    cand = g._with_bit_toggled(k)
    if memo is None:
        i, j = _pair_at(n, k)
        adj, s = g.adj, g.adj[i] & g.adj[j]
        ok = _is_clique(adj, s) if adj[i] >> j & 1 else not _reach(adj, i, g.vertices & ~s) >> j & 1
        return cand if ok else None
    hit = memo.get(cand.edge_mask)
    if hit is not None:
        cand._summary = hit[0]
    return cand if is_decomposable(cand) else None


def _log_ratio(law: CsfLaw, g: Graph, k: int) -> float:
    """Log-density of ``g`` with pair k = ij toggled less that of ``g``, both decomposable: adding ij
    makes C = S + {i, j} a clique, S the pair's common neighbours, drops one copy of the separator S,
    and turns each C - v, v = i, j, into a separator unless it was a maximal clique without ij."""
    i, j = _pair_at(g.n, k)
    adj = g.adj
    s = adj[i] & adj[j]
    t = reduce(int.__and__, map(adj.__getitem__, members(s)), -1)  # the vertices joined to all of S
    d = _clique_log_potential(law, s | 1 << i | 1 << j)
    for v, u in ((i, j), (j, i)):  # C - v is S + {u}; it is maximal iff no vertex but v joins all of it
        a = s | 1 << u
        d -= law.psi.log_potential(a) if t & adj[u] & ~(1 << v) else _clique_log_potential(law, a)
    d += law.psi.log_potential(s)
    return -d if adj[i] >> j & 1 else d


class _Drawn:
    """``rand`` keeping its last pair index, so a validated step can rebuild its candidate."""

    def __init__(self, rand):
        self.rand, self.random = rand, rand.random

    def integers(self, npairs: int) -> int:
        self.k = int(self.rand.integers(npairs))
        return self.k


def mh_step(state: ChainState, law: CsfLaw, rand, validate: bool = False) -> ChainState:
    """One Metropolis step; out-of-support candidates count as rejections.

    Without a memo, it takes :func:`_log_ratio`. With ``validate``, the
    proposal's verdict and the new state are checked against graphs rebuilt
    from their edge masks, with a fresh search and a fresh score, so a
    wrong memo entry or local step cannot vouch for itself.
    """
    g, memo = state.graph, state.memo
    rand = _Drawn(rand) if validate else rand
    cand = propose_edge_flip(state, rand)
    state.step_count += 1
    if cand is not None:
        if memo is None:
            d = _log_ratio(law, g, (cand.edge_mask ^ g.edge_mask).bit_length() - 1)
            ld = state.log_density + d
        else:
            hit = memo.get(cand.edge_mask)
            if hit is None:
                hit = memo[cand.edge_mask] = (cand._summary, log_density_unnorm(law, cand))
            ld = hit[1]
            d = ld - state.log_density
        if ld > -INF and (d >= 0.0 or rand.random() < math.exp(d)):
            state.graph = cand
            state.log_density = ld
            state.accept_count += 1
    if validate:
        if is_decomposable(Graph.from_edge_mask(g.n, g.edge_mask ^ 1 << rand.k)) != (cand is not None):
            raise PreconditionError("proposal's verdict does not match a fresh search of its candidate")
        g = state.graph
        fresh = Graph.from_edge_mask(g.n, g.edge_mask)
        if g.adj != fresh.adj:
            raise PreconditionError("chain state's adjacency does not match its edge mask")
        if not is_decomposable(fresh):
            raise PreconditionError("chain state is not decomposable")
        is_decomposable(g)  # a local step leaves its state unsearched
        if g._summary != fresh._summary:
            raise PreconditionError("chain state's search does not match a fresh search of its edge mask")
        recomputed = log_density_unnorm(law, fresh)
        if not abs(recomputed - state.log_density) <= 1e-9:
            raise PreconditionError(f"cached log-density {state.log_density!r} is not {recomputed!r}")
    return state


def _record(state: ChainState, law: CsfLaw) -> SampleRecord:
    cl, seps = clique_separators(state.graph)
    sizes = sorted(s.bit_count() for s, mult in seps.items() for _ in range(mult))
    if state.memo is None and state.step_count:  # the start and the memo carry full scores; local steps, sums
        state.log_density = log_density_unnorm(law, state.graph)
    return SampleRecord(
        step=state.step_count,
        graph=state.graph,
        log_density=state.log_density,
        num_cliques=len(cl),
        max_clique=max(c.bit_count() for c in cl),
        separator_sizes=tuple(sizes),
    )


def _chain(
    law: CsfLaw, init: Graph | None, steps: int, seed: int, chain_index: int, validate: bool = False
) -> Iterator[ChainState]:
    """Yield the chain's state at step 0 and after each of ``steps`` steps.

    One ``ChainState`` is updated in place and yielded every time.
    """
    steps = _index(steps, "step count")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    if law.n < 2:
        raise DomainError("sampling needs at least 2 vertices: one vertex has no pair to toggle")
    state = initial_state(law, init)
    rand = _BufferedRandom(_generator(seed, chain_index), law.n * (law.n - 1) // 2)
    # Up to the enumeration limit the memo is bounded by the number of
    # decomposable graphs (617,675 at n=7). Above it, the memo would grow
    # with the chain, each key with n squared, so steps are local instead.
    if law.n <= ENUMERATION_LIMIT:
        state.memo = {state.graph.edge_mask: (state.graph._summary, state.log_density)}
    yield state
    for _ in range(steps):
        yield mh_step(state, law, rand, validate)


def run_chain(
    law: CsfLaw,
    init: Graph | None = None,
    steps: int = 10_000,
    thin: int = 100,
    seed: int = 0,
    chain_index: int = 0,
    validate: bool = False,
) -> SampleSummary:
    """Run one chain, retaining the initial state and every thin-th state.

    Deterministic given (seed, chain_index); chains with distinct indices
    use independent streams.
    """
    thin = _index(thin, "thin")
    if thin < 1:
        raise DomainError("thin must be at least 1")
    records = []
    for state in _chain(law, init, steps, seed, chain_index, validate):
        if state.step_count % thin == 0:
            records.append(_record(state, law))
    rate = state.accept_count / state.step_count if state.step_count else 0.0
    return SampleSummary(
        n=law.n,
        steps=state.step_count,
        thin=thin,
        seed=seed,
        chain_index=chain_index,
        records=tuple(records),
        acceptance_rate=rate,
    )


def visit_counts(
    law: CsfLaw,
    init: Graph | None = None,
    steps: int = 100_000,
    seed: int = 0,
    chain_index: int = 0,
) -> Counter:
    """Edge-mask visit counts over the states after each of ``steps`` steps."""
    states = _chain(law, init, steps, seed, chain_index)
    return Counter(state.graph.edge_mask for state in islice(states, 1, None))
