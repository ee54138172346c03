import math
from itertools import islice

import numpy as np
import pytest

import cliquesep.graphs as graphs_module
import cliquesep.sampler as sampler_module
from cliquesep import (
    ChainState,
    CsfLaw,
    DomainError,
    Graph,
    PotentialTable,
    PreconditionError,
    clique_separators,
    complete_sets_graph,
    default_init,
    erdos_renyi_csf,
    hub_law,
    induced_subgraph,
    initial_state,
    is_decomposable,
    log_density_unnorm,
    mh_step,
    normalize_by_enumeration,
    propose_edge_flip,
    run_chain,
    uniform_csf,
    visit_counts,
    vset,
)
from cliquesep.graphs import ENUMERATION_LIMIT, _clique_separator_table
from cliquesep.laws import INF
from conftest import random_csf


class ScriptedRandom:
    """Fixed pair indices; flags if the uniform draw is consulted."""

    def __init__(self, indices, uniforms=()):
        self._indices = list(indices)
        self._uniforms = list(uniforms)

    def integers(self, _n):
        return self._indices.pop(0)

    def random(self):
        if not self._uniforms:
            raise AssertionError("uniform draw should not be needed")
        return self._uniforms.pop(0)


def test_proposal_on_two_vertices_never_rejects():
    law = uniform_csf(2)
    state = initial_state(law)
    rng = np.random.default_rng(0)
    for _ in range(64):
        assert propose_edge_flip(state, rng) is not None
        mh_step(state, law, rng)


def test_proposal_rejects_chordless_cycle():
    law = uniform_csf(4)
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    state = initial_state(law, p4)
    # pair order for n=4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3) -> (0,3) is index 2
    assert propose_edge_flip(state, ScriptedRandom([2])) is None
    cand = propose_edge_flip(state, ScriptedRandom([0]))
    assert cand is not None and not cand.has_edge(0, 1)


def test_proposal_frequencies_are_uniform():
    law = uniform_csf(4)
    state = initial_state(law)
    rng = np.random.default_rng(123)
    counts = [0] * 6
    draws = 60_000
    for _ in range(draws):
        g = state.graph
        cand = propose_edge_flip(state, rng)
        if cand is None:
            continue
        i, j = next(p for p in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
                    if g.has_edge(*p) != cand.has_edge(*p))
        counts[[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)].index((i, j))] += 1
    # rejected proposals are pair-dependent, so only count realised toggles of a
    # fixed state (the chain holds: state is never advanced here)
    assert state.graph == default_init(law)
    # Pearson's statistic against chi-squared with 5 degrees of freedom at
    # p = 1e-6: 35.888186879672865 is its upper 1e-6 point.
    c = np.array(counts, dtype=float)
    assert ((c - c.mean()) ** 2 / c.mean()).sum() < 35.888186879672865


def test_uniform_law_accepts_every_decomposable_candidate():
    # every 3-vertex graph is decomposable, so acceptance is exactly 1
    law = uniform_csf(3)
    summary = run_chain(law, steps=5_000, thin=500, seed=4, validate=True)
    assert summary.acceptance_rate == 1.0


def test_hub_constrained_candidate_always_rejected():
    law = hub_law(3, vset([0]))
    state = initial_state(law, Graph.complete(3))
    # removing edge (0,1) leaves separator {2}, which has no hub
    bad = state.graph.with_edge_toggled(0, 1)
    assert log_density_unnorm(law, bad) == -math.inf
    before = state.graph
    mh_step(state, law, ScriptedRandom([0]))
    assert state.graph == before
    assert state.accept_count == 0
    assert state.step_count == 1


def test_validate_raises_on_stale_log_density():
    law = uniform_csf(4)
    state = initial_state(law, Graph(4, [(0, 1), (1, 2), (2, 3)]))
    state.log_density += 1.0
    # Pair (0,3) closes a chordless 4-cycle, so the chain holds on the bad state.
    with pytest.raises(PreconditionError, match="log-density"):
        mh_step(state, law, ScriptedRandom([2]), validate=True)


def search_of(g):
    assert is_decomposable(g)
    return g._summary


@pytest.mark.parametrize(
    "entry, message",
    [
        pytest.param((search_of(Graph(4, [(0, 1)])), 0.0), None, id="true-entry"),
        pytest.param((search_of(Graph(4, [(0, 1)])), 1.0), "log-density", id="wrong-log-density"),
        pytest.param((search_of(Graph(4, [(0, 1), (2, 3)])), 0.0), "search", id="search-of-another-mask"),
    ],
)
def test_validate_checks_the_memo_against_a_fresh_search(entry, message):
    # The entry is filed under mask 1, the edge (0,1) that pair 0 toggles on the empty graph; the
    # uniform law accepts every decomposable candidate without a uniform draw.
    law = uniform_csf(4)
    state = initial_state(law)
    state.memo = {0: (state.graph._summary, state.log_density), 1: entry}
    if message is None:
        mh_step(state, law, ScriptedRandom([0]), validate=True)
        assert state.graph == Graph(4, [(0, 1)]) and state.accept_count == 1
    else:
        with pytest.raises(PreconditionError, match=message):
            mh_step(state, law, ScriptedRandom([0]), validate=True)


def test_validate_checks_the_candidates_adjacency(monkeypatch):
    # A rebuild whose rows are those of another graph with the same edge count.
    def wrong_rows(g, k):
        return Graph._from_parts(g.n, g.vertices, Graph(4, [(2, 3)]).adj, g.edge_mask ^ 1 << k)

    monkeypatch.setattr(Graph, "_with_bit_toggled", wrong_rows)
    law = uniform_csf(4)
    with pytest.raises(PreconditionError, match="adjacency"):
        mh_step(initial_state(law), law, ScriptedRandom([0]), validate=True)


def test_validate_raises_on_a_wrong_proposal_verdict(monkeypatch):
    # A reach that finds every vertex refuses each added edge, though every 3-vertex graph is decomposable.
    monkeypatch.setattr(sampler_module, "_reach", lambda adj, v, within: within)
    law = uniform_csf(3)
    with pytest.raises(PreconditionError, match="proposal's verdict"):
        mh_step(initial_state(law), law, ScriptedRandom([0]), validate=True)


def test_validate_raises_on_a_state_that_is_not_decomposable():
    # A chordless 4-cycle and vertex 4; the memo's full search refuses the pendant edge (0,4), pair 3,
    # as a fresh search does, so the chain holds on the cycle.
    law = uniform_csf(5)
    state = ChainState(Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0.0, memo={})
    with pytest.raises(PreconditionError, match="chain state is not decomposable"):
        mh_step(state, law, ScriptedRandom([3]), validate=True)


def test_initial_state_validates_support():
    law = hub_law(4, vset([0]))
    bad = complete_sets_graph(4, [vset([1, 2]), vset([2, 3])])
    with pytest.raises(DomainError):
        initial_state(law, bad)
    with pytest.raises(DomainError):
        initial_state(law, Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    with pytest.raises(DomainError):
        initial_state(law, Graph.empty(5))


def test_initial_state_rejects_inactive_vertices():
    # A proposal may draw any pair of the n vertices, so every vertex must be active.
    part = induced_subgraph(Graph.complete(4), vset([0, 1, 2]))
    with pytest.raises(DomainError, match=r"vertices \[3\] inactive"):
        initial_state(uniform_csf(4), part)
    with pytest.raises(DomainError, match="inactive"):
        run_chain(uniform_csf(4), init=part, steps=0)


def test_default_init():
    assert default_init(uniform_csf(4)) == Graph.empty(4)
    assert default_init(hub_law(4, vset([2, 3]))) == Graph(4, [(2, 0), (2, 1), (2, 3)])
    assert default_init(hub_law(4, 0)) == Graph.complete(4)
    inf_only = CsfLaw(4, PotentialTable(), PotentialTable(overrides={vset([1]): INF}))
    assert default_init(inf_only) == Graph.complete(4)
    # A star whose separator is ruled out by an override falls back to the complete graph.
    no_star = CsfLaw(4, PotentialTable(), PotentialTable(overrides={vset([0]): INF}, hubs=vset([0])))
    assert default_init(no_star) == Graph.complete(4)


@pytest.mark.parametrize("n", [6, 20])
def test_default_start_hub_chain_moves(n):
    # From the complete graph, the hub law's mode, no toggle was ever accepted.
    summary = run_chain(hub_law(n, vset([0, 1])), steps=5000, thin=5000)
    assert summary.acceptance_rate > 0.0


@pytest.mark.parametrize("n", [ENUMERATION_LIMIT, ENUMERATION_LIMIT + 1])
def test_scores_are_memoised_only_up_to_the_enumeration_limit(n, monkeypatch):
    calls = {"score": 0, "decomposable": 0}
    score, propose = sampler_module.log_density_unnorm, sampler_module.propose_edge_flip

    def counted_score(law, g):
        calls["score"] += 1
        return score(law, g)

    def counted_propose(state, rand):
        cand = propose(state, rand)
        calls["decomposable"] += cand is not None
        return cand

    monkeypatch.setattr(sampler_module, "log_density_unnorm", counted_score)
    monkeypatch.setattr(sampler_module, "propose_edge_flip", counted_propose)
    visit_counts(uniform_csf(n), steps=2_000, seed=0)
    # initial_state scores the start once; above the limit each step is local, and below it
    # toggling a pair back revisits a graph.
    if n > ENUMERATION_LIMIT:
        assert calls["score"] == 1 and calls["decomposable"] > 0
    else:
        assert calls["score"] < calls["decomposable"]


@pytest.mark.parametrize("n", [ENUMERATION_LIMIT, ENUMERATION_LIMIT + 1])
def test_searches_are_memoised_only_up_to_the_enumeration_limit(n, monkeypatch):
    searches = 0
    search = graphs_module._mcs

    def counted_search(*args):
        nonlocal searches
        searches += 1
        return search(*args)

    monkeypatch.setattr(graphs_module, "_mcs", counted_search)
    steps = 2_000
    visit_counts(uniform_csf(n), steps=steps, seed=0)
    # The start is searched once; above the limit each step is local, and below it a candidate
    # met before takes the memo's search.
    if n > ENUMERATION_LIMIT:
        assert searches == 1
    else:
        assert searches < steps


def memo_laws():
    for n in range(3, 7):
        yield pytest.param(uniform_csf(n), id=f"uniform-{n}")
        yield pytest.param(hub_law(n, [0]), id=f"hub-{n}")
        yield pytest.param(random_csf(n, seed=n), id=f"random-{n}")


class NeverHits(dict):
    """A memo that keeps nothing, so every candidate takes the full search and the full score."""

    def __setitem__(self, mask, entry):
        pass


def chain_path(law, memo=...):
    """``(path, accepted, memo)`` of 20,000 seeded steps from the default start: the edge masks and
    carried log-densities after each step, the accept count and the memo. A ``memo`` other than
    ``...`` replaces the chain's own after step 0: None takes the local path, ``NeverHits()``
    the full one."""
    states = sampler_module._chain(law, None, 20_000, seed=1, chain_index=0)
    state = next(states)
    if memo is not ...:
        state.memo = memo
    path = [(s.graph.edge_mask, s.log_density) for s in states]
    return path, state.accept_count, state.memo


@pytest.mark.parametrize("law", memo_laws())
def test_memoised_chain_is_the_chain_without_memo(law):
    path, accepted, memo = chain_path(law)
    full_path, full_accepted, full_memo = chain_path(law, NeverHits())
    assert full_memo == {}
    assert [(m, ld.hex()) for m, ld in path] == [(m, ld.hex()) for m, ld in full_path]
    assert accepted == full_accepted
    assert memo.keys() <= set(_clique_separator_table(law.n).masks)
    for mask, (search, ld) in memo.items():
        fresh = Graph.from_edge_mask(law.n, mask)
        # Cliques and separators, each in search order.
        assert search == search_of(fresh)
        assert ld.hex() == log_density_unnorm(law, fresh).hex()


@pytest.mark.parametrize("law", memo_laws())
def test_local_chain_is_the_full_chain(law):
    # The same moves; the carried log-density, a running sum of local ratios, is the full score to
    # the bit where the potentials are exact in binary (uniform, and hub at rates 4 and 0.5).
    path, accepted, memo = chain_path(law, None)
    full_path, full_accepted, _ = chain_path(law, NeverHits())
    assert memo is None
    assert [m for m, _ in path] == [m for m, _ in full_path] and accepted == full_accepted
    lds, full_lds = np.array([ld for _, ld in path]), np.array([ld for _, ld in full_path])
    if law.phi.overrides:  # random_csf
        assert np.abs(lds - full_lds).max() <= 1e-9
    else:
        assert lds.tobytes() == full_lds.tobytes()


@pytest.mark.parametrize(
    "start, phi, psi",
    [
        pytest.param(Graph.empty(3), {vset([0, 1]): INF}, {}, id="new-clique"),
        # Dropping (0,1) from the triangle makes cliques {0,2}, {1,2} and separator {2}: the
        # clique's infinite potential is an error before the separator's puts the graph out of support.
        pytest.param(Graph.complete(3), {vset([0, 2]): INF}, {vset([2]): INF}, id="new-clique-and-separator"),
    ],
)
def test_local_step_raises_on_an_infinite_clique_potential_as_the_full_score_does(start, phi, psi):
    # Pair 0 is (0,1).
    law = CsfLaw(3, PotentialTable(overrides=phi), PotentialTable(overrides=psi))
    cand = start.with_edge_toggled(0, 1)
    with pytest.raises(DomainError, match="clique potential for .* is infinite"):
        log_density_unnorm(law, cand)
    with pytest.raises(DomainError, match="clique potential for .* is infinite"):
        mh_step(initial_state(law, start), law, ScriptedRandom([0]))


def test_run_chain_zero_steps_keeps_only_init():
    summary = run_chain(uniform_csf(4), steps=0, seed=0)
    assert len(summary.records) == 1
    assert summary.records[0].step == 0
    assert summary.records[0].graph == Graph.empty(4)
    assert summary.acceptance_rate == 0.0


def test_run_chain_thinning_and_record_stats():
    summary = run_chain(uniform_csf(4), steps=1_000, thin=250, seed=1)
    assert [r.step for r in summary.records] == [0, 250, 500, 750, 1000]
    for rec in summary.records:
        cl, seps = clique_separators(rec.graph)
        assert rec.num_cliques == len(cl)
        assert rec.max_clique == max(c.bit_count() for c in cl)
        assert sorted(rec.separator_sizes) == sorted(
            s.bit_count() for s, m in seps.items() for _ in range(m)
        )
        assert rec.log_density == pytest.approx(
            log_density_unnorm(uniform_csf(4), rec.graph), abs=1e-9
        )


@pytest.mark.parametrize("n", [4, ENUMERATION_LIMIT + 1])
def test_records_rescore_only_states_that_local_steps_reached(n, monkeypatch):
    # initial_state scores the start and the memo carries each candidate's full score, so below the
    # limit a record adds no score; above it each record past step 0 rescores its state once.
    calls = 0
    score = sampler_module.log_density_unnorm

    def counted_score(law, g):
        nonlocal calls
        calls += 1
        return score(law, g)

    monkeypatch.setattr(sampler_module, "log_density_unnorm", counted_score)
    law = uniform_csf(n)
    run_chain(law, steps=0, thin=1)
    assert calls == 1
    calls = 0
    visit_counts(law, steps=100, seed=2)
    unrecorded, calls = calls, 0
    run_chain(law, steps=100, thin=10, seed=2)
    assert calls == unrecorded + (10 if n > ENUMERATION_LIMIT else 0)


def test_run_chain_validates_arguments():
    with pytest.raises(DomainError):
        run_chain(uniform_csf(3), steps=-1)
    with pytest.raises(DomainError):
        run_chain(uniform_csf(3), thin=0)
    with pytest.raises(DomainError):
        visit_counts(uniform_csf(3), steps=-1)


@pytest.mark.parametrize("law", [uniform_csf(1), hub_law(1, vset([0]))])
def test_one_vertex_has_no_pair_to_toggle(law):
    with pytest.raises(DomainError):
        run_chain(law, steps=1)
    with pytest.raises(DomainError):
        visit_counts(law, steps=1)


def test_reproducibility_and_stream_independence():
    law = random_csf(4, seed=0)
    a = run_chain(law, steps=3_000, thin=100, seed=9)
    b = run_chain(law, steps=3_000, thin=100, seed=9)
    assert [r.graph for r in a.records] == [r.graph for r in b.records]
    c = run_chain(law, steps=3_000, thin=100, seed=9, chain_index=1)
    assert [r.graph for r in a.records] != [r.graph for r in c.records]
    d = run_chain(law, steps=3_000, thin=100, seed=10)
    assert [r.graph for r in a.records] != [r.graph for r in d.records]


@pytest.mark.parametrize("seed, chain_index", [(-1, 0), (2**64, 0), (0, 2**64), (0, -1), (1.5, 0)])
def test_seed_and_chain_index_outside_64_bits_are_refused(seed, chain_index):
    # Reduced modulo 2^64, or truncated, they would replay the stream of another pair.
    with pytest.raises(DomainError, match=r"must be integers in 0\.\.2\^64-1"):
        run_chain(uniform_csf(3), steps=1, seed=seed, chain_index=chain_index)
    run_chain(uniform_csf(3), steps=1, seed=int(seed) % 2**64, chain_index=chain_index % 2**64)


def test_chain_stays_in_hub_support():
    law = hub_law(8, vset([0, 1]))
    hubs = vset([0, 1])
    star = complete_sets_graph(8, [vset([0, v]) for v in range(1, 8)])
    summary = run_chain(law, init=star, steps=5_000, thin=50, seed=3, validate=True)
    assert summary.acceptance_rate > 0.0
    for rec in summary.records:
        _, seps = clique_separators(rec.graph)
        assert all(s & hubs for s in seps), rec.graph


@pytest.mark.parametrize(
    "law",
    [
        pytest.param(random_csf(8, seed=8), id="random-8"),
        pytest.param(hub_law(8, [0, 1], 1.3, 0.7), id="hub-8"),
        pytest.param(erdos_renyi_csf(8, 0.3), id="erdos-renyi-8"),
    ],
)
def test_validated_local_chain(law):
    # Above the enumeration limit every step is local; validate checks each proposal's verdict and
    # each state's carried log-density against a full search and a full score.
    summary = run_chain(law, steps=3_000, thin=3_000, seed=4, validate=True)
    assert summary.acceptance_rate > 0.0


def test_chain_visits_everything_at_desk_scale():
    counts = visit_counts(uniform_csf(4), steps=100_000, seed=2)
    assert len(counts) == 61
    counts5 = visit_counts(uniform_csf(5), init=Graph.complete(5), steps=300_000, seed=2)
    assert len(counts5) == 822


def test_empirical_frequencies_approach_target():
    law = random_csf(4, seed=31, scale=0.4)
    target = normalize_by_enumeration(law)
    counts = visit_counts(law, steps=150_000, seed=5)
    total = sum(counts.values())
    tv = 0.5 * sum(abs(counts.get(g.edge_mask, 0) / total - p) for g, p in target.items())
    assert tv < 0.05


# The exact edge-flip kernel at n <= 5: the yardstick that a new move set
# or a chain diagnostic is checked against.


def exact_kernel(law):
    """``(states, pi, P)``: the law's support in enumeration order, its
    probabilities, and the transition matrix of the edge-flip chain, each
    row built from the candidate that ``propose_edge_flip`` yields for
    each pair index, accepted with probability min(1, pi'/pi)."""
    density = normalize_by_enumeration(law)
    states = [g for g, q in density.items() if q > 0]
    pi = np.array([density.prob(g) for g in states])
    index = {g.edge_mask: k for k, g in enumerate(states)}
    npairs = law.n * (law.n - 1) // 2
    P = np.zeros((len(states), len(states)))
    for s, g in enumerate(states):
        state = initial_state(law, g)
        for k in range(npairs):
            cand = propose_edge_flip(state, ScriptedRandom([k]))
            t = None if cand is None else index.get(cand.edge_mask)
            a = 0.0 if t is None else min(1.0, pi[t] / pi[s])
            if a:
                P[s, t] += a / npairs
            P[s, s] += (1.0 - a) / npairs
    return states, pi, P


def neighbour_table(n, rows=slice(None)):
    """``(toggled, nbr, valid)`` over the decomposable graphs on n vertices, from the clique/separator
    table's shared masks: ``toggled[g, k]`` is graph g's mask with pair k toggled, ``nbr[g, k]`` its
    position among the masks and ``valid[g, k]`` whether it is one of them, i.e. decomposable. The
    graphs are those at ``rows`` of the masks, all of them by default."""
    masks = np.frombuffer(_clique_separator_table(n).masks, dtype=np.int64)
    toggled = masks[rows, None] ^ np.left_shift(1, np.arange(n * (n - 1) // 2), dtype=np.int64)
    nbr = np.searchsorted(masks, toggled)
    valid = masks[np.minimum(nbr, len(masks) - 1)] == toggled
    return toggled, nbr, valid


@pytest.mark.parametrize("n", range(2, 6))
def test_neighbour_table_matches_every_single_pair_toggle(n):
    toggled, nbr, valid = neighbour_table(n)
    for g, row in enumerate(toggled.tolist()):
        assert valid[g].tolist() == [is_decomposable(Graph.from_edge_mask(n, m)) for m in row]
    g, k = np.nonzero(valid)
    assert (nbr[nbr[g, k], k] == g).all()  # toggling the same pair again leads back


@pytest.mark.parametrize("n, toggles", [(2, 2), (3, 24), (4, 348), (5, 7220), (6, 218640)])
def test_neighbour_table_counts_the_valid_toggles(n, toggles):
    assert neighbour_table(n)[2].sum() == toggles


class PairIndex:
    """Every pair index drawn is ``k``; no uniform is drawn."""

    k = 0

    def integers(self, _n):
        return self.k


def assert_local_moves_match_the_table(n, block=1 << 15):
    """At every pair toggle of every decomposable graph on n vertices, taken in blocks of ``block``
    graphs: the local verdict of :func:`propose_edge_flip`, from a state without a memo, is
    :func:`neighbour_table`'s ``valid``; and under each of five laws, from every graph in the
    support, the graph's full log-density plus the local log-ratio is -inf exactly where the
    neighbour's full log-density is, and otherwise within 1e-12 of it, to the bit for the uniform
    and hub(4, 0.5) laws, whose potentials are exact in binary. Each graph's full log-density is one
    :func:`log_density_unnorm` over one search of a graph rebuilt from its edge mask. Returns the
    number of valid toggles."""
    laws = [(uniform_csf(n), True), (random_csf(n, seed=n), False), (hub_law(n, [0]), True),
            (hub_law(n, [0, 1], 1.3, 0.7), False), (erdos_renyi_csf(n, 0.3), False)]
    masks = _clique_separator_table(n).masks
    full = np.empty((len(laws), len(masks)))
    for g, mask in enumerate(masks):
        graph = Graph.from_edge_mask(n, mask)
        full[:, g] = [log_density_unnorm(law, graph) for law, _ in laws]
    rand, toggles = PairIndex(), 0
    for lo in range(0, len(masks), block):
        _, nbr, valid = neighbour_table(n, slice(lo, lo + block))
        for g, mask, nbrs, oks in zip(range(lo, len(masks)), masks[lo:lo + block], nbr.tolist(), valid.tolist()):
            graph = Graph.from_edge_mask(n, mask)
            state = ChainState(graph, 0.0)
            for k, (t, ok) in enumerate(zip(nbrs, oks)):
                rand.k = k
                assert (propose_edge_flip(state, rand) is not None) == ok, (mask, k)
                if not ok:
                    continue
                toggles += 1
                for (law, exact), lds in zip(laws, full):
                    if lds[g] == -INF:
                        continue
                    got, want = lds[g] + sampler_module._log_ratio(law, graph, k), lds[t]
                    if exact or want == -INF:
                        assert got == want, (mask, k, law)
                    else:
                        assert abs(got - want) <= 1e-12, (mask, k, law)
    return toggles


@pytest.mark.parametrize("n, toggles", [(2, 2), (3, 24), (4, 348), (5, 7220), (6, 218640)])
def test_local_moves_match_the_table(n, toggles):
    assert assert_local_moves_match_the_table(n, block=1000) == toggles


def kernel_laws():
    for n in (3, 4, 5):
        yield pytest.param(uniform_csf(n), id=f"uniform-{n}")
        yield pytest.param(random_csf(n, seed=n), id=f"random-{n}")
        yield pytest.param(hub_law(n, [0]), id=f"hub-{n}")


@pytest.mark.parametrize("law", kernel_laws())
def test_exact_kernel_is_stationary_and_reversible(law):
    states, pi, P = exact_kernel(law)
    assert (P >= 0).all() and np.allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.abs(pi @ P - pi).max() <= 1e-14
    flow = pi[:, None] * P
    assert np.abs(flow - flow.T).max() <= 1e-14


@pytest.mark.parametrize("law", kernel_laws())
def test_mh_step_accepts_as_the_exact_kernel_says(law):
    # A uniform just below the acceptance probability accepts and one just
    # above rejects; a sure move accepts whatever the uniform.
    states, pi, _ = exact_kernel(law)
    index = {g.edge_mask: k for k, g in enumerate(states)}
    for s, g in enumerate(states):
        for k in range(law.n * (law.n - 1) // 2):
            cand = propose_edge_flip(initial_state(law, g), ScriptedRandom([k]))
            t = None if cand is None else index.get(cand.edge_mask)
            if t is None:  # not decomposable, or outside the support: the chain holds
                draws = [(0.0, g)]
            else:
                a = min(1.0, pi[t] / pi[s])
                draws = [(1.0 - 1e-9, cand)] if a == 1.0 else [(a * (1 - 1e-9), cand), (a * (1 + 1e-9), g)]
            for u, expected in draws:
                state = mh_step(initial_state(law, g), law, ScriptedRandom([k], [u]))
                assert state.graph == expected


def sparse_kernel(law):
    """``(p, nbr, rate, hold)`` over the decomposable graphs on n vertices, in table order: the
    law's probabilities, :func:`neighbour_table`'s positions (0 where a toggle is not
    decomposable), ``rate[g, k]`` the probability that one edge-flip step from graph g moves
    by pair k, min(1, p[nbr] / p[g]) / npairs on each decomposable toggle with both ends in the
    support and 0 elsewhere, and ``hold[g]``, 1 minus the row sum of ``rate``."""
    p = np.array(normalize_by_enumeration(law).p)
    _, nbr, valid = neighbour_table(law.n)
    nbr = np.where(valid, nbr, 0)
    live = valid & (p[:, None] > 0) & (p[nbr] > 0)
    ratio = np.divide(p[nbr], p[:, None], out=np.zeros(nbr.shape), where=live)
    rate = np.minimum(1.0, ratio) / nbr.shape[1]
    return p, nbr, rate, 1.0 - rate.sum(axis=1)


@pytest.mark.parametrize("law", kernel_laws())
def test_sparse_kernel_is_the_exact_kernel_on_the_support(law):
    states, _, P = exact_kernel(law)
    p, nbr, rate, hold = sparse_kernel(law)
    support = np.flatnonzero(p > 0)
    masks = np.frombuffer(_clique_separator_table(law.n).masks, dtype=np.int64)
    assert masks[support].tolist() == [g.edge_mask for g in states]
    at = np.full(len(p), -1)
    at[support] = np.arange(len(support))
    dense = np.diag(hold[support])
    g, k = np.nonzero(rate)
    dense[at[g], at[nbr[g, k]]] += rate[g, k]
    assert (at[g] >= 0).all() and (at[nbr[g, k]] >= 0).all()
    assert np.abs(dense - P).max() <= 1e-15


@pytest.mark.parametrize(
    "law",
    [
        pytest.param(uniform_csf(6), id="uniform-6"),
        pytest.param(random_csf(6, seed=6), id="random-6"),
        pytest.param(hub_law(6, [0]), id="hub-6"),
    ],
)
def test_sparse_kernel_is_stationary_and_reversible_at_six_vertices(law):
    # Beyond n=5 the dense exact kernel is too large; the sparse one is its yardstick there.
    p, nbr, rate, hold = sparse_kernel(law)
    assert (rate >= 0).all() and (hold >= 0).all()
    flow = p[:, None] * rate  # flow[g, k]: the stationary flow from g by pair k
    assert np.abs(p * hold + np.bincount(nbr.ravel(), flow.ravel(), len(p)) - p).max() <= 1e-14
    g, k = np.nonzero(rate)  # every move; the flow back from nbr[g, k] by pair k must match, so it is a move too
    assert np.allclose(flow[g, k], flow[nbr[g, k], k], rtol=1e-14, atol=0)


def exact_gap_and_iat(law):
    """``(states, gap, iat)`` of the exact kernel: the number of supported
    states, the spectral gap 1 - lambda_2, and the integrated autocorrelation
    time 1 + 2 sum_k rho_k of the edge count at stationarity. The chain is
    reversible, so D P D^-1 with D = diag(sqrt(pi)) is symmetric and has P's
    eigenvalues; the IAT is sum_i w_i (1 + lambda_i) / (1 - lambda_i) over
    sum_i w_i, w_i the squared weight of the centred edge count on the i-th
    eigenvector, the top one carrying none."""
    states, pi, P = exact_kernel(law)
    r = np.sqrt(pi)
    S = r[:, None] * P / r[None, :]
    assert np.abs(S - S.T).max() <= 1e-14
    lam, U = np.linalg.eigh((S + S.T) / 2)
    f = np.array([g.edge_mask.bit_count() for g in states], dtype=float)
    f -= pi @ f
    w = (U.T @ (r * f))[:-1] ** 2
    iat = (w * (1 + lam[:-1]) / (1 - lam[:-1])).sum() / w.sum()
    # The same IAT from the fundamental matrix: sum_k P^k f = (I - P + 1 pi)^-1 f.
    g = np.linalg.solve(np.eye(len(pi)) - P + pi[None, :], f)
    assert 2 * (pi @ (f * g)) / (pi @ (f * f)) - 1 == pytest.approx(iat, rel=1e-9)
    return len(states), 1 - lam[-2], iat


@pytest.mark.parametrize(
    "law, states, gap, iat",
    [
        pytest.param(uniform_csf(4), 61, 0.2951181479071203, 5.5238820819403225, id="uniform-4"),
        pytest.param(uniform_csf(5), 822, 0.1457322652560904, 11.840531129786134, id="uniform-5"),
        pytest.param(hub_law(5, [0]), 61, 6.261936081330965e-05, 31676.257432192888, id="hub-5"),
    ],
)
def test_exact_spectral_gap_and_iat(law, states, gap, iat):
    # The yardsticks for new move sets (judged on the gap) and for chain
    # diagnostics (an IAT estimate must land near the exact value).
    got = exact_gap_and_iat(law)
    assert got[0] == states
    assert got[1:] == pytest.approx((gap, iat), rel=1e-6)


def sparse_gap_and_iat(law, steps=150):
    """``(states, gap, iat)`` as :func:`exact_gap_and_iat` defines them, from :func:`sparse_kernel`
    restricted to the support, with no dense matrix. S = D P D^-1, D = diag(sqrt(p)), is symmetric
    with top eigenvector sqrt(p). The gap is 1 minus the top Ritz value of ``steps`` Lanczos steps
    with full reorthogonalisation, started orthogonal to sqrt(p) from a seeded normal vector. The IAT
    solves (I - S + sqrt(p) sqrt(p)^T) y = D f, which is symmetric positive definite, by conjugate
    gradients: D^-1 y is the fundamental matrix's (I - P + 1 p)^-1 f, so the IAT is
    2 (D f) y / (D f)(D f) - 1."""
    p, nbr, rate, hold = sparse_kernel(law)
    support = np.flatnonzero(p > 0)
    at = np.zeros(len(p), dtype=np.intp)
    at[support] = np.arange(len(support))
    r, nbr, rate, hold = np.sqrt(p[support]), at[nbr[support]], rate[support], hold[support]
    weight = np.divide(rate * r[:, None], r[nbr], out=np.zeros(rate.shape), where=rate > 0)  # S off the diagonal
    g, k = np.nonzero(rate)
    assert np.allclose(weight[g, k], weight[nbr[g, k], k], rtol=1e-14, atol=0)  # S is symmetric

    def S(x):
        return hold * x + (weight * x[nbr]).sum(axis=1)

    basis = np.zeros((steps + 1, len(r)))
    basis[0] = r  # every Lanczos vector is kept orthogonal to the top eigenvector too
    v = np.random.default_rng(0).standard_normal(len(r))
    v -= r * (r @ v)
    v /= np.linalg.norm(v)
    alpha, beta = [], []
    for j in range(1, steps + 1):
        basis[j] = v
        w = S(v)
        alpha.append(v @ w)
        for _ in range(2):  # classical Gram-Schmidt twice against every earlier vector
            w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-10:  # the Krylov space is invariant: its Ritz values are exact
            break
        beta.append(norm)
        v = w / norm
    T = np.diag(alpha) + np.diag(beta[: len(alpha) - 1], 1) + np.diag(beta[: len(alpha) - 1], -1)
    gap = 1 - np.linalg.eigvalsh(T)[-1]

    masks = np.frombuffer(_clique_separator_table(law.n).masks, dtype=np.int64)[support]
    f = np.array([m.bit_count() for m in masks.tolist()], dtype=float)
    b = r * (f - r**2 @ f)
    y, res = np.zeros(len(r)), b.copy()
    d, rr = res.copy(), res @ res
    for _ in range(100 * len(r)):
        if rr <= 1e-28 * (b @ b):
            break
        md = d - S(d) + r * (r @ d)
        a = rr / (d @ md)
        y += a * d
        res -= a * md
        rr, last = res @ res, rr
        d = res + rr / last * d
    else:
        raise AssertionError("conjugate gradients did not converge")
    return len(support), gap, 2 * (b @ y) / (b @ b) - 1


@pytest.mark.parametrize(
    "law",
    [
        pytest.param(uniform_csf(4), id="uniform-4"),
        pytest.param(uniform_csf(5), id="uniform-5"),
        pytest.param(hub_law(5, [0]), id="hub-5"),
        pytest.param(random_csf(5, seed=5), id="random-5"),
    ],
)
def test_sparse_gap_and_iat_match_the_dense_ones(law):
    states, gap, iat = exact_gap_and_iat(law)
    got = sparse_gap_and_iat(law)
    assert got[0] == states
    assert got[1:] == pytest.approx((gap, iat), rel=1e-9)


@pytest.mark.parametrize(
    "law, states, gap, iat",
    [
        pytest.param(uniform_csf(6), 18154, 0.0772541100480, 22.3623447128, id="uniform-6"),
        pytest.param(random_csf(6, seed=6), 18154, 0.0172869011297, 71.8782480524, id="random-6"),
        pytest.param(hub_law(6, [0]), 822, 1.20727622e-6, 1615048.73, id="hub-6"),
    ],
)
def test_sparse_spectral_gap_and_iat_at_six_vertices(law, states, gap, iat):
    # The yardstick for chain diagnostics at n=6, beyond the dense kernel's reach.
    got = sparse_gap_and_iat(law)
    assert got[0] == states
    assert got[1:] == pytest.approx((gap, iat), rel=1e-6)


@pytest.mark.parametrize(
    "law, iat, with_log_density",
    [
        # Under the uniform law the log-density is constant, so only the edge count is checked.
        pytest.param(uniform_csf(6), 22.3623447128, False, id="uniform-6"),
        # The log-density's own exact IAT, by the same conjugate-gradient solve, is 31.93: the
        # edge count's 71.88 bounds both.
        pytest.param(random_csf(6, seed=6), 71.8782480524, True, id="random-6"),
    ],
)
def test_chain_means_match_the_exact_law_at_six_vertices(law, iat, with_log_density):
    # hub_law(6, [0]) is left out: its gap is 1.21e-6 (IAT about 1.6M), so its chain needs about a
    # million steps per relaxation, far beyond a tier-1 run.
    # Each chain mean must lie within 5 standard errors sqrt(var * iat / N) of the exact mean, with
    # the exact IAT from test_sparse_spectral_gap_and_iat_at_six_vertices; and the batch-means
    # estimate of the edge count's IAT, from batches of about 28 to 89 IATs, within a factor 2 of it.
    burn_in, steps, batches = 5_000, 200_000, 100
    p = np.array(normalize_by_enumeration(law).p)
    masks = np.frombuffer(_clique_separator_table(law.n).masks, dtype=np.int64)
    states = islice(sampler_module._chain(law, None, burn_in + steps, seed=0, chain_index=0), burn_in + 1, None)
    visited = np.searchsorted(masks, [state.graph.edge_mask for state in states])
    edges = np.array([m.bit_count() for m in masks.tolist()], dtype=float)
    stats = [edges, np.log(p)] if with_log_density else [edges]
    for f in stats:
        exact = p @ f
        var = p @ (f - exact) ** 2
        assert abs(f[visited].mean() - exact) <= 5 * math.sqrt(var * iat / steps)
    batch_means = edges[visited].reshape(batches, -1).mean(axis=1)
    batch_iat = steps // batches * batch_means.var(ddof=1) / (p @ (edges - p @ edges) ** 2)
    assert iat / 2 <= batch_iat <= 2 * iat
