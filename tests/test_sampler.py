import math

import numpy as np
import pytest
import scipy.stats

import cliquesep.sampler as sampler_module
from cliquesep import (
    CsfLaw,
    DomainError,
    Graph,
    PotentialTable,
    PreconditionError,
    clique_separators,
    complete_sets_graph,
    default_init,
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
    result = scipy.stats.chisquare(counts)
    assert result.pvalue > 1e-6


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
    # initial_state scores the start once; toggling a pair back revisits a graph.
    if n > ENUMERATION_LIMIT:
        assert calls["score"] == 1 + calls["decomposable"]
    else:
        assert calls["score"] < calls["decomposable"]


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


def test_chain_stays_in_hub_support():
    law = hub_law(8, vset([0, 1]))
    hubs = vset([0, 1])
    star = complete_sets_graph(8, [vset([0, v]) for v in range(1, 8)])
    summary = run_chain(law, init=star, steps=5_000, thin=50, seed=3, validate=True)
    assert summary.acceptance_rate > 0.0
    for rec in summary.records:
        _, seps = clique_separators(rec.graph)
        assert all(s & hubs for s in seps), rec.graph


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


def neighbour_table(n):
    """``(toggled, nbr, valid)`` over the decomposable graphs on n vertices, from the clique/separator
    table's shared masks: ``toggled[g, k]`` is graph g's mask with pair k toggled, ``nbr[g, k]`` its
    position among the masks and ``valid[g, k]`` whether it is one of them, i.e. decomposable."""
    masks = np.frombuffer(_clique_separator_table(n).masks, dtype=np.int64)
    toggled = masks[:, None] ^ np.left_shift(1, np.arange(n * (n - 1) // 2), dtype=np.int64)
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
