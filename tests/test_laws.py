import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquesep import (
    ConstRule,
    CsfLaw,
    DensityTable,
    DomainError,
    EmptySupportError,
    ExpLinearRule,
    Graph,
    PotentialTable,
    PreconditionError,
    PropertyKind,
    QuadraticRule,
    bernoulli_dirichlet_score,
    check_property,
    cef_dimension,
    clique_separators,
    complete_sets_graph,
    csf_dimension,
    density_from_json,
    density_to_json,
    enumerate_decomposable,
    erdos_renyi_csf,
    hub_law,
    induced_subgraph,
    is_decomposable,
    law_from_json,
    law_to_json,
    log_density_unnorm,
    normalize_by_enumeration,
    perturb_density,
    posterior_law,
    standardize,
    t_minus,
    t_plus,
    t_statistic,
    uniform_csf,
    vset,
)
from cliquesep.graphs import MAX_VERTICES, _clique_separator_table, members, within_edge_mask
from conftest import random_csf

PATH3 = complete_sets_graph(3, [vset([0, 1]), vset([1, 2])])


# ---------------------------------------------------------------------------
# The per-set statistic


def test_t_statistic_path():
    assert t_statistic(PATH3, vset([0, 1])) == 1
    assert t_statistic(PATH3, vset([1])) == -1
    assert t_statistic(PATH3, vset([0, 2])) == 0


def test_t_statistic_empty_graph():
    e3 = Graph.empty(3)
    assert t_statistic(e3, 0) == -2
    for v in range(3):
        assert t_statistic(e3, 1 << v) == 1


def test_t_statistic_needs_decomposable():
    with pytest.raises(PreconditionError):
        t_statistic(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 1)


def test_mutating_a_returned_separator_multiset_changes_no_later_score():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    law = random_csf(4, seed=3)
    before = log_density_unnorm(law, path)
    _, seps = clique_separators(path)
    seps[vset([1])] += 5
    assert clique_separators(path)[1] == {vset([1]): 1, vset([2]): 1}
    assert log_density_unnorm(law, path) == before


def test_t_plus_minus_split():
    for g in enumerate_decomposable(4):
        for a in range(16):
            t = t_statistic(g, a)
            assert t_plus(g, a) + t_minus(g, a) == t
            assert t_plus(g, a) in (0, 1)
            assert t_minus(g, a) <= 0


@pytest.mark.parametrize("n", range(1, 7))
def test_t_linear_constraints(n):
    # sum of t over all sets is 1; sum over sets containing any vertex is 1
    for g in enumerate_decomposable(n):
        cl, seps = clique_separators(g)
        assert len(cl) - sum(seps.values()) == 1
        for v in range(n):
            bit = 1 << v
            total = sum(1 for c in cl if c & bit) - sum(
                m for s, m in seps.items() if s & bit
            )
            assert total == 1, (g, v)


# ---------------------------------------------------------------------------
# Densities


def test_uniform_log_density_zero():
    law = uniform_csf(4)
    for g in enumerate_decomposable(4):
        assert log_density_unnorm(law, g) == 0.0


def test_half_probability_edge_law_is_uniform():
    law = erdos_renyi_csf(4, 0.5)
    for g in enumerate_decomposable(4):
        assert log_density_unnorm(law, g) == pytest.approx(0.0, abs=1e-12)


def test_hub_free_separator_has_zero_mass():
    law = hub_law(4, vset([0]))
    bad = complete_sets_graph(4, [vset([1, 2]), vset([2, 3])])
    assert log_density_unnorm(law, bad) == -math.inf
    single_clique = Graph.complete(4)
    assert math.isfinite(log_density_unnorm(law, single_clique))


def test_log_density_rejects_an_induced_subgraph():
    # It once scored -12.0, where its edges on all four vertices score -inf:
    # the empty separator holds no hub.
    part = induced_subgraph(Graph.complete(4), vset([0, 1, 2]))
    with pytest.raises(DomainError, match=r"vertices \[3\] inactive"):
        log_density_unnorm(hub_law(4, [0]), part)


@pytest.mark.parametrize("n", [4, 5])
def test_log_density_via_statistic_matches_ordering_route(n):
    law = random_csf(n, seed=21)
    for g in enumerate_decomposable(n):
        direct = log_density_unnorm(law, g)
        by_t = 0.0
        for a in range(1 << n):
            tp, tm = t_plus(g, a), t_minus(g, a)
            if tp:
                by_t += law.phi.log_potential(a) * tp
            if tm:
                by_t += law.psi.log_potential(a) * tm
        assert direct == pytest.approx(by_t, abs=1e-10)


def test_infinite_clique_potential_rejected():
    law = CsfLaw(2, PotentialTable(overrides={vset([0, 1]): math.inf}), PotentialTable())
    with pytest.raises(DomainError):
        log_density_unnorm(law, Graph.complete(2))


def test_potential_table_rejects_bad_values():
    with pytest.raises(DomainError):
        PotentialTable(overrides={1: -math.inf})
    with pytest.raises(DomainError):
        PotentialTable(overrides={1: math.nan})


# ---------------------------------------------------------------------------
# Named constructors


def test_erdos_renyi_small_case():
    d = normalize_by_enumeration(erdos_renyi_csf(3, 0.25))
    assert d.prob(Graph.empty(3)) == pytest.approx(27 / 64, rel=1e-12)


@pytest.mark.parametrize("n,p", [(4, 0.3), (5, 0.62)])
def test_erdos_renyi_matches_conditioned_edge_law(n, p):
    d = normalize_by_enumeration(erdos_renyi_csf(n, p))
    npairs = n * (n - 1) // 2
    weights = {
        g: p ** g.edge_mask.bit_count() * (1 - p) ** (npairs - g.edge_mask.bit_count())
        for g in enumerate_decomposable(n)
    }
    z = math.fsum(sorted(weights.values()))
    for g, w in weights.items():
        assert d.prob(g) == pytest.approx(w / z, rel=1e-10)


def test_erdos_renyi_validates_probability():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            erdos_renyi_csf(3, p)


def test_hub_law_constructs_at_scale():
    law = hub_law(200, vset(range(20)))
    assert law.phi.log_potential(vset([0, 1, 2])) == pytest.approx(-12.0)
    assert law.psi.log_potential(vset([0, 21])) == pytest.approx(-1.0)
    assert law.psi.log_potential(vset([21, 22])) == math.inf
    assert law.psi.log_potential(0) == math.inf


def test_hub_law_without_hubs_supports_only_one_clique():
    d = normalize_by_enumeration(hub_law(4, 0))
    support = [g for g, q in d.items() if q > 0]
    assert support == [Graph.complete(4)]
    assert d.prob(Graph.complete(4)) == 1.0


# ---------------------------------------------------------------------------
# Dimensions


def test_dimension_values():
    assert (csf_dimension(4), cef_dimension(4)) == (21, 11)
    assert (csf_dimension(7), cef_dimension(7)) == (239, 120)
    assert (csf_dimension(3), cef_dimension(3)) == (7, 4)


def test_dimension_needs_two_vertices():
    with pytest.raises(DomainError):
        csf_dimension(1)
    with pytest.raises(DomainError):
        cef_dimension(0)


def test_dimension_caps_vertex_count():
    assert csf_dimension(MAX_VERTICES) == 2 * 2**MAX_VERTICES - 2 * MAX_VERTICES - 3
    for dimension in (csf_dimension, cef_dimension):
        with pytest.raises(DomainError):
            dimension(MAX_VERTICES + 1)


# ---------------------------------------------------------------------------
# Standardisation


def test_standardize_uniform_is_identity():
    law = uniform_csf(4)
    std = standardize(law)
    for m in range(16):
        assert std.phi.log_potential(m) == 0.0
        assert std.psi.log_potential(m) == 0.0


def test_standardize_uniformises_anchors_and_preserves_density():
    law = random_csf(4, seed=2, scale=0.8)
    std = standardize(law)
    assert std.psi.log_potential(0) == pytest.approx(0.0, abs=1e-12)
    for v in range(4):
        assert std.phi.log_potential(1 << v) == pytest.approx(0.0, abs=1e-12)
    before = normalize_by_enumeration(law)
    after = normalize_by_enumeration(std)
    for g, p in before.items():
        assert after.prob(g) == pytest.approx(p, rel=1e-12)


def test_standardize_idempotent():
    std = standardize(random_csf(4, seed=9))
    std2 = standardize(std)
    for m in range(16):
        assert std2.phi.log_potential(m) == pytest.approx(std.phi.log_potential(m), abs=1e-12)
        assert std2.psi.log_potential(m) == pytest.approx(std.psi.log_potential(m), abs=1e-12)


def test_standardize_rejects_hard_constrained_anchor():
    with pytest.raises(DomainError):
        standardize(hub_law(4, vset([0])))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_standardize_preserves_density_property(seed):
    law = random_csf(4, seed=seed)
    before = normalize_by_enumeration(law)
    after = normalize_by_enumeration(standardize(law))
    worst = max(abs(after.prob(g) - p) / p for g, p in before.items())
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Normalisation


def test_normalize_uniform():
    d = normalize_by_enumeration(uniform_csf(4))
    assert len(d) == 61
    for _, p in d.items():
        assert p == pytest.approx(1 / 61, rel=1e-12)


def test_normalize_sums_to_one():
    for seed in (0, 1, 2):
        d = normalize_by_enumeration(random_csf(5, seed=seed))
        assert math.fsum(sorted(p for _, p in d.items())) == pytest.approx(1.0, abs=1e-12)


def test_unused_coordinates_do_not_matter():
    # the empty set is never a clique; sets of size >= n-1 are never separators
    law = random_csf(4, seed=4)
    full = 15
    tweaked_phi = dict(law.phi.overrides)
    tweaked_phi[0] += 37.0
    tweaked_psi = dict(law.psi.overrides)
    for m in range(16):
        if m.bit_count() >= 3:
            tweaked_psi[m] += 11.0
    other = CsfLaw(4, PotentialTable(overrides=tweaked_phi), PotentialTable(overrides=tweaked_psi))
    base = normalize_by_enumeration(law)
    moved = normalize_by_enumeration(other)
    for g, p in base.items():
        assert moved.prob(g) == pytest.approx(p, rel=1e-12)
    assert full not in [s for g, _ in base.items() for s in clique_separators(g)[1]]


def test_perturb_density():
    d = normalize_by_enumeration(uniform_csf(3))
    g = Graph.empty(3)
    d2 = perturb_density(d, g, 2.0)
    assert d2.prob(g) == pytest.approx(2 / 9, rel=1e-12)
    assert math.fsum(sorted(p for _, p in d2.items())) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        perturb_density(d, Graph.empty(4), 2.0)
    with pytest.raises(DomainError):
        perturb_density(d, g, 0.0)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
def test_perturb_density_needs_a_finite_factor(factor):
    d = normalize_by_enumeration(uniform_csf(3))
    with pytest.raises(DomainError):
        perturb_density(d, Graph.empty(3), factor)


@pytest.mark.parametrize(
    "q, factor, error, match",
    [
        (0.0, 2.0, EmptySupportError, "zero on every"),
        (1e308, 0.5, DomainError, "past float range"),  # finite weights, exact sum past float range
        (1e308, 2.0, DomainError, "past float range"),  # one weight overflows to +inf
    ],
    ids=["zero", "sum-overflows", "weight-overflows"],
)
def test_perturb_density_refuses_a_table_it_cannot_normalise(q, factor, error, match):
    # The constructor refuses weights that do not sum to one, so they reach
    # perturb_density only through the mutable list ``p`` of a built table.
    with pytest.raises(DomainError, match="probabilities sum to"):
        DensityTable(3, {g: q for g in enumerate_decomposable(3)})
    density = normalize_by_enumeration(uniform_csf(3))
    density.p[:] = [q] * len(density)
    with pytest.raises(error, match=match):
        perturb_density(density, Graph.empty(3), factor)


def test_density_parser_refuses_a_sum_past_float_range():
    doc = json.loads(density_to_json(normalize_by_enumeration(uniform_csf(3))))
    for entry in doc["entries"]:
        entry["p"] = 1e308
    with pytest.raises(DomainError, match="sum to inf, not 1"):
        density_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Density layout: one probability per graph, in enumeration order


class DictDensityTable:
    """The density table before its enumeration-order layout, as the
    oracle: one dict keyed by ``Graph`` and one by edge mask, filled by
    the normalisation that kept every ``Graph``, and emitted as JSON
    sorted by edge mask."""

    def __init__(self, law):
        logs = [(g, log_density_unnorm(law, g)) for g in enumerate_decomposable(law.n)]
        best = max(ld for _, ld in logs)
        weights = [(g, math.exp(ld - best) if ld > -math.inf else 0.0) for g, ld in logs]
        z = math.fsum(sorted(w for _, w in weights))
        self.n = law.n
        self.probs = {g: w / z for g, w in weights}
        self.by_mask = {g.edge_mask: p for g, p in self.probs.items()}

    def to_json(self):
        entries = sorted(self.probs.items(), key=lambda item: item[0].edge_mask)
        return json.dumps(
            {"n": self.n, "entries": [{"edges": [[i, j] for i, j in g.edges()], "p": p} for g, p in entries]}
        )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["random", "hub"])
def test_density_layout_matches_the_dict_table(n, kind):
    law = random_csf(n, seed=n) if kind == "random" else hub_law(n, [0])  # the hub law has zeros
    density = normalize_by_enumeration(law)
    oracle = DictDensityTable(law)
    graphs = list(enumerate_decomposable(n))
    assert list(density.masks) == [g.edge_mask for g in graphs]
    assert list(density.items()) == list(zip(graphs, density.p))
    assert [(g.edge_mask, q) for g, q in density.items()] == list(zip(density.masks, density.p))
    assert [g.adj for g, _ in density.items()] == [Graph.from_edge_mask(n, m).adj for m in density.masks]
    assert len(density) == len(graphs)
    for g in graphs:
        assert density.prob(g) == oracle.probs[g]
        assert density.prob_of_mask(g.edge_mask) == oracle.by_mask[g.edge_mask]
    assert density_to_json(density) == oracle.to_json()
    # Graphs on other vertex sets, and masks past the last pair bit or below every mask.
    absent = [Graph.empty(n + 1), induced_subgraph(Graph.empty(n), (1 << n) - 2)]
    absent_masks = [1 << (n * (n - 1) // 2), -1]
    if n > 1:
        absent.append(Graph.empty(n - 1))
    if n >= 4:
        cycle = Graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)])  # chordless
        absent.append(cycle)
        absent_masks.append(cycle.edge_mask)
    for g in absent:
        with pytest.raises(KeyError):
            density.prob(g)
    for mask in absent_masks:
        with pytest.raises(KeyError):
            density.prob_of_mask(mask)


# ---------------------------------------------------------------------------
# Normalisation from the clique/separator table, against the scalar loop


def scalar_normalisation(law):
    """The normalisation before the clique/separator table, as the oracle:
    ``log_density_unnorm`` on each enumerated graph, then the weights
    against the largest log-density, summed smallest-first."""
    masks, logs = [], []
    for g in enumerate_decomposable(law.n):
        masks.append(g.edge_mask)
        logs.append(log_density_unnorm(law, g))
    best = max(logs)
    weights = [math.exp(ld - best) if ld > -math.inf else 0.0 for ld in logs]
    z = math.fsum(sorted(weights))
    return masks, [w / z for w in weights]


def _posterior(n):
    rng = random.Random(n)
    data = [[rng.randrange(2) for _ in range(n)] for _ in range(12)]
    return posterior_law(random_csf(n, seed=n + 20), bernoulli_dirichlet_score(data))


_NORMALISED_LAWS = {
    "uniform": uniform_csf,
    "random": lambda n: random_csf(n, seed=n),
    "hub": lambda n: hub_law(n, [0], 0.7, 0.3),  # zero weights from infinite separators
    "posterior": _posterior,  # an ``extra`` hook on both tables
    "standardized": lambda n: standardize(random_csf(n, seed=n + 10)),
}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", sorted(_NORMALISED_LAWS))
def test_table_normalisation_matches_the_scalar_loop(n, kind):
    law = _NORMALISED_LAWS[kind](n)
    density = normalize_by_enumeration(law)
    masks, p = scalar_normalisation(law)
    assert list(density.masks) == masks
    assert density.p == p


def first_scalar_error(law):
    """Type and message of the first ``log_density_unnorm`` error in enumeration order."""
    for g in enumerate_decomposable(law.n):
        try:
            log_density_unnorm(law, g)
        except DomainError as e:
            return type(e), str(e)
    return None


def _with_overrides(law, phi=None, psi=None):
    return CsfLaw(
        law.n,
        PotentialTable(law.phi.rule, {**law.phi.overrides, **(phi or {})}, law.phi.hubs),
        PotentialTable(law.psi.rule, {**law.psi.overrides, **(psi or {})}, law.psi.hubs),
    )


_FAILING_LAWS = {
    # Two infinite cliques: the first graph in enumeration order holding either one fails.
    "infinite-cliques": lambda n: _with_overrides(random_csf(n, 3), phi={vset([1, n - 1]): math.inf,
                                                                         vset([0, 2]): math.inf}),
    # The empty graph has both; its cliques are summed first.
    "infinite-clique-beside-infinite-separator": lambda n: _with_overrides(
        uniform_csf(n), phi={1 << (n - 1): math.inf}, psi={0: math.inf}),
    # 2 x 1e308 overflows on the star's separator {0}; with 1e308 on the cliques too the sum is NaN.
    "overflow": lambda n: hub_law(n, [0], 0.0, 1e308),
    "overflow-to-nan": lambda n: hub_law(n, [0], 1e308, 1e308),
}


@pytest.mark.parametrize("n", range(4, 7))  # the star's separator {0} has multiplicity 2 from n=4
@pytest.mark.parametrize("kind", sorted(_FAILING_LAWS))
def test_table_normalisation_raises_the_scalar_loops_first_error(n, kind):
    law = _FAILING_LAWS[kind](n)
    expected = first_scalar_error(law)
    assert expected is not None
    with pytest.raises(DomainError) as info:
        normalize_by_enumeration(law)
    assert (type(info.value), str(info.value)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_clique_separator_table_lists_each_graphs_summary_in_search_order(n):
    t = _clique_separator_table(n)
    graphs = list(enumerate_decomposable(n))
    assert list(t.masks) == [g.edge_mask for g in graphs]
    assert (t.gi.dtype, t.sets.dtype, t.coef.dtype, t.adj.dtype) == (np.int32, np.uint8, np.int8, np.uint8)
    assert [tuple(row) for row in t.adj.tolist()] == [Graph.from_edge_mask(n, m).adj for m in t.masks]
    assert (np.diff(t.gi) >= 0).all()
    starts = np.searchsorted(t.gi, np.arange(len(graphs) + 1))
    sets, coef = t.sets.tolist(), t.coef.tolist()
    for k, g in enumerate(graphs):
        cl, seps = clique_separators(g)
        entries = list(zip(sets[starts[k]:starts[k + 1]], coef[starts[k]:starts[k + 1]]))
        assert entries == [(c, 1) for c in cl] + [(s, -m) for s, m in seps.items()]


@pytest.mark.parametrize("n", range(1, 7))
def test_every_density_shares_the_tables_masks(n):
    # One walk order per vertex count: every construction path refers to the table's buffer, none copies it.
    masks = _clique_separator_table(n).masks
    normalised = normalize_by_enumeration(random_csf(n, seed=n))
    densities = [
        normalised,
        DensityTable(n, dict(normalised.items())),
        density_from_json(density_to_json(normalised)),
        perturb_density(normalised, Graph.empty(n), 2.0),
    ]
    assert all(d.masks is masks for d in densities)


def test_cached_tables_are_read_only():
    # The tables are cached for the process, so one in-place write would corrupt every later result.
    t = _clique_separator_table(4)
    for column in (t.gi, t.sets, t.coef, t.adj):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
    density = normalize_by_enumeration(uniform_csf(4))
    with pytest.raises(TypeError):
        density.masks[0] = 1
    assert density.masks[0] == 0 and t.coef[0] == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_clique_separator_table_sums_to_the_t_statistic(n):
    # The table T(G, A) of every graph and set, as a dense matrix.
    t = _clique_separator_table(n)
    table = np.zeros((len(t.masks), 1 << n), dtype=int)
    np.add.at(table, (t.gi, t.sets), t.coef)
    expected = [[t_statistic(g, a) for a in range(1 << n)] for g in enumerate_decomposable(n)]
    assert table.tolist() == expected


def _invert_over_supersets(indicator):
    """Σ over X ⊇ A of (−1)^|X∖A| · indicator[..., X] for every set A, as
    int8 rows: one in-place butterfly pass per vertex. A pass may wrap
    around, but the wrap cancels mod 256, and T(G, A) fits in int8."""
    t = indicator.astype(np.int8)
    b = 1
    while b < t.shape[-1]:
        halves = t.reshape(len(t), -1, 2, b)  # sets without the vertex, then with it
        halves[:, :, 0] -= halves[:, :, 1]
        b <<= 1
    return t


def assert_table_is_mobius_inversion(n, block=1 << 15):
    """Check every graph's row of the clique/separator table of n vertices
    against T(G, A) = Σ over X ⊇ A of (−1)^|X∖A| · [X complete in G], which
    needs no search, ``block`` graphs at a time.

    The cliques containing a complete set X form a subtree of a junction
    tree, whose edges are the separators containing X, so cliques minus
    separators that contain X count 1 when X is complete and 0 otherwise
    (Lauritzen 1996, §2.1); inverting that over supersets gives T.
    """
    t = _clique_separator_table(n)
    within = np.array([within_edge_mask(n, x) for x in range(1 << n)], dtype=np.int64)
    masks = np.array(t.masks, dtype=np.int64)  # n ≤ 7 needs at most 21 bits
    for lo in range(0, len(masks), block):
        hi = min(lo + block, len(masks))
        oracle = _invert_over_supersets(masks[lo:hi, None] & within == within)
        start, stop = np.searchsorted(t.gi, [lo, hi])
        dense = np.zeros_like(oracle)
        dense[t.gi[start:stop] - lo, t.sets[start:stop]] = t.coef[start:stop]
        assert np.array_equal(dense, oracle), (n, lo)


@pytest.mark.parametrize("n", range(1, 7))
def test_clique_separator_table_is_the_mobius_inversion_of_complete_sets(n):
    assert_table_is_mobius_inversion(n, block=1 << 12)  # n=6 in five blocks


def _random_decomposable_graph(n, rand):
    """Each vertex after the first joins a random subset of one clique of
    the graph so far, so every vertex is simplicial when it is added."""
    cl = [1]
    edges = []
    for v in range(1, n):
        c = rand.choice(cl)
        nbrs = vset(u for u in members(c) if rand.random() < 0.75)
        edges += [(u, v) for u in members(nbrs)]
        if nbrs == c:
            cl.remove(c)
        cl.append(nbrs | 1 << v)
    return Graph(n, edges)


@pytest.mark.parametrize("n", range(8, 13))  # above the enumeration limit
def test_t_statistic_is_the_mobius_inversion_of_complete_sets(n):
    rand = random.Random(n)
    within = [within_edge_mask(n, x) for x in range(1 << n)]  # 66 bits at n=12: Python ints
    for _ in range(4):
        g = _random_decomposable_graph(n, rand)
        assert is_decomposable(g)
        oracle = _invert_over_supersets(np.array([[g.edge_mask & w == w for w in within]]))[0]
        assert [t_statistic(g, a) for a in range(1 << n)] == oracle.tolist(), g


# ---------------------------------------------------------------------------
# Serialisation


def test_law_json_round_trip():
    law = hub_law(6, vset([0, 2]), 4.0, 0.5)
    text = law_to_json(law)
    back = law_from_json(text)
    assert back.n == 6
    for m in range(1 << 6):
        assert back.phi.log_potential(m) == law.phi.log_potential(m)
        assert back.psi.log_potential(m) == law.psi.log_potential(m)


def test_law_json_matches_documented_shape():
    law = hub_law(5, vset([0, 1]))
    obj = json.loads(law_to_json(law))
    assert obj["phi"]["rule"] == {"type": "exp_linear", "rate": 4.0}
    assert obj["psi"]["hub_constraint"] == {"hubs": [0, 1], "no_hub": "inf"}


def test_law_json_overrides_and_rules():
    law = CsfLaw(
        3,
        PotentialTable(QuadraticRule(0.5), overrides={vset([0, 2]): -1.5}),
        PotentialTable(ConstRule(0.25), overrides={0: math.inf}),
    )
    back = law_from_json(law_to_json(law))
    assert back.phi.log_potential(vset([0, 2])) == -1.5
    assert back.phi.log_potential(vset([0, 1, 2])) == pytest.approx(1.5)
    assert back.psi.log_potential(0) == math.inf
    assert back.psi.log_potential(1) == 0.25


def test_law_json_rejects_junk():
    with pytest.raises(DomainError):
        law_from_json("{}")
    with pytest.raises(DomainError):
        law_from_json('{"n": 3, "phi": {"rule": {"type": "mystery"}}, "psi": {}}')
    with pytest.raises(DomainError):
        law_from_json('{"n": 3, "phi": {"overrides": {"0,9": 1.0}}, "psi": {}}')
    with pytest.raises(DomainError):  # beyond the vertex cap that graphs have too
        law_from_json('{"n": 1025}')
    # Two keys that name one set, and a repeated hub, as a repeated vertex in a key is.
    for overrides in ('{"0,1": 1.0, "1,0": 2.0}', '{"2": 1.0, "02": 2.0}'):
        with pytest.raises(DomainError, match="names the set of an earlier key"):
            law_from_json('{"n": 3, "phi": {"overrides": %s}, "psi": {}}' % overrides)
    with pytest.raises(DomainError, match=r"hub_constraint 'hubs' must list distinct vertex indices in 0\.\.2"):
        law_from_json('{"n": 3, "phi": {}, "psi": {"hub_constraint": {"hubs": [0, 0], "no_hub": "inf"}}}')


@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "١"], ids=["underscore", "space", "plus-sign", "arabic-indic-digit"])
def test_override_keys_are_plain_ascii_decimal(key):
    # int() reads each of these as a vertex; the writer never writes them. n=12 has a vertex 10.
    with pytest.raises(DomainError, match=r"override key .* must list distinct vertex indices in 0\.\.11"):
        law_from_json(json.dumps({"n": 12, "phi": {"overrides": {key: 1.0}}, "psi": {}}))


_NOT_NUMBERS = [True, np.float32(1), np.int64(1), "1", None, 10**400]
_BUILDERS = {
    "exp-linear": ExpLinearRule,
    "const": ConstRule,
    "quadratic": QuadraticRule,
    "override": lambda value: PotentialTable(overrides={vset([0, 1]): value}),
}


@pytest.mark.parametrize("value", _NOT_NUMBERS, ids=["bool", "float32", "int64", "str", "none", "int-past-float-range"])
@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
def test_rules_and_overrides_refuse_what_the_parser_refuses(build, value):
    # Built, such a value would be written as a file that the parser refuses, or not written at all.
    with pytest.raises(DomainError, match="must be a (finite )?number"):
        build(value)


_FLOAT_PARAMETERS = {
    "tol": lambda value: check_property(normalize_by_enumeration(uniform_csf(3)), PropertyKind.WSM, tol=value),
    "factor": lambda value: perturb_density(normalize_by_enumeration(uniform_csf(3)), Graph(3), value),
    "edge-probability": lambda value: erdos_renyi_csf(4, value),
    "alpha": lambda value: bernoulli_dirichlet_score([[0, 1], [1, 1]], alpha=value),
}


@pytest.mark.parametrize("value", ["0.5", None, True, np.float32(1)], ids=["str", "none", "bool", "float32"])
@pytest.mark.parametrize("call", _FLOAT_PARAMETERS.values(), ids=_FLOAT_PARAMETERS.keys())
def test_float_parameters_are_read_by_the_number_rule(call, value):
    # The strings and None once raised a bare TypeError; True and np.float32 passed as numbers.
    with pytest.raises(DomainError, match="must be a number, got"):
        call(value)


@pytest.mark.parametrize("tol", [-1e-9, math.inf, math.nan])
def test_check_property_refuses_a_tolerance_the_cli_refuses(tol):
    # A negative tolerance once reported every density as failing.
    with pytest.raises(DomainError, match="tolerance must be finite and nonnegative"):
        check_property(normalize_by_enumeration(uniform_csf(3)), PropertyKind.WSM, tol)


@pytest.mark.parametrize("value", [2, np.float64(-0.75)], ids=["int", "float64"])
def test_int_and_float64_potentials_round_trip(value):
    table = PotentialTable(ExpLinearRule(value), overrides={vset([0, 1]): value})
    law = CsfLaw(3, table, PotentialTable(QuadraticRule(value), overrides={0: value}))
    back = law_from_json(law_to_json(law))
    assert (back.phi.rule, back.psi.rule) == (ExpLinearRule(value), QuadraticRule(value))
    assert (back.phi.overrides, back.psi.overrides) == ({vset([0, 1]): value}, {0: value})
    assert law_to_json(back) == law_to_json(law)


@pytest.mark.parametrize(
    "phi, psi, message",
    [
        (PotentialTable(overrides={8: 1.0}), PotentialTable(), r"override set contains vertices outside the graph: \[3\]"),
        (PotentialTable(), PotentialTable(overrides={vset([0, 3]): math.inf}), r"override set contains .*: \[3\]"),
        (PotentialTable(overrides={-1: 1.0}), PotentialTable(), "negative override set -1"),
        (PotentialTable(), PotentialTable(hubs=0b1000), r"hub set contains vertices outside the graph: \[3\]"),
        (PotentialTable(hubs=0b1001), PotentialTable(), r"hub set contains vertices outside the graph: \[3\]"),
    ],
    ids=["phi-override", "psi-override", "negative-override", "psi-hubs", "phi-hubs"],
)
def test_law_with_sets_outside_its_vertices_is_refused_where_it_is_built(phi, psi, message):
    # Built, such a law would be written as a file that the parser refuses.
    with pytest.raises(DomainError, match=message):
        CsfLaw(3, phi, psi)


def test_law_with_sets_on_its_last_vertex_round_trips():
    law = CsfLaw(3, PotentialTable(overrides={vset([2]): 1.0}), PotentialTable(overrides={7: 0.5}, hubs=vset([2])))
    back = law_from_json(law_to_json(law))
    assert (back.phi.overrides, back.psi.overrides, back.psi.hubs) == ({4: 1.0}, {7: 0.5}, 4)


def test_law_with_extra_term_does_not_serialise():
    std = standardize(random_csf(3, seed=3))
    with pytest.raises(DomainError):
        law_to_json(std)


@pytest.mark.parametrize("kind", ["int", "float", "float64", "mixed"])
def test_density_json_is_json_dumps_bytes(kind):
    # n=6 has 18,154 graphs, so the probabilities span several dump blocks.
    n = 6
    graphs = list(enumerate_decomposable(n))
    rng = random.Random(kind)
    values = {
        "int": lambda k: k % 3,
        "float": lambda k: rng.choice([rng.random(), 0.1, 1e-300, 5e-324, 1e16, 0.0]),
        "float64": lambda k: np.float64(rng.random()),
        "mixed": lambda k: [k, rng.random(), np.float64(rng.random() / 7), 2**70][k % 4],
    }[kind]
    raw = [values(k) for k in range(len(graphs))]
    z = math.fsum(raw)
    density = DensityTable(n, {g: q / z for g, q in zip(graphs, raw)})
    assert all(type(q) is float for q in density.p)  # so ints and np.float64 are written as floats
    entries = [{"edges": [list(e) for e in g.edges()], "p": q} for g, q in zip(graphs, density.p)]
    assert density_to_json(density) == json.dumps({"n": n, "entries": entries})
    if kind in ("int", "mixed"):  # ints that sum to one, as given
        one_hot = json.loads(density_to_json(DensityTable(n, {g: int(k == 5) for k, g in enumerate(graphs)})))
        assert [type(e["p"]) for e in one_hot["entries"]] == [float] * len(graphs)


_OUT_OF_RANGE = "probabilities must be finite and nonnegative"
_NOT_A_NUMBER = "entry probability must be a number"


@pytest.mark.parametrize(
    "bad, match",
    [
        pytest.param(math.nan, _OUT_OF_RANGE, id="nan"),
        pytest.param(math.inf, _OUT_OF_RANGE, id="inf"),
        pytest.param(-math.inf, _OUT_OF_RANGE, id="-inf"),
        pytest.param(-0.5, _OUT_OF_RANGE, id="-0.5"),
        pytest.param(10**400, _NOT_A_NUMBER, id="int-past-float-range"),
        pytest.param("0.5", _NOT_A_NUMBER, id="str"),
        pytest.param(None, _NOT_A_NUMBER, id="none"),
        pytest.param(0.5 + 0j, _NOT_A_NUMBER, id="complex"),
        pytest.param(True, _NOT_A_NUMBER, id="bool"),  # written as true, which the parser refuses
        pytest.param(np.float32(0.25), _NOT_A_NUMBER, id="float32"),  # not JSON serializable
        pytest.param(np.int64(1), _NOT_A_NUMBER, id="int64"),  # not JSON serializable
    ],
)
def test_density_table_refuses_what_the_parser_refuses(bad, match):
    # Built, such a table would pass the property checks and be written as a file that the parser refuses.
    graphs = list(enumerate_decomposable(3))
    probs = {g: (bad if k == 2 else 0.25) for k, g in enumerate(graphs)}
    with pytest.raises(DomainError, match=match):
        DensityTable(3, probs)


def test_density_json_round_trip():
    d = normalize_by_enumeration(random_csf(4, seed=8))
    back = density_from_json(density_to_json(d))
    for g, p in d.items():
        assert back.prob(g) == pytest.approx(p, rel=1e-12)


def test_density_parse_peaks_below_four_times_its_text():
    # Parsed as a whole tree first, a dict per entry and a list per edge, it peaked at 10.9 times the text.
    text = density_to_json(normalize_by_enumeration(uniform_csf(6)))  # builds the table that the parser reads
    tracemalloc.start()
    try:
        density = density_from_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(density) == 18154
    assert peak < 4 * len(text), f"peak {peak} bytes for {len(text)} bytes of text"


def test_prob_of_mask_reads_its_mask_as_an_integer():
    # 1.0 and True once found mask 1 by comparison.
    density = normalize_by_enumeration(uniform_csf(3))
    assert density.prob_of_mask(np.int64(1)) == density.prob_of_mask(1) == 0.125
    for mask in (1.0, True, "1", None):
        with pytest.raises(DomainError, match="edge mask .* is not an integer"):
            density.prob_of_mask(mask)


def test_density_json_requires_exact_coverage():
    d = normalize_by_enumeration(uniform_csf(3))
    obj = json.loads(density_to_json(d))
    obj["entries"] = obj["entries"][:-1]
    with pytest.raises(DomainError):
        density_from_json(json.dumps(obj))
    obj2 = json.loads(density_to_json(d))
    obj2["entries"][0]["p"] = 0.9
    with pytest.raises(DomainError):
        density_from_json(json.dumps(obj2))


def test_exp_linear_rule_values():
    assert ExpLinearRule(4.0).log_potential(3) == -12.0
    assert ConstRule(1.25).log_potential(7) == 1.25
    assert QuadraticRule(2.0).log_potential(4) == 12.0
    # A const rule without its value reads as 0.0.
    law = law_from_json('{"n": 2, "phi": {"rule": {"type": "const"}}, "psi": {}}')
    assert law.phi.rule == ConstRule(0.0)


@pytest.mark.parametrize("rule", [ExpLinearRule, ConstRule, QuadraticRule])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rules_reject_non_finite_parameters(rule, value):
    with pytest.raises(DomainError):
        rule(value)


def test_non_finite_rates_are_rejected_where_the_law_is_built():
    with pytest.raises(DomainError):
        hub_law(3, [0], 4.0, math.inf)
    with pytest.raises(DomainError):
        law_from_json('{"n": 3, "phi": {"rule": {"type": "exp_linear", "rate": "nan"}}, "psi": {}}')
    # +inf stays available per set and through the hub mask.
    law = CsfLaw(3, PotentialTable(), PotentialTable(overrides={0: math.inf}))
    assert log_density_unnorm(law, Graph.empty(3)) == -math.inf
    assert log_density_unnorm(hub_law(3, [0]), Graph.empty(3)) == -math.inf


@pytest.mark.parametrize("phi_rate, expected", [(0.0, "inf"), (1e308, "nan")])
def test_overflowing_log_density_is_a_domain_error(phi_rate, expected):
    # The star's separator {0} has multiplicity 2, so at separator rate
    # 1e308 its term 2 * 1e308 overflows to +inf; at clique rate 1e308
    # the cliques' terms have reached -inf first, and the sum is NaN.
    law = hub_law(4, [0], phi_rate, 1e308)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(DomainError, match=f"is {expected}"):
        log_density_unnorm(law, star)
    with pytest.raises(DomainError):
        normalize_by_enumeration(law)
