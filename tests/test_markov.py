import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cliquesep import (
    CapacityError,
    DensityTable,
    DomainError,
    Graph,
    PreconditionError,
    cef_dimension,
    check_property,
    clique_separators,
    complete_sets_graph,
    conditioning_set,
    csf_dimension,
    enumerate_decomposable,
    ewsm_dimension_analysis,
    ewsm_not_wsm_density,
    fit_csf_from_density,
    hub_law,
    induced_subgraph,
    is_connected,
    log_density_unnorm,
    normalize_by_enumeration,
    perturb_density,
    uniform_csf,
    verify_lemma1_identity,
    verify_lemma2_ratio,
    vset,
)
from cliquesep import markov
from cliquesep.graphs import _clique_separator_table, members
from cliquesep.markov import (
    CrossRatioWitness,
    PropertyKind,
    _ewsm_rows,
    _exact_rank,
    _pair_tables,
    _worst_spread,
    ewsm_constraint_column_support,
)
from conftest import random_cef, random_csf

TOL = 1e-9


def wsm_density(n, seed):
    return normalize_by_enumeration(random_csf(n, seed=seed))


# ---------------------------------------------------------------------------
# Property checking


def test_uniform_passes_everything():
    d = normalize_by_enumeration(uniform_csf(4))
    for kind in PropertyKind:
        report = check_property(d, kind)
        assert report.passed and report.worst_violation == 0.0
        assert report.witness is None


@pytest.mark.parametrize("seed", range(5))
def test_factorisation_laws_pass_wsm_and_ewsm(seed):
    d = wsm_density(4, seed)
    for kind in (PropertyKind.WSM, PropertyKind.EWSM):
        report = check_property(d, kind, TOL)
        assert report.passed, (kind, report.worst_violation)


def test_shared_potential_laws_pass_all_three():
    for seed in range(3):
        d = normalize_by_enumeration(random_cef(4, seed=seed))
        for kind in PropertyKind:
            assert check_property(d, kind, TOL).passed, (seed, kind)


def test_generic_factorisation_law_fails_sm():
    d = wsm_density(4, seed=7)
    report = check_property(d, PropertyKind.SM, TOL)
    assert not report.passed
    assert report.worst_violation > 0.1
    assert report.witness is not None


def test_single_coordinate_perturbation_fails_wsm():
    d = wsm_density(4, seed=3)
    single_edge = next(g for g in enumerate_decomposable(4) if g.edge_mask.bit_count() == 1)
    bumped = perturb_density(d, single_edge, 2.0)
    report = check_property(bumped, PropertyKind.WSM, TOL)
    assert not report.passed
    assert report.worst_violation >= 0.1
    # the worst cross-ratio is exactly the bump factor on the log scale
    assert report.worst_violation == pytest.approx(math.log(2.0), abs=1e-9)


def test_no_separating_density_exists_at_three_vertices():
    with pytest.raises(DomainError, match="^no separating density exists at n=3$"):
        ewsm_not_wsm_density(3)


@pytest.mark.parametrize("kind", ["wsm", None, 3])
def test_check_property_rejects_a_kind_that_is_not_a_property_kind(kind):
    # "wsm" once swept the ewsm family and passed a density that PropertyKind.WSM fails.
    d = ewsm_not_wsm_density(4)
    assert check_property(d, PropertyKind.WSM).worst_violation == pytest.approx(math.log(2.0), abs=1e-9)
    with pytest.raises(DomainError, match="is not a PropertyKind"):
        check_property(d, kind)
    with pytest.raises(DomainError, match="is not a PropertyKind"):
        check_property(normalize_by_enumeration(uniform_csf(1)), kind)  # no covering pair at all


@pytest.mark.parametrize("kind", ["wsm", None, 3])
def test_conditioning_set_rejects_a_kind_that_is_not_a_property_kind(kind):
    # It once raised a bare KeyError.
    with pytest.raises(DomainError, match="is not a PropertyKind"):
        conditioning_set(4, vset([0, 1, 2]), vset([2, 3]), kind)


def test_witness_quadruple_reproduces_the_violation():
    d = perturb_density(wsm_density(4, seed=3), Graph.empty(4), 3.0)
    report = check_property(d, PropertyKind.SM)
    w = report.witness
    assert w is not None
    g1, g2, g3, g4 = w.graphs
    value = abs(
        math.log(d.prob(g1)) + math.log(d.prob(g2)) - math.log(d.prob(g3)) - math.log(d.prob(g4))
    )
    assert value == pytest.approx(report.worst_violation, rel=1e-12)
    # the quadruple lies in the claimed conditioning set
    for g in w.graphs:
        assert g in conditioning_set(4, w.a, w.b, PropertyKind.SM)


def test_check_property_requires_full_coverage():
    # A partial table cannot be built, so nothing that reads one re-checks coverage.
    graphs = list(enumerate_decomposable(4))
    with pytest.raises(DomainError, match="exactly the 61 decomposable graphs on 4 vertices"):
        DensityTable(4, {g: 1.0 / 10 for g in graphs[:10]})


def test_partial_density_is_a_domain_error_everywhere():
    graphs = list(enumerate_decomposable(4))
    full = {g: 1.0 / len(graphs) for g in graphs}
    cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    # The empty graph's edge mask, on vertices {0, 1, 2} of four.
    induced = induced_subgraph(graphs[0], vset([0, 1, 2]))
    for probs in (
        {g: 1.0 / 10 for g in graphs[:10]},
        {**full, cycle: 0.0},
        {**full, Graph.empty(3): 0.0},
        {**{g: p for g, p in full.items() if g != graphs[0]}, induced: full[graphs[0]]},
        {**{g: p for g, p in full.items() if g != graphs[0]}, graphs[0].edge_mask: full[graphs[0]]},  # not a Graph
    ):
        with pytest.raises(DomainError):
            DensityTable(4, probs)
    # Brackets outside the table can still reach the lookup: the 4-cycle is the bracket of its edges.
    lp = markov._bracket_log_prob(DensityTable(4, full))
    with pytest.raises(DomainError, match="names no decomposable graph"):
        lp(*(vset(e) for e in cycle.edges()))


def test_zero_mass_graphs_are_ignored_not_fatal():
    # hub support: mass only on graphs whose separators contain vertex 0
    d = normalize_by_enumeration(hub_law(4, vset([0]), 1.0, 0.5))
    report = check_property(d, PropertyKind.WSM, TOL)
    assert report.worst_violation >= 0.0  # runs to completion


# ---------------------------------------------------------------------------
# The packed sweep against the dict-based loop it replaced


def dict_worst_spread(cells):
    """Largest |log cross-ratio| over 2x2 sub-tables of a sparse table.

    ``cells`` maps (row key, column key) to (log probability, graph
    index). For each pair of rows the spread of the column-wise log
    differences equals the worst cross-ratio over that row pair; the
    first strictly larger spread and the first strict extremes in set
    order are kept.
    """
    rows = {}
    for (ga, gb), cell in cells.items():
        rows.setdefault(ga, {})[gb] = cell
    keys = list(rows)
    worst = 0.0
    quad = None
    for i1 in range(len(keys)):
        r1 = rows[keys[i1]]
        for i2 in range(i1 + 1, len(keys)):
            r2 = rows[keys[i2]]
            common = r1.keys() & r2.keys()
            if len(common) < 2:
                continue
            dmax = -math.inf
            dmin = math.inf
            cmax = cmin = -1
            for c in common:
                d = r1[c][0] - r2[c][0]
                if d > dmax:
                    dmax = d
                    cmax = c
                if d < dmin:
                    dmin = d
                    cmin = c
            spread = dmax - dmin
            if spread > worst:
                worst = spread
                quad = (r1[cmax][1], r2[cmin][1], r1[cmin][1], r2[cmax][1])
    return worst, quad


def table_rows(t):
    """The rows of table ``t`` as (graph index, piece on a, piece on b,
    maximal in a, maximal in b)."""
    return list(zip(*(c.tolist() for c in (t.gi, *t.pieces(), *t.families(PropertyKind.WSM)))))


def dict_cells(t, family, logp):
    """The cells of table ``t`` that the row mask ``family`` and a positive
    probability admit."""
    return {
        (ga, gb): (logp[gi], gi)
        for (gi, ga, gb, _, _), keep in zip(table_rows(t), family.tolist())
        if keep and logp[gi] is not None
    }


def dict_check(density, kind):
    """(worst value, witness) of the sweep over ``dict_worst_spread``."""
    graphs, tables = list(enumerate_decomposable(density.n)), _pair_tables(density.n)
    logp = [math.log(density.prob(g)) if density.prob(g) > 0.0 else None for g in graphs]
    worst = 0.0
    witness = None
    for t in tables:
        for family in t.families(kind):
            value, quad = dict_worst_spread(dict_cells(t, family, logp))
            if value > worst:
                worst = value
                witness = CrossRatioWitness(t.a, t.b, tuple(graphs[i] for i in quad), value)
    return worst, witness


def sweep_densities(n):
    """A random positive density; a hub law's, with zero-probability
    graphs; and a uniform one with one graph doubled, whose difference
    columns tie everywhere but at that graph; and one with weights 0, 1
    and 2 in turn, where a row's first cell is often missing, so rows
    first appear out of key order, and many row pairs tie for the worst."""
    graphs = list(enumerate_decomposable(n))
    uniform = DensityTable(n, {g: 1.0 / len(graphs) for g in graphs})
    z = sum(i % 3 for i in range(len(graphs)))  # the cross-ratios do not depend on it
    levels = DensityTable(n, {g: (i % 3) / z for i, g in enumerate(graphs)})
    return {
        "random": wsm_density(n, seed=n),
        "hub": normalize_by_enumeration(hub_law(n, vset([0]), 1.0, 0.5)),
        "bumped-uniform": perturb_density(uniform, graphs[len(graphs) // 3], 2.0),
        "three-level": levels,
    }


@pytest.mark.parametrize("one_row_per_block", [False, True])
@pytest.mark.parametrize("n", range(2, 6))
def test_packed_sweep_matches_dict_loop(n, one_row_per_block, monkeypatch):
    if one_row_per_block:
        monkeypatch.setattr(markov, "_SWEEP_BLOCK", 1)
    graphs, tables = list(enumerate_decomposable(n)), _pair_tables(n)
    witnessed = 0
    for name, density in sweep_densities(n).items():
        logp = [math.log(density.prob(g)) if density.prob(g) > 0.0 else None for g in graphs]
        packed_logp = np.array([math.nan if lp is None else lp for lp in logp])
        for kind in PropertyKind:
            for t in tables:
                piece_a, piece_b = t.pieces()
                for family in t.families(kind):
                    sel = family & ~np.isnan(packed_logp[t.gi])
                    got = _worst_spread(t.gi[sel], piece_a[sel], piece_b[sel], packed_logp, 0.0)
                    expected = dict_worst_spread(dict_cells(t, family, logp))
                    assert got == expected, (name, kind, members(t.a), members(t.b))
                    witnessed += expected[1] is not None
            report = check_property(density, kind)
            assert (report.worst_violation, report.witness) == dict_check(density, kind), (name, kind)
    assert witnessed > 0 or n == 2


# ---------------------------------------------------------------------------
# Conditioning-set combinatorics (five-vertex covering pair)


def test_five_vertex_pair_counts():
    a = vset([0, 1, 3, 4])
    b = vset([1, 2, 3])
    star = conditioning_set(5, a, b, PropertyKind.WSM)
    wa = {induced_subgraph(g, a) for g in star}
    wb = {induced_subgraph(g, b) for g in star}
    assert len(star) == 64
    assert len(wa) == 16
    assert len(wb) == 4

    whole = conditioning_set(5, a, b, PropertyKind.SM)
    # All 32 edge patterns on the left part contain the required edge, but
    # two of them are chordless 4-cycles and cannot occur inside a
    # decomposable host, leaving 30 distinct induced pieces.
    assert len({induced_subgraph(g, a) for g in whole}) == 30
    assert len(whole) == 120

    assert set(star) <= set(whole)
    plus = conditioning_set(5, a, b, PropertyKind.EWSM)
    assert set(plus) <= set(star)


@pytest.mark.parametrize("n", range(2, 6))
def test_decomposition_index_matches_conditioning_sets(n):
    assert_index_matches_conditioning_sets(n)


def assert_index_matches_conditioning_sets(n):
    """The index the sweep filters holds, for every covering pair and
    family, exactly the graphs of the brute-force conditioning set; the
    second clique-in-part filter is the family with the roles swapped."""
    graphs, tables = list(enumerate_decomposable(n)), _pair_tables(n)
    full = (1 << n) - 1
    assert [(t.a, t.b) for t in tables] == [
        (a, b) for a in range(full) for b in range(a + 1, full) if a | b == full
    ]
    for t in tables:
        indices = t.gi.tolist()
        assert all(i < j for i, j in zip(indices, indices[1:])), (members(t.a), members(t.b))
        for kind in PropertyKind:
            passed = [{graphs[gi] for gi in t.gi[family].tolist()} for family in t.families(kind)]
            expected = [set(conditioning_set(n, t.a, t.b, kind))]
            if kind is PropertyKind.WSM:
                expected.append(set(conditioning_set(n, t.b, t.a, kind)))
            assert passed == expected, (members(t.a), members(t.b), kind)


@pytest.mark.parametrize("n", range(2, 7))
def test_cross_edge_mask_joins_the_two_differences(n):
    # The index keeps as candidates only graphs with none of these edges.
    full = (1 << n) - 1
    for a, b in [(a, b) for a in range(full) for b in range(a + 1, full) if a | b == full]:
        brute = Graph(n, [(i, j) for i in members(a & ~b) for j in members(b & ~a)])
        assert markov._cross_edge_mask(n, a, b) == brute.edge_mask, (members(a), members(b))


# ---------------------------------------------------------------------------
# Constructive fit


def test_fit_uniform_three_vertices():
    d = normalize_by_enumeration(uniform_csf(3))
    law = fit_csf_from_density(d)
    for mask in range(8):
        assert law.phi.log_potential(mask) == pytest.approx(math.log(1 / 8), rel=1e-12)
    for v in range(3):
        assert law.psi.log_potential(1 << v) == pytest.approx(math.log(1 / 8), rel=1e-12)
    path = complete_sets_graph(3, [vset([0, 1]), vset([1, 2])])
    assert math.exp(log_density_unnorm(law, path)) == pytest.approx(1 / 8, rel=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_fit_reconstructs_density(seed):
    d = wsm_density(4, seed=seed + 100)
    law = fit_csf_from_density(d)
    redone = normalize_by_enumeration(law)
    worst = max(abs(redone.prob(g) - p) / p for g, p in d.items())
    assert worst < 1e-9


def test_fit_has_proportionality_constant_one():
    d = wsm_density(4, seed=42)
    law = fit_csf_from_density(d)
    for g, p in d.items():
        assert math.exp(log_density_unnorm(law, g)) == pytest.approx(p, rel=1e-9)


def test_fit_requires_full_support():
    d = normalize_by_enumeration(hub_law(4, vset([0])))
    with pytest.raises(DomainError):
        fit_csf_from_density(d)


def test_fit_requires_probabilities_that_sum_to_one():
    # Eight graphs of weight one each: a fit of them would be off by a factor of eight.
    with pytest.raises(DomainError, match="probabilities sum to 8.0, not 1"):
        DensityTable(3, {g: 1.0 for g in enumerate_decomposable(3)})


# ---------------------------------------------------------------------------
# Identity checks


def test_product_identity_single_clique():
    d = wsm_density(4, seed=5)
    assert verify_lemma1_identity(d, Graph.complete(4)) < 1e-12


def test_product_identity_two_cliques():
    d = wsm_density(4, seed=6)
    g = complete_sets_graph(4, [vset([0, 1, 2]), vset([2, 3])])
    assert verify_lemma1_identity(d, g) < 1e-10


@pytest.mark.parametrize("seed", range(2))
def test_product_identity_all_graphs(seed):
    d = wsm_density(4, seed=seed + 12)
    for g in enumerate_decomposable(4):
        assert verify_lemma1_identity(d, g) < TOL, g


def test_product_identity_breaks_off_family():
    d = perturb_density(wsm_density(4, seed=3), Graph(4, [(0, 1)]), 2.0)
    assert max(verify_lemma1_identity(d, g) for g in enumerate_decomposable(4)) > TOL


def test_ratio_invariance():
    d = wsm_density(4, seed=17)
    assert verify_lemma2_ratio(d, vset([0])) < TOL
    d3 = wsm_density(3, seed=17)
    assert verify_lemma2_ratio(d3, 0) < TOL


def test_ratio_invariance_breaks_off_family():
    d = wsm_density(4, seed=17)
    single_edge = next(g for g in enumerate_decomposable(4) if g.edge_mask.bit_count() == 1)
    bumped = perturb_density(d, single_edge, 2.0)
    worst = max(verify_lemma2_ratio(bumped, s) for s in range(16) if (15 & ~s).bit_count() >= 2)
    assert worst > TOL


def test_ratio_invariance_domain():
    d = wsm_density(3, seed=1)
    with pytest.raises(DomainError):
        verify_lemma2_ratio(d, vset([0, 1]))


@pytest.mark.parametrize("s", [16, 0b10001, -1])
def test_ratio_invariance_rejects_a_separator_past_the_vertex_set(s):
    # 16 at n=4 once bled into the next row's edge bits and named no graph.
    d = normalize_by_enumeration(uniform_csf(4))
    with pytest.raises(DomainError, match=r"^(separator contains vertices outside the graph: \[4\]|negative separator -1)$"):
        verify_lemma2_ratio(d, s)


@pytest.mark.parametrize("g", [Graph.complete(3), Graph.complete(5)])
def test_product_identity_rejects_a_graph_of_another_size(g):
    # The triangle once scored 0.0 against the n=4 density.
    d = normalize_by_enumeration(uniform_csf(4))
    with pytest.raises(DomainError, match=f"graph on {g.n} vertices under a density on 4"):
        verify_lemma1_identity(d, g)


def test_product_identity_rejects_an_induced_subgraph():
    # Its edges on all four vertices make another graph; it once scored 0.0.
    part = induced_subgraph(Graph.complete(4), vset([0, 1, 2]))
    with pytest.raises(DomainError, match=r"vertices \[3\] inactive"):
        verify_lemma1_identity(normalize_by_enumeration(uniform_csf(4)), part)


# ---------------------------------------------------------------------------
# Constraint-system analysis


def test_dimension_analysis_at_four_vertices():
    analysis = ewsm_dimension_analysis(4)
    assert analysis.num_constraints_bound == 24
    assert analysis.rank <= 24
    assert analysis.free_dimension_bound == 60 - analysis.rank
    assert analysis.free_dimension_bound >= 36
    assert analysis.csf_dimension == 21


# (constraints, rank, free dimension, factorisation dimension) by n; n=6
# gives (59085, 17760, 393, 113) and runs in CI, after a 2-4 s index build.
_EWSM_DIMENSIONS = {2: (0, 0, 1, 1), 3: (0, 0, 7, 7), 4: (24, 24, 36, 21), 5: (1275, 695, 126, 51)}


@pytest.mark.parametrize("n", sorted(_EWSM_DIMENSIONS))
def test_dimension_analysis_at_every_size(n):
    a = ewsm_dimension_analysis(n)
    assert (a.num_constraints_bound, a.rank, a.free_dimension_bound, a.csf_dimension) == _EWSM_DIMENSIONS[n]
    # No constraints below n=4, so the free dimension is the factorisation
    # dimension there; from n=4 it is larger.
    assert (a.free_dimension_bound > a.csf_dimension) == (n >= 4)


def test_dimension_analysis_past_the_limit_builds_nothing(monkeypatch):
    def no_index(n):
        raise AssertionError(f"index built for n={n}")

    monkeypatch.setattr(markov, "_pair_tables", no_index)
    with pytest.raises(CapacityError):
        ewsm_dimension_analysis(markov.EWSM_RANK_LIMIT + 1)


def test_dimension_analysis_rejects_a_table_that_is_not_a_full_grid(monkeypatch):
    # Drop one cell from the first ewsm table of at least four cells, a 3x3
    # table at n=4: 8 cells remain over the same rows and columns.
    tables = _pair_tables(4)
    k, t = next((k, t) for k, t in enumerate(tables) if t.families(PropertyKind.EWSM)[0].sum() >= 4)
    drop = np.flatnonzero(t.families(PropertyKind.EWSM)[0])[0]
    cut = dataclasses.replace(t, gi=t.gi[np.arange(len(t.gi)) != drop])
    mutated = tables[:k] + (cut,) + tables[k + 1 :]
    monkeypatch.setattr(markov, "_pair_tables", lambda n: mutated)
    with pytest.raises(PreconditionError, match=re.escape(f"({members(t.a)}, {members(t.b)})")):
        ewsm_dimension_analysis(4)


def test_cached_pair_tables_are_read_only():
    for t in _pair_tables(4):
        assert [f.name for f in dataclasses.fields(t)] == ["a", "b", "gi"]
        assert t.gi.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            t.gi[:1] = 0


def test_every_factorisation_density_satisfies_the_constraints():
    rows = list(_ewsm_rows(4))
    graphs = list(enumerate_decomposable(4))
    for seed in range(3):
        d = wsm_density(4, seed=seed + 50)
        logs = [math.log(d.prob(g)) for g in graphs]
        assert max(abs(sum(v * logs[c] for c, v in row.items())) for row in rows) < 1e-9


def dict_constraint_rows(n, kind=PropertyKind.EWSM):
    """The anchored constraint rows of family ``kind`` as {graph index:
    coefficient} dicts, built cell by cell: the oracle for ``_ewsm_rows``.
    Every conditioning table must be a full grid, so that the anchored rows
    span all its 2x2 cross-ratio constraints."""
    rows = []
    for t in _pair_tables(n):
        for family in t.families(kind):
            cells = {(ga, gb): gi for (gi, ga, gb, _, _), keep in zip(table_rows(t), family.tolist()) if keep}
            row_keys = sorted({ga for ga, _ in cells})
            col_keys = sorted({gb for _, gb in cells})
            assert len(cells) == len(row_keys) * len(col_keys), (kind, members(t.a), members(t.b))
            if len(row_keys) < 2 or len(col_keys) < 2:
                continue
            x0, y0 = row_keys[0], col_keys[0]
            for x in row_keys[1:]:
                for y in col_keys[1:]:
                    row = {}
                    for idx, coef in (
                        (cells[(x, y)], 1),
                        (cells[(x0, y0)], 1),
                        (cells[(x, y0)], -1),
                        (cells[(x0, y)], -1),
                    ):
                        row[idx] = row.get(idx, 0) + coef
                    rows.append(row)
    return rows


def dense_rows(rows, cols):
    """The rows as a dense list of lists over the columns ``cols``."""
    return [[row.get(c, 0) for c in cols] for row in rows]


def fraction_rank(matrix):
    """Rank of a dense list-of-lists integer matrix by Gaussian elimination
    over ``Fraction``s: the oracle for the sparse ``_exact_rank``."""
    mat = [[Fraction(v) for v in row] for row in matrix]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    rank = 0
    col = 0
    while rank < nrows and col < ncols:
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = 1 / prow[col]
        for r in range(rank + 1, nrows):
            factor = mat[r][col] * inv
            if factor:
                mrow = mat[r]
                for c in range(col, ncols):
                    mrow[c] -= factor * prow[c]
        rank += 1
        col += 1
    return rank


@pytest.mark.parametrize("n", range(2, 6))
def test_constraint_matrix_matches_dict_rows(n):
    rows = dict_constraint_rows(n)
    assert len(rows) == {2: 0, 3: 0, 4: 24, 5: 1275}[n]
    assert list(_ewsm_rows(n)) == rows
    assert ewsm_constraint_column_support(n) == {c for row in rows for c, v in row.items() if v}


@pytest.mark.parametrize("n, prefix", [(2, None), (3, None), (4, None), (5, 300)])
def test_sparse_rank_matches_fraction_elimination(n, prefix):
    # Columns no row touches add nothing to the rank, so the oracle skips them.
    rows = dict_constraint_rows(n)[:prefix]
    assert _exact_rank(rows) == fraction_rank(dense_rows(rows, sorted({c for row in rows for c in row})))


def test_sparse_rank_matches_numpy_rank_at_five_vertices():
    matrix = np.array(dense_rows(dict_constraint_rows(5), range(len(list(enumerate_decomposable(5))))), dtype=float)
    assert matrix.shape == (1275, 822)
    assert _exact_rank(_ewsm_rows(5)) == np.linalg.matrix_rank(matrix) == 695


# Constraint rows of each family by n, from 3 to 5.
_CONSTRAINT_ROWS = {PropertyKind.WSM: (0, 84, 4280), PropertyKind.SM: (3, 141, 5105)}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", [PropertyKind.WSM, PropertyKind.SM])
def test_constraint_kernel_is_the_factorisation_family(n, kind):
    # A positive density has the property iff its log-probabilities lie in
    # the kernel of the family's constraint rows. Each law of the family
    # has log-probabilities in the column space of the basis: [T+, T-, 1]
    # for the clique-separator factorisations (wsm), [T+ + T-, 1] for the
    # clique exponential family (sm), where T has +1 for each clique and
    # minus the multiplicity for each separator. (a) The kernel holds the
    # column space, and (b) and (c) give both the same dimension, so they
    # are equal: Green & Thomas's theorem at this n, for every density at once.
    table = _clique_separator_table(n)
    t = np.zeros((len(table.masks), 1 << n), dtype=np.int64)
    t[table.gi, table.sets] = table.coef
    plus, minus, ones = np.maximum(t, 0), np.minimum(t, 0), np.ones((len(t), 1), dtype=np.int64)
    if kind is PropertyKind.WSM:
        basis, dimension = np.hstack([plus, minus, ones]), csf_dimension(n) + 1
    else:
        basis, dimension = np.hstack([plus + minus, ones]), cef_dimension(n) + 1
    rows = dict_constraint_rows(n, kind)
    assert len(rows) == _CONSTRAINT_ROWS[kind][n - 3]
    for row in rows:  # (a), exactly, in integers
        assert not sum(v * basis[c] for c, v in row.items()).any()
    assert fraction_rank(basis.T.tolist()) == dimension  # (b)
    assert len(t) - _exact_rank(rows) == dimension  # (c)


def test_sparse_rank_rejects_a_pivot_other_than_one():
    # The second row reduces to {0: 2} against the first.
    with pytest.raises(PreconditionError):
        _exact_rank([{0: 1, 1: 1}, {0: 1, 1: -1}])
    assert _exact_rank([{0: 1, 1: 1}, {0: 1}, {0: 0, 1: 2}]) == 2


def test_constraints_ignore_connected_graphs_with_few_cliques():
    used = ewsm_constraint_column_support(4)
    graphs = list(enumerate_decomposable(4))
    for idx, g in enumerate(graphs):
        cl, _ = clique_separators(g)
        if is_connected(g) and len(cl) <= 2:
            assert idx not in used, g


def test_separating_density_exists():
    d = ewsm_not_wsm_density(4)
    assert check_property(d, PropertyKind.EWSM, TOL).passed
    report = check_property(d, PropertyKind.WSM, TOL)
    assert not report.passed
    assert report.worst_violation > 1e-3


def test_property_monotonicity_on_random_laws():
    # conditioning sets nest, so passing a stronger property implies the weaker
    for seed in range(3):
        d = normalize_by_enumeration(random_cef(4, seed=seed + 71))
        results = {kind: check_property(d, kind, TOL).passed for kind in PropertyKind}
        if results[PropertyKind.SM]:
            assert results[PropertyKind.WSM]
        if results[PropertyKind.WSM]:
            assert results[PropertyKind.EWSM]
