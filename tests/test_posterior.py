import math

import numpy as np
import pytest

from cliquesep import (
    DomainError,
    Graph,
    bernoulli_dirichlet_score,
    check_property,
    clique_separators,
    hub_law,
    load_binary_csv,
    normalize_by_enumeration,
    posterior_law,
    uniform_csf,
    vset,
)
from cliquesep.markov import PropertyKind
from conftest import random_csf


class FlatScore:
    n = 99

    def log_marginal(self, mask):
        return 0.0


class BadScore:
    def log_marginal(self, mask):
        return math.inf if mask else 0.0


def synthetic_rows(n, rows, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(rows, n)).tolist()


def bayes_oracle(prior_density, score):
    """Graph-by-graph posterior through the factorised likelihood."""
    raw = {}
    for g, p in prior_density.items():
        cl, seps = clique_separators(g)
        loglik = sum(score.log_marginal(c) for c in cl) - sum(
            mult * score.log_marginal(s) for s, mult in seps.items()
        )
        raw[g] = p * math.exp(loglik)
    z = math.fsum(sorted(raw.values()))
    return {g: w / z for g, w in raw.items()}


def test_flat_likelihood_is_identity():
    prior = random_csf(4, seed=1)
    post = posterior_law(prior, FlatScore())
    a = normalize_by_enumeration(prior)
    b = normalize_by_enumeration(post)
    for g, p in a.items():
        assert b.prob(g) == pytest.approx(p, rel=1e-12)


def test_non_finite_score_raises():
    prior = uniform_csf(3)
    post = posterior_law(prior, BadScore())
    with pytest.raises(DomainError):
        normalize_by_enumeration(post)


def test_single_observation_singleton_evidence():
    score = bernoulli_dirichlet_score([[1, 0]], alpha=1.0)
    assert math.exp(score.log_marginal(vset([0]))) == pytest.approx(0.5, rel=1e-12)
    assert score.log_marginal(0) == 0.0


def test_row_exchangeability():
    rows = synthetic_rows(4, 30, seed=3)
    a = bernoulli_dirichlet_score(rows, alpha=0.7)
    b = bernoulli_dirichlet_score(list(reversed(rows)), alpha=0.7)
    for mask in range(16):
        assert a.log_marginal(mask) == pytest.approx(b.log_marginal(mask), abs=1e-12)


def test_score_input_validation():
    with pytest.raises(DomainError):
        bernoulli_dirichlet_score([], alpha=1.0)
    with pytest.raises(DomainError):
        bernoulli_dirichlet_score([[0, 1]], alpha=0.0)
    with pytest.raises(DomainError):
        bernoulli_dirichlet_score([[0, 2]], alpha=1.0)
    with pytest.raises(DomainError):
        bernoulli_dirichlet_score([[0, 1], [0]], alpha=1.0)


def test_data_values_and_masks_are_read_as_integers():
    # A float datum failed in a shift and True read as 1; a cached mask answered 1.0 and True as mask 1.
    for value in (1.0, True, "1", None):
        with pytest.raises(DomainError, match="row 0 column 0: values must be 0 or 1"):
            bernoulli_dirichlet_score([[value, 0]])
    rows = bernoulli_dirichlet_score([[np.int64(1), 0]])._rows
    assert rows == [1] and type(rows[0]) is int
    score = bernoulli_dirichlet_score([[1, 0], [0, 1]])
    evidence = score.log_marginal(1)
    for mask in (1.0, True):
        with pytest.raises(DomainError, match="is not an integer"):
            score.log_marginal(mask)
    assert score.log_marginal(np.int64(1)) == evidence


@pytest.mark.parametrize("n,seed", [(3, 5), (4, 6)])
def test_conjugate_update_matches_bayes_oracle(n, seed):
    prior = random_csf(n, seed=seed)
    score = bernoulli_dirichlet_score(synthetic_rows(n, 40, seed), alpha=1.0)
    post_density = normalize_by_enumeration(posterior_law(prior, score))
    oracle = bayes_oracle(normalize_by_enumeration(prior), score)
    for g, expected in oracle.items():
        assert post_density.prob(g) == pytest.approx(expected, rel=1e-9)


def test_posterior_composes():
    prior = uniform_csf(3)
    s1 = bernoulli_dirichlet_score(synthetic_rows(3, 20, seed=8), alpha=1.0)
    s2 = bernoulli_dirichlet_score(synthetic_rows(3, 15, seed=9), alpha=2.0)

    class Product:
        def log_marginal(self, mask):
            return s1.log_marginal(mask) + s2.log_marginal(mask)

    stepwise = normalize_by_enumeration(posterior_law(posterior_law(prior, s1), s2))
    joint = normalize_by_enumeration(posterior_law(prior, Product()))
    for g, p in joint.items():
        assert stepwise.prob(g) == pytest.approx(p, rel=1e-10)


def test_posterior_preserves_hard_support():
    prior = hub_law(4, vset([0]), 1.0, 0.5)
    score = bernoulli_dirichlet_score(synthetic_rows(4, 25, seed=10), alpha=1.0)
    prior_density = normalize_by_enumeration(prior)
    post_density = normalize_by_enumeration(posterior_law(prior, score))
    for g, p in prior_density.items():
        assert (p > 0) == (post_density.prob(g) > 0)


def test_posterior_of_factorisation_prior_stays_in_family():
    prior = random_csf(4, seed=11)
    score = bernoulli_dirichlet_score(synthetic_rows(4, 30, seed=12), alpha=1.0)
    post_density = normalize_by_enumeration(posterior_law(prior, score))
    assert check_property(post_density, PropertyKind.WSM, 1e-9).passed


def test_independent_columns_disfavour_joins():
    # strongly independent columns: mass moves away from the complete graph
    rng = np.random.default_rng(13)
    rows = rng.integers(0, 2, size=(400, 3)).tolist()
    score = bernoulli_dirichlet_score(rows, alpha=1.0)
    post = normalize_by_enumeration(posterior_law(uniform_csf(3), score))
    assert post.prob(Graph.empty(3)) > post.prob(Graph.complete(3))


def test_load_binary_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n0,1,0\n1,1,1\n")
    with pytest.raises(DomainError):
        load_binary_csv(str(path))
    rows = load_binary_csv(str(path), skip_header=True)
    assert rows == [[0, 1, 0], [1, 1, 1]]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DomainError):
        load_binary_csv(str(empty))


@pytest.mark.parametrize("content", [b"\xff\xfe", b"0" * 200_000 + b"\n"], ids=["undecodable", "field-past-csv-limit"])
def test_unreadable_csv_is_a_domain_error(tmp_path, content):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(DomainError, match="not a CSV file"):
        load_binary_csv(str(path))


@pytest.mark.parametrize("alpha, ncols", [(1e308, 2), (1e305, 2), (1e305, 11), (1.0, 1024)])
def test_overflowing_concentration_is_a_domain_error(alpha, ncols):
    # lgamma overflows on alpha itself, then only on the 2^|A| cells times
    # alpha, then the cells times alpha is inf and the difference of two
    # lgammas NaN; 2^1024 cells are past float range whatever alpha is.
    data = [[0] * ncols, [1] * ncols]
    with pytest.raises(DomainError, match="overflows"):
        bernoulli_dirichlet_score(data, alpha=alpha).log_marginal((1 << ncols) - 1)
    assert math.isfinite(bernoulli_dirichlet_score(data, alpha=1e300).log_marginal(0b11))


@pytest.mark.parametrize("alpha", [1e6, 1e12, 1e16, 1e300])
def test_log_evidence_keeps_its_digits_at_large_concentration(alpha):
    # Two rows in two of the four cells: lgamma(4a) - lgamma(4a + 2) + 2 [lgamma(a + 1) - lgamma(a)],
    # which is -2 log 4 - log1p(1 / 4a), two terms of one sign.
    exact = -2 * math.log(4) - math.log1p(1 / (4 * alpha))
    value = bernoulli_dirichlet_score([[0, 1], [1, 0]], alpha=alpha).log_marginal(0b11)
    assert value == pytest.approx(exact, rel=1e-12, abs=0)


def test_log_evidence_is_continuous_where_its_form_changes():
    # 40 rows over 3 columns: the lgamma form holds up to 8 alpha = 2^12 * 40.
    rows = synthetic_rows(3, 40, seed=3)
    edge = 4096 * 40 / 8
    below = bernoulli_dirichlet_score(rows, alpha=edge).log_marginal(0b111)
    above = bernoulli_dirichlet_score(rows, alpha=math.nextafter(edge, math.inf)).log_marginal(0b111)
    assert above == pytest.approx(below, rel=1e-11, abs=0)


def compressed_log_marginal(rows, alpha, mask):
    """The evidence as :class:`BernoulliDirichletScore` once computed it: each row's
    bits at the set's vertices compressed into a cell index, counted in first-seen order."""
    positions = [v for v in range(mask.bit_length()) if mask >> v & 1]
    counts = {}
    for row in rows:
        cell = sum(row[v] << k for k, v in enumerate(positions))
        counts[cell] = counts.get(cell, 0) + 1
    ncells = float(2 ** len(positions))
    x, n = ncells * alpha, len(rows)
    if x <= 4096 * n:
        value = math.lgamma(x) - math.lgamma(x + n)
        base = math.lgamma(alpha)
        for c in counts.values():
            value += math.lgamma(alpha + c) - base
        return value
    terms = [math.log1p(k / alpha) for c in counts.values() for k in range(c)]
    terms += [-math.log1p(k / x) for k in range(n)]
    return math.fsum(terms) - n * math.log(ncells)


@pytest.mark.parametrize("n, rows, seed", [(1, 1, 1), (2, 3, 2), (4, 17, 4), (5, 100, 5), (7, 1000, 7), (8, 250, 8)])
def test_cell_counts_by_masked_row_match_the_compressed_cells(n, rows, seed):
    # Every term of either form is added in the same order, so the values are equal to the last bit.
    # With 2^k cells, the lgamma form holds up to 2^k alpha = 4096 rows: alpha 1e6 takes both forms
    # at 1000 rows, and 1e12 only the log1p form.
    data = synthetic_rows(n, rows, seed)
    for alpha in (0.3, 1.0, 7.5, 1e6, 1e12):
        score = bernoulli_dirichlet_score(data, alpha=alpha)
        for mask in range(1, 1 << n):
            assert score.log_marginal(mask) == compressed_log_marginal(data, alpha, mask), (alpha, mask)
