"""Conjugate posterior updating under decomposable marginal likelihoods.

When the data distribution factorises over cliques and separators of the
graph, multiplying each potential by the marginal evidence of its vertex
set turns a prior factorisation law into the posterior one, with the
support unchanged. The concrete likelihood here scores binary data
columns by Dirichlet-multinomial evidence, which is exact, closed-form
and factorises as required.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from typing import Sequence

from .errors import DomainError
from .graphs import _check_subset, _index, members
from .laws import CsfLaw, _as_float


class BernoulliDirichletScore:
    """Log marginal evidence of binary columns under a symmetric Dirichlet.

    For a vertex set A, the 2^|A|-cell contingency table of the columns
    in A is scored with a symmetric Dirichlet(alpha per cell) prior. The
    empty set scores zero, and results are cached per subset.

    With K = 2^|A| cells, N rows and cell counts c, the evidence is
    lgamma(K alpha) - lgamma(K alpha + N) + sum_c [lgamma(alpha + c) -
    lgamma(alpha)]. Each difference of lgammas loses digits as alpha
    grows: its relative error is about 2^-52 K alpha / N. Up to K alpha
    = 2^12 N, where that error is about 2^-40 (1e-12), the lgamma form
    is used; past it, the same value written without cancellation,
    because the counts sum to N: -N log K + sum_c sum_{k<c} log1p(k /
    alpha) - sum_{k<N} log1p(k / (K alpha)).
    """

    def __init__(self, data: Sequence[Sequence[int]], alpha: float = 1.0):
        rows = [list(r) for r in data]
        if not rows:
            raise DomainError("data must have at least one row")
        alpha = _as_float(alpha, "concentration")
        if alpha <= 0.0 or not math.isfinite(alpha):
            raise DomainError(f"concentration must be positive, got {alpha}")
        ncols = len(rows[0])
        if ncols < 1:
            raise DomainError("data must have at least one column")
        packed = []
        for r, row in enumerate(rows):
            if len(row) != ncols:
                raise DomainError(f"row {r} has {len(row)} values, expected {ncols}")
            mask = 0
            for c, value in enumerate(row):
                value = _index(value, None)  # nan for a bool, a float or anything else
                if value not in (0, 1):
                    raise DomainError(f"row {r} column {c}: values must be 0 or 1")
                mask |= value << c
            packed.append(mask)
        self.n = ncols
        self.alpha = alpha
        self.num_rows = len(packed)
        self._rows = packed
        self._cache: dict[int, float] = {0: 0.0}

    def log_marginal(self, mask: int) -> float:
        mask = _check_subset(mask, (1 << self.n) - 1, "vertex set")  # before the cache, where 1.0 == 1
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        # ``row & mask`` names a cell, and the counts keep their first-seen order.
        counts = Counter(row & mask for row in self._rows)
        alpha, rows = self.alpha, self.num_rows
        try:
            ncells = float(2 ** mask.bit_count())
            x = ncells * alpha
            top = math.lgamma(x + rows)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):  # past the lgamma form's range, which both forms keep as their domain
            raise DomainError(f"concentration {alpha!r} overflows the log evidence of vertex set {members(mask)}")
        if x <= 4096 * rows:
            value = math.lgamma(x) - top
            base = math.lgamma(alpha)
            for c in counts.values():
                value += math.lgamma(alpha + c) - base
        else:
            terms = [math.log1p(k / alpha) for c in counts.values() for k in range(c)]
            terms += [-math.log1p(k / x) for k in range(rows)]
            value = math.fsum(terms) - rows * math.log(ncells)
        self._cache[mask] = value
        return value


def bernoulli_dirichlet_score(data: Sequence[Sequence[int]], alpha: float = 1.0) -> BernoulliDirichletScore:
    """Build the Dirichlet-multinomial evidence evaluator for binary data."""
    return BernoulliDirichletScore(data, alpha)


def posterior_law(prior: CsfLaw, score) -> CsfLaw:
    """Posterior factorisation law: every potential is multiplied by the
    marginal evidence of its vertex set; infinite separator potentials
    (hard constraints) are preserved, so the support is unchanged."""
    fn = score.log_marginal
    return CsfLaw(prior.n, prior.phi.with_extra(fn), prior.psi.with_extra(fn))


def load_binary_csv(path: str, skip_header: bool = False) -> list[list[int]]:
    """Read 0/1 data, one observation per row, columns indexed 0..n-1."""
    rows: list[list[int]] = []
    with open(path, newline="") as fh:
        try:
            lines = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as e:
            raise DomainError(f"{path}: not a CSV file: {e}") from e
    for i, row in enumerate(lines):
        if skip_header and i == 0:
            continue
        if not row:
            continue
        try:
            rows.append([int(tok) for tok in row])
        except ValueError as e:
            raise DomainError(f"line {i + 1}: values must be integers") from e
    if not rows:
        raise DomainError(f"no data rows in {path}")
    return rows
