"""Exhaustive verification of structural Markov properties at desk scale.

Conditional independence of the two induced pieces of a covering pair is
an exact algebraic statement about a finite probability table, so it is
tested through log cross-ratios: for a genuinely independent table every
2x2 sub-table has cross-ratio one. The same sweep over covering pairs
serves the three nested conditioning families (all decompositions;
those whose intersection is a clique of the first part; those whose
intersection is a clique of the whole graph), because membership flags
and the induced-piece partition are precomputed per pair.

Each pair's decompositions are packed as numpy columns (graph index,
the two induced pieces, the two maximality flags), and each
conditioning family is a boolean mask over those rows. Only the tables
are cached. Since a covering pair's parts cover every vertex, ``a & b``
separates them only if no edge joins ``a`` minus ``b`` to ``b`` minus
``a`` (Lauritzen 1996, section 2.1), so for each pair one vectorised
test over the edge masks of the cached clique/separator table of n
vertices picks the candidates, and ``is_decomposition`` decides each
of them, on graphs built from that table's edge masks and adjacency
rows and dropped after the build; the pieces and flags of those that
pass come from the table's arrays at once. A witness's graphs come from
their edge masks.
The sweep drops the graphs of probability zero from a family's rows and
lays the rest out as a dense grid of log probabilities, NaN where a
cell is missing, with rows in order of first appearance. The spread of
the differences of two rows over their common columns is the worst log
cross-ratio over that row pair, and all row pairs are taken at once, in
blocks. Ties break as a scalar loop over the rows in that order would
break them: the first largest spread over row pairs, then the first
strict extremes of the difference in the set order of the two rows'
common column keys, which only the winning row pair of a table that
beats the running worst is scanned for. The log probabilities are
``math.log`` values and the differences are taken in one order, so the
worst value is the same to the last bit.

Also here: the constructive fit of a factorisation law from any positive
density satisfying the clique-in-part property, identity checkers for
the telescoping product over a junction-tree ordering and for the
two-clique ratio, and the exact rank of the constraint system of the
weakest conditioning family, sparse rows of four +1/-1 entries: at
n = 2..6 rank 0, 0, 24, 695 and 17,760 leaves 1, 7, 36, 126 and 393
free dimensions against factorisation-law dimensions of 1, 7, 21, 51, 113.
The fit and both checkers read every probability as that of a bracket
graph <R1, ..., Rk>, whose edges make each Ri complete and are nothing
else, through one lookup by edge mask.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError, PreconditionError
from .graphs import (
    Graph,
    _clique_separator_table,
    cliques,
    enumerate_decomposable,
    in_U_plus,
    in_U_star,
    is_decomposition,
    members,
    pluperfect_order,
    within_edge_mask,
)
from .laws import (
    CsfLaw,
    DensityTable,
    PotentialTable,
    _check_on_all_vertices,
    csf_dimension,
    normalize_by_enumeration,
    perturb_density,
    uniform_csf,
)


class PropertyKind(enum.Enum):
    """Which conditioning family backs the independence requirement."""

    SM = "sm"  # all decompositions of the covering pair
    WSM = "wsm"  # intersection is additionally a clique of one part
    EWSM = "ewsm"  # intersection is additionally a clique of the whole graph


@dataclass(frozen=True)
class CrossRatioWitness:
    """Worst 2x2 sub-table found: graphs at (x,y), (x',y'), (x,y'), (x',y)."""

    a: int
    b: int
    graphs: tuple[Graph, Graph, Graph, Graph]
    value: float


@dataclass(frozen=True)
class PropertyReport:
    kind: PropertyKind
    passed: bool
    worst_violation: float
    witness: CrossRatioWitness | None


def conditioning_set(n: int, a: int, b: int, kind: PropertyKind) -> list[Graph]:
    """Decomposable graphs on n vertices in the conditioning set of (a, b).

    For the clique-in-part family the maximality requirement applies to
    the subgraph induced on ``a`` (the first argument).
    """
    pred = {
        PropertyKind.SM: is_decomposition,
        PropertyKind.WSM: in_U_star,
        PropertyKind.EWSM: in_U_plus,
    }[kind]
    return [g for g in enumerate_decomposable(n) if pred(g, a, b)]


@dataclass(frozen=True, eq=False)
class _PairTable:
    """The decompositions of one covering pair, packed as numpy columns.

    Row k is one decomposable graph, in ascending graph index: its index,
    its induced edge masks on ``a`` and on ``b``, and whether the
    intersection is a maximal clique of the graph induced on ``a`` and
    on ``b``. The columns are read-only, since the tables are cached.
    """

    a: int
    b: int
    gi: np.ndarray
    piece_a: np.ndarray
    piece_b: np.ndarray
    star_a: np.ndarray
    star_b: np.ndarray

    def __post_init__(self):
        for column in (self.gi, self.piece_a, self.piece_b, self.star_a, self.star_b):
            column.flags.writeable = False

    def families(self, kind: PropertyKind) -> tuple[np.ndarray, ...]:
        """Boolean row masks of the conditioning sets of ``kind``: every row
        for SM; for WSM the intersection maximal in ``a``, then in ``b``
        (the definition quantifies over ordered pairs); for EWSM both."""
        if kind is PropertyKind.SM:
            return (np.ones(len(self.gi), dtype=bool),)
        if kind is PropertyKind.WSM:
            return (self.star_a, self.star_b)
        return (self.star_a & self.star_b,)


def _maximal_within(adj: np.ndarray, s: int, part: int) -> np.ndarray:
    """Row-wise ``graphs._is_maximal_within``: for each graph, given by its
    row of adjacency masks in ``adj``, whether no vertex of ``part``
    outside ``s`` is adjacent to all of ``s``."""
    extends = np.zeros(len(adj), dtype=bool)
    for v in members(part & ~s):
        extends |= adj[:, v] & s == s
    return ~extends


def _cross_edge_mask(n: int, a: int, b: int) -> int:
    """Edge mask of every edge joining ``a`` minus ``b`` to ``b`` minus ``a``,
    for a covering pair: the edges that are within neither part."""
    return within_edge_mask(n, a | b) & ~within_edge_mask(n, a) & ~within_edge_mask(n, b)


@lru_cache(maxsize=4)
def _pair_tables(n: int) -> tuple[_PairTable, ...]:
    t = _clique_separator_table(n)
    full = (1 << n) - 1
    graphs = [Graph._from_parts(n, full, tuple(row), m) for row, m in zip(t.adj.tolist(), t.masks)]
    edge_masks = np.frombuffer(t.masks, dtype=np.int64)
    tables = []
    for a, b in [(a, b) for a in range(full) for b in range(a + 1, full) if a | b == full]:
        # Only graphs with no edge across the parts can be separated by a & b.
        candidates = np.flatnonzero(edge_masks & _cross_edge_mask(n, a, b) == 0).tolist()
        gi = np.array([k for k in candidates if is_decomposition(graphs[k], a, b)], dtype=np.intp)
        rows = t.adj[gi]
        tables.append(
            _PairTable(
                a,
                b,
                gi,
                edge_masks[gi] & within_edge_mask(n, a),
                edge_masks[gi] & within_edge_mask(n, b),
                _maximal_within(rows, a & b, a),
                _maximal_within(rows, a & b, b),
            )
        )
    return tuple(tables)


#: Elements of one broadcast block of the sweep (2 MiB of float64).
_SWEEP_BLOCK = 1 << 18


def _worst_spread(gi: np.ndarray, piece_a: np.ndarray, piece_b: np.ndarray, logp: np.ndarray, beat: float):
    """Largest |log cross-ratio| over the 2x2 sub-tables of a sparse table.

    The cells are given in table order: graph ``gi[k]`` sits in the row
    keyed by ``piece_a[k]`` and the column keyed by ``piece_b[k]``, with
    log probability ``logp[gi[k]]``. Rows are laid out in order of first
    appearance in a dense grid, NaN where a cell is missing. For each
    pair of rows the spread of the column-wise log differences over
    their common columns equals the worst cross-ratio over that row
    pair; one common column gives a spread of exactly zero, and none
    gives NaN, so neither counts. Row pairs are swept in blocks of about
    ``_SWEEP_BLOCK`` differences (one row at a time in larger tables),
    and the worst is the first largest spread in row-major order over
    row pairs i1 < i2.

    Returns ``(value, quad)``. ``quad`` holds the graph indices at
    (x,y), (x',y'), (x,y'), (x',y) when ``value > beat``, else it is
    None. Its columns are picked by a scalar pass over the two rows'
    common column keys, in set order, keeping the first strict maximum
    and minimum of the difference.
    """
    row_keys, first, row_of = np.unique(piece_a, return_index=True, return_inverse=True)
    col_keys, col_of = np.unique(piece_b, return_inverse=True)
    nr, nc = len(row_keys), len(col_keys)
    if nr < 2 or nc < 2:
        return 0.0, None
    rank = np.empty(nr, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(nr)
    row_of = rank[row_of]
    # Column-major grid: the reductions then run across whole rows at once.
    grid = np.full((nc, nr), np.nan)
    grid[col_of, row_of] = logp[gi]
    value = 0.0
    step = max(1, _SWEEP_BLOCK // (nr * nc))
    for lo in range(0, nr - 1, step):
        # Rows lo..hi-1 against rows lo+1..nr-1; triu keeps the pairs i1 < i2.
        hi = min(lo + step, nr - 1)
        d = grid[:, lo:hi, None] - grid[:, None, lo + 1 :]
        spread = np.triu(np.fmax(np.fmax.reduce(d, axis=0) - np.fmin.reduce(d, axis=0), 0.0))
        k = int(spread.argmax())
        if spread.flat[k] > value:
            value = float(spread.flat[k])
            i1, i2 = divmod(k, nr - lo - 1)
            i1 += lo
            i2 += lo + 1
    if not value > beat:
        return value, None

    def cells_of_row(i):
        at = np.flatnonzero(row_of == i)
        return dict(zip(piece_b[at].tolist(), zip(logp[gi[at]].tolist(), gi[at].tolist())))

    r1 = cells_of_row(i1)
    r2 = cells_of_row(i2)
    dmax = -math.inf
    dmin = math.inf
    cmax = cmin = -1
    for c in r1.keys() & r2.keys():
        d = r1[c][0] - r2[c][0]
        if d > dmax:
            dmax = d
            cmax = c
        if d < dmin:
            dmin = d
            cmin = c
    return value, (r1[cmax][1], r2[cmin][1], r1[cmin][1], r2[cmax][1])


def check_property(density: DensityTable, kind: PropertyKind, tol: float = 1e-9) -> PropertyReport:
    """Test the conditional independence required by ``kind`` exhaustively.

    Sweeps every covering pair with both parts proper subsets, restricts
    the density to the pair's conditioning set, and reports the largest
    |log cross-ratio| across all 2x2 sub-tables of the induced-piece
    partition. Graphs with zero probability are left out of the table,
    and pairs whose table has fewer than two distinct rows or columns
    impose nothing. The first table, in covering-pair and filter order,
    that reaches the largest value gives the witness.
    """
    logp = np.array([math.log(p) if p > 0.0 else math.nan for p in density.p])
    positive = ~np.isnan(logp)
    worst = 0.0
    witness = None
    for t in _pair_tables(density.n):
        for family in t.families(kind):
            sel = family & positive[t.gi]
            value, quad = _worst_spread(t.gi[sel], t.piece_a[sel], t.piece_b[sel], logp, worst)
            if quad is not None:
                worst = value
                graphs = tuple(Graph.from_edge_mask(density.n, density.masks[i]) for i in quad)
                witness = CrossRatioWitness(t.a, t.b, graphs, value)
    return PropertyReport(kind, worst <= tol, worst, witness)


def _bracket_log_prob(density: DensityTable):
    """``lp(*sets)``, the log probability of the bracket graph <R1, ..., Rk>: each Ri complete, no other edge."""
    complete = [within_edge_mask(density.n, r) for r in range(1 << density.n)]  # by vertex set

    def lp(*sets: int) -> float:
        edge_mask = 0
        for r in sets:
            edge_mask |= complete[r]
        try:
            p = density.prob_of_mask(edge_mask)
        except KeyError:
            raise DomainError(f"edge mask {edge_mask} names no decomposable graph on {density.n} vertices") from None
        if p <= 0.0:
            raise DomainError("density must be strictly positive here")
        return math.log(p)

    return lp


def fit_csf_from_density(density: DensityTable) -> CsfLaw:
    """Reconstruct factorisation potentials from a strictly positive density.

    The clique potential of a set is the probability of the graph that is
    complete on that set and empty elsewhere. The separator potential of
    a set S (|S| <= n-2) is the ratio prob(<R1>)prob(<R2>)/prob(<R1,R2>)
    for the canonical choice R1, R2 = S plus the two smallest outside
    vertices; for densities satisfying the clique-in-part independence
    property that ratio does not depend on the choice, and the resulting
    law reproduces the density with proportionality constant one.
    """
    n = density.n
    for m, p in zip(density.masks, density.p):
        if p <= 0.0:
            raise DomainError(f"full support required, but {Graph.from_edge_mask(n, m)!r} has zero probability")
    lp = _bracket_log_prob(density)
    phi_over = {mask: lp(mask) for mask in range(1 << n)}
    psi_over = {}
    full = (1 << n) - 1
    for mask in range(1 << n):
        rest = members(full & ~mask)
        if len(rest) < 2:
            continue
        r1 = mask | 1 << rest[0]
        r2 = mask | 1 << rest[1]
        psi_over[mask] = lp(r1) + lp(r2) - lp(r1, r2)
    return CsfLaw(n, PotentialTable(overrides=phi_over), PotentialTable(overrides=psi_over))


def verify_lemma1_identity(density: DensityTable, g: Graph) -> float:
    """Worst deviation of the junction-tree product identity on ``g``.

    For every ordering produced by every starting clique, and every
    proper superset R of each step's separator inside that step's parent
    clique, checks the step-wise cross-over identity
    prob(<R>) prob(<C_1..C_j>) = prob(<C_1..C_{j-1}>) prob(<R, C_j>)
    and the assembled product formula for prob(g); returns the largest
    absolute deviation on the log scale.
    """
    _check_on_all_vertices(g, density.n, "a density on")
    return _lemma1_deviation(_bracket_log_prob(density), g)


def _lemma1_deviation(lp, g: Graph) -> float:
    """:func:`verify_lemma1_identity` on a bracket lookup ``lp`` of the
    density, which may be shared by every graph of one density."""
    cl = cliques(g)
    logd = lp(*cl)
    worst = 0.0
    for first in range(len(cl)):
        order = pluperfect_order(g, first)
        base = 0.0
        for c in order.cliques:
            base += lp(c)
        lo = hi = 0.0
        log_prefix = lp(order.cliques[0])
        for j in range(1, len(order.cliques)):
            c = order.cliques[j]
            s = order.separators[j - 1]
            parent = order.cliques[order.parents[j - 1]]
            log_c = lp(c)
            log_prefix_next = lp(*order.cliques[: j + 1])
            factors = []
            free = parent & ~s
            x = free
            while x:  # nonempty subsets of parent minus separator
                log_r = lp(s | x)
                log_rc = lp(s | x, c)
                factors.append(log_rc - log_r - log_c)
                crossover = abs(log_r + log_prefix_next - log_prefix - log_rc)
                if crossover > worst:
                    worst = crossover
                x = (x - 1) & free
            lo += min(factors)
            hi += max(factors)
            log_prefix = log_prefix_next
        worst = max(worst, abs(base + hi - logd), abs(base + lo - logd))
    return worst


def verify_lemma2_ratio(density: DensityTable, s: int) -> float:
    """Spread of log[prob(<R1,R2>)/(prob(<R1>)prob(<R2>))] over all pairs
    of strict supersets of ``s`` intersecting exactly in ``s``.

    Zero spread (up to rounding) is what lets that ratio define a
    separator potential depending on ``s`` alone.
    """
    n = density.n
    full = (1 << n) - 1
    if s < 0 or s & ~full:
        raise DomainError(f"separator mask {s} is not a set of vertices in 0..{n - 1}")
    comp = full & ~s
    if comp.bit_count() < 2:
        raise DomainError("needs at least two vertices outside the separator")
    lp = _bracket_log_prob(density)
    ratios = []
    x = comp
    while x:
        rest = comp & ~x
        y = rest
        while y:
            if x < y:
                ratios.append(lp(s | x, s | y) - lp(s | x) - lp(s | y))
            y = (y - 1) & rest
        x = (x - 1) & comp
    return max(ratios) - min(ratios)


# ---------------------------------------------------------------------------
# Constraint-system analysis for the weakest conditioning family

#: Cap on the constraint analysis: the n=7 index would hold 13,426,672 rows.
EWSM_RANK_LIMIT = 6


def _ewsm_rows(n: int):
    """Anchored cross-ratio equality constraints on log-probabilities, as
    ``{graph index: coefficient}`` dicts. Each clique-in-whole-graph table
    with two or more pieces on each side must be a full grid, rows (pieces
    on ``a``) and columns (on ``b``) ascending; each free cell (x, y) gives,
    row-major, +1 on (x, y) and on the anchor (x0, y0) and -1 on (x, y0)
    and (x0, y), four distinct graphs."""
    if n > EWSM_RANK_LIMIT:
        raise CapacityError(f"the ewsm rank over {n} vertices exceeds the limit of {EWSM_RANK_LIMIT}")
    for t in _pair_tables(n):
        (family,) = t.families(PropertyKind.EWSM)
        row_keys, row_of = np.unique(t.piece_a[family], return_inverse=True)
        col_keys, col_of = np.unique(t.piece_b[family], return_inverse=True)
        if len(row_keys) < 2 or len(col_keys) < 2:
            continue
        if len(row_of) != len(row_keys) * len(col_keys):
            raise PreconditionError(f"ewsm table of ({members(t.a)}, {members(t.b)}) is not a full grid")
        grid = t.gi[family][np.lexsort((col_of, row_of))].reshape(len(row_keys), len(col_keys))
        (anchor, *top), *rest = grid.tolist()
        for left, *cells in rest:
            for up, cell in zip(top, cells):
                yield {cell: 1, anchor: 1, left: -1, up: -1}


def _exact_rank(rows) -> int:
    """Rank over Q of sparse integer rows, ``{column: coefficient}`` dicts.

    Each row is reduced against the stored pivot rows, highest column
    first, and what remains is stored as the pivot row of its highest
    column. Every pivot is +1 or -1, so integer arithmetic is exact; a
    pivot of any other value raises ``PreconditionError``.
    """
    pivots = {}
    for row in rows:
        while row := {c: v for c, v in row.items() if v}:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                if abs(row[col]) != 1:
                    raise PreconditionError(f"pivot {row[col]} in column {col} is not +1 or -1")
                pivots[col] = row
                break
            factor = row[col] * pivot[col]  # row[col] / pivot[col], as pivot[col] is +1 or -1
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - factor * v
    return len(pivots)


@dataclass(frozen=True)
class EwsmDimensionAnalysis:
    n: int
    num_constraints_bound: int
    rank: int
    free_dimension_bound: int
    csf_dimension: int


def ewsm_dimension_analysis(n: int = 4) -> EwsmDimensionAnalysis:
    """Exact rank of the constraint system of the weakest conditioning family.

    At n=4 there are 6 two-vertex intersections, each contributing a 3x3
    table and so at most 4 independent constraints: a bound of 24 over
    the 60-dimensional simplex of laws on the 61 decomposable graphs,
    leaving free dimension at least 36 against a factorisation-law
    dimension of 21. At n = 2, 3 there are no constraints and the free
    dimension equals the factorisation-law dimension, 1 and 7; from n=4
    it exceeds it: rank 695 of 1275 at n=5 (126 free against 51) and
    17,760 of 59,085 at n=6 (393 free against 113).
    """
    rows = list(_ewsm_rows(n))
    rank = _exact_rank(rows)
    return EwsmDimensionAnalysis(
        n=n,
        num_constraints_bound=len(rows),
        rank=rank,
        free_dimension_bound=len(_clique_separator_table(n).masks) - 1 - rank,
        csf_dimension=csf_dimension(n),
    )


def ewsm_constraint_column_support(n: int = 4) -> set[int]:
    """Indices (enumeration order) of graphs touched by some constraint row."""
    return {gi for row in _ewsm_rows(n) for gi in row}


def ewsm_not_wsm_density(n: int = 4) -> DensityTable:
    """A density satisfying the clique-in-whole-graph independence family
    but violating the clique-in-part family.

    Bumps the probability of the first graph (enumeration order) whose
    coordinate is absent from every constraint row of the weaker family:
    cross-ratios are scale-invariant, so the weaker family still holds
    exactly, while the bump lands in some larger conditioning table and
    breaks it. The construction is verified before returning.
    """
    used = ewsm_constraint_column_support(n)
    uniform = normalize_by_enumeration(uniform_csf(n))
    for gi, (g, _) in enumerate(uniform.items()):
        if gi in used:
            continue
        candidate = perturb_density(uniform, g, 2.0)
        if not check_property(candidate, PropertyKind.WSM).passed and check_property(
            candidate, PropertyKind.EWSM
        ).passed:
            return candidate
    raise DomainError(f"no separating density exists at n={n}")
