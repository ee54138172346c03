"""Clique-separator factorisation laws over decomposable graphs.

A law assigns each decomposable graph an unnormalised density equal to
the product of a potential per clique divided by a potential per
separator (with separator multiplicity). Potentials live in log domain;
separator potentials may be +inf, which zeroes out every graph using
that separator and is how hard constraints such as the hub model are
expressed.

Potential tables are sparse: a size rule provides the default
log-potential, explicit per-set overrides take precedence, and an
optional hub mask sends every hub-free set to +inf. An optional additive
set-function hook supports exact reparameterisations and conjugate
updates without materialising 2^n entries. A density table holds one
probability per decomposable graph, in enumeration order, all or none,
each finite and nonnegative, summing to one within 1e-6 and divided by
their exact sum, in a read-only float64 buffer whose items are Python
floats; a law's sets and hubs lie in 0..n-1, and a law or density scores
only graphs on all of its n vertices. A density shares the edge masks
and the graph views of the table below, and finds the row
of a graph, or of any edge mask, in one slot of the graph module's
cached index from edge mask to row, with no search. Normalisation needs
no graphs: a graph's log-density is its row of the cached
clique/separator table T (the theorem's statistic) times one vector of
log-potentials, each evaluated once, added in search order. The density
parser keys each entry, as the graph module's reader made it during the
parse, by its edge mask, also without a graph, and checks the keys
against the same table's masks, so parsing a density file builds the
table (one lockstep search over the extensions of the chordal graphs on
n-1 vertices, then one over the chordal ones) if no earlier call in the
process has. A density is written as the text of its entries, each edge
list from two half-mask lookups in text tables built once per write and
the probabilities as ``json.dumps`` writes them, without an object per
entry, in pieces of 4,096 entries that the CLI writes as they are made
and :func:`density_to_json` joins. The constructors read every number
through :func:`_as_float`, so the parsers hand them JSON values as read,
and every vertex set and vertex count through the graph module's integer
rule, :func:`~cliquesep.graphs._index`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainError, EmptySupportError
from .graphs import (
    MAX_VERTICES,
    Graph,
    _Entry,
    _check_enumerable,
    _check_subset,
    _check_vertex_count,
    _checked_edge_fields,
    _clique_separator_table,
    _edges_json_texts,
    _index,
    _json_value,
    _mask_index,
    clique_separators,
    enumerate_decomposable,
    members,
    vset,
)

INF = math.inf


def _as_float(value, what: str | None = None) -> float:
    """``value`` as a float if it is a number that is written as one and read back: an int
    that is not a bool, or a float (``np.float64`` among them), within float range. Anything
    else raises an error naming ``what``, or is nan if ``what`` is None, for the caller to refuse."""
    if type(value) is int or isinstance(value, float):
        try:
            return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    if what is None:
        return math.nan
    raise DomainError(f"{what} must be a number, got {value!r}")


class _FiniteRule:
    """A size rule's one field, which must be a finite number, stored as a float."""

    def __post_init__(self):
        field = fields(self)[0].name
        value = _as_float(getattr(self, field))
        if not math.isfinite(value):
            raise DomainError(f"rule {field} must be a finite number, got {getattr(self, field)!r}")
        object.__setattr__(self, field, value)  # the dataclass is frozen


@dataclass(frozen=True)
class ExpLinearRule(_FiniteRule):
    """Log-potential -rate * |A|; the rate must be finite."""

    rate: float

    def log_potential(self, size: int) -> float:
        return -self.rate * size


@dataclass(frozen=True)
class ConstRule(_FiniteRule):
    """Constant log-potential, independent of set size; it must be finite."""

    value: float = 0.0

    def log_potential(self, size: int) -> float:
        return self.value


@dataclass(frozen=True)
class QuadraticRule(_FiniteRule):
    """Log-potential coef * |A|(|A|-1)/2, one unit per vertex pair; the
    coefficient must be finite."""

    coef: float

    def log_potential(self, size: int) -> float:
        return self.coef * (size * (size - 1) // 2)


SizeRule = ExpLinearRule | ConstRule | QuadraticRule


class PotentialTable:
    """Log-potentials indexed by vertex-set mask.

    Lookup order: explicit override, else +inf if the set misses every
    hub, else the size rule. ``extra`` is added on top of finite values.
    Treat instances as immutable. Override keys and ``hubs`` are read as
    integers (see :func:`~cliquesep.graphs._index`).
    """

    __slots__ = ("rule", "overrides", "hubs", "extra")

    def __init__(
        self,
        rule: SizeRule | None = None,
        overrides: Mapping[int, float] | None = None,
        hubs: int | None = None,
        extra: Callable[[int], float] | None = None,
    ):
        self.rule = ConstRule(0.0) if rule is None else rule
        self.overrides = {}
        for mask, raw in (overrides or {}).items():
            mask = _index(mask, "override set")
            value = _as_float(raw)
            if not -INF < value <= INF:  # the set is named only here: CsfLaw refuses one outside 0..n-1
                raise DomainError(f"log-potential for {members(mask)} must be a number, finite or +inf, got {raw!r}")
            self.overrides[mask] = value
        self.hubs = None if hubs is None else _index(hubs, "hub set")
        self.extra = extra

    def log_potential(self, mask: int) -> float:
        """Log-potential of the set ``mask``, taken raw: this runs on every chain step and in T·θ."""
        base = self.overrides.get(mask)
        if base is None:
            if self.hubs is not None and mask & self.hubs == 0:
                return INF
            base = self.rule.log_potential(mask.bit_count())
        if base == INF:
            return INF
        if self.extra is not None:
            e = self.extra(mask)
            if not math.isfinite(e):
                raise DomainError(f"non-finite additive log term for {members(mask)}")
            base += e
        return base

    def with_extra(self, fn: Callable[[int], float]) -> "PotentialTable":
        """New table adding ``fn(mask)`` to every finite log-potential."""
        old = self.extra
        combined = fn if old is None else (lambda mask, _o=old, _f=fn: _o(mask) + _f(mask))
        return PotentialTable(self.rule, self.overrides, self.hubs, combined)


@dataclass(frozen=True)
class CsfLaw:
    """Unnormalised clique-separator factorisation law on n-vertex graphs."""

    n: int
    phi: PotentialTable
    psi: PotentialTable

    def __post_init__(self):
        object.__setattr__(self, "n", _check_vertex_count(self.n))  # before 1 << n; the dataclass is frozen
        for table in (self.phi, self.psi):
            for mask in table.overrides:
                _check_subset(mask, (1 << self.n) - 1, "override set")
            _check_subset(table.hubs or 0, (1 << self.n) - 1, "hub set")


def t_statistic(g: Graph, a: int) -> int:
    """1 if ``a`` is a clique of ``g``, minus its multiplicity if it is a
    separator, 0 otherwise."""
    a = _check_subset(a, g.vertices, "vertex set")
    cl, seps = clique_separators(g)
    if a in seps:
        return -seps[a]
    return 1 if a in cl else 0


def t_plus(g: Graph, a: int) -> int:
    return max(t_statistic(g, a), 0)


def t_minus(g: Graph, a: int) -> int:
    return min(t_statistic(g, a), 0)


def _check_on_all_vertices(g: Graph, n: int, under: str) -> None:
    """Refuse a graph that is not on all n vertices, as ``DensityTable.prob`` does."""
    if g.n != n:
        raise DomainError(f"graph on {g.n} vertices under {under} {n}")
    if g.vertices != (1 << n) - 1:
        raise DomainError(f"graph leaves vertices {members((1 << n) - 1 & ~g.vertices)} inactive")


def _clique_log_potential(law: CsfLaw, c: int) -> float:
    """``law.phi`` of the clique ``c``, which may not be infinite."""
    lp = law.phi.log_potential(c)
    if lp == INF:
        raise DomainError(f"clique potential for {members(c)} is infinite")
    return lp


def log_density_unnorm(law: CsfLaw, g: Graph) -> float:
    """Sum of clique log-potentials minus multiplicity-weighted separator
    log-potentials; -inf (zero density) when some separator potential is
    +inf or the clique terms reach -inf. A sum that potentials overflow
    to +inf, or to -inf plus +inf, raises ``DomainError``."""
    _check_on_all_vertices(g, law.n, "a law for")
    cl, seps = clique_separators(g)
    total = 0.0
    for c in cl:
        total += _clique_log_potential(law, c)
    for s, mult in seps.items():
        lp = law.psi.log_potential(s)
        if lp == INF:
            return -INF
        total -= mult * lp
    if not total < INF:
        raise DomainError(f"log-density is {total!r}: the law's potentials overflow")
    return total


def uniform_csf(n: int) -> CsfLaw:
    """All potentials 1: the uniform law over decomposable graphs."""
    return CsfLaw(n, PotentialTable(), PotentialTable())


def erdos_renyi_csf(n: int, p: float) -> CsfLaw:
    """Edge-density law with both potentials (p/(1-p))^(|A|(|A|-1)/2).

    Normalised over the decomposable graphs this equals independent
    edges with probability p, conditioned on decomposability.
    """
    p = _as_float(p, "edge probability")
    if not 0.0 < p < 1.0:
        raise DomainError(f"edge probability must be in (0,1), got {p}")
    rule = QuadraticRule(math.log(p / (1.0 - p)))
    return CsfLaw(n, PotentialTable(rule), PotentialTable(rule))


def hub_law(n: int, hubs: int | Iterable[int], clique_rate: float = 4.0, separator_rate: float = 0.5) -> CsfLaw:
    """Communication-network law: separators must contain a designated hub.

    Clique potentials are exp(-clique_rate * |C|) for every clique;
    separator potentials are exp(-separator_rate * |S|) when S contains a
    hub and +inf otherwise. The empty separator contains no hub, so every
    supported graph is connected. ``hubs`` is an iterable of vertex
    indices or else a hub mask, each read as integers.
    """
    n = _check_vertex_count(n)
    hub_mask = vset(hubs) if isinstance(hubs, Iterable) else _index(hubs, "hub set")
    return CsfLaw(
        n,
        PotentialTable(ExpLinearRule(clique_rate)),
        PotentialTable(ExpLinearRule(separator_rate), hubs=hub_mask),
    )


def _check_dimension_n(n) -> int:
    """``n`` read as a vertex count in 2..``MAX_VERTICES``, before ``2**n``, which is huge for a huge n."""
    n = _index(n, "vertex count")
    if not 2 <= n <= MAX_VERTICES:
        raise DomainError(f"dimension formulas need 2..{MAX_VERTICES} vertices, got {n}")
    return n


def csf_dimension(n: int) -> int:
    """Dimension of the space of clique-separator factorisation laws."""
    n = _check_dimension_n(n)
    return 2 * 2**n - 2 * n - 3


def cef_dimension(n: int) -> int:
    """Dimension of the subfamily with one shared potential per set."""
    n = _check_dimension_n(n)
    return 2**n - n - 1


def standardize(law: CsfLaw) -> CsfLaw:
    """Equivalent law with unit empty-separator and singleton-clique potentials.

    Rescales both tables by exp(alpha + sum of per-vertex weights), a
    direction along which every normalised density is invariant, chosen
    so the empty-set separator potential and every singleton clique
    potential become exactly 1.
    """
    log_psi_empty = law.psi.log_potential(0)
    if not math.isfinite(log_psi_empty):
        raise DomainError("standardisation needs a finite empty-separator potential")
    alpha = -log_psi_empty
    beta = []
    for v in range(law.n):
        lp = law.phi.log_potential(1 << v)
        if not math.isfinite(lp):
            raise DomainError("standardisation needs finite singleton clique potentials")
        beta.append(-lp - alpha)
    if alpha == 0.0 and not any(beta):
        return law

    def adjust(mask: int, _a=alpha, _b=tuple(beta)) -> float:
        total = _a
        m = mask
        while m:
            bit = m & -m
            total += _b[bit.bit_length() - 1]
            m ^= bit
        return total

    return CsfLaw(law.n, law.phi.with_extra(adjust), law.psi.with_extra(adjust))


class DensityTable:
    """``p[k]``, from a read-only float64 buffer whose items are Python floats, is the probability of the k-th
    decomposable graph on n vertices, whose edge mask ``masks[k]`` (the clique/separator table's own read-only
    buffer) ascends with k; ``probs`` keys exactly those graphs (see :func:`_checked_density`), and :meth:`items`
    pairs each ``p[k]`` with the k-th graph that ``enumerate_decomposable`` yields."""

    __slots__ = ("n", "masks", "p")

    def __init__(self, n: int, probs: Mapping[Graph, float]):
        n = _check_enumerable(n)  # before 1 << n
        by_mask = {
            g.edge_mask: q for g, q in probs.items() if isinstance(g, Graph) and g.n == n and g.vertices == (1 << n) - 1
        }
        # An empty mapping fails the check: some graph was on other vertices.
        table = _checked_density(n, by_mask if len(by_mask) == len(probs) else {})
        self.n, self.masks, self.p = table.n, table.masks, table.p

    def prob_of_mask(self, edge_mask: int) -> float:
        """Probability of the graph whose edge mask, read as an integer, is ``edge_mask``; else ``KeyError``."""
        m, index = _index(edge_mask, "edge mask"), _mask_index(self.n)
        k = index[m] if 0 <= m < len(index) else -1
        if k < 0:
            raise KeyError(m)
        return self.p[k]

    def prob(self, g: Graph) -> float:
        if (g.n, g.vertices) != (self.n, (1 << self.n) - 1):
            raise KeyError(g)
        return self.prob_of_mask(g.edge_mask)

    def items(self):
        return zip(enumerate_decomposable(self.n), self.p)

    def __len__(self):
        return len(self.p)


def _checked_density(n: int, by_mask: Mapping[int, object]) -> DensityTable:
    """The density of ``by_mask``'s values over the clique/separator table's masks, ascending,
    if those are exactly its keys and its values are probabilities (see :func:`_as_float`),
    finite, nonnegative and summing to one within 1e-6, divided by their exact sum."""
    masks = _clique_separator_table(n).masks
    if len(by_mask) != len(masks) or not all(m in by_mask for m in masks):
        raise DomainError(f"entries must be exactly the {len(masks)} decomposable graphs on {n} vertices")
    ps = [_as_float(by_mask[m], "entry probability") for m in masks]
    if not all(0.0 <= q < INF for q in ps):
        raise DomainError("probabilities must be finite and nonnegative")
    try:
        z = math.fsum(ps)
    except OverflowError:  # finite probabilities whose exact sum overflows
        z = INF
    if not abs(z - 1.0) <= 1e-6:
        raise DomainError(f"probabilities sum to {z}, not 1")
    return _normalised(n, masks, ps)


def _normalised(n: int, masks: memoryview, weights: list[float]) -> DensityTable:
    """``weights`` over ``masks`` divided by their exact sum, as a read-only float64 buffer. Every caller's sum
    is positive and finite: :func:`_checked_density`'s is within 1e-6 of one, :func:`normalize_by_enumeration`'s
    best graph weighs 1, and :func:`perturb_density` scales one entry, at most 1, by a finite factor > 0."""
    p = np.array(weights) / math.fsum(weights)
    p.flags.writeable = False
    table = object.__new__(DensityTable)
    table.n, table.masks, table.p = n, masks, memoryview(p)
    return table


def normalize_by_enumeration(law: CsfLaw) -> DensityTable:
    """Exact normalisation of a law over the enumerated decomposable graphs,
    with weights exponentiated against the largest finite log-density.

    The log-densities are :func:`log_density_unnorm`'s, to the last bit,
    read off the cached clique/separator table T of n vertices as T·θ:
    an entry's key is its set, plus 2^n for a separator, θ holds ``phi``
    or ``psi`` of each key that occurs, evaluated in ascending key order,
    and ``np.bincount`` adds each graph's terms in the scalar loop's order.
    The first graph, in enumeration order, with an infinite clique
    potential or an overflowing sum raises the scalar loop's error.
    """
    n, half = law.n, 1 << law.n
    t = _clique_separator_table(n)
    keys = t.sets + np.left_shift(t.coef < 0, n, dtype=np.uint16)
    occurs = np.flatnonzero(np.bincount(keys, minlength=2 * half))
    theta = np.zeros(2 * half)
    theta[occurs] = [(law.psi if k >= half else law.phi).log_potential(int(k) % half) for k in occurs]
    infinite, sep = theta == INF, np.arange(2 * half) >= half  # by key
    terms = theta[keys]
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are reported below
        terms *= t.coef
        logs = np.bincount(t.gi, weights=terms, minlength=len(t.masks))
    logs[t.gi[(infinite & sep)[keys]]] = -INF
    bad = ~(logs < INF)
    bad[t.gi[(infinite & ~sep)[keys]]] = True
    del keys, terms
    if bad.any():
        # The scalar loop adds the same terms in the same order, so it raises.
        log_density_unnorm(law, Graph.from_edge_mask(n, t.masks[int(bad.argmax())]))
    logs = logs.tolist()
    best = max(logs)
    if best == -INF:
        raise EmptySupportError("law puts zero mass on every decomposable graph")
    return _normalised(n, t.masks, [math.exp(ld - best) if ld > -INF else 0.0 for ld in logs])


def perturb_density(density: DensityTable, g: Graph, factor: float) -> DensityTable:
    """Multiply one graph's probability by ``factor`` and renormalise."""
    k = _mask_index(density.n)[g.edge_mask] if (g.n, g.vertices) == (density.n, (1 << density.n) - 1) else -1
    if k < 0:
        raise DomainError("graph is not in the density's support set")
    factor = _as_float(factor, "perturbation factor")
    if not 0.0 < factor < INF:
        raise DomainError(f"perturbation factor must be finite and positive, got {factor!r}")
    weights = density.p.tolist()
    weights[k] *= factor
    return _normalised(density.n, density.masks, weights)


# ---------------------------------------------------------------------------
# Serialisation


def _mask_key(mask: int) -> str:
    return ",".join(str(v) for v in members(mask))


def _vertex_set(verts, n: int, what: str) -> int:
    """Mask of a vertex list read from outside the program: distinct ints (not bools) in 0..n-1."""
    listed = isinstance(verts, list) and all(type(v) is int and 0 <= v < n for v in verts)
    if not listed or len(set(verts)) != len(verts):
        raise DomainError(f"{what} must list distinct vertex indices in 0..{n - 1}")
    return vset(verts)


def _key_mask(key: str, n: int, what: str) -> int:
    """Mask of a comma-separated vertex list, ``""`` the empty set; see :func:`_vertex_set`."""
    try:  # plain ASCII decimal only: int() also reads "1_0", " 1", "+1" and other scripts' digits
        verts = [int(tok) if tok.isascii() and tok.isdigit() else None for tok in key.split(",")] if key else []
    except ValueError:  # more digits than int() converts
        verts = None
    return _vertex_set(verts, n, f"{what} {key!r}")


# Each size rule's JSON ``type``: its class, its one field and that field's default (None: required).
_RULES = {
    "exp_linear": (ExpLinearRule, "rate", None),
    "const": (ConstRule, "value", 0.0),
    "quadratic": (QuadraticRule, "coef", None),
}


def _rule_to_obj(rule: SizeRule) -> dict:
    for kind, (cls, field, _) in _RULES.items():
        if isinstance(rule, cls):
            return {"type": kind, field: getattr(rule, field)}
    raise DomainError(f"unknown rule {rule!r}")


def _rule_from_obj(obj) -> SizeRule:
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("rule must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _RULES:  # a list or an object is not hashable
        raise DomainError(f"unknown rule type {kind!r}")
    cls, field, default = _RULES[kind]
    return cls(obj.get(field, default))


def _table_to_obj(table: PotentialTable) -> dict:
    if table.extra is not None:
        raise DomainError(
            "table carries a non-serialisable additive term; export a density instead"
        )
    obj = {
        "rule": _rule_to_obj(table.rule),
        "overrides": {
            _mask_key(m): ("inf" if v == INF else v) for m, v in sorted(table.overrides.items())
        },
    }
    if table.hubs is not None:
        obj["hub_constraint"] = {"hubs": members(table.hubs), "no_hub": "inf"}
    return obj


def _table_from_obj(obj, n: int) -> PotentialTable:
    if not isinstance(obj, dict):
        raise DomainError("potential table must be an object")
    rule = _rule_from_obj(obj.get("rule", {"type": "const", "value": 0.0}))
    raw = obj.get("overrides", {})
    if not isinstance(raw, dict):
        raise DomainError("'overrides' must be an object")
    overrides = {}
    for key, value in raw.items():
        mask = _key_mask(key, n, "override key")
        if mask in overrides:
            raise DomainError(f"override key {key!r} names the set of an earlier key")
        overrides[mask] = INF if value == "inf" else value
    hubs = None
    hc = obj.get("hub_constraint")
    if hc is not None:
        if not isinstance(hc, dict) or hc.get("no_hub") != "inf":
            raise DomainError("hub_constraint must be an object declaring no_hub as 'inf'")
        hubs = _vertex_set(hc.get("hubs"), n, "hub_constraint 'hubs'")
    return PotentialTable(rule, overrides, hubs)


def law_to_json(law: CsfLaw) -> str:
    return json.dumps(
        {"n": law.n, "phi": _table_to_obj(law.phi), "psi": _table_to_obj(law.psi)},
        sort_keys=True,
    )


def law_from_json(text: str) -> CsfLaw:
    return _law_from_obj(_json_value(text, "law"))


def _law_from_obj(obj) -> CsfLaw:
    """Law from a parsed JSON value."""
    if not isinstance(obj, dict) or "n" not in obj:
        raise DomainError("law JSON must have fields 'n', 'phi' and 'psi'")
    n = obj["n"]
    if type(n) is not int or not 1 <= n <= MAX_VERTICES:
        raise DomainError(f"'n' must be an integer in 1..{MAX_VERTICES}")
    if "phi" not in obj or "psi" not in obj:
        raise DomainError("law JSON must have fields 'n', 'phi' and 'psi'")
    return CsfLaw(n, _table_from_obj(obj["phi"], n), _table_from_obj(obj["psi"], n))


def _density_pieces(density: DensityTable) -> Iterator[str]:
    """The text of :func:`density_to_json`: the header, a piece per 4096 entries, the closing brackets.
    A piece dumps its probabilities with one ``json.dumps`` and zips them, first, with one stream of
    :func:`~cliquesep.graphs._edges_json_texts` over all the masks, so a block stops at its last edge list."""
    p, n = density.p, density.n
    edges = _edges_json_texts(n, density.masks)
    yield f'{{"n": {n}, "entries": ['
    for k in range(0, len(p), 4096):
        ps = json.dumps(p[k : k + 4096].tolist())[1:-1].split(", ")  # no number's text holds ", "
        block = ", ".join([f'{{"edges": {e}, "p": {q}}}' for q, e in zip(ps, edges)])
        yield f", {block}" if k else block
    yield "]}"


def density_to_json(density: DensityTable) -> str:
    """``json.dumps({"n": n, "entries": [{"edges": ..., "p": q}, ...]})``, byte for byte,
    from the pieces that the CLI writes as they are made."""
    return "".join(_density_pieces(density))


def density_from_json(text: str) -> DensityTable:
    """Parse a density table whose entries, in any order, are exactly the
    decomposable graphs of its size; probabilities are renormalised exactly."""
    return _density_from_obj(_json_value(text, "density"))


def _density_from_obj(obj) -> DensityTable:
    """Density table from a parsed JSON value; see :func:`density_from_json`."""
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise DomainError("density JSON must have fields 'n' and 'entries'")
    n = obj["n"]
    if type(n) is not int or not isinstance(obj["entries"], list):
        raise DomainError("density 'n' must be an integer and 'entries' an array")
    probs = {}
    for entry in obj["entries"]:
        if type(entry) is _Entry:
            mask, p = entry.edge_mask(n), entry.p
        elif isinstance(entry, dict) and "edges" in entry and "p" in entry:
            mask, p = _checked_edge_fields(n, entry["edges"])[1], entry["p"]
        else:
            raise DomainError("each density entry must be an object with fields 'edges' and 'p'")
        if mask in probs:
            raise DomainError(f"duplicate entry for {Graph.from_edge_mask(n, mask)!r}")
        probs[mask] = p
    return _checked_density(n, probs)
