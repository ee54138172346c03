"""Command-line interface.

One subcommand per capability: enumerate, dim, density, check, fit,
lemma-check, ewsm-rank, sample, posterior, export-dot. Primary output is
machine-readable (plain numbers, JSON, or newline-delimited JSON) on
stdout; diagnostics go to stderr. Exit status 0 on success, 1 on a
domain error, 2 on a usage error.

Every JSON file the CLI opens, graph, law or density, is read by one
reader, and ``--law`` by one loader: a file with ``entries`` is a
density, and the commands that need a law refuse it before parsing it.
Every primary output goes through one writer, in pieces as they are
made, after every check has run, so a failing command neither creates
nor truncates the ``--out`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys

from .errors import DomainError
from .graphs import (
    _check_vertex_count,
    _chordal_blocks,
    _edges_json_texts,
    _graph_from_obj,
    _json_value,
    count_decomposable,
    members,
    to_dot,
)
from .laws import (
    CsfLaw,
    DensityTable,
    _density_from_obj,
    _density_pieces,
    _key_mask,
    _law_from_obj,
    cef_dimension,
    csf_dimension,
    hub_law,
    law_to_json,
    normalize_by_enumeration,
    uniform_csf,
)
from .markov import (
    PropertyKind,
    check_property,
    ewsm_dimension_analysis,
    fit_csf_from_density,
    verify_lemma1_identity,
    verify_lemma2_ratio,
)
from .posterior import bernoulli_dirichlet_score, load_binary_csv, posterior_law
from .sampler import run_chain


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquesep",
        description="Clique-separator factorisation laws over decomposable graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if "n" in flags:
            p.add_argument("--n", type=int, default=None, help="vertex count")
        if "law" in flags:
            p.add_argument("--law", default=None, help="law file path, density file path, 'uniform', or 'hub'")
            p.add_argument("--hubs", default=None, help="comma-separated hub vertex indices")
            p.add_argument("--phi-rate", type=float, default=4.0, help="clique size rate for --law hub")
            p.add_argument("--psi-rate", type=float, default=0.5, help="separator size rate for --law hub")
        p.add_argument("--out", default=None, help="write primary output here instead of stdout")
        return p

    p = add("enumerate", _cmd_enumerate, "list or count the decomposable graphs on n vertices", "n")
    p.add_argument("--count-only", action="store_true", help="print only the count")

    add("dim", _cmd_dim, "print the factorisation-law and shared-potential dimensions", "n")

    add("density", _cmd_density, "normalise a law exactly over the enumerated graphs", "n", "law")

    p = add("check", _cmd_check, "test a structural Markov property exhaustively", "n", "law")
    p.add_argument("--property", choices=[k.value for k in PropertyKind], default="wsm")
    p.add_argument("--tol", type=float, default=1e-9)

    add("fit", _cmd_fit, "reconstruct factorisation potentials from a density", "n", "law")

    p = add("lemma-check", _cmd_lemma_check, "verify the product identity and ratio invariance", "n", "law")
    p.add_argument("--tol", type=float, default=1e-9)

    add("ewsm-rank", _cmd_ewsm_rank, "rank analysis of the weakest conditioning family", "n")

    p = add("sample", _cmd_sample, "run a Metropolis edge-flip chain", "n", "law")
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--thin", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("posterior", _cmd_posterior, "conjugate update from binary data, output as a density", "n", "law")
    p.add_argument("--data", required=True, help="CSV of 0/1 values, one row per observation")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--skip-header", action="store_true", help="skip one header row")

    p = add("export-dot", _cmd_export_dot, "render a graph in DOT, hubs filled")
    p.add_argument("--graph", required=True, help="graph file path")
    p.add_argument("--hubs", default=None, help="comma-separated hub vertex indices")

    return parser


def _need_n(args) -> int:
    if args.n is None:
        raise DomainError("--n is required here")
    return args.n


def _need_tol(args) -> float:
    if not 0.0 <= args.tol < math.inf:
        raise DomainError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    return args.tol


def _read_table(path: str) -> dict:
    """Parsed JSON object of a graph, law or density file."""
    with open(path, "rb") as fh:
        obj = _json_value(fh.read(), path)
    if not isinstance(obj, dict):
        raise DomainError(f"invalid {path} JSON: expected an object")
    return obj


def _load(args, densities: bool) -> CsfLaw | DensityTable:
    """Law named by ``--law``, or the density of a density file if ``densities``;
    otherwise a density file is parsed, then refused before any density table is built."""
    if args.law is None or args.law == "uniform":
        return uniform_csf(_need_n(args))
    if args.law == "hub":
        n = _check_vertex_count(_need_n(args))  # before the hub list is read against it
        hubs = _key_mask(args.hubs or "", n, "--hubs")
        if not hubs:
            raise DomainError("--law hub needs a non-empty --hubs list")
        return hub_law(n, hubs, args.phi_rate, args.psi_rate)
    obj = _read_table(args.law)
    kind = "density" if "entries" in obj else "law"
    if kind == "density" and not densities:
        raise DomainError("this subcommand needs a law, not a density table")
    loaded = _density_from_obj(obj) if kind == "density" else _law_from_obj(obj)
    if args.n is not None and args.n != loaded.n:
        raise DomainError(f"--n {args.n} disagrees with the {kind} file's n={loaded.n}")
    return loaded


def _load_density(args) -> DensityTable:
    loaded = _load(args, densities=True)
    return loaded if isinstance(loaded, DensityTable) else normalize_by_enumeration(loaded)


def _emit(args, *parts) -> None:
    """Write the primary output, each part a string or an iterable of strings,
    in order, to the ``--out`` file or stdout; the file is opened only here."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for part in parts:
            fh.writelines([part] if isinstance(part, str) else part)


def _witness_obj(witness):
    if witness is None:
        return None
    return {
        "a": members(witness.a),
        "b": members(witness.b),
        "graphs": [g.edges() for g in witness.graphs],
        "value": witness.value,
    }


def _cmd_enumerate(args) -> None:
    n = _need_n(args)
    if args.count_only:
        _emit(args, f"{count_decomposable(n)}\n")
        return
    # The blocks and the texts check n at once, before the file is opened.
    edges = _edges_json_texts(n, (m for masks, _ in _chordal_blocks(n) for m in masks.tolist()))
    _emit(args, (f'{{"edges": {e}, "n": {n}}}\n' for e in edges))


def _cmd_dim(args) -> None:
    n = _need_n(args)
    _emit(args, f"{csf_dimension(n)} {cef_dimension(n)}\n")


def _cmd_density(args) -> None:
    _emit(args, _density_pieces(normalize_by_enumeration(_load(args, densities=False))), "\n")


def _cmd_check(args) -> None:
    tol = _need_tol(args)
    density = _load_density(args)
    report = check_property(density, PropertyKind(args.property), tol)
    obj = {
        "property": report.kind.value,
        "passed": report.passed,
        "worst_violation": report.worst_violation,
        "tol": tol,
        "witness": _witness_obj(report.witness),
    }
    _emit(args, json.dumps(obj, sort_keys=True) + "\n")


def _cmd_fit(args) -> None:
    density = _load_density(args)
    law = fit_csf_from_density(density)
    check = normalize_by_enumeration(law)
    err = max(abs(q - p) / p for q, p in zip(check.p, density.p))
    print(f"max relative reconstruction error: {err:.3e}", file=sys.stderr)
    _emit(args, law_to_json(law) + "\n")


def _cmd_lemma_check(args) -> None:
    tol = _need_tol(args)
    density = _load_density(args)
    full = (1 << density.n) - 1
    product_dev = max(verify_lemma1_identity(density, g) for g, _ in density.items())
    separators = [s for s in range(full + 1) if (full & ~s).bit_count() >= 2]
    ratio_dev = max((verify_lemma2_ratio(density, s) for s in separators), default=0.0)
    obj = {
        "product_identity_max_deviation": product_dev,
        "ratio_spread_max": ratio_dev,
        "tol": tol,
        "passed": max(product_dev, ratio_dev) <= tol,
    }
    _emit(args, json.dumps(obj, sort_keys=True) + "\n")


def _cmd_ewsm_rank(args) -> None:
    analysis = ewsm_dimension_analysis(_need_n(args))
    _emit(args, json.dumps(dataclasses.asdict(analysis), sort_keys=True) + "\n")


def _cmd_sample(args) -> None:
    law = _load(args, densities=False)
    summary = run_chain(law, steps=args.steps, thin=args.thin, seed=args.seed)
    records = (
        json.dumps(
            {
                "step": rec.step,
                "edges": rec.graph.edges(),
                "logd": rec.log_density,
                "cliques": rec.num_cliques,
                "max_clique": rec.max_clique,
            },
            sort_keys=True,
        )
        + "\n"
        for rec in summary.records
    )
    totals = {
        "acceptance_rate": summary.acceptance_rate,
        "steps": summary.steps,
        "retained": len(summary.records),
        "seed": summary.seed,
    }
    _emit(args, records, json.dumps(totals, sort_keys=True) + "\n")


def _cmd_posterior(args) -> None:
    prior = _load(args, densities=False)
    data = load_binary_csv(args.data, skip_header=args.skip_header)
    if data and len(data[0]) != prior.n:
        raise DomainError(f"data has {len(data[0])} columns but the law has n={prior.n}")
    score = bernoulli_dirichlet_score(data, args.alpha)
    post = posterior_law(prior, score)
    _emit(args, _density_pieces(normalize_by_enumeration(post)), "\n")


def _cmd_export_dot(args) -> None:
    g = _graph_from_obj(_read_table(args.graph))
    _emit(args, to_dot(g, _key_mask(args.hubs or "", g.n, "--hubs")))


def run_command(argv=None) -> int:
    """Execute one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.handler(args)
    except (DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
