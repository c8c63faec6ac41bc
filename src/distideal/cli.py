"""Command-line front-end.

Exit codes: 0 success, 1 bad input, 2 verification failure (corpus
disagreement or family mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify as classify_mod
from . import families as families_mod
from .graph import (build_graph, emit_graph6, enumerate_connected, family,
                    parse_graph6)
from .ideals import (char_poly_distance, generalized_distance_matrix,
                     ideal_report)
from .poly import QQ, ZZ
from .snf import distance_laplacian_snf, distance_snf

# the most vertices `ideals` takes without --allow-large: a whole chain
# expands the minors of C(n,i)(C(n,i)+1)/2 pairs of index sets for each i
MAX_MINOR_N = 8


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: print the usage, then exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _load_graph(args):
    sources = [s for s in (args.graph6, args.edge_file, args.family_spec)
               if s is not None]
    if len(sources) != 1:
        raise CliError("exactly one of --graph6 / --edges-file / --family required")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edge_file is not None:
        return _read_edges_file(args.edge_file)
    return _parse_family(args.family_spec)


def _read_edges_file(path):
    """A header line with the vertex count, then one line ``u v`` per
    edge; blank lines and lines starting with # are skipped.  The edges
    go to build_graph as a generator, so that its vertex bound comes
    before any edge line is read."""
    with open(path) as fh:
        lines = ((no, ln.split()) for no, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.lstrip().startswith("#"))
        header = next(lines, None)
        if header is None:
            raise CliError("empty edges file")
        (n,) = _ints(path, *header, 1, "the vertex count")
        return build_graph(n, (_ints(path, no, words, 2, "an edge u v")
                               for no, words in lines))


def _ints(path, no, words, count, what):
    try:
        if len(words) == count:
            return tuple(int(w) for w in words)
    except ValueError:
        pass
    raise CliError("%s line %d: expected %d integer%s (%s), got %r"
                   % (path, no, count, "s" if count > 1 else "", what,
                      " ".join(words)))


def _parse_family(spec):
    # e.g. "cycle:4", "complete_bipartite:2,3", "star:3"
    kind, _, rest = spec.partition(":")
    if not rest:
        raise CliError("family spec needs parameters, e.g. cycle:4")
    try:
        params = [int(p) for p in rest.split(",")]
    except ValueError:
        raise CliError("family parameters must be integers, got %r" % rest)
    return family(kind, *params)


def _ring(flag):
    return ZZ if flag == "Z" else QQ


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _add_graph_source(p):
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--edges-file", dest="edge_file",
                   help="file: first line n, then one edge per line")
    p.add_argument("--family", dest="family_spec",
                   help="family spec, e.g. cycle:4, star:3, complete_bipartite:2,3")


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser():
    parser = _Parser(
        prog="distideal",
        description="distance ideals, Groebner bases and Smith normal forms "
                    "of small connected graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="print the generalized distance matrix")
    _add_graph_source(p)
    _add_format(p)

    p = sub.add_parser("ideals", help="distance ideals and Groebner bases")
    _add_graph_source(p)
    _add_format(p)
    p.add_argument("--ring", choices=("Z", "Q"), default="Z")
    p.add_argument("--index", type=int, default=None,
                   help="single ideal index (default: all)")
    p.add_argument("--allow-large", action="store_true",
                   help="lift the n<=%d minor-enumeration guard"
                   % MAX_MINOR_N)

    p = sub.add_parser("snf", help="Smith normal form of the distance matrix")
    _add_graph_source(p)
    _add_format(p)
    p.add_argument("--kind", choices=("distance", "distance-laplacian"),
                   default="distance")

    p = sub.add_parser("charpoly", help="distance characteristic polynomial")
    _add_graph_source(p)
    _add_format(p)

    p = sub.add_parser("classify", help="corpus classification check")
    _add_format(p)
    p.add_argument("--ring", choices=("Z", "R"), default="Z")
    p.add_argument("--nmax", type=int, default=6)

    p = sub.add_parser("families", help="verify closed-form family theorems")
    _add_format(p)
    p.add_argument("action", choices=("verify",))

    p = sub.add_parser("corpus", help="enumerate the connected corpus")
    _add_format(p)
    p.add_argument("--nmax", type=int, default=6)

    return parser


def _render_matrix(g):
    """Rendered entries of D(G, X) and their column-aligned text lines."""
    rows = [[e.render() for e in row]
            for row in generalized_distance_matrix(g).entries]
    width = max(len(s) for row in rows for s in row)
    return rows, ["[" + "  ".join(s.rjust(width) for s in row) + "]"
                  for row in rows]


def cmd_matrix(args):
    g = _load_graph(args)
    rows, lines = _render_matrix(g)
    _emit(args, {"schema": "v1", "kind": "matrix", "graph6": emit_graph6(g),
                 "rows": rows}, "\n".join(lines))
    return 0


def cmd_ideals(args):
    g = _load_graph(args)
    if g.n > MAX_MINOR_N and not args.allow_large:
        raise CliError("distance ideals need allow_large for n=%d" % g.n)
    indices = [args.index] if args.index is not None else None
    report = ideal_report(g, _ring(args.ring), indices)
    lines = _render_matrix(g)[1] if args.format == "text" else []
    for rec in report["ideals"]:
        lines.append("Distance ideal of size %d (%s)" %
                     (rec["i"], "trivial" if rec["trivial"] else "nontrivial"))
        lines.append("  [" + ", ".join(rec["groebner_basis"]) + "]")
    lines.append("phi = %d" % report["phi"])
    _emit(args, report, "\n".join(lines))
    return 0


def cmd_snf(args):
    g = _load_graph(args)
    res = (distance_snf(g) if args.kind == "distance"
           else distance_laplacian_snf(g))
    payload = {"schema": "v1", "kind": "snf", "graph6": emit_graph6(g),
               "matrix_kind": args.kind,
               "invariant_factors": list(res.factors)}
    _emit(args, payload, " ".join(str(f) for f in res.factors))
    return 0


def cmd_charpoly(args):
    g = _load_graph(args)
    p, roots = char_poly_distance(g)
    payload = {"schema": "v1", "kind": "charpoly", "graph6": emit_graph6(g),
               "poly": p.render(), "integer_roots": roots}
    _emit(args, payload, "%s\ninteger roots: %s" % (p.render(), roots))
    return 0


def cmd_classify(args):
    report = classify_mod.corpus_report(args.nmax, args.ring)
    payload = report.to_json()
    text = ("pass %d/%d, disagreements %d, minimal forbidden %s"
            % (report.passing, report.total, len(report.disagreements),
               "ok" if report.minimal_forbidden else "FAILED"))
    _emit(args, payload, text)
    return 0 if report.ok else 2


def cmd_families(args):
    rows = families_mod.verification_table()
    payload = {"schema": "v1", "kind": "families", "rows": rows}
    lines = ["%-9s n=%-2d m=%-2d %s" %
             (r["kind"], r["n"], r["m"], "pass" if r["ok"] else "FAIL")
             for r in rows]
    _emit(args, payload, "\n".join(lines))
    return 0 if all(r["ok"] for r in rows) else 2


def cmd_corpus(args):
    counts = {}
    graph6s = []
    for g in enumerate_connected(args.nmax):
        counts[g.n] = counts.get(g.n, 0) + 1
        graph6s.append(emit_graph6(g))
    payload = {"schema": "v1", "kind": "corpus", "n_max": args.nmax,
               "counts": {str(k): v for k, v in sorted(counts.items())},
               "graphs": graph6s}
    text = "\n".join(graph6s)
    _emit(args, payload, text)
    return 0


COMMANDS = {
    "matrix": cmd_matrix,
    "ideals": cmd_ideals,
    "snf": cmd_snf,
    "charpoly": cmd_charpoly,
    "classify": cmd_classify,
    "families": cmd_families,
    "corpus": cmd_corpus,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
