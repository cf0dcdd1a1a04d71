"""Command line front end.

Every command prints one JSON document to stdout and a short human
summary to stderr.  Exit status: 0 for a positive answer, 1 for a
negative one (invalid certificate, no perfect matching, failed checks),
2 for unusable input or refused budgets, 3 when an engine's own
exactness check fails (InternalError), 141 when the reader of stdout
closes it early (as in `matchforge gen ... | head -c 10`); errors
print {"error", "message"}, and a refused budget adds the Budget
field that refused, its limit and how far the run got ({"budget",
"limit", "reached"}).  Rational numbers appear as {"num": "...",
"den": "..."} string pairs so arbitrary precision survives JSON.

Each document carries a manifest: argv, sha256 of file inputs, the
seed, the whole Budget the command ran under (every field, defaults
included, built from its budget flags), package version and wall
time, so a run can be reproduced from its output alone.

Every input file is read, decoded and parsed by _Run.read, which
hashes it for the manifest.  Bytes that are not UTF-8, a certificate
that is not JSON, and every ParseError of the file's format reader end
as a ParseError whose message starts with the file's path, so a
malformed input file exits 2 with one of matchforge's own errors, never
a bare Python one, and the error says which file it was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from . import DEFAULT_SEED, __version__
from .classify import hamiltonian_cycle, is_bipartite, is_bridgeless, tait_coloring
from .errors import (
    BadParameters,
    Budget,
    BudgetExceeded,
    InternalError,
    MatchforgeError,
    NoPerfectMatching,
    ParseError,
)
from .eta import (
    BoundCertificate,
    berge_witness,
    best_maximal_matching_bound,
    cap_certificate,
    cert_from_json,
    cert_to_json,
    encode,
    eta_exact,
    find_cap_matching,
    find_independent_set_bound,
    odd_component_cert,
    verify,
)
from .generators import eta_third_family, gp, named, random_cubic
from .graphs import Graph, format_edge_list, parse_edge_list
from .matching import (
    format_weight_csv,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
    parse_weight_csv,
    random_weights,
    uniform_weights,
)
from .mesh import dual_graph, parse_off, quad_weights, quadrangulate, save_obj
from .reproduce import run_checks

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MATCHFORGE_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise MatchforgeError(f"MATCHFORGE_SEED is not an integer: {env!r}")
    return DEFAULT_SEED


class _Run:
    """Collects manifest data while a command executes."""

    def __init__(self, argv: list[str], seed: int, budget: Budget):
        self.argv = argv
        self.seed = seed
        self.budget = budget
        self.inputs: list[dict] = []
        self.started = time.time()

    def read(self, path: str, parse):
        """What parse makes of the text of the input file at path, which
        is recorded with its sha256.  Bytes that are not UTF-8 are a
        ParseError naming the file, and each error of parse names it too."""
        data = Path(path).read_bytes()
        self.inputs.append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            where = f"{exc.reason} at byte {exc.start}"
            raise ParseError(f"{path}: not UTF-8 text ({where})") from None
        try:
            return parse(text)
        except MatchforgeError as exc:
            exc.args = (f"{path}: {exc}",)
            raise

    def manifest(self) -> dict:
        return {
            "tool": "matchforge",
            "version": __version__,
            "argv": self.argv,
            "inputs": self.inputs,
            "seed": self.seed,
            "budgets": encode(self.budget),
            "elapsed_seconds": round(time.time() - self.started, 6),
        }


def _load_graph(spec: str, run: _Run, rng: random.Random) -> Graph:
    """A graph from an inline spec or an edge-list file.

    Inline forms: name:<label>, gp:<n>,<k>, family:<depth>,
    random:<n>.  Anything else is read as an edge-list path.
    """
    if spec.startswith("name:"):
        return named(spec[5:])
    if spec.startswith("gp:"):
        return gp(*_spec_ints(spec, "gp:<n>,<k>"))
    if spec.startswith("family:"):
        return _family(spec)[0]
    if spec.startswith("random:"):
        return random_cubic(*_spec_ints(spec, "random:<n>"), rng)
    return run.read(spec, parse_edge_list)


def _spec_ints(spec: str, form: str) -> list[int]:
    """The comma-separated ints after the colon of spec, one per field
    of form; anything else is refused with an error naming both."""
    try:
        values = [int(x) for x in spec.partition(":")[2].split(",")]
    except ValueError:
        values = []
    if len(values) != form.count("<"):
        raise MatchforgeError(f"expected {form}, got {spec!r}")
    return values


def _family(spec: str) -> tuple[Graph, frozenset[int]]:
    """The family:<depth> member and its distinguished matching."""
    return eta_third_family(*_spec_ints(spec, "family:<depth>"))


def _certificate(text: str) -> BoundCertificate:
    """The certificate in JSON text; anything else is a ParseError."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ParseError("nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON ({exc.msg} at char {exc.pos})") from None
    except ValueError:  # json reads a number with int(), which has a digit limit
        raise ParseError("a number with too many digits") from None
    return cert_from_json(data)


def _graph_json(g: Graph) -> dict:
    return {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}


def _weights_for(g: Graph, args, run: _Run, rng: random.Random):
    if getattr(args, "weights", None):
        return run.read(args.weights, lambda text: parse_weight_csv(text, g.m))
    if getattr(args, "random_weights", False):
        return random_weights(g, rng)
    return uniform_weights(g)


def _emit(doc: dict, run: _Run, summary: str) -> None:
    doc["manifest"] = run.manifest()
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _frac_str(x: Fraction | None) -> str:
    return "none" if x is None else str(x)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args, run: _Run, rng: random.Random) -> int:
    if args.graph.startswith("family:"):
        g, m = _family(args.graph)
    else:
        g, m = _load_graph(args.graph, run, rng), None
    doc: dict = {"graph": _graph_json(g)}
    flags = getattr(g, "flags", None)
    if flags is not None:
        doc["flags"] = encode(flags)
    if m is not None:
        doc["distinguished_matching"] = sorted(m)
    if args.out:
        Path(args.out).write_text(format_edge_list(g))
    name = getattr(g, "name", args.graph)
    _emit(doc, run, f"{name}: {g.n} vertices, {g.m} edges")
    return EXIT_OK


def _cmd_classify(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    doc: dict = {"n": g.n, "m": g.m}
    cubic = all(g.degree(v) == 3 for v in range(g.n))
    doc["cubic"] = cubic
    ok, bridge = is_bridgeless(g)
    doc["bridgeless"] = ok
    doc["bridge"] = bridge
    bip, _ = is_bipartite(g)
    doc["bipartite"] = bip
    doc["search_timeout"] = False
    doc["tait_colorable"] = None
    doc["tait_coloring"] = None
    doc["snark"] = None
    if cubic:
        try:
            tait = tait_coloring(g, budget=run.budget)
            doc["tait_colorable"] = tait is not None
            doc["tait_coloring"] = list(tait) if tait is not None else None
            doc["snark"] = ok and tait is None
        except BudgetExceeded:
            doc["search_timeout"] = True
    try:
        cycle = hamiltonian_cycle(g, budget=run.budget)
        doc["hamiltonian"] = cycle is not None
        doc["hamiltonian_cycle"] = list(cycle) if cycle else None
    except BudgetExceeded:
        doc["hamiltonian"] = None
        doc["hamiltonian_cycle"] = None
        doc["search_timeout"] = True
    traits = [k for k in ("cubic", "bridgeless", "bipartite", "snark") if doc.get(k)]
    _emit(doc, run, f"n={g.n} m={g.m} " + (" ".join(traits) or "no marked traits"))
    return EXIT_OK


def _cmd_match(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    w = _weights_for(g, args, run, rng)
    if args.perfect:
        m = max_weight_perfect_matching(g, w)
    else:
        m = max_weight_matching(g, w)
    doc = {
        "perfect_required": args.perfect,
        "matching": sorted(m),
        "size": len(m),
        "weight": encode(matching_weight(w, m)),
        "saturates_all": 2 * len(m) == g.n,
    }
    _emit(doc, run, f"matching of size {len(m)}, weight {matching_weight(w, m)}")
    return EXIT_OK


def _cmd_eta_exact(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    r = eta_exact(g, budget=run.budget)
    doc = {"eta": encode(r)}
    _emit(doc, run, f"eta = {r.value}")
    return EXIT_OK


def _cmd_eta_bounds(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    doc: dict = {"lower": None, "upper": None, "notes": []}
    lower = upper = None
    try:
        lower = berge_witness(g, budget=run.budget)
        doc["lower"] = cert_to_json(lower)
    except (BadParameters, BudgetExceeded) as exc:
        doc["notes"].append(f"lower bound skipped: {exc}")
    try:
        upper = best_maximal_matching_bound(g, budget=run.budget)
        doc["upper"] = cert_to_json(upper)
    except BudgetExceeded as exc:
        doc["notes"].append(f"upper bound skipped: {exc}")
    if args.cert_out and upper is not None:
        Path(args.cert_out).write_text(json.dumps(cert_to_json(upper), indent=2) + "\n")
    lo = lower.bound if lower else None
    hi = upper.bound if upper else None
    _emit(doc, run, f"eta in [{_frac_str(lo)}, {_frac_str(hi)}]")
    return EXIT_OK


def _cmd_eta_witness(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    cert: BoundCertificate | None
    if args.kind == "independent":
        if args.size is None:
            raise MatchforgeError("--size is required for kind independent")
        cert = find_independent_set_bound(g, args.size, budget=run.budget)
    elif args.kind == "cap":
        if args.size is None or args.max_cap is None:
            raise MatchforgeError("--size and --max-cap are required for kind cap")
        m = find_cap_matching(g, args.size, args.max_cap, budget=run.budget)
        cert = cap_certificate(g, sorted(m)) if m is not None else None
    elif args.kind == "berge":
        cert = berge_witness(g, budget=run.budget)
    else:
        if not args.edges:
            raise MatchforgeError("--edges is required for kind odd")
        try:
            edge_ids = [int(x) for x in args.edges.split(",")]
        except ValueError:
            raise MatchforgeError(f"expected --edges <id>,<id>,..., got {args.edges!r}") from None
        cert = odd_component_cert(g, edge_ids)
    if cert is None:
        _emit({"certificate": None}, run, "no witness found")
        return EXIT_NEGATIVE
    if args.cert_out:
        Path(args.cert_out).write_text(json.dumps(cert_to_json(cert), indent=2) + "\n")
    _emit({"certificate": cert_to_json(cert)}, run, f"{cert.kind}: bound {cert.bound}")
    return EXIT_OK


def _cmd_cert_verify(args, run: _Run, rng: random.Random) -> int:
    g = _load_graph(args.graph, run, rng)
    cert = run.read(args.certificate, _certificate)
    ok, reason = verify(g, cert)
    doc = {"valid": ok, "reason": reason, "kind": cert.kind, "bound": encode(cert.bound)}
    _emit(doc, run, f"certificate {'accepted' if ok else 'rejected'}: {reason}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_mesh_quadrangulate(args, run: _Run, rng: random.Random) -> int:
    mesh = run.read(args.mesh, parse_off)
    dual = dual_graph(mesh)
    weights = None
    if args.weights:
        weights = run.read(args.weights, lambda text: parse_weight_csv(text, dual.graph.m))
    elif args.random_weights:
        weights = random_weights(dual.graph, rng)
    quad_mesh, report = quadrangulate(mesh, mode=args.mode, weights=weights)
    if args.out:
        save_obj(quad_mesh, args.out)
    doc = {
        "dual": {"n": dual.graph.n, "m": dual.graph.m},
        "report": encode(report),
    }
    _emit(
        doc,
        run,
        f"{report.quad_count} quads, {report.triangle_count} triangles, "
        f"ratio {_frac_str(report.ratio)}",
    )
    return EXIT_OK


def _cmd_mesh_weights(args, run: _Run, rng: random.Random) -> int:
    mesh = run.read(args.mesh, parse_off)
    dual = dual_graph(mesh)
    w = quad_weights(mesh, dual)
    doc = {
        "dual": {"n": dual.graph.n, "m": dual.graph.m},
        "weights": encode(w),
    }
    if args.out:
        Path(args.out).write_text(format_weight_csv(w))
    _emit(doc, run, f"{dual.graph.m} quad qualities computed")
    return EXIT_OK


def _cmd_reproduce(args, run: _Run, rng: random.Random) -> int:
    ids = args.only.split(",") if args.only else None
    outcomes = run_checks(ids=ids, include_gated=args.full, stream=sys.stderr)
    doc = {
        "checks": [
            {
                "id": o.check_id,
                "label": o.label,
                "ok": o.ok,
                "detail": o.detail,
                "seconds": round(o.seconds, 3),
                "limit_seconds": o.limit,
            }
            for o in outcomes
        ],
        "all_ok": all(o.ok for o in outcomes),
    }
    passed = sum(1 for o in outcomes if o.ok)
    _emit(doc, run, f"{passed}/{len(outcomes)} checks passed")
    return EXIT_OK if doc["all_ok"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "graph",
        help="edge-list file, or name:<label> | gp:<n>,<k> | family:<d> | random:<n>",
    )


def count(text: str) -> int:
    """A budget flag's value: an int, refused below 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_budget_arg(p: argparse.ArgumentParser, flag: str, field: str, text: str) -> None:
    """flag sets the Budget field named field, and defaults to its default."""
    p.add_argument(flag, dest=field, type=count, default=getattr(Budget, field),
                   metavar="N", help=text)


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    _add_budget_arg(p, "--maximal-count", "maximal_count", "maximal matching enumeration budget")
    _add_budget_arg(p, "--perfect-count", "perfect_count", "perfect matching enumeration budget")
    _add_budget_arg(p, "--vertex-limit", "vertex_limit", "raise the enumeration vertex limits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchforge",
        description="matching ratios, bound certificates and quad meshing "
        "for cubic graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: MATCHFORGE_SEED or a fixed constant)")
    parser.set_defaults(seed=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gen", help="emit a graph from the generator library")
    _add_graph_arg(p)
    p.add_argument("--out", help="also write an edge-list file")
    p.set_defaults(func=_cmd_gen)

    p = add_parser("classify", help="degree, bridges, colorability, cycles")
    _add_graph_arg(p)
    _add_budget_arg(p, "--node-budget", "search_nodes", "colouring and cycle search node budget")
    p.set_defaults(func=_cmd_classify)

    p = add_parser("match", help="maximum-weight (perfect) matching")
    _add_graph_arg(p)
    p.add_argument("--weights", help="CSV of edge_id,weight")
    p.add_argument("--random-weights", action="store_true")
    p.add_argument("--perfect", action="store_true")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eta", help="the worst-case matching ratio")
    eta_sub = p.add_subparsers(dest="eta_command", required=True)

    q = eta_sub.add_parser("exact", parents=[common], help="exact value with a witness weighting")
    _add_graph_arg(q)
    _add_budget_args(q)
    q.set_defaults(func=_cmd_eta_exact)

    q = eta_sub.add_parser("bounds", parents=[common], help="certificate bounds from both sides")
    _add_graph_arg(q)
    _add_budget_args(q)
    q.add_argument("--cert-out", help="write the upper-bound certificate to a file")
    q.set_defaults(func=_cmd_eta_bounds)

    q = eta_sub.add_parser("witness", parents=[common], help="search for one bound certificate")
    _add_graph_arg(q)
    _add_budget_args(q)
    q.add_argument("--kind", choices=("independent", "cap", "berge", "odd"),
                   required=True)
    q.add_argument("--size", type=int, help="set or matching size to search for")
    q.add_argument("--max-cap", type=int, help="cap target for kind cap")
    _add_budget_arg(q, "--node-budget", "witness_nodes", "search node budget for kind independent")
    q.add_argument("--edges", help="comma-separated edge ids for kind odd")
    q.add_argument("--cert-out", help="write the certificate to a file")
    q.set_defaults(func=_cmd_eta_witness)

    p = sub.add_parser("cert", help="certificate operations")
    cert_sub = p.add_subparsers(dest="cert_command", required=True)
    q = cert_sub.add_parser("verify", parents=[common], help="recheck a certificate from raw data")
    _add_graph_arg(q)
    q.add_argument("certificate", help="certificate JSON file")
    q.set_defaults(func=_cmd_cert_verify)

    p = sub.add_parser("mesh", help="triangle mesh operations")
    mesh_sub = p.add_subparsers(dest="mesh_command", required=True)
    q = mesh_sub.add_parser("quadrangulate", parents=[common], help="pair triangles into quads")
    q.add_argument("mesh", help="OFF file of a closed triangle mesh")
    q.add_argument("--mode", choices=("perfect", "maximum"), default="perfect")
    q.add_argument("--weights", help="CSV of dual edge_id,weight")
    q.add_argument("--random-weights", action="store_true")
    q.add_argument("--out", help="write the quad mesh as OBJ")
    q.set_defaults(func=_cmd_mesh_quadrangulate)
    q = mesh_sub.add_parser("weights", parents=[common], help="emit computed quad qualities")
    q.add_argument("mesh", help="OFF file of a closed triangle mesh")
    q.add_argument("--out", help="write a weights CSV")
    q.set_defaults(func=_cmd_mesh_weights)

    p = add_parser("reproduce", help="re-run the documented result checks")
    p.add_argument("--full", action="store_true", help="include gated slow checks")
    p.add_argument("--only", help="comma-separated check ids")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return _dispatch(argv)
        finally:
            sys.stdout.flush()  # a reader that left raises here, not at exit
    except BrokenPipeError:
        # The reader of stdout has closed it.  Point stdout at devnull so
        # that the flush at exit cannot raise again (the recipe in the
        # documentation of Python's signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _dispatch(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = Budget(**{f.name: getattr(args, f.name) for f in fields(Budget) if f.name in args})
    try:
        run = _Run(argv, _seed_from(args), budget)
        rng = random.Random(run.seed)
        return args.func(args, run, rng)
    except (MatchforgeError, OSError, json.JSONDecodeError, ValueError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceeded):
            doc.update(budget=exc.budget, limit=exc.limit, reached=exc.reached)
        json.dump(doc, sys.stdout)
        sys.stdout.write("\n")
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoPerfectMatching):
            return EXIT_NEGATIVE
        if isinstance(exc, InternalError):
            return EXIT_INTERNAL
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
