"""Command-line interface.

Subcommands: ``mean`` and ``entropy`` apply the operator means/entropies to
matrices read from JSON files, ``rule`` dumps quadrature nodes and weights,
``verify`` runs the inequality suite and writes its JSON report.

Matrix file schema: ``{"dim": n, "entries": [[[re, im] * n] * n]}``.
Exit codes: 0 success, 1 verification violations, 2 input/flag error,
3 numerical non-convergence.  ``--out -`` streams results to stdout; all
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import entropy as entropy_mod
from . import means as means_mod
from .errors import NoConvergence, SectorlabError
from .linalg import MAX_DIM, AccretiveMatrix, _check_integer
from .quadrature import DEFAULT_CONFIG, MAX_NODES, QuadratureConfig, gauss_jacobi, gauss_legendre
from .serialize import to_json
from .verify import (
    CHECKS_BY_ID,
    EnsembleSpec,
    all_theorem_checks_clean,
    reports_to_dict,
    run_all,
    run_checks,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


class UsageError(ValueError):
    pass


def matrix_to_payload(mat: np.ndarray) -> dict:
    return {"dim": int(mat.shape[0]), "entries": np.stack([mat.real, mat.imag], axis=-1).tolist()}


def payload_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise UsageError('matrix file must be an object with "dim" and "entries"')
    dim = _check_integer('"dim"', doc["dim"], 1, MAX_DIM, UsageError)
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise UsageError(f'"entries" must be a list of {dim} rows')
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            raise UsageError(f"row {i} must be a list of {dim} [re, im] pairs")
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)):
                raise UsageError(f"entry ({i}, {j}) must be a [re, im] pair of numbers")
            try:
                re, im = float(cell[0]), float(cell[1])
            except OverflowError:
                raise UsageError(f"entry ({i}, {j}) is an integer beyond the float range") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise UsageError(f"entry ({i}, {j}) is non-finite")
            mat[i, j] = complex(re, im)
    return mat


def read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    return payload_to_matrix(doc)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    a = read_matrix(args.a)
    b = read_matrix(args.b)
    if not args.no_validate:
        try:
            AccretiveMatrix.from_matrix(a)
            AccretiveMatrix.from_matrix(b)
        except SectorlabError as exc:
            raise UsageError(f"input validation failed: {exc}") from exc
    return a, b


def _require_lambda(args) -> float:
    if args.lam is None:
        raise UsageError("--lambda is required for this kind")
    if not (0.0 < args.lam < 1.0):
        raise UsageError(f"--lambda must lie strictly inside (0, 1), got {args.lam}")
    return args.lam


#: The kinds of ``mean`` and ``entropy`` that are closed forms of one pair.
_CLOSED_FORMS = {"arith": means_mod.arithmetic_mean, "harm": means_mod.harmonic_mean}

#: The integral kinds: each is its body over stacked pairs, under one config.
_INTEGRALS = {
    "geom": means_mod._geometric_mean,
    "drury": lambda a, b, lams, cfg: means_mod._drury_mean(a, b, cfg),
    "relative": lambda a, b, lams, cfg: entropy_mod._tsallis_entropy(a, b, [0.0], cfg),
    "tsallis": entropy_mod._tsallis_entropy,
}


def cmd_pair(args) -> int:
    # mean and entropy: one --kind of one pair, with its weight and, for an
    # integral, the node count used and the error estimate.  An integral takes
    # the library's QuadratureConfig with the flags given: --nodes its fixed
    # rule, --tol its bound and --adaptive MAX_NODES as its cap.
    auto = "--adaptive" if args.adaptive else "--tol" if args.tol is not None else None
    if args.nodes is not None and (auto or args.kind in _CLOSED_FORMS):
        raise UsageError("--nodes sets the fixed rule of an integral and does not apply "
                         + (f"with {auto}" if auto else f"to --kind {args.kind}"))
    if auto and args.kind in _CLOSED_FORMS:
        raise UsageError(f"{auto} {'chooses the rule' if args.adaptive else 'sets the error bound'} "
                         f"of an integral and does not apply to --kind {args.kind}")
    if args.kind == "relative" and args.lam is not None:
        raise UsageError("--lambda does not apply to --kind relative")
    a, b = _load_pair(args)
    if args.kind == "drury":
        if args.lam is not None and args.lam != 0.5:
            raise UsageError("drury is the lambda = 1/2 mean; omit --lambda or pass 0.5")
        lam = 0.5
    else:
        lam = None if args.kind == "relative" else _require_lambda(args)
    if args.kind in _CLOSED_FORMS:
        value, nodes_used, error_estimate = _CLOSED_FORMS[args.kind](a, b, lam), None, None
    else:
        given = {"rule_nodes": args.nodes, "tol": args.tol,
                 "max_nodes": MAX_NODES if args.adaptive else None}
        cfg = QuadratureConfig(**{k: v for k, v in given.items() if v is not None})
        res = _INTEGRALS[args.kind](*means_mod._lone(a, b), [lam], cfg)[0]
        value, nodes_used, error_estimate = res.value, res.nodes_used, res.error_estimate
    payload = matrix_to_payload(value)
    payload["meta"] = {"lambda": lam, "nodes_used": nodes_used, "error_estimate": error_estimate}
    _write_text(args.out, to_json(payload))
    return EXIT_OK


def cmd_rule(args) -> int:
    if args.kind == "legendre":
        if args.lam is not None:
            raise UsageError("--lambda does not apply to --kind legendre")
        rule = gauss_legendre(args.nodes)
    else:
        lam = _require_lambda(args)
        rule = gauss_jacobi(args.nodes, alpha=-lam, beta=lam - 1.0)
    doc = {
        "kind": rule.kind,
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "weight_sum": float(np.sum(rule.weights)),
    }
    _write_text("-", to_json(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (0.0 <= args.angle < 1.0):
        raise UsageError(f"--angle is a fraction of pi/2 and must lie in [0, 1), got {args.angle}")
    try:
        lambdas = tuple(float(tok) for tok in args.lambdas.split(","))
    except ValueError as exc:
        raise UsageError(f"--lambdas must be a comma-separated float list: {exc}") from exc
    spec = EnsembleSpec(dim=args.dim, trials=args.trials, seed=args.seed,
                        sector_angle=args.angle * (math.pi / 2), lambda_grid=lambdas)
    if args.only == "":
        raise UsageError("--only must name at least one property id")
    if args.only is not None:
        wanted = args.only.split(",")
        if "" in wanted:
            raise UsageError(f"--only holds an empty property id: {args.only!r}")
        unknown = [w for w in wanted if w not in CHECKS_BY_ID]
        if unknown:
            raise UsageError(f"unknown property ids: {', '.join(unknown)} "
                             f"(known: {', '.join(sorted(CHECKS_BY_ID))})")
        reports = run_checks(spec, wanted)
    else:
        reports = run_all(spec)
    for rep in reports:
        if rep.status == "warning":
            print("WARNING: counterexample search found no violating pair "
                  f"in {rep.trials} trials", file=sys.stderr)
    _write_text(args.report, to_json(reports_to_dict(spec, reports)))
    return EXIT_OK if all_theorem_checks_clean(reports) else EXIT_VIOLATIONS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="sectorlab",
                                     description="Operator means and entropies of accretive matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that mean and entropy share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--lambda", dest="lam", type=float, default=None)
    pair.add_argument("--a", required=True, help="path to the left matrix JSON file")
    pair.add_argument("--b", required=True, help="path to the right matrix JSON file")
    pair.add_argument("--nodes", type=int, default=None,
                      help="node count of a fixed rule for an integral kind, instead of the automatic "
                           f"count from the pair's poles, up to {DEFAULT_CONFIG.max_nodes} nodes")
    pair.add_argument("--adaptive", action="store_true",
                      help=f"raise the automatic count's cap to {MAX_NODES} nodes")
    pair.add_argument("--tol", type=float, default=None,
                      help="error bound of the automatic count, relative to ||A||_F "
                           f"(default {DEFAULT_CONFIG.tol:g})")
    pair.add_argument("--out", default="-")
    pair.add_argument("--no-validate", action="store_true",
                      help="skip the accretivity check on inputs")

    mean = sub.add_parser("mean", parents=[pair], help="weighted mean of two matrices")
    mean.add_argument("--kind", required=True, choices=["arith", "harm", "geom", "drury"])
    mean.set_defaults(handler=cmd_pair)

    ent = sub.add_parser("entropy", parents=[pair], help="relative or Tsallis operator entropy")
    ent.add_argument("--kind", required=True, choices=["relative", "tsallis"])
    ent.set_defaults(handler=cmd_pair)

    rule = sub.add_parser("rule", help="dump quadrature nodes and weights")
    rule.add_argument("--kind", required=True, choices=["legendre", "jacobi"])
    rule.add_argument("--lambda", dest="lam", type=float, default=None)
    rule.add_argument("--nodes", type=int, default=64)
    rule.set_defaults(handler=cmd_rule)

    ver = sub.add_parser("verify", help="run the inequality verification suite")
    ver.add_argument("--dim", type=int, default=3)
    ver.add_argument("--trials", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--angle", type=float, default=0.4,
                     help="sector half-angle as a fraction of pi/2")
    ver.add_argument("--lambdas", default="0.1,0.5,0.9")
    ver.add_argument("--only", default=None,
                     help="comma-separated property ids to run instead of the full set")
    ver.add_argument("--report", default="-", help="report path, '-' for stdout")
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except SectorlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
