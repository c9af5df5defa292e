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
import math
import sys

import numpy as np

from . import entropy as entropy_mod
from . import means as means_mod
from .errors import NoConvergence, SectorlabError
from .linalg import MAX_DIM, AccretiveMatrix
from .quadrature import QuadratureConfig, gauss_jacobi, gauss_legendre
from .serialize import to_json
from .verify import (
    CHECKS_BY_ID,
    EnsembleSpec,
    all_theorem_checks_clean,
    reports_to_dict,
    run_all,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


class UsageError(Exception):
    pass


def matrix_to_payload(mat: np.ndarray) -> dict:
    entries = [[[float(mat[i, j].real), float(mat[i, j].imag)]
                for j in range(mat.shape[1])] for i in range(mat.shape[0])]
    return {"dim": int(mat.shape[0]), "entries": entries}


def payload_to_matrix(doc) -> np.ndarray:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise UsageError('matrix file must be an object with "dim" and "entries"')
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or not (1 <= dim <= MAX_DIM):
        raise UsageError(f'"dim" must be an integer in [1, {MAX_DIM}], got {dim!r}')
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
            re, im = float(cell[0]), float(cell[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise UsageError(f"entry ({i}, {j}) is non-finite")
            mat[i, j] = complex(re, im)
    return mat


def read_matrix(path: str) -> np.ndarray:
    import json

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


def _integral(args, fixed, adaptive, *operands) -> tuple[np.ndarray, int, float | None]:
    # (value, nodes_used, error_estimate) of one integral under --nodes, or
    # --adaptive/--tol; a fixed rule gives no error estimate.
    if args.adaptive:
        res = adaptive(*operands, tol=args.tol)
        return res.value, res.nodes_used, res.error_estimate
    return fixed(*operands, QuadratureConfig(rule_nodes=args.nodes)), args.nodes, None


def _write_result(args, lam: float | None, result: np.ndarray, nodes_used: int | None,
                  error_estimate: float | None) -> int:
    payload = matrix_to_payload(result)
    payload["meta"] = {"lambda": lam, "nodes_used": nodes_used, "error_estimate": error_estimate}
    _write_text(args.out, to_json(payload))
    return EXIT_OK


def cmd_mean(args) -> int:
    a, b = _load_pair(args)
    if args.kind == "drury":
        if args.lam is not None and args.lam != 0.5:
            raise UsageError("drury is the lambda = 1/2 mean; omit --lambda or pass 0.5")
        return _write_result(args, 0.5, *_integral(args, means_mod.drury_mean,
                                                   means_mod.drury_mean_adaptive, a, b))
    lam = _require_lambda(args)
    if args.kind == "geom":
        return _write_result(args, lam, *_integral(args, means_mod.geometric_mean,
                                                   means_mod.geometric_mean_adaptive, a, b, lam))
    mean = {"arith": means_mod.arithmetic_mean, "harm": means_mod.harmonic_mean}[args.kind]
    return _write_result(args, lam, mean(a, b, lam), None, None)


def cmd_entropy(args) -> int:
    a, b = _load_pair(args)
    if args.kind == "relative":
        return _write_result(args, None, *_integral(args, entropy_mod.relative_entropy,
                                                    entropy_mod.relative_entropy_adaptive, a, b))
    lam = _require_lambda(args)
    return _write_result(args, lam, *_integral(args, entropy_mod.tsallis_entropy,
                                               entropy_mod.tsallis_entropy_adaptive, a, b, lam))


def cmd_rule(args) -> int:
    if args.kind == "legendre":
        rule = gauss_legendre(args.nodes)
    else:
        lam = _require_lambda(args)
        rule = gauss_jacobi(args.nodes, alpha=-lam, beta=lam - 1.0)
    doc = {
        "kind": rule.kind,
        "nodes": [float(t) for t in rule.nodes],
        "weights": [float(w) for w in rule.weights],
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
    try:
        spec = EnsembleSpec(dim=args.dim, trials=args.trials, seed=args.seed,
                            sector_angle=args.angle * (math.pi / 2), lambda_grid=lambdas)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.only:
        wanted = args.only.split(",")
        unknown = [w for w in wanted if w not in CHECKS_BY_ID]
        if unknown:
            raise UsageError(f"unknown property ids: {', '.join(unknown)} "
                             f"(known: {', '.join(sorted(CHECKS_BY_ID))})")
        reports = [CHECKS_BY_ID[w](spec) for w in wanted]
    else:
        reports = run_all(spec)
    for rep in reports:
        if rep.property_id == "search_agh_counterexample" and rep.status == "warning":
            print("WARNING: counterexample search found no violating pair "
                  f"in {rep.trials} trials", file=sys.stderr)
    _write_text(args.report, to_json(reports_to_dict(spec, reports)))
    return EXIT_OK if all_theorem_checks_clean(reports) else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sectorlab",
                                     description="Operator means and entropies of accretive matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that mean and entropy share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--lambda", dest="lam", type=float, default=None)
    pair.add_argument("--a", required=True, help="path to the left matrix JSON file")
    pair.add_argument("--b", required=True, help="path to the right matrix JSON file")
    pair.add_argument("--nodes", type=int, default=64)
    pair.add_argument("--adaptive", action="store_true")
    pair.add_argument("--tol", type=float, default=1e-12)
    pair.add_argument("--out", default="-")
    pair.add_argument("--no-validate", action="store_true",
                      help="skip the accretivity check on inputs")

    mean = sub.add_parser("mean", parents=[pair], help="weighted mean of two matrices")
    mean.add_argument("--kind", required=True, choices=["arith", "harm", "geom", "drury"])
    mean.set_defaults(handler=cmd_mean)

    ent = sub.add_parser("entropy", parents=[pair], help="relative or Tsallis operator entropy")
    ent.add_argument("--kind", required=True, choices=["relative", "tsallis"])
    ent.set_defaults(handler=cmd_entropy)

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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
