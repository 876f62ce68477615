"""Command-line front end.

Exit codes: 0 when a checked property holds or a value is produced, 1 when
an identity fails (the witness is printed), 2 on input errors.  Reports on
stdout are deterministic for a fixed --seed; timing goes to stderr.
"""

import argparse
import json
import os
import random
import sys
import time

from . import cohomology as coh
from . import operad, series
from .catalog import all_entries, catalog, enumerate_finite, recognize
from .catalog import entry as catalog_entry
from .algebra import (antiassociativity_coeffs, check_acaa,
                      check_acaa_admissible, check_anticommutative,
                      check_quadratic_identity, check_rho_associative,
                      fingerprint, jacobi_coeffs, QuadIdentityCoeffs)
from .free import free_acaa, graded_dims
from .reps import (_independent, adjoint_representation, ad_matrix, check_representation,
                   h3_faithfulness_search)
from .serialize import (algebra_to_json, load_algebra, matrix_to_json,
                        representation_from_json, save_algebra)


class CliError(Exception):
    pass


class CommandReport:
    __slots__ = ("command", "status", "witness", "payload")

    def __init__(self, command, status, witness=None, payload=None):
        self.command = command
        self.status = status             # "holds" | "fails" | "value"
        self.witness = witness
        self.payload = {} if payload is None else payload

    def to_json(self) -> str:
        data = {"command": self.command, "status": self.status,
                "witness": self.witness, "payload": self.payload}
        return json.dumps(data, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"status: {self.status}"]
        if self.witness is not None:
            lines.append("witness: " + ", ".join(str(w) for w in self.witness))
        for key in sorted(self.payload):
            lines.append(f"{key}: {json.dumps(self.payload[key], sort_keys=True)}")
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return 1 if self.status == "fails" else 0


def _load_algebra_arg(ref: str):
    """Resolve a positional algebra argument: a file path first, then a
    catalog name."""
    if os.path.exists(ref):
        return load_algebra(ref)
    try:
        return catalog_entry(ref).algebra
    except ValueError:
        raise CliError(f"no such file or catalog entry: {ref}")


def _labels(A, indices):
    return [A.label(i) for i in indices]


def cmd_check(args) -> CommandReport:
    A = _load_algebra_arg(args.algebra)
    identity = args.identity
    if identity == "custom":
        if not args.coeffs:
            raise CliError("--identity custom requires --coeffs c1,...,c12")
        parts = args.coeffs.split(",")
        if len(parts) != 12:
            raise CliError("--coeffs needs exactly 12 comma-separated values")
        coeffs = QuadIdentityCoeffs.build(A.field, parts[:6], parts[6:])
        witness = check_quadratic_identity(A, coeffs)
    elif identity == "anticommutative":
        witness = check_anticommutative(A)
    elif identity == "acaa":
        witness = check_acaa(A)
    elif identity == "jacobi":
        witness = check_quadratic_identity(A, jacobi_coeffs(A.field))
    elif identity == "antiassociative":
        witness = check_quadratic_identity(A, antiassociativity_coeffs(A.field))
    elif identity == "rho-associative":
        witness = check_rho_associative(A)
    else:  # acaa-admissible, the last of the choices argparse allows
        witness = check_acaa_admissible(A)
    payload = {"identity": identity, "dim": A.dim}
    if witness is None:
        return CommandReport("check", "holds", payload=payload)
    return CommandReport("check", "fails", witness=_labels(A, witness), payload=payload)


def cmd_free(args) -> CommandReport:
    F = free_acaa(args.generators)
    payload = {"generators": args.generators, "dim": F.dim,
               "graded_dims": graded_dims(args.generators)}
    if args.out:
        save_algebra(F.algebra, args.out)
        payload["path"] = args.out
    else:
        payload["algebra"] = algebra_to_json(F.algebra)
    return CommandReport("free", "value", payload=payload)


def cmd_fingerprint(args) -> CommandReport:
    A = _load_algebra_arg(args.algebra)
    fp = fingerprint(A)
    return CommandReport("fingerprint", "value",
                         payload={"fingerprint": list(fp)})


def cmd_recognize(args) -> CommandReport:
    A = _load_algebra_arg(args.algebra)
    name = recognize(A)
    return CommandReport("recognize", "value", payload={"name": name})


def cmd_enumerate(args) -> CommandReport:
    acaa_count, iso = enumerate_finite(args.dim, args.p, jobs=args.jobs)
    return CommandReport("enumerate", "value",
                         payload={"dim": args.dim, "p": args.p,
                                  "acaa_count": acaa_count, "iso_classes": iso})


def cmd_ad(args) -> CommandReport:
    A = _load_algebra_arg(args.algebra)
    m = ad_matrix(A, args.element.split(","))
    rank = m.rank()
    return CommandReport("ad", "value",
                         payload={"matrix": matrix_to_json(m), "rank": rank,
                                  "kernel_dim": m.ncols - rank})


def cmd_rep_check(args) -> CommandReport:
    if args.h3_search:
        result = h3_faithfulness_search(args.p, args.d, jobs=args.jobs)
        if result is None:
            return CommandReport("rep-check", "value",
                                 payload={"search": "exhausted", "p": args.p,
                                          "d": args.d})
        x, y = result
        return CommandReport(
            "rep-check", "fails", witness=["counterexample pair"],
            payload={"search": "counterexample", "p": args.p, "d": args.d,
                     "x": [list(r) for r in x], "y": [list(r) for r in y]})
    if args.adjoint:
        A = _load_algebra_arg(args.adjoint)
        rep = adjoint_representation(A)
    elif args.representation:
        with open(args.representation) as fh:
            data = json.load(fh)
        source = data.get("source") if isinstance(data, dict) else None
        if not isinstance(source, str):
            raise CliError("representation file lacks a source algebra reference")
        A = _load_algebra_arg(source)
        rep = representation_from_json(data, A)
    else:
        raise CliError("rep-check needs a representation file, --adjoint or --h3-search")
    witness = check_representation(rep)
    if witness is not None:
        law, idx = witness
        return CommandReport("rep-check", "fails",
                             witness=_labels(rep.algebra, idx),
                             payload={"law": law})
    return CommandReport("rep-check", "holds",
                         payload={"faithful": _independent(rep),
                                  "target_dim": rep.target_dim})


def cmd_cohomology(args) -> CommandReport:
    A = _load_algebra_arg(args.algebra)
    w = check_anticommutative(A)
    if w is not None:
        raise CliError(f"precondition failed: not anticommutative at basis pair {w}")
    rng = random.Random(args.seed)
    payload = {"check": args.check, "samples": args.samples, "seed": args.seed}
    if args.check == "d2d1":
        for sample in range(args.samples):
            f = coh.random_endomorphism(A, rng)
            psi = coh.d2_after_d1(A, f)
            if not coh.is_zero_tensor(psi):
                where = next((i, j, k) for i in range(A.dim) for j in range(A.dim)
                             for k in range(A.dim) if any(psi[i][j][k]))
                return CommandReport("cohomology", "fails",
                                     witness=[f"sample {sample}"] + _labels(A, where),
                                     payload=payload)
        return CommandReport("cohomology", "holds", payload=payload)
    if args.check == "cyclic":
        for sample in range(args.samples):
            phi = coh.random_skew_cochain(A, rng)
            w = coh.check_cyclic_sum(A, phi)
            if w is not None:
                return CommandReport("cohomology", "fails",
                                     witness=[f"sample {sample}"] + _labels(A, w),
                                     payload=payload)
        return CommandReport("cohomology", "holds", payload=payload)
    if args.check == "d3d2":
        zero = 0
        for _ in range(args.samples):
            phi = coh.random_skew_cochain(A, rng)
            if coh.is_zero_tensor(coh.d3_after_d2(A, phi)):
                zero += 1
        payload.update({"zero_residuals": zero,
                        "nonzero_residuals": args.samples - zero})
        return CommandReport("cohomology", "value", payload=payload)
    G = coh.infer_grading(A)  # gmap
    for x in range(A.dim):
        d1 = coh.delta1(A, coh.g_map(G, x))
        for i in range(A.dim):
            for j in range(A.dim):
                if G.degrees[i] == 1 and G.degrees[j] == 1 and any(d1[i][j]):
                    return CommandReport("cohomology", "fails",
                                         witness=_labels(A, (x, i, j)), payload=payload)
    return CommandReport("cohomology", "holds", payload=payload)


def cmd_series(args) -> CommandReport:
    if args.series_command == "inverse":
        u = series.minimal_model_series(args.order,
                                        negated_convention=args.negated_convention)
        return CommandReport("series", "value",
                             payload={"order": args.order,
                                      "coeffs": [str(c) for c in u.coeffs]})
    res = series.koszul_residual(series.acaa_generating_series(args.order),  # koszul
                                 series.dual_generating_series(args.order),
                                 args.order, swap_roles=args.swap_roles)
    return CommandReport("series", "value",
                         payload={"order": args.order,
                                  "residual": [str(c) for c in res.coeffs],
                                  "koszul_consistent": res.is_zero()})


def cmd_operad(args) -> CommandReport:
    if args.operad_command == "dims":
        return CommandReport("operad", "value",
                             payload={"acaa": operad.acaa_dims(args.count),
                                      "dual": operad.dual_dims(args.count)})
    pairing = operad.pairing_matrix()  # dual-check
    diag = [str(pairing.entries[i][i]) for i in range(12)]
    rank = operad.cyclic_relation_matrix().rank()
    ok = operad.dual_relations_force_nilpotency()
    payload = {"cyclic_relation_rank": rank, "pairing_diagonal": diag,
               "forces_nilpotency": ok}
    return CommandReport("operad", "holds" if ok else "fails", payload=payload)


def cmd_catalog(args) -> CommandReport:
    if args.dim is not None:
        entries = catalog(args.dim)
    else:
        entries = all_entries()
    payload = {"entries": [
        {"name": e.name, "dim": e.algebra.dim,
         "fingerprint": list(e.fingerprint),
         "description": e.description}
        for e in entries]}
    return CommandReport("catalog", "value", payload=payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acaa",
        description="Exact-arithmetic workbench for anticommutative"
                    " antiassociative algebras.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="verify an identity on an algebra file")
    p.add_argument("--identity", required=True,
                   choices=("anticommutative", "acaa", "jacobi", "antiassociative",
                            "rho-associative", "acaa-admissible", "custom"))
    p.add_argument("--coeffs", help="12 comma-separated coefficients for custom")
    p.add_argument("algebra", help="algebra JSON file or catalog name")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("free", parents=[common], help="construct a free algebra")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--out", help="write the algebra JSON here")
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("fingerprint", parents=[common],
                       help="isomorphism-invariant fingerprint")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("recognize", parents=[common],
                       help="match a small algebra by fingerprint")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("enumerate", parents=[common],
                       help="exhaustive mod-p classification oracle")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("ad", parents=[common], help="adjoint matrix of an element")
    p.add_argument("algebra")
    p.add_argument("--element", required=True,
                   help="comma-separated coordinates, e.g. 1,0,0")
    p.set_defaults(func=cmd_ad)

    p = sub.add_parser("rep-check", parents=[common],
                       help="verify the representation axiom")
    p.add_argument("representation", nargs="?",
                   help="representation JSON file")
    p.add_argument("--adjoint", help="check the adjoint of this algebra")
    p.add_argument("--h3-search", action="store_true",
                   help="exhaust nilpotent anticommuting 3x3 pairs over F_p")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.set_defaults(func=cmd_rep_check)

    p = sub.add_parser("cohomology", parents=[common],
                       help="differential and grading checks")
    p.add_argument("--check", required=True,
                   choices=("d2d1", "cyclic", "d3d2", "gmap"))
    p.add_argument("--algebra", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("series", help="generating series computations")
    series_sub = p.add_subparsers(dest="series_command", required=True)
    q = series_sub.add_parser("inverse", parents=[common],
                               help="minimal-model series")
    q.add_argument("--order", type=int, default=6)
    q.add_argument("--negated-convention", action="store_true")
    q.set_defaults(func=cmd_series)
    q = series_sub.add_parser("koszul", parents=[common],
                               help="functional-equation residual")
    q.add_argument("--order", type=int, default=6)
    q.add_argument("--swap-roles", action="store_true")
    q.set_defaults(func=cmd_series)

    p = sub.add_parser("operad", help="arity dimensions and duality checks")
    operad_sub = p.add_subparsers(dest="operad_command", required=True)
    q = operad_sub.add_parser("dims", parents=[common],
                              help="arity dimensions of both operads")
    q.add_argument("--count", type=int, default=8)
    q.set_defaults(func=cmd_operad)
    q = operad_sub.add_parser("dual-check", parents=[common],
                              help="pairing matrix and dual relations")
    q.set_defaults(func=cmd_operad)

    p = sub.add_parser("catalog", parents=[common], help="list the named algebras")
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        for option in ("jobs", "samples", "order", "count"):
            value = vars(args).get(option, 1)
            if value < 1:
                raise CliError(f"--{option} must be a positive integer, got {value}")
        report = args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - start
    print(report.to_json() if args.format == "json" else report.to_text())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
