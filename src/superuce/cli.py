"""Command line interface.

Subcommands operate either on an algebra file (--file), on a builtin
matrix family (--family/--m/--n/--coeff), or on a directed system of
matrix families (--chain/--system).  Reports are emitted as JSON (the
default) or as flat text; apart from the timing block the JSON output
is byte-identical across runs on the same input.

Exit codes: 0 on success, 1 when a mathematical check or validation
fails, 2 on usage or input errors.  A closed stdout does not change the
exit code and writes nothing to stderr.

Algebra file format (JSON)::

    {
      "kind": "lie" | "assoc",
      "basis": [{"name": "h", "parity": "even"}, ...],
      "products": [{"left": "h", "right": "e",
                    "result": [{"basis": "e", "num": "2", "den": "1"}]}],
      "unit": [{"basis": "1", "num": "1", "den": "1"}]      # assoc only
    }

Pairs absent from "products" are zero; nothing is symmetrized or
completed behind the caller's back, and a (left, right) pair listed
twice is an input error.  Terms of a "result" or of the "unit" that
name the same basis element are summed.  Rational numbers are written
as {"num": "...", "den": "..."}; each part is a JSON integer or a
decimal string of ASCII digits with an optional sign ([+-]?[0-9]+: no
whitespace, underscore or other digit), never a float or boolean.

Chain shorthand: ``sl:5..7:Q[t]/(t^2)`` (or ``sl:3,2..5,2:Q``) builds
the corner-embedding chain of sl families from the start size to the
end size, incrementing the even block first, then the odd block.  A
bare span such as ``5..7`` takes its family from --family and its
coefficients from --coeff (Q when absent); with a full chain or a
system file those two flags are input errors.

System file format (JSON)::

    {
      "kind": "sl",
      "coeff": "Q",
      "members": [[5, 0], [6, 0], [7, 0]],
      "relation": [[0, 1], [1, 2], [0, 2]]
    }

Members are indexed by position, and members and relation pairs are
lists of two integers; every covering pair of the relation (i < j with
no member strictly between) gets the corner embedding as its transition
map, and every other transition is their composite.  A given "relation"
is used as it is, even an empty one: it must be transitive (its
reflexive pairs are implied), and two members with "relation": [] are
not directed.  Without a "relation" key the members form a chain in
file order, each below every later one.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from typing import Optional, Sequence, Tuple

from . import __version__
from .algebra import (
    AssocSuperalgebra,
    CertificateError,
    GradedBasis,
    InvalidAlgebraError,
    LieSuperalgebra,
    ValidationReport,
    centre,
    derived_subalgebra,
    validate_lie,
)
from .cyclic import hc1
from .limits import DirectedPoset, DirectedSystem, theorem_verify
from .linalg import _ratio
from .matrices import (
    build_family,
    coefficient_algebra,
    corner_embedding,
    h_iso_check,
    steinberg_check,
    tau_cocycle,
)
from .uce import build_uce, is_centrally_closed, validate_cocycle

FAMILY_KINDS = ("gl", "sl", "osp", "p", "sq")


class InputError(Exception):
    """Bad file contents or inconsistent arguments (exit code 2)."""


# ------------------------------------------------------------------ rationals

def rational_to_json(x) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _is_json_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def rational_from_json(obj: dict):
    """{"num": ..., "den": ...}, each a decimal string (ASCII [+-]?[0-9]+)
    or a JSON integer; an int when den divides num, a Fraction otherwise."""
    try:
        num, den = obj["num"], obj["den"]
        for x in (num, den):
            if not (_is_json_int(x) or isinstance(x, str) and _DECIMAL.fullmatch(x)):
                raise ValueError("num and den must be decimal strings or integers")
        return _ratio(int(num), int(den))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {obj!r}: {exc}") from None


def vector_to_json(v, labels) -> list:
    return [{"basis": labels[k], **rational_to_json(x)} for k, x in sorted(v.items())]


# -------------------------------------------------------------- algebra files

def _terms(raw: list, index: dict, what: str) -> dict:
    """The vector of a list of terms; repeated basis names are summed."""
    vec = {}
    for term in raw:
        try:
            k = index[term["basis"]]
        except (KeyError, TypeError):
            raise InputError(f"bad {what} term {term!r}") from None
        x = rational_from_json(term)
        if x:
            vec[k] = vec.get(k, 0) + x
    return {k: x for k, x in vec.items() if x}


def parse_algebra(data: dict):
    """Build a Lie or associative superalgebra from the file format; the
    constructor validates it (InvalidAlgebraError)."""
    if not isinstance(data, dict):
        raise InputError("algebra file must be a JSON object")
    kind = data.get("kind")
    if kind not in ("lie", "assoc"):
        raise InputError("\"kind\" must be \"lie\" or \"assoc\"")
    raw_basis = data.get("basis")
    if not isinstance(raw_basis, list) or not raw_basis:
        raise InputError("\"basis\" must be a non-empty list")
    labels, parities = [], []
    for entry in raw_basis:
        name = entry.get("name") if isinstance(entry, dict) else None
        par = entry.get("parity") if isinstance(entry, dict) else None
        if not isinstance(name, str) or par not in ("even", "odd"):
            raise InputError(f"bad basis entry {entry!r}")
        labels.append(name)
        parities.append(0 if par == "even" else 1)
    if len(set(labels)) != len(labels):
        raise InputError("duplicate basis names")
    index = {lab: i for i, lab in enumerate(labels)}
    d = len(labels)

    table = [[{} for _ in range(d)] for _ in range(d)]
    products = data.get("products", [])
    if not isinstance(products, list):
        raise InputError("\"products\" must be a list")
    seen = set()
    for entry in products:
        try:
            i = index[entry["left"]]
            j = index[entry["right"]]
        except (KeyError, TypeError):
            raise InputError(f"bad product entry {entry!r}") from None
        if (i, j) in seen:
            raise InputError(f"product ({labels[i]}, {labels[j]}) is listed twice")
        seen.add((i, j))
        result = entry.get("result", [])
        if not isinstance(result, list):
            raise InputError(f"bad product entry {entry!r}: \"result\" must be a list")
        table[i][j] = _terms(result, index, "product")

    basis = GradedBasis(labels, parities)
    if kind == "lie":
        return LieSuperalgebra(basis, table)
    raw_unit = data.get("unit")
    if not isinstance(raw_unit, list):
        raise InputError("associative algebra file needs a \"unit\" list")
    unit = _terms(raw_unit, index, "unit")
    return AssocSuperalgebra(basis, table, unit)


def algebra_to_json(alg) -> dict:
    """Inverse of parse_algebra, with products sorted by basis order."""
    labels = alg.basis.labels
    out = {
        "kind": "assoc" if isinstance(alg, AssocSuperalgebra) else "lie",
        "basis": [{"name": lab, "parity": "odd" if p else "even"}
                  for lab, p in zip(labels, alg.basis.parities)],
        "products": [],
    }
    for i in range(alg.dim):
        for j in range(alg.dim):
            cell = alg.table[i][j]
            if cell:
                out["products"].append({
                    "left": labels[i], "right": labels[j],
                    "result": vector_to_json(cell, labels),
                })
    if isinstance(alg, AssocSuperalgebra):
        out["unit"] = vector_to_json(alg.unit, labels)
    return out


# ------------------------------------------------------------------- arguments

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superuce",
        description="Exact central extensions of finite-dimensional Lie superalgebras over Q.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--file", help="algebra file (JSON)")
        p.add_argument("--family", choices=FAMILY_KINDS, help="builtin matrix family")
        p.add_argument("--m", type=int, default=None, help="even block size")
        p.add_argument("--n", type=int, default=0, help="odd block size (default 0)")
        p.add_argument("--coeff", default="Q", help="coefficient algebra name (default Q)")

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("validate", help="check the axioms of an algebra file or family")
    add_input(p)
    add_format(p)

    p = sub.add_parser("uce", help="build the universal central extension")
    add_input(p)
    p.add_argument("--table", action="store_true", help="include structure constants in the report")
    add_format(p)

    p = sub.add_parser("h2", help="dimension and basis of the second homology")
    add_input(p)
    add_format(p)

    p = sub.add_parser("hc1", help="first cyclic homology of an associative superalgebra")
    p.add_argument("--file", help="algebra file (JSON, kind assoc)")
    p.add_argument("--coeff", default=None, help="builtin coefficient algebra name")
    add_format(p)

    p = sub.add_parser("centre", help="centre of a Lie superalgebra")
    add_input(p)
    add_format(p)

    p = sub.add_parser("perfect", help="is the algebra perfect? (exit 1 if not)")
    add_input(p)
    add_format(p)

    p = sub.add_parser("construct", help="emit a builtin family as an algebra file")
    add_input(p)
    add_format(p)

    p = sub.add_parser("cocycle-check", help="validate the supertrace cocycle on sl(m,n;A)")
    add_input(p)
    add_format(p)

    p = sub.add_parser("steinberg-check", help="Steinberg presentation checks inside the extension")
    add_input(p)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)

    p = sub.add_parser("h-iso-check", help="compare the extension of sl(m,n;A) with sl + HC1(A)")
    add_input(p)
    add_format(p)

    p = sub.add_parser("limit-check", help="verify the colimit comparison for a chain or system")
    p.add_argument("--chain", help="shorthand like sl:5..7:Q, or a bare span like 5..7 with --family/--coeff")
    p.add_argument("--family", choices=("gl", "sl"), help="family for a bare-span --chain")
    p.add_argument("--coeff", help="coefficients for a bare-span --chain (default Q)")
    p.add_argument("--system", help="system file (JSON)")
    add_format(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: run and main build it on first use and
    share it, so a later command in the same process does not rebuild it."""
    return build_parser()


def _load_json(path: str) -> Tuple[dict, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _resolve_input(args):
    """(file document or None, family or None, digest bytes) of exactly
    one input source: a file is read but not yet parsed."""
    if args.file and args.family:
        raise InputError("pass --file or --family, not both")
    if args.file:
        data, raw = _load_json(args.file)
        return data, None, raw
    if args.family:
        if args.m is None:
            raise InputError("--family needs --m (and --n for a super block)")
        coeff = coefficient_algebra(args.coeff)
        fam = build_family(args.family, args.m, args.n, coeff)
        return None, fam, f"{args.family}:{args.m},{args.n}:{args.coeff}".encode()
    raise InputError("no input: pass --file or --family")


def _resolve_algebra(args):
    """(algebra, family or None, digest bytes) of the one input source.

    A file is validated as it is parsed; a builtin family is derived from
    validated coefficient algebras and is not re-validated."""
    data, fam, digest = _resolve_input(args)
    return (parse_algebra(data) if fam is None else fam.algebra), fam, digest


def _parse_chain(text: str):
    try:
        kind, span, coeff = text.split(":", 2)
        start, end = span.split("..")

        def size(tok):
            if "," in tok:
                a, b = tok.split(",")
                return int(a), int(b)
            return int(tok), 0

        m1, n1 = size(start)
        m2, n2 = size(end)
    except ValueError:
        raise InputError(f"bad chain {text!r}; expected kind:m[,n]..M[,N]:coeff") from None
    if kind not in ("gl", "sl"):
        raise InputError("chains are supported for gl and sl families")
    if m2 < m1 or n2 < n1:
        raise InputError("chain must be non-decreasing in both blocks")
    members = [(m1, n1)]
    m, n = m1, n1
    while m < m2:
        m += 1
        members.append((m, n))
    while n < n2:
        n += 1
        members.append((m, n))
    return kind, members, coeff


def _family_system(kind: str, members, coeff_name: str, relation=None) -> DirectedSystem:
    coeff = coefficient_algebra(coeff_name)
    fams = [build_family(kind, m, n, coeff) for m, n in members]
    idx = list(range(len(fams)))
    if relation is None:
        relation = [(a, b) for a in idx for b in idx[a + 1:]]
    poset = DirectedPoset(idx, relation)
    morphisms = {(i, j): corner_embedding(fams[i], fams[j]) for i, j in poset.covers}
    return DirectedSystem(poset, {i: fams[i].algebra for i in idx}, morphisms)


def _int_pairs(value, key: str) -> list:
    """A JSON list of two-integer lists, as tuples."""
    if isinstance(value, list) and all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_json_int, p)) for p in value):
        return [tuple(p) for p in value]
    raise InputError(f"bad system file: \"{key}\" must be a list of integer pairs")


def _resolve_system(args) -> Tuple[DirectedSystem, bytes]:
    if bool(args.chain) == bool(args.system):
        raise InputError("pass exactly one of --chain or --system")
    text = args.chain
    if text and ":" not in text:
        if not args.family:
            raise InputError("a bare-span --chain needs --family (and usually --coeff)")
        if args.coeff is None:
            args.coeff = "Q"  # so the argument echo names the coefficients used
        text = f"{args.family}:{text}:{args.coeff}"
    elif args.family or args.coeff is not None:
        raise InputError("--family and --coeff apply to a bare-span --chain only; "
                         "a full --chain or a --system names its own")
    if text:
        kind, members, coeff = _parse_chain(text)
        return _family_system(kind, members, coeff), text.encode()
    data, raw = _load_json(args.system)
    if not isinstance(data, dict):
        raise InputError("system file must be a JSON object")
    kind, coeff = data.get("kind"), data.get("coeff")
    if kind not in ("gl", "sl"):
        raise InputError("system files support gl and sl families")
    if not isinstance(coeff, str):
        raise InputError("bad system file: \"coeff\" must be a coefficient algebra name")
    members = _int_pairs(data.get("members"), "members")
    # an absent relation is the chain over all pairs in file order; a given one is used as is
    relation = _int_pairs(data["relation"], "relation") if "relation" in data else None
    return _family_system(kind, members, coeff, relation), raw


# -------------------------------------------------------------------- commands

def _validity(report: ValidationReport) -> dict:
    return {"valid": report.ok,
            "violations": [{"law": law, "where": where, "detail": detail}
                           for law, where, detail in report.violations]}


def _cmd_validate(args):
    """A file is validated once, as it is parsed: an invalid one's
    violations are the report its InvalidAlgebraError carries."""
    data, fam, digest = _resolve_input(args)
    if fam is not None:
        report = validate_lie(fam.algebra)
    else:
        try:
            parse_algebra(data)
            report = ValidationReport()
        except InvalidAlgebraError as exc:
            report = exc.report
    return _validity(report), (0 if report.ok else 1), digest


def _require_lie(alg):
    if not isinstance(alg, LieSuperalgebra):
        raise InputError("this command needs a Lie superalgebra input")
    return alg


def _cmd_uce(args):
    alg, _, digest = _resolve_algebra(args)
    alg = _require_lie(alg)
    ext = build_uce(alg)
    results = {
        "dim_input": alg.dim,
        "perfect": ext.perfect,
        "dim_uce": ext.dim,
        "dim_kernel": len(ext.kernel),
        "basis": list(ext.u.domain.labels),
        "parities": ["odd" if p else "even" for p in ext.u.domain.parities],
    }
    if ext.perfect:
        results["centrally_closed"] = is_centrally_closed(ext)
    if args.table:
        results["table"] = algebra_to_json(ext.lie)["products"]
    return results, 0, digest


def _cmd_h2(args):
    alg, _, digest = _resolve_algebra(args)
    alg = _require_lie(alg)
    ext = build_uce(alg)
    results = {
        "dim_input": alg.dim,
        "perfect": ext.perfect,
        "dim_h2": len(ext.kernel),
        "vectors": [vector_to_json(v, ext.u.domain.labels) for v in ext.kernel],
    }
    if not ext.perfect:
        results["warning"] = "algebra is not perfect; reported space is the kernel of the canonical map"
    return results, 0, digest


def _cmd_hc1(args):
    if bool(args.file) == bool(args.coeff):
        raise InputError("pass exactly one of --file or --coeff")
    if args.file:
        data, digest = _load_json(args.file)
        alg = parse_algebra(data)
        if not isinstance(alg, AssocSuperalgebra):
            raise InputError("hc1 needs an associative superalgebra (kind assoc)")
    else:
        alg = coefficient_algebra(args.coeff)
        digest = args.coeff.encode()
    space = hc1(alg)
    pairs = space.ambient
    results = {
        "dim_input": alg.dim,
        "supercommutative": alg.is_supercommutative(),
        "dim_pairs": pairs.dim,
        "dim_hc1": space.dim,
        "vectors": [vector_to_json(v, pairs.basis.labels) for v in space.vectors],
    }
    return results, 0, digest


def _cmd_centre(args):
    alg, _, digest = _resolve_algebra(args)
    alg = _require_lie(alg)
    z = centre(alg)
    results = {
        "dim_input": alg.dim,
        "dim_centre": z.dim,
        "vectors": [vector_to_json(v, alg.basis.labels) for v in z.vectors],
    }
    return results, 0, digest


def _cmd_perfect(args):
    alg, _, digest = _resolve_algebra(args)
    alg = _require_lie(alg)
    der = derived_subalgebra(alg)
    ok = der.dim == alg.dim
    results = {"dim_input": alg.dim, "dim_derived": der.dim, "perfect": ok}
    return results, (0 if ok else 1), digest


def _cmd_construct(args):
    alg, fam, digest = _resolve_algebra(args)
    if fam is None:
        raise InputError("construct needs --family")
    results = {
        "dim": alg.dim,
        "kind": fam.kind,
        "m": fam.m,
        "n": fam.n,
        "coeff": args.coeff,
        "algebra": algebra_to_json(alg),
    }
    return results, 0, digest


def _family_args(args, minimum):
    """(family, digest bytes) of the sl family named by --m/--n/--coeff,
    with m + n >= minimum, as _resolve_algebra builds it."""
    if args.file:
        raise InputError("this command works on builtin sl families; pass --family sl")
    if args.family != "sl":
        raise InputError("this command works on sl families only")
    if args.m is None:
        raise InputError("--family needs --m")
    if args.m + args.n < minimum:
        raise InputError(f"need m + n >= {minimum}")
    _, fam, digest = _resolve_algebra(args)
    return fam, digest


def _check_results(rep) -> dict:
    """The fields of a check report, in the order of its __slots__, then ok."""
    return {**{name: getattr(rep, name) for name in type(rep).__slots__}, "ok": rep.ok}


def _cmd_cocycle_check(args):
    fam, digest = _family_args(args, minimum=2)
    tau = tau_cocycle(fam)
    report = validate_cocycle(tau)
    results = {"dim_sl": fam.algebra.dim, "target_dim": len(tau.target.labels), **_validity(report)}
    return results, (0 if report.ok else 1), digest


def _cmd_steinberg(args):
    fam, digest = _family_args(args, minimum=3)
    rep = steinberg_check(fam, seed=args.seed)
    return _check_results(rep), (0 if rep.ok else 1), digest + f":seed={args.seed}".encode()


def _cmd_h_iso(args):
    fam, digest = _family_args(args, minimum=5)
    rep = h_iso_check(fam)
    return _check_results(rep), (0 if rep.ok else 1), digest


def _cmd_limit_check(args):
    system, digest = _resolve_system(args)
    rep = theorem_verify(system)
    ext_top = rep.exts[rep.colim.top]
    # theorem_verify has checked that every member is perfect
    h2_dims = [len(rep.exts[i].kernel) for i in system.poset.elements]
    # the True fields hold whenever theorem_verify returns: phi = id = psi^-1
    # (limits.py:theorem_verify#1) and ker v is central (uce.py:build_uce#1)
    results = {
        "members": len(system.poset.elements),
        "dim_colim": rep.colim.algebra.dim,
        "dim_uce_of_colim": ext_top.dim,
        "dim_colim_of_uce": rep.colim_uce.algebra.dim,
        "phi_is_morphism": True,
        "phi_bijective": True,
        "psi_after_phi_is_id": True,
        "phi_after_psi_is_id": True,
        "h2_dims": h2_dims,
        "h2_of_colim_dim": len(ext_top.kernel),
        "h2_colim_of_kernels_dim": len(rep.kernel),
        "h2_restriction_bijective": True,
        "projection_kernel_dim": len(rep.kernel),
        "projection_kernel_central": True,
        "projection_surjective": rep.surjective,
        "ok": True,
    }
    return results, 0, digest


_COMMANDS = {
    "validate": _cmd_validate,
    "uce": _cmd_uce,
    "h2": _cmd_h2,
    "hc1": _cmd_hc1,
    "centre": _cmd_centre,
    "perfect": _cmd_perfect,
    "construct": _cmd_construct,
    "cocycle-check": _cmd_cocycle_check,
    "steinberg-check": _cmd_steinberg,
    "h-iso-check": _cmd_h_iso,
    "limit-check": _cmd_limit_check,
}


# ------------------------------------------------------------------- reporting

def _argument_echo(args) -> dict:
    skip = {"command", "format"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None or value is False:
            continue
        out[key] = value
    return out


def emit_report(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, indent=2, sort_keys=False)
        stream.write("\n")
        return
    stream.write(f"command: {report['command']}\n")
    for key, value in report["results"].items():
        if isinstance(value, (dict, list)):
            stream.write(f"{key}: {json.dumps(value)}\n")
        else:
            stream.write(f"{key}: {value}\n")
    stream.write(f"elapsed: {report['timing']['seconds']:.3f}s\n")


def run(argv: Sequence[str]) -> Tuple[dict, int]:
    """Parse argv, execute, and return (report, exit_code)."""
    return _execute(_parser().parse_args(argv))


def _execute(args) -> Tuple[dict, int]:
    """Execute parsed arguments and return (report, exit_code)."""
    started = time.perf_counter()
    results, code, digest = _COMMANDS[args.command](args)
    elapsed = time.perf_counter() - started
    report = {
        "command": args.command,
        "version": __version__,
        "arguments": _argument_echo(args),
        "input_digest": hashlib.sha256(digest).hexdigest(),
        "results": results,
        "timing": {"seconds": round(elapsed, 6)},
    }
    return report, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, code = _execute(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidAlgebraError as exc:
        print(f"invalid algebra:\n{exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # precondition violations from the math layer (bad sizes, unknown
        # coefficient names, non-perfect members) are argument errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_report(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the
        # interpreter's final flush of the unwritten rest stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
