"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 a
desk-scale size bound was exceeded.  All JSON output carries "schema": 1,
serializes field elements as strings, and is byte-identical across runs
for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import agcode, decoder, stoptheory
from .curve import EllipticCurve, group_structure, hasse_bound, parse_point, point_str, rational_points, require_census
from .errors import IntegrityError, SizeLimitError
from .ffield import field_str, is_prime, parse_element, parse_field
from .groupcount import AbelianGroup, count_S_m, count_formula

MDS_MAX_N = 4096
POINTS_MAX_ORDER = 2 ** 17  # `points` lists at most this many points (Hasse bound)
GEN_MAX_ENTRIES = 2 ** 20  # `gen` prints at most this many matrix entries, m * |D|
GROUP_MAX_ORDER = 2 ** 40
COUNT_MAX_DIGITS = 4300  # Python's default bound on int-to-str conversion
VERIFY_MAX_CURVES = 2 ** 10  # `verify` tries p^2 pairs (a, b) per prime; primes up to 19 make 1014
VERIFY_MAX_ROWS = 2 ** 17  # `verify` takes an m only if the dual codebook has at most this many (q^m) words
ALL_MINUS_O = "all-minus-O"  # D = every rational point but infinity
_SPEC_KEYS = {"field", "a", "b", "m", "D"}  # the keys of a `decode --spec` document


def _emit(obj, args) -> None:
    """Write to --out or stdout: a str as it is, anything else as JSON."""
    text = obj if isinstance(obj, str) else json.dumps(obj, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _distribution_csv(dist) -> str:
    return "size,count\n" + "".join(f"{i},{t}\n" for i, t in enumerate(dist))


def _int(flag: str, text: str, part: str) -> int:
    """int(part), part of the text given to flag; a usage error names both."""
    try:
        return int(part)
    except ValueError:
        raise ValueError(f"{flag} {text!r}: {part.strip()!r} is not an integer") from None


def _curve_text(args) -> tuple[str, str, str]:
    """(field, a, b) as the flags give them, the field named once."""
    if args.p is not None and args.field is not None:
        raise ValueError("the field is named twice: --p and --field")
    if not args.field and args.p is None:
        raise ValueError("need --p or --field")
    if args.a is None or args.b is None:
        raise ValueError("need --a and --b")
    return args.field if args.p is None else str(args.p), args.a, args.b


def _curve(field_text: str, a: str, b: str, fits) -> EllipticCurve:
    """The curve the texts name, built once fits(q) passes: no table is built first."""
    field = parse_field(field_text)
    fits(field.q)
    return EllipticCurve(field, parse_element(field, a), parse_element(field, b))


def _code_text(args) -> tuple[str, str, str, int, str]:
    """(field, a, b, m, D) as a command names its code: by the flags, or by
    the document of `decode --spec`, never both.  The document is an object
    with strings "field", "a" and "b", an integer "m" (or its digits), and
    "D" as 'all-minus-O' (the default), 'x,y;x,y;...' or a list of 'x,y'
    strings."""
    if getattr(args, "spec", None) is None:
        if args.m is None:
            raise ValueError("need --m (or --spec)")
        return (*_curve_text(args), args.m, ALL_MINUS_O if args.D is None else args.D)
    for flag in _CODE:
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"the code is named twice: --spec and {flag}")
    with open(args.spec) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the spec file must hold a JSON object")
    unknown = sorted(set(doc) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown spec key {unknown[0]!r}; the keys are field, a, b, m and D")
    for key in ("field", "a", "b"):
        if not isinstance(doc.get(key), str):
            raise ValueError(f"spec key {key!r} must be a string")
    m = doc.get("m")
    if isinstance(m, str):
        try:
            m = int(m)
        except ValueError:
            m = None
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError("spec key 'm' must be an integer")
    d_text = doc.get("D", ALL_MINUS_O)
    if isinstance(d_text, list) and all(isinstance(P, str) for P in d_text):
        d_text = ";".join(d_text)
    if not isinstance(d_text, str):
        raise ValueError("spec key 'D' must be a string or a list of 'x,y' strings")
    return doc["field"], doc["a"], doc["b"], m, d_text


def _code(args, fits) -> agcode.EllipticCodeSpec:
    """The code a command names, checked in one order: m >= 1; the command's
    bound fits(q, m, n) with n the Hasse bound for all-minus-O, else the
    number of --D entries; then the curve, the points of D and m < n."""
    field_text, a, b, m, d_text = _code_text(args)
    if m < 1:
        raise ValueError(f"need 0 < m < n, got m={m}")
    parts = None if d_text == ALL_MINUS_O else [part for part in d_text.split(";") if part.strip()]
    E = _curve(field_text, a, b, lambda q: fits(q, m, hasse_bound(q) if parts is None else len(parts)))
    if parts is None:
        return agcode.spec_all_points(E, m)
    return agcode.EllipticCodeSpec(E, tuple(parse_point(E, part) for part in parts), m)


def _header(E: EllipticCurve, **fields) -> dict:
    """The JSON head every curve command prints: schema, field, a, b, then
    the command's own fields."""
    text = E.field.format_element
    return {"schema": 1, "field": field_str(E.field), "a": text(E.a), "b": text(E.b), **fields}


def _code_header(spec: agcode.EllipticCodeSpec, **fields) -> dict:
    """The head of `gen`, `report` and `decode`: the curve's, then m and n."""
    return _header(spec.curve, m=spec.m, n=spec.n, **fields)


def _points_fits(q: int) -> None:
    if hasse_bound(q) > POINTS_MAX_ORDER:
        raise SizeLimitError(f"up to {hasse_bound(q)} points exceed the listing bound {POINTS_MAX_ORDER}")


def _cmd_points(args) -> int:
    E = _curve(*_curve_text(args), _points_fits)
    pts = rational_points(E)
    payload = _header(E, count=len(pts))
    text = E.field.format_element
    payload["points"] = ["inf" if P.is_infinity else [text(P.x), text(P.y)] for P in pts]
    _emit(payload, args)
    return 0


def _cmd_structure(args) -> int:
    E = _curve(*_curve_text(args), require_census)
    gs = group_structure(E)
    payload = _header(
        E, order=gs.order, m1=gs.m1, m2=gs.m2, generators=[point_str(E.field, g) for g in gs.generators]
    )
    _emit(payload, args)
    return 0


def _cmd_groupcount(args) -> int:
    factors = [_int("--group", args.group, d) for d in args.group.lower().split("x")]
    order = math.prod(factors)
    if min(factors) > 0 and order > GROUP_MAX_ORDER:
        raise SizeLimitError(f"group order ({order.bit_length()} bits) exceeds the bound {GROUP_MAX_ORDER}")
    G = AbelianGroup.from_cyclic_factors(factors)
    if 0 <= args.k < G.order:
        # the count is at most C(N - 1, k); log-gamma sizes it unevaluated
        log_c = math.lgamma(G.order) - math.lgamma(args.k + 1) - math.lgamma(G.order - args.k)
        if log_c / math.log(10) >= COUNT_MAX_DIGITS - 1:
            raise SizeLimitError(
                f"the count may reach {COUNT_MAX_DIGITS} digits: C({G.order - 1}, {args.k}) does"
            )
    if args.target:
        b = G.element(_int("--target", args.target, c) for c in args.target.split(","))
    else:
        b = G.identity()
    count = count_formula(G, args.k, b)
    payload = {
        "schema": 1,
        "group": list(G.invariant_factors),
        "k": args.k,
        "target": list(b),
        "count": count,
    }
    _emit(payload, args)
    return 0


def _gen_fits(q: int, m: int, n: int) -> None:
    if m * n > GEN_MAX_ENTRIES:
        raise SizeLimitError(f"up to m * |D| = {m * n} matrix entries exceed the bound {GEN_MAX_ENTRIES}")


def _cmd_gen(args) -> int:
    spec = _code(args, _gen_fits)
    M = agcode.generator_matrix(spec)
    payload = _code_header(
        spec,
        D=[point_str(spec.field, P) for P in spec.D],
        role="generator",
        matrix=[[spec.field.format_element(e) for e in row] for row in M.entries],
    )
    _emit(payload, args)
    return 0


def _cmd_report(args) -> int:
    spec = _code(args, lambda q, m, n: require_census(q))
    rep = stoptheory.build_report(spec, seed=args.seed)
    if args.format == "csv":
        _emit(_distribution_csv(rep.distribution), args)
        return 0
    payload = _code_header(
        spec,
        D=[point_str(spec.field, P) for P in spec.D],
        group={"m1": rep.group.m1, "m2": rep.group.m2},
        s_m_count=rep.S_m_count,
        s_m=[list(A) for A in rep.S_m] if rep.S_m is not None else None,
        distribution=list(rep.distribution),
        stopping_distance=rep.stopping_distance,
        oracle_agreement=rep.oracle_agreement,
    )
    _emit(payload, args)
    return 0


def _cmd_mds(args) -> int:
    if args.n > MDS_MAX_N:
        raise SizeLimitError(f"n = {args.n} exceeds the bound {MDS_MAX_N}")
    dist = agcode.mds_distribution(args.n, args.k)
    if args.format == "csv":
        _emit(_distribution_csv(dist), args)
        return 0
    payload = {"schema": 1, "n": args.n, "k": args.k, "distribution": list(dist)}
    _emit(payload, args)
    return 0


def _cmd_decode(args) -> int:
    spec = _code(args, agcode.require_stream)
    f = spec.field
    if args.codeword == "zero":
        word = [0] * spec.n
    else:
        word = [parse_element(f, t) for t in args.codeword.split(",")]
    erased = [_int("--erased", args.erased, i) for i in args.erased.split(",") if i.strip()]
    G = agcode.generator_matrix(spec)
    instance = decoder.make_instance(G, word, erased)
    recovered, residual = decoder.peel(agcode.hstar_rows(G), instance)
    payload = _code_header(
        spec,
        erased=sorted(instance.erased),
        recovered=[None if v is None else f.format_element(v) for v in recovered],
        residual=sorted(residual),
        fully_recovered=not residual,
    )
    _emit(payload, args)
    return 0


# ---------------------------------------------------------------------------
# verify: sweep small instances, pitting the classification against the
# matrix oracle and the counting formula against enumeration


def _verify_instance(spec, seed: int, corrupt: int | None) -> list[dict]:
    G = agcode.generator_matrix(spec)
    if corrupt is not None:
        return stoptheory.oracle_agreement_check(spec, _corrupted_masks(G, corrupt), seed=seed)
    # the census `report` prints, then the routes it does not take
    rep = stoptheory.build_report(spec, seed)
    mismatches = list(rep.oracle_mismatches)
    s_m = rep.S_m if rep.S_m is not None else stoptheory.enumerate_S_m(spec)
    if len(s_m) != rep.S_m_count:
        mismatches.append({"check": "s_m-listing", "enumerate": len(s_m), "dp": rep.S_m_count})
    group = stoptheory.is_subgroup_minus_O(spec.curve, spec.D)
    if group is not None:
        formula = count_S_m(group, spec.m)
        if formula != rep.S_m_count:
            mismatches.append({"check": "distribution", "formula": formula, "dp": rep.S_m_count})
    try:
        stoptheory.build_S_m_plus(spec, s_m)
    except IntegrityError as exc:
        mismatches.append({"check": "disjoint-extension", "detail": str(exc)})
    try:
        a_m = agcode.weight_enumerator(G)[spec.m]
    except IntegrityError as exc:
        # the minimum distance below reads the same enumerator
        mismatches.append({"check": "weight-enumerator", "detail": str(exc)})
        return mismatches
    if a_m != (spec.field.q - 1) * rep.S_m_count:
        mismatches.append({"check": "weight-enumerator", "A_m": a_m, "s_m_count": rep.S_m_count})
    sd, md = rep.stopping_distance, agcode.residue_min_distance(G)
    if sd != md:
        mismatches.append({"check": "stopping-distance", "stopping": sd, "min_distance": md})
    return mismatches


def _corrupted_masks(G: agcode.CodeMatrix, corrupt: int) -> frozenset[int]:
    """Support masks of H* with one entry of one row altered; the fault
    injection hook behind the verification smoke test.

    The rows are the q^m - 1 nonzero words of the row space of G's m rows
    G_i, in coefficient-odometer order: row r is the sum of c_i G_i, where
    c_0..c_(m-1) are the base-q digits of r + 1, c_0 the most significant.
    The entry starts at row `corrupt` mod #rows, column `corrupt` mod n, in
    row-major order; a nonzero entry becomes 0 and a zero entry 1, which
    flips that bit of the row's support.  The row's q - 1 >= 4 scalar
    multiples keep its old support in the set, so the faulty supports are
    the clean ones, read from the H* census, plus the flipped one.  While
    that adds nothing, the next entry is tried instead, so every `corrupt`
    injects a fault.  Only the rows it tries are built."""
    clean = agcode.hstar_census(G).masks
    f, n = G.field, G.ncols
    rows = f.q ** G.nrows - 1
    entries = rows * n
    start = corrupt % rows * n + corrupt % n
    support, at = 0, None
    for k in range(start, start + entries):
        row, col = divmod(k % entries, n)
        if row != at:
            word, digits = (0,) * n, row + 1
            for g in reversed(G.entries):
                digits, c = divmod(digits, f.q)
                word = tuple(f.add_val(w, f.mul_val(c, v)) for w, v in zip(word, g))
            support, at = agcode.row_support(word), row
        flipped = support ^ (1 << col)
        if flipped and flipped not in clean:
            return clean | {flipped}
    raise ValueError("no single-entry change alters the supports of H*")


def _verify_primes(max_q: int) -> list[int]:
    """The primes 5 <= p <= max_q of the sweep, refused as soon as their
    p^2 coefficient pairs (a, b) pass VERIFY_MAX_CURVES."""
    primes, pairs = [], 0
    for p in filter(is_prime, range(5, max_q + 1, 2)):
        pairs += p * p
        if pairs > VERIFY_MAX_CURVES:
            raise SizeLimitError(f"primes up to {p} give {pairs} curves (a, b), past the sweep bound {VERIFY_MAX_CURVES}")
        primes.append(p)
    return primes


def _verify_specs(primes: list[int], max_m: int):
    """All (curve, m) instances in the sweep: every nonsingular curve over
    each prime field F_p, every m in [2, max_m] with m < n and a dual
    codebook of at most VERIFY_MAX_ROWS words."""
    for p in primes:
        field = parse_field(str(p))
        for av, bv in itertools.product(range(p), repeat=2):
            try:
                E = EllipticCurve(field, av, bv)
            except ValueError:
                continue
            n = len(rational_points(E)) - 1
            for m in range(2, min(max_m, n - 1) + 1):
                if field.q ** m <= VERIFY_MAX_ROWS:
                    yield agcode.spec_all_points(E, m)


def _cmd_verify(args) -> int:
    instances = 0
    mismatches = []
    report: dict = {"schema": 1, "max_q": args.max_q, "max_m": args.max_m}
    if args.corrupt is not None:
        report["corrupted"] = True
    for spec in _verify_specs(_verify_primes(args.max_q), args.max_m):
        found = _verify_instance(spec, args.seed, args.corrupt)
        instances += 1
        for rec in found:
            rec.setdefault(
                "curve",
                {"field": str(spec.field.p), "a": str(spec.curve.a), "b": str(spec.curve.b)},
            )
            rec.setdefault("m", spec.m)
        mismatches += found
        if args.corrupt is not None:
            break  # fault injection targets the first instance only
    if not instances:
        raise ValueError(f"the sweep with --max-q {args.max_q} and --max-m {args.max_m} is empty")
    report["instances"] = instances
    report["mismatch_count"] = len(mismatches)
    report["mismatches"] = mismatches[:50]
    _emit(report, args)
    if mismatches:
        sys.stderr.write("verification mismatch\n")
        return 1
    return 0


# A flag's argparse keywords, limited to the five _read models: type,
# required, default, choices and help.
_CURVE = {
    "--p": {"type": int, "help": "prime field characteristic (shorthand for --field p)"},
    "--field": {"help": "field as 'p', 'p,k' or 'p,k,c0.c1...ck'"},
    "--a": {"required": True, "help": "curve coefficient a"},
    "--b": {"required": True, "help": "curve coefficient b"},
}
_CODE = {
    **_CURVE,
    "--m": {"type": int, "required": True, "help": "pole bound at infinity"},
    "--D": {"help": "evaluation points: 'all-minus-O' or 'x,y;x,y;...'"},
}
_SEED = {"type": int, "default": 0}
_FORMAT = {"choices": ("json", "csv"), "default": "json"}

# name -> (help, {flag: keywords}, handler); every command also takes --out
_COMMANDS = {
    name: (help_text, {**flags, "--out": {}}, func)
    for name, (help_text, flags, func) in {
        "points": ("list the rational points of a curve", _CURVE, _cmd_points),
        "structure": ("invariant factors of the curve group", _CURVE, _cmd_structure),
        "groupcount": ("count k-subsets of G\\{0} with a given sum", {
            "--group": {"required": True, "help": "cyclic factors, e.g. 2x4"},
            "--k": {"type": int, "required": True},
            "--target": {"default": "", "help": "coordinates, e.g. 0,2 (default identity)"},
        }, _cmd_groupcount),
        "gen": ("emit the evaluation (dual generator) matrix", _CODE, _cmd_gen),
        "report": ("full stopping-set census for one code", {**_CODE, "--seed": _SEED, "--format": _FORMAT}, _cmd_report),
        "verify": ("sweep small curves: classification vs oracle vs formulas", {
            "--max-q": {"type": int, "default": 7},
            "--max-m": {"type": int, "default": 3},
            "--seed": _SEED,
            "--corrupt": {"type": int, "help": "fault injection: alter one dual entry"},
        }, _cmd_verify),
        "mds": ("stopping-set distribution of an MDS [n, k] code", {
            "--n": {"type": int, "required": True},
            "--k": {"type": int, "required": True},
            "--format": _FORMAT,
        }, _cmd_mds),
        "decode": ("peel erasures over the full dual codebook", {
            **{flag: {**kw, "required": False} for flag, kw in _CODE.items()},
            "--spec": {"help": "JSON file with field/a/b/m/D instead of flags"},
            "--erased": {"required": True, "help": "positions, e.g. 1,2,6"},
            "--codeword": {"default": "zero", "help": "'zero' or comma-separated elements"},
        }, _cmd_decode),
    }.items()
}


def _read(name: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace the command's subparser builds from tokens when they
    are `--flag value` pairs: every flag declared exactly as written and
    given once, no value starting with '-', every value passing its type
    and choices, every required flag present.  Otherwise None, and main
    lets the tree parse."""
    _, flags, func = _COMMANDS[name]
    given = dict(zip(tokens[::2], tokens[1::2]))
    if len(tokens) != 2 * len(given) or not given.keys() <= flags.keys():
        return None  # a stray or dangling token, a repeated flag, or a flag not declared as written
    args = argparse.Namespace(command=name, func=func)
    for flag, kw in flags.items():
        text = given.get(flag)
        if text is None:
            if kw.get("required"):
                return None
            value = kw.get("default")  # unconverted: no typed flag has a str default
        elif text.startswith("-"):
            return None
        else:
            try:
                value = kw["type"](text) if "type" in kw else text
            except ValueError:
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built from _COMMANDS.  main builds it only
    when _read declines the argv: for help, usage errors, abbreviations,
    `--flag=value`, option-like values and repeated flags."""
    parser = argparse.ArgumentParser(
        prog="stopset",
        description="Stopping sets of codes from elliptic curves over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, func) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(command=name, func=func)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Plain `--flag value` argv
    is read by _read from the flag table; anything it declines goes to the
    argparse tree build_parser makes from the same table."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        sys.stderr.write(f"size bound exceeded: {exc}\n")
        return 3
    except (ValueError, IntegrityError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
