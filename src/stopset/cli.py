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
    for flag in ("p", "field", "a", "b", "m", "D"):
        if getattr(args, flag) is not None:
            raise ValueError(f"the code is named twice: --spec and --{flag}")
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


def _add_curve_args(sub, with_m: bool = False, required: bool = True) -> None:
    sub.add_argument("--p", type=int, help="prime field characteristic (shorthand for --field p)")
    sub.add_argument("--field", help="field as 'p', 'p,k' or 'p,k,c0.c1...ck'")
    sub.add_argument("--a", required=required, help="curve coefficient a")
    sub.add_argument("--b", required=required, help="curve coefficient b")
    if with_m:
        sub.add_argument("--m", type=int, required=required, help="pole bound at infinity")
        sub.add_argument("--D", help="evaluation points: 'all-minus-O' or 'x,y;x,y;...'")


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
        role=M.role,
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
    instance = decoder.make_instance(spec, word, erased)
    recovered, residual = decoder.peel(agcode.hstar_rows(spec), instance)
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
    if corrupt is not None:
        return stoptheory.oracle_agreement_check(spec, _corrupted_masks(spec, corrupt), seed=seed)
    # the census `report` prints, then the routes it does not take
    rep = stoptheory.build_report(spec, seed)
    mismatches = list(rep.oracle_mismatches)
    s_m = rep.S_m if rep.S_m is not None else stoptheory.enumerate_S_m(spec)
    if len(s_m) != rep.S_m_count:
        mismatches.append({"check": "s_m-listing", "enumerate": len(s_m), "dp": rep.S_m_count})
    G = stoptheory.is_subgroup_minus_O(spec.curve, spec.D)
    if G is not None:
        formula = count_S_m(G, spec.m)
        if formula != rep.S_m_count:
            mismatches.append({"check": "distribution", "formula": formula, "dp": rep.S_m_count})
    try:
        stoptheory.build_S_m_plus(spec, s_m)
    except IntegrityError as exc:
        mismatches.append({"check": "disjoint-extension", "detail": str(exc)})
    try:
        a_m = agcode.weight_enumerator(spec)[spec.m]
    except IntegrityError as exc:
        # the minimum distance below reads the same enumerator
        mismatches.append({"check": "weight-enumerator", "detail": str(exc)})
        return mismatches
    if a_m != (spec.field.q - 1) * rep.S_m_count:
        mismatches.append({"check": "weight-enumerator", "A_m": a_m, "s_m_count": rep.S_m_count})
    sd, md = rep.stopping_distance, agcode.residue_min_distance(spec)
    if sd != md:
        mismatches.append({"check": "stopping-distance", "stopping": sd, "min_distance": md})
    return mismatches


def _corrupted_masks(spec, corrupt: int) -> frozenset[int]:
    """Support masks of H* with one entry of one row altered; the fault
    injection hook behind the verification smoke test.

    The rows are the q^m - 1 nonzero dual words in coefficient-odometer
    order: row r is the sum of c_i G_i over the rows G_i of the generator
    matrix, where c_0..c_(m-1) are the base-q digits of r + 1, c_0 the most
    significant.  The entry starts at row `corrupt` mod #rows, column
    `corrupt` mod n, in row-major order; a nonzero entry becomes 0 and a
    zero entry 1, which flips that bit of the row's support.  The row's
    q - 1 >= 4 scalar multiples keep its old support in the set, so the
    faulty supports are the clean ones, read from the H* census, plus the
    flipped one.  While that adds nothing, the next entry is tried instead,
    so every `corrupt` injects a fault.  Only the rows it tries are built."""
    clean = agcode.hstar_census(spec).masks
    f, n = spec.field, spec.n
    G = agcode.generator_matrix(spec).entries
    rows = f.q ** spec.m - 1
    entries = rows * n
    start = corrupt % rows * n + corrupt % n
    support, at = 0, None
    for k in range(start, start + entries):
        row, col = divmod(k % entries, n)
        if row != at:
            word, digits = (0,) * n, row + 1
            for g in reversed(G):
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


def _groupcount_args(sp) -> None:
    sp.add_argument("--group", required=True, help="cyclic factors, e.g. 2x4")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--target", default="", help="coordinates, e.g. 0,2 (default identity)")


def _report_args(sp) -> None:
    _add_curve_args(sp, with_m=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _verify_args(sp) -> None:
    sp.add_argument("--max-q", type=int, default=7)
    sp.add_argument("--max-m", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--corrupt", type=int, default=None, help="fault injection: alter one dual entry")


def _mds_args(sp) -> None:
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")


def _decode_args(sp) -> None:
    _add_curve_args(sp, with_m=True, required=False)
    sp.add_argument("--spec", help="JSON file with field/a/b/m/D instead of flags")
    sp.add_argument("--erased", required=True, help="positions, e.g. 1,2,6")
    sp.add_argument("--codeword", default="zero", help="'zero' or comma-separated elements")


# name -> (help, a function that adds the command's arguments but --out, handler)
_COMMANDS = {
    "points": ("list the rational points of a curve", _add_curve_args, _cmd_points),
    "structure": ("invariant factors of the curve group", _add_curve_args, _cmd_structure),
    "groupcount": ("count k-subsets of G\\{0} with a given sum", _groupcount_args, _cmd_groupcount),
    "gen": ("emit the evaluation (dual generator) matrix", lambda sp: _add_curve_args(sp, with_m=True), _cmd_gen),
    "report": ("full stopping-set census for one code", _report_args, _cmd_report),
    "verify": ("sweep small curves: classification vs oracle vs formulas", _verify_args, _cmd_verify),
    "mds": ("stopping-set distribution of an MDS [n, k] code", _mds_args, _cmd_mds),
    "decode": ("peel erasures over the full dual codebook", _decode_args, _cmd_decode),
}


class _Flags:
    """A command's flags, recorded from the add_argument and set_defaults
    calls that declare them on the tree, and a read of plain argv by them.

    parse(tokens) returns the argparse.Namespace the command's subparser
    builds from tokens when they are `--flag value` pairs, every flag an
    exact declared option string given once, no value starting with '-',
    and every value and string default passing its type and choices, with
    every required flag present.  Otherwise it returns None and the caller
    lets the tree parse: help, usage errors, abbreviations, `--flag=value`,
    option-like values and repeated flags."""

    _MODELLED = {"type", "required", "default", "choices", "help"}

    def __init__(self) -> None:
        self.flags: dict[str, tuple] = {}  # option string -> (dest, type, required, default, choices)
        self.defaults: dict = {}
        self.plain = True  # every declaration is of a kind parse models

    def add_argument(self, flag: str, *more: str, **kw) -> None:
        self.plain &= not more and flag.startswith("--") and kw.keys() <= self._MODELLED
        dest = flag.lstrip("-").replace("-", "_")
        self.flags[flag] = (dest, kw.get("type"), kw.get("required", False), kw.get("default"), kw.get("choices"))

    def set_defaults(self, **kw) -> None:
        self.defaults.update(kw)

    def parse(self, tokens: list[str]) -> argparse.Namespace | None:
        given = dict(zip(tokens[::2], tokens[1::2]))
        if not self.plain or len(tokens) != 2 * len(given) or not given.keys() <= self.flags.keys():
            return None  # a stray or dangling token, a repeated flag, or a flag not declared as written
        args = argparse.Namespace()
        for flag, (dest, type_, required, default, choices) in self.flags.items():
            if flag in given:
                text = given[flag]
                if text.startswith("-"):
                    return None
            elif required:
                return None
            elif isinstance(default, str):
                text, choices = default, None  # argparse converts a string default but checks no choice
            else:
                setattr(args, dest, default)
                continue
            try:
                value = text if type_ is None else type_(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if choices is not None and value not in choices:
                return None
            setattr(args, dest, value)
        vars(args).update(self.defaults)
        # two declarations of one name are argparse's to resolve
        return args if len(vars(args)) == len(self.flags) + len(self.defaults) else None


def _command(name: str, sp):
    """Declare one command's flags on sp: a subparser of the whole tree, or
    the _Flags that main reads plain argv with."""
    _, add_args, func = _COMMANDS[name]
    add_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(command=name, func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree; main builds it only when _Flags.parse
    declines the argv."""
    parser = argparse.ArgumentParser(
        prog="stopset",
        description="Stopping sets of codes from elliptic curves over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command(name, sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _command(argv[0], _Flags()).parse(argv[1:]) if argv and argv[0] in _COMMANDS else None
    if args is None:
        # help, usage errors and the forms the plain read declines
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
