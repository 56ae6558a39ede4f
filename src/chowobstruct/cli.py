"""Command-line front end.

Every subcommand wraps exactly one library operation and reports the same
mathematical content in text or JSON.  JSON output is canonical: keys are
sorted, every integer is a decimal string (so 53-bit consumers never corrupt
large torsion orders), and parsing plus re-serializing reproduces the bytes.
One recursive writer, dump_json, fixes that layout: two-space indent, strings
escaped to ASCII by the encoder json.dumps uses, tuples as lists.  The rows
`classify --json` streams are framed by the same helpers.

The parser is built once.  When the first argument names a subcommand, run()
parses the rest with that subcommand's parser, which is what the top-level
parser would hand it, and reports leftover arguments with the top-level
parser's own message; every other command line goes through the top-level
parser.  Usage errors and help text are the same bytes either way.

Every subcommand returns its result and run() alone writes it: a dict as
canonical JSON, a str as one line-terminated block, and the chunks `classify`
yields, one per CH^1 coset, as they are computed.  Nothing is written before
the first chunk is ready, so a domain error is printed alone.  A reader that
closes the pipe early (`| head`) ends any subcommand quietly with exit code 0.

Exit codes: 0 success, 1 domain error (infinite group, inapplicable
assumption, unsupported dimension, ambient mismatch, a result integer too
long to print) or output that could not be written, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from .abelian import AbelianPresentation, InfiniteGroupError
from .chow import (
    AmbientMismatchError,
    AmbientSpace,
    ChowClass,
    cup,
    parse_class,
)
from .complement import (
    ComplementModel,
    Direction,
    InapplicableAssumptionError,
    PushforwardAssumption,
    certificate,
    closed_form_check,
    complement_group,
)
from .intlinalg import IntegerMatrix, smith_normal_form
from .obstruction import (
    ChernPair,
    DimensionUnsupportedError,
    Verdict,
    _sweep,
    decide,
)
from .steenrod import sq2


class OutputTooLargeError(Exception):
    """Raised when a result holds an integer with more digits than str() may write."""


DOMAIN_ERRORS = (
    InfiniteGroupError,
    InapplicableAssumptionError,
    DimensionUnsupportedError,
    AmbientMismatchError,
)

# Options whose value is a class literal, which may start with a minus sign.
CLASS_OPTIONS = ("--c1", "--c2", "--a", "--b", "--class")

# The keys of a custom:<file> assumption and the JSON types they take.
CUSTOM_ASSUMPTION_KEYS = {"ambient": str, "degree": (int, str), "direction": str, "generators": list}

# The built-in assumptions by the label each reports, which is also its name on
# the command line.
ASSUMPTIONS = {
    a.label(): a
    for a in (PushforwardAssumption.naive(), PushforwardAssumption.even_degree(), PushforwardAssumption.nori())
}

# One-flag reproductions of the worked examples: ambient, multidegree,
# assumption, and a default Chern pair for `obstruct`.
PRESETS = {
    "bidegree34": {"ambient": "1,3", "degree": "3,4", "assumption": "even-degree", "c1": "0", "c2": "x1*x2"},
    "totaro48": {"ambient": "4", "degree": "48", "assumption": "even-degree", "c1": "x1", "c2": "x1^2"},
    "trento": {"ambient": "4", "degree": "125", "assumption": "naive", "c1": "x1", "c2": "x1^2"},
}
# The `--example` values, as the help text and the unknown-example error list them.
EXAMPLES = "|".join([*PRESETS, "nori:<d>"])


def dump_json(obj) -> str:
    """obj as canonical JSON text, with a final newline."""
    return _json(obj, "\n") + "\n"


def _json(obj, newline: str) -> str:
    """obj written at the indent that `newline` ends with.

    Keys are sorted and strings ASCII-escaped by the encoder json.dumps uses;
    every int but a bool is a quoted decimal, and a tuple is a list.  A
    nonempty list or tuple of plain ints (type int exactly, so no bool), such
    as a matrix row, a diagonal or a coordinate vector, is written in one
    join; every other value goes item by item.  str() of an int longer than
    the interpreter's digit limit raises ValueError here.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _JSON_LITERALS[obj]
    if isinstance(obj, int):
        return '"' + str(obj) + '"'
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        first, sep, last = _json_frame("{", "}", newline)
        return first + sep.join([_json_key(key) + _json(obj[key], inner) for key in sorted(obj)]) + last
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        first, sep, last = _json_frame("[", "]", newline)
        if _PLAIN_INT.issuperset(map(type, obj)):
            return first + '"' + ('"' + sep + '"').join(map(str, obj)) + '"' + last
        return first + sep.join([_json(item, inner) for item in obj]) + last
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_JSON_LITERALS = {None: "null", True: "true", False: "false"}
# superset of the item types of a sequence that holds plain ints only
_PLAIN_INT = frozenset((int,))


def _json_frame(opener: str, closer: str, newline: str) -> tuple[str, str, str]:
    """What a nonempty array or object written at `newline` puts before its
    first member, between two members and after its last."""
    inner = newline + "  "
    return opener + inner, "," + inner, newline + closer


def _json_key(key: str) -> str:
    return encode_basestring_ascii(key) + ": "


def _matrix_text(m: IntegerMatrix) -> str:
    if m.rows == 0:
        return "(empty)"
    text = [list(map(str, row)) for row in m.entries]
    widths = [max(map(len, column)) for column in zip(*text)]
    return "\n".join("[ " + "  ".join(map(str.rjust, row, widths)) + " ]" for row in text)


def _parse_matrix_literal(text: str) -> IntegerMatrix:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix literal is not valid JSON: {exc}") from exc
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError("matrix literal must be a JSON array of arrays")
    return IntegerMatrix(rows)


def _parse_ambient(text: str) -> AmbientSpace:
    return AmbientSpace(tuple(int(p) for p in text.split(",")))


def _parse_assumption(text: str, ambient: AmbientSpace) -> PushforwardAssumption:
    """The named assumption; a custom: file must be written for this ambient."""
    if text in ASSUMPTIONS:
        return ASSUMPTIONS[text]
    if text.startswith("custom:"):
        path = text.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:  # an unreadable file is a usage error, not an output failure
            raise ValueError(str(exc)) from exc
        if not isinstance(payload, dict):
            raise ValueError(f"assumption file {path} must hold a JSON object")
        for key, kind in CUSTOM_ASSUMPTION_KEYS.items():
            value = payload.get(key)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"assumption file {path}: {key!r} is missing or malformed")
        if not all(isinstance(g, str) for g in payload["generators"]):
            raise ValueError(f"assumption file {path}: 'generators' must hold class literals")
        file_ambient = _parse_ambient(payload["ambient"])
        if file_ambient != ambient:
            raise InapplicableAssumptionError(f"assumption file {path} is for {file_ambient}, not {ambient}")
        degree = int(payload["degree"])
        gens = tuple(parse_class(ambient, g, degree=degree) for g in payload["generators"])
        return PushforwardAssumption.custom(ambient, gens, Direction(payload["direction"]), degree)
    raise ValueError(f"unknown assumption {text!r}; use {'|'.join([*ASSUMPTIONS, 'custom:<file>'])}")


def _apply_preset(args: argparse.Namespace):
    name = getattr(args, "example", None)
    if not name:
        return
    if name.startswith("nori:"):
        preset = {"ambient": "4", "degree": name.split(":", 1)[1], "assumption": "nori", "c1": "x1", "c2": "x1^2"}
    elif name in PRESETS:
        preset = PRESETS[name]
    else:
        PARSER.error(f"unknown example {name!r}; use {EXAMPLES}")
    for key, value in preset.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _model_from_args(args) -> ComplementModel:
    ambient = _parse_ambient(args.ambient)
    degrees = tuple(int(p) for p in args.degree.split(","))
    return ComplementModel(ambient, degrees)


def _group_json(group: AbelianPresentation) -> dict:
    return {
        "generators": group.generator_names,
        "relations": group.relations.entries,
        "invariant_factors": group.invariant_factors(),
        "group": group.describe(),
    }


def _cmd_snf(args) -> dict | str:
    mat = _parse_matrix_literal(args.matrix)
    dec = smith_normal_form(mat)
    if args.json:
        return {"diagonal": dec.diagonal, "s": dec.s.entries, "u": dec.u.entries, "v": dec.v.entries}
    return "\n".join(
        [
            "diagonal: " + " ".join(str(d) for d in dec.diagonal),
            "s =", _matrix_text(dec.s),
            "u =", _matrix_text(dec.u),
            "v =", _matrix_text(dec.v),
        ]
    )


def _cmd_group(args) -> dict | str:
    if args.presentation:
        group = AbelianPresentation.from_json(json.loads(args.presentation))
    elif args.relations:
        relations = _parse_matrix_literal(args.relations)
        if args.generators:
            names = [s.strip() for s in args.generators.split(",")]
            # rebuilt to the width of the names, so "[]" presents the free group on them
            group = AbelianPresentation(names, relations.entries)
        else:
            group = AbelianPresentation([f"g{i + 1}" for i in range(relations.cols)], relations)
    else:
        raise ValueError("group needs --relations or --presentation")
    if args.json:
        return _group_json(group)
    return f"invariant factors: {list(group.invariant_factors())}\ngroup: {group.describe()}"


def _class_result(args, result: ChowClass) -> dict | str:
    if args.json:
        return {"degree": result.degree, "result": str(result)}
    return str(result)


def _cmd_cup(args) -> dict | str:
    ambient = _parse_ambient(args.ambient)
    return _class_result(args, cup(parse_class(ambient, args.a), parse_class(ambient, args.b)))


def _cmd_sq2(args) -> dict | str:
    ambient = _parse_ambient(args.ambient)
    return _class_result(args, sq2(parse_class(ambient, args.cls)))


def _cmd_complement(args) -> dict | str:
    model = _model_from_args(args)
    assumption = _parse_assumption(args.assumption, model.ambient)
    group = complement_group(model, args.j, assumption)
    cert = certificate(model, args.j, assumption)
    if args.json:
        out = _group_json(group)
        out["certificate"] = cert.as_dict()
        return out
    lines = [
        f"generators: {', '.join(group.generator_names) or '(none)'}",
        f"relations: {group.relations.to_lists()}",
        f"group: {group.describe()}",
        f"certificate: degree {cert.degree} {cert.status.value}" + (f" ({cert.note})" if cert.note else ""),
    ]
    return "\n".join(lines)


def _cmd_closed_form(args) -> dict | str:
    report = closed_form_check(args.d1, args.d2)
    if args.json:
        return dataclasses.asdict(report)
    return "\n".join(
        [
            f"(d1, d2) = ({report.d1}, {report.d2}), g = {report.g}, bezout (m, n) = ({report.m}, {report.n})",
            f"CH^1 factors: {list(report.ch1_factors)} (expected {list(report.ch1_expected)})",
            f"CH^2 factors: {list(report.ch2_factors)} (expected {list(report.ch2_expected)})",
            f"image of x1*x2 in diagonal basis: {report.xi_tau_image}",
            f"ok: {report.ok}",
        ]
    )


def _cmd_obstruct(args) -> dict | str:
    model = _model_from_args(args)
    assumption = _parse_assumption(args.assumption, model.ambient)
    pair = ChernPair(
        parse_class(model.ambient, args.c1, degree=1),
        parse_class(model.ambient, args.c2, degree=2),
    )
    report = decide(model, pair, assumption)
    if args.json:
        return {
            "ambient": ",".join(map(str, model.ambient.factor_dims)),
            "degree": ",".join(map(str, model.multidegree)),
            "c1": str(pair.c1),
            "c2": str(pair.c2),
            "assumption": assumption.label(),
            "theta": str(report.theta_on_y),
            "theta_image": {
                "coords": report.theta_image,
                "group": report.theta_quotient.describe(),
                "is_zero": not any(report.theta_image),
            },
            "verdict": report.verdict.value,
            "certificates": [
                report.justification["certificates"]["naive"],
                report.justification["certificates"]["assumption"],
            ],
            "justification": report.justification,
        }
    jst = report.justification
    return "\n".join(
        [
            f"verdict: {report.verdict.value}",
            f"theta on ambient: {report.theta_on_y}",
            f"theta image: {report.theta_image} in {report.theta_quotient.describe()}",
            f"assumption: {jst['assumption']} ({jst['direction']})",
            f"basis: {jst['verdict_basis']}",
            f"note: {jst['unverified_hypotheses']}",
        ]
    )


def _cmd_classify(args) -> Iterator[str]:
    """Yield the table one CH^1 coset at a time, the header with the first block
    and the closing chunk last, even when it is empty.  Nothing runs before
    run() asks for the first chunk, so a domain error raised before it is
    printed alone.

    Under --json the rows take the layout of dump_json(rows), from the same
    frames and key writer.
    """
    model = _model_from_args(args)
    assumption = _parse_assumption(args.assumption, model.ambient)
    if args.json:
        quote = encode_basestring_ascii
        head, sep, end = _json_frame("[", "]", "\n")
        first, between, last = _json_frame("{", "}", "\n  ")
        lead = first + _json_key("c1")
        mid = between + _json_key("c2")
        rest = between + _json_key("verdict")
        end += "\n"
    else:
        quote = str
        head, sep, end = "c1\tc2\tverdict\n", "", ""
        lead, mid, rest, last = "", "\t", "\t", "\n"
    verdicts = {v: rest + quote(v.value) + last for v in Verdict}

    def tails(column):
        return [quote(label2) + verdicts[v] for label2, v in column]

    for label1, column in _sweep(model, assumption, tails):
        prefix = lead + quote(label1) + mid
        yield head + prefix + (sep + prefix).join(column)
        head = sep
    yield end


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by subcommand name."""
    parser = argparse.ArgumentParser(
        prog="chow-obstruct",
        description="Exact Chow-group quotients of hypersurface complements and the "
        "mod-2 algebraizability obstruction for rank-2 bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.set_defaults(func=func)
        return p

    p = add("snf", _cmd_snf, "Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help='JSON rows, e.g. "[[4,3],[0,4]]" (string entries allowed)')

    p = add("group", _cmd_group, "invariant factors of a presented abelian group")
    p.add_argument("--relations", help="JSON rows of the relation matrix")
    p.add_argument("--generators", help="comma-separated generator names")
    p.add_argument("--presentation", help='JSON {"generators": [...], "relations": [[...]]}')

    p = add("cup", _cmd_cup, "cup product of two classes")
    p.add_argument("--ambient", required=True, help='factor dimensions, e.g. "1,3"')
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("sq2", _cmd_sq2, "squaring operation on a mod-2 class")
    p.add_argument("--ambient", required=True)
    p.add_argument("--class", dest="cls", required=True)

    p = add("complement", _cmd_complement, "degree-j quotient group of a complement")
    p.add_argument("--ambient", required=True)
    p.add_argument("--degree", required=True, help='hypersurface multidegree, e.g. "3,4"')
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--assumption", default="naive")

    p = add("closed-form", _cmd_closed_form, "check degree-1/2 closed forms on P^1 x P^3")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)

    p = add("obstruct", _cmd_obstruct, "evaluate theta and decide algebraizability")
    p.add_argument("--ambient")
    p.add_argument("--degree")
    p.add_argument("--c1")
    p.add_argument("--c2")
    p.add_argument("--assumption")
    p.add_argument("--example", help=EXAMPLES)

    p = add("classify", _cmd_classify, "verdict table over CH^1 x CH^2")
    p.add_argument("--ambient")
    p.add_argument("--degree")
    p.add_argument("--assumption")
    p.add_argument("--example", help=EXAMPLES)

    return parser, sub.choices


# Built once: parse_args fills a fresh namespace on every call, and help and
# usage text read the terminal width when they are formatted.
PARSER, SUBPARSERS = build_parser()


def _attach_signed_classes(argv: list[str]) -> list[str]:
    """Rewrite '--c1 -x1' as '--c1=-x1', since argparse reads '-x1' as an option;
    an abbreviation ('--clas -x1') is rewritten too, for argparse to resolve or reject."""
    out: list[str] = []
    for arg in argv:
        signed = arg.startswith("-") and not arg.startswith("--")
        if signed and out and len(out[-1]) > 2 and any(o.startswith(out[-1]) for o in CLASS_OPTIONS):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _is_oversized_output(exc: ValueError) -> bool:
    """Whether exc is the interpreter's digit limit, hit by str() of a result integer.

    int() of too long an input string raises the same error, but only then does
    the message give the length of the value ("value has N digits"); that case
    stays a usage error.
    """
    message = str(exc)
    return "integer string conversion" in message and "value has" not in message


def _domain_error(args, exc: Exception) -> int:
    if args.json:
        sys.stdout.write(dump_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
    else:
        sys.stderr.write(f"error: {exc}\n")
    return 1


def _parse(argv: list[str]) -> argparse.Namespace:
    """PARSER.parse_args(argv), with a named subcommand's arguments parsed by
    its own subparser, as PARSER would pass them on, and any left over
    reported by PARSER."""
    sub = SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return PARSER.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        PARSER.error("unrecognized arguments: " + " ".join(extra))
    return args


def run(argv: list[str]) -> int:
    args = _parse(_attach_signed_classes(argv))
    _apply_preset(args)
    for required in ("ambient", "degree", "assumption", "c1", "c2"):
        if hasattr(args, required) and getattr(args, required) is None:
            PARSER.error(f"--{required} is required (directly or via --example)")
    try:
        try:
            result = args.func(args)
            if isinstance(result, str):
                result = [result + "\n"]
            elif isinstance(result, dict):
                result = [dump_json(result)]
            for chunk in result:
                sys.stdout.write(chunk)
            code = 0
        except DOMAIN_ERRORS as exc:
            code = _domain_error(args, exc)
        except ValueError as exc:
            if not _is_oversized_output(exc):
                sys.stderr.write(f"usage error: {exc}\n")
                return 2
            code = _domain_error(args, OutputTooLargeError(f"result too large to print: {exc}"))
        # a closed pipe or a full disk is seen here, not at interpreter exit
        sys.stdout.flush()
        return code
    except OSError as exc:
        # stdout cannot take the output.  Point the descriptor at devnull so
        # that the flush at exit stays quiet.  A reader that closed the pipe,
        # as `| head` does, ends the run as a complete write would have.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
