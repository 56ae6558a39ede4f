import hashlib
import json
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from chowobstruct import cli
from chowobstruct.cli import dump_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out), out


def test_snf_example(capsys):
    data, _ = run_json(capsys, "snf", "--matrix", "[[4,3],[0,4]]")
    assert data["diagonal"] == ["1", "16"]
    assert data["s"] == [["1", "0"], ["0", "16"]]


def test_snf_accepts_string_entries(capsys):
    data, _ = run_json(capsys, "snf", "--matrix", '[["4","3"],["0","4"]]')
    assert data["diagonal"] == ["1", "16"]


def test_group_subcommand(capsys):
    data, _ = run_json(
        capsys, "group", "--generators", "x,y", "--relations", "[[3,0],[0,4]]"
    )
    assert data["invariant_factors"] == ["12"]
    assert data["group"] == "Z/12"


def test_group_presentation_json(capsys):
    data, _ = run_json(
        capsys,
        "group",
        "--presentation",
        '{"generators": ["u", "v"], "relations": [["4", "0"], ["3", "4"]]}',
    )
    assert data["invariant_factors"] == ["16"]


def test_group_generators_with_no_relations_is_free(capsys):
    # an empty relation list presents the free group on the named generators,
    # the same with --generators as with --presentation
    named = ("group", "--generators", "a,b", "--relations", "[]")
    payload = ("group", "--presentation", '{"generators":["a","b"],"relations":[]}')
    for extra in ((), ("--json",)):
        assert run_cli(capsys, *named, *extra) == run_cli(capsys, *payload, *extra)
    code, out, _ = run_cli(capsys, *named)
    assert code == 0
    assert out.endswith("group: Z ⊕ Z\n")


def test_group_generators_width_mismatch_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "group", "--generators", "a,b", "--relations", "[[1,2,3]]"
    )
    assert (code, out) == (2, "")
    assert "usage error" in err
    assert "expected 2 columns, got 3" in err


def test_cup_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cup", "--ambient", "1,3", "--a", "3*x1 + 4*x2", "--b", "x2")
    assert code == 0
    assert out.strip() == "3*x1*x2 + 4*x2^2"
    # degree-0 classes are integers, written without a monomial
    assert run_cli(capsys, "cup", "--ambient", "4", "--a", "2", "--b", "3") == (0, "6\n", "")


def test_sq2_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sq2", "--ambient", "1,3", "--class", "x1*x2")
    assert code == 0
    assert out.strip() == "x1*x2^2"


def test_zero_term_keeps_its_written_degree(capsys):
    # a zero coefficient drops the term, like a truncated monomial, but not its degree
    data, _ = run_json(capsys, "cup", "--ambient", "1,3", "--a", "0*x2", "--b", "x2")
    assert data == {"degree": "2", "result": "0"}
    data, _ = run_json(capsys, "sq2", "--ambient", "1,3", "--class", "0*x1*x2")
    assert data == {"degree": "3", "result": "0"}
    code, _, err = run_cli(capsys, "sq2", "--ambient", "1,3", "--class", "x1^2 + 0*x1")
    assert code == 2
    assert "mixed degrees [1, 2]" in err


def test_complement_subcommand(capsys):
    data, _ = run_json(
        capsys,
        "complement", "--ambient", "1,3", "--degree", "3,4", "--j", "2",
        "--assumption", "naive",
    )
    assert data["invariant_factors"] == ["16"]
    assert data["certificate"]["status"] == "EXACT"


def test_closed_form_subcommand(capsys):
    data, _ = run_json(capsys, "closed-form", "--d1", "3", "--d2", "4")
    assert data["ok"] is True
    assert data["g"] == "1"
    assert data["ch2_factors"] == ["16"]
    assert data["xi_tau_image"] == ["1", "4"]


def test_obstruct_headline(capsys):
    data, _ = run_json(
        capsys,
        "obstruct", "--ambient", "1,3", "--degree", "3,4",
        "--c1", "0", "--c2", "x1*x2", "--assumption", "even-degree",
    )
    assert data["verdict"] == "NOT_ALGEBRAIZABLE"
    assert data["theta"] == "x1*x2^2"
    assert data["theta_image"]["is_zero"] is False
    assert data["theta_image"]["group"] == "Z/2"


def test_obstruct_text_and_json_agree(capsys):
    args = (
        "obstruct", "--ambient", "1,3", "--degree", "3,4",
        "--c1", "0", "--c2", "x1*x2", "--assumption", "even-degree",
    )
    code, text_out, _ = run_cli(capsys, *args)
    assert code == 0
    data, _ = run_json(capsys, *args)
    assert data["verdict"] in text_out
    assert data["theta"] in text_out


def test_obstruct_preset(capsys):
    data, _ = run_json(capsys, "obstruct", "--example", "bidegree34")
    assert data["verdict"] == "NOT_ALGEBRAIZABLE"
    data, _ = run_json(capsys, "obstruct", "--example", "totaro48")
    assert data["verdict"] == "NOT_ALGEBRAIZABLE"
    data, _ = run_json(capsys, "obstruct", "--example", "trento")
    assert data["verdict"] == "ALGEBRAIZABLE"
    data, _ = run_json(capsys, "obstruct", "--example", "nori:250")
    assert data["verdict"] == "NOT_ALGEBRAIZABLE"


def test_obstruct_preset_override(capsys):
    # explicit flags beat the preset: even degree with no certificate stays open
    data, _ = run_json(
        capsys, "obstruct", "--example", "trento", "--degree", "250"
    )
    assert data["verdict"] == "UNDETERMINED"


def test_classify_json_row_count(capsys):
    rows, _ = run_json(
        capsys,
        "classify", "--ambient", "1,3", "--degree", "3,4", "--assumption", "even-degree",
    )
    assert len(rows) == 192
    lookup = {(r["c1"], r["c2"]): r["verdict"] for r in rows}
    assert lookup[("0", "x1*x2")] == "NOT_ALGEBRAIZABLE"
    assert lookup[("0", "0")] == "ALGEBRAIZABLE"


def test_classify_tsv(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--example", "bidegree34",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "c1\tc2\tverdict"
    assert len(lines) == 193
    assert "0\tx1*x2\tNOT_ALGEBRAIZABLE" in lines


def test_json_round_trip_is_byte_identical(capsys):
    for args in (
        ("snf", "--matrix", "[[2,4],[6,8]]"),
        ("closed-form", "--d1", "2", "--d2", "2"),
        ("obstruct", "--example", "bidegree34"),
    ):
        _, out, _ = run_cli(capsys, *args, "--json")
        assert dump_json(json.loads(out)) == out


def _canonicalised(obj):
    """obj with every int but a bool as its decimal string and every tuple as a list."""
    if isinstance(obj, dict):
        return {key: _canonicalised(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalised(item) for item in obj]
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    return obj


class _Int(int):
    pass


@pytest.mark.parametrize("obj", [
    {},
    [],
    (),
    {"b": [1, (2, -3)], "a": {"z": {}, "y": [], "x": ()}, "c": [[[]], [{}]]},
    {"flags": [True, False, None], "n": -12345678901234567890, "zero": 0},
    {"ξ": "τ ⊕ Z/2", "é\n\"quoted\"": ["\u2603", "\t", "plain"], "": ""},
    ({"deep": ({"deeper": ({"deepest": (-1,)},)},)},),
    -7,
    "ascii",
    None,
    True,
    # sequences of plain ints, which the writer joins in one pass
    [0, -1, 7, -(10 ** 399), 10 ** 399],
    ((1, 0, -2), (0, 3, 0), (-4, 0, 5)),
    {"diagonal": (1, 2, 0), "s": ((1, 0), (0, 2)), "v": [(0,), (-1,)]},
    # a bool or an int subclass keeps the item-by-item path
    [1, True, 0],
    [_Int(3), _Int(-4), 5],
    (_Int(0),),
])
def test_dump_json_matches_the_stdlib_writer(obj):
    assert dump_json(obj) == json.dumps(_canonicalised(obj), sort_keys=True, indent=2) + "\n"


def test_dump_json_of_an_int_past_the_digit_limit_is_oversized_output():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError) as exc:
            dump_json({"u": ((1, 10 ** 700),)})
    finally:
        sys.set_int_max_str_digits(limit)
    assert cli._is_oversized_output(exc.value)


def test_dump_json_rejects_a_set_as_the_stdlib_writer_does():
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        dump_json({"x": {1}})
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        json.dumps({1})


# Each ends in argparse, with a usage error or help.  run() parses those that
# start with a subcommand's name with that subcommand's parser.
_BAD_COMMAND_LINES = (
    ("obstruct", "--example", "totaro48", "--bogus"),
    ("snf",),
    ("complement", "--ambient", "4", "--degree", "5", "--j", "x"),
    ("nosuch", "--json"),
    (),
    ("--help",),
    ("obstruct", "--help"),
    ("obstruct", "--ambient", "4", "--c1", "-x1", "--bogus", "-y"),
    ("cup", "--ambient", "4", "--a", "-x1", "--b", "x1", "extra"),
)


@pytest.mark.parametrize("argv", _BAD_COMMAND_LINES, ids=" ".join)
def test_usage_errors_match_the_top_level_parser(capsys, argv):
    with pytest.raises(SystemExit) as got:
        main(list(argv))
    direct = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        cli.PARSER.parse_args(cli._attach_signed_classes(list(argv)))
    parsed = capsys.readouterr()
    assert (got.value.code, direct.out, direct.err) == (want.value.code, parsed.out, parsed.err)
    assert direct.err or direct.out


def test_subcommand_arguments_parse_as_the_top_level_parser_does():
    for argv in (
        ["obstruct", "--example", "totaro48", "--json"],
        ["classify", "--ambient", "4", "--degree", "5", "--assumption=naive"],
        ["sq2", "--ambient", "4", "--cl=-x1"],
        ["snf", "--matrix", "[[1]]"],
    ):
        parsed = vars(cli.PARSER.parse_args(argv))
        assert parsed.pop("command") == argv[0]
        assert vars(cli._parse(argv)) == parsed


# Each is rejected after argparse, by a class literal parser, a domain check
# or a JSON reader, with one line on stderr and nothing on stdout.
_USAGE_MESSAGES = (
    (("sq2", "--ambient", "4", "--class", "+x1"), "misplaced sign in '+x1'"),
    (("sq2", "--ambient", "4", "--class", "x1+"), "trailing sign in 'x1+'"),
    (("sq2", "--ambient", "4", "--class", "x1**x1"), "empty factor in term 'x1**x1'"),
    (("sq2", "--ambient", "4", "--class", "y1"), "cannot parse factor 'y1'"),
    (("complement", "--ambient", "4", "--degree", "3", "--j", "-1"), "degree must be nonnegative"),
    (("closed-form", "--d1", "0", "--d2", "3"), "closed forms require d1, d2 >= 1"),
    (("group",), "group needs --relations or --presentation"),
    (("group", "--relations", "[1,2]"), "matrix literal must be a JSON array of arrays"),
)


@pytest.mark.parametrize("argv, message", _USAGE_MESSAGES, ids=[" ".join(argv) for argv, _ in _USAGE_MESSAGES])
def test_usage_error_messages(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "snf", "--matrix", "not json")
    assert code == 2
    assert "usage error" in err
    with pytest.raises(SystemExit) as exc:
        main(["snf"])  # missing required flag
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "classify", "--ambient", "1,3", "--degree", "0,4", "--assumption", "naive",
    )
    assert code == 1
    assert "finite groups" in err


def test_domain_error_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--ambient", "1,3", "--degree", "0,4", "--assumption", "naive",
        "--json",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "InfiniteGroupError"


UNKNOWN_ASSUMPTION = "usage error: unknown assumption 'bogus'; use naive|even-degree|nori|custom:<file>\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("obstruct", "--ambient", "4", "--degree", "5", "--c1", "x1", "--c2", "x1^2", "--assumption", "bogus"),
        ("complement", "--ambient", "4", "--degree", "5", "--j", "2", "--assumption", "bogus", "--json"),
    ],
    ids=["obstruct", "complement-json"],
)
def test_unknown_assumption_message(capsys, argv):
    assert run_cli(capsys, *argv) == (2, "", UNKNOWN_ASSUMPTION)


def test_missing_assumption_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--ambient", "4", "--degree", "5"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(
        "chow-obstruct: error: --assumption is required (directly or via --example)\n"
    )


def test_custom_assumption_file(tmp_path, capsys):
    spec = {
        "ambient": "1,3",
        "degree": 3,
        "direction": "contains_image",
        "generators": ["2*x1*x2^2", "x2^3"],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    data, _ = run_json(
        capsys,
        "obstruct", "--ambient", "1,3", "--degree", "3,4",
        "--c1", "0", "--c2", "x1*x2", "--assumption", f"custom:{path}",
    )
    assert data["verdict"] == "NOT_ALGEBRAIZABLE"


@pytest.mark.parametrize(
    "spec, argv, expected",
    [
        ({"ambient": "1,3", "degree": 3, "direction": "contained_in_image", "generators": ["x2^3"]},
         ("classify", "--ambient", "1,3", "--degree", "2,4"),
         "5b64d84970c1f8f90473d49a927952ba1aea929f1fac9ba7e1363ac8d10a15f3"),
        ({"ambient": "4", "degree": 3, "direction": "contains_image", "generators": ["2*x1^3"]},
         ("classify", "--ambient", "4", "--degree", "6", "--json"),
         "35d14a69098e1148b4963bfc02f2b568c5d6097555dca7fe4fc3b11e7ea3c5d0"),
    ],
    ids=["contained-in", "contains"],
)
def test_custom_assumption_classify_is_pinned(tmp_path, capsys, spec, argv, expected):
    # sha256 of stdout, recorded before classify's parity table became a dict
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, *argv, "--assumption", f"custom:{path}")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--ambient", "1,3", "--degree", "3,4", "--j", "2"),
         "assumption 'even-degree' does not apply to degree 2 of P^1 x P^3"),
        (("--ambient", "2,2", "--degree", "2,3", "--j", "3"),
         "assumption 'even-degree' does not apply to degree 3 of P^2 x P^2"),
    ],
    ids=["P1xP3-j2", "P2xP2-j3"],
)
def test_inapplicable_even_degree_message_is_pinned(capsys, argv, message):
    # the text of the error, as a line on stderr and as the --json record
    argv = ("complement", *argv, "--assumption", "even-degree")
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert out == dump_json({"error": {"message": message, "type": "InapplicableAssumptionError"}})


def test_custom_assumption_obstruct_json_is_pinned(tmp_path, capsys):
    # the assumption's label, custom[...], appears in the report, its
    # justification and the verdict basis; sha256 of stdout
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(
        {"ambient": "1,3", "degree": 3, "direction": "contains_image", "generators": ["2*x1*x2^2", "x2^3"]}))
    code, out, err = run_cli(capsys, "obstruct", "--ambient", "1,3", "--degree", "3,4", "--c1", "0",
                             "--c2", "x1*x2", "--assumption", f"custom:{path}", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["justification"]["assumption"] == "custom[2*x1*x2^2, x2^3]"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "7b9a554ec2131fb271796b261dbe70a882f1e10292b7e8622737b9f97540a51a"


CUSTOM_SPEC = {"ambient": "1,3", "degree": 3, "direction": "contains_image", "generators": ["x2^3"]}


@pytest.mark.parametrize("generators", [[], ["x2^3"]], ids=["empty", "nonempty"])
@pytest.mark.parametrize(
    "argv",
    [
        ("obstruct", "--ambient", "4", "--degree", "5", "--c1", "x1", "--c2", "x1^2"),
        ("classify", "--ambient", "4", "--degree", "5"),
        ("complement", "--ambient", "4", "--degree", "5", "--j", "3"),
    ],
    ids=["obstruct", "classify", "complement"],
)
def test_custom_file_on_another_ambient_is_inapplicable(tmp_path, capsys, argv, generators):
    # a file written for P^1 x P^3 does not apply on P^4, even when it lists
    # no generators, whose empty subgroup would otherwise fit any ambient
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(dict(CUSTOM_SPEC, generators=generators)))
    argv = (*argv, "--assumption", f"custom:{path}")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "P^1 x P^3" in err and "P^4" in err
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["type"] == "InapplicableAssumptionError"
    assert "P^1 x P^3" in error["message"] and "P^4" in error["message"]


@pytest.mark.parametrize(
    "presentation, custom",
    [
        ("[1]", None),
        ('{"relations": [[2]]}', None),
        ('{"generators": ["a"], "relations": 5}', None),
        ('{"generators": [null, true], "relations": [[1, 2]]}', None),
        (None, {k: v for k, v in CUSTOM_SPEC.items() if k != "direction"}),
        (None, [CUSTOM_SPEC]),
        (None, dict(CUSTOM_SPEC, generators=["x2^3", 5])),
        # a JSON true passes isinstance(value, int); read as 1, it made a degree-1 subgroup
        (None, dict(CUSTOM_SPEC, degree=True, generators=["x2"])),
    ],
    ids=["not-an-object", "no-generators", "relations-not-a-list", "generators-not-strings",
         "custom-no-direction", "custom-list", "custom-number-generator", "custom-boolean-degree"],
)
def test_malformed_json_input_is_usage_error(tmp_path, capsys, presentation, custom):
    if presentation is not None:
        argv = ["group", "--presentation", presentation]
    else:
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(custom))
        argv = ["obstruct", "--ambient", "1,3", "--degree", "3,4", "--c1", "0",
                "--c2", "x1*x2", "--assumption", f"custom:{path}"]
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_missing_custom_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "obstruct", "--ambient", "1,3", "--degree", "3,4", "--c1", "0",
                             "--c2", "x1*x2", "--assumption", f"custom:{path}", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and str(path) in err


def _readme_commands() -> list[list[str]]:
    """The chow-obstruct lines of the README's first sh block under "## Command line"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("chow-obstruct ")]


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out, (argv, err)


def test_readme_library_example_prints_its_comments(capsys):
    # each print line ends in a comment with the line it prints, or none
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme.split("## Library", 1)[1], re.S).group(1)
    expected = [
        line.split("# ", 1)[1] if "# " in line else None
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        assert want is None or got == want
    assert expected[0] == "NOT_ALGEBRAIZABLE" and expected[-1] == "4"


def test_oversized_output_is_domain_error(capsys):
    # both entries fit under the limit; their product, the invariant factor, does not
    relations = f"[[{3 ** 800},0],[0,{2 ** 1300 + 1}]]"
    too_long = f"[[{10 ** 700}]]"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run_cli(capsys, "group", "--json", "--relations", relations)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "OutputTooLargeError"
        code, out, err = run_cli(capsys, "group", "--relations", relations)
        assert code == 1 and out == "" and err.startswith("error: ")
        # too long an input stays a usage error
        code, _, err = run_cli(capsys, "group", "--relations", too_long)
        assert code == 2 and err.startswith("usage error: ")
        # at CPython's default limit of 4300 digits: entries of 1909 and 2710
        # digits, whose product is the invariant factor
        sys.set_int_max_str_digits(4300)
        code, out, err = run_cli(capsys, "group", "--json", "--relations", f"[[{3 ** 4000},0],[0,{2 ** 9000 + 1}]]")
        assert (code, err) == (1, "")
        assert json.loads(out)["error"]["type"] == "OutputTooLargeError"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, message", [
    (("snf", "--matrix", "[[1,true]]"), "matrix entry True is not an integer"),
    (("group", "--json", "--relations", '[[1,"x"]]'), "matrix entry 'x' is not an integer"),
    # a string entry is ASCII digits with an optional leading "-", as the
    # JSON writer prints it, though int() takes padding, "_", "+" and "٣"
    (("group", "--relations", '[[" 1_2 ", "٣"]]'), "matrix entry ' 1_2 ' is not an integer"),
    (("group", "--json", "--relations", '[["٣"]]'), "matrix entry '٣' is not an integer"),
    (("snf", "--matrix", '[["+5"]]'), "matrix entry '+5' is not an integer"),
    (("snf", "--json", "--matrix", '[["1", "-"]]'), "matrix entry '-' is not an integer"),
])
def test_non_integer_matrix_entry_is_usage_error(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_digit_string_matrix_entries_parse(capsys):
    assert run_cli(capsys, "group", "--relations", '[["12", "-3"], [7, "8"]]') == (
        0, "invariant factors: [117]\ngroup: Z/117\n", "")
    assert run_cli(capsys, "snf", "--json", "--matrix", '[["4", 3], [0, "4"]]') == run_cli(
        capsys, "snf", "--json", "--matrix", "[[4, 3], [0, 4]]")
    # an over-long digit string keeps the interpreter's message
    code, out, err = run_cli(capsys, "snf", "--matrix", f'[["{"9" * 5000}"]]')
    assert (code, out) == (2, "") and err.startswith("usage error: Exceeds the limit") and "5000 digits" in err


def seeded_matrix(label: str, m: int, n: int, bound: int) -> str:
    rng = random.Random(label)
    return json.dumps([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


NINE_P1 = ("--ambient", "1,1,1,1,1,1,1,1,1", "--degree", "1,1,1,1,1,1,1,1,1")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("snf", "--json", "--matrix", seeded_matrix("snf-16-a", 16, 16, 99)),
         "b21311e2228994c8c91ed405bf313456684a1dfa9f45bd2629dd267fa24b222f"),
        (("snf", "--json", "--matrix", seeded_matrix("snf-20-b", 20, 20, 99)),
         "f9834976825cb8a9a490b5550dbabdfc5753e014f7f72cb07800f3ecab2b7fdf"),
        (("snf", "--matrix", seeded_matrix("snf-9x13", 9, 13, 9)),
         "f5abeda3888ba70dd127d09dfa7d661a068943408fa067cad954dd30bcd87d73"),
        (("snf", "--json", "--matrix", seeded_matrix("snf-13x9", 13, 9, 9)),
         "0eb04df573a9b6f9306ced0b86be447c883ac9f8842c3e76a68dbf44e7f82a7f"),
        (("group", "--json", "--relations", seeded_matrix("group-24-d", 24, 24, 99)),
         "2168fd2984d539c2e7977bbc4e355af64c2ffa5434337b210b19f21e491fe605"),
        (("complement", "--json", *NINE_P1, "--j", "5", "--assumption", "naive"),
         "7353579eb3debf5569a4d240e15020798127588feb253cffd0f7f73ffe71c850"),
        (("complement", "--json", *NINE_P1, "--j", "4", "--assumption", "naive"),
         "e28331195dc6704f45c49c6c648f9f3f78ee87bf210100529113b358768cbea5"),
    ],
    ids=["snf-16-a", "snf-20-b", "snf-9x13-text", "snf-13x9", "group-24-d", "complement-9-5", "complement-9-4"],
)
def test_large_normal_form_outputs_are_pinned(capsys, argv, expected):
    # sha256 of stdout, recorded before the Smith elimination fused its
    # Euclid chains into 2x2 row steps
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == expected


def test_even_degree_classify_output_is_pinned(capsys):
    # sha256 of stdout, recorded before each ambient stored its monomial
    # bases; CI checks the installed console script against the same hash
    argv = ("classify", "--ambient", "1,3", "--degree", "9,4", "--assumption", "even-degree", "--json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "5e9627c96624e9d8e8a984d45e18f2e8ca06fc934ee3b54c1657ff471c672f91"
    )


def test_snf_with_oversized_transforms_is_domain_error(capsys):
    # u and v of this 20 x 20 input reach 25,300 bits, past CPython's default
    # 4300-digit limit; the message wording differs between Python versions
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(capsys, "snf", "--json", "--matrix", seeded_matrix("snf-20-a", 20, 20, 99))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "OutputTooLargeError"


def test_obstruct_accepts_leading_minus(capsys):
    args = ("obstruct", "--ambient", "4", "--degree", "5", "--c2", "x1^2", "--assumption", "naive")
    code, out, err = run_cli(capsys, *args, "--c1", "-x1")
    assert code == 0, err
    assert run_cli(capsys, *args, "--c1=-x1") == (code, out, err)


def test_cup_accepts_leading_minus(capsys):
    code, out, err = run_cli(capsys, "cup", "--ambient", "4", "--a", "-x1", "--b", "x1")
    assert code == 0, err
    assert out == "-x1^2\n"
    assert run_cli(capsys, "cup", "--ambient", "4", "--a=-x1", "--b", "x1") == (code, out, err)


def test_abbreviated_class_option_accepts_leading_minus(capsys):
    for option in ("--class", "--clas", "--cl"):
        code, out, err = run_cli(capsys, "sq2", "--ambient", "4", option, "-x1")
        assert (code, out) == (0, "x1^2\n"), (option, err)


def test_ambiguous_class_option_stays_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruct", "--ambient", "4", "--degree", "5", "--c2", "x1^2",
              "--assumption", "naive", "--c", "-x1"])
    assert exc.value.code == 2
    assert "ambiguous option" in capsys.readouterr().err


def test_obstruct_json_echoes_the_parsed_model(capsys):
    args = ("--c1", "x1", "--c2", "x1^2", "--assumption", "even-degree", "--json")
    canonical = run_cli(capsys, "obstruct", "--ambient", "4", "--degree", "48", *args)
    assert canonical[0] == 0
    assert json.loads(canonical[1])["ambient"] == "4"
    for ambient in ("04", " 4", "+4"):
        got = run_cli(capsys, "obstruct", "--ambient", ambient, "--degree", " 048", *args)
        assert got == canonical, ambient
