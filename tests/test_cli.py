import json
import re
import shlex
import sys
from pathlib import Path

import pytest

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


def test_cup_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cup", "--ambient", "1,3", "--a", "3*x1 + 4*x2", "--b", "x2")
    assert code == 0
    assert out.strip() == "3*x1*x2 + 4*x2^2"


def test_sq2_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sq2", "--ambient", "1,3", "--class", "x1*x2")
    assert code == 0
    assert out.strip() == "x1*x2^2"


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


CUSTOM_SPEC = {"ambient": "1,3", "degree": 3, "direction": "contains_image", "generators": ["x2^3"]}


@pytest.mark.parametrize(
    "presentation, custom",
    [
        ("[1]", None),
        ('{"relations": [[2]]}', None),
        ('{"generators": ["a"], "relations": 5}', None),
        (None, {k: v for k, v in CUSTOM_SPEC.items() if k != "direction"}),
        (None, [CUSTOM_SPEC]),
        (None, dict(CUSTOM_SPEC, generators=["x2^3", 5])),
    ],
    ids=["not-an-object", "no-generators", "relations-not-a-list",
         "custom-no-direction", "custom-list", "custom-number-generator"],
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
    finally:
        sys.set_int_max_str_digits(limit)


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
