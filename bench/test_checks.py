"""Tests of the benchmark's own code: each independent check accepts real CLI
output and rejects a deliberately corrupted copy of it, and the workload
generators are deterministic and keep their round make-up.

    python3 -m pytest -q bench/test_checks.py
"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from chowobstruct import cli  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from run import is_known_snf_failure  # noqa: E402
from workloads import FIXED_FAILING_SNF, FIXED_SNF, Op, WORKLOADS, fixed_matrix  # noqa: E402


def cli_output(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def classify_json(ambient, degree, assumption):
    return json.loads(cli_output(["classify", "--ambient", ambient, "--degree", degree,
                                  "--assumption", assumption, "--json"]))


# ------------------------------------------------------------ ring side

def test_parse_and_format_round_trip():
    dims = (1, 3)
    coeffs = {(1, 1): 3, (0, 2): -1}
    assert checks.format_class(coeffs) == "3*x1*x2 - x2^2"
    assert checks.parse_class(dims, "3*x1*x2 - x2^2", 2) == coeffs
    assert checks.parse_class(dims, "-x1 + 4*x2", 1) == {(1, 0): -1, (0, 1): 4}
    assert checks.parse_class(dims, "0", 2) == {}
    with pytest.raises(CheckError):
        checks.parse_class(dims, "x1^2", 2)  # past the truncation bound of P^1


def test_sq2_and_theta_known_values():
    dims = (1, 3)
    assert checks.sq2_mod2(dims, frozenset({(1, 1)})) == frozenset({(1, 2)})
    assert checks.sq2_mod2((4,), frozenset({(2,)})) == frozenset()
    assert checks.sq2_mod2((4,), frozenset({(1,)})) == frozenset({(2,)})
    oracle = checks.VerdictOracle(dims, (3, 4))
    verdict, theta, _, _ = oracle.decide("even-degree", frozenset(), frozenset({(1, 1)}))
    assert verdict == "NOT_ALGEBRAIZABLE" and theta == frozenset({(1, 2)})


def test_bareiss_and_rank_mod_p():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert checks.bareiss_det(a) == 18
    assert [checks.rank_mod_p(a, p) for p in (2, 3, 5)] == [2, 2, 3]


# ------------------------------------------------------------ classify

@pytest.mark.parametrize("ambient,degree,assumption", [
    ("4", "6", "even-degree"), ("4", "5", "naive"), ("1,3", "2,3", "even-degree"),
])
def test_classify_check_accepts_and_rejects(ambient, degree, assumption):
    dims = tuple(int(x) for x in ambient.split(","))
    degrees = tuple(int(x) for x in degree.split(","))
    rows = classify_json(ambient, degree, assumption)
    assert checks.check_classify(json.dumps(rows), True, dims, degrees, assumption) == len(rows)

    flipped = [dict(r) for r in rows]
    flipped[-1]["verdict"] = "UNDETERMINED" if rows[-1]["verdict"] != "UNDETERMINED" else "ALGEBRAIZABLE"
    with pytest.raises(CheckError):
        checks.check_classify(json.dumps(flipped), True, dims, degrees, assumption)
    with pytest.raises(CheckError):
        checks.check_classify(json.dumps(rows[:-1]), True, dims, degrees, assumption)
    with pytest.raises(CheckError):
        checks.check_classify(json.dumps(rows[:-1] + rows[:1]), True, dims, degrees, assumption)


def test_classify_text_output_is_checked():
    out = cli_output(["classify", "--ambient", "4", "--degree", "4", "--assumption", "even-degree"])
    assert checks.check_classify(out, False, (4,), (4,), "even-degree") == 16
    lines = out.splitlines()
    c1, c2, verdict = lines[5].split("\t")
    other = "ALGEBRAIZABLE" if verdict != "ALGEBRAIZABLE" else "NOT_ALGEBRAIZABLE"
    lines[5] = "\t".join((c1, c2, other))
    with pytest.raises(CheckError):
        checks.check_classify("\n".join(lines) + "\n", False, (4,), (4,), "even-degree")


# ------------------------------------------------------------ obstruct

@pytest.mark.parametrize("ambient,degree,c1,c2,assumption", [
    ("1,3", "3,4", "0", "x1*x2", "even-degree"),
    ("4", "48", "x1", "x1^2", "even-degree"),
    ("2,2", "3,5", "x1 - 2*x2", "x1*x2 + 3*x2^2", "nori"),
    ("1,1,1,1", "1,2,3,4", "x1 + x3", "x1*x2 - x3*x4", "naive"),
])
def test_obstruct_check_accepts_and_rejects(ambient, degree, c1, c2, assumption):
    dims = tuple(int(x) for x in ambient.split(","))
    degrees = tuple(int(x) for x in degree.split(","))
    out = cli_output(["obstruct", "--json", "--ambient", ambient, "--degree", degree,
                      f"--c1={c1}", f"--c2={c2}", "--assumption", assumption])
    assert checks.check_obstruct(out, dims, degrees, assumption, c1, c2) == 1
    data = json.loads(out)

    verdicts = [v for v in checks.VERDICTS if v != data["verdict"]]
    for verdict in verdicts:
        bad = dict(data, verdict=verdict)
        with pytest.raises(CheckError):
            checks.check_obstruct(json.dumps(bad), dims, degrees, assumption, c1, c2)
    top = checks.basis(dims, 3)[0]
    theta = checks.odd_part(checks.parse_class(dims, data["theta"], 3)) ^ {top}
    bad = dict(data, theta=checks.format_class({e: 1 for e in theta}))
    with pytest.raises(CheckError):
        checks.check_obstruct(json.dumps(bad), dims, degrees, assumption, c1, c2)
    sent = checks.parse_class(dims, c2, 2)
    mono = checks.basis(dims, 2)[0]
    sent[mono] = sent.get(mono, 0) + 1
    with pytest.raises(CheckError):
        checks.check_obstruct(out, dims, degrees, assumption, c1, checks.format_class(sent))


# ------------------------------------------------------------ normal forms

def test_snf_check_accepts_and_rejects():
    a = [[4, 3, 1], [0, 4, 2], [6, 1, 5], [2, 2, 2]]
    out = cli_output(["snf", "--json", "--matrix", json.dumps(a)])
    assert checks.check_snf(out, a) == 4
    data = json.loads(out)

    bad = json.loads(out)
    bad["diagonal"][-1] = str(int(bad["diagonal"][-1]) * 2)
    bad["s"][2][2] = bad["diagonal"][-1]
    with pytest.raises(CheckError):
        checks.check_snf(json.dumps(bad), a)
    bad = dict(data, u=data["u"][1:] + data["u"][:1])
    with pytest.raises(CheckError):
        checks.check_snf(json.dumps(bad), a)


def test_group_check_accepts_and_rejects():
    a = fixed_matrix("test-group", 6)
    out = cli_output(["group", "--json", "--relations", json.dumps(a)])
    assert checks.check_group(out, a) == 6
    data = json.loads(out)
    factors = [int(f) for f in data["invariant_factors"]]
    for scale in (2, 3, 5, 7, 11):
        altered = factors[:-1] + [factors[-1] * scale]
        bad = dict(data, invariant_factors=[str(f) for f in altered],
                   group=" ⊕ ".join(f"Z/{f}" for f in altered))
        with pytest.raises(CheckError):
            checks.check_group(json.dumps(bad), a)


def test_known_snf_failure_is_recognised_only_for_the_named_op():
    named = Op("snf", [], label=FIXED_FAILING_SNF[0])
    limit = "usage error: Exceeds the limit (4300 digits) for integer string conversion"
    assert is_known_snf_failure(named, 2, "", limit)
    assert is_known_snf_failure(named, 1, '{"error": {"type": "X", "message": "too large"}}', "")
    assert not is_known_snf_failure(named, 2, "", "usage error: ragged rows")
    assert not is_known_snf_failure(named, 1, "not json", "")
    for other in (Op("snf", []), Op("snf", [], label=FIXED_SNF[0][0]), Op("group", [], label=FIXED_FAILING_SNF[0])):
        assert not is_known_snf_failure(other, 2, "", limit)
        assert not is_known_snf_failure(other, 1, '{"error": {"type": "X", "message": "too large"}}', "")


def test_exactly_one_op_per_normal_forms_round_is_the_named_failing_snf():
    for r in islice(WORKLOADS["normal-forms"](11), 3):
        assert sum(op.kind == "snf" and op.label == FIXED_FAILING_SNF[0] for op in r) == 1


# ------------------------------------------------------------ workloads

@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_are_seeded_and_rounds_keep_their_make_up(name):
    first = [[op.argv for op in r] for r in islice(WORKLOADS[name](5), 3)]
    again = [[op.argv for op in r] for r in islice(WORKLOADS[name](5), 3)]
    other = [[op.argv for op in r] for r in islice(WORKLOADS[name](6), 3)]
    assert first == again
    assert first != other
    make_up = {tuple(sorted((op.kind, op.dims, op.label) for op in r)) for r in islice(WORKLOADS[name](7), 4)}
    assert len(make_up) == 1


def test_models_do_not_repeat_within_a_run():
    classify = [(tuple(op.dims), tuple(op.degrees)) for r in islice(WORKLOADS["classify"](3), 12) for op in r]
    assert len(classify) == len(set(classify))
    obstruct = [(tuple(op.dims), tuple(op.degrees)) for r in islice(WORKLOADS["obstruct"](3), 200) for op in r]
    assert len(obstruct) == len(set(obstruct))
