"""`classify` writes its table one CH^1 coset at a time.

The streamed output must be byte-identical to the table rendered whole from
`classify_all` rows, must read theta off the b2 + b1*b2 basis products of
its bilinear parity table without evaluating theta on a lift, must give every
row the verdict an independent theta oracle gives on its printed labels, must
stay small in memory, and must write nothing before a domain error.  Every subcommand's output goes
through the same writer, whose closed-pipe and full-device cases are checked
here on `classify` and on short outputs of other subcommands.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from chowobstruct import abelian, obstruction
from chowobstruct.abelian import AbelianPresentation, InfiniteGroupError
from chowobstruct.chow import AmbientSpace, ChowClass, _terms_str, cup, parse_class
from chowobstruct.cli import dump_json, main
from chowobstruct.complement import ComplementModel, PushforwardAssumption, complement_group
from chowobstruct.intlinalg import _gf2_mask
from chowobstruct.obstruction import classify_all

from oracles import EVEN_DEGREE_MOD2, gf2_parse, theta_verdict

ROOT = Path(__file__).resolve().parents[1]
NAIVE = PushforwardAssumption.naive()
ASSUMPTIONS = {"naive": NAIVE, "nori": PushforwardAssumption.nori(), "even-degree": PushforwardAssumption.even_degree()}


class Sink:
    """Stand-in for sys.stdout that keeps every write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def run_classify(monkeypatch, *argv):
    sink = Sink()
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", sink)
        code = main(["classify", *argv])
    return code, sink.writes


def whole_table(rows, as_json: bool) -> str:
    """The table as `classify` rendered it before streaming: all rows at once."""
    if as_json:
        return dump_json([{"c1": r.c1, "c2": r.c2, "verdict": r.verdict.value} for r in rows])
    lines = ["c1\tc2\tverdict"]
    lines.extend(f"{r.c1}\t{r.c2}\t{r.verdict.value}" for r in rows)
    return "\n".join(lines) + "\n"


SWEEPS = (
    [((4,), (d,), a) for d in range(1, 13) for a in ("naive", "nori", "even-degree")]
    + [((1, 3), (d1, d2), a) for d1 in range(1, 5) for d2 in range(1, 5) for a in ("naive", "even-degree")]
)


def _argv(dims, degrees, assumption):
    return ["--ambient", ",".join(map(str, dims)), "--degree", ",".join(map(str, degrees)),
            "--assumption", assumption]


def test_stream_matches_the_whole_table(monkeypatch):
    for dims, degrees, assumption in SWEEPS:
        model = ComplementModel(AmbientSpace(dims), degrees)
        rows = classify_all(model, ASSUMPTIONS[assumption])
        cosets1 = len(list(complement_group(model, 1, NAIVE).elements()))
        cosets2 = len(rows) // cosets1
        for as_json in (False, True):
            code, writes = run_classify(monkeypatch, *_argv(dims, degrees, assumption),
                                        *(["--json"] if as_json else []))
            assert code == 0
            assert "".join(writes) == whole_table(rows, as_json), (dims, degrees, assumption, as_json)
            # one write per CH^1 coset, then the closing bracket (empty in text)
            assert len(writes) == cosets1 + 1
            if not as_json:
                # the header goes out with the first coset's rows
                assert writes[0].count("\n") == 1 + cosets2


def test_every_row_matches_the_theta_oracle(monkeypatch):
    # the printed labels are read back mod 2 and theta is recomputed from the
    # total square, independently of cup, sq2 and the quotient presentations
    for dims, degrees, assumption in SWEEPS:
        code, writes = run_classify(monkeypatch, *_argv(dims, degrees, assumption))
        assert code == 0
        lines = "".join(writes).splitlines()
        assert lines[0] == "c1\tc2\tverdict"
        if assumption == "even-degree":
            direction, rows = "contains_image", EVEN_DEGREE_MOD2[dims]
        else:
            direction = "equals_image" if assumption == "nori" else "contained_in_image"
            rows = None
        for line in lines[1:]:
            c1, c2, verdict = line.split("\t")
            c1, c2 = gf2_parse(c1, len(dims)), gf2_parse(c2, len(dims))
            expected = theta_verdict(dims, degrees, c1, c2, direction, rows)
            assert verdict == expected, (dims, degrees, assumption, line)


# (twist mismatches, twist checks, dual mismatches, rows) of each even-degree
# sweep model with a mismatch.  These are the models whose even-degree
# subgroup misses the divisor multiples z*CH^2 mod 2, so the verdict read off
# a row depends on the lift that labels it; naive and nori have none.
EVEN_DEGREE_TWIST_DUAL_MISMATCHES = {
    ((4,), (3,)): (4, 27, 2, 9),
    ((4,), (5,)): (28, 125, 8, 25),
    ((4,), (7,)): (96, 343, 18, 49),
    ((4,), (9,)): (224, 729, 32, 81),
    ((4,), (11,)): (420, 1331, 50, 121),
    ((1, 3), (1, 2)): (2, 16, 0, 8),
    ((1, 3), (1, 3)): (16, 81, 6, 27),
    ((1, 3), (1, 4)): (40, 256, 0, 64),
    ((1, 3), (2, 3)): (98, 324, 12, 54),
    ((1, 3), (3, 2)): (50, 144, 8, 24),
    ((1, 3), (3, 3)): (252, 729, 28, 81),
    ((1, 3), (3, 4)): (744, 2304, 64, 192),
    ((1, 3), (4, 3)): (414, 1296, 24, 108),
}


def test_rows_are_constant_under_twist_and_dual():
    # E (x) L has Chern classes (c1 + 2l, c2 + c1*l + l^2) and the dual E^v has
    # (-c1, c2); each is looked up among the rows by the canonical coordinates
    # of its classes in the degree-1 and degree-2 groups
    checks, got = Counter(), {}
    for dims, degrees, assumption in SWEEPS:
        ambient = AmbientSpace(dims)
        model = ComplementModel(ambient, degrees)
        g1, g2 = complement_group(model, 1, NAIVE), complement_group(model, 2, NAIVE)

        def key(c1, c2):
            return g1.canonical_coords(c1.coords()), g2.canonical_coords(c2.coords())

        rows = [(parse_class(ambient, r.c1, 1), parse_class(ambient, r.c2, 2), r.verdict)
                for r in classify_all(model, ASSUMPTIONS[assumption])]
        verdicts = {key(c1, c2): verdict for c1, c2, verdict in rows}
        assert len(verdicts) == len(rows)
        twists = [ChowClass.from_coords(ambient, 1, coords) for coords in g1.elements()]
        twisted = dual = 0
        for c1, c2, verdict in rows:
            for l in twists:
                twisted += verdicts[key(c1 + l + l, c2 + cup(c1, l) + cup(l, l))] != verdict
            minus_c1 = ChowClass.from_coords(ambient, 1, [-x for x in c1.coords()])
            dual += verdicts[key(minus_c1, c2)] != verdict
        checks[assumption, "twist"] += len(rows) * len(twists)
        checks[assumption, "dual"] += len(rows)
        if twisted or dual:
            got[dims, degrees] = (twisted, len(rows) * len(twists), dual, len(rows))
            assert assumption == "even-degree", (dims, degrees, assumption)
    assert checks == {
        ("naive", "twist"): 16704, ("naive", "dual"): 1650,
        ("nori", "twist"): 6084, ("nori", "dual"): 650,
        ("even-degree", "twist"): 16704, ("even-degree", "dual"): 1650,
    }
    # 2,388 twist and 252 dual mismatches in all
    assert got == EVEN_DEGREE_TWIST_DUAL_MISMATCHES


# Sq^2 of each of the b2 degree-2 basis monomials, and the b1*b2 products of a
# degree-1 with a degree-2 one from one _divisor_columns call per degree-1
# monomial, per sweep; no cup
BASIS_PRODUCTS = {(4,): {"sq2": 1, "divisor_columns": 1}, (1, 3): {"sq2": 2, "divisor_columns": 2}}


def test_sweep_reads_theta_off_the_basis_products(monkeypatch):
    # theta is bilinear in the parities of (c1, c2), so a sweep computes the
    # basis products once and never evaluates theta on a lift, builds a lift
    # or pairs one up
    calls = Counter()

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    from_coords = ChowClass.from_coords.__func__
    monkeypatch.setattr(obstruction, "sq2", counting("sq2", obstruction.sq2))
    monkeypatch.setattr(obstruction, "cup", counting("cup", obstruction.cup))
    monkeypatch.setattr(obstruction, "_divisor_columns",
                        counting("divisor_columns", obstruction._divisor_columns))
    monkeypatch.setattr(obstruction, "theta", counting("theta", obstruction.theta))
    monkeypatch.setattr(ChowClass, "from_coords", classmethod(counting("lift", from_coords)))
    monkeypatch.setattr(obstruction.ChernPair, "__post_init__",
                        counting("pair", obstruction.ChernPair.__post_init__))
    for dims, degrees, assumption in SWEEPS:
        model = ComplementModel(AmbientSpace(dims), degrees)
        calls.clear()
        classify_all(model, ASSUMPTIONS[assumption])
        assert calls == BASIS_PRODUCTS[dims], (dims, degrees, assumption)
        calls.clear()
        code, _ = run_classify(monkeypatch, *_argv(dims, degrees, assumption), "--json")
        assert code == 0
        assert calls == BASIS_PRODUCTS[dims], (dims, degrees, assumption)


def test_sweep_runs_no_smith_elimination(monkeypatch):
    # the finite-group guard and the coset enumeration read the Hermite form,
    # and the degree-3 quotients write their Smith diagonal down mod 2
    calls = []
    smith_diagonal = abelian.smith_diagonal

    def counting_smith_diagonal(a):
        calls.append(a)
        return smith_diagonal(a)

    monkeypatch.setattr(abelian, "smith_diagonal", counting_smith_diagonal)
    for dims, degrees, assumption in SWEEPS:
        classify_all(ComplementModel(AmbientSpace(dims), degrees), ASSUMPTIONS[assumption])
        assert calls == [], (dims, degrees, assumption)


def test_sweep_reduces_no_coset(monkeypatch):
    # every enumerated group is a box read off one Hermite form, so no coset
    # is reduced against the relations, not even on the P^1 x P^3 degree-2
    # groups whose Hermite form is not diagonal
    calls = []
    hermite_reduce = abelian.hermite_reduce

    def counting_hermite_reduce(h, vector):
        calls.append(vector)
        return hermite_reduce(h, vector)

    monkeypatch.setattr(abelian, "hermite_reduce", counting_hermite_reduce)
    for dims, degrees, assumption in SWEEPS:
        if dims == (1, 3):
            classify_all(ComplementModel(AmbientSpace(dims), degrees), ASSUMPTIONS[assumption])
            assert calls == [], (dims, degrees, assumption)


def test_sweep_enumerates_only_boxes_with_two_moving_generators(monkeypatch):
    # _labelled names the cosets of a box with at most one bound above 1 in
    # C-level runs, so the sweep walks elements() only on boxes with two or
    # more; on P^1 x P^3 the square CH^2 boxes are the ones it walks
    boxes = []
    elements = AbelianPresentation.elements

    def recording_elements(self):
        boxes.append(self._box_bounds())
        return elements(self)

    monkeypatch.setattr(AbelianPresentation, "elements", recording_elements)
    for dims, degrees, assumption in SWEEPS:
        classify_all(ComplementModel(AmbientSpace(dims), degrees), ASSUMPTIONS[assumption])
    assert boxes
    assert all(sum(p > 1 for p in bounds) >= 2 for bounds in boxes), boxes


def _two_pass(group):
    """Each coset's label and mask from the printer of signed classes and the
    mod-2 mask, one pass each."""
    names = group.generator_names
    return [(_terms_str(zip(names, coords)), _gf2_mask(coords)) for coords in group.elements()]


def _diagonal_box(names, bounds):
    return AbelianPresentation(names, [[p * (i == j) for j in range(len(bounds))] for i, p in enumerate(bounds)])


# finite groups the CLI never enumerates: bounds (12, 1, 3, 10) with a bound
# of 1 between moving generators, a non-diagonal Hermite form with bounds
# (11, 2, 10), and a Z/25 whose second generator is fixed; then diagonal
# boxes of each shape _labelled tells apart: square, long second or first
# coordinate, one moving generator in either place, two moving generators
# around a fixed one, none moving, bounds 2 apart (one coset at a time) and
# 3 apart (in columns), and names that would break a format string
HAND_BUILT = (
    AbelianPresentation(("a*b", "c^2", "d", "e^3*f"), [[12, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 10]]),
    AbelianPresentation(("x^2*y", "z", "w^3"), [[11, 0, 0], [3, 2, 0], [1, 5, 10]]),
    AbelianPresentation(("u", "v^4"), [[1, 7], [0, 25]]),
    *(
        _diagonal_box(("x1", "x2", "x3")[: len(bounds)], bounds)
        for bounds in ((2, 2), (2, 9), (9, 2), (5, 5), (1, 9), (9, 1), (3, 1, 11), (1, 1, 1), (3, 5), (3, 6), (7, 4))
    ),
    _diagonal_box(("{x}", "x2^{2}"), (13, 4)),
    _diagonal_box(("{x}",), (6,)),
)


def test_labelled_matches_the_two_pass_labels_and_masks():
    groups = [
        complement_group(ComplementModel(AmbientSpace(dims), degrees), j, NAIVE)
        for dims, degrees in sorted({(dims, degrees) for dims, degrees, _ in SWEEPS})
        for j in (1, 2)
    ]
    for group in groups + list(HAND_BUILT):
        assert list(obstruction._labelled(group)) == _two_pass(group), group


def test_labelled_is_lazy():
    # a box with a 10^12 bound has too many cosets to list, and its first
    # ones still come at once: the first five lie in levels 0 to 2, which a
    # bound of 6 in its place leaves as they are
    for bounds, small in (((10 ** 12, 2), (6, 2)), ((2, 10 ** 12), (2, 6)), ((10 ** 12,), (6,))):
        names = ("x1", "x2")[: len(bounds)]
        first = list(itertools.islice(obstruction._labelled(_diagonal_box(names, bounds)), 5))
        assert first == _two_pass(_diagonal_box(names, small))[:5], bounds


class HashingSink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_large_json_table_streams_in_small_memory(monkeypatch):
    # 90,000 rows, about 5.6 MB of JSON; the hash was recorded from the
    # whole-table rendering before streaming.
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["classify", "--ambient", "4", "--degree", "300", "--assumption", "naive", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.digest.hexdigest() == "f854d8dd96369930d139510970ff7edd14ac821975d80c41154ad7725d5f1f03"
    assert peak < 5 * 2 ** 20, peak


@pytest.fixture
def custom_degree2(tmp_path):
    path = tmp_path / "degree2.json"
    path.write_text(json.dumps({"ambient": "4", "degree": 2, "direction": "contains_image",
                                "generators": ["2*x1^2"]}))
    return f"custom:{path}"


@pytest.mark.parametrize("case, error", [
    ("p2", "DimensionUnsupportedError"),
    ("custom", "InapplicableAssumptionError"),
    ("infinite", "InfiniteGroupError"),
])
def test_nothing_is_written_before_a_domain_error(monkeypatch, custom_degree2, case, error):
    argv = {
        "p2": ["--ambient", "2", "--degree", "3", "--assumption", "naive"],
        "custom": ["--ambient", "4", "--degree", "6", "--assumption", custom_degree2],
        "infinite": ["--ambient", "1,3", "--degree", "0,4", "--assumption", "naive"],
    }[case]
    code, writes = run_classify(monkeypatch, *argv)
    assert (code, "".join(writes)) == (1, "")
    code, writes = run_classify(monkeypatch, *argv, "--json")
    assert code == 1
    out = "".join(writes)
    assert json.loads(out)["error"]["type"] == error
    assert dump_json(json.loads(out)) == out


CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def cli_argv(*argv) -> list[str]:
    return [sys.executable, "-m", "chowobstruct", *argv]


def test_closed_pipe_exits_quietly():
    # the table runs to several MB, far past what a pipe buffers, so the
    # writes after the reader has gone fail with a broken pipe
    argv = cli_argv("classify", "--ambient", "4", "--degree", "300", "--assumption", "naive")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
        assert proc.stdout.readline() == b"c1\tc2\tverdict\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [("snf", "--matrix", "[[4,3],[0,4]]", "--json"),
     ("obstruct", "--example", "totaro48", "--json")],
    ids=["snf-json", "obstruct-json"],
)
def test_closed_pipe_exits_quietly_on_short_output(argv):
    # a short output goes to a pipe whose reader is gone before the run starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    with subprocess.Popen(cli_argv(*argv), stdout=write_end, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
        os.close(write_end)
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [("classify", "--ambient", "4", "--degree", "30", "--assumption", "naive"),
     ("obstruct", "--example", "totaro48"),
     # a domain error: on stderr in text, its JSON record cannot be written
     ("obstruct", "--ambient", "3", "--degree", "2", "--c1", "0", "--c2", "0", "--assumption", "naive")],
    ids=["classify", "obstruct", "obstruct-domain-error"],
)
def test_unwritable_output_is_an_error(argv, json_flag):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(cli_argv(*argv, *json_flag), stdout=full, stderr=subprocess.PIPE,
                              env=CLI_ENV, timeout=60)
    err = proc.stderr.decode()
    assert proc.returncode == 1 and err.startswith("error: "), err
    assert "Traceback" not in err and "usage error" not in err


def test_sweep_guard_raises_at_call_time():
    # the guard runs before the first row: at the sweep's first next(), so
    # classify_all, which lists the rows at once, raises too
    model = ComplementModel(AmbientSpace((1, 3)), (0, 4))
    with pytest.raises(InfiniteGroupError):
        next(obstruction._sweep(model, NAIVE, list))
    with pytest.raises(InfiniteGroupError):
        classify_all(model, NAIVE)
