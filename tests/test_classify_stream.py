"""`classify` writes its table one CH^1 coset at a time.

The streamed output must be byte-identical to the table rendered whole from
`classify_all` rows, must call decide() on exactly the first lift of each
parity pair, must stay small in memory, and must write nothing before a
domain error.  Every subcommand's output goes through the same writer, whose
closed-pipe and full-device cases are checked here on `classify` and on
short outputs of other subcommands.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from chowobstruct import obstruction
from chowobstruct.abelian import InfiniteGroupError
from chowobstruct.chow import AmbientSpace, ChowClass, class_str
from chowobstruct.cli import dump_json, main
from chowobstruct.complement import ComplementModel, PushforwardAssumption, complement_group
from chowobstruct.obstruction import classify_all

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


def _first_lift_pairs(model):
    """(c1, c2) labels of the first lift of each parity pair, in row order."""
    g1 = complement_group(model, 1, NAIVE)
    g2 = complement_group(model, 2, NAIVE)
    seen, pairs = set(), []
    for coords1 in g1.elements():
        for coords2 in g2.elements():
            key = (tuple(c % 2 for c in coords1), tuple(c % 2 for c in coords2))
            if key not in seen:
                seen.add(key)
                pairs.append((class_str(ChowClass.from_coords(model.ambient, 1, coords1)),
                              class_str(ChowClass.from_coords(model.ambient, 2, coords2))))
    return pairs


def test_cli_calls_decide_on_the_first_lift_of_each_parity_pair(monkeypatch):
    decide = obstruction.decide
    from_coords = ChowClass.from_coords.__func__
    seen, lifts = [], []

    def counting_decide(model, pair, assumption=None):
        seen.append((class_str(pair.c1), class_str(pair.c2)))
        return decide(model, pair, assumption)

    def counting_from_coords(cls, ambient, degree, coords):
        lifts.append((degree, tuple(coords)))
        return from_coords(cls, ambient, degree, coords)

    monkeypatch.setattr(obstruction, "decide", counting_decide)
    for dims, degrees, assumption in SWEEPS:
        ambient = AmbientSpace(dims)
        model = ComplementModel(ambient, degrees)
        seen.clear()
        lifts.clear()
        with monkeypatch.context() as m:
            m.setattr(ChowClass, "from_coords", classmethod(counting_from_coords))
            classify_all(model, ASSUMPTIONS[assumption])
        library = list(seen)
        # a ChowClass is built only for a lift handed to decide(), and only once
        built = {(degree, class_str(from_coords(ChowClass, ambient, degree, coords)))
                 for degree, coords in lifts}
        assert len(built) == len(lifts), (dims, degrees, assumption)
        assert built == {(1, c1) for c1, _ in library} | {(2, c2) for _, c2 in library}
        seen.clear()
        code, _ = run_classify(monkeypatch, *_argv(dims, degrees, assumption), "--json")
        assert code == 0
        assert seen == library == _first_lift_pairs(model), (dims, degrees, assumption)
        rank = len(ambient.monomial_basis(1)) + len(ambient.monomial_basis(2))
        assert len(seen) <= 2 ** rank


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
    # the guard runs before any row is asked for
    with pytest.raises(InfiniteGroupError):
        obstruction._sweep(ComplementModel(AmbientSpace((1, 3)), (0, 4)), NAIVE)
