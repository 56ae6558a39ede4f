"""Benchmark of the chowobstruct command line: classify sweeps, cold obstruct
decisions and integer normal forms.

    python3 bench/run.py [--workload classify|obstruct|normal-forms|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Every op is one call of chowobstruct.cli.main with stdout and stderr
captured, in this process and on one thread; --workload all runs each
workload in a child process of its own.  Each op's output is checked by
bench/checks.py, which does not use the package.  A run attempts whole rounds
(see workloads.py) until --seconds have passed; with --trace 1 it instead
runs a fixed number of rounds with every layer wrapped (see tracing.py) and
reports per-layer figures.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record of the run is
written to .bench_results/ at the repository root.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"
sys.path.insert(0, str(BENCH_DIR))

from checks import CheckError, check_classify, check_group, check_obstruct, check_snf  # noqa: E402
from workloads import FIXED_FAILING_SNF, WORKLOADS  # noqa: E402

THREADS_ENV_VAR = "CHOW_OBSTRUCT_THREADS"
# CPython's default; the snf ops that fail today fail because of this limit.
INT_MAX_STR_DIGITS = 4300
# Set-up is sampled SETUP_SAMPLES times before the first op, after one
# uncounted warm-up start, and again every SETUP_INTERVAL_S during the run, so
# that its median spans the run's speed phases.
SETUP_SAMPLES = 3
SETUP_INTERVAL_S = 2.0
# The reference loop runs before an op whenever this much time has passed since
# it last ran, and once more after the last op.  Every reported time is scaled
# by REF_NOMINAL_S over the mean of the reference times just before and just
# after it, which takes out most of the drift in the host's speed.
REF_INTERVAL_S = 0.1
REF_NOMINAL_S = 0.006
# Fixed work for a traced run, so its counts repeat exactly for a given seed.
TRACE_ROUNDS = {"classify": 2, "obstruct": 60, "normal-forms": 30}
# peak_rss_mb is read after this many rounds (or at the end of a shorter run).
# The package's caches grow with every new model, so a high-water mark read at
# the end of a timed run would grow with the speed of the code; a fixed amount
# of work keeps it comparable.  Each is well below the rounds a 35 s run
# completes on the machine in README.md.
RSS_ROUNDS = {"classify": 4, "obstruct": 250, "normal-forms": 1}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "first_row_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "intlinalg.self_ms": "ms/op",
    "intlinalg.snf_calls": "calls/op",
    "intlinalg.hermite_reduce_calls": "calls/op",
    "intlinalg.transform_bits": "bits",
    "abelian.self_ms": "ms/op",
    "abelian.cosets": "cosets/op",
    "chow.self_ms": "ms/op",
    "chow.class_inits": "calls/op",
    "chow.basis_calls": "calls/op",
    "steenrod.self_ms": "ms/op",
    "steenrod.sq2_calls": "calls/op",
    "complement.self_ms": "ms/op",
    "complement.group_calls": "calls/op",
    "complement.groups_built": "keys/op",
    "obstruction.self_ms": "ms/op",
    "obstruction.decide_calls": "calls/op",
    "obstruction.distinct_parity": "keys/op",
    "cli.self_ms": "ms/op",
    "cli.output_bytes": "bytes/op",
}


class Capture:
    """Stand-in for sys.stdout / sys.stderr that records when the first byte arrives."""

    def __init__(self):
        self.parts: list[str] = []
        self.first: float | None = None

    def write(self, text: str) -> int:
        if self.first is None and text:
            self.first = time.perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the interpreter-speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def setup_sample(env: dict) -> tuple[float, float]:
    """(seconds, reference factor) for one fresh interpreter that imports chowobstruct.cli.

    The start is bracketed by reference loops; its factor is REF_NOMINAL_S
    over their mean.
    """
    before = reference_loop()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import chowobstruct.cli"], env=env, cwd=ROOT, check=True)
    dt = time.perf_counter() - t0
    return dt, 2 * REF_NOMINAL_S / (before + reference_loop())


def run_op(cli, op) -> tuple[int, float, float | None, str, str]:
    """Call cli.main on the op's argv; return (exit code, seconds, seconds to first stdout byte, out, err)."""
    out, err = Capture(), Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported as a failed op, not as a crashed benchmark
        code = -1
        err.write(traceback.format_exc())
    finally:
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = saved
    first = None if out.first is None else out.first - t0
    return code, t1 - t0, first, out.text(), err.text()


def is_known_snf_failure(op, code: int, out: str, err: str) -> bool:
    """The int-to-string limit fault on the named input FIXED_FAILING_SNF: exit 2
    with the 'Exceeds the limit' usage error today, or a JSON domain error (exit 1)
    once oversized output is reported as one.  No other op is excused."""
    if op.kind != "snf" or op.label != FIXED_FAILING_SNF[0]:
        return False
    if code == 2:
        return "Exceeds the limit" in err
    if code == 1:
        try:
            return "error" in json.loads(out)
        except ValueError:
            return False
    return False


def check_output(op, out: str) -> int:
    """Run the independent check for the op; return the rows it wrote or reduced."""
    sys.set_int_max_str_digits(0)
    try:
        if op.kind == "classify":
            return check_classify(out, op.as_json, op.dims, op.degrees, op.assumption)
        if op.kind == "obstruct":
            return check_obstruct(out, op.dims, op.degrees, op.assumption, op.c1, op.c2)
        if op.kind == "snf":
            return check_snf(out, op.matrix)
        return check_group(out, op.matrix)
    finally:
        sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (5..95), smoothed: the mean of the (q-4)-th to (q+4)-th
    percentiles by statistics.quantiles' default method.

    At about 150 ops per classify run, drawn from size strata, a single
    percentile rests on one or two ops; the band average takes in the dozen
    ops around it instead.
    """
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100)
    return statistics.fmean(cuts[q - 5:q + 4])


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    setup_sample(env)
    setup = [setup_sample(env) for _ in range(SETUP_SAMPLES)]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    rounds = WORKLOADS[name](seed)
    ops, refs, errors, op_spans = [], [], [], []
    out_bytes = n_rounds = transform_bits = 0
    peak_rss = None
    start = last_ref = last_setup = time.perf_counter()
    refs.append((0.0, reference_loop()))
    try:
        while (n_rounds < TRACE_ROUNDS[name]) if trace else (time.perf_counter() - start < seconds):
            for op in next(rounds):
                if not trace and time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                    setup.append(setup_sample(env))
                    last_setup = time.perf_counter()
                if time.perf_counter() - last_ref >= REF_INTERVAL_S:
                    refs.append((time.perf_counter() - start, reference_loop()))
                    last_ref = time.perf_counter()
                before = dict(tracer.self_time) if tracer else None
                code, dt, first, out, err = run_op(cli, op)
                out_bytes += len(out.encode())
                if tracer:
                    transform_bits = max(transform_bits, tracer.take_transform_bits())
                    after = dict(tracer.self_time)
                    op_spans.append({"op": len(ops), "kind": op.kind, "seconds": dt,
                                     "self_ms": {k: 1000 * (after[k] - before[k]) for k in after}})
                rec = {"kind": op.kind, "seconds": dt, "first": first, "ref": len(refs) - 1, "ok": False, "rows": 0}
                ops.append(rec)
                if code == 0:
                    try:
                        rec["rows"] = check_output(op, out)
                        rec["ok"] = True
                        continue
                    except (CheckError, ValueError, KeyError, TypeError) as exc:
                        errors.append(f"{' '.join(op.argv)[:200]}: {type(exc).__name__}: {exc}")
                elif not is_known_snf_failure(op, code, out, err):
                    errors.append(f"{' '.join(op.argv)[:200]}: exit {code}: {err.strip()[:300]}")
            n_rounds += 1
            if n_rounds == RSS_ROUNDS[name]:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        refs.append((time.perf_counter() - start, reference_loop()))
    finally:
        if tracer:
            tracer.uninstall()
    wall = time.perf_counter() - start
    if peak_rss is None:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(ops)
    failed = sum(not r["ok"] for r in ops)
    end_to_end = summarise(ops, refs, setup, peak_rss, normalise=True)
    raw = summarise(ops, refs, setup, peak_rss, normalise=False)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": n_rounds, "attempted": attempted, "failed": failed,
        "failed_per_round": failed / max(n_rounds, 1),
        "correct": not errors, "errors": errors[:20], "wall_s": wall,
        "reference_loop_ms": [(t, 1000 * r) for t, r in refs], "setup_samples_s": setup,
        "end_to_end": end_to_end, "raw_end_to_end": raw, "ops": ops,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    if tracer:
        per_op = max(attempted, 1)
        calls = tracer.calls
        per_layer = {f"{layer}.self_ms": 1000 * t / per_op for layer, t in tracer.self_time.items()}
        per_layer.update({
            "intlinalg.snf_calls": calls["intlinalg.smith_normal_form"] / per_op,
            "intlinalg.hermite_reduce_calls": calls["intlinalg.hermite_reduce"] / per_op,
            "intlinalg.transform_bits": transform_bits,
            "abelian.cosets": tracer.cosets / per_op,
            "chow.class_inits": calls["chow.ChowClass.__init__"] / per_op,
            "chow.basis_calls": calls["chow.AmbientSpace.monomial_basis"] / per_op,
            "steenrod.sq2_calls": calls["steenrod.sq2"] / per_op,
            "complement.group_calls": calls["complement.complement_group"] / per_op,
            "complement.groups_built": len(tracer.group_keys) / per_op,
            "obstruction.decide_calls": calls["obstruction.decide"] / per_op,
            "obstruction.distinct_parity": len(tracer.parity_keys) / per_op,
            "cli.output_bytes": out_bytes / per_op,
        })
        record["per_layer"] = per_layer
        record["calls"] = dict(sorted(calls.items()))
        record["op_spans"] = op_spans
        shown = {k: (per_layer[k], PER_LAYER[k]) for k in PER_LAYER}
    else:
        shown = {k: (end_to_end[k], END_TO_END[k]) for k in END_TO_END}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    return record


def summarise(ops: list[dict], refs: list, setup: list, peak_rss_kb: int, normalise: bool) -> dict:
    """End-to-end metrics; with normalise, every time is scaled to the reference speed."""
    if normalise:
        factors = [2 * REF_NOMINAL_S / (refs[r["ref"]][1] + refs[r["ref"] + 1][1]) for r in ops]
        setup_times = [dt * f for dt, f in setup]
    else:
        factors = [1.0] * len(ops)
        setup_times = [dt for dt, _ in setup]
    times = [r["seconds"] * f for r, f in zip(ops, factors)]
    firsts = [r["first"] * f for r, f in zip(ops, factors) if r["ok"]]
    busy = sum(times)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(r["ok"] for r in ops) / busy,
        "rows_per_s": sum(r["rows"] for r in ops) / busy,
        "op_p50_ms": 1000 * percentile(times, 50),
        "op_p90_ms": 1000 * percentile(times, 90),
        "first_row_ms": 1000 * percentile(firsts, 50) if firsts else 0.0,
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def report(record: dict):
    """Human-readable lines: times are reference-normalised, with the raw wall-clock figure beside them."""
    ref = statistics.median(r for _, r in record["reference_loop_ms"])
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"rounds {record['rounds']}  attempted {record['attempted']}  failed {record['failed']} "
          f"({record['failed_per_round']:g} per round)  "
          f"correct {str(record['correct']).lower()}  reference loop median {ref:.3f} ms")
    for err in record["errors"]:
        print(f"  check failed: {err}", file=sys.stderr)
    label = "traced run, not reported" if record["trace"] else "reported"
    for key, value in record["end_to_end"].items():
        raw = record["raw_end_to_end"][key]
        print(f"  {key:<34} {value:>14.4f} {END_TO_END[key]:<8} raw {raw:.4f}  ({label})")
    if record["trace"]:
        for key, m in record["metrics"].items():
            print(f"  {key:<34} {m['value']:>14.4f} {m['unit']}")


def write_record(record: dict):
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chowobstruct" / "cli.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so that no workload inherits another's
        # memory high-water mark or the package's caches.
        for name in WORKLOADS:
            child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if child.returncode:
                return child.returncode
        return 0
    os.environ.pop(THREADS_ENV_VAR, None)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)
    from chowobstruct import cli

    record = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), env)
    write_record(record)
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
