"""txcleanse benchmark runner.

    python3 bench/run.py --workload {pipeline-5k,aol-wide,cleanse-50k,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The runner generates the workload's seeded
inputs (cached per seed under .bench_work/), times the CLI entry
``txcleanse.cli.main`` in a worker process for S seconds of whole rounds,
checks every output with the independent checker, prints a table, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The exit code is 1 when a check fails and 2 when the checkout holds no
program to run. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
from checker import CheckFailed, expect
from speed import normalize
from workloads import DIST, REPULSION, S, WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CACHED_SEEDS = 4
SAMPLE = 300  # transactions per arm tested for local optimality
RUN_LIMIT_S = 150  # a run stops its worker this long after it started
# Files whose code decides the generated inputs: a change to any of them,
# or to a workload's fields, makes cached inputs stale.
GENERATOR_SOURCES = (BENCH / "aol_gen.py", BENCH / "worker.py", BENCH / "workloads.py",
                     SRC / "txcleanse" / "synth.py", SRC / "txcleanse" / "ingest.py",
                     SRC / "txcleanse" / "core.py")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program fault)."""


def _env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, TXCLEANSE_SRC=str(SRC), PYTHONHASHSEED="0")


def _worker(*args: str, timeout: float, stdout=subprocess.DEVNULL) -> None:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                          env=_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")


def _input_key(workload, fields: dict) -> str:
    """Digest of what decides an input: the workload's fields and the
    generators' source code."""
    h = hashlib.sha256(json.dumps([workload.name, workload.fmt, workload.inputs_per_round,
                                   fields], sort_keys=True).encode())
    for path in GENERATOR_SOURCES:
        h.update(path.read_bytes() if path.exists() else b"")
    return h.hexdigest()


def _cached(target: Path, key: str, *worker_args: str) -> dict:
    """Generate into ``target`` once; later runs reuse it while ``key`` holds."""
    meta_path = target / "meta.json"
    if not meta_path.exists() or json.loads(meta_path.read_text()).get("key") != key:
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        _worker(*worker_args, str(tmp), timeout=120)
        meta = json.loads((tmp / "meta.json").read_text())
        (tmp / "meta.json").write_text(json.dumps(dict(meta, key=key)))
        shutil.rmtree(target, ignore_errors=True)
        os.replace(tmp, target)
        siblings = sorted((p for p in target.parent.iterdir() if p.name.startswith("seed")),
                          key=lambda p: p.stat().st_mtime, reverse=True)
        for stale in siblings[CACHED_SEEDS:]:
            shutil.rmtree(stale, ignore_errors=True)
    return json.loads(meta_path.read_text())


def _absolute(meta: dict, directory: Path) -> dict:
    return dict(meta, path=str(directory / meta["path"]))


# ---------------------------------------------------------------------------
# set-up probes


def setup_seconds(workload, tiny_input: str, run_dir: Path) -> tuple[float, float, str | None]:
    """Median wall time of a fresh interpreter importing txcleanse.cli and
    making one CLI call on the set-up input, speed-normalized and raw, and
    the first failure if a call failed."""
    times, raw = [], []
    for i in range(SETUP_REPEATS):
        out = run_dir / f"setup{i}"
        started = time.perf_counter()
        try:
            _worker("setup", workload.name, tiny_input, str(out), timeout=60)
        except BenchError as exc:
            return math.nan, math.nan, f"set-up call: {exc}"
        raw.append(time.perf_counter() - started)
        reference_s = json.loads((out / "speed.json").read_text())["reference_s"]
        times.append(normalize(raw[-1], reference_s))
    return statistics.median(times), statistics.median(raw), None


def import_seconds() -> tuple[float, float]:
    """Median cumulative import time of txcleanse.cli and of jsonschema under
    it, from ``-X importtime`` in a fresh interpreter."""
    cli_s, jsonschema_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import txcleanse.cli"],
                              cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing txcleanse.cli failed: {proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        cli_s.append(cumulative["txcleanse.cli"])
        jsonschema_s.append(cumulative.get("jsonschema", 0.0))
    return statistics.median(cli_s), statistics.median(jsonschema_s)


# ---------------------------------------------------------------------------
# output checks


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        if path.suffix == ".json":
            h.update(json.dumps(_untimed(json.loads(path.read_text())), sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def _untimed(node):
    if isinstance(node, dict):
        return {k: _untimed(v) for k, v in node.items() if k not in ("seconds", "time_ratio")}
    if isinstance(node, list):
        return [_untimed(v) for v in node]
    return node


def _output_files(workload, out: Path) -> list[Path]:
    if workload.command == "pipeline":
        return [out / "pipeline_report.json", out / "assignment_cleansed.csv",
                out / "assignment_raw.csv"]
    return [out / "cleanse_report.json", out / "cleansed.tsv"]


def _check_arm(name, arm, transactions, csv_path, sample_seed: int) -> None:
    n = len(transactions)
    expect(arm["n_transactions"] == n, f"{name}: n_transactions {arm['n_transactions']} != {n}")
    items = len(checker.first_seen_order(transactions))
    expect(arm["n_items"] == items, f"{name}: n_items {arm['n_items']} != {items}")
    assignment = checker.read_assignment(csv_path, n)
    expect(arm["k"] == max(assignment) + 1, f"{name}: k {arm['k']} != {max(assignment) + 1}")
    expected = checker.profit(transactions, assignment, REPULSION)
    expect(checker.close(arm["profit"], expected), f"{name}: profit {arm['profit']} != {expected}")
    per_pass = arm["profit_per_pass"]
    expect(len(per_pass) == arm["passes"] + 1, f"{name}: {len(per_pass)} profits for"
           f" {arm['passes']} passes")
    expect(all(b >= a - checker.RTOL * max(1.0, abs(a)) for a, b in zip(per_pass, per_pass[1:])),
           f"{name}: profit_per_pass decreases: {per_pass}")
    expect(checker.close(per_pass[-1], arm["profit"]), f"{name}: last pass profit != profit")
    if not arm["hit_max_passes"]:
        moves = checker.improving_moves(transactions, assignment, REPULSION,
                                        checker.sample_tids(n, SAMPLE, sample_seed))
        expect(not moves, f"{name}: not locally optimal: {moves[:3]}")


def _check_cleansing(reported: dict, counts: dict, fit: tuple[float, float]) -> None:
    for key, value in counts.items():
        expect(reported[key] == value, f"cleansing {key}: {reported[key]} != {value}")
    got = (reported["fit"]["mu_hat"], reported["fit"]["sigma_hat"])
    expect(all(map(checker.close, got, fit)), f"fit (mu, sigma) {got} != {fit}")


def expected_of(workload, meta: dict) -> dict:
    """The checker's own reading of one input: its transactions, the
    cleansed transactions and counts under the workload's band, and for an
    AOL log the warnings the parser must give."""
    path = meta["path"]
    if workload.fmt == "aol":
        sessions, skipped, warnings = checker.parse_aol(path)
        expect(skipped == meta["skipped_rows"], f"checker skipped {skipped} rows, generator"
               f" planted {meta['skipped_rows']}")
        expect([[u, i] for u, i in sessions] == meta["sessions"],
               "checker's sessions differ from the generator's")
        transactions = [items for _, items in sessions]
    else:
        transactions, warnings = checker.parse_generic(path), 0
    expect(len(transactions) == meta["transactions"],
           f"{len(transactions)} transactions read, {meta['transactions']} generated")
    cleansed, counts, fit = checker.band_cleanse(transactions, DIST, S)
    return {"transactions": transactions, "cleansed": cleansed, "counts": counts, "fit": fit,
            "warnings": warnings}


def check_outputs(workload, out: Path, exp: dict, sample_seed: int) -> None:
    """Judge one call's output files against the checker's expectations."""
    if workload.command == "cleanse":
        _check_cleansing(json.loads((out / "cleanse_report.json").read_text()),
                         exp["counts"], exp["fit"])
        lines = (out / "cleansed.tsv").read_text(encoding="utf-8").splitlines()
        want = ["\t".join(items) for items in exp["cleansed"]]
        expect(len(lines) == len(want), f"cleansed.tsv has {len(lines)} lines, want {len(want)}")
        bad = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b), None)
        expect(bad is None, f"cleansed.tsv line {bad and bad + 1}: {lines[bad or 0]!r}"
               f" != {want[bad or 0]!r}")
        return
    report = json.loads((out / "pipeline_report.json").read_text())
    for name in workload.arms:
        expect(report["arms"][name]["status"] == "ok", f"arm {name} failed")
    raw, cleansed = report["arms"]["raw"], report["arms"]["cleansed"]
    _check_arm("raw", raw, exp["transactions"], out / "assignment_raw.csv", sample_seed)
    _check_cleansing(cleansed["cleansing"], exp["counts"], exp["fit"])
    _check_arm("cleansed", cleansed, exp["cleansed"], out / "assignment_cleansed.csv",
               sample_seed + 1)


def failed_arms(workload, op: dict) -> int:
    if op["rc"] == 0:
        return 0
    report = Path(op["out"]) / "pipeline_report.json"
    if workload.command == "pipeline" and op["rc"] == 1 and report.exists():
        arms = json.loads(report.read_text())["arms"]
        return sum(arms[name]["status"] != "ok" for name in workload.arms)
    return len(workload.arms)


def check_trace(workload, op: dict, untraced_report: dict | None, exp: dict) -> None:
    """A traced call must see what the untraced one reported."""
    layers = op["layers"]
    expect(layers["ingest.transactions"] == len(exp["transactions"]), "traced transactions")
    expect(layers["ingest.warnings"] == exp["warnings"],
           f"parser gave {layers['ingest.warnings']} warnings, expected {exp['warnings']}")
    for key in ("items_removed_low", "items_removed_high", "items_retained"):
        expect(layers[f"cleanse.{key}"] == exp["counts"][key], f"traced cleanse.{key}")
    if untraced_report is not None:
        for arm in ("raw", "cleansed"):
            for key in ("k", "passes"):
                got, want = layers[f"clope.{arm}.{key}"], untraced_report["arms"][arm][key]
                expect(got == want, f"traced clope.{arm}.{key} {got} != reported {want}")


# ---------------------------------------------------------------------------
# one workload


def timed_rounds(workload, run_dir: Path, tiny_input: str, seconds: float, trace: bool,
                 timeout: float) -> dict:
    """The worker's timed rounds. A worker still running after ``timeout``
    seconds is stopped, and the whole rounds it finished are kept."""
    with open(run_dir / "program.log", "w") as log:
        try:
            _worker("run", workload.name, str(run_dir / "inputs.json"), tiny_input, str(run_dir),
                    str(seconds), str(int(trace)), timeout=timeout, stdout=log)
        except subprocess.TimeoutExpired:
            if not (run_dir / "worker.json").exists():
                raise BenchError(f"no round of {workload.name} ended within {timeout:.0f} s")
            print(f"{workload.name}: worker stopped after {timeout:.0f} s", file=sys.stderr)
    return json.loads((run_dir / "worker.json").read_text())


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    inputs_dir = WORK / "inputs" / workload.name / f"seed{seed}"
    meta = _cached(inputs_dir, _input_key(workload, workload.spec), "generate", workload.name,
                   str(seed))
    inputs = [_absolute(m, inputs_dir) for m in meta["inputs"]]
    tiny_dir = WORK / "inputs" / workload.name / "tiny"
    tiny_meta = _cached(tiny_dir, _input_key(workload, workload.tiny), "tiny", workload.name)
    tiny_input = _absolute(tiny_meta, tiny_dir)["path"]

    run_dir = WORK / "runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_s, setup_raw_s, setup_error = setup_seconds(workload, tiny_input, run_dir)
    import_s = import_seconds() if trace else None

    (run_dir / "inputs.json").write_text(json.dumps({"inputs": inputs}))
    limit = max(RUN_LIMIT_S, 2 * seconds)
    result = timed_rounds(workload, run_dir, tiny_input, seconds, trace,
                          timeout=max(1.0, started + limit - time.monotonic()))
    ops = result["ops"]

    # Judge every call: the first successful call per input in full, the
    # rest by digest of their (untimed) outputs against it. A failed
    # operation fails the check.
    errors: list[str] = [setup_error] if setup_error else []
    failed = 0
    reference: dict[int, str] = {}
    reports: dict[int, dict] = {}
    expectations = {}
    for op in ops:
        out = Path(op["out"])
        bad = failed_arms(workload, op)
        if bad:
            failed += bad
            errors.append(f"{out.name}: {bad} of {len(workload.arms)} operations failed"
                          f" (exit code {op['rc']}, see program.log)")
            continue
        index = op["input"]
        try:
            if index not in reference:
                expectations[index] = expected_of(workload, inputs[index])
                check_outputs(workload, out, expectations[index], inputs[index]["seed"])
                reference[index] = _digest(*_output_files(workload, out))
                if workload.command == "pipeline":
                    reports[index] = json.loads((out / "pipeline_report.json").read_text())
            else:
                expect(_digest(*_output_files(workload, out)) == reference[index],
                       f"outputs of {out.name} differ from the first call on input {index}")
            if op["traced"]:
                check_trace(workload, op, reports.get(index), expectations[index])
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            errors.append(f"{out.name}: {type(exc).__name__}: {exc}")
            failed += len(workload.arms)
    if trace and workload.fmt == "aol":
        sessions = result["sessions"]
        got = [[user, sorted(items)] for user, items in sessions["users"] or []]
        want = [[user, sorted(items)] for user, items in inputs[sessions["input"]]["sessions"]]
        if got != want:
            errors.append("sessionize: users differ from the generator's sessions")
    for op_dir in run_dir.glob("op*"):
        shutil.rmtree(op_dir, ignore_errors=True)

    # Timings come only from calls that passed; with a failed call the run
    # is incorrect and reports none.
    metrics: dict[str, float] = {}
    raw_wall: dict[str, float] = {}
    if not errors:
        raw_wall = {"setup_s": setup_raw_s,
                    "run_s": statistics.median(_per_round(ops, traced=False, raw=True))}
        round_means = _per_round(ops, traced=False)
        n_mean = statistics.mean(m["transactions"] for m in inputs)
        run_s = statistics.median(round_means)
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "tx_per_s": n_mean / run_s,
            "peak_rss_mb": result["peak_rss_kib"] / 1024,
        }
        if trace:
            metrics = _layer_metrics(ops, round_means, import_s)
            _print_self_times(workload, metrics)
        declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        if sorted(metrics) != sorted(declared):
            raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {declared}")
    summary = {
        "workload": workload.name,
        "correct": not errors,
        "attempted": len(ops) * len(workload.arms),
        "failed": failed,
        "rounds": result["rounds"],
        "metrics": metrics,
        "raw_wall": raw_wall,
        "errors": errors,
    }
    (run_dir / "results.json").write_text(json.dumps(summary, indent=2))
    return summary


def _per_round(ops: list[dict], traced: bool, raw: bool = False) -> list[float]:
    """Mean seconds of one call in each round, speed-normalized unless raw."""
    by_round: dict[int, list[float]] = {}
    for op in ops:
        if op["traced"] == traced:
            seconds = op["seconds"] if raw else normalize(op["seconds"], op["reference_s"])
            by_round.setdefault(op["round"], []).append(seconds)
    return [statistics.mean(v) for v in by_round.values()]


def _layer_metrics(ops, untraced_rounds, import_s) -> dict:
    """Per-layer metrics: per-call means within a round, median over rounds."""
    by_round: dict[int, list[dict]] = {}
    for op in ops:
        if "layers" in op:
            by_round.setdefault(op["round"], []).append(op["layers"])
    per_round = [{k: statistics.mean(row[k] for row in rows) for k in rows[0]}
                 for rows in by_round.values()]
    metrics = {k: statistics.median(row[k] for row in per_round) for k in per_round[0]}
    metrics["cli.import_s"], metrics["cli.import_jsonschema_s"] = import_s
    metrics["trace.overhead_s"] = (statistics.median(_per_round(ops, traced=True))
                                   - statistics.median(untraced_rounds))
    return metrics


def _print_self_times(workload, metrics: dict) -> None:
    """Self time of each traced layer per call, and its share of their sum."""
    rows = [(k, v) for k, v in metrics.items()
            if UNITS[k] == "s" and not k.startswith(("cli.import", "trace."))]
    total = sum(v for _, v in rows)
    print(f"\n{workload.name}: self time per traced call")
    for key, value in rows:
        print(f"  {key:32s} {value:12.6f} s {100 * value / total:6.1f}%")
    print(f"  {'trace.overhead_s':32s} {metrics['trace.overhead_s']:12.6f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help=f"length of the measured rounds (default {SPEC['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "txcleanse" / "cli.py").is_file():
        print(f"no txcleanse sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    checker.self_check()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                 for n in names]

    for s in summaries:
        print(f"\n{s['workload']}: seed {args.seed}, {s['rounds']} rounds,"
              f" {s['attempted']} operations attempted, {s['failed']} failed,"
              f" checks {'passed' if s['correct'] else 'FAILED'}")
        for name, value in s["metrics"].items():
            unit = UNITS[name]
            print(f"  {name:32s} {value:16{'g' if unit == 'count' else '.6f'}} {unit}")
        for name, value in s["raw_wall"].items():
            print(f"  {name + ' (raw wall)':32s} {value:16.6f} s")
        for error in s["errors"]:
            print(f"  check failed: {error}")

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in s["metrics"].items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {k: {"value": v, "unit": UNITS[k.split("/")[-1]]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        sys.exit(2)
