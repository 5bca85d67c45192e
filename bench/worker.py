"""Benchmark worker: the only process that imports txcleanse.

    worker.py generate WORKLOAD SEED DIR   write the seeded inputs into DIR
    worker.py tiny WORKLOAD DIR            write the fixed set-up input into DIR
    worker.py setup WORKLOAD INPUT OUT     one CLI call on the set-up input;
                                           writes OUT/speed.json
    worker.py run WORKLOAD INPUTS_JSON TINY OUT SECONDS TRACE

``run`` makes one untimed warm-up call on the set-up input, then times whole
rounds of ``txcleanse.cli.main(argv)`` (one call per input) for SECONDS.
With TRACE=1 each call is paired with a traced call on the same input.
Every timed call, and a set-up process from before it imports txcleanse,
samples the machine's speed (see speed.py).
After every whole round it rewrites ``worker.json`` (and ``spans.json`` when
tracing) in OUT, so a worker stopped from outside leaves the rounds it
finished. The runner sets PYTHONPATH so that ``txcleanse`` comes from the
checkout.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import Speedometer
from workloads import WORKLOADS


def _write_input(workload, fields: dict, seed: int, path: Path) -> dict:
    meta = {"path": path.name, "seed": seed}
    if workload.fmt == "aol":
        from aol_gen import AolSpec, write_aol_log

        log = write_aol_log(AolSpec(**fields, seed=seed), path)
        meta.update(log.to_json_dict(), transactions=len(log.sessions))
    else:
        from txcleanse import synth
        from txcleanse.ingest import write_transactions

        db, _ = synth.generate_synthetic(synth.SyntheticSpec(**fields, seed=seed))
        write_transactions(db, path)
        meta["transactions"] = db.n
    meta["bytes"] = path.stat().st_size
    return meta


def generate(workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    inputs = [
        _write_input(workload, workload.spec, workload.input_seed(seed, i), out / f"input-{i}.tsv")
        for i in range(workload.inputs_per_round)
    ]
    (out / "meta.json").write_text(json.dumps({"inputs": inputs}))


def tiny(workload, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    meta = _write_input(workload, workload.tiny, 0, out / "input.tsv")
    (out / "meta.json").write_text(json.dumps(meta))


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except Exception:  # a crash inside the program is a failed operation
        traceback.print_exc()
        return -1


def _peak_rss_kib() -> int:
    """This process's own resident high-water mark. ``ru_maxrss`` is not
    used: on Linux it keeps the parent's peak from before ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _replace(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _save(out: Path, ops: list[dict], rounds: int, tracer) -> None:
    result = {"ops": ops, "rounds": rounds, "peak_rss_kib": _peak_rss_kib()}
    if tracer is not None:
        first = next(op["input"] for op in ops if op["traced"])
        result["sessions"] = {"input": first, "users": tracer.sessions}
        _replace(out / "spans.json", json.dumps(tracer.spans))
    _replace(out / "worker.json", json.dumps(result))


def run(workload, inputs: list[dict], tiny_input: str, out: Path, seconds: float,
        trace: bool, speedometer: Speedometer) -> None:
    from txcleanse import cli

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    _call(cli.main, workload.argv(tiny_input, str(out / "warmup")))

    ops = []
    started = time.perf_counter()
    rounds = 0
    # Another round starts only if it should end within SECONDS, so a run
    # never measures one round more than its length allows.
    while rounds == 0 or (time.perf_counter() - started) * (rounds + 1) / rounds <= seconds:
        for index, meta in enumerate(inputs):
            # Alternate which call goes first, so that order effects do not
            # land in trace.overhead_s.
            order = (False, True) if (rounds + index) % 2 == 0 else (True, False)
            for traced in order if trace else (False,):
                run_id = len(ops)
                op_dir = out / f"op{run_id:03d}"
                argv = workload.argv(meta["path"], str(op_dir))
                main = functools.partial(tracer.call, run_id, cli.main) if traced else cli.main
                speedometer.start()
                t0 = time.perf_counter()
                rc = _call(main, argv)
                elapsed = time.perf_counter() - t0
                op = {"round": rounds, "input": index, "traced": traced, "rc": rc,
                      "seconds": elapsed, "reference_s": speedometer.stop(),
                      "out": str(op_dir)}
                if traced and rc == 0:
                    op["layers"] = tracer.layer_metrics(run_id, meta["bytes"])
                ops.append(op)
        rounds += 1
        _save(out, ops, rounds, tracer)


def main(argv: list[str], speedometer: Speedometer) -> int:
    command, name, *rest = argv
    workload = WORKLOADS[name]
    if command == "generate":
        generate(workload, int(rest[0]), Path(rest[1]))
    elif command == "tiny":
        tiny(workload, Path(rest[0]))
    elif command == "setup":
        from txcleanse import cli

        try:
            rc = cli.main(workload.argv(rest[0], rest[1]))
        finally:
            reference_s = speedometer.stop()
        out = Path(rest[1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "speed.json").write_text(json.dumps({"reference_s": reference_s}))
        return rc
    elif command == "run":
        inputs = json.loads(Path(rest[0]).read_text())["inputs"]
        run(workload, inputs, rest[1], Path(rest[2]), float(rest[3]), rest[4] == "1",
            speedometer)
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    speedometer = Speedometer()
    if sys.argv[1] == "setup":
        speedometer.start()  # set-up time includes importing txcleanse
    import txcleanse

    expected = Path(os.environ["TXCLEANSE_SRC"]).resolve()
    if Path(txcleanse.__file__).resolve().parent.parent != expected:
        raise SystemExit(f"txcleanse imported from {txcleanse.__file__}, expected {expected}")
    sys.exit(main(sys.argv[1:], speedometer))
