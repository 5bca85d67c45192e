"""In-memory spans around the calls the CLI makes into each txcleanse module.

The tracer replaces module attributes with timing wrappers for the length of
one traced call and puts the originals back afterwards, so untraced calls in
the same process run the program exactly as shipped. Each span records its
name, start, end, parent span and run id; a layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import logging
import time

# ``txcleanse.cleanse`` is shadowed by the function of that name on the package.
cleanse, cli, clope, ingest = (importlib.import_module(f"txcleanse.{name}")
                               for name in ("cleanse", "cli", "clope", "ingest"))

# (module, attribute, span name, per-layer metric the span's self time feeds)
TARGETS = (
    (cli, "load_database", "cli.load_database", "ingest.parse_s"),
    (ingest, "parse_transactions", "ingest.parse_transactions", "ingest.parse_s"),
    (ingest, "parse_query_log", "ingest.parse_query_log", "ingest.parse_s"),
    (ingest, "parse_keyword_registration", "ingest.parse_keyword_registration", "ingest.parse_s"),
    (ingest, "sessionize", "ingest.sessionize", "ingest.sessionize_s"),
    (cli, "item_frequencies", "cleanse.item_frequencies", "cleanse.freq_s"),
    (cleanse, "item_frequencies", "cleanse.item_frequencies", "cleanse.freq_s"),
    (cli, "fit_distribution", "cleanse.fit_distribution", "cleanse.fit_s"),
    (cli, "cleanse_database", "cleanse.cleanse", "cleanse.apply_s"),
    (clope, "clope_cluster", "clope.clope_cluster", None),
    (cli, "write_assignment_csv", "cli.write_assignment_csv", "cli.write_s"),
    (ingest, "write_transactions", "ingest.write_transactions", "cli.write_s"),
    (cli, "validate_report", "cli.validate_report", "cli.validate_report_s"),
)
ROOT = ("cli.main", "cli.other_s")
ARMS = ("raw", "cleansed")
TIME_METRICS = sorted({metric for *_, metric in TARGETS if metric} | {ROOT[1]})


class _WarningCounter(logging.Handler):
    """Counts parser warnings and still prints them, as an untraced call does."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1
        logging.lastResort.handle(record)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._run = -1
        self._loaded = None
        self._results: dict[int, object] = {}  # span id -> return value
        self.sessions = None

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            record = {"id": len(self.spans), "name": name, "run": self._run,
                      "parent": self._stack[-1] if self._stack else None}
            self.spans.append(record)
            self._stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            # Only O(1) work here: it runs inside the parent span. Counts
            # are taken from the kept results after the call.
            self._results[record["id"]] = result
            if name == "cli.load_database":
                self._loaded = result
            elif name == "clope.clope_cluster":
                record["arm"] = "raw" if args[0] is self._loaded else "cleansed"
                record["n"] = args[0].n
            return result
        return traced

    def call(self, run: int, main, argv: list[str]) -> int:
        """Run ``main(argv)`` with every target wrapped; restore afterwards."""
        self._run = run
        self._loaded = None
        self._results.clear()
        # A target the program no longer has is skipped; its layer reads 0.
        originals = [(module, attr, name, getattr(module, attr))
                     for module, attr, name, _ in TARGETS if hasattr(module, attr)]
        counter = _WarningCounter()
        log = logging.getLogger(ingest.__name__)
        log.addHandler(counter)
        try:
            for module, attr, name, original in originals:
                setattr(module, attr, self._wrap(name, original))
            root = len(self.spans)
            rc = self._wrap(ROOT[0], main)(argv)
        finally:
            for module, attr, _, original in originals:
                setattr(module, attr, original)
            log.removeHandler(counter)
        self.spans[root]["warnings"] = counter.count
        return rc

    def layer_metrics(self, run: int, input_bytes: int) -> dict[str, float]:
        """Per-layer metrics of one traced call, from its spans."""
        spans = [s for s in self.spans if s["run"] == run]
        children: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        metric_of = {name: metric for *_, name, metric in TARGETS}
        metric_of[ROOT[0]] = ROOT[1]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        counts = {"ingest.transactions": 0, "ingest.items": 0, "ingest.occurrences": 0,
                  "ingest.warnings": 0, "cleanse.items_removed_low": 0,
                  "cleanse.items_removed_high": 0, "cleanse.items_retained": 0,
                  "cleanse.tx_pruned": 0}
        for arm in ARMS:
            for key in ("add_s", "refine_s", "tx_scored_per_s", "k", "passes", "moves", "profit"):
                counts[f"clope.{arm}.{key}"] = 0
        ingest_s = 0.0
        for s in spans:
            duration = s["end"] - s["start"]
            if metric_of[s["name"]]:
                out[metric_of[s["name"]]] += duration - children.get(s["id"], 0.0)
            result = self._results.pop(s["id"], None)
            if s["name"] == "cli.load_database":
                ingest_s += duration
                counts.update({"ingest.transactions": result.n, "ingest.items": result.m,
                               "ingest.occurrences": result.total_occurrences()})
            elif s["name"] == "ingest.sessionize" and self.sessions is None:
                self.sessions = [[t.label, result.item_strings(t)] for t in result]
            elif s["name"] == ROOT[0]:
                counts["ingest.warnings"] = s["warnings"]
            elif s["name"] == "cleanse.cleanse":
                report = result[1]
                counts.update({
                    "cleanse.items_removed_low": report.items_removed_low,
                    "cleanse.items_removed_high": report.items_removed_high,
                    "cleanse.items_retained": report.items_retained,
                    "cleanse.tx_pruned": report.transactions_removed_empty,
                })
            elif s["name"] == "clope.clope_cluster":
                prefix = f"clope.{s['arm']}."
                counts.update({
                    prefix + "k": result.k, prefix + "passes": result.passes,
                    prefix + "moves": sum(result.moves_per_pass), prefix + "profit": result.profit,
                    prefix + "add_s": result.seconds_add, prefix + "refine_s": result.seconds_refine,
                    prefix + "tx_scored_per_s": s["n"] * (result.passes + 1) / duration,
                })
        out["ingest.mb_per_s"] = input_bytes / 2**20 / ingest_s if ingest_s else 0.0
        out.update(counts)
        return out

