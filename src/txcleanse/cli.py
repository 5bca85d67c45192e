"""Command-line interface: ingest -> stats -> fit -> cleanse -> cluster,
plus the two-arm cleansed-vs-raw pipeline harness and a synthetic generator.

Exit codes: 0 success, 1 pipeline arm failure or a cleanse that kept no
transaction, 2 I/O or usage error, 3 empty input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import clope, ingest, synth
from .cleanse import (
    EXPONENTIAL,
    KINDS,
    LOGNORMAL,
    ManualBand,
    cleanse as cleanse_database,
    fit_distribution,
    item_frequencies,
    log_likelihood,
    write_histogram_csv,
)
from .core import ParseError, TransactionDatabase

FORMATS = ("generic", "aol", "keywords")

EXIT_OK = 0
EXIT_ARM_FAILURE = 1
EXIT_IO = 2
EXIT_EMPTY = 3

EMPTY_CLEANSE = "cleansing removed every transaction"


class EmptyInputError(ValueError):
    pass


@dataclass
class PipelineConfig:
    """Knobs of one experiment run; mirrors the report's config stanza.

    Every data subcommand reads its parameters through this class, and
    ``validate`` is their one range check.
    """

    input_path: str
    fmt: str = "generic"
    delimiter: str = "\t"
    distribution: str = LOGNORMAL
    s: float = 5.0
    repulsion: float = 1.5
    max_passes: int = 20
    limit: int | None = None
    seed: int | None = None
    out_dir: Path = Path(".")
    raw_band: bool = False
    manual_lower: float | None = None
    manual_upper: float | None = None

    def validate(self) -> None:
        """Raise ParseError naming the first out-of-range parameter."""
        if self.fmt not in FORMATS:
            raise ParseError(f"unknown format {self.fmt!r}")
        _check_delimiter(self.delimiter)
        if self.distribution not in KINDS:
            raise ParseError(f"unknown distribution {self.distribution!r}")
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ParseError("s must be finite and > 0")
        if not (self.repulsion > 0 and math.isfinite(self.repulsion)):
            raise ParseError("repulsion must be finite and > 0")
        if self.max_passes < 1:
            raise ParseError("max-passes must be >= 1")
        if self.limit is not None and self.limit < 1:
            raise ParseError("limit must be >= 1")
        if (self.manual_lower is None) != (self.manual_upper is None):
            raise ParseError("manual band needs both --lower and --upper")
        if self.manual_lower is not None:
            try:
                ManualBand(self.manual_lower, self.manual_upper)
            except ValueError as exc:
                raise ParseError(str(exc)) from None

    def to_json_dict(self) -> dict:
        return {
            "input": self.input_path,
            "format": self.fmt,
            "delimiter": self.delimiter,
            "distribution": self.distribution,
            "s": self.s,
            "repulsion": self.repulsion,
            "max_passes": self.max_passes,
            "limit": self.limit,
            "seed": self.seed,
            "raw_band": self.raw_band,
            "manual_lower": self.manual_lower,
            "manual_upper": self.manual_upper,
        }


def _check_delimiter(delimiter: str) -> None:
    if not delimiter:
        raise ParseError("delimiter must be non-empty")


def load_database(path: str | Path, fmt: str, delimiter: str = "\t",
                  limit: int | None = None) -> TransactionDatabase:
    """Parse an input file into a database, honoring the head truncation."""
    with open(path, "rb") as fh:
        if fmt == "generic":
            db = ingest.parse_transactions(fh, delimiter=delimiter)
        elif fmt == "aol":
            db = ingest.sessionize(ingest.parse_query_log(fh))
        elif fmt == "keywords":
            db = ingest.parse_keyword_registration(fh)
        else:
            raise ParseError(f"unknown format {fmt!r}")
    if limit is not None:
        db = ingest.truncate(db, limit)
    return db


def _band_from_config(db: TransactionDatabase, config: PipelineConfig):
    if config.manual_lower is None and config.manual_upper is None:
        hist = item_frequencies(db)
        return fit_distribution(hist, config.distribution, config.s, raw_band=config.raw_band)
    return ManualBand(config.manual_lower, config.manual_upper)


def _assignment_csv_lines(clustering: clope.Clustering):
    yield "tid,cluster_id"
    for tid, cid in enumerate(clustering.assignment):
        yield f"{tid},{cid}"


def write_assignment_csv(clustering: clope.Clustering, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in _assignment_csv_lines(clustering):
            fh.write(line + "\n")


def _failed_arm(seconds: dict, error: str) -> dict:
    return {
        "status": "failed",
        "error": error,
        "k": None,
        "profit": None,
        "passes": None,
        "profit_per_pass": None,
        "hit_max_passes": None,
        "n_transactions": None,
        "n_items": None,
        "assignment_csv": None,
        "seconds": seconds,
        "cleansing": None,
    }


def run_pipeline(config: PipelineConfig, db: TransactionDatabase | None = None) -> dict:
    """Run both arms on the same input and emit the comparison report.

    Arm 'cleansed' fits a band (or uses the manual one), cleanses, then
    clusters; arm 'raw' clusters the input unchanged, exactly as the
    ``cluster`` subcommand would. Assignment CSVs and the validated report
    are written into ``config.out_dir``. The report's time ratio compares
    cleanse+cluster seconds of the raw arm against the cleansed arm, leaving
    file parsing out of the comparison. ``config`` must have passed
    ``PipelineConfig.validate``.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    if db is None:
        db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    seconds_ingest = time.perf_counter() - started
    if db.m == 0:
        raise EmptyInputError("input contains no items")

    arms: dict[str, dict] = {}
    for arm_name in ("cleansed", "raw"):
        seconds = {"ingest": seconds_ingest, "cleanse": 0.0, "cluster": 0.0}
        cleansing_json = None
        try:
            arm_db = db
            if arm_name == "cleansed":
                started = time.perf_counter()
                band = _band_from_config(db, config)
                arm_db, report = cleanse_database(db, band)
                seconds["cleanse"] = time.perf_counter() - started
                cleansing_json = report.to_json_dict()
                if arm_db.n == 0:
                    raise ValueError(EMPTY_CLEANSE)
            started = time.perf_counter()
            clustering = clope.clope_cluster(arm_db, config.repulsion, config.max_passes)
            seconds["cluster"] = time.perf_counter() - started
            csv_name = f"assignment_{arm_name}.csv"
            write_assignment_csv(clustering, out_dir / csv_name)
            arms[arm_name] = {
                "status": "ok",
                "error": None,
                "k": clustering.k,
                "profit": clustering.profit,
                "passes": clustering.passes,
                "profit_per_pass": clustering.profit_per_pass,
                "hit_max_passes": clustering.hit_max_passes,
                "n_transactions": arm_db.n,
                "n_items": arm_db.m,
                "assignment_csv": csv_name,
                "seconds": seconds,
                "cleansing": cleansing_json,
            }
        except Exception as exc:  # either arm failing is itself a result
            arms[arm_name] = _failed_arm(seconds, f"{type(exc).__name__}: {exc}")

    profit_ratio = None
    time_ratio = None
    if arms["cleansed"]["status"] == "ok" and arms["raw"]["status"] == "ok":
        raw_profit = arms["raw"]["profit"]
        if raw_profit:
            profit_ratio = arms["cleansed"]["profit"] / raw_profit
        cleansed_time = arms["cleansed"]["seconds"]["cleanse"] + arms["cleansed"]["seconds"]["cluster"]
        raw_time = arms["raw"]["seconds"]["cleanse"] + arms["raw"]["seconds"]["cluster"]
        if cleansed_time > 0:
            time_ratio = raw_time / cleansed_time

    report = {
        "schema_version": 1,
        "config": config.to_json_dict(),
        "arms": arms,
        "improvement": {"profit_ratio": profit_ratio, "time_ratio": time_ratio},
    }
    validate_report(report)
    with open(out_dir / "pipeline_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def load_report_schema() -> dict:
    text = resources.files("txcleanse").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _report_validator():
    # jsonschema is imported on first use: only ``pipeline`` validates.
    import jsonschema

    schema = load_report_schema()
    validator_class = jsonschema.validators.validator_for(schema)
    validator_class.check_schema(schema)
    return validator_class(schema)


def validate_report(report: dict) -> None:
    """Raise jsonschema.ValidationError unless ``report`` fits the shipped
    schema, which is loaded and checked once per process."""
    _report_validator().validate(report)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_stats(config: PipelineConfig, args: argparse.Namespace) -> int:
    db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    hist = item_frequencies(db)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_histogram_csv(hist, out_dir / "histogram.csv")
    freqs = sorted(hist.per_item.values())
    print(f"transactions: {db.n}")
    print(f"distinct_items: {db.m}")
    print(f"total_occurrences: {db.total_occurrences()}")
    if freqs:
        median = (freqs[(len(freqs) - 1) // 2] + freqs[len(freqs) // 2]) / 2
        print(f"frequency_min: {freqs[0]}")
        print(f"frequency_median: {median}")
        print(f"frequency_max: {freqs[-1]}")
    print(f"histogram_csv: {out_dir / 'histogram.csv'}")
    return EXIT_OK


def cmd_fit(config: PipelineConfig, args: argparse.Namespace) -> int:
    db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    if db.m == 0:
        print("no items to fit", file=sys.stderr)
        return EXIT_EMPTY
    hist = item_frequencies(db)
    fit = fit_distribution(hist, config.distribution, config.s, raw_band=config.raw_band)
    verdicts = Counter(fit.classify(f) for f in hist.per_item.values())
    payload = {
        **fit.to_json_dict(),
        "items_below": verdicts[-1],
        "items_inside": verdicts[0],
        "items_above": verdicts[1],
        "advisory_log_likelihood": {
            "lognormal": log_likelihood(hist, LOGNORMAL),
            "exponential": log_likelihood(hist, EXPONENTIAL),
        },
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_cleanse(config: PipelineConfig, args: argparse.Namespace) -> int:
    db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    if db.m == 0:
        print("no items to fit", file=sys.stderr)
        return EXIT_EMPTY
    band = _band_from_config(db, config)
    cleansed, report = cleanse_database(db, band)
    if cleansed.n == 0:
        print(EMPTY_CLEANSE, file=sys.stderr)
        return EXIT_ARM_FAILURE
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_transactions(cleansed, out_dir / "cleansed.tsv", config.delimiter)
    with open(out_dir / "cleanse_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    print(
        f"items: kept {report.items_retained}, removed {report.items_removed_low} low"
        f" + {report.items_removed_high} high; transactions: kept"
        f" {report.transactions_retained}, pruned {report.transactions_removed_empty}"
    )
    return EXIT_OK


def cmd_cluster(config: PipelineConfig, args: argparse.Namespace) -> int:
    started = time.perf_counter()
    db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    seconds_ingest = time.perf_counter() - started
    if db.n == 0:
        print("no transactions to cluster", file=sys.stderr)
        return EXIT_EMPTY
    clustering = clope.clope_cluster(db, config.repulsion, config.max_passes)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    write_assignment_csv(clustering, out_dir / "assignment.csv")
    payload = {
        "k": clustering.k,
        "profit": clustering.profit,
        "passes": clustering.passes,
        "profit_per_pass": clustering.profit_per_pass,
        "moves_per_pass": clustering.moves_per_pass,
        "hit_max_passes": clustering.hit_max_passes,
        "seconds": {
            "ingest": seconds_ingest,
            "add_phase": clustering.seconds_add,
            "refine_phase": clustering.seconds_refine,
        },
    }
    with open(out_dir / "cluster_report.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"k: {clustering.k}")
    print(f"profit: {clustering.profit}")
    print(f"passes: {clustering.passes}")
    return EXIT_OK


def cmd_pipeline(config: PipelineConfig, args: argparse.Namespace) -> int:
    report = run_pipeline(config)
    ok = all(arm["status"] == "ok" for arm in report["arms"].values())
    for name, arm in report["arms"].items():
        if arm["status"] == "ok":
            print(f"{name}: k={arm['k']} profit={arm['profit']:.6f} passes={arm['passes']}")
        else:
            print(f"{name}: FAILED ({arm['error']})")
    improvement = report["improvement"]
    print(f"profit_ratio: {improvement['profit_ratio']}")
    print(f"time_ratio: {improvement['time_ratio']}")
    return EXIT_OK if ok else EXIT_ARM_FAILURE


def cmd_synth(spec: synth.SyntheticSpec, args: argparse.Namespace) -> int:
    db, labels = synth.generate_synthetic(spec)
    out_dir = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_transactions(db, out_dir / "synthetic.tsv", args.delimiter)
    synth.write_labels_csv(labels, out_dir / "labels.csv")
    print(f"transactions: {db.n}")
    print(f"distinct_items: {db.m}")
    print(f"written: {out_dir / 'synthetic.tsv'}, {out_dir / 'labels.csv'}")
    return EXIT_OK


def _params_from_args(args: argparse.Namespace) -> PipelineConfig | synth.SyntheticSpec:
    """The validated parameters of the parsed subcommand: a SyntheticSpec
    for ``synth``, a PipelineConfig for every data subcommand. Option
    destinations are named after the fields they fill."""
    cls = synth.SyntheticSpec if args.command == "synth" else PipelineConfig
    names = {f.name for f in dataclasses.fields(cls)}
    params = cls(**{k: v for k, v in vars(args).items() if k in names})
    params.validate()
    if cls is synth.SyntheticSpec:
        _check_delimiter(args.delimiter)
    return params


# ---------------------------------------------------------------------------
# parser


def _delimiter(text: str) -> str:
    # Allow the shell-friendly spellings of a tab.
    return "\t" if text in ("\\t", "TAB", "tab") else text


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input_path", metavar="input", help="input file path")
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="generic",
                     help="input layout (default: generic)")
    sub.add_argument("--delimiter", type=_delimiter, default="\t",
                     help="item delimiter for generic input (default: TAB)")
    sub.add_argument("--limit", type=int, default=None,
                     help="keep only the first N transactions, N >= 1")
    sub.add_argument("--out-dir", type=Path, default=".", help="directory for output files")


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dist", dest="distribution", choices=KINDS, default=LOGNORMAL,
                     help="distribution to fit (default: lognormal)")
    sub.add_argument("--s", type=float, default=5.0,
                     help="band half-width in standard deviations, finite and > 0 "
                          "(default: 5.0)")
    sub.add_argument("--raw-band", action="store_true",
                     help="apply the lognormal band to raw frequencies instead of log space")


def _add_band_override(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lower", dest="manual_lower", metavar="LOWER", type=float, default=None,
                     help="manual band: lowest retained frequency, finite and "
                          "<= --upper (with --upper)")
    sub.add_argument("--upper", dest="manual_upper", metavar="UPPER", type=float, default=None,
                     help="manual band: highest retained frequency, may be inf "
                          "(with --lower)")


def _add_cluster_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--repulsion", type=float, default=1.5,
                     help="cluster tightness parameter r, finite and > 0 (default: 1.5)")
    sub.add_argument("--max-passes", type=int, default=20,
                     help="refinement pass cap, >= 1 (default: 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txcleanse",
        description="Frequency-band cleansing and profit-driven clustering "
                    "for transaction databases.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("stats", help="item-frequency histogram and summary")
    _add_input_options(sub)
    sub.set_defaults(func=cmd_stats)

    sub = commands.add_parser("fit", help="fit a distribution and report the band")
    _add_input_options(sub)
    _add_fit_options(sub)
    sub.set_defaults(func=cmd_fit)

    sub = commands.add_parser("cleanse", help="remove out-of-band items and empty transactions")
    _add_input_options(sub)
    _add_fit_options(sub)
    _add_band_override(sub)
    sub.set_defaults(func=cmd_cleanse)

    sub = commands.add_parser("cluster", help="cluster the input as-is")
    _add_input_options(sub)
    _add_cluster_options(sub)
    sub.set_defaults(func=cmd_cluster)

    sub = commands.add_parser("pipeline", help="cleansed-vs-raw comparison harness")
    _add_input_options(sub)
    _add_fit_options(sub)
    _add_band_override(sub)
    _add_cluster_options(sub)
    sub.add_argument("--seed", type=int, default=None,
                     help="recorded in the report for reproducibility bookkeeping")
    sub.set_defaults(func=cmd_pipeline)

    sub = commands.add_parser("synth", help="generate a labeled synthetic database")
    sub.add_argument("--transactions", type=int, default=5000)
    sub.add_argument("--clusters", type=int, default=50)
    sub.add_argument("--items-per-cluster", type=int, default=20)
    sub.add_argument("--picks", dest="picks_per_transaction", metavar="PICKS", type=int,
                     default=10, help="core items sampled per transaction")
    sub.add_argument("--noise-rate", type=float, default=0.3,
                     help="fraction of transactions receiving one-off junk items")
    sub.add_argument("--noise-items", dest="noise_items_per_hit", metavar="NOISE_ITEMS",
                     type=int, default=1, help="junk items injected per noisy transaction")
    sub.add_argument("--ubiquitous", dest="ubiquitous_items", metavar="UBIQUITOUS",
                     type=int, default=5, help="count of near-ubiquitous items")
    sub.add_argument("--ubiquity", type=float, default=0.95,
                     help="probability each ubiquitous item joins a transaction")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--delimiter", type=_delimiter, default="\t")
    sub.add_argument("--out-dir", type=Path, default=".")
    sub.set_defaults(func=cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _params_from_args(args)
    except ValueError as exc:  # ParseError included
        parser.error(str(exc))
    try:
        return args.func(params, args)
    except EmptyInputError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_EMPTY
    except (OSError, ParseError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
