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
    Band,
    FrequencyHistogram,
    ManualBand,
    check_kind,
    check_s,
    fit_distribution,
    item_frequencies,
    log_likelihood,
    plan_cleanse as cleanse_database,  # the band step: callers remap or write its table
    write_histogram_csv,
)
from .core import ParseError, TransactionDatabase, remap

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

    Every data subcommand reads its parameters through this class and takes
    its options' defaults from its fields, and ``validate`` checks them all
    with the checks of the modules that take them.
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
        try:
            ingest.check_delimiter(self.delimiter)
            check_kind(self.distribution)
            check_s(self.s)
            clope.check_repulsion(self.repulsion)
            clope.check_max_passes(self.max_passes)
            ingest.check_limit(self.limit)
            if self.manual_lower is not None or self.manual_upper is not None:
                ManualBand(self.manual_lower, self.manual_upper)
        except ValueError as exc:  # ParseError included
            raise ParseError(str(exc)) from None

    def to_json_dict(self) -> dict:
        """The report's config stanza: every field but ``out_dir``, in field
        order, with ``input_path`` and ``fmt`` under ``input`` and ``format``."""
        keys = {"input_path": "input", "fmt": "format"}
        return {keys.get(f.name, f.name): getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name != "out_dir"}


def load_database(path: str | Path, fmt: str, delimiter: str = "\t",
                  limit: int | None = None) -> TransactionDatabase:
    """Parse an input file into a database of its first ``limit`` transactions.
    The generic and keyword parsers stop reading there; a query log is read
    whole, since a user's rows can come late, and then truncated."""
    with open(path, "rb") as fh:
        if fmt == "generic":
            return ingest.parse_transactions(fh, delimiter=delimiter, limit=limit)
        if fmt == "keywords":
            return ingest.parse_keyword_registration(fh, limit=limit)
        if fmt != "aol":
            raise ParseError(f"unknown format {fmt!r}")
        db = ingest.sessionize(ingest.iter_query_log(fh))
    return db if limit is None else ingest.truncate(db, limit)


def _band_from_config(db: TransactionDatabase,
                      config: PipelineConfig) -> tuple[Band, FrequencyHistogram]:
    """The band to cleanse ``db`` with, and ``item_frequencies(db)``, which
    the fit reads and ``cleanse`` takes, counted once for both."""
    if db.m == 0:
        raise EmptyInputError("no items to fit")
    hist = item_frequencies(db)
    if config.manual_lower is None and config.manual_upper is None:
        band = fit_distribution(hist, config.distribution, config.s, raw_band=config.raw_band)
    else:
        band = ManualBand(config.manual_lower, config.manual_upper)
    return band, hist


def write_assignment_csv(clustering: clope.Clustering, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tid,cluster_id\n")
        for tid, cid in enumerate(clustering.assignment):
            fh.write(f"{tid},{cid}\n")


def _write_json(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def run_pipeline(config: PipelineConfig, db: TransactionDatabase | None = None) -> dict:
    """Run both arms on the same input and emit the comparison report.

    Arm 'cleansed' fits a band (or uses the manual one), cleanses, then
    clusters; arm 'raw' clusters the input unchanged, exactly as the
    ``cluster`` subcommand would. Assignment CSVs and the report, which
    fits ``report_schema.json``, are written into ``config.out_dir``. The
    report's time ratio compares cleanse+cluster seconds of the raw arm
    against the cleansed arm, leaving file parsing out of the comparison. ``config`` must have passed
    ``PipelineConfig.validate``.
    """
    started = time.perf_counter()
    if db is None:
        db = load_database(config.input_path, config.fmt, config.delimiter, config.limit)
    seconds_ingest = time.perf_counter() - started
    if db.m == 0:
        raise EmptyInputError("input contains no items")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    arms: dict[str, dict] = {}
    for arm_name in ("cleansed", "raw"):
        seconds = {"ingest": seconds_ingest, "cleanse": 0.0, "cluster": 0.0}
        # A failed arm keeps these defaults; a finished one fills them in.
        arm = arms[arm_name] = {
            "status": "failed", "error": None, "k": None, "profit": None, "passes": None,
            "profit_per_pass": None, "hit_max_passes": None, "n_transactions": None,
            "n_items": None, "assignment_csv": None, "seconds": seconds, "cleansing": None,
        }
        try:
            arm_db = db
            if arm_name == "cleansed":
                started = time.perf_counter()
                band, hist = _band_from_config(db, config)
                _, cleansing = cleanse_database(db, band, hist)
                arm_db = remap(db, cleansing.id_map)
                seconds["cleanse"] = time.perf_counter() - started
                arm["cleansing"] = cleansing.to_json_dict()
                if arm_db.n == 0:
                    raise ValueError(EMPTY_CLEANSE)
            started = time.perf_counter()
            clustering = clope.clope_cluster(arm_db, config.repulsion, config.max_passes)
            seconds["cluster"] = time.perf_counter() - started
            csv_name = f"assignment_{arm_name}.csv"
            write_assignment_csv(clustering, out_dir / csv_name)
            arm.update(status="ok", k=clustering.k, profit=clustering.profit,
                       passes=clustering.passes, profit_per_pass=clustering.profit_per_pass,
                       hit_max_passes=clustering.hit_max_passes, n_transactions=arm_db.n,
                       n_items=arm_db.m, assignment_csv=csv_name)
        except Exception as exc:  # either arm failing is itself a result
            arm["error"] = f"{type(exc).__name__}: {exc}"

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
    _write_json(report, out_dir / "pipeline_report.json")
    return report


def load_report_schema() -> dict:
    """The JSON Schema that every ``pipeline_report.json`` fits."""
    text = resources.files("txcleanse").joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


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
    fit, hist = _band_from_config(db, config)
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
    band, hist = _band_from_config(db, config)
    kept, report = cleanse_database(db, band, hist)
    if report.transactions_retained == 0:
        print(EMPTY_CLEANSE, file=sys.stderr)
        return EXIT_ARM_FAILURE
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_transactions(db, out_dir / "cleansed.tsv", config.delimiter, kept)
    _write_json(report.to_json_dict(), out_dir / "cleanse_report.json")
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
        raise EmptyInputError("no transactions to cluster")
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
        "placements_per_pass": clustering.placements_per_pass,
        "hit_max_passes": clustering.hit_max_passes,
        "seconds": {
            "ingest": seconds_ingest,
            "add_phase": clustering.seconds_add,
            "refine_phase": clustering.seconds_refine,
        },
    }
    _write_json(payload, out_dir / "cluster_report.json")
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
        ingest.check_delimiter(args.delimiter)
    return params


# ---------------------------------------------------------------------------
# parser


def _delimiter(text: str) -> str:
    # Allow the shell-friendly spellings of a tab.
    return "\t" if text in ("\\t", "TAB", "tab") else text


def _defaults(cls: type) -> dict:
    """The field defaults of a parameter dataclass, which the parser's
    options take: each default is written once, on its field."""
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input_path", metavar="input", help="input file path")
    sub.add_argument("--format", dest="fmt", choices=FORMATS,
                     help="input layout (default: %(default)s)")
    sub.add_argument("--delimiter", type=_delimiter,
                     help="item delimiter for generic input (default: TAB)")
    sub.add_argument("--limit", type=int, help="keep only the first N transactions, N >= 1")
    sub.add_argument("--out-dir", type=Path, help="directory for output files")


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dist", dest="distribution", choices=KINDS,
                     help="distribution to fit (default: %(default)s)")
    sub.add_argument("--s", type=float,
                     help="band half-width in standard deviations, finite and > 0 "
                          "(default: %(default)s)")
    sub.add_argument("--raw-band", action="store_true",
                     help="apply the lognormal band to raw frequencies instead of log space")


def _add_band_override(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lower", dest="manual_lower", metavar="LOWER", type=float,
                     help="manual band: lowest retained frequency, finite and "
                          "<= --upper (with --upper)")
    sub.add_argument("--upper", dest="manual_upper", metavar="UPPER", type=float,
                     help="manual band: highest retained frequency, may be inf "
                          "(with --lower)")


def _add_cluster_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--repulsion", type=float,
                     help="cluster tightness parameter r, finite and > 0 (default: %(default)s)")
    sub.add_argument("--max-passes", type=int,
                     help="refinement pass cap, >= 1 (default: %(default)s)")


def _add_seed_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int,
                     help="recorded in the report for reproducibility bookkeeping")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it
    unchanged, and each build would leave a few hundred objects of cyclic
    garbage behind. Each option's destination names the field it fills,
    and its default is that field's: SyntheticSpec's for ``synth``'s
    generator options, PipelineConfig's for every other option."""
    parser = argparse.ArgumentParser(
        prog="txcleanse",
        description="Frequency-band cleansing and profit-driven clustering "
                    "for transaction databases.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    config = _defaults(PipelineConfig)
    for name, help_text, func, add_options in (
        ("stats", "item-frequency histogram and summary", cmd_stats, ()),
        ("fit", "fit a distribution and report the band", cmd_fit, (_add_fit_options,)),
        ("cleanse", "remove out-of-band items and empty transactions", cmd_cleanse,
         (_add_fit_options, _add_band_override)),
        ("cluster", "cluster the input as-is", cmd_cluster, (_add_cluster_options,)),
        ("pipeline", "cleansed-vs-raw comparison harness", cmd_pipeline,
         (_add_fit_options, _add_band_override, _add_cluster_options, _add_seed_option)),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_input_options(sub)
        for add in add_options:
            add(sub)
        sub.set_defaults(func=func, **config)

    sub = commands.add_parser("synth", help="generate a labeled synthetic database")
    sub.add_argument("--transactions", type=int)
    sub.add_argument("--clusters", type=int)
    sub.add_argument("--items-per-cluster", type=int)
    sub.add_argument("--picks", dest="picks_per_transaction", metavar="PICKS", type=int,
                     help="core items sampled per transaction")
    sub.add_argument("--noise-rate", type=float,
                     help="fraction of transactions receiving one-off junk items")
    sub.add_argument("--noise-items", dest="noise_items_per_hit", metavar="NOISE_ITEMS",
                     type=int, help="junk items injected per noisy transaction")
    sub.add_argument("--ubiquitous", dest="ubiquitous_items", metavar="UBIQUITOUS",
                     type=int, help="count of near-ubiquitous items")
    sub.add_argument("--ubiquity", type=float,
                     help="probability each ubiquitous item joins a transaction")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--delimiter", type=_delimiter)
    sub.add_argument("--out-dir", type=Path)
    sub.set_defaults(func=cmd_synth, **_defaults(synth.SyntheticSpec),
                     delimiter=config["delimiter"], out_dir=config["out_dir"])

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
