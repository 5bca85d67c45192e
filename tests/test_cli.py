import collections.abc
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPORT_VALIDATOR, check_pipeline_reports
from txcleanse import (ManualBand, ParseError, SyntheticSpec, cleanse, generate_synthetic, ingest,
                       parse_transactions, serialize_transactions)
from txcleanse.cli import (_params_from_args, build_parser, load_database, load_report_schema,
                           main, run_pipeline, PipelineConfig)

FIG1 = (
    "amusement park\tcherry blossom\tmall of america\tentrance fee\tdisneyland\n"
    "freeway\ttraffic condition\tshortcut\n"
    "media player\tskins\tlyric words\tdownload\n"
    "major league\tichiro\tbaseball cap\n"
)

NOISE_EXAMPLE_1 = "a\tb\tc\tx\ty\tz\nb\tc\td\tp\tq\tr\na\tc\td\ts\tt\tu\tv\tw\n"


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.tsv"
    path.write_text(FIG1, encoding="utf-8")
    return path


@pytest.fixture
def noise1_file(tmp_path):
    path = tmp_path / "noise1.tsv"
    path.write_text(NOISE_EXAMPLE_1, encoding="utf-8")
    return path


class TestStats:
    def test_figure_database(self, fig1_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stats", str(fig1_file), "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "transactions: 4" in printed
        assert "distinct_items: 15" in printed
        assert (out / "histogram.csv").read_text() == "frequency,count\n1,15\n"

    def test_noise_example_histogram(self, noise1_file, tmp_path):
        out = tmp_path / "out"
        assert main(["stats", str(noise1_file), "--out-dir", str(out)]) == 0
        assert (out / "histogram.csv").read_text() == (
            "frequency,count\n1,11\n2,3\n3,1\n"
        )

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["stats", str(empty), "--out-dir", str(tmp_path)]) == 0
        assert "transactions: 0" in capsys.readouterr().out
        assert (tmp_path / "histogram.csv").read_text() == "frequency,count\n"

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope.tsv")]) == 2


class TestFit:
    def test_exponential_values(self, tmp_path, capsys):
        # item frequencies 1, 1, 2, 4, 8
        path = tmp_path / "db.tsv"
        path.write_text(
            "a\tc\td\te\n"
            "b\tc\td\te\n"
            "d\te\n"
            "d\te\n"
            "e\ne\ne\ne\n"
        )
        assert main(["fit", str(path), "--dist", "exponential", "--s", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_hat"] == pytest.approx(3.2)
        assert payload["sigma_hat"] == pytest.approx(3.2)
        assert payload["lower"] == 0.0
        assert payload["upper"] == pytest.approx(6.4)
        assert payload["items_above"] == 1  # frequency-8 item out of band
        assert payload["advisory_log_likelihood"]["exponential"] < 0

    def test_constant_frequency_lognormal_band_collapses(self, fig1_file, capsys):
        assert main(["fit", str(fig1_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_hat"] == 0.0
        assert payload["sigma_hat"] == 0.0
        assert payload["items_inside"] == 15
        assert payload["advisory_log_likelihood"]["lognormal"] is None

    def test_empty_input_exit_code(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["fit", str(empty)]) == 3


class TestCleanseCommand:
    def test_manual_band(self, noise1_file, tmp_path):
        out = tmp_path / "out"
        code = main([
            "cleanse", str(noise1_file), "--lower", "2", "--upper", "inf",
            "--out-dir", str(out),
        ])
        assert code == 0
        assert (out / "cleansed.tsv").read_text() == "a\tb\tc\nb\tc\td\na\tc\td\n"
        report = json.loads((out / "cleanse_report.json").read_text())
        assert report["items_removed_low"] == 11
        assert report["items_retained"] == 4
        assert report["fit"] == {"kind": "manual", "lower": 2.0, "upper": math.inf}

    def test_half_manual_band_rejected(self, noise1_file, tmp_path):
        code = _exit_code(["cleanse", str(noise1_file), "--lower", "2",
                           "--out-dir", str(tmp_path)])
        assert code == 2

    def test_band_keeping_no_item_fails(self, noise1_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["cleanse", str(noise1_file), "--lower", "10", "--upper", "20",
                     "--out-dir", str(out)])
        assert code == 1
        assert "cleansing removed every transaction" in capsys.readouterr().err
        assert not (out / "cleansed.tsv").exists()

    def test_one_frequency_lognormal_band_keeps_every_item(self, tmp_path):
        # every item has frequency 5: sigma is exactly 0, so the band is
        # the point ln 5, which holds every item at any s
        line = "\t".join(f"i{j}" for j in range(13)) + "\n"
        path = tmp_path / "db.tsv"
        path.write_text(line * 5)
        out = tmp_path / "out"
        assert main(["cleanse", str(path), "--s", "0.5", "--out-dir", str(out)]) == 0
        assert (out / "cleansed.tsv").read_text() == line * 5

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "out"
        assert main(["cleanse", str(empty), "--out-dir", str(out)]) == 3
        assert "no items to fit" in capsys.readouterr().err
        assert not out.exists()


class TestClusterCommand:
    def test_cleansed_noise_example_two(self, tmp_path, capsys):
        path = tmp_path / "db.tsv"
        path.write_text("a\tb\tc\td\nc\td\nq\tr\no\tp\tq\tr\n")
        out = tmp_path / "out"
        assert main(["cluster", str(path), "--out-dir", str(out)]) == 0
        assert (out / "assignment.csv").read_text() == (
            "tid,cluster_id\n0,0\n1,0\n2,1\n3,1\n"
        )
        report = json.loads((out / "cluster_report.json").read_text())
        assert report["k"] == 2
        assert report["profit"] == pytest.approx(0.75)
        seconds = report["seconds"]
        for stage in ("ingest", "add_phase", "refine_phase"):
            assert isinstance(seconds[stage], float)
            assert math.isfinite(seconds[stage]) and seconds[stage] >= 0
        assert len(report["moves_per_pass"]) == report["passes"]
        assert len(report["profit_per_pass"]) == report["passes"] + 1
        placements = report["placements_per_pass"]
        assert len(placements) == report["passes"] + 1 and placements[0] == 4
        assert all(0 <= count <= 4 for count in placements)

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert main(["cluster", str(empty)]) == 3


class TestPipeline:
    def test_report_schema_and_raw_arm_equivalence(self, tmp_path):
        assert main([
            "synth", "--transactions", "200", "--clusters", "4",
            "--noise-rate", "0.1", "--seed", "3", "--out-dir", str(tmp_path),
        ]) == 0
        data = tmp_path / "synthetic.tsv"

        pipe_out = tmp_path / "pipe"
        code = main([
            "pipeline", str(data), "--dist", "exponential", "--s", "0.5",
            "--out-dir", str(pipe_out), "--seed", "3",
        ])
        assert code == 0
        report = json.loads((pipe_out / "pipeline_report.json").read_text())
        jsonschema.validate(report, load_report_schema())
        assert report["arms"]["cleansed"]["status"] == "ok"
        assert report["arms"]["raw"]["status"] == "ok"
        assert report["arms"]["raw"]["cleansing"] is None
        assert report["improvement"]["profit_ratio"] is not None

        # the raw arm must equal the standalone cluster subcommand, byte for byte
        solo_out = tmp_path / "solo"
        assert main(["cluster", str(data), "--out-dir", str(solo_out)]) == 0
        raw_csv = (pipe_out / "assignment_raw.csv").read_bytes()
        solo_csv = (solo_out / "assignment.csv").read_bytes()
        assert raw_csv == solo_csv

    def test_zero_limit_is_usage_error(self, fig1_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", str(fig1_file), "--limit", "0",
                  "--out-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "out"
        assert main(["pipeline", str(empty), "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_missing_input_makes_no_directory(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", str(tmp_path / "nope.tsv"), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_limit_truncates(self, fig1_file, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", str(fig1_file), "--limit", "2",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "pipeline_report.json").read_text())
        assert report["arms"]["raw"]["n_transactions"] == 2


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["synth", "--transactions", "100", "--clusters", "5",
                         "--seed", "7", "--out-dir", str(out)]) == 0
        assert (out1 / "synthetic.tsv").read_bytes() == (out2 / "synthetic.tsv").read_bytes()
        assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()
        labels = (out1 / "labels.csv").read_text().splitlines()
        assert labels[0] == "tid,planted_cluster"
        assert len(labels) == 101


class TestFormats:
    def test_aol_format_via_cli(self, tmp_path, capsys):
        log = tmp_path / "queries.tsv"
        log.write_text(
            "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            "1\tdisneyland\tt1\t\t\n"
            "1\tdisneyland\tt2\t\t\n"
            "2\tichiro\tt3\t\t\n"
        )
        assert main(["stats", str(log), "--format", "aol",
                     "--out-dir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "transactions: 2" in printed
        assert "distinct_items: 2" in printed

    def test_keywords_format_via_cli(self, tmp_path, capsys):
        dump = tmp_path / "keywords.tsv"
        dump.write_text("a.com\tbaseball\tichiro\nb.com\tbaseball\n")
        assert main(["stats", str(dump), "--format", "keywords",
                     "--out-dir", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "transactions: 2" in printed
        assert "distinct_items: 2" in printed

    def test_delimiter_spellings(self, tmp_path):
        path = tmp_path / "db.csv"
        path.write_text("a,b\nb,c\n")
        assert main(["stats", str(path), "--delimiter", ",",
                     "--out-dir", str(tmp_path)]) == 0


def test_run_pipeline_with_in_memory_database(tmp_path):
    from txcleanse import database_from_items

    db = database_from_items([["a", "b"], ["a", "b"], ["c", "d"]])
    config = PipelineConfig(input_path="<memory>", out_dir=tmp_path,
                            distribution="exponential", s=5.0)
    report = run_pipeline(config, db=db)
    assert report["arms"]["raw"]["k"] >= 1
    assert (tmp_path / "pipeline_report.json").exists()


def test_pipeline_never_builds_the_transaction_view(tmp_path):
    db, _ = generate_synthetic(SyntheticSpec(transactions=200, clusters=5, seed=3))
    run_pipeline(PipelineConfig(input_path="<memory>", out_dir=tmp_path), db=db)
    assert "transactions" not in vars(db)


def test_cleanse_command_path_never_builds_the_transaction_view(tmp_path):
    from txcleanse.cleanse import plan_cleanse

    db, _ = generate_synthetic(SyntheticSpec(transactions=200, clusters=5, seed=3))
    kept, _ = plan_cleanse(db, ManualBand(2, 50))
    ingest.write_transactions(db, tmp_path / "cleansed.tsv", "\t", kept)
    assert "transactions" not in vars(db)


def test_run_pipeline_refuses_zero_limit_before_making_a_directory(fig1_file, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(input_path=str(fig1_file), out_dir=out, limit=0)
    with pytest.raises(ValueError, match="limit"):
        run_pipeline(config)
    assert not out.exists()


@pytest.mark.parametrize("name", ["max_passes", "limit"])
@pytest.mark.parametrize("value", [2.5, 2.0, "2", True])
def test_config_counts_must_be_ints(name, value):
    with pytest.raises(ParseError, match=f"{name} must be an int"):
        PipelineConfig(input_path="x", **{name: value}).validate()


@pytest.mark.parametrize("lower, upper, missing", [
    (None, 3.0, "lower"), (2.0, None, "upper"),
])
def test_run_pipeline_half_manual_band_fails_the_cleansed_arm_by_name(
        noise1_file, tmp_path, lower, upper, missing):
    config = PipelineConfig(input_path=str(noise1_file), out_dir=tmp_path,
                            manual_lower=lower, manual_upper=upper)
    arms = run_pipeline(config)["arms"]
    assert arms["cleansed"]["status"] == "failed"
    assert arms["cleansed"]["error"] == (
        f"ValueError: manual band is missing its {missing} endpoint"
    )
    assert arms["raw"]["status"] == "ok"
    assert arms["cleansed"]["cleansing"] is None


def test_cleansed_arm_that_kept_nothing_reports_its_cleansing(noise1_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["pipeline", str(noise1_file), "--lower", "10000", "--upper", "20000",
                 "--out-dir", str(out)]) == 1
    assert "cleansed: FAILED (ValueError: cleansing removed every transaction)" in (
        capsys.readouterr().out)
    arm = json.loads((out / "pipeline_report.json").read_text())["arms"]["cleansed"]
    assert arm["status"] == "failed"
    cleansing = arm["cleansing"]
    assert cleansing["items_removed_low"] + cleansing["items_removed_high"] == 15
    assert cleansing["items_retained"] == 0
    assert cleansing["transactions_retained"] == 0
    assert cleansing["fit"] == {"kind": "manual", "lower": 10000.0, "upper": 20000.0}


@pytest.mark.parametrize("band", [["--dist", "exponential", "--s", "0.5"],
                                  ["--lower", "2", "--upper", "inf"]],
                         ids=["fitted", "manual"])
@pytest.mark.parametrize("command", ["cleanse", "pipeline"])
def test_item_frequencies_counted_once(noise1_file, tmp_path, monkeypatch, command, band):
    from txcleanse import cli
    cleanse_module = importlib.import_module("txcleanse.cleanse")
    original = cleanse_module.item_frequencies
    calls = []

    def counted(db):
        calls.append(db)
        return original(db)

    for module in (cli, cleanse_module):
        monkeypatch.setattr(module, "item_frequencies", counted)
    assert main([command, str(noise1_file), *band, "--out-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def _three_line_file(tmp_path) -> Path:
    path = tmp_path / "three.tsv"
    path.write_text("a\tb\na\nc\n", encoding="utf-8")
    return path


def test_fit_with_overflowing_upper_endpoint_reports_inf(tmp_path, capsys):
    # ln-space upper endpoint about 3e307: exp() of it overflows a float
    assert main(["fit", str(_three_line_file(tmp_path)), "--s", "1e308"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["upper"] == math.inf
    assert payload["lower"] == 0.0
    assert payload["items_inside"] == 3


def test_cleanse_with_overflowing_upper_endpoint_reports_inf(tmp_path):
    out = tmp_path / "out"
    assert main(["cleanse", str(_three_line_file(tmp_path)), "--s", "1e308",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "cleanse_report.json").read_text())
    assert report["fit"]["upper"] == math.inf
    assert report["items_retained"] == 3
    assert (out / "cleansed.tsv").read_text() == "a\tb\na\nc\n"


def test_pipeline_with_overflowing_upper_endpoint_reports_inf(tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", str(_three_line_file(tmp_path)), "--s", "1e308",
                 "--out-dir", str(out)]) == 0
    arm = json.loads((out / "pipeline_report.json").read_text())["arms"]["cleansed"]
    assert arm["status"] == "ok"
    assert arm["cleansing"]["fit"]["upper"] == math.inf


def test_report_check_refuses_a_wrong_shape(tmp_path_factory):
    # the check every test's tmp_path gets from conftest, on reports kept
    # out of this test's own tmp_path
    root = tmp_path_factory.mktemp("reports")
    db = parse_transactions(NOISE_EXAMPLE_1.splitlines())
    report = run_pipeline(PipelineConfig(input_path="<memory>", out_dir=root), db=db)
    assert check_pipeline_reports(root) == 1
    del report["arms"]["raw"]["cleansing"]
    (root / "bad").mkdir()
    (root / "bad" / "pipeline_report.json").write_text(json.dumps(report))
    with pytest.raises(jsonschema.ValidationError, match="cleansing"):
        check_pipeline_reports(root)


_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
from txcleanse.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "imported": sorted(set(sys.modules) - before)}))
"""


def _src_env(**extra: str) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_pipeline_imports_no_third_party_module(noise1_file, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, "pipeline", str(noise1_file),
         "--dist", "exponential", "--out-dir", str(tmp_path / "out")],
        env=_src_env(), capture_output=True, text=True, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["code"] == 0
    imported = {name.partition(".")[0] for name in probe["imported"]}
    assert "jsonschema" not in imported
    assert imported - set(sys.stdlib_module_names) == {"txcleanse"}


def _aol_log(path: Path) -> None:
    rng = random.Random(3)
    words = [f"Topic {i}  Word{j}" for i in range(12) for j in range(4)]
    rows = ["AnonID\tQuery\tQueryTime\tItemRank\tClickURL"]
    for user in rng.sample(range(1000, 9999), 80):
        topic = rng.randrange(12)
        for _ in range(rng.randint(1, 8)):
            query = words[4 * topic + rng.randrange(4)] if rng.random() < 0.8 else rng.choice(words)
            rows.append(f"{user}\t{query.upper() if rng.random() < 0.3 else query}\tt\t\t")
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("fmt", ["generic", "aol"])
def test_pipeline_outputs_do_not_depend_on_the_string_hash_seed(tmp_path, fmt):
    if fmt == "generic":
        assert main(["synth", "--transactions", "300", "--clusters", "6", "--noise-rate", "0.2",
                     "--ubiquitous", "2", "--seed", "4", "--out-dir", str(tmp_path)]) == 0
        data = tmp_path / "synthetic.tsv"
    else:
        data = tmp_path / "queries.tsv"
        _aol_log(data)

    def without_times(value):
        if isinstance(value, dict):
            return {k: without_times(v) for k, v in value.items()
                    if k not in ("seconds", "time_ratio")}
        return value

    outputs = []
    out = tmp_path / "out"
    for seed in ("0", "1"):
        subprocess.run(
            [sys.executable, "-m", "txcleanse.cli", "pipeline", str(data), "--format", fmt,
             "--dist", "exponential", "--s", "0.5", "--out-dir", str(out)],
            env=_src_env(PYTHONHASHSEED=seed), capture_output=True, check=True,
        )
        report = json.loads((out / "pipeline_report.json").read_text())
        assert report["arms"]["cleansed"]["k"] > 1
        outputs.append(((out / "assignment_raw.csv").read_bytes(),
                        (out / "assignment_cleansed.csv").read_bytes(), without_times(report)))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt, text", [
    ("generic", "a\tb\nb\tc\na\tc\n"),
    ("keywords", "u.com\ta\tb\nv.com\tb\tc\nw.com\ta\n"),
    ("aol", "AnonID\tQuery\tQueryTime\n1\ta\tt\n1\tb\tt\n2\tb\tt\n"),
], ids=["generic", "keywords", "aol"])
def test_cr_only_input_reads_as_its_lf_twin(tmp_path, capsys, fmt, text):
    printed = []
    for name, line_end in (("lf", "\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text.replace("\n", line_end).encode())
        assert main(["stats", str(path), "--format", fmt, "--out-dir", str(tmp_path / name)]) == 0
        printed.append(capsys.readouterr().out.partition("histogram_csv:")[0])
    assert printed[0] == printed[1]
    assert "transactions: 1\n" not in printed[0]
    assert (tmp_path / "lf" / "histogram.csv").read_bytes() == (
        (tmp_path / "cr" / "histogram.csv").read_bytes())


def _query_log_rows(path: Path, rows: int, users: int) -> None:
    rng = random.Random(5)
    lines = ["AnonID\tQuery\tQueryTime\tItemRank\tClickURL"]
    for i in range(rows):
        lines.append(f"{rng.randrange(users)}\tquery {rng.randrange(2000)}"
                     f"\t2006-03-01 10:{i % 60:02d}:00\t\t")
    path.write_text("\n".join(lines) + "\n")


def _load_listed(path: Path):
    with open(path, "rb") as fh:
        return ingest.sessionize(list(ingest.iter_query_log(fh)))


def test_aol_load_streams_the_log_into_sessionize(tmp_path, monkeypatch):
    path = tmp_path / "queries.tsv"
    _query_log_rows(path, 200, 20)
    expected = _load_listed(path)
    passed = []
    sessionize = ingest.sessionize

    def recording(records):
        passed.append(records)
        return sessionize(records)

    monkeypatch.setattr(ingest, "sessionize", recording)
    assert load_database(path, "aol") == expected
    (records,) = passed
    assert isinstance(records, collections.abc.Iterator)  # so never a list


def test_aol_load_peak_memory_is_well_below_the_list_path(tmp_path):
    path = tmp_path / "queries.tsv"
    _query_log_rows(path, 5000, 500)

    def traced_peak(load):
        tracemalloc.start()
        try:
            db = load()
            return tracemalloc.get_traced_memory()[1], db
        finally:
            tracemalloc.stop()

    listed_peak, listed = traced_peak(lambda: _load_listed(path))
    streamed_peak, streamed = traced_peak(lambda: load_database(path, "aol"))
    assert streamed == listed
    assert streamed_peak <= listed_peak / 2


@pytest.mark.parametrize("data, message", [
    (b"", "query log is empty: header row required"),
    (b"AnonID\tQuery\n1\tq\n", "query log header missing required column(s): querytime"),
    (b"AnonID\tQuery\tQueryTime\n1\tq\tt\n2\tr\n3\ts\xff\tt\n4\tu\tt\n",
     "line 4: invalid UTF-8 (invalid start byte)"),
], ids=["empty", "missing-column", "bad-utf8-mid-file"])
def test_aol_load_errors_match_the_list_path(tmp_path, caplog, data, message):
    path = tmp_path / "queries.tsv"
    path.write_bytes(data)
    outcomes = []
    for load in (lambda: load_database(path, "aol"), lambda: _load_listed(path)):
        caplog.clear()
        with pytest.raises(ParseError) as exc:
            load()
        outcomes.append((str(exc.value), caplog.messages))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == message
    if b"\xff" in data:
        assert outcomes[0][1] == ["line 3: expected 3 fields, got 2; row skipped"]


def test_aol_header_naming_a_column_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "queries.tsv"
    path.write_text("AnonID\tQuery\tQueryTime\t Query \n1\ta\tt\tb\n")
    assert _exit_code(["pipeline", str(path), "--format", "aol",
                       "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "query log header names column 'query' twice (fields 2 and 4)" in err
    assert "Traceback" not in err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects through sys.exit
        return exc.code


# (command, flags, text that stderr must hold)
BAD_PARAMETERS = [
    ("fit", ["--s", "0"], "s must be finite"),
    ("fit", ["--s", "-1"], "s must be finite"),
    ("fit", ["--s", "nan"], "s must be finite"),
    ("fit", ["--s", "inf"], "s must be finite"),
    ("fit", ["--s", "abc"], "argument --s: invalid float value"),
    ("pipeline", ["--s", "nan"], "s must be finite"),
    ("cluster", ["--repulsion", "0"], "repulsion must be finite"),
    ("cluster", ["--repulsion", "inf"], "repulsion must be finite"),
    ("pipeline", ["--repulsion", "nan"], "repulsion must be finite"),
    ("pipeline", ["--repulsion", "inf"], "repulsion must be finite"),
    ("cleanse", ["--lower", "nan", "--upper", "3"], "manual band"),
    ("cleanse", ["--lower", "1", "--upper", "nan"], "manual band"),
    ("cleanse", ["--lower", "50", "--upper", "3"], "manual band"),
    ("cleanse", ["--lower", "inf", "--upper", "inf"], "manual band"),
    ("pipeline", ["--lower", "50", "--upper", "3"], "manual band"),
    ("stats", ["--limit", "0"], "limit must be >= 1"),
    ("fit", ["--limit", "0"], "limit must be >= 1"),
    ("cluster", ["--max-passes", "0"], "passes must be >= 1"),
    ("cleanse", ["--lower", "1"], "manual band"),
    ("pipeline", ["--delimiter", ""], "delimiter must be"),
    ("pipeline", ["--delimiter", "\n"], "delimiter must be"),
    ("cleanse", ["--delimiter", "a\rb"], "delimiter must be"),
]


# The ids name the command and the row, leaving the expected text out.
@pytest.mark.parametrize("command, flags, named", BAD_PARAMETERS,
                         ids=[f"{case[0]}-flags{i}" for i, case in enumerate(BAD_PARAMETERS)])
def test_bad_parameter_is_usage_error(noise1_file, tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    assert _exit_code([command, str(noise1_file), *flags, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--clusters", "10", "--transactions", "5"],
    ["--noise-rate", "2"],
    ["--ubiquity", "nan"],
    ["--picks", "30"],
    ["--transactions", "0"],
    ["--noise-items", "0"],
    ["--ubiquitous", "-1"],
    ["--delimiter", ""],
    ["--delimiter", "\r\n"],
])
def test_bad_synth_parameter_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert _exit_code(["synth", *flags, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip()
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--picks", "30"], "--picks"),
    (["--noise-items", "0"], "--noise-items"),
    (["--ubiquitous", "-1"], "--ubiquitous"),
])
def test_synth_usage_error_names_the_flag(tmp_path, capsys, flags, named):
    assert _exit_code(["synth", *flags, "--out-dir", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


def test_config_validation_rejects_non_finite_values(tmp_path):
    from txcleanse.core import ParseError

    for fields in ({"s": float("nan")}, {"repulsion": float("inf")}, {"s": 2**1024},
                   {"manual_lower": 5.0, "manual_upper": 2.0}):
        config = PipelineConfig(input_path="<memory>", out_dir=tmp_path, **fields)
        with pytest.raises(ParseError):
            config.validate()


# (fields that differ from the defaults, text the refusal names the field by)
WRONG_TYPES = [
    ({"input_path": Path("in.tsv")}, "input_path must be a str"),
    ({"out_dir": 3}, "out_dir must be a path, got 3"),
    ({"delimiter": b"\t"}, "delimiter must be a str"),
    ({"s": True}, "s must be a number, got True"),
    ({"s": "5"}, "s must be a number, got '5'"),
    ({"repulsion": True}, "repulsion must be a number, got True"),
    ({"seed": 1.5}, "seed must be an int, got 1.5"),
    ({"seed": "7"}, "seed must be an int, got '7'"),
    ({"seed": True}, "seed must be an int, got True"),
    ({"raw_band": "no"}, "raw_band must be a bool, got 'no'"),
    ({"raw_band": 1}, "raw_band must be a bool, got 1"),
    ({"manual_lower": True, "manual_upper": 5}, "manual band lower endpoint must be a number"),
    ({"manual_lower": 1, "manual_upper": "5"}, "manual band upper endpoint must be a number"),
]

@pytest.mark.parametrize("fields, named", WRONG_TYPES,
                         ids=[",".join(f"{k}={v!r}" for k, v in f.items()) for f, _ in WRONG_TYPES])
def test_config_refuses_a_wrong_type_by_name(tmp_path, fields, named):
    config = PipelineConfig(**{"input_path": "in.tsv", "out_dir": tmp_path / "out", **fields})
    with pytest.raises(ParseError, match=re.escape(named)):
        config.validate()


def test_every_accepted_config_reports_to_the_schema(noise1_file, tmp_path):
    # Each field but input_path takes each value of the pool in turn, the
    # other endpoint of a manual band being fixed: validate either refuses
    # the config naming the field, or the pipeline runs it to a report that
    # fits the schema.
    pool = [None, True, False, 0, 1, 2, -1, 0.5, 1.5, 2.0, math.inf, math.nan,
            "", "7", "no", "exponential", "keywords", b"\t", Path("x")]
    names = {"fmt": "format", "s": "band multiplier s", "manual_lower": "lower",
             "manual_upper": "upper"}
    other_end = {"manual_lower": {"manual_upper": 10.0}, "manual_upper": {"manual_lower": 1.0}}
    accepted = 0
    for field in dataclasses.fields(PipelineConfig):
        if field.name in ("input_path", "out_dir"):
            continue
        for i, value in enumerate(pool):
            out = tmp_path / f"{field.name}-{i}"
            config = PipelineConfig(input_path=str(noise1_file), out_dir=out,
                                    **{field.name: value, **other_end.get(field.name, {})})
            try:
                config.validate()
            except ParseError as exc:
                assert names.get(field.name, field.name) in str(exc), (field.name, value)
                continue
            run_pipeline(config)
            REPORT_VALIDATOR.validate(json.loads((out / "pipeline_report.json").read_text("utf-8")))
            accepted += 1
    assert accepted == 40


@pytest.mark.parametrize("argv, error", [
    (["cluster", "in.tsv", "--repulsion", "0"], "repulsion must be finite and > 0"),
    (["pipeline", "in.tsv", "--lower", "5", "--upper", "2"], "manual band needs"),
    (["synth", "--picks", "30"], "picks_per_transaction (--picks) must be"),
])
def test_usage_error_shows_the_subcommand_usage(capsys, argv, error):
    # as argparse's own errors do, e.g. for --repulsion abc
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: txcleanse {argv[0]} [-h]")
    assert f"\ntxcleanse {argv[0]}: error: {error}" in err


def test_unknown_format_is_refused_by_the_config_and_the_loader(noise1_file):
    config = PipelineConfig(input_path=str(noise1_file), fmt="csv")
    with pytest.raises(ParseError, match="unknown format 'csv'"):
        config.validate()
    with pytest.raises(ParseError, match="unknown format 'csv'"):
        load_database(noise1_file, "csv")


@pytest.mark.parametrize("flags", [
    ["--dist", "lognormal"], ["--dist", "lognormal", "--raw-band"], ["--dist", "exponential"],
], ids=["lognormal", "raw-band", "exponential"])
def test_fit_stdout_lists_band_then_counts(noise1_file, capsys, flags):
    assert main(["fit", str(noise1_file), *flags, "--s", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "kind", "mu_hat", "sigma_hat", "s", "lower", "upper", "log_space",
        "items_below", "items_inside", "items_above", "advisory_log_likelihood",
    ]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command", ["stats", "fit", "cleanse", "cluster", "pipeline"])
def test_data_subcommand_defaults_are_the_config_defaults(command):
    args = build_parser().parse_args([command, "in.tsv"])
    assert _params_from_args(args) == PipelineConfig(input_path="in.tsv")


def test_synth_defaults_are_the_spec_defaults():
    assert _params_from_args(build_parser().parse_args(["synth"])) == SyntheticSpec()


def test_config_stanza_holds_every_field_but_out_dir_in_schema_order():
    config = PipelineConfig(
        input_path="in.tsv", fmt="aol", delimiter=",", distribution="exponential", s=2.5,
        repulsion=2.6, max_passes=3, limit=7, seed=11, out_dir=Path("elsewhere"),
        raw_band=True, manual_lower=1.0, manual_upper=9.0,
    )
    defaults = PipelineConfig(input_path="")
    assert all(getattr(config, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(PipelineConfig))
    stanza = config.to_json_dict()
    assert list(stanza) == load_report_schema()["properties"]["config"]["required"]
    fields = {"input": "input_path", "format": "fmt"}
    assert stanza == {key: getattr(config, fields.get(key, key)) for key in stanza}
    assert "out_dir" not in stanza


# What each subcommand writes into its --out-dir.
WRITES = {
    "synth": {"synthetic.tsv", "labels.csv"},
    "stats": {"histogram.csv"},
    "fit": set(),
    "cleanse": {"cleansed.tsv", "cleanse_report.json"},
    "cluster": {"assignment.csv", "cluster_report.json"},
    "pipeline": {"assignment_cleansed.csv", "assignment_raw.csv", "pipeline_report.json"},
}


def _readme_cli_block() -> list[str]:
    """The commands of the README's ``## CLI`` sh block, one line each."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_block()
    assert {shlex.split(line)[1] for line in commands} == set(WRITES)
    for line in commands:
        program, command, *argv = shlex.split(line, comments=True)
        assert program == "txcleanse"
        # a file the line's comment names is one the command writes
        named = re.findall(r"[\w.]+\.(?:csv|tsv|json)", line.partition("#")[2])
        assert set(named) <= WRITES[command], line
        assert _exit_code([command, *argv]) == 0, (line, capsys.readouterr().err)
        out_dir = Path(argv[argv.index("--out-dir") + 1]) if "--out-dir" in argv else Path()
        for name in WRITES[command]:
            assert (out_dir / name).is_file(), (line, name)


def test_calls_in_one_process_match_fresh_processes(noise1_file, tmp_path, capsys):
    # main reuses one parser; no call may leave anything behind for the next.
    calls = [
        ["cleanse", str(noise1_file), "--lower", "2", "--upper", "inf",
         "--out-dir", str(tmp_path / "cleanse")],
        ["cluster", str(noise1_file), "--repulsion", "2", "--out-dir", str(tmp_path / "cluster")],
        ["cleanse", str(noise1_file), "--dist", "exponential", "--s", "1",
         "--out-dir", str(tmp_path / "cleanse-fit")],
    ]

    def outputs(argv):
        out_dir = Path(argv[-1])
        files = {}
        for path in sorted(out_dir.iterdir()):
            if path.suffix == ".json":
                report = json.loads(path.read_text())
                files[path.name] = {k: v for k, v in report.items()
                                    if k not in ("seconds", "time_ratio")}
            else:
                files[path.name] = path.read_bytes()
        return files

    in_process = []
    for argv in calls:
        assert main(argv) == 0
        in_process.append((capsys.readouterr().out, outputs(argv)))
    for argv, expected in zip(calls, in_process):
        done = subprocess.run([sys.executable, "-m", "txcleanse.cli", *argv],
                              env=_src_env(), capture_output=True, text=True, check=True)
        assert (done.stdout, outputs(argv)) == expected


def _write_input(path: Path, fmt: str, item_lists) -> None:
    """``item_lists`` in the layout of ``fmt``: one transaction per line,
    per user or per URL."""
    if fmt == "generic":
        lines = ["\t".join(items) for items in item_lists]
    elif fmt == "aol":
        lines = ["AnonID\tQuery\tQueryTime"] + [
            f"{user}\t{query}\tt" for user, items in enumerate(item_lists) for query in items]
    else:
        lines = [f"site{user}.com\t" + "\t".join(items) for user, items in enumerate(item_lists)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(
    item_lists=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e f", "G", "h"]),
                                 min_size=1, max_size=4), min_size=1, max_size=12),
    fmt=st.sampled_from(["generic", "aol", "keywords"]),
    lower=st.sampled_from([0.0, 1.0, 2.0, 3.0, 50.0]),
    width=st.sampled_from([0.0, 1.0, 2.0, math.inf]),
    limit=st.one_of(st.none(), st.integers(1, 12)),
)
@example(item_lists=[["a", "b"], ["a"]], fmt="generic", lower=50.0, width=1.0, limit=None)
def test_cleanse_command_writes_what_the_library_cleanses(
        tmp_path_factory, item_lists, fmt, lower, width, limit):
    tmp = tmp_path_factory.mktemp("cleanse")
    path, out = tmp / "input.tsv", tmp / "out"
    _write_input(path, fmt, item_lists)
    band = ["--lower", str(lower), "--upper", str(lower + width)]
    argv = ["cleanse", str(path), "--format", fmt, *band, "--out-dir", str(out)]
    if limit is not None:
        argv += ["--limit", str(limit)]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)

    cleansed, report = cleanse(load_database(path, fmt, limit=limit),
                               ManualBand(lower, lower + width))
    if cleansed.n == 0:
        assert code == 1
        assert "cleansing removed every transaction" in stderr.getvalue()
        assert not out.exists()
        return
    assert code == 0
    text = (out / "cleansed.tsv").read_text(encoding="utf-8")
    assert text.split("\n") == [*serialize_transactions(cleansed), ""]
    written = json.loads((out / "cleanse_report.json").read_text())
    assert written == json.loads(json.dumps(report.to_json_dict()))


def test_cleanse_holds_one_database_in_memory(tmp_path):
    # The command writes the kept items from the parsed database, so its
    # heap peaks near that one database; a cleansed copy would double it.
    # A full collection before each reading empties CPython's tuple free
    # lists, whose reused tuples tracemalloc does not see, so the readings do
    # not depend on the tests that ran before.
    db, _ = generate_synthetic(SyntheticSpec(
        transactions=20000, clusters=200, noise_rate=0.086, ubiquitous_items=3,
        ubiquity=0.9, seed=3))
    path = tmp_path / "synthetic.tsv"
    ingest.write_transactions(db, path)
    del db

    gc.collect()
    tracemalloc.start()
    try:
        db = load_database(path, "generic")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del db
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["cleanse", str(path), "--dist", "exponential", "--s", "0.5",
                     "--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads((tmp_path / "out" / "cleanse_report.json").read_text())
    assert report["items_removed_low"] > 0
    assert peak < 1.4 * held


def test_cleanse_refuses_an_item_holding_the_delimiter(tmp_path, capsys):
    log = tmp_path / "q.tsv"
    log.write_text("AnonID\tQuery\tQueryTime\n1\tnew york\tt\n2\tparis\tt\n")
    out = tmp_path / "out"
    assert main(["cleanse", str(log), "--format", "aol", "--delimiter", " ",
                 "--lower", "1", "--upper", "inf", "--out-dir", str(out)]) == 2
    assert "item 'new york' contains the delimiter ' '" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cleanse_refuses_a_line_led_by_a_hash_item(tmp_path, capsys):
    path = tmp_path / "db.tsv"
    path.write_text("a\t#x\nc\t#x\n")
    out = tmp_path / "out"
    assert main(["cleanse", str(path), "--lower", "1", "--upper", "inf",
                 "--out-dir", str(out)]) == 2
    assert "line 2 would start with item '#x' and re-read as a comment" in (
        capsys.readouterr().err)
    assert list(out.iterdir()) == []
    # Cutting the one-off items leaves "#x" alone on each line, and line 1 a comment.
    assert main(["cleanse", str(path), "--lower", "2", "--upper", "inf",
                 "--out-dir", str(out)]) == 2
    assert "line 1 would start with item '#x'" in capsys.readouterr().err


def test_synth_refuses_a_delimiter_inside_its_items(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--transactions", "20", "--clusters", "2", "--delimiter", "_",
                 "--out-dir", str(out)]) == 2
    assert "contains the delimiter '_'" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert main(["synth", "--transactions", "20", "--clusters", "2", "--delimiter", ",",
                 "--out-dir", str(out)]) == 0
    with open(out / "synthetic.tsv", "rb") as fh:
        assert parse_transactions(fh, delimiter=",") == generate_synthetic(
            SyntheticSpec(transactions=20, clusters=2))[0]
