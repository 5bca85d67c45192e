import json
import math

import jsonschema
import pytest

from txcleanse.cli import load_report_schema, main, run_pipeline, PipelineConfig

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
        assert "seconds" in report

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
        assert main(["pipeline", str(empty), "--out-dir", str(tmp_path)]) == 3

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


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects through sys.exit
        return exc.code


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--s", "0"]),
    ("fit", ["--s", "-1"]),
    ("fit", ["--s", "nan"]),
    ("fit", ["--s", "inf"]),
    ("fit", ["--s", "abc"]),
    ("pipeline", ["--s", "nan"]),
    ("cluster", ["--repulsion", "0"]),
    ("cluster", ["--repulsion", "inf"]),
    ("pipeline", ["--repulsion", "nan"]),
    ("pipeline", ["--repulsion", "inf"]),
    ("cleanse", ["--lower", "nan", "--upper", "3"]),
    ("cleanse", ["--lower", "1", "--upper", "nan"]),
    ("cleanse", ["--lower", "50", "--upper", "3"]),
    ("cleanse", ["--lower", "inf", "--upper", "inf"]),
    ("pipeline", ["--lower", "50", "--upper", "3"]),
    ("stats", ["--limit", "0"]),
    ("fit", ["--limit", "0"]),
    ("cluster", ["--max-passes", "0"]),
    ("cleanse", ["--lower", "1"]),
    ("pipeline", ["--delimiter", ""]),
])
def test_bad_parameter_is_usage_error(noise1_file, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    assert _exit_code([command, str(noise1_file), *flags, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip()
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
])
def test_bad_synth_parameter_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert _exit_code(["synth", *flags, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip()
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_config_validation_rejects_non_finite_values(tmp_path):
    from txcleanse.core import ParseError

    for fields in ({"s": float("nan")}, {"repulsion": float("inf")},
                   {"manual_lower": 5.0, "manual_upper": 2.0}):
        config = PipelineConfig(input_path="<memory>", out_dir=tmp_path, **fields)
        with pytest.raises(ParseError):
            config.validate()


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
