"""Tests for the composite scoring pipeline: metric normalization,
count-based pillar weights, the 0-100 composite, and the CSV codecs.

The bundled sample schema (36 metrics: 11 environmental, 6 social,
19 economic) anchors the category-weight numbers 11/36, 6/36, 19/36.
"""

import csv
import dataclasses
import importlib.resources as resources
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eselend import (
    ConfigError,
    DataError,
    MetricDef,
    MetricRecord,
    MetricTable,
    ScoringScheme,
    composite_score,
    normalize,
    success_probability,
)
from eselend import scoring
from eselend.model_core import ScoreLink
from eselend.scoring import (
    PILLARS,
    read_metrics_csv,
    read_schema_csv,
    write_scores_csv,
)


def _metric(id="m1", pillar="ENVIRONMENTAL", direction="HIGHER_BETTER",
            kind="CONTINUOUS", weight=None, bounds=None):
    return MetricDef(id=id, pillar=pillar, direction=direction, kind=kind,
                     weight=weight, bounds=bounds)


def _columns(table):
    """A metric table's three columns as plain lists, its codes decoded."""
    return ([table.farmers[code] for code in table.farmer_codes.tolist()],
            [table.metrics[code] for code in table.metric_codes.tolist()],
            table.values.tolist())


def _bundled_scheme():
    path = resources.files("eselend") / "data" / "sample_schema.csv"
    with resources.as_file(path) as p:
        return read_schema_csv(p)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------


class TestNormalize:
    """Raw metric values map into [0, 1] with direction awareness."""

    def test_min_max_higher_better(self):
        """{10, 20, 30} spans exactly {0, 0.5, 1}."""
        out = normalize([10.0, 20.0, 30.0], _metric())
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-15)

    def test_min_max_lower_better(self):
        """LOWER_BETTER flips the scale: {10, 20, 30} -> {1, 0.5, 0}."""
        out = normalize([10.0, 20.0, 30.0], _metric(direction="LOWER_BETTER"))
        np.testing.assert_allclose(out, [1.0, 0.5, 0.0], atol=1e-15)

    def test_constant_cohort(self):
        """A spreadless cohort carries no information: everyone gets 0.5."""
        out = normalize([7.0, 7.0, 7.0], _metric())
        np.testing.assert_allclose(out, [0.5, 0.5, 0.5], atol=0.0)

    def test_pinned_bounds(self):
        """Declared bounds replace the cohort range and clip outliers."""
        m = _metric(bounds=(0.0, 50.0))
        out = normalize([10.0, 20.0, 60.0], m)
        np.testing.assert_allclose(out, [0.2, 0.4, 1.0], atol=1e-15)

    def test_z_score_clipped(self):
        """Population z-scores map [-3, 3] onto [0, 1]: the cohort
        {10, 20, 30} has sd sqrt(200/3), giving 0.2959/0.5/0.7041."""
        out = normalize([10.0, 20.0, 30.0], _metric(), "Z_SCORE_CLIPPED")
        sd = float(np.std([10.0, 20.0, 30.0]))
        want = (np.array([10.0, 20.0, 30.0]) - 20.0) / sd / 6.0 + 0.5
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_z_score_clips_outliers(self):
        """Values beyond three standard deviations saturate at 0 or 1."""
        values = [0.0] * 50 + [1000.0]
        out = normalize(values, _metric(), "Z_SCORE_CLIPPED")
        assert out[-1] == 1.0
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_z_score_constant_cohort(self):
        """Zero spread under z-scoring also returns 0.5."""
        out = normalize([3.0, 3.0], _metric(), "Z_SCORE_CLIPPED")
        np.testing.assert_allclose(out, [0.5, 0.5], atol=0.0)

    def test_binary_values_validated(self):
        """BINARY metrics only accept 0 or 1."""
        m = _metric(kind="BINARY")
        out = normalize([0.0, 1.0, 1.0], m)
        np.testing.assert_allclose(out, [0.0, 1.0, 1.0], atol=0.0)
        with pytest.raises(DataError):
            normalize([0.0, 0.5], m)

    def test_non_finite_rejected(self):
        """NaN and infinity are data errors, not silently propagated."""
        with pytest.raises(DataError):
            normalize([1.0, np.nan], _metric())
        with pytest.raises(DataError):
            normalize([1.0, np.inf], _metric())

    def test_unknown_method_rejected(self):
        """An unrecognised normalization name is a configuration error."""
        with pytest.raises(ConfigError):
            normalize([1.0, 2.0], _metric(), "RANK")


# ----------------------------------------------------------------------
# schema and weights
# ----------------------------------------------------------------------


class TestScoringScheme:
    """Schema container rules: unique ids, all-or-nothing weights."""

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            ScoringScheme(schema=(_metric(id="a"), _metric(id="a")))

    def test_partial_weights_rejected(self):
        """Either every metric has an explicit weight or none does."""
        with pytest.raises(ConfigError):
            ScoringScheme(schema=(_metric(id="a", weight=0.5),
                                  _metric(id="b")))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ScoringScheme(schema=(_metric(id="a", weight=0.6),
                                  _metric(id="b", weight=0.6)))

    def test_explicit_weights_accepted(self):
        scheme = ScoringScheme(schema=(_metric(id="a", weight=0.25),
                                       _metric(id="b", weight=0.75)))
        assert scheme.has_weight_overrides
        assert scheme.metric_weights() == {"a": 0.25, "b": 0.75}

    def test_invalid_vocabulary_rejected(self):
        """Unknown pillar, direction, or kind names fail at definition."""
        with pytest.raises(ConfigError):
            _metric(pillar="GOVERNANCE")
        with pytest.raises(ConfigError):
            _metric(direction="BIGGER_BETTER")
        with pytest.raises(ConfigError):
            _metric(kind="ORDINAL")

    def test_bounds_ordering(self):
        """Declared bounds must satisfy min < max."""
        with pytest.raises(ConfigError):
            _metric(bounds=(5.0, 5.0))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: _metric(id=" "), ConfigError,
         "metric id must be a non-empty string"),
        (lambda: _metric(weight=math.nan), ConfigError,
         "weight for metric 'm1' must be finite"),
        (lambda: _metric(weight=-0.5), ConfigError,
         "weight for metric 'm1' must be >= 0"),
        (lambda: MetricRecord("F1", "m1", math.inf), DataError,
         "non-finite value inf for farmer 'F1', metric 'm1'"),
        (lambda: ScoringScheme(schema=()), ConfigError,
         "schema must contain at least one metric"),
        (lambda: ScoringScheme(schema=(_metric(),), normalization="RANK"),
         ConfigError, "unknown normalization 'RANK'"),
        (lambda: normalize([], _metric()), DataError,
         "cohort for metric 'm1' must be non-empty"),
    ], ids=["empty_id", "nan_weight", "negative_weight", "bad_record",
            "empty_schema", "unknown_normalization", "empty_cohort"])
    def test_unusable_input_is_named(self, build, error, message):
        """A metric, record, scheme or cohort that cannot be used raises
        an error saying what is wrong with it."""
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message


def category_weights(scheme):
    """Each pillar's total metric weight."""
    weights = scheme.metric_weights()
    return {pillar: math.fsum(weights[m.id] for m in scheme.schema
                              if m.pillar == pillar)
            for pillar in PILLARS}


class TestCategoryWeights:
    """Count-based pillar weights: pillar share = metric count / total,
    as the sum of the uniform per-metric weights."""

    def test_bundled_schema_counts(self):
        """The bundled 36-metric sample yields 11/36, 6/36, 19/36."""
        weights = category_weights(_bundled_scheme())
        np.testing.assert_allclose(weights["ENVIRONMENTAL"], 11.0 / 36.0,
                                   atol=1e-15)
        np.testing.assert_allclose(weights["SOCIAL"], 6.0 / 36.0, atol=1e-15)
        np.testing.assert_allclose(weights["ECONOMIC"], 19.0 / 36.0,
                                   atol=1e-15)

    def test_equal_counts(self):
        """One metric per pillar gives each pillar a third."""
        scheme = ScoringScheme(schema=(
            _metric(id="a", pillar="ENVIRONMENTAL"),
            _metric(id="b", pillar="SOCIAL"),
            _metric(id="c", pillar="ECONOMIC")))
        weights = category_weights(scheme)
        for pillar in ("ENVIRONMENTAL", "SOCIAL", "ECONOMIC"):
            np.testing.assert_allclose(weights[pillar], 1.0 / 3.0, atol=1e-15)

    def test_absent_pillar_weighs_zero(self):
        """A pillar with no metrics is reported with weight 0."""
        scheme = ScoringScheme(schema=(_metric(id="a"),))
        weights = category_weights(scheme)
        assert weights["ENVIRONMENTAL"] == 1.0
        assert weights["SOCIAL"] == 0.0
        assert weights["ECONOMIC"] == 0.0

    def test_metric_weights_sum_to_one(self):
        """Per-metric weights conserve total mass to 1e-12."""
        total = sum(_bundled_scheme().metric_weights().values())
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# composite scores
# ----------------------------------------------------------------------


class TestCompositeScore:
    """0-100 composite over normalized, weighted metrics."""

    def test_two_farmers_single_metric(self):
        """Min-max over {10, 30} puts the farmers at 0 and 100."""
        scheme = ScoringScheme(schema=(_metric(id="m"),))
        records = [MetricRecord("F1", "m", 10.0),
                   MetricRecord("F2", "m", 30.0)]
        scores = composite_score(records, scheme)
        np.testing.assert_allclose(scores["F1"], 0.0, atol=1e-12)
        np.testing.assert_allclose(scores["F2"], 100.0, atol=1e-12)

    def test_best_on_everything_scores_hundred(self):
        """A farmer at the favourable end of every metric scores 100."""
        scheme = ScoringScheme(schema=(
            _metric(id="up", direction="HIGHER_BETTER"),
            _metric(id="down", pillar="SOCIAL", direction="LOWER_BETTER")))
        records = [MetricRecord("A", "up", 9.0), MetricRecord("A", "down", 1.0),
                   MetricRecord("B", "up", 2.0), MetricRecord("B", "down", 8.0)]
        scores = composite_score(records, scheme)
        np.testing.assert_allclose(scores["A"], 100.0, atol=1e-12)
        np.testing.assert_allclose(scores["B"], 0.0, atol=1e-12)

    def test_bounded_for_random_cohorts(self):
        """Random data stays inside [0, 100] on the bundled schema."""
        rng = np.random.default_rng(42)
        scheme = _bundled_scheme()
        records = []
        for farmer in range(12):
            for metric in scheme.schema:
                value = (float(rng.integers(0, 2)) if metric.kind == "BINARY"
                         else float(rng.normal(50.0, 20.0)))
                records.append(MetricRecord(f"F{farmer:02d}", metric.id, value))
        scores = composite_score(records, scheme)
        assert len(scores) == 12
        assert all(0.0 <= s <= 100.0 for s in scores.values())

    def test_record_order_irrelevant(self):
        """Shuffling the record list does not change any score."""
        rng = np.random.default_rng(7)
        scheme = _bundled_scheme()
        records = []
        for farmer in range(6):
            for metric in scheme.schema:
                value = (float(rng.integers(0, 2)) if metric.kind == "BINARY"
                         else float(rng.normal(0.0, 5.0)))
                records.append(MetricRecord(f"F{farmer}", metric.id, value))
        direct = composite_score(records, scheme)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert composite_score(shuffled, scheme) == direct

    def test_improving_a_metric_never_hurts(self):
        """Raising a HIGHER_BETTER value weakly raises the total score."""
        scheme = ScoringScheme(schema=(
            _metric(id="a"), _metric(id="b", pillar="ECONOMIC")))
        base = [MetricRecord("F1", "a", 5.0), MetricRecord("F1", "b", 5.0),
                MetricRecord("F2", "a", 1.0), MetricRecord("F2", "b", 9.0)]
        better = [MetricRecord("F1", "a", 8.0)] + base[1:]
        assert (composite_score(better, scheme)["F1"]
                >= composite_score(base, scheme)["F1"])

    def test_missing_value_reported(self):
        """A farmer-metric gap is itemised in the error's details list,
        naming the farmer and the metric."""
        scheme = ScoringScheme(schema=(_metric(id="m"), _metric(id="q")))
        records = [MetricRecord("F1", "m", 1.0), MetricRecord("F1", "q", 2.0),
                   MetricRecord("F2", "m", 3.0)]
        with pytest.raises(DataError) as excinfo:
            composite_score(records, scheme)
        assert len(excinfo.value.details) == 1
        assert "F2" in excinfo.value.details[0]
        assert "q" in excinfo.value.details[0]

    def test_unknown_metric_reported(self):
        """Records for metrics outside the schema are rejected."""
        scheme = ScoringScheme(schema=(_metric(id="m"),))
        records = [MetricRecord("F1", "m", 1.0),
                   MetricRecord("F1", "ghost", 2.0)]
        with pytest.raises(DataError):
            composite_score(records, scheme)

    def test_duplicate_record_reported(self):
        """Two values for one farmer-metric pair are ambiguous."""
        scheme = ScoringScheme(schema=(_metric(id="m"),))
        records = [MetricRecord("F1", "m", 1.0), MetricRecord("F1", "m", 2.0),
                   MetricRecord("F2", "m", 3.0)]
        with pytest.raises(DataError):
            composite_score(records, scheme)

    def test_empty_records(self):
        """No records at all produce an empty score map."""
        scheme = ScoringScheme(schema=(_metric(id="m"),))
        assert composite_score([], scheme) == {}

    def test_scores_feed_the_lending_model(self):
        """Composite scores are valid inputs to the probability link."""
        scheme = ScoringScheme(schema=(_metric(id="m"),))
        records = [MetricRecord("F1", "m", 10.0),
                   MetricRecord("F2", "m", 30.0)]
        link = ScoreLink(k=0.007, b=0.3)
        for score in composite_score(records, scheme).values():
            e = float(success_probability(score, link))
            assert 0.3 <= e <= 1.0


# ----------------------------------------------------------------------
# CSV codecs
# ----------------------------------------------------------------------


_SHORT = "metric_id,pillar,direction,kind\n"
_LONG = "metric_id,pillar,direction,kind,weight,min,max\n"
# A quoted cell over csv's 131,072-character field limit: a csv.Error.
_OVERSIZED = '"' + "x" * 140_000 + '"'
# The same cell unquoted, in a file the text splitter would otherwise take.
_OVERSIZED_PLAIN = "farmer_id,metric_id,value\n" + "x" * 140_000 + ",soil,1\n"


class TestCsvCodecs:
    """Readers reject malformed files with located errors; the writer
    emits a stable four-decimal format."""

    def test_metrics_round_trip(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("farmer_id,metric_id,value\nF1,m,10\nF2,m,30\n",
                        encoding="utf-8")
        table = read_metrics_csv(path)
        assert _columns(table) == _columns(MetricTable.from_records(
            [MetricRecord("F1", "m", 10.0), MetricRecord("F2", "m", 30.0)]))
        assert len(table) == 2

    def test_metrics_header_checked(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("farmer,metric,value\nF1,m,10\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_metrics_csv(path)

    def test_metrics_bad_value_names_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("farmer_id,metric_id,value\nF1,m,abc\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert ":2" in str(excinfo.value)

    def test_metrics_empty_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_metrics_csv(path)

    def test_metrics_bom_tolerated(self, tmp_path):
        """A UTF-8 byte-order mark before the header is accepted."""
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"\xef\xbb\xbffarmer_id,metric_id,value\nF1,m,1\n")
        assert _columns(read_metrics_csv(path)) == (["F1"], ["m"], [1.0])

    def test_plain_files_skip_csv_reader(self, tmp_path, monkeypatch):
        """A file without quotes, NULs, lone CRs or blank rows is split as
        text: with LF or CRLF line ends, with or without a final newline,
        and with any whitespace around its ids, it reaches neither
        csv.reader nor the row-by-row walk. A blank row sends the file to
        csv.reader, which reads the same table."""
        def fail(*args, **kwargs):
            raise AssertionError("called")

        path = tmp_path / "metrics.csv"
        want = (["F1", "F2"], ["m", "q"], [10.0, 0.5])
        for pad in ("", "\t", "\x0b", "\x0c", "\x1c", "\x1f", " ", "\xa0", "\u3000"):
            for end in ("\n", "\r\n"):
                for last, blank in ((end, ""), ("", ""), (end, end)):
                    path.write_bytes(
                        f"farmer_id,metric_id,value{end}F1{pad},{pad}m,10{end}"
                        f"{blank}F2,q{pad},0.5{last}".encode("utf-8"))
                    with monkeypatch.context() as patch:
                        if not blank:
                            patch.setattr(scoring.csv, "reader", fail)
                            patch.setattr(scoring, "_parse_rows", fail)
                        assert _columns(read_metrics_csv(path)) == want

    def test_valid_quoted_files_read_as_plain(self, tmp_path):
        """A valid file with quoted cells reads into the table of the same
        file unquoted."""
        for end in ("\n", "\r\n"):
            plain = tmp_path / "plain.csv"
            plain.write_text(f"farmer_id,metric_id,value{end}F1,m,10{end}"
                             f"F2,q,0.5{end}", encoding="utf-8", newline="")
            quoted = tmp_path / "quoted.csv"
            quoted.write_text(f'farmer_id,metric_id,value{end}"F1",m,10{end}'
                              f'F2,"q",0.5{end}', encoding="utf-8", newline="")
            want = _columns(read_metrics_csv(plain))
            assert _columns(read_metrics_csv(quoted)) == want

    def test_invalid_utf8_is_a_located_error(self, tmp_path):
        """A byte that is not UTF-8 names the file, the byte and its line:
        a data error in a metrics file, a configuration error in a schema."""
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"\xef\xbb\xbffarmer_id,metric_id,value\nF1,m\xff,1\n")
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert str(excinfo.value) == f"{path}: not valid UTF-8: byte 0xff on line 2"
        path = tmp_path / "schema.csv"
        path.write_bytes(b"metric_id,pillar,direction,kind\n\n\xe9,SOCIAL,,\n")
        with pytest.raises(ConfigError) as excinfo:
            read_schema_csv(path)
        assert str(excinfo.value) == f"{path}: not valid UTF-8: byte 0xe9 on line 3"

    @pytest.mark.parametrize("read, error, first", [
        (read_metrics_csv, DataError, "farmer_id,metric_id,value\nF1,m,abc\n"),
        (read_metrics_csv, DataError,
         "farmer_id,metric_id,value\nF1,m," + "9" * 140_000 + "\n"),
        (read_schema_csv, ConfigError, _SHORT + "a,GOVERNANCE,HIGHER_BETTER,CONTINUOUS\n"),
    ], ids=["metrics-record", "metrics-csv-error", "schema-row"])
    def test_invalid_utf8_after_a_bad_row_comes_first(self, tmp_path, read,
                                                      error, first):
        """A file is streamed, but a bad record, a `csv.Error` (here a cell
        over csv's field limit) or a bad schema row far ahead of a byte that
        is not UTF-8 still yields to the UTF-8 error."""
        path = tmp_path / "input.csv"
        filler = "F2,m,1\n" * 10_000
        path.write_bytes((first + filler).encode() + b"F3,m\xff,1\n")
        with pytest.raises(error) as excinfo:
            read(path)
        line = (first + filler).count("\n") + 1
        assert str(excinfo.value) == f"{path}: not valid UTF-8: byte 0xff on line {line}"

    def test_errors_name_the_line_a_record_starts_on(self, tmp_path):
        """After a quoted cell that spans two lines, a bad record is named
        by the line it starts on, not by its record number."""
        path = tmp_path / "metrics.csv"
        path.write_text('farmer_id,metric_id,value\n"F\n1",m1,1\nF2,m1,abc\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert str(excinfo.value) == f"{path}:4: value 'abc' is not a number"
        path = tmp_path / "schema.csv"
        path.write_text('metric_id,pillar,direction,kind\n'
                        '"a\nb",SOCIAL,HIGHER_BETTER,CONTINUOUS\n'
                        "c,SOCIAL,HIGHER_BETTER,CONTINUOUS,1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            read_schema_csv(path)
        assert str(excinfo.value) == f"{path}:4: expected 4 fields, got 5"

    def test_schema_short_form(self, tmp_path):
        """The four-column schema form omits weight and bounds."""
        path = tmp_path / "schema.csv"
        path.write_text("metric_id,pillar,direction,kind\n"
                        "a,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS\n"
                        "b,SOCIAL,LOWER_BETTER,BINARY\n", encoding="utf-8")
        scheme = read_schema_csv(path)
        assert len(scheme.schema) == 2
        assert not scheme.has_weight_overrides

    def test_schema_long_form_bounds(self, tmp_path):
        """min and max columns populate pinned bounds together."""
        path = tmp_path / "schema.csv"
        path.write_text("metric_id,pillar,direction,kind,weight,min,max\n"
                        "a,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS,,0,50\n",
                        encoding="utf-8")
        scheme = read_schema_csv(path)
        assert scheme.schema[0].bounds == (0.0, 50.0)

    def test_schema_min_without_max(self, tmp_path):
        """A min with no max fails with file and line context. Schema
        defects are configuration errors; only metric files raise data
        errors."""
        path = tmp_path / "schema.csv"
        path.write_text("metric_id,pillar,direction,kind,weight,min,max\n"
                        "a,ENVIRONMENTAL,HIGHER_BETTER,CONTINUOUS,,0,\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            read_schema_csv(path)
        assert ":2" in str(excinfo.value)

    @pytest.mark.parametrize("text, message", [
        ("", "{path}: empty schema file"),
        ("id,pillar,direction,kind\n",
         "{path}:1: expected header metric_id,pillar,direction,kind,weight,"
         "min,max (weight, min, and max may be omitted)"),
        (_LONG + "a,SOCIAL,HIGHER_BETTER,CONTINUOUS,heavy,,\n",
         "{path}:2: weight 'heavy' is not a number"),
        (_LONG + "a,SOCIAL,HIGHER_BETTER,CONTINUOUS,,x,1\n",
         "{path}:2: min 'x' is not a number"),
        (_LONG + "a,SOCIAL,HIGHER_BETTER,CONTINUOUS,,0,y\n",
         "{path}:2: max 'y' is not a number"),
        # Blank rows are skipped but still count as lines.
        (_SHORT + "a,SOCIAL,HIGHER_BETTER,CONTINUOUS\n\n , ,\n"
         "b,GOVERNANCE,HIGHER_BETTER,CONTINUOUS\n",
         "{path}:5: unknown pillar 'GOVERNANCE' for metric 'b'"),
        (_SHORT + "\n", "{path}: schema file contains no metrics"),
    ], ids=["empty", "header", "weight", "min", "max", "pillar", "no_metrics"])
    def test_schema_errors_are_located(self, text, message, tmp_path):
        """A malformed schema is a configuration error naming its file,
        and its line where one is at fault."""
        path = tmp_path / "schema.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            read_schema_csv(path)
        assert str(excinfo.value) == message.format(path=path)

    def test_writer_format(self, tmp_path):
        """Scores write sorted by farmer id with four decimals."""
        path = tmp_path / "scores.csv"
        write_scores_csv(path, {"F2": 100.0, "F1": 12.34567})
        assert path.read_text(encoding="utf-8") == (
            "farmer_id,score\nF1,12.3457\nF2,100.0000\n")

    def test_writer_header_comment(self, tmp_path):
        """An optional comment line leads the file when provided."""
        path = tmp_path / "scores.csv"
        write_scores_csv(path, {"F1": 1.0}, header_comment="# run context")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# run context"
        assert lines[1] == "farmer_id,score"


# ----------------------------------------------------------------------
# columnar pipeline vs the record-by-record reference
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _RefRecord:
    """The reference's metric record: validated one at a time."""

    farmer_id: str
    metric_id: str
    value: float

    def __post_init__(self):
        if not isinstance(self.farmer_id, str) or not self.farmer_id.strip():
            raise DataError("farmer_id must be a non-empty string")
        if not isinstance(self.metric_id, str) or not self.metric_id.strip():
            raise DataError("metric_id must be a non-empty string")
        if not (isinstance(self.value, (int, float)) and math.isfinite(self.value)):
            raise DataError(
                f"non-finite value {self.value!r} for farmer {self.farmer_id!r}, "
                f"metric {self.metric_id!r}"
            )


def _reference_read(path):
    """Record-by-record reader: the oracle for `read_metrics_csv`. The
    whole file is parsed before any record is checked, so a csv.Error
    anywhere (Python 3.10's for a NUL) comes before a record's error, and
    errors name the line their record starts on."""
    parsed = []
    start = 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                parsed.append((start, row))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(f"{path}:{start}: {exc}") from None
    if not parsed:
        raise ConfigError(f"{path}: empty metrics file")
    (_, header), *parsed = parsed
    if [h.strip() for h in header] != ["farmer_id", "metric_id", "value"]:
        raise DataError(f"{path}:1: expected header farmer_id,metric_id,value")
    rows = []
    for lineno, row in parsed:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        farmer_id, metric_id, raw = (cell.strip() for cell in row)
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {raw!r} is not a number") from None
        try:
            rows.append(_RefRecord(farmer_id, metric_id, value))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path}: metrics file contains no records")
    return rows


def _reference_score(records, scheme):
    """Dict-keyed scorer with one list per metric: the oracle for
    `composite_score`."""
    by_id = {m.id: m for m in scheme.schema}
    values = {}
    problems = []
    for rec in records:
        if rec.metric_id not in by_id:
            problems.append(f"unknown metric {rec.metric_id!r} for farmer {rec.farmer_id!r}")
            continue
        key = (rec.farmer_id, rec.metric_id)
        if key in values:
            problems.append(f"duplicate value for farmer {rec.farmer_id!r}, "
                            f"metric {rec.metric_id!r}")
            continue
        values[key] = float(rec.value)
    if problems:
        raise DataError("invalid metric records", details=sorted(problems))
    farmers = sorted({farmer for farmer, _ in values})
    if not farmers:
        return {}
    gaps = [f"farmer {farmer!r} missing metric {metric.id!r}"
            for farmer in farmers for metric in scheme.schema
            if (farmer, metric.id) not in values]
    if gaps:
        raise DataError(f"{len(gaps)} missing (farmer, metric) pairs", details=gaps)
    weights = scheme.metric_weights()
    totals = np.zeros(len(farmers))
    for metric in scheme.schema:
        cohort = np.array([values[(farmer, metric.id)] for farmer in farmers])
        totals += weights[metric.id] * normalize(cohort, metric, scheme.normalization)
    scores = np.clip(totals * 100.0, 0.0, 100.0)
    return {farmer: float(score) for farmer, score in zip(farmers, scores)}


def _outcome(run):
    """Scores as (farmer, score) pairs in key order, or the error raised."""
    try:
        return list(run().items())
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc), getattr(exc, "details", None)


def _table_outcome(run):
    """A metric table's ids and the bits of its values, or the error."""
    try:
        farmer_ids, metric_ids, values = run()
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return (list(farmer_ids), list(metric_ids),
            np.asarray(values, dtype=float).tobytes())


_PROPERTY_SCHEMA = (
    _metric(id="soil"),
    _metric(id="water", pillar="SOCIAL", direction="LOWER_BETTER"),
    _metric(id="trained", pillar="ECONOMIC", kind="BINARY"),
    _metric(id="margin", pillar="ECONOMIC", bounds=(0.0, 50.0)),
)
_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003"])
_BLANK_ROWS = st.sampled_from(["", "   ", ",,", " , , ", "\t,,\xa0"])
_BAD_ROWS = st.sampled_from([
    "F1,soil", "F1,soil,1,2", "F1",                # wrong field counts
    "F1,soil,1,2\nF1,water",                       # ... with the right total
    ",soil,1", "F1, ,1",                           # empty ids
    "F1,soil,nan", "F1,soil,-inf", "F1,soil,1e999",  # non-finite values
    "F1,soil,abc", "F1,soil,", "F1,soil,1 2",      # not numbers
    "F1,so\x00il,1",                               # a NUL
    "F1,so\ril,1",                                 # a lone CR inside a row
    '"F1,soil",1', '"F1",soil,"1"',                # quoted cells
    '"F1\nF2",soil,1',                              # a quoted newline
    _OVERSIZED + ",soil,1",                        # a cell over csv's limit
    "x" * 140_000 + ",soil,1",                     # ... unquoted
])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _metrics_files(draw):
    """Metrics CSV text for a cohort of up to four farmers: every (farmer,
    metric) pair in a random order, then a few drops, duplicates, unknown
    metrics and blank or malformed rows, with cells padded or quoted, an
    optional BOM and final newline, and LF, CRLF or lone-CR line ends.
    Half the files pad no cell, so the text splitter sees them too."""
    farmers = [f"F{i}" for i in range(draw(st.integers(0, 4)))]
    rows = []
    for farmer in farmers:
        for metric in _PROPERTY_SCHEMA:
            if metric.kind == "BINARY":
                value = draw(st.sampled_from(["0", "1", "1.0", "0", "1", "0.5"]))
            else:
                value = repr(draw(st.floats(-100.0, 100.0, width=32)))
            rows.append([farmer, metric.id, value])
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["blank", "blank", "drop", "duplicate",
                                     "unknown", "bad"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "drop" and rows:
            del rows[at % len(rows)]
        elif kind == "duplicate" and rows:
            rows.insert(at, list(rows[at % len(rows)]))
        elif kind == "unknown":
            rows.insert(at, [draw(st.sampled_from(farmers or ["F0"])), "ghost", "1"])
        elif kind in ("blank", "bad"):
            rows.insert(at, draw(_BLANK_ROWS if kind == "blank" else _BAD_ROWS))
    pad = _PAD if draw(st.booleans()) else st.just("")
    quote = draw(st.sampled_from([False, False, False, True]))

    def cell(text):
        if quote and draw(st.booleans()):
            text = '"' + text + '"'
        return draw(pad) + text + draw(pad)

    lines = [row if isinstance(row, str) else ",".join(map(cell, row))
             for row in rows]
    end = draw(_LINE_ENDS)
    bom = "\ufeff" if draw(st.booleans()) else ""
    last = end if draw(st.integers(0, 3)) else ""
    return bom + end.join(["farmer_id,metric_id,value"] + lines) + last


class TestColumnarMatchesReference:
    """The columnar reader and scorer give the record-by-record
    reference's scores, key order included, or raise its exact error."""

    @given(text=_metrics_files(),
           normalization=st.sampled_from(["MIN_MAX", "Z_SCORE_CLIPPED"]))
    @example(text="farmer_id,metric_id,value\nF0,soil,1\nF0,water, nan \n",
             normalization="MIN_MAX")
    @example(text="farmer_id,metric_id,value\nF0,soil,abc\nF0,water,inf\n",
             normalization="MIN_MAX")
    @example(text='farmer_id,metric_id,value\n"F\n0",soil,1\nF0,water,abc\n',
             normalization="MIN_MAX")
    @example(text=_OVERSIZED_PLAIN, normalization="MIN_MAX")
    @example(text="farmer_id,metric_id,value\nF1,so\ril,1\n", normalization="MIN_MAX")
    @settings(max_examples=600,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_scores_or_same_error(self, tmp_path, text, normalization):
        path = tmp_path / "metrics.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_table_outcome(lambda: _columns(read_metrics_csv(path)))
                == _table_outcome(lambda: zip(*[
                    (r.farmer_id, r.metric_id, r.value)
                    for r in _reference_read(path)])))
        scheme = ScoringScheme(schema=_PROPERTY_SCHEMA, normalization=normalization)
        want = _outcome(lambda: _reference_score(_reference_read(path), scheme))
        assert _outcome(lambda: composite_score(read_metrics_csv(path), scheme)) == want
        try:
            records = [MetricRecord(r.farmer_id, r.metric_id, r.value)
                       for r in _reference_read(path)]
        except (ConfigError, DataError):
            return
        assert _outcome(lambda: composite_score(records, scheme)) == want

    @pytest.mark.parametrize("chunk_bytes", [1, 2, 17, 64])
    @given(text=_metrics_files(),
           normalization=st.sampled_from(["MIN_MAX", "Z_SCORE_CLIPPED"]))
    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_chunk_boundaries_change_nothing(self, tmp_path, monkeypatch,
                                             chunk_bytes, text, normalization):
        """With chunks of a few characters, boundaries fall inside and
        between lines, next to CRLF ends and before a missing final
        newline; the table, the scores and any error are still the
        reference's."""
        monkeypatch.setattr(scoring, "_CHUNK_BYTES", chunk_bytes)
        path = tmp_path / "metrics.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_table_outcome(lambda: _columns(read_metrics_csv(path)))
                == _table_outcome(lambda: zip(*[
                    (r.farmer_id, r.metric_id, r.value)
                    for r in _reference_read(path)])))
        scheme = ScoringScheme(schema=_PROPERTY_SCHEMA, normalization=normalization)
        assert (_outcome(lambda: composite_score(read_metrics_csv(path), scheme))
                == _outcome(lambda: _reference_score(_reference_read(path), scheme)))


_SCHEMA_COLUMNS = ["metric_id", "pillar", "direction", "kind", "weight", "min", "max"]


def _reference_schema(path, normalization):
    """Row-by-row schema reader: the oracle for `read_schema_csv`. The
    whole file is parsed before any row is checked, so a csv.Error anywhere
    comes before a bad header or row, and errors name the line their row
    starts on."""
    parsed = []
    start = 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                parsed.append((start, row))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ConfigError(f"{path}:{start}: {exc}") from None
    if not parsed:
        raise ConfigError(f"{path}: empty schema file")
    (_, header), *parsed = parsed
    header = [h.strip() for h in header]
    if header != _SCHEMA_COLUMNS and header != _SCHEMA_COLUMNS[:4]:
        raise ConfigError(f"{path}:1: expected header {','.join(_SCHEMA_COLUMNS)} "
                          "(weight, min, and max may be omitted)")
    metrics = []
    for lineno, row in parsed:
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{lineno}: expected {len(header)} fields, "
                              f"got {len(cells)}")
        fields = dict(zip(header, cells))
        numbers = {}
        for column in ("weight", "min", "max"):
            raw = fields.get(column, "")
            try:
                numbers[column] = float(raw) if raw else None
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {column} {raw!r} is not a number") from None
        if (numbers["min"] is None) != (numbers["max"] is None):
            raise ConfigError(f"{path}:{lineno}: min and max must be given together")
        bounds = None if numbers["min"] is None else (numbers["min"], numbers["max"])
        try:
            metrics.append(MetricDef(*cells[:4], weight=numbers["weight"], bounds=bounds))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not metrics:
        raise ConfigError(f"{path}: schema file contains no metrics")
    return ScoringScheme(schema=tuple(metrics), normalization=normalization)


@st.composite
def _schema_files(draw):
    """Schema CSV text in the four- or seven-column form: up to four
    metrics, then a few defects (blank, padded, short, long or oversized
    rows, an unknown pillar, direction or kind, a non-numeric weight, min or
    max, a min without a max, a duplicate id, overrides that do not sum to
    1, a bad header), with cells padded or quoted (a quoted id may hold a
    newline), an optional BOM and final newline, and LF, CRLF or lone-CR
    line ends."""
    width = draw(st.sampled_from([4, 7]))
    ids = draw(st.lists(st.sampled_from(["soil", "water", "a\nb", "margin"]),
                        max_size=4, unique=True))
    weights = draw(st.sampled_from(["none", "none", "even", "uneven", "partial"]))
    rows = []
    for i, metric in enumerate(ids):
        row = [metric, draw(st.sampled_from(PILLARS)),
               draw(st.sampled_from(["HIGHER_BETTER", "LOWER_BETTER"])),
               draw(st.sampled_from(["CONTINUOUS", "BINARY"]))]
        if width == 7:
            weight = {"none": "", "even": repr(1.0 / len(ids)), "uneven": "0.5",
                      "partial": "1" if i == 0 else ""}[weights]
            row += [weight, *draw(st.sampled_from([("", ""), ("0", "50"), ("", ""),
                                                   ("-1.5", "2e1"), ("", ""), ("5", "5")]))]
        rows.append(row)
    header = _SCHEMA_COLUMNS[:width]
    kinds = ["blank", "blank", "short", "long", "oversized", "pillar", "direction",
             "kind", "duplicate", "empty-id", "header"]
    valid = list(rows) or [["soil", "SOCIAL", "HIGHER_BETTER", "CONTINUOUS", "", "", ""][:width]]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(kinds + ["number", "min-only"] * (width == 7)))
        row = list(draw(st.sampled_from(valid)))
        if kind == "blank":
            row = [""] * draw(st.integers(1, width + 1))
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append("")
        elif kind == "oversized":
            row[0] = _OVERSIZED
        elif kind in ("pillar", "direction", "kind"):
            row[_SCHEMA_COLUMNS.index(kind)] = draw(st.sampled_from(["GOVERNANCE", "social", ""]))
        elif kind == "number":
            row[draw(st.integers(4, 6))] = draw(st.sampled_from(["heavy", "1 2", "nan", "-inf"]))
        elif kind == "min-only":
            row[5:7] = [draw(st.sampled_from(["0", "1"])), ""]
        elif kind == "empty-id":
            row[0] = " "
        elif kind == "header":
            header = draw(st.sampled_from([["id", "pillar", "direction", "kind"],
                                           header + ["extra"], header[:3]]))
            continue
        rows.insert(draw(st.integers(0, len(rows))), row)
    pad = _PAD if draw(st.booleans()) else st.just("")
    quote = draw(st.sampled_from([False, False, True]))

    def cell(text):
        if text.startswith('"'):
            return text
        if "\n" in text or (quote and draw(st.booleans())):
            return '"' + text + '"'
        return draw(pad) + text + draw(pad)

    end = draw(_LINE_ENDS)
    bom = "\ufeff" if draw(st.booleans()) else ""
    if draw(st.sampled_from([False] * 30 + [True])):
        return bom
    last = end if draw(st.integers(0, 3)) else ""
    return bom + end.join(",".join(map(cell, row)) for row in [header] + rows) + last


def _scheme_outcome(run):
    """A scoring scheme, or the type and text of the error raised."""
    try:
        return run()
    except ConfigError as exc:
        return type(exc), str(exc)


class TestSchemaMatchesReference:
    """The schema reader gives the row-by-row reference's scheme or raises
    its exact error: invalid UTF-8 aside, a csv.Error anywhere in the file
    comes before the first bad header or row."""

    @given(text=_schema_files(),
           normalization=st.sampled_from(["MIN_MAX", "Z_SCORE_CLIPPED"]))
    @example(text=_SHORT + "a,GOVERNANCE,HIGHER_BETTER,CONTINUOUS\n"
             + _OVERSIZED + ",SOCIAL,HIGHER_BETTER,CONTINUOUS\n",
             normalization="MIN_MAX")
    @settings(max_examples=500,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_scheme_or_same_error(self, tmp_path, text, normalization):
        path = tmp_path / "schema.csv"
        path.write_bytes(text.encode("utf-8"))
        assert (_scheme_outcome(lambda: read_schema_csv(path, normalization))
                == _scheme_outcome(lambda: _reference_schema(path, normalization)))


@st.composite
def _shuffled_records(draw):
    """Metric records of up to four farmers, and the same records in
    another order: every (farmer, metric) pair, then a few drops,
    duplicates and unknown metrics. An unknown metric's farmer may be one
    with no other record."""
    records = []
    for farmer in [f"F{i}" for i in range(draw(st.integers(0, 4)))]:
        for metric in _PROPERTY_SCHEMA:
            value = draw(st.sampled_from([0.0, 1.0]) if metric.kind == "BINARY"
                         else st.floats(-100.0, 100.0))
            records.append(MetricRecord(farmer, metric.id, value))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "duplicate", "unknown"]))
        at = draw(st.integers(0, len(records)))
        if kind == "drop" and records:
            del records[at % len(records)]
        elif kind == "duplicate" and records:
            records.insert(at, records[at % len(records)])
        elif kind == "unknown":
            farmer = draw(st.sampled_from(["F0", "G"]))
            records.insert(at, MetricRecord(farmer, draw(st.sampled_from(["ghost", "soil2"])), 1.0))
    return records, draw(st.permutations(records))


_ONE_FARMER = [MetricRecord("F0", metric.id, 1.0) for metric in _PROPERTY_SCHEMA]


class TestRecordOrder:
    """Ids are coded in first-seen order, but the order of a table's
    records changes neither its scores, key order included, nor any
    error's text and details."""

    @given(pair=_shuffled_records(),
           normalization=st.sampled_from(["MIN_MAX", "Z_SCORE_CLIPPED"]))
    @example(pair=([], []), normalization="MIN_MAX")
    @example(pair=(_ONE_FARMER + [MetricRecord("G", "ghost", 1.0)],
                   [MetricRecord("G", "ghost", 1.0)] + _ONE_FARMER[::-1]),
             normalization="MIN_MAX")
    @settings(max_examples=300)
    def test_record_order_changes_nothing(self, pair, normalization):
        records, shuffled = pair
        scheme = ScoringScheme(schema=_PROPERTY_SCHEMA, normalization=normalization)
        want = _outcome(lambda: composite_score(MetricTable.from_records(records), scheme))
        assert _outcome(lambda: composite_score(MetricTable.from_records(shuffled),
                                                scheme)) == want


# ----------------------------------------------------------------------
# chunked reads: located errors, shared ids, memory
# ----------------------------------------------------------------------


def _cohort_text(n_farmers, quote=False, blank=False, end="\n"):
    """An aligned metrics file of ``n_farmers`` x the property schema,
    optionally with its first farmer id quoted or a blank row after the
    header."""
    rows = [f"F{i},{metric.id},{(i + j) % 2}"
            for i in range(n_farmers) for j, metric in enumerate(_PROPERTY_SCHEMA)]
    if quote:
        rows[0] = '"' + rows[0].replace(",", '",', 1)
    if blank:
        rows.insert(0, ",,")
    return end.join(["farmer_id,metric_id,value"] + rows) + end


class TestChunkedReads:
    """The reader holds one chunk of the file at a time and one string per
    distinct id."""

    @pytest.mark.parametrize("quote", [False, True], ids=["split", "csv"])
    @pytest.mark.parametrize("last", ["\n", ""], ids=["newline", "no-newline"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_bad_record_in_the_last_chunk_is_named(self, tmp_path, monkeypatch,
                                                   quote, last, end):
        """The only bad record, on the last line of a file of many chunks,
        is named by its line."""
        monkeypatch.setattr(scoring, "_CHUNK_BYTES", 256)
        text = _cohort_text(250, quote=quote, end=end) + f"F9,soil,abc{last}"
        assert len(text.encode()) > 10 * 256
        path = tmp_path / "metrics.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert str(excinfo.value) == f"{path}:1002: value 'abc' is not a number"

    def test_each_run_reads_chunk_bytes(self, tmp_path):
        """At csv's default field limit every run after the header is one
        ``read`` of `_CHUNK_BYTES`, so the constant is the size the split
        route reads and not a bound that half the field limit overrides."""
        class RecordedReads(io.BufferedReader):
            def __init__(self, raw):
                super().__init__(raw)
                self.sizes = []

            def read(self, size=-1):
                self.sizes.append(size)
                return super().read(size)

        text = _cohort_text(6000)
        assert len(text) > 4 * (csv.field_size_limit() // 2)
        path = tmp_path / "metrics.csv"
        path.write_text(text, encoding="utf-8")
        with RecordedReads(io.FileIO(path)) as file:
            table = scoring._split_table(file)
            sizes = file.sizes
        assert len(table.values) == text.count("\n") - 1
        assert len(sizes) > 4
        assert set(sizes) == {scoring._CHUNK_BYTES}

    def test_a_line_cut_by_the_read_bound_is_walked(self, tmp_path):
        """The reader takes a line half of csv's field limit at a time. A
        longer line, cut there into two runs that would each split as a
        record, goes to the walk instead, which names its five fields."""
        tail = csv.field_size_limit() // 2
        cut = min(scoring._CHUNK_BYTES, tail) + tail
        line = "F1,soil," + "0" * (cut - len("F1,soil,")) + "F2,water,1"
        path = tmp_path / "metrics.csv"
        path.write_text("farmer_id,metric_id,value\n" + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert str(excinfo.value) == f"{path}:2: expected 3 fields, got 5"

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\n", b"\xe2\x82"],
                             ids=["stray", "cut-by-newline", "cut-by-end"])
    def test_invalid_utf8_in_a_late_chunk_is_named(self, tmp_path, monkeypatch,
                                                   bad):
        """Chunks are decoded one at a time, but a byte that is not UTF-8
        in the last of many is named by its byte and line, as a decode of
        the whole file names it."""
        monkeypatch.setattr(scoring, "_CHUNK_BYTES", 256)
        path = tmp_path / "metrics.csv"
        path.write_bytes(_cohort_text(250).encode() + b"F9,soil," + bad)
        with pytest.raises(DataError) as excinfo:
            read_metrics_csv(path)
        assert (str(excinfo.value)
                == f"{path}: not valid UTF-8: byte 0x{bad[0]:02x} on line 1002")

    @pytest.mark.parametrize("quote, blank", [(False, False), (True, False),
                                              (False, True)],
                             ids=["split", "csv", "row-walk"])
    def test_repeated_ids_share_one_object(self, tmp_path, monkeypatch,
                                           quote, blank):
        """Every route holds each distinct id once: ``farmers`` and
        ``metrics`` list the ids without repeats, in first-seen order, and
        decoding the codes gives back the file's columns. The scores are
        those of `MetricTable.from_records` on the same records."""
        monkeypatch.setattr(scoring, "_CHUNK_BYTES", 64)
        path = tmp_path / "metrics.csv"
        path.write_text(_cohort_text(40, quote=quote, blank=blank),
                        encoding="utf-8")
        table = read_metrics_csv(path)
        records = [MetricRecord(r.farmer_id, r.metric_id, r.value)
                   for r in _reference_read(path)]
        want = ([r.farmer_id for r in records], [r.metric_id for r in records],
                [r.value for r in records])
        assert _columns(table) == want
        assert table.farmer_codes.dtype == table.metric_codes.dtype == np.intp
        for ids, column in ((table.farmers, want[0]), (table.metrics, want[1])):
            assert ids == list(dict.fromkeys(column))
            assert len(ids) < len(column)
        scheme = ScoringScheme(schema=_PROPERTY_SCHEMA)
        assert (list(composite_score(table, scheme).items())
                == list(composite_score(records, scheme).items()))

    def test_memory_stays_near_the_file_size(self, tmp_path):
        """Reading a 3 MB cohort peaks under 4x the file's bytes and holds
        under 1.5x once read: the file is read, decoded and split one chunk
        at a time, and the table keeps one string per distinct id. With its
        first farmer id quoted, the file is streamed row by row, and each
        row's codes and value go into typed buffers, so the read peaks under
        1.75x (a walk that held every row would reach about 15x, and one
        that held the file's bytes and text for its UTF-8 check about 2x)."""
        rng = np.random.default_rng(0)
        lines = ["farmer_id,metric_id,value"] + [
            f"farmer_{i:05d},metric_{j:02d},{value!r}"
            for i in range(2500)
            for j, value in enumerate(np.round(rng.normal(50.0, 10.0, 36), 6).tolist())]
        path = tmp_path / "metrics.csv"
        for quoted, peak_ratio in ((False, 4), (True, 1.75)):
            if quoted:
                lines[1] = '"' + lines[1].replace(",", '",', 1)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            size = path.stat().st_size
            assert size > 2_900_000
            tracemalloc.start()
            try:
                table = read_metrics_csv(path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(table) == 90_000
            assert table.farmers[table.farmer_codes[0]] == "farmer_00000"
            assert peak < peak_ratio * size
            assert held < 1.5 * size


# ----------------------------------------------------------------------
# the split route's alignment check and the scores writer
# ----------------------------------------------------------------------


def _reference_aligned(data):
    """`scoring._aligned` as it was before it skipped the CRLF fold of a
    run with no carriage return, kept as its reference: every run folded."""
    seps = data.replace(b"\r\n", b"\n").translate(None, scoring._NOT_STRUCTURE)
    if not data.endswith(b"\n"):
        seps += b"\n"
    return seps == b",,\n" * (len(seps) // 3)


class _Unfoldable(bytes):
    """Bytes that fail the test if anything folds them."""

    def replace(self, *args):
        raise AssertionError("a run with no carriage return was folded")


_RUN_PIECES = st.sampled_from([b",", b'"', b"\0", b"\r", b"\n", b"\r\n", b"a",
                               b"Z", b"a,b,1\n", b"a,b,1\r\n", b",,\n"])


class TestAlignedRuns:
    """`_aligned` copies a run only to fold its CRLF, and only when it
    holds a carriage return; its answer is that of folding every run."""

    @pytest.mark.parametrize("data", [
        b"farmer_id,metric_id,value\nF1,soil,1\n", b"F1,soil,1", b"F1,soil\n",
        b'"F1",soil,1\n', b"F1,soil,\x001\n", b""])
    def test_a_run_without_cr_is_never_folded(self, data):
        assert scoring._aligned(_Unfoldable(data)) == _reference_aligned(data)

    @given(data=st.lists(_RUN_PIECES, max_size=12).map(b"".join))
    @example(data=b"F1,soil,1\r\nF2,soil,0\r\n")
    @example(data=b"F1,soil,1\rF2,soil,0\n")
    @example(data=b"F1,soil,1\r")
    def test_matches_folding_every_run(self, data):
        assert scoring._aligned(data) == _reference_aligned(data)


def _reference_write_scores(path, scores, header_comment=None):
    """The csv.writer route that `write_scores_csv` replaced, kept as its
    reference: one ``writerow`` per farmer, in sorted id order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(header_comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(["farmer_id", "score"])
        for farmer in sorted(scores):
            writer.writerow([farmer, f"{scores[farmer]:.4f}"])


# NUL is left out: csv.writer's handling of it changed in Python 3.11.
_IDS = st.text(st.characters(blacklist_characters="\x00")
               | st.sampled_from(list(',"\r\n é中')), max_size=6)
# Multiples of 0.00005 put many scores on a tie at the fourth decimal.
_SCORES = (st.floats(0.0, 100.0) | st.sampled_from([0.0, 100.0])
           | st.integers(0, 2_000_000).map(lambda k: k / 20_000))


class TestScoresWriter:
    """`write_scores_csv` writes the bytes of the csv.writer route."""

    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scores=st.dictionaries(_IDS, _SCORES, max_size=8),
           header_comment=st.none() | st.just("# eselend score seed=1"))
    @example(scores={"F1": 12.34565, "F2": 0.00005, "F3": 0.0, "F4": 100.0},
             header_comment=None)
    @example(scores={'a,"b"': 1.0, "c\r\nd": 2.0, " e ": 3.0, "é": 4.0,
                     "": 5.0}, header_comment=None)
    def test_matches_csv_writer(self, scores, header_comment, tmp_path):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_scores_csv(new, scores, header_comment=header_comment)
        _reference_write_scores(ref, scores, header_comment=header_comment)
        assert new.read_bytes() == ref.read_bytes()
