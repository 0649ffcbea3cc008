"""Composite ESE scores from per-farmer metric records.

Pipeline: each metric's cohort values are normalized to [0, 1] with the
better direction mapped high, metrics are weighted (every metric is worth
1/total unless explicit overrides are given, so each pillar weighs its
share of the metric count), and the weighted sum is scaled to [0, 100].
The result feeds `success_probability` directly.

Normalization statistics come from the scored cohort itself. A metric
definition may pin explicit (min, max) bounds instead, for scoring against
a reference population; pinned bounds apply to min-max normalization, and
values outside them clip to the ends of [0, 1]. The z-score variant always
uses cohort statistics.

Records are held as columns, not one object each: `read_metrics_csv`
returns a `MetricTable` of the distinct farmer and metric ids, in
first-seen order, one integer code per record for each, and a float64
value array. Each id of each record is coded once, as it is read.
`composite_score` turns the codes into the rows (farmers sorted) and
columns (schema order) of one farmers x metrics matrix through lookup
arrays built from the distinct ids, and reports duplicate, unknown and
missing pairs from its counts.
A list of `MetricRecord`s is converted to a table and scored the same way.

The metrics reader takes one of two routes. A plain file is split as
text, one chunk of whole lines (about `_CHUNK_BYTES` bytes, or half of
csv's field limit if that is less) at a time: when a chunk holds no
quote, NUL or lone carriage return, each of its lines has exactly two
commas (one translation of its bytes checks both, after CRLF is folded
to LF in a chunk that holds a carriage return; no other chunk is copied)
and no line is longer than csv's field limit, it is decoded on its own
and its cells are one ``str.split(",")`` of it with newlines turned into
commas, checked a whole column at a time. So no more than one chunk of
the file is held at a time. Any other file, and a plain file with a bad
record, is streamed from the file one `csv.reader` row at a time, as a
schema file is, and names the line its first bad record starts on.

File formats: metric records arrive as CSV with header
``farmer_id,metric_id,value``; the schema is CSV with header
``metric_id,pillar,direction,kind,weight,min,max`` (the last three columns
may be blank); scores leave as CSV with header ``farmer_id,score`` and four
decimal places, in the bytes csv.writer writes: ids quoted only where
QUOTE_MINIMAL quotes them, and CRLF rows. Input files are UTF-8, with an
optional byte-order mark. Malformed metric data raises DataError,
malformed schema raises ConfigError, both with file and line context. Of
several faults in a file, the one reported is the first in this order:
invalid UTF-8 anywhere, then a `csv.Error` anywhere (such as a cell over
csv's field limit), then the first bad header or row.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "PILLARS",
    "DIRECTIONS",
    "KINDS",
    "NORMALIZATIONS",
    "MetricDef",
    "MetricRecord",
    "MetricTable",
    "ScoringScheme",
    "normalize",
    "composite_score",
    "read_metrics_csv",
    "read_schema_csv",
    "write_scores_csv",
]

PILLARS = ("ENVIRONMENTAL", "SOCIAL", "ECONOMIC")
DIRECTIONS = ("HIGHER_BETTER", "LOWER_BETTER")
KINDS = ("CONTINUOUS", "BINARY")
NORMALIZATIONS = ("MIN_MAX", "Z_SCORE_CLIPPED")

_WEIGHT_SUM_TOL = 1e-12
_Z_CLIP = 3.0


@dataclass(frozen=True)
class MetricDef:
    """One metric in a scoring schema.

    weight: optional explicit weight override; overrides are all-or-nothing
    across a schema and must sum to 1.
    bounds: optional (min, max) reference range for min-max normalization.
    """

    id: str
    pillar: str
    direction: str
    kind: str
    weight: float | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id.strip():
            raise ConfigError("metric id must be a non-empty string")
        if self.pillar not in PILLARS:
            raise ConfigError(f"unknown pillar {self.pillar!r} for metric {self.id!r}")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r} for metric {self.id!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r} for metric {self.id!r}")
        if self.weight is not None:
            if not (isinstance(self.weight, (int, float)) and math.isfinite(self.weight)):
                raise ConfigError(f"weight for metric {self.id!r} must be finite")
            if self.weight < 0:
                raise ConfigError(f"weight for metric {self.id!r} must be >= 0")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(
                    f"bounds for metric {self.id!r} must be finite with min < max"
                )


def _record_problem(farmer_id, metric_id, value) -> str | None:
    """What is wrong with one metric record, or None if nothing is."""
    if not isinstance(farmer_id, str) or not farmer_id.strip():
        return "farmer_id must be a non-empty string"
    if not isinstance(metric_id, str) or not metric_id.strip():
        return "metric_id must be a non-empty string"
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return (f"non-finite value {value!r} for farmer {farmer_id!r}, "
                f"metric {metric_id!r}")
    return None


@dataclass(frozen=True)
class MetricRecord:
    """One observed value of one metric for one farmer."""

    farmer_id: str
    metric_id: str
    value: float

    def __post_init__(self):
        problem = _record_problem(self.farmer_id, self.metric_id, self.value)
        if problem is not None:
            raise DataError(problem)


def _coder() -> defaultdict:
    """An empty id coder. Looking an id up gives its code, the number of
    distinct ids looked up before its first lookup, so ``list(coder)`` is
    the distinct ids in first-seen order, indexed by code."""
    return defaultdict(count().__next__)


def _encode(coder: defaultdict, column: Sequence[str]) -> np.ndarray:
    """The codes of a column of ids, one lookup of ``coder`` each."""
    return np.fromiter(map(coder.__getitem__, column), np.intp, count=len(column))


@dataclass(frozen=True, eq=False)
class MetricTable:
    """Metric records as columns of equal length, in record order.

    ``farmers`` and ``metrics`` are the distinct ids, in the order of
    their first record. Record i is farmer ``farmers[farmer_codes[i]]``'s
    value ``values[i]`` of metric ``metrics[metric_codes[i]]``; the codes
    are ``np.intp`` arrays. Every id is a non-empty string and every value
    is finite: the table comes from `read_metrics_csv`, which checks whole
    columns, or from `from_records`, whose records checked themselves.
    ``len()`` is the record count.
    """

    farmers: list[str]
    metrics: list[str]
    farmer_codes: np.ndarray
    metric_codes: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_records(cls, records: Iterable[MetricRecord]) -> MetricTable:
        """The columns of ``records``, in their order."""
        records = list(records)
        farmers, metrics = _coder(), _coder()
        farmer_codes = _encode(farmers, [rec.farmer_id for rec in records])
        metric_codes = _encode(metrics, [rec.metric_id for rec in records])
        return cls(list(farmers), list(metrics), farmer_codes, metric_codes,
                   np.array([float(rec.value) for rec in records], dtype=float))


@dataclass(frozen=True)
class ScoringScheme:
    """Schema plus normalization choice."""

    schema: tuple[MetricDef, ...]
    normalization: str = "MIN_MAX"

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        if not self.schema:
            raise ConfigError("schema must contain at least one metric")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        seen: set[str] = set()
        for metric in self.schema:
            if metric.id in seen:
                raise ConfigError(f"duplicate metric id {metric.id!r} in schema")
            seen.add(metric.id)
        overridden = [m for m in self.schema if m.weight is not None]
        if overridden and len(overridden) != len(self.schema):
            missing = sorted(m.id for m in self.schema if m.weight is None)
            raise ConfigError(
                "weight overrides are all-or-nothing; missing weights for: "
                + ", ".join(missing)
            )
        if overridden:
            total = math.fsum(m.weight for m in self.schema)
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise ConfigError(f"explicit weights sum to {total!r}, expected 1")

    @property
    def has_weight_overrides(self) -> bool:
        return self.schema[0].weight is not None

    def metric_weights(self) -> dict[str, float]:
        """Effective per-metric weights (they always sum to 1)."""
        if self.has_weight_overrides:
            return {m.id: float(m.weight) for m in self.schema}
        share = 1.0 / len(self.schema)
        return {m.id: share for m in self.schema}


def _validate_binary(metric: MetricDef, values: np.ndarray) -> None:
    bad = values[(values != 0.0) & (values != 1.0)]
    if bad.size:
        raise DataError(
            f"binary metric {metric.id!r} has non-binary value {float(bad[0])!r}"
        )


def normalize(values: Sequence[float], metric: MetricDef,
              normalization: str = "MIN_MAX") -> np.ndarray:
    """Normalize one metric's cohort values to [0, 1], better mapped high.

    MIN_MAX rescales by the cohort range (or the metric's pinned bounds,
    clipping outside values); Z_SCORE_CLIPPED standardizes, clips to three
    standard deviations, and maps [-3, 3] onto [0, 1]. A cohort with no
    variation normalizes to 0.5 throughout: a metric that cannot rank
    anybody should not move anybody's score. LOWER_BETTER metrics are
    flipped after scaling.
    """
    if normalization not in NORMALIZATIONS:
        raise ConfigError(f"unknown normalization {normalization!r}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise DataError(f"cohort for metric {metric.id!r} must be non-empty")
    if not np.all(np.isfinite(vals)):
        bad = vals[~np.isfinite(vals)][0]
        raise DataError(f"non-finite value {bad!r} for metric {metric.id!r}")
    if metric.kind == "BINARY":
        _validate_binary(metric, vals)

    if normalization == "MIN_MAX":
        if metric.bounds is not None:
            lo, hi = metric.bounds
            scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
        else:
            lo, hi = float(vals.min()), float(vals.max())
            if lo == hi:
                scaled = np.full_like(vals, 0.5)
            else:
                scaled = (vals - lo) / (hi - lo)
    else:
        mu = float(vals.mean())
        sd = float(vals.std())
        if sd == 0.0:
            scaled = np.full_like(vals, 0.5)
        else:
            z = np.clip((vals - mu) / sd, -_Z_CLIP, _Z_CLIP)
            scaled = (z + _Z_CLIP) / (2.0 * _Z_CLIP)

    if metric.direction == "LOWER_BETTER":
        scaled = 1.0 - scaled
    return np.clip(scaled, 0.0, 1.0)


def composite_score(records: MetricTable | Iterable[MetricRecord],
                    scheme: ScoringScheme) -> dict[str, float]:
    """Composite score in [0, 100] per farmer, keyed and ordered by id.

    ``records`` is a `MetricTable` or any iterable of `MetricRecord`s, which
    is turned into one. Every farmer must have exactly one value for every
    schema metric; the error for missing pairs lists all gaps, and
    duplicated or unknown metric ids are rejected the same way. No
    imputation happens here: a fabricated value would silently change a
    credit decision.

    Farmers (sorted) and metrics (schema order) are the rows and columns of
    one farmers x metrics matrix; the table's codes are turned into them
    through one lookup array per column, built from its distinct ids. Each
    metric's column is contiguous, so `normalize` sees the same array a
    per-metric list of the cohort's values would give it, and the totals
    add up in schema order.
    """
    table = (records if isinstance(records, MetricTable)
             else MetricTable.from_records(records))
    schema = scheme.schema
    n_metrics = len(schema)
    metric_index = {metric.id: j for j, metric in enumerate(schema)}
    columns = np.array([metric_index.get(metric, -1) for metric in table.metrics],
                       dtype=np.intp)[table.metric_codes]
    order = sorted(range(len(table.farmers)), key=table.farmers.__getitem__)
    farmers = [table.farmers[code] for code in order]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    rows = rank[table.farmer_codes]

    unknown = np.flatnonzero(columns < 0)
    problems = [f"unknown metric {table.metrics[metric]!r} for farmer {table.farmers[farmer]!r}"
                for farmer, metric in zip(table.farmer_codes[unknown].tolist(),
                                          table.metric_codes[unknown].tolist())]
    known = columns >= 0
    counts = np.bincount(rows[known] * n_metrics + columns[known],
                         minlength=len(farmers) * n_metrics)
    for cell in np.flatnonzero(counts > 1).tolist():
        farmer, j = divmod(cell, n_metrics)
        problems += [f"duplicate value for farmer {farmers[farmer]!r}, "
                     f"metric {schema[j].id!r}"] * (int(counts[cell]) - 1)
    if problems:
        raise DataError("invalid metric records", details=sorted(problems))

    if not farmers:
        return {}
    gaps = [f"farmer {farmers[cell // n_metrics]!r} missing metric "
            f"{schema[cell % n_metrics].id!r}"
            for cell in np.flatnonzero(counts == 0).tolist()]
    if gaps:
        raise DataError(f"{len(gaps)} missing (farmer, metric) pairs",
                        details=gaps)

    matrix = np.empty((len(farmers), n_metrics), order="F")
    matrix[rows, columns] = table.values
    weights = scheme.metric_weights()
    totals = np.zeros(len(farmers))
    for j, metric in enumerate(schema):
        totals += weights[metric.id] * normalize(matrix[:, j], metric, scheme.normalization)
    scores = np.clip(totals * 100.0, 0.0, 100.0)
    return dict(zip(farmers, scores.tolist()))


# ----------------------------------------------------------------------
# file interfaces
# ----------------------------------------------------------------------

_METRICS_HEADER = ["farmer_id", "metric_id", "value"]
_SCHEMA_HEADER = ["metric_id", "pillar", "direction", "kind", "weight", "min", "max"]
_UTF8_BOM = b"\xef\xbb\xbf"
# Every byte but comma, quote, NUL, CR and LF, for bytes.translate to delete.
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b',"\0\r\n')))
# The ASCII characters str.strip() removes, other than LF and CR; any
# non-ASCII character may be Unicode whitespace as well. A text-split file
# holds CR only in CRLF, where it ends a line's last cell, which float()
# reads past.
_ASCII_SPACE = "\t\x0b\x0c\x1c\x1d\x1e\x1f "
#: Bytes per chunk of a metrics file, or half of csv's field limit if that
#: is less; a chunk ends at the first newline after this many.
_CHUNK_BYTES = 65_536


def _decode(data: bytes, path: Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file's bytes, less one leading byte-order mark;
    invalid UTF-8 raises ``error`` with the offending byte and line."""
    start = len(_UTF8_BOM) if data.startswith(_UTF8_BOM) else 0
    try:
        return str(memoryview(data)[start:], "utf-8")
    except UnicodeDecodeError as exc:
        offset = start + exc.start
        line = data.count(b"\n", 0, offset) + 1
        raise error(f"{path}: not valid UTF-8: byte 0x{data[offset]:02x} "
                    f"on line {line}") from None


def _aligned(data: bytes) -> bool:
    """Whether ``data`` can be split as text: it holds no quote, NUL or
    lone carriage return, and every line of it has exactly two commas. So,
    with CRLF folded to LF, its commas, quotes, NULs, carriage returns and
    newlines, in order, must read ``,,\\n`` repeated. Only a run that holds
    a carriage return is folded; any other run has no CRLF to fold."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    seps = data.translate(None, _NOT_STRUCTURE)
    if not data.endswith(b"\n"):
        seps += b"\n"  # the last line's end is implied
    return seps == b",,\n" * (len(seps) // 3)


def _csv_rows(path: Path, error: type[Exception]):
    """Yield `csv.reader`'s rows of the file as ``(line it starts on, row)``,
    each cell stripped, streamed from the file. When the stream stops at
    invalid UTF-8 or a `csv.Error`, `_decode` of the whole file first raises
    ``error`` at the first invalid byte, if there is one anywhere; otherwise
    ``error`` names the line of the row the reader stopped in."""
    with path.open(newline="", encoding="utf-8-sig") as file:
        reader = csv.reader(file)
        start = 1
        try:
            for row in reader:
                yield start, [cell.strip() for cell in row]
                start = reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            _decode(path.read_bytes(), path, error)
            raise error(f"{path}:{start}: {exc}") from None


def _walk(path: Path, error: type[Exception], what: str, parse):
    """``parse(path, header, rows)`` of one lazy `_csv_rows` walk of an
    input file: the header's cells and the ``(line, cells)`` pairs of the
    rows after it, blank rows skipped. A row whose width is not the
    header's raises ``error`` at its line; an empty file raises
    ConfigError. When ``parse`` raises ``error``, the rest of the rows are
    read first, so the errors come in one order: invalid UTF-8 anywhere,
    then a `csv.Error` anywhere, then the first bad header or row."""
    rows = _csv_rows(path, error)
    _, header = next(rows, (1, None))
    if header is None:
        raise ConfigError(f"{path}: empty {what} file")

    def records():
        for lineno, row in rows:
            if not any(row):
                continue
            if len(row) != len(header):
                raise error(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row

    try:
        return parse(path, header, records())
    except error:
        for _ in rows:
            pass
        raise


def read_metrics_csv(path) -> MetricTable:
    """Load metric records, reporting problems with file and line context.

    Blank rows are skipped and cells are stripped. A plain file with no
    line longer than csv's field limit is read, decoded and split a chunk
    of whole lines at a time by `_split_table` (see the module docstring).
    Any other file, and any file the split route cannot turn into a valid
    table (one with a quote, a blank row, a long line, invalid UTF-8 or a
    bad record), is walked row by row by `_walk`, as a schema is, which
    raises invalid UTF-8 anywhere first, then a `csv.Error` anywhere, then
    the first bad header or record, at its line.
    Either route codes each id once, as it is read.
    """
    path = Path(path)
    with path.open("rb") as file:
        table = _split_table(file)
    return _walk(path, DataError, "metrics", _parse_rows) if table is None else table


def _split_table(file) -> MetricTable | None:
    """The table of an aligned metrics file, or None.

    The header line and then each run of whole lines that ends at the
    first newline after `_CHUNK_BYTES` bytes, or half of csv's field limit
    if that is less, are decoded on their own and split with one
    ``str.split(",")``, newlines turned into commas; cells are stripped
    where an id may hold whitespace. Each column's ids are coded by one
    `_coder` that lives for the whole file. None at the first run that is
    not aligned, not valid UTF-8 or cut mid-line before the end of the
    file (the header and a run's last line are read half the field limit
    at a time, so no split line is longer than the limit), a bad header,
    a bad record, or a file with no records.
    """
    farmers, metrics = _coder(), _coder()
    farmer_codes, metric_codes, values = [], [], []
    header = True
    tail = csv.field_size_limit() // 2
    data = file.readline(tail).removeprefix(_UTF8_BOM)
    while data:
        whole = data.endswith(b"\n") or not file.peek(1)  # no line cut at the bound
        try:
            text = str(data, "utf-8") if whole and _aligned(data) else None
        except UnicodeDecodeError:
            text = None
        if text is None:
            return None
        cells = text.removesuffix("\n").replace("\n", ",").split(",")
        if not text.isascii() or any(ch in text for ch in _ASCII_SPACE):
            cells = [cell.strip() for cell in cells]
        if header:  # CRLF leaves "\r" on its last cell
            if [cell.strip() for cell in cells] != _METRICS_HEADER:
                return None
            header = False
        else:
            farmer_codes.append(_encode(farmers, cells[0::3]))
            metric_codes.append(_encode(metrics, cells[1::3]))
            if "" in farmers or "" in metrics:
                return None
            try:
                values.append(np.fromiter(map(float, cells[2::3]), dtype=float,
                                          count=len(farmer_codes[-1])))
            except ValueError:
                return None
            if not np.isfinite(values[-1]).all():
                return None
        data = file.read(min(_CHUNK_BYTES, tail)) + file.readline(tail)
    if not values:
        return None
    # One column at a time, so each one's chunks go before the next is joined.
    farmer_codes = np.concatenate(farmer_codes)
    metric_codes = np.concatenate(metric_codes)
    return MetricTable(list(farmers), list(metrics), farmer_codes, metric_codes,
                       np.concatenate(values))


def _parse_rows(path: Path, header: list[str], rows: Iterable[tuple]) -> MetricTable:
    """The table of a metrics file's header and ``(line, cells)`` rows, read
    one at a time in file order and raising at the first bad one with its
    line. Each record's ids are coded and its codes and value appended to
    typed buffers, which become the table's arrays."""
    if header != _METRICS_HEADER:
        raise DataError(f"{path}:1: expected header {','.join(_METRICS_HEADER)}")
    farmers, metrics = _coder(), _coder()
    farmer_codes, metric_codes, values = array("q"), array("q"), array("d")
    for lineno, (farmer_id, metric_id, raw) in rows:
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {raw!r} is not a number") from None
        problem = _record_problem(farmer_id, metric_id, value)
        if problem is not None:
            raise DataError(f"{path}:{lineno}: {problem}")
        farmer_codes.append(farmers[farmer_id])
        metric_codes.append(metrics[metric_id])
        values.append(value)
    if not values:
        raise ConfigError(f"{path}: metrics file contains no records")
    return MetricTable(list(farmers), list(metrics),
                       np.asarray(farmer_codes, dtype=np.intp),
                       np.asarray(metric_codes, dtype=np.intp), np.asarray(values))


def _parse_optional_float(raw: str, path: Path, lineno: int, column: str) -> float | None:
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: {column} {raw!r} is not a number") from None


def read_schema_csv(path, normalization: str = "MIN_MAX") -> ScoringScheme:
    """Load a scoring schema; see the module docstring for the format."""
    metrics = _walk(Path(path), ConfigError, "schema", _parse_schema)
    return ScoringScheme(schema=tuple(metrics), normalization=normalization)


def _parse_schema(path: Path, header: list[str], rows: Iterable[tuple]) -> list[MetricDef]:
    """The metrics of a schema file's header and ``(line, cells)`` rows,
    raising at the first bad one with its line."""
    if header != _SCHEMA_HEADER and header != _SCHEMA_HEADER[:4]:
        raise ConfigError(
            f"{path}:1: expected header {','.join(_SCHEMA_HEADER)} "
            "(weight, min, and max may be omitted)"
        )
    metrics: list[MetricDef] = []
    for lineno, row in rows:
        metric_id, pillar, direction, kind = row[:4]
        weight = bound_lo = bound_hi = None
        if len(row) == 7:
            weight = _parse_optional_float(row[4], path, lineno, "weight")
            bound_lo = _parse_optional_float(row[5], path, lineno, "min")
            bound_hi = _parse_optional_float(row[6], path, lineno, "max")
        if (bound_lo is None) != (bound_hi is None):
            raise ConfigError(f"{path}:{lineno}: min and max must be given together")
        bounds = None if bound_lo is None else (bound_lo, bound_hi)
        try:
            metrics.append(MetricDef(metric_id, pillar, direction, kind,
                                     weight=weight, bounds=bounds))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    if not metrics:
        raise ConfigError(f"{path}: schema file contains no metrics")
    return metrics


def _csv_quote(text: str) -> str:
    """A field as csv.writer writes it beside others (QUOTE_MINIMAL): one
    that holds a comma, quote, CR or LF is quoted, its quotes doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _format_rows(template: str, columns: Sequence[Iterable], rows: int) -> str:
    """``rows`` rows of the ``%`` row ``template``, one field per column of
    ``columns`` (each ``rows`` cells), in one ``%`` call: the template
    repeated ``rows`` times, applied to one flat tuple of every cell in row
    order, which one slice assignment per column lays out."""
    width = len(columns)
    flat = [None] * (rows * width)
    for j, cells in enumerate(columns):
        flat[j::width] = cells
    return (template * rows) % tuple(flat)


def write_scores_csv(path, scores: Mapping[str, float],
                     header_comment: str | None = None) -> None:
    """Write ``farmer_id,score`` rows, farmers sorted, scores at four
    decimal places: csv.writer's bytes, each id quoted by `_csv_quote`
    (QUOTE_MINIMAL) and every row ended by CRLF. The rows are formatted in
    one ``%`` call, by `_format_rows`.

    header_comment, when given, is emitted verbatim as the first line
    (callers use it for a ``#`` provenance comment).
    """
    farmers = sorted(scores)
    body = _format_rows("%s,%.4f\r\n", (map(_csv_quote, farmers),
                                        map(scores.__getitem__, farmers)),
                        len(farmers))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment is not None:
            fh.write(header_comment + "\n")
        fh.write("farmer_id,score\r\n" + body)
