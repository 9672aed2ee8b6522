"""Event-level clinical data: CSV parsing, synthetic generation, hourly binning.

Each patient's lab events are stored as columns: one structured array with
fields `hours` (hours before the endpoint, death or discharge), `lab` (the
lab's vocabulary id) and `value`, in file order. Hours count backwards from
the endpoint: hour bin h covers events with hours in the half-open interval
[h, h+1), so bin 0 is the hour immediately before the endpoint.

A split is ingested in one pass: `bin_events` z-scores each in-window event
and bins it into one (patient, hour, lab) tensor of hourly means plus its
observed mask, which the graph and every arm's features read. It fills the
two arrays, allocated once, record by record and copies no record; every
cell sums its events in record order, so the bits are those of one
bincount over the whole split. Each array is a private anonymous mapping,
not a heap block, so its pages leave with it and where the heap's free
blocks lie never moves a fold's peak memory.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import mmap
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_WINDOWS = (6, 12, 24, 48)

EVENT_DTYPE = np.dtype([("hours", np.float64), ("lab", np.int64), ("value", np.float64)])


def event_array(events=()) -> np.ndarray:
    """One record's events, given as (hours, lab, value) tuples, as a structured array."""
    return np.array(list(events), dtype=EVENT_DTYPE)


class DataFormatError(ValueError):
    """An input file violates the expected CSV schema."""


@dataclass
class PatientRecord:
    patient_id: str
    events: np.ndarray  # EVENT_DTYPE columns hours, lab, value; one entry per event
    diagnoses: set[int]
    died: bool
    end_hour: int  # informational: parsed and written back, read by no stage

    def __eq__(self, other):
        if not isinstance(other, PatientRecord):
            return NotImplemented
        return (self.patient_id == other.patient_id and self.diagnoses == other.diagnoses
                and self.died == other.died and self.end_hour == other.end_hour
                and self.events.dtype == other.events.dtype
                and np.array_equal(self.events, other.events))


class Vocabulary:
    """Dense name<->index maps for lab tests and diagnoses."""

    def __init__(self, labs=(), diagnoses=()):
        self.labs: list[str] = list(labs)
        self.diagnoses: list[str] = list(diagnoses)
        self._lab_index = {name: i for i, name in enumerate(self.labs)}
        self._diagnosis_index = {name: i for i, name in enumerate(self.diagnoses)}
        if len(self._lab_index) != len(self.labs):
            raise ValueError("duplicate lab names in vocabulary")
        if len(self._diagnosis_index) != len(self.diagnoses):
            raise ValueError("duplicate diagnosis names in vocabulary")

    @property
    def n_labs(self) -> int:
        return len(self.labs)

    @property
    def n_diagnoses(self) -> int:
        return len(self.diagnoses)

    def lab_id(self, name: str) -> int:
        """The lab's index; a new name is appended first."""
        return self._index(name, self.labs, self._lab_index)

    def diagnosis_id(self, name: str) -> int:
        """The diagnosis' index; a new name is appended first."""
        return self._index(name, self.diagnoses, self._diagnosis_index)

    @staticmethod
    def _index(name: str, names: list, index: dict) -> int:
        idx = index.setdefault(name, len(names))
        if idx == len(names):
            names.append(name)
        return idx

    def save(self, path) -> None:
        payload = {"labs": self.labs, "diagnoses": self.diagnoses}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a vocabulary file; a malformed one is refused, naming the file."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        for key in ("labs", "diagnoses"):
            names = payload.get(key) if isinstance(payload, dict) else None
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ValueError(f"{path}: vocabulary needs {key!r} as a list of names")
        try:
            return cls(labs=payload["labs"], diagnoses=payload["diagnoses"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _open_rows(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if row and any(cell.strip() for cell in row):
                yield line_no, [cell.strip() for cell in row]


# Columns that name a patient, lab or diagnosis: an empty cell there is refused.
_NAME_COLUMNS = ("patient_id", "lab_name", "diagnosis_name")


def _table_rows(path, header):
    """A CSV table's data rows as (line_no, cells), its header, column count and
    names checked.

    The header is the first non-blank row; a table with none is an error, a
    header-only table has no data rows.
    """
    rows = _open_rows(path)
    first = next(rows, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, expected header {','.join(header)}")
    line_no, row = first
    if row != list(header):
        raise DataFormatError(
            f"{path}:{line_no}: expected header {','.join(header)}, got {','.join(row)}")
    names = [(i, column) for i, column in enumerate(header) if column in _NAME_COLUMNS]
    for line_no, row in rows:
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}")
        for i, column in names:
            if not row[i]:
                raise DataFormatError(f"{path}:{line_no}: {column} is empty")
        yield line_no, row


def parse_records(events_file, diagnoses_file, outcomes_file, vocab: Vocabulary | None = None):
    """Parse the three corpus CSVs into patient records.

    Returns (records, vocabulary), one record per patient in the outcomes
    file, in outcomes-file order. Unknown lab/diagnosis names extend the
    supplied vocabulary (a fresh one is created when None is given).
    """
    vocab = vocab if vocab is not None else Vocabulary()
    records: dict[str, PatientRecord] = {}
    events: dict[str, list] = {}

    for line_no, row in _table_rows(outcomes_file, ("patient_id", "died", "end_hour")):
        pid, died_s, end_s = row
        if died_s not in ("0", "1"):
            raise DataFormatError(f"{outcomes_file}:{line_no}: died must be 0 or 1, got {died_s!r}")
        try:
            end_hour = int(end_s)
        except ValueError:
            raise DataFormatError(f"{outcomes_file}:{line_no}: end_hour must be an integer, got {end_s!r}") from None
        if end_hour < 0:
            raise DataFormatError(f"{outcomes_file}:{line_no}: end_hour must be non-negative")
        if pid in records:
            raise DataFormatError(f"{outcomes_file}:{line_no}: duplicate patient {pid!r}")
        records[pid] = PatientRecord(pid, event_array(), set(), died_s == "1", end_hour)
        events[pid] = []

    for line_no, row in _table_rows(events_file,
                                    ("patient_id", "hours_before_end", "lab_name", "value")):
        pid, hours_s, lab_name, value_s = row
        if pid not in records:
            raise DataFormatError(f"{events_file}:{line_no}: patient {pid!r} not present in outcomes file")
        try:
            hours = float(hours_s)
            value = float(value_s)
        except ValueError:
            raise DataFormatError(f"{events_file}:{line_no}: malformed numeric field") from None
        if not math.isfinite(hours) or hours < 0:
            raise DataFormatError(f"{events_file}:{line_no}: hours_before_end must be finite and >= 0")
        if not math.isfinite(value):
            raise DataFormatError(f"{events_file}:{line_no}: value must be finite")
        events[pid].append((hours, vocab.lab_id(lab_name), value))
    for pid, record in records.items():
        record.events = event_array(events[pid])

    for line_no, row in _table_rows(diagnoses_file, ("patient_id", "diagnosis_name")):
        pid, dx_name = row
        record = records.get(pid)
        if record is None:
            raise DataFormatError(f"{diagnoses_file}:{line_no}: patient {pid!r} not present in outcomes file")
        record.diagnoses.add(vocab.diagnosis_id(dx_name))

    return list(records.values()), vocab


def write_corpus(records, vocab: Vocabulary, out_dir) -> dict[str, Path]:
    """Write events/diagnoses/outcomes CSVs plus vocabulary.json.

    Float fields use repr formatting, so a parse_records round trip
    reproduces the records exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": out_dir / "events.csv",
        "diagnoses": out_dir / "diagnoses.csv",
        "outcomes": out_dir / "outcomes.csv",
        "vocabulary": out_dir / "vocabulary.json",
    }
    with paths["outcomes"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "died", "end_hour"])
        for rec in records:
            writer.writerow([rec.patient_id, int(rec.died), rec.end_hour])
    with paths["events"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "hours_before_end", "lab_name", "value"])
        for rec in records:
            # tolist() gives Python floats, whose repr is the shortest round-trip form
            for hours, lab, value in rec.events.tolist():
                writer.writerow([rec.patient_id, repr(hours), vocab.labs[lab], repr(value)])
    with paths["diagnoses"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id", "diagnosis_name"])
        for rec in records:
            for dx in sorted(rec.diagnoses):
                writer.writerow([rec.patient_id, vocab.diagnoses[dx]])
    vocab.save(paths["vocabulary"])
    return paths


def check_records(records, n_labs: int) -> None:
    """Refuse the first record with a lab id outside [0, n_labs), negative or non-finite hours
    or a non-finite value with a ValueError naming the patient, before any event is binned."""
    for record in records:
        hours, lab = record.events["hours"], record.events["lab"]
        for bad, problem in (((lab < 0) | (lab >= n_labs), f"lab id outside vocabulary of size {n_labs}"),
                             (~np.isfinite(hours) | (hours < 0), "hours_before_end must be finite and >= 0"),
                             (~np.isfinite(record.events["value"]), "value must be finite")):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"patient {record.patient_id!r}: {problem} "
                                 f"(lab {lab[i]}, hours {hours[i]})")


@dataclass
class LabNormalizer:
    """Per-lab z-score statistics fitted on a training split."""

    mean: np.ndarray
    std: np.ndarray


def bin_events(records, window_hours: int,
               normalizer: LabNormalizer) -> tuple[np.ndarray, np.ndarray]:
    """Z-score a split's in-window events and bin them into hourly lab means.

    Returns (values, observed), both (n_records, window_hours, n_labs) with
    n_labs = len(normalizer.mean): values[p, h, i] is the mean of record p's
    lab-i events in hour bin h (h = 0 is the last hour before the endpoint),
    each z-scored as (value - mean[i]) / std[i], and 0.0 where unobserved;
    observed is the missingness mask. Events at or beyond window_hours are
    dropped. One bincount per record fills its slice of the two arrays, so
    no record is copied, and each cell sums its events in record order.
    Bad lab ids, hours or values raise ValueError naming the patient.
    """
    if window_hours < 1:
        raise ValueError("window_hours must be >= 1")
    n_labs = len(normalizer.mean)
    check_records(records, n_labs)
    size = window_hours * n_labs
    cells = len(records) * size
    values = np.frombuffer(mmap.mmap(-1, 8 * cells or 1, mmap.MAP_PRIVATE), np.float64, cells)
    observed = np.frombuffer(mmap.mmap(-1, cells or 1, mmap.MAP_PRIVATE), bool, cells)
    for record, cell_values, seen in zip(records, values.reshape(len(records), size),
                                         observed.reshape(len(records), size)):
        events = record.events[record.events["hours"] < window_hours]
        lab = events["lab"]
        cell = events["hours"].astype(np.int64) * n_labs + lab
        counts = np.bincount(cell, minlength=size)
        np.greater(counts, 0, out=seen)
        z = (events["value"] - normalizer.mean[lab]) / normalizer.std[lab]
        # a record with no events gets integer zeros from bincount; `out` keeps the floats
        np.divide(np.bincount(cell, weights=z, minlength=size), counts,
                  out=cell_values, where=seen)
    shape = (len(records), window_hours, n_labs)
    return values.reshape(shape), observed.reshape(shape)


def fit_normalizer(records, window_hours: int, n_labs: int) -> LabNormalizer:
    """Fit per-lab mean/std over in-window event values.

    Labs never observed in the split get mean 0, std 1; near-constant labs
    get std 1 to avoid blow-ups. Bad lab ids, hours or values raise as in bin_events.
    """
    check_records(records, n_labs)
    keep = [record.events["hours"] < window_hours for record in records]
    # only the two in-window columns, gathered in event order; no copy of the event table
    lab = np.concatenate([np.empty(0, np.int64)]
                         + [record.events["lab"][k] for record, k in zip(records, keep)])
    value = np.concatenate([np.empty(0)]
                           + [record.events["value"][k] for record, k in zip(records, keep)])
    sums = np.bincount(lab, weights=value, minlength=n_labs)
    sumsq = np.bincount(lab, weights=value * value, minlength=n_labs)
    counts = np.bincount(lab, minlength=n_labs)
    seen = counts > 0
    mean = np.where(seen, sums / np.maximum(counts, 1), 0.0)
    var = np.where(seen, sumsq / np.maximum(counts, 1) - mean * mean, 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    std[std < 1e-8] = 1.0
    return LabNormalizer(mean=mean, std=std)


def normalize_records(records, normalizer: LabNormalizer) -> list[PatientRecord]:
    """Copies of the records with every event value z-scored per lab.

    A reference only, called by no stage: bin_events of its copies under a
    unit normalizer must equal bin_events of the records (a test checks the
    bits). Bad lab ids, hours or values raise as in bin_events, before any lookup.
    """
    check_records(records, len(normalizer.mean))
    out = []
    for rec in records:
        events = rec.events.copy()
        lab = events["lab"]
        events["value"] = (events["value"] - normalizer.mean[lab]) / normalizer.std[lab]
        out.append(replace(rec, events=events, diagnoses=set(rec.diagnoses)))
    return out


# Fixed shape constants of the planted-signal scheme. Signal strength only
# gates how strongly the mortality label follows the latent risk; the data's
# dependence on the risk is structural so s=0 yields label-independent data.
_LABEL_GAIN = 3.0
_RISK_DIAGNOSIS_BASE = -1.2
_RISK_DIAGNOSIS_GAIN = 2.0
_PATIENT_OFFSET_SD = 0.5
_LAB_BASELINE_SD = 2.0
_RISK_LAB_FRACTION = 0.2
_RISK_DIAGNOSIS_FRACTION = 0.2
_BACKGROUND_DIAGNOSIS_RATE = 2.0  # expected non-risk diagnoses per patient
_HOUR_SKIP_PROB = 0.30
_LAB_OBS_PROB = 0.35
_DUPLICATE_EVENT_PROB = 0.10
_NOISE_SD = 1.0
_DRIFT_SCALE = 2.0
_OVERFLOW_HOURS = 2  # hours generated beyond the window, which binning drops


@dataclass(frozen=True)
class GenConfig:
    """Synthetic corpus shape and planted-signal strength."""

    n_patients: int
    n_labs: int
    n_diagnoses: int
    window_hours: int
    signal: float = 1.0
    prevalence: float = 0.3

    def __post_init__(self) -> None:
        for name in ("n_patients", "n_labs", "n_diagnoses", "window_hours"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.signal <= 1.0:
            raise ValueError(f"signal must lie in [0, 1], got {self.signal}")
        if not 0.0 < self.prevalence < 1.0:
            raise ValueError(f"prevalence must lie in (0, 1), got {self.prevalence}")

    @property
    def n_risk_labs(self) -> int:
        return max(1, round(self.n_labs * _RISK_LAB_FRACTION))

    @property
    def n_risk_diagnoses(self) -> int:
        return max(1, round(self.n_diagnoses * _RISK_DIAGNOSIS_FRACTION))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def synthetic_vocabulary(config: GenConfig) -> Vocabulary:
    return Vocabulary(
        labs=[f"lab_{i:03d}" for i in range(config.n_labs)],
        diagnoses=[f"dx_{i:04d}" for i in range(config.n_diagnoses)],
    )


def generate_synthetic(config: GenConfig, seed: int) -> list[PatientRecord]:
    """Generate a synthetic corpus with plantable mortality signal.

    Two-stage scheme: each patient draws a latent risk z, the data (risk
    diagnoses, drifting risk-lab trajectories) follow z, and the label
    follows z scaled by config.signal. Pure function of (config, seed).
    """
    rng = np.random.default_rng(seed)
    n_risk_labs = config.n_risk_labs
    n_risk_dx = config.n_risk_diagnoses
    base_logit = math.log(config.prevalence / (1.0 - config.prevalence))
    bg_rate = min(1.0, _BACKGROUND_DIAGNOSIS_RATE / max(1, config.n_diagnoses - n_risk_dx))
    lab_baseline = rng.normal(0.0, _LAB_BASELINE_SD, size=config.n_labs)
    total_hours = config.window_hours + _OVERFLOW_HOURS

    records = []
    for p in range(config.n_patients):
        pid = f"p{p:05d}"
        z = rng.normal()
        died = rng.random() < _sigmoid(base_logit + _LABEL_GAIN * config.signal * z)
        end_hour = config.window_hours + int(rng.integers(0, 24))

        diagnoses: set[int] = set()
        risk_draws = rng.random(n_risk_dx)
        p_risk = _sigmoid(_RISK_DIAGNOSIS_BASE + _RISK_DIAGNOSIS_GAIN * z)
        diagnoses.update(np.flatnonzero(risk_draws < p_risk).tolist())
        bg_draws = rng.random(config.n_diagnoses - n_risk_dx)
        diagnoses.update((n_risk_dx + np.flatnonzero(bg_draws < bg_rate)).tolist())

        offsets = rng.normal(0.0, _PATIENT_OFFSET_SD, size=config.n_labs)
        events = []
        for h in range(total_hours):
            if rng.random() < _HOUR_SKIP_PROB:
                continue
            toward_end = max(0.0, 1.0 - h / config.window_hours)
            observed = np.flatnonzero(rng.random(config.n_labs) < _LAB_OBS_PROB)
            for lab in observed.tolist():
                n_events = 2 if rng.random() < _DUPLICATE_EVENT_PROB else 1
                drift = _DRIFT_SCALE * z * toward_end if lab < n_risk_labs else 0.0
                for _ in range(n_events):
                    t = h + rng.random()
                    value = lab_baseline[lab] + offsets[lab] + drift + _NOISE_SD * rng.normal()
                    events.append((float(t), lab, float(value)))
        records.append(PatientRecord(pid, event_array(events), diagnoses, bool(died), end_hour))
    return records
