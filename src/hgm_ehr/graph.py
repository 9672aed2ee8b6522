"""Heterogeneous graph over patient-hour, lab and diagnosis nodes.

A patient-hour node is the (patient, hour) pair that indexes the first two
axes of bin_events' (values, observed) arrays, which the graph holds as
they are. Edges: tested (patient-hour -> lab observed that hour), stored as
the `observed` patient x hour x lab mask; diagnosed (patient -> diagnosis,
inherited by all of the patient's hour nodes), stored as the `diagnosed`
patient x diagnosis mask; and temporal (patient-hour at h -> same patient
at h-1, one hour closer to the endpoint), implied by the hour axis.
Patient-patient similarity is not materialized; it is realized at sampling
time as a two-hop walk through a shared diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class NodeType(Enum):
    PATIENT_HOUR = "patient_hour"
    LAB = "lab"
    DIAGNOSIS = "diagnosis"


@dataclass
class HeteroGraph:
    """Immutable after build; edges are read from `observed` and `diagnosed`, sizes from shapes."""

    values: np.ndarray     # (n_patients, window_hours, n_labs) hourly lab means
    observed: np.ndarray   # same shape, bool mask: the tested edges
    diagnosed: np.ndarray  # (n_patients, n_diagnoses) bool: the diagnosed edges

    n_patients = property(lambda self: self.values.shape[0])
    window_hours = property(lambda self: self.values.shape[1])
    n_labs = property(lambda self: self.values.shape[2])
    n_diagnoses = property(lambda self: self.diagnosed.shape[1])


def check_diagnoses(records, n_diagnoses: int) -> None:
    """Refuse the first record with a diagnosis id outside [0, n_diagnoses), naming its patient."""
    for record in records:
        for dx in record.diagnoses:
            if not 0 <= dx < n_diagnoses:
                raise ValueError(f"patient {record.patient_id!r}: diagnosis id {dx} "
                                 f"outside vocabulary of size {n_diagnoses}")


def build_graph(records, vocab, binned) -> HeteroGraph:
    """Materialize the graph of records from their binned (values, observed) pair.

    `binned` is bin_events(records, window_hours, normalizer), the records'
    z-scored hourly means and mask; the graph holds its two arrays, not copies.
    """
    values, observed = binned
    n, _, n_labs = values.shape
    if n != len(records) or n_labs != vocab.n_labs:
        raise ValueError(f"binned shape {values.shape} does not match {len(records)} records "
                         f"and {vocab.n_labs} labs")
    check_diagnoses(records, vocab.n_diagnoses)
    diagnosed = np.zeros((n, vocab.n_diagnoses), dtype=bool)
    for p, rec in enumerate(records):
        diagnosed[p, list(rec.diagnoses)] = True

    return HeteroGraph(values, observed, diagnosed)
