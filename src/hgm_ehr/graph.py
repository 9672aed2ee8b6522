"""Heterogeneous graph over patient-hour, lab and diagnosis nodes.

Edges: tested (patient-hour -> lab observed that hour), stored as the
`observed` mask with one row per patient-hour, `patient * window_hours +
hour`; diagnosed (patient -> diagnosis, inherited by all of the patient's
hour nodes), stored as the `diagnosed` patient x diagnosis mask; and
temporal (patient-hour at h -> same patient at h-1, one hour closer to the
endpoint), implied by the row layout. Patient-patient similarity is not
materialized; it is realized at sampling time as a two-hop walk through a
shared diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class NodeType(Enum):
    PATIENT_HOUR = "patient_hour"
    LAB = "lab"
    DIAGNOSIS = "diagnosis"


class NodeId(NamedTuple):
    type: NodeType
    index: "int | tuple[int, int]"


@dataclass
class HeteroGraph:
    """Immutable after build; edges are read from `observed` and `diagnosed`."""

    window_hours: int
    n_labs: int
    n_diagnoses: int
    patient_ids: list[str]
    xp: np.ndarray         # (n_patients * window_hours, n_labs) hourly lab means
    observed: np.ndarray   # same shape, bool mask: the tested edges
    diagnosed: np.ndarray  # (n_patients, n_diagnoses) bool: the diagnosed edges

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    def ph_row(self, patient: int, hour: int) -> int:
        return patient * self.window_hours + hour

    def x_patient_hour(self, patient: int, hour: int) -> np.ndarray:
        return self.xp[self.ph_row(patient, hour)]

    def patient_hours(self):
        for p in range(self.n_patients):
            for h in range(self.window_hours):
                yield (p, h)


def build_graph(records, vocab, binned) -> HeteroGraph:
    """Materialize the graph of records from their binned (values, observed) pair.

    `binned` is bin_events(records, window_hours, vocab.n_labs); `xp` and
    `observed` are reshapes of it, not copies.
    """
    values, observed = binned
    n, window_hours, n_labs = values.shape
    if n != len(records) or n_labs != vocab.n_labs:
        raise ValueError(f"binned shape {values.shape} does not match {len(records)} records "
                         f"and {vocab.n_labs} labs")
    diagnosed = np.zeros((n, vocab.n_diagnoses), dtype=bool)
    for p, rec in enumerate(records):
        for dx in rec.diagnoses:
            if not 0 <= dx < vocab.n_diagnoses:
                raise ValueError(f"diagnosis id {dx} outside vocabulary of size {vocab.n_diagnoses}")
        diagnosed[p, list(rec.diagnoses)] = True

    return HeteroGraph(
        window_hours=window_hours,
        n_labs=n_labs,
        n_diagnoses=vocab.n_diagnoses,
        patient_ids=[rec.patient_id for rec in records],
        xp=values.reshape(n * window_hours, n_labs),
        observed=observed.reshape(n * window_hours, n_labs),
        diagnosed=diagnosed,
    )


def neighbors(graph: HeteroGraph, node: NodeId, target_type: NodeType) -> list[NodeId]:
    """One-hop neighbors of the requested type, sorted and deduplicated.

    Patient-hour to patient-hour neighborhoods are the hour nodes of other
    patients sharing at least one diagnosis, plus the temporal next node.
    Each is read as a boolean mask over the target type's nodes, in row order.
    """
    window = graph.window_hours
    mask = np.zeros(0, dtype=bool)
    if node.type is NodeType.PATIENT_HOUR:
        p, h = node.index
        if target_type is NodeType.LAB:
            mask = graph.observed[graph.ph_row(p, h)]
        elif target_type is NodeType.DIAGNOSIS:
            mask = graph.diagnosed[p]
        else:
            sharing = graph.diagnosed[:, graph.diagnosed[p]].any(axis=1)
            sharing[p] = False
            mask = np.repeat(sharing, window)
            if h > 0:
                mask[graph.ph_row(p, h - 1)] = True
    elif target_type is NodeType.PATIENT_HOUR:
        if node.type is NodeType.LAB:
            mask = graph.observed[:, node.index]
        else:
            mask = np.repeat(graph.diagnosed[:, node.index], window)
    indices = np.flatnonzero(mask).tolist()
    if target_type is NodeType.PATIENT_HOUR:
        indices = [divmod(row, window) for row in indices]
    return [NodeId(target_type, i) for i in indices]


def all_nodes(graph: HeteroGraph) -> list[NodeId]:
    nodes = [NodeId(NodeType.PATIENT_HOUR, (p, h)) for p, h in graph.patient_hours()]
    nodes += [NodeId(NodeType.LAB, i) for i in range(graph.n_labs)]
    nodes += [NodeId(NodeType.DIAGNOSIS, j) for j in range(graph.n_diagnoses)]
    return nodes
