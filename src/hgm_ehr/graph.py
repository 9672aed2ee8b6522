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
    """Immutable after build; edges are read from `observed` and `diagnosed`, sizes from shapes."""

    values: np.ndarray     # (n_patients, window_hours, n_labs) hourly lab means
    observed: np.ndarray   # same shape, bool mask: the tested edges
    diagnosed: np.ndarray  # (n_patients, n_diagnoses) bool: the diagnosed edges

    n_patients = property(lambda self: self.values.shape[0])
    window_hours = property(lambda self: self.values.shape[1])
    n_labs = property(lambda self: self.values.shape[2])
    n_diagnoses = property(lambda self: self.diagnosed.shape[1])

    def patient_hours(self):
        return np.ndindex(self.n_patients, self.window_hours)


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
    diagnosed = np.zeros((n, vocab.n_diagnoses), dtype=bool)
    for p, rec in enumerate(records):
        for dx in rec.diagnoses:
            if not 0 <= dx < vocab.n_diagnoses:
                raise ValueError(f"diagnosis id {dx} outside vocabulary of size {vocab.n_diagnoses}")
        diagnosed[p, list(rec.diagnoses)] = True

    return HeteroGraph(values, observed, diagnosed)


def neighbors(graph: HeteroGraph, node: NodeId, target_type: NodeType) -> list[NodeId]:
    """One-hop neighbors of the requested type, sorted and deduplicated.

    Patient-hour to patient-hour neighborhoods are the hour nodes of other
    patients sharing at least one diagnosis, plus the temporal next node.
    Each is read as a boolean mask over the target type's nodes: a
    (patient, hour) mask for patient-hours.
    """
    window = graph.window_hours
    mask = np.zeros(0, dtype=bool)
    if node.type is NodeType.PATIENT_HOUR:
        p, h = node.index
        if target_type is NodeType.LAB:
            mask = graph.observed[p, h]
        elif target_type is NodeType.DIAGNOSIS:
            mask = graph.diagnosed[p]
        else:
            sharing = graph.diagnosed[:, graph.diagnosed[p]].any(axis=1)
            sharing[p] = False
            mask = np.repeat(sharing[:, None], window, axis=1)
            if h > 0:
                mask[p, h - 1] = True
    elif target_type is NodeType.PATIENT_HOUR:
        if node.type is NodeType.LAB:
            mask = graph.observed[:, :, node.index]
        else:
            mask = np.repeat(graph.diagnosed[:, node.index, None], window, axis=1)
    return [NodeId(target_type, tuple(i) if mask.ndim == 2 else i[0])
            for i in np.argwhere(mask).tolist()]


def all_nodes(graph: HeteroGraph) -> list[NodeId]:
    nodes = [NodeId(NodeType.PATIENT_HOUR, (p, h)) for p, h in graph.patient_hours()]
    nodes += [NodeId(NodeType.LAB, i) for i in range(graph.n_labs)]
    nodes += [NodeId(NodeType.DIAGNOSIS, j) for j in range(graph.n_diagnoses)]
    return nodes
