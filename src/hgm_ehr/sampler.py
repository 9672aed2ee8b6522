"""Skip-gram context sampling around patient-hour centers, each a (p, h) pair.

Positives: uniform with-replacement draws from the center's one-hop
diagnosis and lab neighborhoods, co-patients reached through a sampled
shared diagnosis, and the temporal next node when it exists. Negatives:
uniform draws from same-type nodes with no one-hop connection to the
center (for patient-hour negatives: hour nodes of patients sharing no
diagnosis with the center's patient).

Every pool is a sorted index array read from a row of the graph on each
call: the nonzero indices of patient p's graph.diagnosed[p], of center
(p, h)'s graph.observed[p, h], or of either's complement; the non-sharing
patients are the complement of those carrying one of p's diagnoses, p among
them. Beyond the graph the sampler keeps only each diagnosis's sorted carrier
list and its size. A context is drawn with one bounded-integer draw for all
its diagnosis and lab positives, one per co-patient step (diagnosis, carrier,
hour; the carrier bound depends on the diagnosis) and one for all its
negatives. `Generator.integers` with an array of bounds consumes the bit
stream exactly like the same bounds drawn one call at a time, and a bound of
1 consumes nothing, so the samples are those of drawing each positive and
each negative block separately (tests/test_sampler.py pins both).

A context holds its terms as arrays, one (index, target) pair per relation
in the order tested, diagnosed, co-patient, temporal: each positive's
target-1 term is followed by the target-0 terms of its negatives. Lab and
diagnosis terms index their vocabularies; patient-hour terms are (patient,
hour) rows, which index graph.values. The sampler writes each relation's
indices straight into an (n, 1 + k) grid, n positives by one positive and k
negatives (k is 0 when the negative pool is empty); the grid's rows
flattened are the terms. The co-patient and temporal grids are the two parts
of one patient-hour grid. Targets depend only on (n, k), so every context
with the same counts shares one cached, read-only target vector. A center is
a (patient, hour) pair of ints; the NodeId tuples of a context's pos_*/neg_*
fields are read-only views built from its arrays on first access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import HeteroGraph, NodeId, NodeType


class UntrainableCenterError(ValueError):
    """Center has neither diagnoses nor observed labs to learn from."""


@dataclass(frozen=True)
class SamplerConfig:
    n_diagnoses: int = 10
    n_labs: int = 10
    n_copatients: int = 10
    negatives_per_positive: int = 5

    def __post_init__(self) -> None:
        if min(self.n_diagnoses, self.n_labs, self.n_copatients, self.negatives_per_positive) < 1:
            raise ValueError("all sampler counts must be >= 1")


class Terms(NamedTuple):
    """One relation's terms: node indices and their 1.0/0.0 targets."""

    index: np.ndarray   # (n,) lab or diagnosis ids, or (n, 2) (patient, hour) rows
    target: np.ndarray  # (n,) float


# Node type of each relation's terms, in term order.
_TERM_TYPES = (NodeType.LAB, NodeType.DIAGNOSIS, NodeType.PATIENT_HOUR, NodeType.PATIENT_HOUR)


@functools.lru_cache(maxsize=64)
def _targets(n: int, k: int) -> np.ndarray:
    """Read-only targets of n positives with k negatives each: 1.0 then k 0.0s per positive."""
    target = np.tile(np.r_[1.0, np.zeros(k)], n)
    target.flags.writeable = False
    return target


def _nodes_from_terms(terms: Terms, node_type: NodeType):
    """(positives, negative groups) as NodeId tuples."""
    if node_type is NodeType.PATIENT_HOUR:
        nodes = [NodeId(node_type, tuple(pair)) for pair in terms.index.tolist()]
    else:
        nodes = [NodeId(node_type, i) for i in terms.index.tolist()]
    starts = np.flatnonzero(terms.target == 1.0).tolist()
    ends = starts[1:] + [len(nodes)]
    return (tuple(nodes[s] for s in starts),
            tuple(tuple(nodes[s + 1:e]) for s, e in zip(starts, ends)))


class ContextSample:
    """One skip-gram context around the patient-hour center (p, h).

    `terms` holds the context as (tested, diagnosed, co-patient, temporal)
    Terms; the NodeId fields are read-only views of them, built on first
    access.
    """

    def __init__(self, center: tuple[int, int], terms):
        self.center = center
        self.terms = tuple(terms)
        self._views = None

    def _view(self, relation: int):
        if self._views is None:
            self._views = tuple(_nodes_from_terms(t, node_type)
                                for t, node_type in zip(self.terms, _TERM_TYPES))
        return self._views[relation]

    pos_labs = property(lambda self: self._view(0)[0])
    neg_labs = property(lambda self: self._view(0)[1])
    pos_diagnoses = property(lambda self: self._view(1)[0])
    neg_diagnoses = property(lambda self: self._view(1)[1])
    pos_patients = property(lambda self: self._view(2)[0])
    neg_patients = property(lambda self: self._view(2)[1])
    pos_temporal = property(lambda self: next(iter(self._view(3)[0]), None))
    neg_temporal = property(lambda self: next(iter(self._view(3)[1]), ()))

    def n_positives(self) -> int:
        return sum(int(np.count_nonzero(t.target == 1.0)) for t in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContextSample):
            return NotImplemented
        return self.center == other.center and all(
            np.array_equal(a.index, b.index) and np.array_equal(a.target, b.target)
            for a, b in zip(self.terms, other.terms))

    def __repr__(self) -> str:
        return f"ContextSample(center={self.center}, terms={self.terms})"


class Sampler:
    """Seeded context sampler; one instance per worker, graph is read-only."""

    def __init__(self, graph: HeteroGraph, config: SamplerConfig, seed: int):
        self.graph = graph
        self.config = config
        self.rng = np.random.default_rng(seed)
        self._carriers = [np.flatnonzero(column).tolist() for column in graph.diagnosed.T]
        self._n_carriers = graph.diagnosed.sum(axis=0)

    def _pools(self, p: int, h: int):
        """Center (p, h)'s pools: (diagnoses, labs), then negatives (diagnoses, labs, patients)."""
        dx, labs = self.graph.diagnosed[p], self.graph.observed[p, h]
        sharing = self.graph.diagnosed[:, dx].any(axis=1)
        sharing[p] = True
        return ((dx.nonzero()[0], labs.nonzero()[0]),
                ((~dx).nonzero()[0], (~labs).nonzero()[0], (~sharing).nonzero()[0]))

    def sample_negatives(self, p: int, h: int, node_type: NodeType, count: int) -> np.ndarray:
        """Uniform with-replacement draws from center (p, h)'s non-neighbors:
        indices, or (count, 2) (patient, hour) rows for patient-hour negatives."""
        _, (dx_pool, lab_pool, patient_pool) = self._pools(p, h)
        pool = {NodeType.DIAGNOSIS: dx_pool, NodeType.LAB: lab_pool,
                NodeType.PATIENT_HOUR: patient_pool}[node_type]
        if pool.size == 0:
            raise ValueError(f"empty negative pool for type {node_type.value}")
        if node_type is NodeType.PATIENT_HOUR:
            draws = self.rng.integers(0, np.repeat((pool.size, self.graph.window_hours), count))
            return np.column_stack((pool[draws[:count]], draws[count:]))
        return pool[self.rng.integers(0, pool.size, size=count)]

    def sample_context(self, p: int, h: int) -> ContextSample:
        """Draw one full skip-gram context around the patient-hour center (p, h)."""
        cfg = self.config
        integers = self.rng.integers
        window = self.graph.window_hours
        (dx_pool, lab_pool), (dx_neg, lab_neg, patient_neg) = self._pools(p, h)
        if dx_pool.size == 0 and lab_pool.size == 0:
            raise UntrainableCenterError(
                f"patient-hour ({p}, {h}) has no diagnoses and no observed labs"
            )

        # Each relation's terms are rows of one positive then its k negatives
        # (none when the negative pool is empty), filled in place.
        k = cfg.negatives_per_positive
        n_dx = cfg.n_diagnoses if dx_pool.size else 0
        n_lab = cfg.n_labs if lab_pool.size else 0
        k_dx = k if dx_neg.size else 0
        k_lab = k if lab_neg.size else 0
        k_ph = k if patient_neg.size else 0
        dx_rows = np.empty((n_dx, 1 + k_dx), dtype=np.int64)
        lab_rows = np.empty((n_lab, 1 + k_lab), dtype=np.int64)
        draws = integers(0, [dx_pool.size] * n_dx + [lab_pool.size] * n_lab)
        pos_diagnoses = dx_pool[draws[:n_dx]]
        dx_rows[:, 0] = pos_diagnoses
        lab_rows[:, 0] = lab_pool[draws[n_dx:]]

        # Co-patients: re-draw a sampled diagnosis, then a uniform hour node of
        # another patient carrying it. Diagnoses whose only carrier is the
        # center's patient cannot produce one and are skipped. The carrier
        # bound depends on the diagnosis drawn, so these draws go one by one.
        # Patient-hour rows are the co-patients, then the temporal node (p, h - 1).
        eligible = pos_diagnoses[self._n_carriers[pos_diagnoses] > 1].tolist()
        n_cp = cfg.n_copatients if eligible else 0
        n_ph = n_cp + (h > 0)
        hour_rows = np.empty((n_ph, 1 + k_ph, 2), dtype=np.int64)
        for i in range(n_cp):
            carriers = self._carriers[eligible[integers(0, len(eligible))]]
            pick = int(integers(0, len(carriers) - 1))  # among carriers other than p
            hour_rows[i, 0, 0] = carriers[pick] if carriers[pick] < p else carriers[pick + 1]
            hour_rows[i, 0, 1] = integers(0, window)
        if h > 0:
            hour_rows[n_cp, 0] = p, h - 1

        # Negatives: k per positive, patient-hours as k patients then k hours.
        bounds = (dx_neg.size, lab_neg.size) + (patient_neg.size, window) * n_ph
        draws = integers(0, np.repeat(bounds, (k_dx * n_dx, k_lab * n_lab) + (k_ph, k_ph) * n_ph))
        offset = k_dx * n_dx + k_lab * n_lab
        dx_rows[:, 1:] = dx_neg[draws[:k_dx * n_dx]].reshape(n_dx, k_dx)
        lab_rows[:, 1:] = lab_neg[draws[k_dx * n_dx:offset]].reshape(n_lab, k_lab)
        blocks = draws[offset:].reshape(n_ph, 2, k_ph)
        hour_rows[:, 1:, 0] = patient_neg[blocks[:, 0]]
        hour_rows[:, 1:, 1] = blocks[:, 1]

        return ContextSample((p, h), (
            Terms(lab_rows.reshape(-1), _targets(n_lab, k_lab)),
            Terms(dx_rows.reshape(-1), _targets(n_dx, k_dx)),
            Terms(hour_rows[:n_cp].reshape(-1, 2), _targets(n_cp, k_ph)),
            Terms(hour_rows[n_cp:].reshape(-1, 2), _targets(n_ph - n_cp, k_ph)),
        ))
