"""Skip-gram context sampling around patient-hour centers, each a (p, h) pair.

Positives: uniform with-replacement draws from the center's one-hop
diagnosis and lab neighborhoods, co-patients reached through a sampled
shared diagnosis, and the temporal next node when it exists. Negatives:
uniform draws from same-type nodes with no one-hop connection to the
center (for patient-hour negatives: hour nodes of patients sharing no
diagnosis with the center's patient).

The Sampler draws contexts a chunk of centers at a time. `plan(centers)`
queues a visit order; `sample_context(p, h)` hands out the next planned
center's context and draws the next CHUNK planned centers when the current
chunk is used up, or with nothing planned a chunk of (p, h) alone. A chunk is
drawn in five Generator.integers calls over all its contexts, each over an
array of bounds known before the call (`_draw`), so a context's draws depend
on the other centers of its chunk: on CHUNK and on how the plan falls into
chunks. The chunk draw is the one path that draws contexts;
`sample_negatives` draws one node type's negatives of a center on the same
generator, outside any plan.

Pools are sorted tables built per chunk from rows of the graph: a center's
diagnoses then the others, its tested labs then the others, and the
patients sharing no diagnosis with each of the chunk's distinct patients,
found against all P patients a block at a time, never P x P (`_non_sharing`,
which also builds `sample_negatives`' patient pool). Beyond the graph the
sampler keeps each diagnosis's sorted carriers and their count.

A context's terms come in the order tested, diagnosed, co-patient,
temporal: each positive's target-1 term is followed by the target-0 terms
of its negatives. A chunk writes each relation's node indices into an
(n, 1 + k) grid per center, n positives by one positive and k negatives
(k is 0 when the negative pool is empty); the co-patient and temporal grids
are the two parts of one patient-hour grid. A handed-out ContextSample
carries its terms in the form the training step reads them, with no
per-relation object: `columns`, its lab then diagnosis terms as columns of
the stacked [W_i | W_d] (diagnosis j is column n_labs + j); `rows`, its
co-patient then temporal terms as rows p * window + h of graph.values
viewed as (patients * window, labs); `target`, every term's target; and
`sizes`, the four relations' term counts. A chunk derives these for all its
contexts at once, each array flattened from the grids' valid entries once
and sliced per context into read-only views, so per-chunk arrays stay
CHUNK contexts' terms and no context owns a copy (tests/oracles.py's
`context_from_terms` builds a context from four Terms by the same code). A
center is a (patient, hour) pair of ints; a context's `terms` (one Terms of
vocabulary ids or (patient, hour) pairs per relation) are read-only views
built from its arrays on first access, and its neg_* fields slice them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import HeteroGraph, NodeType

# Centers drawn at a time: a chunk's draws are five integers calls over grids
# of CHUNK rows, 260 draws a context in all at the default counts.
CHUNK = 256


class UntrainableCenterError(ValueError):
    """Center has neither diagnoses nor observed labs to learn from."""


@dataclass(frozen=True)
class SamplerConfig:
    n_diagnoses: int = 10
    n_labs: int = 10
    n_copatients: int = 10
    negatives_per_positive: int = 5

    def __post_init__(self) -> None:
        for name in ("n_diagnoses", "n_labs", "n_copatients", "negatives_per_positive"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class Terms(NamedTuple):
    """One relation's terms: node indices and their 1.0/0.0 targets."""

    index: np.ndarray   # (n,) lab or diagnosis ids, or (n, 2) (patient, hour) rows
    target: np.ndarray  # (n,) float


@functools.lru_cache(maxsize=64)
def _targets(n: int, k: int) -> np.ndarray:
    """Read-only targets of n positives with k negatives each: 1.0 then k 0.0s per positive."""
    target = np.tile(np.r_[1.0, np.zeros(k)], n)
    target.flags.writeable = False
    return target


def _negative_groups(terms: Terms) -> tuple:
    """Per positive, in term order, the indices of its negatives: slices of terms.index."""
    starts = np.flatnonzero(terms.target == 1.0).tolist()
    return tuple(terms.index[s + 1:e] for s, e in zip(starts, starts[1:] + [len(terms.index)]))


class ContextSample:
    """One skip-gram context around the patient-hour center (p, h), in the arrays
    the training step reads:

    - `columns`: the tested then the diagnosed terms, as columns of the stacked
      [W_i | W_d]: lab i is column i, diagnosis j column n_labs + j;
    - `rows`: the co-patient then the temporal terms, as rows p * window + h of
      graph.values viewed as (patients * window, n_labs);
    - `target`: every term's 1.0/0.0 target, tested, diagnosed, co-patient, temporal;
    - `sizes`: the four relations' term counts.

    The arrays are read-only. `terms`, one Terms per relation in vocabulary ids
    and (patient, hour) pairs, is built from them on first access; each neg_*
    field holds, per positive, the indices of its negatives as slices of `terms`
    (neg_temporal the temporal positive's alone, or () without one).
    """

    __slots__ = ("center", "columns", "rows", "target", "sizes", "n_labs", "window", "_terms")

    def __init__(self, center: tuple[int, int], columns: np.ndarray, rows: np.ndarray,
                 target: np.ndarray, sizes: tuple[int, int, int, int], n_labs: int, window: int):
        self.center = center
        self.columns = columns
        self.rows = rows
        self.target = target
        self.sizes = sizes
        self.n_labs = n_labs
        self.window = window
        self._terms = None

    @property
    def terms(self) -> tuple:
        """(tested, diagnosed, co-patient, temporal) Terms."""
        if self._terms is None:
            labs, dx, copatients, _ = self.sizes
            ids, hours = labs + dx, labs + dx + copatients
            y = self.target
            pairs = np.stack(np.divmod(self.rows, self.window), axis=1)
            self._terms = (Terms(self.columns[:labs], y[:labs]),
                           Terms(self.columns[labs:] - self.n_labs, y[labs:ids]),
                           Terms(pairs[:copatients], y[ids:hours]),
                           Terms(pairs[copatients:], y[hours:]))
        return self._terms

    neg_labs = property(lambda self: _negative_groups(self.terms[0]))
    neg_diagnoses = property(lambda self: _negative_groups(self.terms[1]))
    neg_patients = property(lambda self: _negative_groups(self.terms[2]))
    neg_temporal = property(lambda self: next(iter(_negative_groups(self.terms[3])), ()))

    def n_positives(self) -> int:
        return int(np.count_nonzero(self.target == 1.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContextSample):
            return NotImplemented
        return ((self.center, self.sizes, self.n_labs, self.window)
                == (other.center, other.sizes, other.n_labs, other.window)
                and np.array_equal(self.columns, other.columns)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.target, other.target))

    def __repr__(self) -> str:
        return f"ContextSample(center={self.center}, terms={self.terms})"


def _flatten(grids, valid, counts) -> list:
    """Per row, the valid entries of the grids side by side: the grids' (n, m_i)
    entries, or one (1, m_i) row shared by all n, under their (n, m_i) masks,
    flattened once and split into n read-only views of `counts` entries."""
    mask = np.concatenate(valid, axis=1)
    flat = np.broadcast_to(np.concatenate(grids, axis=1), mask.shape)[mask]
    flat.flags.writeable = False
    ends = np.cumsum(counts).tolist()
    return [flat[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _contexts(centers, relations, trainable, n_labs: int, window: int) -> list:
    """ContextSamples of n centers, None for an untrainable one. Each of the four
    relations is an (index, target, valid) triple of grids with one row per center,
    its index in vocabulary ids or (patient, hour) pairs; a context takes its rows'
    valid entries. Columns and rows are derived for all n contexts at once."""
    (labs, _, _), (dx, _, _), (copatients, _, _), (temporal, _, _) = relations
    valid = [v for _, _, v in relations]
    sizes = np.stack([v.sum(axis=1) for v in valid], axis=1)
    columns = _flatten([labs, dx + n_labs], valid[:2], sizes[:, :2].sum(axis=1))
    rows = _flatten([copatients[..., 0] * window + copatients[..., 1],
                     temporal[..., 0] * window + temporal[..., 1]], valid[2:],
                    sizes[:, 2:].sum(axis=1))
    target = _flatten([t for _, t, _ in relations], valid, sizes.sum(axis=1))
    return [ContextSample(tuple(center), c, r, t, tuple(size), n_labs, window) if ok else None
            for center, ok, size, c, r, t in zip(np.asarray(centers).tolist(),
                                                 np.asarray(trainable).tolist(), sizes.tolist(),
                                                 columns, rows, target)]


def _member_order(mask: np.ndarray) -> np.ndarray:
    """Each row's column indices: its set columns, then its clear ones, then one
    padding column past the last, each in order."""
    key = np.ones((len(mask), mask.shape[1] + 1), dtype=bool)
    np.logical_not(mask, out=key[:, :-1])
    return np.argsort(key, axis=1, kind="stable")


def _grid(grid: np.ndarray, positives: np.ndarray, negatives: np.ndarray):
    """One relation's (index, target, valid) grids of n centers from its (n, N, 1 + K, ...)
    grid, the target one row that all n share: each center's first `positives` rows,
    each a positive and its first `negatives` negatives, are valid."""
    n, rows, width = grid.shape[:3]
    valid = ((np.arange(rows) < positives[:, None])[:, :, None]
             & (np.arange(width) <= negatives[:, None])[:, None, :])
    return (grid.reshape(n, rows * width, *grid.shape[3:]),
            _targets(rows, width - 1)[None], valid.reshape(n, -1))


class Sampler:
    """Seeded context sampler; one instance per worker, graph is read-only."""

    def __init__(self, graph: HeteroGraph, config: SamplerConfig, seed: int):
        self.graph = graph
        self.config = config
        self.rng = np.random.default_rng(seed)
        # Per diagnosis, and a padding one past the vocabulary that no one carries:
        # its carrier count and where its carriers start in one sorted list, which
        # ends in a padding 0. Slots a context does not take read the padding.
        self._n_carriers = np.r_[graph.diagnosed.sum(axis=0), 0]
        self._carriers = np.r_[np.nonzero(graph.diagnosed.T)[1], 0]
        self._first_carrier = np.cumsum(self._n_carriers) - self._n_carriers
        self._diagnosed = graph.diagnosed.astype(np.float32)
        self._planned = np.zeros((0, 2), dtype=np.int64)
        self._centers, self._contexts = [], []

    def plan(self, centers) -> None:
        """Queue (p, h) centers after any still queued: sample_context hands out
        their contexts in this order, drawn CHUNK centers at a time."""
        centers = np.asarray(centers, dtype=np.int64).reshape(-1, 2)
        self._planned = np.concatenate((self._planned, centers))

    def sample_negatives(self, p: int, h: int, node_type: NodeType, count: int) -> np.ndarray:
        """Uniform with-replacement draws from center (p, h)'s non-neighbors:
        indices, or (count, 2) (patient, hour) rows for patient-hour negatives."""
        if node_type is NodeType.PATIENT_HOUR:
            pool = self._non_sharing(np.array([p]))[1][:-1]
        else:
            pool = np.flatnonzero(~{NodeType.DIAGNOSIS: self.graph.diagnosed[p],
                                    NodeType.LAB: self.graph.observed[p, h]}[node_type])
        if pool.size == 0:
            raise ValueError(f"empty negative pool for type {node_type.value}")
        if node_type is NodeType.PATIENT_HOUR:
            draws = self.rng.integers(0, np.repeat((pool.size, self.graph.window_hours), count))
            return np.column_stack((pool[draws[:count]], draws[count:]))
        return pool[self.rng.integers(0, pool.size, size=count)]

    def sample_context(self, p: int, h: int) -> ContextSample:
        """The skip-gram context around the patient-hour center (p, h): the next
        planned center's, or with nothing planned a chunk of (p, h) alone."""
        if not self._contexts:
            if not len(self._planned):
                self._planned = np.array([[p, h]])
            chunk, self._planned = self._planned[:CHUNK], self._planned[CHUNK:]
            # the chunk's draw arrays are freed before its contexts are built
            self._contexts = _contexts(chunk, *self._draw(chunk), self.graph.n_labs,
                                       self.graph.window_hours)[::-1]
            self._centers = chunk[::-1].tolist()
        if self._centers[-1] != [p, h]:
            raise ValueError(f"center ({p}, {h}) is not the next planned one, "
                             f"({self._centers[-1][0]}, {self._centers[-1][1]})")
        self._centers.pop()
        context = self._contexts.pop()
        if context is None:
            raise UntrainableCenterError(
                f"patient-hour ({p}, {h}) has no diagnoses and no observed labs"
            )
        return context

    def _non_sharing(self, patients: np.ndarray):
        """(sizes, table): each patient's non-sharing patients, sorted, one patient's
        after the other, then a padding 0. Found 64 patients by every patient at a
        time: never P x P."""
        sizes, parts = [], []
        for block in np.array_split(patients, -(-len(patients) // 64)):
            non_sharing = (self._diagnosed[block] @ self._diagnosed.T) == 0
            non_sharing[np.arange(len(block)), block] = False
            sizes.append(non_sharing.sum(axis=1))
            offsets = np.repeat(np.arange(len(block)) * self.graph.n_patients, sizes[-1])
            parts.append((np.flatnonzero(non_sharing) - offsets).astype(np.int32))
        return np.concatenate(sizes), np.concatenate(parts + [np.zeros(1, np.int32)])

    def _draw(self, centers: np.ndarray) -> tuple:
        """(relations, trainable) of an (n, 2) array of centers, as `_contexts` takes them.

        The chunk is drawn in five integers calls over all n contexts, each over
        an (n, m) grid of bounds known before the call:
        1. each context's n_diagnoses then n_labs positives;
        2. its n_copatients picks among its eligible positive diagnoses, those
           carried by a patient other than p (bound: their number);
        3. a carrier of each picked diagnosis other than p (bound: its carriers - 1);
        4. each co-patient's hour (bound: window);
        5. the negatives, k per positive: diagnoses, labs, then patient-hour
           rows as k patients then k hours for each co-patient and the temporal
           node.
        An absent slot or an empty pool has bound 1: it draws 0 and takes no word.
        A context's draws thus depend on the other centers of its chunk: on CHUNK
        and on how the plan falls into chunks.
        """
        cfg, graph = self.config, self.graph
        n_dx, n_lab, n_cp, k = (cfg.n_diagnoses, cfg.n_labs, cfg.n_copatients,
                                cfg.negatives_per_positive)
        n_diagnoses, n_labs, window = graph.n_diagnoses, graph.n_labs, graph.window_hours
        integers = self.rng.integers
        p, h = centers[:, 0], centers[:, 1]
        n = len(p)

        # Pools as sorted tables: a row's members, then its negatives, then the
        # padding diagnosis or lab.
        patients, row = np.unique(p, return_inverse=True)
        diagnosed = graph.diagnosed[patients]
        tested = graph.observed[p, h]
        dx_table, lab_table = _member_order(diagnosed)[row], _member_order(tested)
        dx_size = diagnosed.sum(axis=1)[row]
        lab_size = tested.sum(axis=1)
        patient_size, patient_table = self._non_sharing(patients)
        patient_first = (np.cumsum(patient_size) - patient_size)[row]
        patient_size = patient_size[row]
        has_dx, has_lab = dx_size > 0, lab_size > 0
        trainable = has_dx | has_lab

        # Positives (phase 1).
        positives = integers(0, np.repeat(np.stack((np.maximum(dx_size, 1),
                                                    np.maximum(lab_size, 1)), axis=1),
                                          (n_dx, n_lab), axis=1))
        pos_dx = np.take_along_axis(dx_table, positives[:, :n_dx], axis=1)

        # Co-patient steps (phases 2-4): an eligible positive diagnosis, a carrier
        # other than p, an hour.
        eligible = has_dx[:, None] & (self._n_carriers[pos_dx] > 1)
        n_eligible = eligible.sum(axis=1)
        copatients = n_eligible > 0
        on = copatients[:, None]
        pick = integers(0, np.repeat(np.maximum(n_eligible, 1)[:, None], n_cp, axis=1))
        dx = np.take_along_axis(
            pos_dx, np.take_along_axis(np.argsort(~eligible, axis=1, kind="stable"), pick, axis=1),
            axis=1)
        at = self._first_carrier[dx] + integers(0, np.where(on, self._n_carriers[dx] - 1, 1))
        hours = integers(0, np.repeat(np.where(on, window, 1), n_cp, axis=1))
        carrier = self._carriers.take(at, mode="clip")
        carrier = np.where(carrier < p[:, None], carrier, self._carriers.take(at + 1, mode="clip"))

        # Negatives (phase 5). A patient-hour negative's (patient, hour) bounds, in
        # the co-patient and temporal rows that are drawn.
        pair = np.where((patient_size > 0)[:, None],
                        np.stack((patient_size, np.full(n, window)), axis=1), 1)
        drawn = np.concatenate((np.repeat(on, n_cp, axis=1), (trainable & (h > 0))[:, None]),
                               axis=1)
        negatives = integers(0, np.repeat(np.concatenate((
            np.where(has_dx & (dx_size < n_diagnoses), n_diagnoses - dx_size, 1)[:, None],
            np.where(has_lab & (lab_size < n_labs), n_labs - lab_size, 1)[:, None],
            np.where(drawn[..., None], pair[:, None], 1).reshape(n, -1)), axis=1),
            [k * n_dx, k * n_lab] + [k] * 2 * (n_cp + 1), axis=1))
        dx_negatives, lab_negatives, ph_negatives = np.split(
            negatives, [k * n_dx, k * (n_dx + n_lab)], axis=1)

        lab_terms = np.empty((n, n_lab, 1 + k), dtype=np.int64)
        lab_terms[:, :, 0] = np.take_along_axis(lab_table, positives[:, n_dx:], axis=1)
        lab_terms[:, :, 1:] = np.take_along_axis(
            lab_table, lab_size[:, None] + lab_negatives, axis=1).reshape(n, n_lab, k)
        dx_terms = np.empty((n, n_dx, 1 + k), dtype=np.int64)
        dx_terms[:, :, 0] = pos_dx
        dx_terms[:, :, 1:] = np.take_along_axis(
            dx_table, dx_size[:, None] + dx_negatives, axis=1).reshape(n, n_dx, k)
        ph_terms = np.empty((n, n_cp + 1, 1 + k, 2), dtype=np.int64)
        ph_terms[:, :n_cp, 0, 0] = carrier
        ph_terms[:, :n_cp, 0, 1] = hours
        ph_terms[:, n_cp, 0] = np.stack((p, h - 1), axis=1)
        ph_negatives = ph_negatives.reshape(n, n_cp + 1, 2, k)
        ph_terms[:, :, 1:, 0] = patient_table[patient_first[:, None, None] + ph_negatives[:, :, 0]]
        ph_terms[:, :, 1:, 1] = ph_negatives[:, :, 1]

        k_ph = np.where(patient_size > 0, k, 0)
        return (
            _grid(lab_terms, np.where(has_lab, n_lab, 0), np.where(lab_size < n_labs, k, 0)),
            _grid(dx_terms, np.where(has_dx, n_dx, 0), np.where(dx_size < n_diagnoses, k, 0)),
            _grid(ph_terms[:, :n_cp], np.where(copatients, n_cp, 0), k_ph),
            _grid(ph_terms[:, n_cp:], (trainable & (h > 0)).astype(int), k_ph)), trainable
