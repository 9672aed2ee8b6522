"""Skip-gram context sampling around patient-hour centers, each a (p, h) pair.

Positives: uniform with-replacement draws from the center's one-hop
diagnosis and lab neighborhoods, co-patients reached through a sampled
shared diagnosis, and the temporal next node when it exists. Negatives:
uniform draws from same-type nodes with no one-hop connection to the
center (for patient-hour negatives: hour nodes of patients sharing no
diagnosis with the center's patient).

A context's draws are those of one `Generator.integers` call for all its
diagnosis and lab positives, one per co-patient step (diagnosis, carrier,
hour; the carrier bound depends on the diagnosis drawn) and one for all its
negatives: the per-context sampler that tests/oracles.py keeps as the
oracle. The Sampler draws the same numbers a chunk of centers at a time.
`plan(centers)` queues a visit order; `sample_context(p, h)` hands out the
next planned center's context and draws the next CHUNK planned centers when
the current chunk is used up, or with nothing planned a chunk of (p, h)
alone. A chunk reads the generator's 32-bit words in bulk and maps each one
as integers does (Lemire's multiply-shift and rejection test; a bound of 1
takes no word), so every context, and the generator's state after them,
equal the per-context draws (tests/test_sampler.py pins both). The chunk
draw is the one path that draws contexts; `sample_negatives` draws one node
type's negatives of a center on the same generator, outside any plan.

Pools are sorted tables built per chunk from rows of the graph: a center's
diagnoses then the others, its tested labs then the others, and the
patients sharing no diagnosis with each of the chunk's distinct patients,
found against all P patients a block at a time, never P x P (`_non_sharing`,
which also builds `sample_negatives`' patient pool). Beyond the graph the
sampler keeps each diagnosis's sorted carriers and their count, and its
CHUNK x S slot arrays.

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
CHUNK x S and no context owns a copy (tests/oracles.py's
`context_from_terms` builds a context from four Terms by the same code). A
center is a (patient, hour) pair of ints; a context's `terms` (one Terms of
vocabulary ids or (patient, hour) pairs per relation) and the NodeId tuples
of its pos_*/neg_* fields are read-only views built from its arrays on first
access.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import HeteroGraph, NodeId, NodeType

# Centers drawn at a time. A chunk's draw works in fixed CHUNK x S slot
# arrays, S draws a context (260 at the default counts), that the sampler
# keeps from chunk to chunk.
CHUNK = 256
_LOW = np.uint64(0xFFFFFFFF)
_HIGH = np.uint64(32)
_2_32 = np.uint64(2**32)


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
    """One skip-gram context around the patient-hour center (p, h), in the arrays
    the training step reads:

    - `columns`: the tested then the diagnosed terms, as columns of the stacked
      [W_i | W_d]: lab i is column i, diagnosis j column n_labs + j;
    - `rows`: the co-patient then the temporal terms, as rows p * window + h of
      graph.values viewed as (patients * window, n_labs);
    - `target`: every term's 1.0/0.0 target, tested, diagnosed, co-patient, temporal;
    - `sizes`: the four relations' term counts.

    The arrays are read-only. `terms`, one Terms per relation in vocabulary ids
    and (patient, hour) pairs, and the NodeId fields are built from them on
    first access.
    """

    __slots__ = ("center", "columns", "rows", "target", "sizes", "n_labs", "window", "_terms",
                 "_views")

    def __init__(self, center: tuple[int, int], columns: np.ndarray, rows: np.ndarray,
                 target: np.ndarray, sizes: tuple[int, int, int, int], n_labs: int, window: int):
        self.center = center
        self.columns = columns
        self.rows = rows
        self.target = target
        self.sizes = sizes
        self.n_labs = n_labs
        self.window = window
        self._terms = self._views = None

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


class _WordStream:
    """A bit generator's 32-bit words from its current state on, read ahead in bulk.

    The words come in the order Generator.integers takes them: each 64-bit
    output's low half, then its high half. A high half that the generator
    holds over from an earlier draw comes first: the stream steps back one
    output and reads it again, without its low half. A word integers rejects
    is skipped: it leaves `words` but counts as taken. `commit(n)` leaves the
    generator as if integers had taken the first n words and every skipped one.
    """

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator
        self.state = bit_generator.state
        self.lead = self.state["has_uint32"]
        bit_generator.advance(-self.lead)
        self.start = bit_generator.state
        self.outputs = np.zeros(0, dtype=np.uint64)
        self.words = np.zeros(0, dtype=np.uint32)
        self.skipped = 0

    def upto(self, n: int) -> np.ndarray:
        """The words read so far, at least n of them."""
        short = (n + self.skipped + self.lead + 1) // 2 - self.outputs.size
        if short > 0:
            raw = self.bit_generator.random_raw(short)
            more = raw.astype("<u8", copy=False).view("<u4")  # low half first
            self.words = (np.concatenate((self.words, more)) if self.outputs.size
                          else more[self.lead:])
            self.outputs = np.concatenate((self.outputs, raw)) if self.outputs.size else raw
        return self.words

    def skip(self, i: int) -> None:
        self.words = np.delete(self.words, i)
        self.skipped += 1

    def commit(self, n: int) -> None:
        position = n + self.skipped + self.lead  # words taken from the start
        outputs = (position + 1) // 2
        if not outputs:
            self.bit_generator.state = self.state
            return
        self.bit_generator.state = self.start
        self.bit_generator.advance(outputs)
        state = self.bit_generator.state
        state["has_uint32"] = position % 2
        state["uinteger"] = int(self.outputs[outputs - 1] >> _HIGH)
        self.bit_generator.state = state


def _lemire(words, bounds, scaled=None, low=None, rejected=None):
    """(draws, rejected): each 32-bit word mapped into [0, bound) as Generator.integers
    maps it, (w * b) >> 32, and whether integers rejects it and takes the next word,
    (w * b) mod 2**32 < (2**32 - b) mod b. Bounds are uint64 below 2**32. The optional
    arrays receive the products, their low halves and the rejections."""
    scaled = np.multiply(words, bounds, out=scaled, dtype=np.uint64)
    low = np.bitwise_and(scaled, _LOW, out=low)
    rejected = np.less(low, bounds, out=rejected)  # the threshold is below the bound
    if rejected.any():
        at = rejected.nonzero()
        b = np.broadcast_to(bounds, rejected.shape)[at]
        rejected[at] = low[at] < (_2_32 - b) % b
    return np.right_shift(scaled, _HIGH, out=scaled).view(np.int64), rejected


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


def _slot_parts(config: SamplerConfig) -> list:
    """A context's draw slots in stream order, as six slices: diagnosis and lab
    positives, co-patient steps, diagnosis and lab negatives, patient-hour negatives."""
    n_dx, n_lab, n_cp, k = (config.n_diagnoses, config.n_labs, config.n_copatients,
                            config.negatives_per_positive)
    ends = np.cumsum([n_dx, n_lab, 3 * n_cp, k * n_dx, k * n_lab, 2 * k * (n_cp + 1)]).tolist()
    return [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]


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
        # Per slot: its word, then draw; its bound; whether it takes a word, is
        # active, is rejected, is counted.
        self._parts = _slot_parts(config)
        self._slots = np.empty((3, CHUNK, self._parts[-1].stop), dtype=np.uint64)
        self._flags = np.empty((4, CHUNK, self._parts[-1].stop), dtype=bool)
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
            self._contexts = self._draw(chunk)[::-1]
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

    def _draw(self, centers: np.ndarray) -> list:
        """The contexts of an (n, 2) array of centers, in order; None for an untrainable one.

        Each context is a row of S draw slots in stream order: n_diagnoses and
        n_labs positives, n_copatients (diagnosis, carrier, hour) steps, then
        the negatives, k per positive, patient-hour rows as k patients then k
        hours for each co-patient and the temporal node. A slot takes no word
        when its relation is absent or its bound is 1. Which slots take one is
        guessed from the pool sizes, with co-patient bounds above 1, except
        the eligible-diagnosis pick's when one positive diagnosis is drawn. A
        pass maps every slot's word under the guess and finds the first slot
        that its draws contradict: one that takes a word or not against the
        guess, or whose word is rejected. The contexts before it are drawn. The
        guess is corrected from that slot on (a rejected word is skipped) and
        the rest of the chunk is drawn again from its context. Each pass
        settles at least that slot, so the chunk consumes exactly the words
        of drawing the contexts one by one.
        """
        cfg, graph = self.config, self.graph
        n_dx, n_lab, n_cp, k = (cfg.n_diagnoses, cfg.n_labs, cfg.n_copatients,
                                cfg.negatives_per_positive)
        n_diagnoses, n_labs, window = graph.n_diagnoses, graph.n_labs, graph.window_hours
        p, h = centers[:, 0], centers[:, 1]
        n, S = len(p), self._slots.shape[2]

        # Pools as sorted tables: a row's members, then its negatives, then the
        # padding diagnosis or lab.
        patients, row = np.unique(p, return_inverse=True)
        diagnosed = graph.diagnosed[patients]
        tested = graph.observed[p, h]
        dx_table, lab_table = _member_order(diagnosed)[row], _member_order(tested)
        dx_size = diagnosed.sum(axis=1)[row]
        lab_size = tested.sum(axis=1)
        shareable = (diagnosed & (self._n_carriers[:-1] > 1)).any(axis=1)[row]
        patient_size, patient_table = self._non_sharing(patients)
        patient_first = (np.cumsum(patient_size) - patient_size)[row]
        patient_size = patient_size[row]

        A, B, C, D, E, F = self._parts
        has_dx, has_lab = dx_size > 0, lab_size > 0
        bound = self._slots[2, :n]
        bound[:, A] = dx_size[:, None]
        bound[:, B] = lab_size[:, None]
        # co-patient bounds guessed above 1; a pick among n_dx positives is at most n_dx
        bound[:, C].reshape(n, n_cp, 3)[:] = (min(n_dx, 2), 2, window)
        bound[:, D] = (n_diagnoses - dx_size)[:, None]
        bound[:, E] = (n_labs - lab_size)[:, None]
        ph_bound = bound[:, F].reshape(n, n_cp + 1, 2, k)
        ph_bound[:, :, 0] = patient_size[:, None, None]
        ph_bound[:, :, 1] = window
        takes, active, rejected, counted = self._flags[:, :n]
        active[:, A] = has_dx[:, None]
        active[:, B] = has_lab[:, None]
        active[:, C] = (has_dx & shareable)[:, None]
        active[:, D] = (has_dx & (dx_size < n_diagnoses))[:, None]
        active[:, E] = (has_lab & (lab_size < n_labs))[:, None]
        ph_active = active[:, F].reshape(n, n_cp + 1, 2 * k)
        ph_active[:] = (patient_size > 0)[:, None, None]
        ph_active[:, :n_cp] &= (has_dx & shareable)[:, None, None]
        ph_active[:, n_cp] &= ((has_dx | has_lab) & (h > 0))[:, None]
        np.greater(bound, 1, out=takes)
        takes &= active

        lab_terms = np.empty((n, n_lab, 1 + k), dtype=np.int64)
        dx_terms = np.empty((n, n_dx, 1 + k), dtype=np.int64)
        ph_terms = np.empty((n, n_cp + 1, 1 + k, 2), dtype=np.int64)
        copatients = np.zeros(n, dtype=bool)
        stream = _WordStream(self.rng.bit_generator)
        first, used = 0, 0  # the first context not yet drawn; the words before it
        while first < n:
            m = n - first
            # A slot that takes no word maps 2**32 - 1: its bound less 1, never rejected.
            words = self._slots[0, :m]
            words.fill(_LOW)
            taken = used + int(np.count_nonzero(takes[first:]))
            words[takes[first:]] = stream.upto(taken)[used:taken]
            steps = words[:, C].reshape(m, n_cp, 3).copy()
            draws, _ = _lemire(words, bound[first:], self._slots[1, :m], words, rejected[first:])

            # Co-patient steps: an eligible positive diagnosis, a carrier other than p, an hour.
            pos_dx = np.take_along_axis(dx_table[first:], draws[:, A], axis=1)
            eligible = has_dx[first:, None] & (self._n_carriers[pos_dx] > 1)
            n_eligible = eligible.sum(axis=1)
            on = n_eligible > 0
            pick, _ = _lemire(steps[..., 0], np.maximum(n_eligible, 1).astype(np.uint64)[:, None])
            dx = np.take_along_axis(
                pos_dx, np.take_along_axis(np.argsort(~eligible, axis=1, kind="stable"), pick,
                                           axis=1), axis=1)
            carrier_bound = np.maximum(self._n_carriers[dx] - 1, 1).astype(np.uint64)
            carrier, _ = _lemire(steps[..., 1], carrier_bound)
            at = self._first_carrier[dx] + carrier
            carrier = self._carriers.take(at, mode="clip")
            carrier = np.where(carrier < p[first:, None], carrier,
                               self._carriers.take(at + 1, mode="clip"))
            step_bound = bound[first:, C].reshape(m, n_cp, 3)
            step_bound[..., 0] = n_eligible[:, None]
            step_bound[..., 1] = carrier_bound
            rejected[first:, C].reshape(m, n_cp, 3)[:] = _lemire(steps, step_bound)[1]
            active[first:, C] = on[:, None]
            ph_active[first:, :n_cp] = (on & (patient_size[first:] > 0))[:, None, None]

            # The first slot the draws contradict.
            counts = np.greater(bound[first:], 1, out=counted[first:])
            counts &= active[first:]
            rejected[first:] &= counts
            differ = np.not_equal(counts, takes[first:], out=counts)
            differ |= rejected[first:]
            stop = int(differ.argmax()) if differ.any() else m * S
            done, slot = divmod(stop, S)

            # The contexts before it are drawn; write their terms.
            rows = slice(first, first + done)
            lab_terms[rows, :, 0] = np.take_along_axis(lab_table[rows], draws[:done, B], axis=1)
            lab_terms[rows, :, 1:] = np.take_along_axis(
                lab_table[rows], lab_size[rows, None] + draws[:done, E], axis=1
            ).reshape(done, n_lab, k)
            dx_terms[rows, :, 0] = pos_dx[:done]
            dx_terms[rows, :, 1:] = np.take_along_axis(
                dx_table[rows], dx_size[rows, None] + draws[:done, D], axis=1
            ).reshape(done, n_dx, k)
            ph_terms[rows, :n_cp, 0, 0] = carrier[:done]
            ph_terms[rows, :n_cp, 0, 1] = draws[:done, C].reshape(done, n_cp, 3)[..., 2]
            ph_terms[rows, n_cp, 0] = np.stack((p[rows], h[rows] - 1), axis=1)
            negatives = draws[:done, F].reshape(done, n_cp + 1, 2, k)
            ph_terms[rows, :, 1:, 0] = patient_table[patient_first[rows, None, None]
                                                     + negatives[:, :, 0]]
            ph_terms[rows, :, 1:, 1] = negatives[:, :, 1]
            copatients[rows] = on[:done]
            used += int(np.count_nonzero(takes[rows]))
            first += done
            if first < n:  # redraw from this context: skip a rejected word, or fix the guess
                if takes[first, slot] and rejected[first, slot]:
                    stream.skip(used + int(np.count_nonzero(takes[first, :slot])))
                else:
                    takes[first, slot:] = active[first, slot:] & (bound[first, slot:] > 1)
        stream.commit(used)

        k_ph = np.where(patient_size > 0, k, 0)
        trainable = has_dx | has_lab
        return _contexts(centers, (
            _grid(lab_terms, np.where(has_lab, n_lab, 0), np.where(lab_size < n_labs, k, 0)),
            _grid(dx_terms, np.where(has_dx, n_dx, 0), np.where(dx_size < n_diagnoses, k, 0)),
            _grid(ph_terms[:, :n_cp], np.where(copatients, n_cp, 0), k_ph),
            _grid(ph_terms[:, n_cp:], (trainable & (h > 0)).astype(int), k_ph)), trainable,
            n_labs, window)
