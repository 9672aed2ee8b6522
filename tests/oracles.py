"""Reference implementations the program's fast paths are checked against.

ContextOracle is the per-context sampler that `hgm_ehr.sampler.Sampler`
replaced with its chunk draw: every context drawn on its own, with one
`Generator.integers` call per positive block, co-patient step and negative
block, its pools read from rows of the graph. Its `sample_context` is the
body the training path ran before, unedited; the chunk draw must equal it
context for context and leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from hgm_ehr.graph import HeteroGraph
from hgm_ehr.sampler import (ContextSample, SamplerConfig, Terms, UntrainableCenterError,
                             _targets)


class ContextOracle:
    """Seeded per-context sampler over a read-only graph."""

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
