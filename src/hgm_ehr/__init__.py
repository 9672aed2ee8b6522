"""Heterogeneous graph embeddings concatenated into a CNN for hourly ICU
mortality prediction, with k-fold evaluation of raw-feature, embedding-only
and concatenated-feature arms."""

from .cnn import CnnParams, CnnTrainConfig, FeatureMode, build_features
from .evaluate import (ARMS, ExperimentConfig, ExperimentReport, FoldReport, auprc, auroc,
                       kfold_split, run_experiments)
from .graph import HeteroGraph, NodeType, build_graph
from .hgm import HgmParams, HgmTrainConfig, embed_hours, ns_grad, ns_loss, train_hgm
from .ingest import (EVENT_DTYPE, GenConfig, PatientRecord, Vocabulary, bin_events, event_array,
                     generate_synthetic, parse_records)
from .sampler import ContextSample, Sampler, SamplerConfig

__version__ = "0.1.0"
