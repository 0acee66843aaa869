"""Representation learning against fixed, human-specified prototypes.

Class prototypes are decided before training (orthogonal per class, or coded
from named factors) and the embedder is trained to land on them, yielding
well-separated or factor-disentangled embeddings with exact per-prediction
relevance decompositions.
"""

__version__ = "0.1.0"

from .data import SynthConfig, generate_synthetic, split
from .explain import explain_sample
from .metrics import disentanglement_report, separation_report
from .model import backward, flat_params, forward, relevance
from .prototypes import (FactorCodedExtractor, FactorCoder, FactorLayout, class_orthogonal_extractor,
                         fit_factor_coder)
from .training import SGD, Adam, TrainConfig, mix_rows, train
