"""Representation learning against fixed, human-specified prototypes.

Class prototypes are decided before training (orthogonal per class, or coded
from named factors) and the embedder is trained to land on them, yielding
well-separated or factor-disentangled embeddings with exact per-prediction
relevance decompositions.
"""

__version__ = "0.1.0"

from .data import Dataset, SynthConfig, generate_synthetic, joint_probability_table, load_table, save_dataset, split, true_levels
from .explain import Explanation, explain_sample, zero_block_activity
from .linalg import OrthonormalBasis, gram_schmidt, jlt_create, random_orthonormal_basis
from .metrics import accuracy, disentanglement_report, separation_report
from .model import (
    ClassifierParams,
    EmbedderParams,
    ForwardTrace,
    backward,
    flat_params,
    forward,
    init_classifier,
    init_embedder,
    relevance,
)
from .prototypes import (
    ClassOrthogonalExtractor,
    FactorCodedExtractor,
    FactorCoder,
    FactorLayout,
    class_orthogonal_extractor,
    extractor_from_doc,
    extractor_to_doc,
    fit_factor_coder,
)
from .training import Adam, DivergenceError, SGD, TrainConfig, loss, mix_rows, train
