"""Adversarially trained LSTM classifier for hard-drive health degrees."""

from . import cache, data, evaluate, perturb, synthetic, training
from .model import (
    ALL_POINTS,
    Activations,
    DenseParams,
    ForwardCache,
    LstmParams,
    Network,
    ShapeError,
    backward_batch,
    forward_batch,
    init_network,
    predict_proba,
    softmax,
)
from .checkpoint import (
    CheckpointArchitectureError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    checkpoint_load,
    checkpoint_save,
)
from .data import (
    DatasetSplit,
    DriveTimeline,
    Sample,
    ScalingParams,
    SmartRecord,
)
from .evaluate import MetricsReport, evaluate as evaluate_samples
from .perturb import PerturbationConfig, compute_perturbation_tensors
from .synthetic import SynthConfig, generate_synthetic
from .training import (
    NonFiniteLossError,
    OptimizerState,
    TrainConfig,
    TrainReport,
    predict,
    train,
)

__version__ = "0.1.0"
