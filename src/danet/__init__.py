"""Deep abstract networks for tabular data.

A numpy library implementing sparse feature-selecting abstraction layers,
deep residual-style stacks of them with raw-feature shortcuts, quasi-
hyperbolic Adam training, and an exact structure re-parameterization that
folds masks and batch normalization into plain affine maps for inference.
"""

from .numerics import Rng, ShapeError, finite_diff_grad
from .entmax import EntmaxResult, entmax15, entmax15_backward
from .layers import AbstractLayer, AbstractUnit, GhostBatchNorm, relu, sigmoid
from .network import (BasicBlock, DANet, DANetConfig, FlopsReport, MlpHead,
                      count_flops, count_flops_folded)
from .reparam import (CompressedLayer, CompressedModel, CompressedUnit,
                      compress_model, compress_unit, fold_bn, fold_mask)
from .training import (FitResult, QhAdam, TrainConfig, TrainingError,
                       batch_gradients, cross_entropy, evaluate, fit, history_to_csv,
                       lr_at, mse)
from .data import (DataError, Dataset, LooTable, PreprocessState, ZscoreStats,
                   load_csv, read_schema, stratified_split, synth_generate,
                   write_csv)
from .serialize import ContainerError, LoadedModel, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "Rng", "ShapeError", "finite_diff_grad",
    "EntmaxResult", "entmax15", "entmax15_backward",
    "AbstractLayer", "AbstractUnit", "GhostBatchNorm", "relu", "sigmoid",
    "BasicBlock", "DANet", "DANetConfig", "FlopsReport", "MlpHead",
    "count_flops", "count_flops_folded",
    "CompressedLayer", "CompressedModel", "CompressedUnit", "compress_model",
    "compress_unit", "fold_bn", "fold_mask",
    "FitResult", "QhAdam", "TrainConfig", "TrainingError", "batch_gradients",
    "cross_entropy", "evaluate", "fit", "history_to_csv", "lr_at", "mse",
    "DataError", "Dataset", "LooTable", "PreprocessState", "ZscoreStats",
    "load_csv", "read_schema", "stratified_split", "synth_generate",
    "write_csv",
    "ContainerError", "LoadedModel", "load_model", "save_model",
    "__version__",
]
