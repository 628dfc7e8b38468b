"""Self-contained micro CNN engine: 2-D/3-D convolution, average
pooling, losses, exact backprop, SGD/Adam, and the two fixed
segmentation architectures used by the estimation pipeline."""

from volumetrica.nn.layers import AvgPool, ConvLayer, avg_pool
from volumetrica.nn.losses import bce, bce_with_logits, mse
from volumetrica.nn.network import (
    Network,
    backward,
    build_segmenter_2d,
    build_segmenter_3d,
    load_network,
    predict,
    save_network,
)
from volumetrica.nn.optim import AdamState, SgdState, optimizer_step
from volumetrica.nn.training import TrainConfig, TrainingLog, train
from volumetrica.nn.inference import cnn_volume, dice, extract_tumor_mask, resize_volume

__all__ = [
    "AdamState",
    "AvgPool",
    "ConvLayer",
    "Network",
    "SgdState",
    "TrainConfig",
    "TrainingLog",
    "avg_pool",
    "backward",
    "bce",
    "bce_with_logits",
    "build_segmenter_2d",
    "build_segmenter_3d",
    "cnn_volume",
    "dice",
    "extract_tumor_mask",
    "load_network",
    "mse",
    "optimizer_step",
    "predict",
    "resize_volume",
    "save_network",
    "train",
]
