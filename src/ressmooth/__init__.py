"""Adaptive regularization by residual smoothing, with a small dense-network
training stack and a reproducible experiment harness."""

from .annealing import AnnealSchedule, laplace_pdf_scaled, logistic_pdf_scaled, scale_at
from .config import DatasetSpec, ExperimentConfig, ModelSpec, parse_config, parse_config_text
from .data import Dataset, batches, load_cifar10_bin, load_idx, subsample
from .harness import (EpochMetrics, TrialSummary, evaluate, grid_search, run_trials,
                      train, write_aggregate_csv, write_metrics_csv)
from .nn import Network, build_network, forward, forward_batch, he_init
from .optim import AdaGradConfig, AdamConfig, SgdConfig, label_smooth, lr_at
from .smoothing import (SmoothingConfig, apply_smoothing, diffusivity, normalize_residual,
                        residual, sigmoid_scale, smoothed_loss, smoothed_loss_backward,
                        smoothing_matrix)

__version__ = "0.1.0"
