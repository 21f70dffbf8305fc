"""Grid-mask pairwise image interpolation with patch-level supervision.

Images are mixed pairwise under a binary patch-grid mask, the mixing
ratio doubles as the soft image label, and each patch carries the label
of whichever source it came from.  An evolutionary search over per-pair
mask configurations, scored against a frozen reference model, produces a
guided augmentation set for final training.
"""

from .data import (
    Dataset,
    load_cifar_binary,
    load_dataset,
    save_dataset,
    sniff_and_load,
    synth_shapes,
    toy_2d_three_class,
)
from .errors import ConfigError, FormatError, NumericError
from .evolution import (
    FitnessTable,
    Individual,
    SearchConfig,
    evaluate_fitness,
    load_individual,
    pair_count,
    run_search,
    save_individual,
    slot_pairs,
)
from .losses import combined_loss, log_softmax
from .masks import sample_mask_bits, sample_random_mask
from .mixing import MixedBatch, cutmix, mixup, patchmix, patchmix_batch
from .model import (
    ReferenceModel,
    TrainConfig,
    adversarial_accuracy,
    cosine_lr,
    evaluate_model,
    fgsm_attack_batch,
    forward_batch,
    load_metrics,
    load_model,
    save_metrics,
    save_model,
    sgd_nesterov_step,
    train_random_patchmix,
)
from .rng import RngKey
from .workflow import (
    PipelineResult,
    ablation_grid,
    run_guided_pipeline,
    train_final,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "FitnessTable",
    "FormatError",
    "Individual",
    "MixedBatch",
    "NumericError",
    "PipelineResult",
    "ReferenceModel",
    "RngKey",
    "SearchConfig",
    "TrainConfig",
    "ablation_grid",
    "adversarial_accuracy",
    "combined_loss",
    "cosine_lr",
    "cutmix",
    "evaluate_fitness",
    "evaluate_model",
    "fgsm_attack_batch",
    "forward_batch",
    "load_cifar_binary",
    "load_dataset",
    "load_individual",
    "load_metrics",
    "load_model",
    "log_softmax",
    "mixup",
    "pair_count",
    "patchmix",
    "patchmix_batch",
    "run_guided_pipeline",
    "run_search",
    "sample_mask_bits",
    "sample_random_mask",
    "save_dataset",
    "save_individual",
    "save_metrics",
    "save_model",
    "sgd_nesterov_step",
    "slot_pairs",
    "sniff_and_load",
    "synth_shapes",
    "toy_2d_three_class",
    "train_final",
    "train_random_patchmix",
]
