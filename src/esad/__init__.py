"""End-to-end semi-supervised anomaly detection on tabular data.

The pipeline encodes an input, reconstructs it, and re-encodes the
reconstruction; training shapes all three stages jointly so that normal
samples reconstruct well and land near the latent origin while labeled
anomalies are pushed away. Test-time anomaly scores combine reconstruction
error with the re-encoded latent norm. A two-stage distance-to-center
baseline and a seeded benchmark harness round out the package.
"""

from .data import (
    BENCHMARK_STATS,
    RawDataset,
    ScenarioConfig,
    SemiDataset,
    load_benchmark,
    load_csv,
    load_manifest,
    make_scenario,
    split_60_40,
    standardize,
    synth_gaussians,
)
from .harness import (
    ExperimentConfig,
    Method,
    RunReport,
    load_config,
    load_dataset,
    prepare_scenario,
    run_experiment,
    sweep,
    train_esad,
    train_sad_baseline,
)
from .losses import (
    LossBreakdown,
    loss_sad_rec,
    loss_svdd,
    semi_loss_and_grads,
)
from .model import (
    EsadModel,
    backward_pipeline,
    forward_pipeline,
    load_model,
    new_model,
    save_model,
)
from .ndcore import DenseLayer, EsadError, MlpStack, SgdConfig
from .scoring import (
    AucResult,
    auc,
    auc_pairwise,
    export_scores_csv,
    score_dataset,
)

__version__ = "0.1.0"
