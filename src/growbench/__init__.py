"""growbench: staged-network growth training with risk-aware growth timing."""

from .arch import ArchSpec, StageSpec, parse_arch
from .data import Dataset
from .harness import (
    DataConfig,
    EpochMetrics,
    PolicyConfig,
    RunResult,
    TrainConfig,
    compare,
    evaluate,
    read_metrics,
    run,
    write_metrics,
)
from .morph import GrowthEvent, MomentEnsemble, count_added_blocks, grow
from .netcore import Network, build_network, loss_grads_logits, lr_at, sgd_step
from .presets import preset_config, preset_names
from .timing import PolicyState, average_training_epochs, i_max, interval, orl

__version__ = "0.1.0"
