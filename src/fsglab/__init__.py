"""Desk-scale binary-network training lab with learned fast/slow gradients."""

__version__ = "0.1.0"

from .config import RunConfig, TrainConfig, load_config, loads_config, save_config  # noqa: F401
from .data import Dataset, gen_synthetic, load_idx  # noqa: F401
from .history import GradientHistoryBuffer  # noqa: F401
from .hypernet import (  # noqa: F401
    FastNetParams,
    HyperNetBundle,
    LstmParams,
    SelectiveSsmParams,
    fast_backward,
    fast_forward,
    slow_backward,
    slow_forward,
)
from .model import Model  # noqa: F401
from .quantize import preprocess, quantize, ste_backward  # noqa: F401
from .rng import Rng  # noqa: F401
from .trainer import (  # noqa: F401
    FsgTrainer,
    MetricsRecord,
    SteTrainer,
    compose_gradient,
)
