"""layerlens: entropy-based measurement of layerwise input-information discarding.

Two estimators drive everything. The strict estimator learns per-input-unit
Gaussian perturbation scales that maximize entropy while the chosen layer's
feature stays inside a variance budget; the reconstruction estimator does the
same for the entropy of decoder reconstructions. Derived metrics (the
foreground/background concentration score, rescaling coherency checks,
layerwise comparison grids) and a config-driven CLI sit on top.
"""

__version__ = "0.1.0"

from .model import ModelGraph, build, insert_block, rescale_pair  # noqa: F401
from .report import Mask, coherency_check, concentration, layerwise_report  # noqa: F401
from .ru import DecoderSpec, RuResult, estimate_ru, pixel_ru, train_decoder  # noqa: F401
from .sid import SidConfig, SidResult, SigmaField, estimate_sid  # noqa: F401
from .train import TrainConfig, train  # noqa: F401
