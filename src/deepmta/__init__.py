"""Interpretable multi-touch attribution.

Two stages: a time-gated recurrent model predicts per-step conversion over
click journeys, then masked-prediction accuracies are turned into per-event
credit (least squares or Shapley values) and aggregated into channel-level
GMV allocation reports against a last-click baseline.
"""

from .attribution import (
    EXACT_LIMIT,
    AttributionResult,
    GameStats,
    attribute_journey,
    attribute_journeys,
    clip_normalize,
    mask_powerset,
    masked_accuracy,
    masked_accuracy_batch,
    shapley_exact,
    shapley_sampled,
    solve_weights,
)
from .errors import (
    ConfigError,
    DeepMtaError,
    DimensionError,
    EvaluationError,
    NumericError,
    ParameterError,
    SequenceLengthError,
    TraceError,
    TrainingDivergedError,
    ValidationError,
    VocabularyError,
)
from .journey import (
    ClickEvent,
    CustomerJourney,
    EncodedJourney,
    GeneratorConfig,
    Vocabulary,
    encode_journey,
    generate_synthetic,
    load_journeys,
    load_vocabulary,
    save_journeys,
    save_vocabulary,
    split_stream,
)
from .model import (
    ForwardTrace,
    ModelParams,
    PhasedLstmLayerParams,
    cell_forward,
    dropout,
    init_params,
    layer_norm,
    load_checkpoint,
    save_checkpoint,
    time_gate,
)
from .report import (
    ChannelReport,
    ChannelStats,
    aggregate_channels,
    allocate_gmv,
    emit_report,
    last_click_baseline,
    last_click_report,
    load_report_csv,
)
from .trainer import (
    EvalResult,
    TrainConfig,
    TrainResult,
    auc_score,
    evaluate_roc,
    loss,
    predict,
    roc_curve,
    train,
)

__version__ = "0.1.0"
