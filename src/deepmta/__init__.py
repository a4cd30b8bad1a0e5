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
    mask_powerset,
    masked_accuracy_batch,
)
from .errors import (
    ConfigError,
    DeepMtaError,
    DimensionError,
    EvaluationError,
    LineError,
    NumericError,
    ParameterError,
    SequenceLengthError,
    TraceError,
    TrainingDivergedError,
    ValidationError,
    VocabularyError,
    WorkerError,
)
from .journey import (
    ClickEvent,
    CustomerJourney,
    GeneratorConfig,
    JourneyTable,
    Vocabulary,
    encode_journey,
    generate_synthetic,
    iter_journeys,
    journey_table,
    load_journeys,
    load_vocabulary,
    read_table,
    save_journeys,
    save_vocabulary,
)
from .model import (
    ForwardTrace,
    ModelParams,
    PhasedLstmLayerParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .report import (
    ChannelReport,
    ChannelStats,
    aggregate_channels,
    emit_report,
    last_click_report,
)
from .trainer import (
    EvalResult,
    TrainConfig,
    TrainResult,
    auc_score,
    evaluate_roc,
    predict,
    roc_curve,
    train,
)

__version__ = "0.1.0"
