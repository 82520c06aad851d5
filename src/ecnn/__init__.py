"""Evolving cascade networks for binary classification.

A cascade of sigmoid neurons is grown one neuron at a time: each
candidate is fitted by an iterative projection rule on one half of the
training data and kept only if it lowers a validation criterion measured
on the other half.  Growth therefore selects features and architecture at
the same time.  A restart harness repeats growth from many random
initializations and keeps the model with the lowest training error.

The command-line interface lives in :mod:`ecnn.cli` (installed as the
``ecnn`` script); everything below is the library surface.  Growing one
cascade is ``ecnn.evolve.evolve``: the package attribute ``ecnn.evolve``
is the module, so it is not re-exported here.
"""

from .cascade import (
    classify_batch,
    error_rate,
    forward_batch,
    used_features,
)
from .data_io import (
    SynthTruth,
    load_csv,
    load_matrix_csv,
    normalize,
    split_odd_even,
    split_train_test,
    synth_dataset,
    write_csv,
)
from .domain import (
    CascadeModel,
    Dataset,
    Feature,
    FeatureStats,
    FitnessRecord,
    InputSource,
    NeuronSpec,
    PrevNeuron,
    SplitAB,
    TrainConfig,
    require_finite_features,
    require_valid_dataset,
)
from .errors import DataError, EcnnError, ModelFormatError
from .evolve import (
    AcceptedRecord,
    EvolveTrace,
    RejectedRecord,
    RunSummary,
    STOP_FEATURES_EXHAUSTED,
    STOP_MAX_LAYERS,
    child_seed,
    multi_run,
    rng_for_run,
    select_best,
)
from .fitting import (
    FitResult,
    SIGMOID_CLAMP,
    design_matrix,
    fit_neuron,
    fit_neuron_from_init,
    init_weights,
    sigmoid,
)
from .model_io import (
    FORMAT_VERSION,
    dump_canonical_json,
    load_model,
    model_to_payload,
    payload_to_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # domain
    "Dataset",
    "SplitAB",
    "PrevNeuron",
    "Feature",
    "InputSource",
    "NeuronSpec",
    "FeatureStats",
    "CascadeModel",
    "TrainConfig",
    "FitnessRecord",
    "require_valid_dataset",
    "require_finite_features",
    # errors
    "EcnnError",
    "DataError",
    "ModelFormatError",
    # fitting
    "SIGMOID_CLAMP",
    "FitResult",
    "sigmoid",
    "design_matrix",
    "init_weights",
    "fit_neuron",
    "fit_neuron_from_init",
    # cascade
    "forward_batch",
    "classify_batch",
    "used_features",
    "error_rate",
    # evolve
    "STOP_FEATURES_EXHAUSTED",
    "STOP_MAX_LAYERS",
    "AcceptedRecord",
    "RejectedRecord",
    "EvolveTrace",
    "RunSummary",
    "child_seed",
    "rng_for_run",
    "select_best",
    "multi_run",
    # data io
    "SynthTruth",
    "load_csv",
    "load_matrix_csv",
    "write_csv",
    "normalize",
    "split_odd_even",
    "split_train_test",
    "synth_dataset",
    # model io
    "FORMAT_VERSION",
    "save_model",
    "load_model",
    "dump_canonical_json",
    "model_to_payload",
    "payload_to_model",
]
