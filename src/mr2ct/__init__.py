"""CT volume estimation from multi-channel MR volumes.

Two-stage estimator: a boosted tissue classifier over raw + neighborhood
voxel features selects the tissue class, and a per-class Gaussian mixture
regression predicts the CT intensity from the raw features.
"""

__version__ = "0.1.0"

from .boosting import (
    BoostedEnsemble,
    init_mislabel,
    pseudo_loss,
    rus_resample,
    train_rusboost,
    update_mislabel,
)
from .config import RunConfig
from .errors import (
    BoostingError,
    ConfigError,
    DataError,
    FeatureLayoutError,
    FitError,
    ModelError,
    Mr2ctError,
    SelectionError,
    VolumeFormatError,
)
from .evaluation import (
    ClassificationMetrics,
    RegressionReport,
    ResidualCurve,
    kfold_cv,
    loo_patient_eval,
    prf,
    smoothed_residuals,
)
from .features import (
    FeatureLayout,
    SampleTable,
    assemble,
    export_csv,
    neighbor_offsets,
)
from .labeling import label_tissue, label_tissue_many
from .mixture import (
    MixtureModel,
    conditional_expectation,
    conditional_expectation_many,
    em_fit,
    log_density,
    select_model,
)
from .phantom import (
    PhantomSpec,
    default_class_models,
    default_phantom_spec,
    generate_phantom,
    oracle_predict_ct,
)
from .pipeline import (
    PipelineModel,
    load_model,
    predict_ct,
    save_model,
    train_pipeline,
)
from .tree import DecisionTree, train_tree
from .volume import PatientDataset, Volume, load_patient, read_volume, write_volume
