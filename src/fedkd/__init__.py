"""One-shot federated distillation on desk-scale tasks.

Nodes train independently on heterogeneous shards, answer a single batch of
public-set queries with importance-weighted, quantized, Laplace-noised logits,
and a central model distills from the aggregate offline. A parameter-averaging
baseline and exact bandwidth accounting sit alongside for comparison.
"""
from .datasets import (
    CsvSchema,
    Dataset,
    GaussianTaskSpec,
    MULTI_LABEL,
    NodeProfile,
    PartitionPlan,
    SINGLE_LABEL,
    dirichlet_partition,
    gen_gaussian_task,
    load_csv,
    profile,
    profile_of,
)
from .distill import (
    DistillConfig,
    KL,
    LOGIT_L2,
    MultiLabelEval,
    distill,
    evaluate_multi,
    evaluate_single,
    kl_loss,
    binary_kl_loss,
    mann_whitney_auc,
    sigmoid,
    softmax_tau,
)
from .ensemble import (
    EnsembleConfig,
    LogitBlock,
    PER_CLASS,
    UNIFORM,
    WeightTable,
    ensemble,
    importance_weights,
    laplace_sample,
    quantize_array,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    EvaluationError,
    FedKdError,
    FormatError,
    RangeError,
    ValidationError,
)
from .numkit import (
    CosineSchedule,
    MlpModel,
    RandomStream,
    cosine_lr,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .protocol import (
    BandwidthLedger,
    FedAvgResult,
    FedKdResult,
    FedKdRun,
    NodeHandle,
    TrainConfig,
    collect_logits,
    ledger_report,
    run_fedavg,
    run_fedkd,
    train_locals,
)

__version__ = "0.1.0"
