"""Learning compact binary hash codes with a correlation loss,
dynamically re-estimated hash centers, and Hamming-space retrieval.

The public surface re-exports the main types and operations; the
`dcsh` console script drives the full pipeline.
"""

__version__ = "0.1.0"

from .cca import (
    alpha,
    cca_loss,
    dcsh_lower_bound,
    dcsh_loss,
    k_max,
)
from .centers import (
    HashCenterSet,
    assign_target,
    gen_bernoulli_centers,
    gen_hadamard_centers,
    update_centers,
)
from .data import Dataset, gen_synthetic, label_classes, multi_hot
from .errors import (
    ConfigurationError,
    CoverageError,
    DcshError,
    DimensionError,
    LabelError,
    NumericError,
    ParseError,
    StaleCacheError,
)
from .network import (
    DcshModel,
    TrainConfig,
    backward,
    binarize,
    build_model,
    forward,
    learning_rate,
    predict,
    sgd_step,
    train,
)
from .retrieval import (
    MapResult,
    PackedCodeIndex,
    QueryResult,
    average_precision,
    map_at_k,
    pack_codes,
    pr_curve,
    query_topk,
    unpack_codes,
)

__all__ = [name for name in dir() if not name.startswith("_")]
