"""Online vector-quantized attention: a constant-memory sequence mixer
built on streaming clustering, with exact reference oracles, a
Gaussian-mixture cross-check suite, synthetic recall task generators, and
a benchmark CLI."""

__version__ = "0.1.0"

from .engine import (
    ChunkUpdateRecord,
    OvqConfig,
    OvqState,
    absorb_chunk,
    dictionary_readout,
    growth_count,
    new_centroid_budget,
    ovq_forward_chunk,
    ovq_forward_sequence,
    planned_active_components,
)
from .errors import (
    ConfigurationError,
    DegenerateComponentError,
    GenerationError,
    InvalidStateError,
    ParseError,
)
from .gmr import (
    GaussianMixture,
    batch_kmeans_step,
    e_step,
    em_fit,
    gmr_predict,
    gmr_predict_expectation,
    init_means_kmeanspp,
    kmeanspp_indices,
    m_step,
    nll,
    verify_gkr_attention,
    verify_newton_equivalence,
)
from .reference import (
    AttentionOutput,
    Dictionary,
    HeadSequence,
    linear_attention_baseline,
    quantize_keys,
    quantized_state,
    softmax_attention,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_online,
    vq_attention_quadratic,
)
from .state_io import load_state, save_state
from .tasks import (
    IGNORE,
    SpecialTokens,
    TokenStream,
    gen_basic_icr,
    gen_icl,
    gen_positional_icr,
    load_streams,
    save_streams,
)
from .bench import (
    MixerSpec,
    RecallRow,
    StateRow,
    recall_benchmark,
    state_size_sweep,
    token_task_eval,
    verify_all,
)
