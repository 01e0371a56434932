"""Group-level topology generation for multi-agent pipelines.

Builds a communication graph over candidate agent groups one step at a time,
compresses each decision through a task-conditioned latent bottleneck, and
executes the result against scripted or HTTP agent backends with exact token
accounting.
"""

from .embedding import (
    CandidateMatrix,
    EmbeddingProvider,
    HashingTextEmbedder,
    HttpEncoderClient,
    build_candidate_matrix,
)
from .errors import BackendError, GroupTopoError, ValidationError
from .graph import (
    RECORD_VERSION,
    AgentGraph,
    AgentNode,
    CandidateGroup,
    GroupGraph,
    GroupPool,
    IntraPattern,
    RoleSpec,
    Trajectory,
    format_edge,
    group_graph_from_record,
    group_graph_to_record,
    materialize_agent_graph,
    parse_edge,
    read_records,
    render_diagram,
    topological_schedule,
    trajectory_from_record,
    trajectory_to_record,
    validate_group_graph,
    write_records,
)
from .harness import (
    AgentBackend,
    AnswerKeyBackend,
    AttackSpec,
    BackendResult,
    CompressiveEchoBackend,
    EvalExample,
    EvalReport,
    HttpAgentBackend,
    ItemResult,
    RunTranscript,
    TokenStats,
    TranscriptEntry,
    answer_matches,
    count_tokens,
    evaluate,
    example_from_record,
    example_to_record,
    run_graph,
)
from .model import (
    GaussianDiag,
    LossBreakdown,
    ModelConfig,
    check_params,
    conditional_prior,
    fuse_step,
    generate_graph,
    graph_log_likelihood,
    init_params,
    kl_diag,
    loss_and_grads,
    reparameterize,
)
from .nn import (
    FiniteDiffReport,
    OptimizerState,
    adamw_step,
    finite_diff_check,
    load_checkpoint,
    make_rng,
    save_checkpoint,
)
from .pools import default_pool, load_pool, save_pool
from .training import (
    TOPOLOGY_FAMILIES,
    EpochLog,
    ExplorationConfig,
    ExplorationResult,
    TrainConfig,
    TrainResult,
    curate_minimal,
    exploration_result_from_record,
    exploration_result_to_record,
    explore_and_label,
    kl_warmup,
    sample_candidate_topology,
    train,
)

__version__ = "0.1.0"
