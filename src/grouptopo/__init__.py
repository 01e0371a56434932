"""Group-level topology generation for multi-agent pipelines.

Builds a communication graph over candidate agent groups one step at a time,
compresses each decision through a task-conditioned latent bottleneck, and
executes the result against scripted or HTTP agent backends with exact token
accounting.

The top level holds the names the pipeline's steps are built from; every
other name is ``grouptopo.<module>.<name>``.
"""

from . import embedding, errors, graph, harness, model, nn, pools, training
from .embedding import HashingTextEmbedder, HttpEncoderClient, build_candidate_matrix
from .errors import BackendError, GroupTopoError, ValidationError
from .graph import (
    AgentGraph,
    AgentNode,
    CandidateGroup,
    GroupGraph,
    GroupPool,
    IntraPattern,
    RoleSpec,
    Trajectory,
    materialize_agent_graph,
    read_records,
    render_diagram,
    validate_group_graph,
    write_records,
)
from .harness import (
    AnswerKeyBackend,
    AttackSpec,
    BackendResult,
    CompressiveEchoBackend,
    EvalExample,
    HttpAgentBackend,
    answer_matches,
    count_tokens,
    evaluate,
    example_to_record,
    run_graph,
)
from .model import (
    ModelConfig,
    check_params,
    generate_graph,
    generate_graphs,
    graph_log_likelihood,
    init_params,
    loss_and_grads,
    minibatch_loss_and_grads,
)
from .nn import adamw_step, load_checkpoint, make_rng, save_checkpoint
from .pools import default_pool, load_pool
from .training import (
    ExplorationConfig,
    ExplorationResult,
    TrainConfig,
    curate_minimal,
    explore_and_label,
    sample_candidate_topology,
    train,
)

__version__ = "0.1.0"
