"""Sequential prediction with expert advice under log-loss.

Core pieces: the soft-Bayes mixture learner with pluggable learning-rate
schedules, the EG/OGD/Bayes baselines, hindsight comparators with
closed-form guarantee evaluation, adversarial and seeded stream generators,
and a CLI harness that ties them together.
"""

from .comparators import (
    MixtureSolution,
    RegretReport,
    SegmentSpec,
    best_fixed_mixture,
    best_single_expert,
    disjoint_closed_form,
    regret_report,
    shifting_best,
    theoretical_bound,
)
from .core import (
    ExpertStream,
    as_simplex,
    log_loss,
    mixture_prob,
    project_simplex,
    uniform_weights,
)
from .generators import (
    GeneratorSpec,
    adversarial_alternating,
    adversarial_constant,
    disjoint_dirac,
    iid_mixture,
    parse_generator,
    random_iid_instance,
    with_flip_round,
)
from .harness import ExperimentConfig, RunArtifact, load_stream, run_experiment, write_stream_jsonl
from .learners import (
    Bayes,
    ExponentiatedGradient,
    LearnerTrace,
    MLSoftBayes,
    MLWeightState,
    MetaBayes,
    OnlineGradientDescent,
    SoftBayes,
    StepOutcome,
    WeightState,
    bayes_step,
    eg_step,
    meta_bayes_step,
    ml_rate_next,
    ml_soft_bayes_step,
    ogd_step,
    run_learner,
    soft_bayes_step,
)
from .rates import (
    AnytimeRate,
    BestSetTracker,
    FixedRate,
    InverseT,
    ScheduleConfig,
    SelfConfidentRate,
    SelfConfidentStats,
    ShiftingRate,
    SparseRate,
    parse_schedule,
    rate_anytime,
    rate_offline,
    rate_self_confident,
    rate_sparse,
    rate_shifting,
)

__version__ = "0.1.0"
