"""Sequential prediction with expert advice under log-loss.

Core pieces: the soft-Bayes mixture learner with pluggable learning-rate
schedules, the EG/OGD/Bayes baselines, hindsight comparators with
closed-form guarantee evaluation, adversarial and seeded stream generators,
and a CLI harness that ties them together.
"""

from .comparators import (
    MixtureSolution,
    RegretReport,
    best_fixed_mixture,
    best_single_expert,
    disjoint_closed_form,
    regret_report,
    theoretical_bound,
)
from .core import (
    ExpertStream,
    as_simplex,
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
    MetaBayes,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from .rates import (
    AnytimeRate,
    BestSetTracker,
    FixedRate,
    InverseT,
    ScheduleConfig,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
    parse_schedule,
    rate_offline,
)

__version__ = "0.1.0"
