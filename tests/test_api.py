"""The package's public surface, pinned: a name that ``softbayes`` gains or
loses is a decision that shows in this list's diff."""

import inspect

import softbayes

PUBLIC_NAMES = [
    "AnytimeRate",
    "Bayes",
    "BestSetTracker",
    "ExperimentConfig",
    "ExpertStream",
    "ExponentiatedGradient",
    "FixedRate",
    "GeneratorSpec",
    "InverseT",
    "LearnerTrace",
    "MLSoftBayes",
    "MetaBayes",
    "MixtureSolution",
    "OnlineGradientDescent",
    "RegretReport",
    "RunArtifact",
    "ScheduleConfig",
    "SelfConfidentRate",
    "ShiftingRate",
    "SoftBayes",
    "SparseRate",
    "adversarial_alternating",
    "adversarial_constant",
    "as_simplex",
    "best_fixed_mixture",
    "best_single_expert",
    "disjoint_closed_form",
    "disjoint_dirac",
    "iid_mixture",
    "load_stream",
    "parse_generator",
    "parse_schedule",
    "project_simplex",
    "random_iid_instance",
    "rate_offline",
    "regret_report",
    "run_experiment",
    "run_learner",
    "theoretical_bound",
    "uniform_weights",
    "with_flip_round",
    "write_stream_jsonl",
]


def test_public_names_are_pinned():
    # the submodules are attributes of the package too, but not its imports
    names = sorted(name for name, value in vars(softbayes).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
