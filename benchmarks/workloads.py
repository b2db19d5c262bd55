"""The benchmark's workloads: dataset shape, training config and round layout.

Every workload is one closed loop of rounds; each round waits for the one
before it. A round runs ``qamatch generate``, ``qamatch train`` and
``qamatch eval`` through ``cli.main``, then a library session
(``load_dataset``, ``load_truth``, ``build_trainer`` and
``QAMatchTrainer.run``) with the same config and seed as the CLI run.
Eval runs ``EVAL_REPS`` times per round because one run takes a few ms.
"""

from __future__ import annotations

from dataclasses import dataclass

EVAL_REPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    # generate config keys; the seed comes from --seed
    generate: dict
    # train config keys; the seed comes from --seed
    train: dict
    supervised_only: bool
    # steps per timing window of the library run (see harness.Bench.run);
    # a multiple of eval_interval, so every window holds the same work
    window_steps: int

    @property
    def class_names(self) -> list:
        return self.generate["class_names"]

    def counts(self, split: str) -> list:
        return self.generate[f"{split}_counts"]


# The default `qamatch generate` task written out in full: a gamma = 10
# long tail over three classes with q and c in R^48, so the model input is
# 96-dim. 60 labeled and 2,000 unlabeled rows.
ACCEPTANCE_DATA = {
    "num_classes": 3,
    "dim": 48,
    "class_names": ["class0", "class1", "class2"],
    "separation": 2.8,
    "noise_sigma": 1.0,
    "aug_sigma": 0.35,
    "labeled_counts": [43, 13, 4],
    "unlabeled_counts": [1413, 446, 141],
    "valid_counts": [60, 18, 6],
    "test_counts": [200, 63, 20],
}

# The acceptance-task shape: 96 -> 64 -> 3 with 60 labeled and 256
# unlabeled rows per step.
ACCEPTANCE_SHAPE = {
    "hidden_dims": [64],
    "labeled_batch": 60,
    "unlabeled_batch": 256,
    "eval_interval": 50,
}

# ScholarChemQA's 65.8 / 21.2 / 13.0 yes/no/maybe mix with its 500/50/500
# labeled split, and 20,000 unlabeled records in the same mix. The vectors
# are narrower (R^8) so that generating, parsing and hashing the 14 MB
# train file fits several rounds into one run.
CORPUS_DATA = {
    "num_classes": 3,
    "dim": 8,
    "class_names": ["yes", "no", "maybe"],
    "separation": 2.8,
    "noise_sigma": 1.0,
    "aug_sigma": 0.35,
    "labeled_counts": [329, 106, 65],
    "unlabeled_counts": [13160, 4240, 2600],
    "valid_counts": [33, 11, 6],
    "test_counts": [329, 106, 65],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full",
            generate=ACCEPTANCE_DATA,
            train={**ACCEPTANCE_SHAPE, "iterations": 300},
            supervised_only=False,
            window_steps=50,
        ),
        Workload(
            name="supervised",
            generate=ACCEPTANCE_DATA,
            train={**ACCEPTANCE_SHAPE, "iterations": 2000},
            supervised_only=True,
            window_steps=250,
        ),
        Workload(
            name="corpus",
            generate=CORPUS_DATA,
            train={**ACCEPTANCE_SHAPE, "iterations": 200},
            supervised_only=False,
            window_steps=50,
        ),
    )
}


def config_text(values: dict) -> str:
    """Render a flat ``key = value`` config file as the CLI reads it."""
    lines = []
    for key, value in values.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)
