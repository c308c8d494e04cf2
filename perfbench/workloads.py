"""The four benchmark workloads: the `mhex` command lines of one pass, the
samples each command processes, and the set-up each workload needs.

A pass is closed-loop: one caller runs the commands in order, each starting
after the previous one returns. Pass k of a run with seed s hands the CLI the
seed ``pass_seed(s, k)``; the CLI generates every input from it. The untimed
reference pass uses ``REFERENCE_SEED`` whatever the run's seed, so its outputs
can be compared with the files recorded under ``reference/``.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEED = 0
FIXTURE_SEED = 0

# The CNN checkpoint that explain/evaluate/analyze read: one AdamW step on 64
# planted-shape images. Its cost is what a user pays before those commands;
# the model is barely trained, which changes no timing (every kernel's cost
# depends on shapes only) and keeps every correlation input non-constant.
FIXTURE_ARGV = ["train", "--dataset", "shapes", "--seed", str(FIXTURE_SEED),
                "--n-samples", "64", "--epochs", "1", "--batch-size", "64"]


@dataclass(frozen=True)
class Command:
    name: str          # train | explain | evaluate | analyze
    argv: tuple        # arguments after `mhex`
    out: str           # output directory
    samples: int       # samples the command processes, for its throughput
    dataset: str       # shapes | tokens


@dataclass(frozen=True)
class Workload:
    name: str
    needs_fixture: bool
    host: str          # resnet | transformer
    references: tuple  # (command, file) pairs compared with reference/<name>/


def pass_seed(seed, index):
    """CLI seed of timed pass ``index`` (0-based) of a run with ``seed``;
    never equal to REFERENCE_SEED."""
    return (seed % 2 ** 32) * 1000 + index + 1


def _ids(n):
    return ",".join(str(i) for i in range(n))


def commands(workload, seed, out_dir, fixture_ckpt=None):
    """Commands of one pass of ``workload`` with CLI seed ``seed``."""
    s = str(seed)
    name = workload.name
    if name == "shapes_train":
        return [Command("train", ("train", "--dataset", "shapes", "--seed", s,
                                  "--n-samples", "64", "--epochs", "1",
                                  "--batch-size", "64"),
                        f"{out_dir}/train", 64, "shapes")]
    if name == "shapes_explain_eval":
        ck = str(fixture_ckpt)
        return [
            Command("explain", ("explain", "--dataset", "shapes", "--seed", s,
                                "--n-samples", "16", "--samples", _ids(16),
                                "--grad-cam", "--checkpoint", ck),
                    f"{out_dir}/explain", 16, "shapes"),
            Command("evaluate", ("evaluate", "--dataset", "shapes", "--seed", s,
                                 "--n-samples", "8", "--curve-samples", "2",
                                 "--grad-cam", "--oracle-explainer",
                                 "--checkpoint", ck),
                    f"{out_dir}/evaluate", 8, "shapes"),
        ]
    if name == "shapes_analyze":
        return [Command("analyze", ("analyze", "--dataset", "shapes", "--seed", s,
                                    "--n-samples", "8", "--block-samples", "1",
                                    "--checkpoint", str(fixture_ckpt)),
                        f"{out_dir}/analyze", 8, "shapes")]
    if name == "tokens_pipeline":
        ck = f"{out_dir}/train/checkpoint.ckpt"
        return [
            Command("train", ("train", "--dataset", "tokens", "--seed", s,
                              "--n-samples", "256", "--epochs", "2",
                              "--batch-size", "64"),
                    f"{out_dir}/train", 512, "tokens"),
            Command("explain", ("explain", "--dataset", "tokens", "--seed", s,
                                "--n-samples", "64", "--samples", _ids(64),
                                "--checkpoint", ck),
                    f"{out_dir}/explain", 64, "tokens"),
            Command("evaluate", ("evaluate", "--dataset", "tokens", "--seed", s,
                                 "--n-samples", "128", "--checkpoint", ck),
                    f"{out_dir}/evaluate", 128, "tokens"),
        ]
    raise KeyError(name)


WORKLOADS = {w.name: w for w in (
    Workload("shapes_train", False, "resnet", (("train", "trainlog.csv"),)),
    Workload("shapes_explain_eval", True, "resnet",
             (("fixture", "trainlog.csv"), ("evaluate", "summary.csv"))),
    Workload("shapes_analyze", True, "resnet",
             (("fixture", "trainlog.csv"), ("analyze", "correlation.csv"))),
    Workload("tokens_pipeline", False, "transformer",
             (("train", "trainlog.csv"), ("evaluate", "token_drop.csv"))),
)}
