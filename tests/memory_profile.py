"""Print the peak resident set of each of qamatch's data-heavy operations.

    PYTHONPATH=src python tests/memory_profile.py [workload ...]

For each workload of ``benchmarks/workloads.py`` named (default ``full``
and ``corpus``), with the dataset and training shapes it defines, this
runs ``qamatch generate``, ``qamatch train`` and the library setup plus
run (``load_dataset``, ``load_truth``, ``build_trainer`` and
``QAMatchTrainer.run``, as the benchmark's library session does). Each
operation runs in a fresh subprocess with one BLAS thread, which prints
``ru_maxrss`` once its imports are done and again after the operation;
the difference is the memory the operation added to the process. pytest
does not collect this file.
"""

import contextlib
import os
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from workloads import WORKLOADS, config_text  # noqa: E402

SEED = 1
OPERATIONS = ("generate", "train", "library")


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(operation, name, work):
    """Run one operation in this process and print the two peaks and its exit code."""
    from qamatch import cli, data, trainer
    from qamatch.trainer import TrainConfig

    wl = WORKLOADS[name]
    data_dir = os.path.join(work, "data")
    path = lambda file: os.path.join(data_dir, file)
    before = maxrss_mib()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if operation == "generate":
            code = cli.main(["generate", "--out", data_dir, "--config",
                             os.path.join(work, "generate.cfg"), "--seed", str(SEED)])
        elif operation == "train":
            argv = ["train", "--data", data_dir, "--out", os.path.join(work, "run"),
                    "--config", os.path.join(work, "train.cfg"), "--seed", str(SEED)]
            code = cli.main(argv + ["--supervised-only"] * wl.supervised_only)
        else:
            toggles = {"use_softmix": False, "use_anchor": False} if wl.supervised_only else {}
            header, labeled, unlabeled = data.load_dataset(path("train.jsonl"))
            valid_header, valid_records, _ = data.load_dataset(path("valid.jsonl"))
            truth = data.load_truth(path("unlabeled-truth.tsv"))
            config = TrainConfig(**{**wl.train, **toggles, "seed": SEED})
            trainer.build_trainer(config, header, labeled, unlabeled,
                                  valid_header, valid_records, truth).run()
            code = 0
    print(f"{before} {maxrss_mib()} {code}")


def main(names):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    print(f"{'workload':<10} {'operation':<10} {'imports MiB':>12} {'after MiB':>10} {'added MiB':>10}")
    for name in names:
        wl = WORKLOADS[name]
        with tempfile.TemporaryDirectory() as work:
            for file, values in (("generate.cfg", wl.generate), ("train.cfg", wl.train)):
                with open(os.path.join(work, file), "w", encoding="utf-8") as fh:
                    fh.write(config_text(values))
            for operation in OPERATIONS:
                out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", operation, name, work],
                                     env=env, capture_output=True, text=True, check=True).stdout
                before, after, code = out.split()
                if code != "0":
                    sys.exit(f"{name} {operation} exited with {code}")
                before, after = float(before), float(after)
                print(f"{name:<10} {operation:<10} {before:>12.1f} {after:>10.1f} {after - before:>10.1f}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
    else:
        main(sys.argv[1:] or ["full", "corpus"])
