"""Time qamatch end to end at the paper's scale, and the memory it takes.

    PYTHONPATH=src python tests/paper_scale.py [work directory]

ScholarChemQA has up to 40k records; this runs its shape: the labeled,
validation and test splits of ``benchmarks/workloads.py``'s ``corpus``
(329/106/65, 33/11/6 and 329/106/65 over yes/no/maybe) with 39,000
unlabeled records in the same mix, all at ``dim`` 768, 40,050 records in
all. ``qamatch generate``, a library ``load_dataset`` of ``train.jsonl``,
the same load with ``train.jsonl.cols`` moved aside (a column-file miss,
as for hand-made data; the file is put back after it), ``qamatch train``
(200 iterations at the acceptance shape, rescaled class weights) and
``qamatch eval`` on ``test.jsonl`` each run in a fresh process with one
BLAS thread. For each it prints the wall time and the
peak resident set of the largest single process, the operation's own or
that of a child it forked (``ru_maxrss`` as ``wait4`` reports it), and
exits nonzero if any operation does. The data take about 3.5 GB of disk
in the work directory, a new temporary one unless given, which is
removed afterwards. pytest does not collect this file.
"""

import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from workloads import ACCEPTANCE_SHAPE, CORPUS_DATA, config_text  # noqa: E402

SEED = 1
GENERATE = {**CORPUS_DATA, "dim": 768, "unlabeled_counts": [25662, 8268, 5070]}
TRAIN = {**ACCEPTANCE_SHAPE, "iterations": 200, "rescale_weights": True}


def operations(work):
    """(name, Python source run in a fresh process, a file moved aside while
    it runs or None) per operation, in order."""
    data, run = os.path.join(work, "data"), os.path.join(work, "run")
    cli = "import sys; from qamatch.cli import main; sys.exit(main({!r}))".format
    train = os.path.join(data, "train.jsonl")
    load = f"from qamatch.data import load_dataset; load_dataset({train!r})"
    return [
        ("generate", cli(["generate", "--out", data, "--config", os.path.join(work, "generate.cfg"),
                          "--seed", str(SEED)]), None),
        ("load", load, None),
        ("load-miss", load, f"{train}.cols"),
        ("train", cli(["train", "--data", data, "--out", run, "--config", os.path.join(work, "train.cfg"),
                       "--seed", str(SEED)]), None),
        ("eval", cli(["eval", "--model", os.path.join(run, "model.qam"), "--data",
                      os.path.join(data, "test.jsonl")]), None),
    ]


def main(work):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    os.makedirs(work, exist_ok=True)
    for file, values in (("generate.cfg", GENERATE), ("train.cfg", TRAIN)):
        with open(os.path.join(work, file), "w", encoding="utf-8") as fh:
            fh.write(config_text(values))
    records = sum(sum(GENERATE[f"{split}_counts"]) for split in ("labeled", "unlabeled", "valid", "test"))
    print(f"{records} records, dim {GENERATE['dim']}, seed {SEED}")
    print(f"{'operation':<10} {'wall s':>8} {'peak MiB':>9} {'exit':>5}")
    failed = False
    with open(os.devnull, "w") as devnull:
        for name, source, aside in operations(work):
            if aside is not None:
                os.rename(aside, f"{aside}.aside")
            try:
                start = time.perf_counter()
                # the commands' own output would break up the table
                pid = os.posix_spawn(sys.executable, [sys.executable, "-c", source], env,
                                     file_actions=[(os.POSIX_SPAWN_DUP2, devnull.fileno(), 1)])
                _, status, usage = os.wait4(pid, 0)
                wall = time.perf_counter() - start
            finally:
                if aside is not None:
                    os.rename(f"{aside}.aside", aside)
            code = os.waitstatus_to_exitcode(status)
            failed |= code != 0
            print(f"{name:<10} {wall:>8.1f} {usage.ru_maxrss / 1024:>9.0f} {code:>5}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(sys.argv[1]))
    work = tempfile.mkdtemp(prefix="qamatch-paper-scale-")
    try:
        sys.exit(main(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
