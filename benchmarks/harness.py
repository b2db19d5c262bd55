"""One workload's rounds: the operations, their timings and the checks.

A round runs ``qamatch generate``, ``qamatch train`` and ``qamatch eval``
through ``cli.main`` in this process, then a library session through
``load_dataset``, ``load_truth``, ``build_trainer`` and
``QAMatchTrainer.run``. Each operation is timed by ``clock.Clock``. A
traced round runs the same operations with ``tracing.installed``.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import time
from collections import defaultdict

from qamatch import cli, data, trainer
from qamatch.trainer import TrainConfig

import checks
from clock import Clock, release_garbage
import tracing
from workloads import EVAL_REPS, config_text


# Peak RSS is read after this many rounds, not at the end of the run: the
# heap fragments a little more in later rounds, and the number of rounds
# depends on the machine's speed.
PEAK_ROUNDS = 2


class OpFailed(Exception):
    """A CLI command exited with a code other than 0."""


class Bench:
    """One workload's files, samples, operation counts and check results."""

    def __init__(self, workload, seed, work):
        self.wl = workload
        self.seed = seed
        self.data_dir = os.path.join(work, "data")
        self.out_dir = os.path.join(work, "run")
        self.gen_cfg = os.path.join(work, "generate.cfg")
        self.train_cfg = os.path.join(work, "train.cfg")
        with open(self.gen_cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload.generate))
        with open(self.train_cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload.train))
        toggles = {"use_softmix": False, "use_anchor": False} if workload.supervised_only else {}
        self.config = TrainConfig(**{**workload.train, **toggles, "seed": seed})
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.attempted = self.failed = 0
        self.op_errors = []
        self.check_errors = []
        self.reference = {}
        self.totals = tracing.LayerTotals()
        self.traced_rounds = 0
        self.clock = Clock(steps=False)
        self.step_clock = Clock(steps=True)
        self.session = None
        self.step_probe = self.step_clock.probe
        self.round_wall = 0.0
        self.rounds = 0
        self.peak_rss_mib = None

    # ---------------------------------------------------------- operations --

    def timed(self, samples, metric, fn):
        result, wall, units = self.clock.time(fn)
        samples[metric].append(units)
        samples["wall " + metric].append(wall)
        self.round_wall += wall
        return result

    def run_cli(self, argv, metric, samples):
        out = io.StringIO()

        def command():
            with contextlib.redirect_stdout(out):
                return cli.main(argv)

        code = self.timed(samples, metric, command)
        if code != 0:
            raise OpFailed(f"qamatch {argv[0]} exited with {code}")
        return out.getvalue()

    def generate(self, samples):
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.run_cli(["generate", "--out", self.data_dir, "--config", self.gen_cfg,
                      "--seed", str(self.seed)], "generate_s", samples)
        self.verify(self.check_generate)

    def train(self, samples):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["train", "--data", self.data_dir, "--out", self.out_dir,
                "--config", self.train_cfg, "--seed", str(self.seed)]
        if self.wl.supervised_only:
            argv.append("--supervised-only")
        self.run_cli(argv, "train_s", samples)
        self.verify(self.check_train)

    def evaluate(self, samples):
        out = self.run_cli(["eval", "--model", os.path.join(self.out_dir, "model.qam"),
                            "--data", os.path.join(self.data_dir, "test.jsonl")], "eval_s", samples)
        self.verify(lambda: self.check_eval(json.loads(out)))

    def setup(self, samples):
        """The library path a user scripts, up to the first step."""

        def build():
            path = lambda name: os.path.join(self.data_dir, name)
            header, labeled, unlabeled = data.load_dataset(path("train.jsonl"))
            valid_header, valid_records, _ = data.load_dataset(path("valid.jsonl"))
            truth = data.load_truth(path("unlabeled-truth.tsv"))
            return trainer.build_trainer(
                self.config, header, labeled, unlabeled, valid_header, valid_records, truth
            )

        self.session = self.timed(samples, "setup_s", build)

    def run(self, samples):
        """``QAMatchTrainer.run``, timed in windows of ``window_steps`` steps.

        A hook on the session's public ``step`` probes at every window
        boundary, so each window (0.05 to 0.25 s) is corrected by the probes
        on either side of it rather than the whole run by two probes. The
        first window is warm-up and is dropped.
        """
        session, self.session = self.session, None
        every = self.wl.window_steps
        inner = session.step
        marks = []  # (window end, probe seconds, next window start, iteration)

        def step():
            result = inner()
            if session.iteration % every == 0 and session.iteration < self.config.iterations:
                end = time.perf_counter()
                marks.append((end, self.step_probe(), time.perf_counter(), session.iteration))
            return result

        session.step = step
        release_garbage()
        marks.append((None, self.step_probe(), time.perf_counter(), 0))
        records = session.run()
        end = time.perf_counter()
        marks.append((end, self.step_probe(), None, session.iteration))
        del session.step
        walls = [(e - s, it_b - it_a, pa + pb)
                 for (_, pa, s, it_a), (e, pb, _, it_b) in zip(marks, marks[1:])]
        samples["step"].extend(2.0 * wall / steps / probes for wall, steps, probes in walls[1:])
        wall = sum(w for w, _, _ in walls)
        samples["wall run_s"].append(wall)
        self.round_wall += wall
        self.verify(lambda: self.check_replay(session.model, records))

    def round(self, traced: bool) -> None:
        """One closed-loop round; a failed operation fails the rest of it."""
        samples = self.samples[traced]
        ops = [self.generate, self.train] + [self.evaluate] * EVAL_REPS + [self.setup, self.run]
        tracer = tracing.Tracer()
        # a traced round records the probes inside QAMatchTrainer.run as spans
        # of their own, so they are not charged to the run's self time
        self.step_probe = (tracer.wrap("bench.probe", self.step_clock.probe, None)
                           if traced else self.step_clock.probe)
        self.round_wall = 0.0
        self.rounds += 1
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            broken = False
            for op in ops:
                self.attempted += 1
                if broken:
                    self.failed += 1
                    continue
                try:
                    op(samples)
                except Exception as e:  # an operation failed: count it, keep the run going
                    self.failed += 1
                    self.op_errors.append(f"{op.__name__}: {type(e).__name__}: {e}")
                    broken = True
        if self.rounds == PEAK_ROUNDS:
            self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced and not broken:
            before = self.totals.total_self_seconds()
            probes_before = self.totals.self_seconds("bench.probe")
            tracer.fold(self.totals)
            self.traced_rounds += 1
            covered = (self.totals.total_self_seconds() - before
                       - self.totals.self_seconds("bench.probe") + probes_before)
            wall = self.round_wall
            self.verify(lambda: checks.require(
                abs(covered / wall - 1.0) <= 0.10,
                f"trace: layer self times cover {covered:.4f} s of {wall:.4f} s traced wall time"))

    # -------------------------------------------------------------- checks --

    def verify(self, check) -> None:
        try:
            check()
        except Exception as e:  # any exception in a check means the output is wrong
            self.check_errors.append(f"check: {type(e).__name__}: {e}")

    def same_as_first(self, key, value, what):
        first = self.reference.setdefault(key, value)
        checks.require(value == first, f"{what} differs from the first round's")

    def check_generate(self):
        digests = checks.verify_manifest(
            self.data_dir, ["train.jsonl", "valid.jsonl", "test.jsonl", "unlabeled-truth.tsv"]
        )
        if "data" not in self.reference:
            checks.check_splits(self.data_dir, self.wl)
        self.same_as_first("data", digests, "generated data")

    def check_train(self):
        digests = checks.verify_manifest(self.out_dir, ["model.qam", "report.jsonl"])
        records = checks.read_report(os.path.join(self.out_dir, "report.jsonl"))
        checks.check_report(records, self.config.iterations, self.config.eval_interval,
                            self.wl.supervised_only)
        # the first round is never traced, so this also holds traced against untraced
        self.same_as_first("train", digests, "trained model or report")

    def check_eval(self, record):
        with open(os.path.join(self.out_dir, "model.qam"), "rb") as fh:
            blob = fh.read()
        checks.check_eval(blob, os.path.join(self.data_dir, "test.jsonl"), record,
                          len(self.wl.class_names))

    def check_replay(self, model, records):
        with open(os.path.join(self.out_dir, "model.qam"), "rb") as fh:
            blob = fh.read()
        checks.require(checks.encode_model(model.weights, model.biases) == blob,
                       "replay: library model differs from the CLI's model.qam")
        checks.require(records == checks.read_report(os.path.join(self.out_dir, "report.jsonl")),
                       "replay: library report differs from the CLI's report.jsonl")

    # ------------------------------------------------------------- results --

    def seconds(self, metric, traced=False) -> float:
        """Median corrected seconds of one kind of operation (see clock.py)."""
        return self.clock.seconds(statistics.median(self.samples[traced][metric]))

    def steps_per_s(self, traced=False) -> float:
        return 1.0 / self.step_clock.seconds(statistics.median(self.samples[traced]["step"]))

    def raw_summary(self) -> dict:
        """Median raw wall times of the untraced rounds, and the probe's spread."""
        walls = {k[5:]: statistics.median(v) for k, v in self.samples[False].items()
                 if k.startswith("wall ")}
        probes = {}
        for name, clock in (("op_probe", self.clock), ("step_probe", self.step_clock)):
            probes[f"{name}_min_s"] = min(clock.probes)
            probes[f"{name}_median_s"] = statistics.median(clock.probes)
        return {"wall_median_s": walls, **probes}

    def metrics(self, trace: bool) -> dict:
        if trace:
            return tracing.layer_metrics(
                self.totals, self.traced_rounds, self.steps_per_s(False), self.steps_per_s(True)
            )
        out = {"steps_per_s": {"value": self.steps_per_s(), "unit": "steps/s"}}
        for metric in ("setup_s", "train_s", "generate_s", "eval_s"):
            out[metric] = {"value": self.seconds(metric), "unit": "s"}
        out["peak_rss_mb"] = {"value": self.peak_rss_mib, "unit": "MiB"}
        return out
