"""hgm-ehr benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload desk_hgm --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. `--trace 0` repeats the workload for about `--seconds` with tracing off,
timing its set-up several times along the way, and reports end-to-end
medians. `--trace 1` alternates traced and untraced repetitions and reports
per-layer metrics from the traced ones. Either way every repetition's outputs are checked, the
last stdout line is one JSON result, and the exit code is 1 when a check
fails. Records go to `.perfbench_out/`, scratch files to `.perfbench_work/`.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported (jobs=1 throughout).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s", "experiment_s": "s", "train_s": "s", "peak_rss_mb": "MB", "auroc": "ratio",
}
# Printed and recorded, but not in the result line: 0.05-0.3 s per repetition
# is too short to time steadily on a shared 2-core machine.
PRINTED_ONLY_UNITS = {"score_s": "s"}

PER_LAYER_UNITS = {
    "ingest.parse_records_s": "s", "ingest.events_parsed": "count",
    "ingest.fit_normalizer_s": "s", "ingest.normalize_records_s": "s",
    "ingest.bin_events_s": "s", "ingest.bin_events_calls": "count",
    "graph.build_graph_s": "s", "graph.tested_edges": "count",
    "sampler.sample_context_s": "s", "sampler.contexts": "count",
    "sampler.untrainable": "count", "sampler.trainable_ratio": "ratio",
    "sampler.sample_negatives_calls": "count", "sampler.terms_per_context": "count",
    "hgm.train_hgm_s": "s", "hgm.self_s": "s", "hgm.steps_per_s": "1/s",
    "hgm.last_epoch_loss": "nats",
    "cnn.build_features_s": "s", "cnn.build_features_calls": "count",
    "cnn.train_cnn_s": "s", "cnn.train_examples_per_s": "1/s",
    "cnn.predict_s": "s", "cnn.predict_calls": "count",
    "evaluate.metrics_s": "s", "evaluate.curves_s": "s",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s", "checkpoint.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead": "ratio", "trace.residual_share": "ratio",
    "trace.sampler_hgm_share": "ratio",
}

# Counters that must repeat exactly across traced repetitions of one seed.
EXACT_COUNTS = (
    "sampler.contexts", "sampler.untrainable", "sampler.sample_negatives_calls",
    "cnn.predict_calls", "ingest.bin_events_calls", "checkpoint.bytes_written",
    "ingest.events_parsed", "graph.tested_edges", "cnn.build_features_calls",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import hgm_ehr from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hgm_ehr
    location = Path(hgm_ehr.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"hgm_ehr imported from {location}, not from {SRC}")
    return hgm_ehr


def environment(hgm_ehr) -> dict:
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "hgm_ehr": getattr(hgm_ehr, "__version__", None),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def git_sha():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_rep(setup, tracer, label):
    rep_dir = setup.workdir / label
    try:
        with tracer.phase("experiment"):
            result = setup.workload.run(setup.state, setup.seed, tracer, rep_dir)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    times = {
        "experiment_s": tracer.phase_seconds("experiment"),
        "train_s": tracer.phase_seconds("train"),
        "score_s": tracer.phase_seconds("score"),
    }
    return result, times


def check_scores(result, problems, label) -> None:
    problems.extend(f"{label}: {p}" for p in result.problems)
    if not result.aurocs:
        problems.append(f"{label}: no per-fold scores")
    for kind, table in (("AUROC", result.aurocs), ("AUPRC", result.auprcs)):
        for arm, values in table.items():
            for value in values:
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    problems.append(f"{label}: {arm} {kind} {value!r} outside [0, 1]")


def mean_auroc(result) -> float:
    values = [v for arm_values in result.aurocs.values() for v in arm_values]
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced repetition."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return counts.get(f"{name}:calls", 0)

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    center_visits = calls("sampler.Sampler.sample_context")
    untrainable = counts.get("sampler.Sampler.sample_context:raised:UntrainableCenterError", 0)
    contexts = center_visits - untrainable
    train_hgm_s = incl("hgm.train_hgm")
    train_cnn_s = own("cnn.train_cnn")
    m = {
        "ingest.events_parsed": counts.get("ingest.events_parsed", 0),
        "ingest.bin_events_calls": calls("ingest.bin_events"),
        "graph.tested_edges": counts.get("graph.tested_edges", 0),
        "sampler.contexts": contexts,
        "sampler.untrainable": untrainable,
        "sampler.sample_negatives_calls": calls("sampler.Sampler.sample_negatives"),
        "cnn.build_features_calls": calls("cnn.build_features"),
        "cnn.predict_calls": calls("cnn.predict"),
        "checkpoint.bytes_written": counts.get("checkpoint.bytes_written", 0),
    }
    experiment_s = tracer.phase_seconds("experiment")
    train_s = tracer.phase_seconds("train")
    residual = sum(layers.get("residual", 0.0) for layers in tracer.layer_self_by_phase().values())
    m.update({
        "ingest.parse_records_s": own("ingest.parse_records"),
        "ingest.fit_normalizer_s": own("ingest.fit_normalizer"),
        "ingest.normalize_records_s": own("ingest.normalize_records"),
        "ingest.bin_events_s": own("ingest.bin_events"),
        "graph.build_graph_s": own("graph.build_graph"),
        "sampler.sample_context_s": incl("sampler.Sampler.sample_context"),
        "sampler.trainable_ratio": contexts / center_visits if center_visits else 0.0,
        "sampler.terms_per_context": counts.get("sampler.terms", 0) / contexts if contexts else 0.0,
        "hgm.train_hgm_s": train_hgm_s,
        "hgm.self_s": own("hgm.train_hgm"),
        "hgm.steps_per_s": contexts / train_hgm_s if train_hgm_s else 0.0,
        "hgm.last_epoch_loss": tracer.values.get("hgm.last_epoch_loss", 0.0),
        "cnn.build_features_s": own("cnn.build_features"),
        "cnn.train_cnn_s": train_cnn_s,
        "cnn.train_examples_per_s":
            counts.get("cnn.train_examples", 0) / train_cnn_s if train_cnn_s else 0.0,
        "cnn.predict_s": own("cnn.predict"),
        "evaluate.metrics_s": own("evaluate.assemble_outcome", "evaluate.auroc", "evaluate.auprc"),
        "evaluate.curves_s": own("evaluate.roc_points", "evaluate.pr_points"),
        "checkpoint.save_s": own("hgm.save_params", "cnn.save_cnn"),
        "checkpoint.load_s": own("hgm.load_params", "cnn.load_cnn"),
        "cli.self_s": own("cli.main", "cli.cmd_train", "cli.cmd_eval"),
        "trace.residual_share": residual / experiment_s if experiment_s else 0.0,
        "trace.sampler_hgm_share": train_hgm_s / train_s if train_s else 0.0,
    })
    return m


def accounting(tracer) -> dict:
    """{phase: {layer: self seconds}} plus each phase's span, for the traced run's record."""
    table = tracer.layer_self_by_phase()
    return {phase: {"span_s": tracer.phase_seconds(phase), "self_s": layers}
            for phase, layers in table.items()}


def write_spans(tracer, path: Path) -> None:
    import numpy as np
    names, parent, start, end, self_s = tracer.arrays()
    np.savez_compressed(path, names=np.array(tracer.names), layers=np.array(tracer.layers),
                        name=names, parent=parent, start=start, end=end, self_s=self_s)


class TimedSetup:
    """Runs workload.setup, keeps its result as `state` and each call's duration."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times = []
        self.state = None

    def refresh(self) -> None:
        self.state = None  # the old corpus must not count toward peak memory
        start = time.perf_counter()
        self.state = self.workload.setup(self.seed, self.workdir)
        self.times.append(time.perf_counter() - start)


def more_time(start, durations, seconds) -> bool:
    """True while a repetition of median length would end less than half of one past `seconds`."""
    return time.perf_counter() - start + statistics.median(durations) / 2 < seconds


def run_untraced(setup, seconds, problems):
    """Repeat the workload for about `seconds` (at least once), tracing off.

    Before each repetition the set-up is timed again, up to
    workload.setup_per_rep times, until it has workload.setup_reps samples,
    so the samples spread over the run the way the repetitions do.
    """
    from tracer import Tracer
    workload = setup.workload
    reps, durations = [], []
    start = time.perf_counter()
    while not reps or more_time(start, durations, seconds):
        began = time.perf_counter()
        for _ in range(min(workload.setup_per_rep, workload.setup_reps - len(setup.times))):
            setup.refresh()
        result, times = run_rep(setup, Tracer(), f"rep{len(reps)}")
        check_scores(result, problems, f"untraced rep {len(reps)}")
        reps.append((result, times))
        durations.append(time.perf_counter() - began)
    return reps


def run_traced(setup, seconds, problems):
    """Alternate traced and untraced repetitions for about `seconds`.

    Traced first, at least two traced and one untraced, so both kinds see the
    same stretch of machine load and trace.overhead compares like with like.
    """
    from tracer import Tracer
    from workloads import HOOKS
    traced, untraced, durations = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or not untraced or more_time(start, durations, seconds):
        began = time.perf_counter()
        tracer = Tracer()
        if len(traced) <= len(untraced):
            tracer.install(HOOKS)
            try:
                result, times = run_rep(setup, tracer, f"traced{len(traced)}")
            finally:
                tracer.uninstall()
            check_scores(result, problems, f"traced rep {len(traced)}")
            traced.append((result, times, tracer))
        else:
            result, times = run_rep(setup, tracer, f"rep{len(untraced)}")
            check_scores(result, problems, f"untraced rep {len(untraced)}")
            untraced.append((result, times))
        durations.append(time.perf_counter() - began)
    return untraced, traced


def check_repeatable(reps, problems, label) -> None:
    first = reps[0][0]
    for i, rep in enumerate(reps[1:], start=1):
        if rep[0].aurocs != first.aurocs or rep[0].auprcs != first.auprcs:
            problems.append(f"{label} rep {i}: per-fold scores differ from rep 0")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hgm_ehr = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(hgm_ehr)
    problems: list[str] = []
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        setup = TimedSetup(workload, args.seed, workdir)
        setup.refresh()
        if args.trace == 0:
            reps = run_untraced(setup, args.seconds, problems)
            while len(setup.times) < workload.setup_reps:
                setup.refresh()
            check_repeatable(reps, problems, "untraced")
            samples = {"setup_s": setup.times}
            for key in ("experiment_s", "train_s", "score_s"):
                samples[key] = [times[key] for _, times in reps]
            values = {key: statistics.median(v) for key, v in samples.items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["auroc"] = mean_auroc(reps[0][0])
            samples["peak_rss_mb"] = [values["peak_rss_mb"]]
            samples["auroc"] = [values["auroc"]]
            units = END_TO_END_UNITS
            printed = {**END_TO_END_UNITS, **PRINTED_ONLY_UNITS}
            results = [result for result, _ in reps]
        else:
            untraced, traced = run_traced(setup, args.seconds, problems)
            check_repeatable(untraced + [(r, t) for r, t, _ in traced], problems,
                             "traced vs untraced")
            per_rep = [layer_metrics(tracer) for _, _, tracer in traced]
            for key in EXACT_COUNTS:
                seen = {m[key] for m in per_rep}
                if len(seen) > 1:
                    problems.append(f"{key} differs across traced reps: {sorted(seen)}")
            samples = {key: [m[key] for m in per_rep] for key in per_rep[0]}
            values = {key: statistics.median(v) for key, v in samples.items()}
            for key in EXACT_COUNTS:
                values[key] = per_rep[0][key]
            traced_s = statistics.median([t["experiment_s"] for _, t, _ in traced])
            untraced_s = statistics.median([t["experiment_s"] for _, t in untraced])
            values["trace.overhead"] = traced_s / untraced_s - 1.0
            samples["trace.overhead"] = [values["trace.overhead"]]
            units = printed = PER_LAYER_UNITS
            results = [r for r, _ in untraced] + [r for r, _, _ in traced]
            first_tracer = traced[0][2]
            record["absent_hooks"] = first_tracer.absent
            record["accounting"] = accounting(first_tracer)
            OUT_DIR.mkdir(exist_ok=True)
            write_spans(first_tracer, OUT_DIR / f"spans_{workload.name}_seed{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not problems and failed == 0
    arms = {arm: statistics.fmean(v) for arm, v in results[0].aurocs.items()}
    record.update({
        "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
        "fold_error_rate": failed / attempted, "samples": samples, "metrics": values,
        "per_fold_auroc": results[0].aurocs, "per_fold_auprc": results[0].auprcs,
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in printed.items():
        n = len(samples[name])
        print(f"{name:34s} {values[name]:.6g} {unit}" + (f"  (median of {n})" if n > 1 else ""))
    for arm, value in arms.items():
        n_folds = len(results[0].aurocs[arm])
        print(f"{'auroc.' + arm:34s} {value:.6g} ratio  (mean of {n_folds} folds)")
    if {"CNN", "HGM_CNN"} <= arms.keys():
        print(f"{'auroc.margin':34s} {arms['HGM_CNN'] - arms['CNN']:+.6g} ratio")
    print(f"{'fold_error_rate':34s} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} folds)")
    if args.trace == 1 and record["absent_hooks"]:
        print(f"absent hooks: {', '.join(record['absent_hooks'])}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
