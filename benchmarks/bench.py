"""hgm-ehr bench: the criterion-4 desk experiment across master seeds.

    python benchmarks/bench.py --seeds [--jobs 2] [--out seeds.json] [--against parent.json]
    python benchmarks/bench.py --label L [--src S] [--jobs N]

`--seeds` runs the pinned desk experiment (500 synthetic patients, 30 labs,
50 diagnoses, a 12 h window, 10 folds, all three arms; generator seed 20)
at each master seed 101-108, and writes every seed's per-fold AUROC, AUPRC
and test scores per arm to `--out` as JSON. It takes no timings: AUROC is
deterministic, so `--jobs N` runs N seeds at a time.

`--against FILE` compares the run with an earlier one, paired by seed,
arm and fold. Per arm it prints the mean per-fold AUROC difference, the
number of folds whose AUROC changed and the Nadeau-Bengio corrected
resampled t, plus the largest test-score difference. A change is beyond
fold noise when any arm has |t| >= 2.

`--label L` runs what `--seeds` runs and writes `BENCH_L.json` at the
repo root. It holds the host and the code (git sha of `--src`, a sha256 of
its `**/*.py` as perfbench's `src_sha256`, whether git reports uncommitted
changes under it, nproc, load average, CPU model, Python, numpy, the BLAS
entry of `numpy.show_config` and the BLAS kernel that ran), the wall time
of 3 serial desk runs at seed 101,
`train_hgm` steps/s on desk fold 0 over 5 runs with quartiles, and each
seed's mean AUROC per arm. The timed runs come first, one at a time,
before `--jobs` workers start.

The program is imported from `--src`, by default this checkout's `src/`.
To record another commit, point `--src` at that commit's `src/`.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent

SEEDS = tuple(range(101, 109))
ARMS = ("HGM", "CNN", "HGM_CNN")
GEN_SEED = 20
WINDOW = 12
# Criterion 4's corpus and experiment (tests/test_acceptance.py, DESK_*).
DESK_GEN = dict(n_patients=500, n_labs=30, n_diagnoses=50, window_hours=WINDOW, signal=1.0)
DESK_FOLDS = 10
DESK_HGM = dict(epochs=2, learning_rate=0.025, d=16)
DESK_CNN = dict(n_filters=16, kernel=3, epochs=30, batch_size=32, learning_rate=0.05)
# Test/train size ratio of one fold of a 10-fold split.
TEST_TRAIN_RATIO = 1 / 9
NOISE_T = 2.0
# Timed repetitions in a BENCH file.
DESK_RUNS = 3
HGM_RUNS = 5


def desk_config(seed):
    """Criterion 4's generator config and its experiment config at master seed `seed`."""
    from hgm_ehr.cnn import CnnTrainConfig
    from hgm_ehr.evaluate import ExperimentConfig
    from hgm_ehr.hgm import HgmTrainConfig
    from hgm_ehr.ingest import GenConfig

    return GenConfig(**DESK_GEN), ExperimentConfig(
        k_folds=DESK_FOLDS, seed=seed, hgm=HgmTrainConfig(**DESK_HGM),
        cnn=CnnTrainConfig(**DESK_CNN))


def run_seed(seed, gen=None, experiment=None):
    """One experiment at master seed `seed`: {arm: {"auroc", "auprc", "scores"}} per fold.

    `gen` and `experiment` default to criterion 4's configs.
    """
    import numpy as np

    from hgm_ehr.evaluate import run_experiments
    from hgm_ehr.ingest import generate_synthetic, synthetic_vocabulary

    if gen is None or experiment is None:
        gen, experiment = desk_config(seed)
    records = generate_synthetic(gen, seed=GEN_SEED)
    outcomes = run_experiments(records, synthetic_vocabulary(gen), ARMS, gen.window_hours,
                               experiment, jobs=1)
    result = {}
    for arm, outcome in outcomes.items():
        folds = outcome.report.folds
        cuts = np.cumsum([f.n_test for f in folds])[:-1]
        result[arm] = {
            "folds": [f.fold for f in folds],
            "auroc": [f.auroc for f in folds],
            "auprc": [f.auprc for f in folds],
            "scores": [s.tolist() for s in np.split(outcome.scores, cuts)],
        }
    return result


def import_from(src):
    """Import hgm_ehr from the source tree `src` (None: from sys.path as it is)."""
    if src is not None:
        sys.path.insert(0, str(src))


def run_seeds(seeds=SEEDS, jobs=1, src=None, **configs):
    """{str(seed): run_seed(seed)}, `jobs` seeds at a time, hgm_ehr taken from `src`."""
    import_from(src)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn"),
                                 initializer=import_from, initargs=(src,)) as pool:
            results = list(pool.map(_run_seed_task, [(seed, configs) for seed in seeds]))
    else:
        results = [run_seed(seed, **configs) for seed in seeds]
    return {str(seed): result for seed, result in zip(seeds, results)}


def _run_seed_task(task):
    seed, configs = task
    return run_seed(seed, **configs)


def corrected_t(diffs, test_train_ratio=TEST_TRAIN_RATIO):
    """Nadeau & Bengio's (2003) corrected resampled t of paired per-fold differences.

    t = mean / sqrt((1/n + n_test/n_train) * s^2), with s^2 the sample
    variance of the n differences. All-zero differences give 0; identical
    non-zero ones give +-inf.
    """
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1) if n > 1 else 0.0
    if var == 0.0:
        return 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
    return mean / math.sqrt((1 / n + test_train_ratio) * var)


def compare(new, old):
    """Paired per-arm comparison of two `runs` tables over the same seeds and folds.

    Returns {arm: {"folds", "changed", "mean_diff", "t", "max_score_diff"}}.
    """
    if sorted(new) != sorted(old):
        raise ValueError(f"seed sets differ: {sorted(new)} vs {sorted(old)}")
    table = {}
    for arm in ARMS:
        diffs, score_diff = [], 0.0
        for seed in new:
            a, b = new[seed][arm], old[seed][arm]
            if a["folds"] != b["folds"] or [len(s) for s in a["scores"]] != \
                    [len(s) for s in b["scores"]]:
                raise ValueError(f"seed {seed} {arm}: the folds differ")
            diffs += [x - y for x, y in zip(a["auroc"], b["auroc"])]
            for x, y in zip(a["scores"], b["scores"]):
                score_diff = max([score_diff] + [abs(p - q) for p, q in zip(x, y)])
        table[arm] = {
            "folds": len(diffs),
            "changed": sum(d != 0.0 for d in diffs),
            "mean_diff": sum(diffs) / len(diffs),
            "t": corrected_t(diffs),
            "max_score_diff": score_diff,
        }
    return table


def format_comparison(table):
    lines = [f"{'arm':<8} {'changed':>10} {'mean dAUROC':>12} {'corrected t':>12} "
             f"{'max |d score|':>14}"]
    for arm, row in table.items():
        lines.append(f"{arm:<8} {row['changed']:>4} of {row['folds']:<3} "
                     f"{row['mean_diff']:>+12.6f} {row['t']:>+12.2f} {row['max_score_diff']:>14.2e}")
    changed = sum(row["changed"] for row in table.values())
    folds = sum(row["folds"] for row in table.values())
    worst = max(row["max_score_diff"] for row in table.values())
    beyond = any(abs(row["t"]) >= NOISE_T for row in table.values())
    lines.append(f"{changed} of {folds} per-fold AUROCs changed; "
                 f"max |score difference| {worst:.2e}")
    lines.append("beyond fold noise (some arm has |t| >= 2)" if beyond
                 else "within fold noise (|t| < 2 on every arm)")
    return "\n".join(lines)


def seed_means(runs):
    """{seed: {arm: mean per-fold AUROC}} of a `runs` table."""
    return {seed: {arm: sum(result[arm]["auroc"]) / len(result[arm]["auroc"]) for arm in ARMS}
            for seed, result in runs.items()}


def format_means(runs):
    lines = [f"{'seed':<6}" + "".join(f"{arm:>9}" for arm in ARMS) + f"{'HGM_CNN-CNN':>13}"]
    for seed, means in seed_means(runs).items():
        lines.append(f"{seed:<6}" + "".join(f"{means[arm]:>9.4f}" for arm in ARMS)
                     + f"{means['HGM_CNN'] - means['CNN']:>+13.4f}")
    return "\n".join(lines)


def spread(values):
    """Every value with its quartiles (inclusive method) and median."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "q1": q1, "median": median, "q3": q3}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_kernel():
    """The kernel set numpy's OpenBLAS picked when it loaded, such as "SkylakeX", or None.

    An OpenBLAS built for several CPUs picks its kernels at load time, and
    every HGM bit depends on them (README). The name is read through ctypes
    from the BLAS library this process loaded, found in /proc/self/maps or
    else among the libraries numpy's wheel bundles: scipy_openblas_get_corename64_,
    or openblas_get_corename in older wheels. None when neither function exists.
    """
    import ctypes
    import glob

    import numpy as np

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line and ".so" in line})
    except OSError:
        paths = []
    package = Path(np.__file__).parent
    for bundled in (package.parent / "numpy.libs", package / ".dylibs"):
        paths += sorted(glob.glob(str(bundled / "*blas*")))
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(library, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def source_digest(src):
    """sha256 of the source tree `src`: each `**/*.py` file's relative path and bytes,
    in sorted order, as perfbench/run.py's source_digest hashes `src/`."""
    digest = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git(src, *args):
    """stdout of `git -C src args`, or None without git or outside a repository."""
    try:
        done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def environment(src):
    """The host, builds and code a BENCH file was measured on. HEAD names the
    parent commit while a change is uncommitted, so `src_sha256` and `dirty`
    say which code under `src` ran."""
    import numpy as np

    sha = (git(src, "rev-parse", "HEAD") or "").strip() or None
    status = git(src, "status", "--porcelain", "--", ".")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        # the build's name, version and configuration, without its install paths
        blas = {key: value for key, value in blas.items() if "directory" not in key}
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = None
    return {"git_sha": sha, "src_sha256": source_digest(src),
            "dirty": None if status is None else bool(status.strip()),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "cpu": cpu_model(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_kernel": blas_kernel()}


def time_desk_runs(seed, runs=DESK_RUNS):
    """Wall seconds of `runs` serial desk experiments at master seed `seed`."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run_seed(seed)
        times.append(time.perf_counter() - start)
    return {"seed": seed, **spread(times)}


def time_hgm_steps(seed, runs=HGM_RUNS):
    """train_hgm's SGD steps per second on desk fold 0, as train_fold calls it.

    A step is one visit of the P*T schedule, untrainable centers included.
    The fold's other work (binning, the HGM arm's CNN) is left untimed.
    """
    from hgm_ehr import evaluate
    from hgm_ehr.ingest import generate_synthetic, synthetic_vocabulary

    gen, experiment = desk_config(seed)
    fold, train, _ = evaluate.plan_folds(generate_synthetic(gen, seed=GEN_SEED),
                                         experiment.k_folds, seed, gen.window_hours)[0]
    train_hgm, rates = evaluate.train_hgm, []

    def timed(graph, config, seed, **kwargs):
        start = time.perf_counter()
        params = train_hgm(graph, config, seed, **kwargs)
        steps = config.epochs * graph.n_patients * graph.window_hours
        rates.append(steps / (time.perf_counter() - start))
        return params

    with mock.patch.object(evaluate, "train_hgm", timed):
        for _ in range(runs):
            evaluate.train_fold(train, ("HGM",), gen.window_hours, synthetic_vocabulary(gen),
                                experiment, fold)
    return {"seed": seed, "fold": fold, **spread(rates)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", action="store_true",
                        help=f"run the desk experiment at master seeds {SEEDS[0]}-{SEEDS[-1]}")
    parser.add_argument("--jobs", type=int, default=1, help="seeds run at a time")
    parser.add_argument("--out", type=Path, default=Path("seeds.json"), help="JSON to write")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare with")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to import hgm_ehr from")
    parser.add_argument("--label", help="also time the desk run and write BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not (args.seeds or args.label):
        parser.error("nothing to run: pass --seeds or --label")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread, as in perfbench, set before numpy is first imported
    # here or in a worker: the sums inside a gemm stay in one order.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    baseline = json.loads(args.against.read_text()) if args.against else None
    src = args.src.resolve()
    bench = None
    if args.label:
        # timed first and one at a time, before any seed worker starts
        import_from(src)
        bench = {"label": args.label, "environment": environment(src),
                 "desk_run_s": time_desk_runs(SEEDS[0]),
                 "hgm_steps_per_s": time_hgm_steps(SEEDS[0])}
    runs = run_seeds(SEEDS, jobs=args.jobs, src=src)
    record = {
        "gen_seed": GEN_SEED, "seeds": list(SEEDS), "arms": list(ARMS), "window": WINDOW,
        "gen": DESK_GEN, "folds": DESK_FOLDS, "hgm": DESK_HGM, "cnn": DESK_CNN,
        "src": str(src),
        "python": platform.python_version(), "numpy": np.__version__,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(format_means(runs))
    print(f"wrote {args.out}")
    if bench is not None:
        bench["mean_auroc"] = seed_means(runs)
        path = ROOT / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n")
        print(f"wrote {path}")
    if baseline is not None:
        print(f"against {args.against}:")
        print(format_comparison(compare(runs, baseline["runs"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
