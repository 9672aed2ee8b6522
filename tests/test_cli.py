import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hgm_ehr
from hgm_ehr.cli import CONFIG_KEYS, RunConfig, load_run_config, main
from hgm_ehr.cnn import CnnTrainConfig
from hgm_ehr.evaluate import ExperimentConfig
from hgm_ehr.hgm import HgmTrainConfig
from hgm_ehr.ingest import GenConfig
from hgm_ehr.sampler import SamplerConfig
from hgm_ehr.seeds import derive_seed

README = Path(__file__).resolve().parents[1] / "README.md"

# every INI key, each set away from its default
EVERY_KEY_INI = """\
[data]
source = synthetic
events = e.csv
diagnoses = d.csv
outcomes = o.csv
vocabulary = v.json
n_patients = 77
n_labs = 5
n_diagnoses = 9
prevalence = 0.2
signal = 0.5

[experiment]
windows = 6, 24
arms = CNN , HGM
folds = 4
seed = 11

[hgm]
d = 32
epochs = 3
learning_rate = 0.05
min_learning_rate = 0.001
activation = relu
context_diagnoses = 4
context_labs = 5
context_copatients = 6
negatives = 7

[cnn]
filters = 8
kernel = 4
epochs = 2
batch_size = 16
learning_rate = 0.02
class_weighting = off

[output]
dir = elsewhere
"""


def write_config(path, out_dir, *, n_patients=24, folds=3, windows="6", arms="CNN,HGM_CNN",
                 seed=9, extra=""):
    path.write_text(f"""\
# test run configuration
[data]
source = synthetic
n_patients = {n_patients}
n_labs = 6
n_diagnoses = 8
prevalence = 0.4
signal = 1.0

[experiment]
windows = {windows}
arms = {arms}
folds = {folds}
seed = {seed}

[hgm]
d = 6
epochs = 2
learning_rate = 0.05
context_diagnoses = 3
context_labs = 3
context_copatients = 3
negatives = 2

[cnn]
filters = 4
kernel = 2
epochs = 4
learning_rate = 0.05

[output]
dir = {out_dir}
{extra}
""")
    return path


# the [data] keys that set the synthetic corpus, which source = files refuses
GEN_KEY_LINE = re.compile(r"^(n_patients|n_labs|n_diagnoses|prevalence|signal) = .*\n", re.M)
# the [data] keys that name input files, which source = synthetic refuses
FILE_KEY_LINE = re.compile(r"^(events|diagnoses|outcomes|vocabulary) = .*\n", re.M)


def files_ini(text):
    """An INI text's source = synthetic made source = files, its synthetic-corpus keys dropped."""
    return GEN_KEY_LINE.sub("", text.replace("source = synthetic", "source = files"))


def files_source(cfg_path, corpus):
    """Point a written config at the corpus that `synth` wrote to corpus."""
    cfg_path.write_text(files_ini(cfg_path.read_text()).replace("source = files", f"""\
source = files
events = {corpus / "events.csv"}
diagnoses = {corpus / "diagnoses.csv"}
outcomes = {corpus / "outcomes.csv"}
vocabulary = {corpus / "vocabulary.json"}"""))
    return cfg_path


def edit_arrays(checkpoint, **edits):
    """Rewrite named arrays of a checkpoint file, each through its edit function."""
    obj = json.loads(checkpoint.read_text())
    for name, edit in edits.items():
        obj["arrays"][name] = edit(obj["arrays"][name])
    checkpoint.write_text(json.dumps(obj, indent=2))


@pytest.fixture(scope="module")
def trained_checkpoints(tmp_path_factory):
    """Train HGM_CNN checkpoints once; each call copies them to a fresh output directory."""
    source = tmp_path_factory.mktemp("trained") / "out"
    cfg_path = write_config(source.parent / "run.ini", source, n_patients=18, folds=2,
                            arms="HGM_CNN")
    assert main(["train", "--config", str(cfg_path)]) == 0

    def copy(tmp_path):
        out = tmp_path / "out"
        shutil.copytree(source, out)
        return out, write_config(tmp_path / "run.ini", out, n_patients=18, folds=2,
                                 arms="HGM_CNN")
    return copy


@pytest.mark.parametrize("target, valid, bad, message", [
    (GenConfig, dict(n_patients=5, n_labs=5, n_diagnoses=5, window_hours=6), dict(prevalence=1.0),
     r"^prevalence must lie in \(0, 1\), got 1\.0$"),
    (SamplerConfig, {}, dict(negatives_per_positive=0),
     "negatives_per_positive must be >= 1, got 0"),
    (HgmTrainConfig, {}, dict(d=1), r"^d must be >= 2, got 1$"),
    (CnnTrainConfig, {}, dict(kernel=0), "kernel must be >= 1, got 0"),
    (HgmTrainConfig, {}, dict(learning_rate=0.0), r"^learning_rate must be positive, got 0\.0$"),
    (HgmTrainConfig, {}, dict(epochs=-1), r"^epochs must be >= 0, got -1$"),
    (CnnTrainConfig, {}, dict(learning_rate=0.0), r"^learning_rate must be positive, got 0\.0$"),
], ids=["GenConfig", "SamplerConfig", "HgmTrainConfig", "CnnTrainConfig",
        "HgmTrainConfig_learning_rate", "HgmTrainConfig_epochs", "CnnTrainConfig_learning_rate"])
def test_config_refuses_a_bad_value_when_built_and_replaced(target, valid, bad, message):
    with pytest.raises(ValueError, match=message):
        target(**valid, **bad)
    with pytest.raises(ValueError, match=message):
        replace(target(**valid), **bad)


def test_splitmix_seed_derivation_is_stable():
    # frozen values pin the documented derivation scheme
    assert derive_seed(0, "kfold") == derive_seed(0, "kfold")
    assert derive_seed(0, "kfold") != derive_seed(1, "kfold")
    assert derive_seed(0, "kfold") != derive_seed(0, "hgm")
    assert derive_seed(7, "hgm", fold=1, window=6) != derive_seed(7, "hgm", fold=2, window=6)
    assert derive_seed(7, "hgm", fold=1, window=6) != derive_seed(7, "hgm", fold=1, window=12)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path / "run.ini", tmp_path / "out"))
        assert cfg.source == "synthetic"
        assert cfg.windows == (6,)
        assert cfg.arms == ("CNN", "HGM_CNN")
        assert cfg.experiment.k_folds == 3
        assert cfg.experiment.seed == 9
        assert cfg.experiment.hgm.d == 6
        assert cfg.experiment.hgm.sampler.n_copatients == 3
        assert cfg.experiment.cnn.n_filters == 4

    def test_every_key_lands_on_its_field(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(files_ini(EVERY_KEY_INI))
        cfg = load_run_config(path)
        assert (cfg.source, cfg.events_file, cfg.diagnoses_file, cfg.outcomes_file,
                cfg.vocabulary_file) == ("files", Path("e.csv"), Path("d.csv"), Path("o.csv"),
                                         Path("v.json"))
        assert (cfg.windows, cfg.arms, cfg.out_dir) == ((6, 24), ("CNN", "HGM"), Path("elsewhere"))
        exp = cfg.experiment
        assert (exp.k_folds, exp.seed) == (4, 11)
        assert exp.hgm == HgmTrainConfig(
            epochs=3, learning_rate=0.05, min_learning_rate=0.001, d=32, activation="relu",
            sampler=SamplerConfig(n_diagnoses=4, n_labs=5, n_copatients=6,
                                  negatives_per_positive=7))
        assert exp.cnn == CnnTrainConfig(n_filters=8, kernel=4, learning_rate=0.02,
                                         batch_size=16, epochs=2, class_weighting=False)
        # the synthetic-corpus keys land on GenConfig once the source is synthetic
        path.write_text(FILE_KEY_LINE.sub("", EVERY_KEY_INI))
        assert load_run_config(path).gen == GenConfig(n_patients=77, n_labs=5, n_diagnoses=9,
                                                      window_hours=24, signal=0.5,
                                                      prevalence=0.2)

    def test_synthetic_corpus_keys_refused_under_files_source(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(EVERY_KEY_INI.replace("source = synthetic", "source = files"))
        with pytest.raises(ValueError) as refused:
            load_run_config(path)
        assert str(refused.value) == (
            f"{path}: [data] n_patients, n_labs, n_diagnoses, prevalence, signal: "
            "synthetic-corpus key(s), not read under source = files")
        path.write_text(files_ini(EVERY_KEY_INI).replace("[experiment]",
                                                         "signal = 0.5\n\n[experiment]"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"hgm-ehr: error: {path}: [data] signal: "
            "synthetic-corpus key(s), not read under source = files\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines, named", [
        ("events = /nonexistent/events.csv", "events"),
        ("vocabulary = v.json", "vocabulary"),
        ("events = e.csv\ndiagnoses = d.csv\noutcomes = o.csv\nvocabulary = v.json",
         "events, diagnoses, outcomes, vocabulary"),
    ], ids=["events", "vocabulary", "all_four"])
    def test_input_file_keys_refused_under_synthetic_source(self, tmp_path, capsys, lines,
                                                           named):
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.ini", out)
        path.write_text(path.read_text().replace("source = synthetic\n",
                                                 f"source = synthetic\n{lines}\n"))
        message = (f"{path}: [data] {named}: input-file key(s), "
                   "not read under source = synthetic")
        with pytest.raises(ValueError) as refused:
            load_run_config(path)
        assert str(refused.value) == message
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"hgm-ehr: error: {message}\n"
        assert not out.exists()

    def test_keys_left_out_keep_dataclass_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("# no keys\n")
        cfg = load_run_config(path)
        assert (cfg.source, cfg.windows, cfg.arms, cfg.out_dir) == \
               ("synthetic", (12,), ("HGM", "CNN", "HGM_CNN"), Path("runs/out"))
        assert cfg.experiment == ExperimentConfig()
        assert (cfg.gen.n_patients, cfg.gen.n_labs, cfg.gen.n_diagnoses) == (200, 30, 50)
        assert (cfg.gen.signal, cfg.gen.prevalence) == (GenConfig.signal, GenConfig.prevalence)

    def test_readme_lists_every_key_with_field_and_default(self, tmp_path):
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `(\w+)\.(\w+)` \| (?:`([^`]+)`|none) \|$",
                          README.read_text(), flags=re.M)
        assert sorted(row[:2] for row in rows) == sorted(CONFIG_KEYS)
        path = tmp_path / "run.ini"
        path.write_text("")
        cfg = load_run_config(path)
        exp = cfg.experiment
        owners = {RunConfig: cfg, GenConfig: cfg.gen, ExperimentConfig: exp,
                  HgmTrainConfig: exp.hgm, SamplerConfig: exp.hgm.sampler, CnnTrainConfig: exp.cnn}
        for section, key, owner, name, default in rows:
            target, field, parse = CONFIG_KEYS[section, key]
            assert (owner, name) == (target.__name__, field), key
            assert getattr(owners[target], field) == (parse(default) if default else None), key

    @pytest.mark.parametrize("line, edited, named", [
        ("d = 6", "d = x", "[hgm] d: invalid literal for int() with base 10: 'x'"),
        ("prevalence = 0.4", "prevalence = high",
         "[data] prevalence: could not convert string to float: 'high'"),
        ("filters = 4", "filters = 4\nclass_weighting = maybe",
         "[cnn] class_weighting: Not a boolean: maybe"),
        ("windows = 6", "windows = 6,twelve",
         "[experiment] windows: invalid literal for int() with base 10: 'twelve'"),
    ], ids=["int", "float", "boolean", "list"])
    def test_bad_value_names_file_section_and_key(self, tmp_path, capsys, line, edited, named):
        path = write_config(tmp_path / "run.ini", tmp_path / "out")
        path.write_text(path.read_text().replace(f"\n{line}\n", f"\n{edited}\n"))
        assert edited in path.read_text()
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"hgm-ehr: error: {path}: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_source_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.ini", tmp_path / "out")
        path.write_text(path.read_text().replace("source = synthetic", "source = database"))
        with pytest.raises(ValueError, match=r"^data source must be 'synthetic' or 'files', "
                                             r"got 'database'$"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.ini", tmp_path / "out", extra="\n[model]\nd = 4\n")
        with pytest.raises(ValueError) as refused:
            load_run_config(path)
        assert str(refused.value) == f"{path}: unknown config section [model]"

    @pytest.mark.parametrize("field, message", [
        ("windows", "at least one window is required"), ("arms", "at least one arm is required"),
    ])
    def test_no_window_or_arm_rejected(self, field, message):
        # an INI cannot list none: an empty list parses as one empty item
        with pytest.raises(ValueError, match=rf"^{message}$"):
            RunConfig(**{field: ()}).validate()

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.ini", tmp_path / "out")
        path.write_text(path.read_text().replace("filters = 4", "filterz = 4"))
        with pytest.raises(ValueError, match="unknown key"):
            load_run_config(path)

    def test_unknown_window_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.ini", tmp_path / "out", windows="7")
        with pytest.raises(ValueError, match="window 7"):
            load_run_config(path)

    def test_unknown_arm_rejected(self, tmp_path):
        path = write_config(tmp_path / "run.ini", tmp_path / "out", arms="CNN,LSTM")
        with pytest.raises(ValueError, match="unknown arm"):
            load_run_config(path)

    @pytest.mark.parametrize("windows, arms, message", [
        ("6,6", "CNN", "window 6 is listed more than once"),
        ("6,12,6", "CNN", "window 6 is listed more than once"),
        ("6", "CNN,CNN", "arm 'CNN' is listed more than once"),
        ("6", "HGM, CNN,HGM", "arm 'HGM' is listed more than once"),
    ], ids=["window", "window_apart", "arm", "arm_spaced"])
    def test_repeated_window_or_arm_rejected(self, tmp_path, windows, arms, message):
        path = write_config(tmp_path / "run.ini", tmp_path / "out", windows=windows, arms=arms)
        with pytest.raises(ValueError, match=message):
            load_run_config(path)

    @pytest.mark.parametrize("line, edited, named", [
        ("epochs = 2", "epochs = 2\nmin_learning_rate = -1.0",
         "[hgm] min_learning_rate must be >= 0, got -1.0"),
        ("epochs = 2", "epochs = 2\nmin_learning_rate = 0.5",
         "[hgm] min_learning_rate must not exceed learning_rate 0.05, got 0.5"),
        ("epochs = 2", "epochs = 2\nactivation = softsign",
         "[hgm] activation must be one of ['relu', 'sigmoid', 'tanh'], got 'softsign'"),
        ("d = 6", "d = 1", "[hgm] d must be >= 2, got 1"),
        ("filters = 4", "filters = 0", "[cnn] filters must be >= 1, got 0"),
        ("epochs = 4", "epochs = -1", "[cnn] epochs must be >= 0, got -1"),
        ("epochs = 4", "epochs = 4\nbatch_size = 0", "[cnn] batch_size must be >= 1, got 0"),
        ("negatives = 2", "negatives = 0", "[hgm] negatives must be >= 1, got 0"),
        ("prevalence = 0.4", "prevalence = 1.5", "[data] prevalence must lie in (0, 1), got 1.5"),
        ("n_patients = 24", "n_patients = 0", "[data] n_patients must be >= 1, got 0"),
        ("n_labs = 6", "n_labs = 0", "[data] n_labs must be >= 1, got 0"),
        ("n_diagnoses = 8", "n_diagnoses = -2", "[data] n_diagnoses must be >= 1, got -2"),
    ], ids=["negative_min_learning_rate", "min_above_learning_rate", "unknown_activation",
            "hgm_d", "cnn_filters", "cnn_epochs", "cnn_batch_size", "hgm_negatives",
            "data_prevalence", "data_n_patients", "data_n_labs", "data_n_diagnoses"])
    def test_bad_hgm_value_rejected(self, tmp_path, capsys, line, edited, named):
        path = write_config(tmp_path / "run.ini", tmp_path / "out")
        path.write_text(path.read_text().replace(f"\n{line}\n", f"\n{edited}\n"))
        assert edited in path.read_text()
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"hgm-ehr: error: {path}: {named}\n"
        assert not (tmp_path / "out").exists()

    def test_kernel_longer_than_window_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path / "run.ini", out, windows="6,12")
        path.write_text(path.read_text().replace("kernel = 2", "kernel = 8"))
        with pytest.raises(ValueError, match=r"kernel 8 is longer than window 6h"):
            load_run_config(path)
        capsys.readouterr()
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == ("hgm-ehr: error: [cnn] kernel 8 is longer than window 6h: "
                       "the convolution needs at least 8 hourly rows")
        assert not out.exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_config(tmp_path / "absent.ini")

    def test_directory_rejected(self, tmp_path):
        # not loaded as a run of all defaults
        with pytest.raises(IsADirectoryError, match=str(tmp_path)):
            load_run_config(tmp_path)

    def test_files_source_requires_paths(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\nsource = files\n")
        with pytest.raises(ValueError, match="requires"):
            load_run_config(path)


class TestSynthCommand:
    def test_writes_expected_row_counts(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        assert main(["synth", "--config", str(cfg_path)]) == 0
        outcomes = (tmp_path / "out" / "outcomes.csv").read_text().strip().splitlines()
        assert len(outcomes) == 1 + 24
        vocab = json.loads((tmp_path / "out" / "vocabulary.json").read_text())
        assert len(vocab["labs"]) == 6
        assert len(vocab["diagnoses"]) == 8

    def test_refused_under_files_source(self, tmp_path, capsys):
        path = files_source(write_config(tmp_path / "run.ini", tmp_path / "out"),
                            tmp_path / "corpus")
        assert main(["synth", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "hgm-ehr: error: synth requires [data] source = synthetic\n"
        assert not (tmp_path / "out").exists()

    def test_same_seed_identical_files(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out_a")
        main(["synth", "--config", str(cfg_path)])
        main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "out_b")])
        for name in ("events.csv", "diagnoses.csv", "outcomes.csv", "vocabulary.json"):
            assert (tmp_path / "out_a" / name).read_bytes() == \
                   (tmp_path / "out_b" / name).read_bytes()

    def test_round_trips_through_parser(self, tmp_path):
        from hgm_ehr.ingest import Vocabulary, generate_synthetic, parse_records
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        cfg = load_run_config(cfg_path)
        main(["synth", "--config", str(cfg_path)])
        out = tmp_path / "out"
        vocab = Vocabulary.load(out / "vocabulary.json")
        records, _ = parse_records(out / "events.csv", out / "diagnoses.csv",
                                   out / "outcomes.csv", vocab)
        expected = generate_synthetic(cfg.gen, derive_seed(cfg.experiment.seed, "synth"))
        assert records == expected


class TestTrainEvalCommands:
    def test_train_writes_checkpoints_then_eval_reports(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=18, folds=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpts = sorted(p.name for p in (out / "checkpoints").glob("*.json"))
        # one shared hgm checkpoint per (window, fold) + one cnn per (arm, window, fold)
        assert ckpts == ["cnn_CNN_w6_f0.json", "cnn_CNN_w6_f1.json",
                         "cnn_HGM_CNN_w6_f0.json", "cnn_HGM_CNN_w6_f1.json",
                         "hgm_w6_f0.json", "hgm_w6_f1.json"]
        assert main(["eval", "--config", str(cfg_path)]) == 0
        reports = sorted(p.name for p in out.glob("report_*.json"))
        assert reports == ["report_CNN_6h.json", "report_HGM_CNN_6h.json"]
        payload = json.loads((out / "report_CNN_6h.json").read_text())
        assert set(payload) == {"arm", "window", "folds", "mean_auroc", "std_auroc",
                                "mean_auprc", "std_auprc"}
        assert payload["window"] == 6

    def test_train_twice_identical_checkpoints(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_path = write_config(tmp_path / "run.ini", out_a, n_patients=14, folds=2,
                                arms="CNN")
        main(["train", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path), "--out", str(out_b)])
        for p in sorted((out_a / "checkpoints").glob("*.json")):
            assert p.read_bytes() == (out_b / "checkpoints" / p.name).read_bytes()

    def test_eval_matches_run_predictions(self, tmp_path, capsys):
        # checkpoint reload reproduces the in-memory pipeline exactly
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=18, folds=2,
                                arms="HGM,CNN,HGM_CNN")
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path)]) == 0
        eval_lines = capsys.readouterr().out.splitlines()
        run_out = tmp_path / "run_out"
        assert main(["run", "--config", str(cfg_path), "--out", str(run_out)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert len(eval_lines) == 3
        assert [line.removeprefix("eval: ") for line in eval_lines] == \
               [line.removeprefix("run: ") for line in run_lines]
        names = sorted(p.name for p in run_out.iterdir())
        assert names == sorted(f"{kind}_{arm}_6h.{ext}" for arm in ("HGM", "CNN", "HGM_CNN")
                               for kind, ext in (("report", "json"), ("roc", "csv"),
                                                 ("pr", "csv")))
        for name in names:
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name

    def test_single_class_folds_are_not_trained(self, tmp_path):
        # 12 patients in 6 folds: the test sets of folds 0 and 2 are single-class
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=12, folds=6, arms="CNN")
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpts = sorted(p.name for p in (out / "checkpoints").glob("*.json"))
        assert ckpts == [f"cnn_CNN_w6_f{f}.json" for f in (1, 3, 4, 5)]
        assert main(["eval", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "report_CNN_6h.json").read_text())
        assert [f["fold"] for f in report["folds"]] == [1, 3, 4, 5]

    @pytest.mark.parametrize("corrupt, named", [
        (lambda ckpt: ckpt.write_text(ckpt.read_text()[:100]), "not valid JSON"),
        (lambda ckpt: ckpt.write_text("[]\n"), "not a hgm-ehr-checkpoint file"),
        (lambda ckpt: edit_arrays(ckpt, dense_w=lambda a: a[:-1]), "array dense_w has shape"),
        (lambda ckpt: edit_arrays(ckpt, dense_w=lambda a: [a[0][:1]] + a[1:]),
         "array dense_w is ragged"),
        (lambda ckpt: edit_arrays(ckpt, conv_bias=lambda a: a + [0.0]),
         "array conv_bias has shape"),
        (lambda ckpt: edit_arrays(ckpt, dense_b=lambda a: [float("nan")] + a[1:]),
         "array dense_b holds non-finite entries, the first at index [0]"),
        (lambda ckpt: edit_arrays(ckpt, dense_w=lambda a: a[:2] + [[a[2][0], -math.inf]] + a[3:]),
         "array dense_w holds non-finite entries, the first at index [2, 1]"),
    ], ids=["truncated", "json_list", "cut_dense_w", "ragged_dense_w", "long_conv_bias",
            "nan_dense_b", "inf_dense_w"])
    def test_eval_names_a_corrupt_cnn_checkpoint(self, trained_checkpoints, tmp_path, capsys,
                                                 corrupt, named):
        out, cfg_path = trained_checkpoints(tmp_path)
        ckpt = out / "checkpoints" / "cnn_HGM_CNN_w6_f0.json"
        corrupt(ckpt)
        assert main(["eval", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hgm-ehr: error: {ckpt}: {named}")
        assert not list(out.glob("report_*.json"))

    @pytest.mark.parametrize("field, edit", [
        ("r_tt", lambda a: a[:-1]),
        ("r_ip", lambda a: a + [0.5]),
        ("w_i", lambda a: a[:-1]),
        ("w_d", lambda a: [row[:-1] for row in a]),
    ], ids=["short_r_tt", "long_r_ip", "short_w_i", "narrow_w_d"])
    def test_eval_names_an_hgm_checkpoint_of_other_dims(self, trained_checkpoints, tmp_path,
                                                        capsys, field, edit):
        out, cfg_path = trained_checkpoints(tmp_path)
        ckpt = out / "checkpoints" / "hgm_w6_f0.json"
        edit_arrays(ckpt, **{field: edit})
        assert main(["eval", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"hgm-ehr: error: {ckpt}: array {field} has shape")

    def test_eval_refuses_checkpoints_of_another_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=18, folds=2, arms="CNN")
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--seed", "10"]) == 1
        err = capsys.readouterr().err
        assert "window 6h fold 0" in err and "other data or another config" in err
        assert "cnn_w6_f0" not in err and "*_w6_f0.json" in err
        assert not list(out.glob("report_*.json"))

    def test_eval_refuses_checkpoints_of_another_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["synth", "--config", str(write_config(tmp_path / "synth.ini", corpus,
                                                    n_patients=18))])
        out = tmp_path / "out"
        cfg_path = files_source(write_config(tmp_path / "run.ini", out, folds=2, arms="CNN"),
                                corpus)
        assert main(["train", "--config", str(cfg_path)]) == 0
        # one in-window lab value changes; patient ids, hours and vocabulary do not
        lines = (corpus / "events.csv").read_text().splitlines()
        patient, hours, lab, _value = lines[1].split(",")
        assert float(hours) < 6
        lines[1] = ",".join([patient, hours, lab, "0.25"])
        (corpus / "events.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path)]) == 1
        assert "other data or another config" in capsys.readouterr().err
        assert not list(out.glob("report_*.json"))

    def test_eval_refuses_checkpoints_without_fingerprint(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=18, folds=2, arms="CNN")
        assert main(["train", "--config", str(cfg_path)]) == 0
        (out / "fold_fingerprints.json").unlink()
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path)]) == 1
        assert "window 6h fold 0" in capsys.readouterr().err
        assert not list(out.glob("report_*.json"))

    @pytest.mark.parametrize("folds, named", [
        (None, "'folds' is missing or not an object"),
        (["w6_f0"], "'folds' is missing or not an object"),
        ({"w6_f0": 7}, "fingerprint 'w6_f0' is not a string"),
    ], ids=["missing_folds", "list_folds", "int_fingerprint"])
    def test_eval_names_a_malformed_fingerprint_file(self, trained_checkpoints, tmp_path, capsys,
                                                     folds, named):
        out, cfg_path = trained_checkpoints(tmp_path)
        path = out / "fold_fingerprints.json"
        obj = json.loads(path.read_text())
        if folds is None:
            del obj["folds"]
        else:
            obj["folds"] = folds
        path.write_text(json.dumps(obj))
        assert main(["eval", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"hgm-ehr: error: {path}: {named}\n"
        assert not list(out.glob("report_*.json"))

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_jobs_belongs_to_run_only(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs, problem", [
        ("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
        ("two", "invalid positive_int value: 'two'"),
    ])
    def test_run_refuses_jobs_below_one(self, tmp_path, capsys, jobs, problem):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"argument --jobs: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_without_checkpoints_fails(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.ini", tmp_path / "out")
        code = main(["eval", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("hgm-ehr: error:")
        assert len(err.strip().splitlines()) == 1


class TestRunCommand:
    def test_end_to_end_reports_and_curves(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path / "run.ini", out, n_patients=18, folds=2)
        assert main(["run", "--config", str(cfg_path)]) == 0
        for arm in ("CNN", "HGM_CNN"):
            report = json.loads((out / f"report_{arm}_6h.json").read_text())
            assert report["arm"] == arm
            assert len(report["folds"]) == 2
            roc = (out / f"roc_{arm}_6h.csv").read_text().splitlines()
            assert roc[0] == "threshold,fpr,tpr"
            pr = (out / f"pr_{arm}_6h.csv").read_text().splitlines()
            assert pr[0] == "threshold,recall,precision"

    def test_missing_input_file_nonzero_exit(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text("""\
[data]
source = files
events = missing_events.csv
diagnoses = missing_dx.csv
outcomes = missing_outcomes.csv
[output]
dir = out
""")
        code = main(["run", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "not found" in err

    def test_single_class_training_split_exits_nonzero(self, tmp_path, capsys):
        # one death among 30 patients in 3 folds: the fold whose test set holds
        # it trains on survivors only
        corpus = tmp_path / "corpus"
        main(["synth", "--config", str(write_config(tmp_path / "synth.ini", corpus,
                                                    n_patients=30))])
        lines = (corpus / "outcomes.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        outcomes = [lines[0]] + [",".join([pid, "1" if i == 0 else "0", end])
                                 for i, (pid, _died, end) in enumerate(rows)]
        (corpus / "outcomes.csv").write_text("\n".join(outcomes) + "\n")
        out = tmp_path / "out"
        cfg_path = files_source(write_config(tmp_path / "run.ini", out, folds=3), corpus)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert re.match(r"hgm-ehr: error: window 6h fold \d: the training split is single-class "
                        r"\(0 of 20 patients died\)", err), err
        assert not out.exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("run.ini").write_text("""\
[data]
source = files
events = missing_events.csv
diagnoses = missing_dx.csv
outcomes = missing_outcomes.csv
[output]
dir = out
""")
        assert main(["run", "--config", "run.ini"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_debug_log_carries_traceback(self, tmp_path):
        env = dict(os.environ, HGM_EHR_LOG="debug",
                   PYTHONPATH=os.pathsep.join([str(Path(hgm_ehr.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hgm_ehr.cli", "run", "--config", str(tmp_path / "absent.ini")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "Traceback (most recent call last)" in proc.stderr
        assert "FileNotFoundError" in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("hgm-ehr: error:")]
        assert errors == ["hgm-ehr: error: config file not found: " + str(tmp_path / "absent.ini")]

    def test_each_call_applies_its_log_level(self, tmp_path, monkeypatch, caplog):
        # two calls in one process, each failing on a missing config: the second,
        # under debug, logs its traceback to the handler pytest installed (caplog's)
        root = logging.getLogger()
        level, config = root.level, str(tmp_path / "absent.ini")
        try:
            monkeypatch.setenv("HGM_EHR_LOG", "warning")
            assert main(["run", "--config", config]) == 1
            assert root.level == logging.WARNING and not caplog.records
            monkeypatch.setenv("HGM_EHR_LOG", "debug")
            assert main(["run", "--config", config]) == 1
            assert root.level == logging.DEBUG
        finally:
            root.setLevel(level)
        assert caplog.handler in root.handlers
        [record] = caplog.records
        assert record.levelno == logging.DEBUG and record.exc_info[0] is FileNotFoundError

    def test_unknown_log_level_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HGM_EHR_LOG", "loud")
        assert main(["run", "--config", str(write_config(tmp_path / "run.ini",
                                                         tmp_path / "out"))]) == 1
        assert capsys.readouterr().err == ("hgm-ehr: error: HGM_EHR_LOG must be one of debug, "
                                           "info, warning, error, critical, got 'loud'\n")
        assert not (tmp_path / "out").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_path = write_config(tmp_path / "run.ini", out_a, n_patients=30, folds=2,
                                arms="CNN")
        main(["run", "--config", str(cfg_path)])
        main(["run", "--config", str(cfg_path), "--seed", "123", "--out", str(out_b)])
        assert (out_a / "report_CNN_6h.json").read_bytes() != \
               (out_b / "report_CNN_6h.json").read_bytes()
        # --seed is the INI's seed, nothing more
        out_c = tmp_path / "c"
        main(["run", "--config", str(write_config(tmp_path / "seed.ini", out_c, n_patients=30,
                                                  folds=2, arms="CNN", seed=123))])
        assert (out_b / "report_CNN_6h.json").read_bytes() == \
               (out_c / "report_CNN_6h.json").read_bytes()
