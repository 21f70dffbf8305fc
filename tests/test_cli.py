import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from patchmix import cli, workflow
from patchmix.cli import (
    BEST_INDIVIDUAL_FILE,
    CONFIG_SNAPSHOT_FILE,
    FINAL_METRICS_FILE,
    FINAL_MODEL_FILE,
    FITNESS_METRICS_FILE,
    FITNESS_MODEL_FILE,
    GUIDED_MANIFEST_FILE,
    SEARCH_HISTORY_FILE,
    DatasetConfig,
    RunConfig,
    build_datasets,
    load_run_config,
    main,
    run_boundary_demo,
    run_config_from_dict,
    run_config_to_dict,
    save_config_snapshot,
)
from patchmix.data import Dataset, load_dataset, save_dataset, synth_shapes
from patchmix.errors import ConfigError, FormatError, NumericError
from patchmix.evolution import (
    Individual,
    SearchConfig,
    load_individual,
    save_individual,
    slot_pairs,
)
from patchmix.model import ReferenceModel, TrainConfig, load_model, save_model

from test_data import make_cifar_bytes


def config_data(output_dir, **overrides):
    data = {
        "dataset": {
            "kind": "synth",
            "class_count": 3,
            "image_size": 16,
            "train_per_class": 15,
            "val_per_class": 6,
            "seed": 3,
        },
        "train": {
            "epochs": 3,
            "batch_size": 30,
            "hidden_dim": 16,
            "grid_size": 2,
            "seed": 7,
        },
        "search": {
            "population_size": 8,
            "generations": 2,
            "pairs_per_combo": 3,
            "patience": 5,
            "seed": 7,
        },
        "output_dir": str(output_dir),
    }
    for section, values in overrides.items():
        if isinstance(values, dict):
            data[section].update(values)
        else:
            data[section] = values
    return data


def write_config(tmp_path, output_dir, **overrides):
    path = tmp_path / "run_config.json"
    path.write_text(json.dumps(config_data(output_dir, **overrides)))
    return path


def digests(run_dir):
    """sha256 of every file of ``run_dir``, by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in run_dir.iterdir()}


def stdout_value(capsys, key):
    for line in capsys.readouterr().out.splitlines():
        if line.startswith(key + ","):
            return line.split(",", 1)[1]
    raise AssertionError(f"no {key} line in output")


class TestRunConfig:
    def test_roundtrip_preserves_fields(self, tmp_path):
        cfg = run_config_from_dict(config_data(tmp_path / "x"))
        back = run_config_from_dict(run_config_to_dict(cfg))
        assert back == cfg

    def test_empty_sections_use_defaults(self):
        cfg = run_config_from_dict({})
        assert cfg.dataset == DatasetConfig()
        assert cfg.train == TrainConfig()
        assert cfg.search == SearchConfig()

    def test_unknown_root_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key bogus"):
            run_config_from_dict({"bogus": 1})

    def test_unknown_section_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key train.bogus"):
            run_config_from_dict({"train": {"bogus": 1}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="section train"):
            run_config_from_dict({"train": 5})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            run_config_from_dict([1, 2])

    def test_cifar_requires_paths(self):
        with pytest.raises(
            ConfigError, match=r"missing config key dataset.train_path"
        ):
            run_config_from_dict({"dataset": {"kind": "cifar"}})

    def test_integer_for_a_float_and_null_for_an_optional_field_accepted(self, tmp_path):
        cfg = run_config_from_dict(
            config_data(tmp_path, train={"lr0": 1}, search={"max_active_pairs": None})
        )
        assert cfg.train.lr0 == 1 and cfg.search.max_active_pairs is None
        # The snapshot keeps the integer as it was written.
        save_config_snapshot(cfg, tmp_path)
        assert json.loads((tmp_path / CONFIG_SNAPSHOT_FILE).read_text())["train"]["lr0"] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_run_config(path)

    def test_snapshot_normalizes_output_dir(self, tmp_path):
        cfg_a = run_config_from_dict(config_data(tmp_path / "a"))
        cfg_b = run_config_from_dict(config_data(tmp_path / "b"))
        for cfg, sub in ((cfg_a, "a"), (cfg_b, "b")):
            (tmp_path / sub).mkdir()
            save_config_snapshot(cfg, tmp_path / sub)
        bytes_a = (tmp_path / "a" / CONFIG_SNAPSHOT_FILE).read_bytes()
        bytes_b = (tmp_path / "b" / CONFIG_SNAPSHOT_FILE).read_bytes()
        assert bytes_a == bytes_b
        reloaded = load_run_config(tmp_path / "a" / CONFIG_SNAPSHOT_FILE)
        assert reloaded.output_dir == "."
        assert reloaded.train == cfg_a.train
        assert reloaded.search == cfg_a.search
        assert reloaded.dataset == cfg_a.dataset


class TestBuildDatasets:
    def test_synth_counts(self):
        train, val = build_datasets(
            DatasetConfig(train_per_class=15, val_per_class=6, seed=3)
        )
        assert len(train) == 45
        assert len(val) == 18

    def test_toy_layout(self):
        train, val = build_datasets(
            DatasetConfig(kind="toy", train_per_class=10, val_per_class=5)
        )
        assert train.images.shape == (30, 1, 2, 1)
        assert train.class_count == 3

    def test_val_seed_defaults_to_seed_plus_one(self):
        implicit = build_datasets(DatasetConfig(seed=5, val_per_class=4))[1]
        explicit = build_datasets(DatasetConfig(seed=5, val_seed=6, val_per_class=4))[1]
        np.testing.assert_array_equal(implicit.images, explicit.images)

    def test_cifar_kind_reads_binary_batches(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("train.bin", "val.bin"):
            (tmp_path / name).write_bytes(make_cifar_bytes([0, 1, 2, 3], rng=rng))
        train, val = build_datasets(
            DatasetConfig(
                kind="cifar",
                train_path=str(tmp_path / "train.bin"),
                val_path=str(tmp_path / "val.bin"),
            )
        )
        assert train.images.shape == (4, 32, 32, 3)
        assert val.class_count == 10

    def test_cifar_kind_reads_dataset_files(self, tmp_path, capsys):
        train, val = build_datasets(DatasetConfig(train_per_class=15, val_per_class=6, seed=3))
        save_dataset(train, tmp_path / "train.pmxd")
        save_dataset(val, tmp_path / "val.pmxd")
        dataset = {
            "kind": "cifar",
            "train_path": str(tmp_path / "train.pmxd"),
            "val_path": str(tmp_path / "val.pmxd"),
        }
        cfg_path = write_config(tmp_path, tmp_path / "run", dataset=dataset)
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        loaded = build_datasets(DatasetConfig(**dataset))
        for got, saved in zip(loaded, (train, val)):
            assert got.images.tobytes() == saved.images.tobytes()
            np.testing.assert_array_equal(got.labels, saved.labels)
            assert got.class_count == 3


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train-random", "--config", str(tmp_path / "none.json")])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["train-random", "--config", str(path)]) == 2

    def test_unknown_key_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trian": {}}))
        assert main(["train-random", "--config", str(path)]) == 2
        assert "unknown config key trian" in capsys.readouterr().err

    def test_search_requires_fitness_model(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "run")
        assert main(["search", "--config", str(cfg_path)]) == 2
        assert "run train-random first" in capsys.readouterr().err

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "run", threads=2)
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert "unknown config key threads" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--config", str(cfg_path), "--threads", "2"])
        assert exc.value.code == 2

    def test_toy_class_count_other_than_three_rejected(self, tmp_path, capsys):
        toy = {"kind": "toy", "class_count": 5, "train_per_class": 10, "val_per_class": 5}
        cfg_path = write_config(tmp_path, tmp_path / "run", dataset=toy, train={"grid_size": 1})
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert "dataset.class_count must be 3 for kind 'toy'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", [None, "synth", "toy"])
    @pytest.mark.parametrize("key", ["train_path", "val_path"])
    def test_path_for_a_kind_other_than_cifar_exits_2(self, tmp_path, capsys, kind, key):
        # Without "kind" the config falls back to "synth", which reads no file.
        data = config_data(tmp_path / "run", train={"grid_size": 1} if kind == "toy" else {})
        data["dataset"].pop("kind")
        if kind is not None:
            data["dataset"]["kind"] = kind
        data["dataset"][key] = str(tmp_path / "data_batch_1.bin")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"dataset.{key} is read only for kind 'cifar'" in err
        assert f"got kind {kind or 'synth'!r}" in err
        assert not (tmp_path / "run").exists()

    def test_validation_set_without_a_class_exits_2_before_phase_one(self, tmp_path, capsys):
        train, val = build_datasets(DatasetConfig(train_per_class=15, val_per_class=6, seed=3))
        save_dataset(train, tmp_path / "train.pmxd")
        save_dataset(val.subset(np.flatnonzero(val.labels != 1)), tmp_path / "val.pmxd")
        dataset = {
            "kind": "cifar",
            "train_path": str(tmp_path / "train.pmxd"),
            "val_path": str(tmp_path / "val.pmxd"),
        }
        cfg_path = write_config(tmp_path, tmp_path / "run", dataset=dataset)
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert "validation set has no samples of class 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_alpha_key_is_unknown(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "run", train={"alpha": 1.0})
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert "unknown config key train.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, expected",
        [
            ("train", "epochs", "3", "an integer"),
            (None, "output_dir", 5, "a string"),
            ("dataset", "class_count", 2.5, "an integer"),
            ("train", "lr0", True, "a number"),
            ("search", "force_same_class", 0, "a boolean"),
            ("search", "max_active_pairs", [3], "an integer or null"),
            ("dataset", "seed", None, "an integer"),
        ],
    )
    def test_value_of_another_json_type_exits_2(self, tmp_path, capsys, section, key, value, expected):
        data = config_data(tmp_path / "run")
        (data[section] if section else data)[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["train-random", "--config", str(path)]) == 2
        name = f"{section}.{key}" if section else key
        want = f"error: config key {name} must be {expected}, got {json.dumps(value)}\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "lr0", float("nan")),
            ("train", "lr0", float("inf")),
            ("train", "weight_decay", float("nan")),
            ("train", "eta_min", float("nan")),
            ("search", "val_fraction", float("-inf")),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, value):
        # Python's json reads and writes NaN, Infinity and -Infinity.
        data = config_data(tmp_path / "run", train={"epochs": 1})
        data[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["train-random", "--config", str(path)]) == 2
        want = f"error: config key {section}.{key} must be a finite number, got {json.dumps(value)}\n"
        assert capsys.readouterr().err == want
        assert not (tmp_path / "run").exists()

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg_path = write_config(
            tmp_path, run_dir, search={"objective": "min_lp"}
        )
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        # Corrupt the checkpoint with non-finite weights: the loss-based
        # search objective must fail numerically, not silently.
        model = load_model(run_dir / FITNESS_MODEL_FILE)
        model.w_embed[:] = np.nan
        save_model(model, run_dir / FITNESS_MODEL_FILE)
        capsys.readouterr()
        assert main(["search", "--config", str(cfg_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_eval_missing_model_file(self, tmp_path, capsys):
        dataset = tmp_path / "d.pmxd"
        save_dataset(build_datasets(DatasetConfig(val_per_class=2))[1], dataset)
        code = main(["eval", "--model", str(tmp_path / "no.pmxm"), "--dataset", str(dataset)])
        assert code == 2

    def test_eval_junk_dataset(self, tmp_path, capsys):
        model_path = tmp_path / "m.pmxm"
        save_model(
            ReferenceModel.initialize(2, 3, 4, 192, np.random.default_rng(0)),
            model_path,
        )
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x01\x02\x03")
        assert main(["eval", "--model", str(model_path), "--dataset", str(junk)]) == 2

    @pytest.mark.parametrize("attack", [[], ["--attack", "fgsm"]], ids=["clean", "fgsm"])
    def test_eval_refuses_a_dataset_of_another_class_count(self, tmp_path, capsys, attack):
        model_path, dataset_path = tmp_path / "m.pmxm", tmp_path / "d.pmxd"
        save_model(ReferenceModel.initialize(2, 3, 4, 192, np.random.default_rng(0)), model_path)
        save_dataset(synth_shapes(10, 16, 2, seed=1), dataset_path)
        argv = ["eval", "--model", str(model_path), "--dataset", str(dataset_path), *attack]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "model scores 3 classes, dataset has 10" in captured.err

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["boundary-demo", "--method", "sorcery", "--out", str(tmp_path / "o.csv")])


class TestTrainRandomCommand:
    def test_artifacts_and_output(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir)
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        for name in (FITNESS_MODEL_FILE, FITNESS_METRICS_FILE, CONFIG_SNAPSHOT_FILE):
            assert (run_dir / name).exists(), name
        out = capsys.readouterr().out
        values = dict(
            line.split(",", 1) for line in out.splitlines() if "," in line
        )
        assert 0.0 <= float(values["val_top1"]) <= 1.0
        assert 0.0 <= float(values["val_patch_acc"]) <= 1.0
        snapshot = load_run_config(run_dir / CONFIG_SNAPSHOT_FILE)
        assert snapshot.output_dir == "."

    def test_same_config_same_bytes(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, tmp_path / "a")
        main(["train-random", "--config", str(cfg_a)])
        cfg_b_path = tmp_path / "cfg_b.json"
        cfg_b_path.write_text(json.dumps(config_data(tmp_path / "b")))
        main(["train-random", "--config", str(cfg_b_path)])
        assert (tmp_path / "a" / FITNESS_MODEL_FILE).read_bytes() == (
            tmp_path / "b" / FITNESS_MODEL_FILE
        ).read_bytes()
        assert (tmp_path / "a" / CONFIG_SNAPSHOT_FILE).read_bytes() == (
            tmp_path / "b" / CONFIG_SNAPSHOT_FILE
        ).read_bytes()

    def test_seed_override_changes_model(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, tmp_path / "a")
        main(["train-random", "--config", str(cfg_a)])
        cfg_b_path = tmp_path / "cfg_b.json"
        cfg_b_path.write_text(json.dumps(config_data(tmp_path / "b")))
        main(["train-random", "--config", str(cfg_b_path), "--seed", "99"])
        assert (tmp_path / "a" / FITNESS_MODEL_FILE).read_bytes() != (
            tmp_path / "b" / FITNESS_MODEL_FILE
        ).read_bytes()


class TestPhaseCommands:
    def test_full_chain(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir)

        assert main(["train-random", "--config", str(cfg_path)]) == 0
        capsys.readouterr()

        assert main(["search", "--config", str(cfg_path)]) == 0
        best_score = float(stdout_value(capsys, "best_score"))
        assert np.isfinite(best_score)
        assert (run_dir / BEST_INDIVIDUAL_FILE).exists()
        assert (run_dir / SEARCH_HISTORY_FILE).exists()

        assert main(["generate", "--config", str(cfg_path)]) == 0
        assert stdout_value(capsys, "guided_samples") == "45"
        assert (run_dir / GUIDED_MANIFEST_FILE).exists()

        assert main(["train-guided", "--config", str(cfg_path)]) == 0
        top1 = float(stdout_value(capsys, "val_top1"))
        assert 0.0 <= top1 <= 1.0
        assert (run_dir / FINAL_MODEL_FILE).exists()
        assert (run_dir / FINAL_METRICS_FILE).exists()

    @pytest.mark.parametrize("objective", ["min_patch_acc", "max_lp"])
    def test_phase_commands_write_what_pipeline_writes(self, tmp_path, capsys, objective):
        phases, whole = tmp_path / "phases", tmp_path / "pipeline"
        cfg_path = write_config(tmp_path, phases, search={"objective": objective})
        for command in ("train-random", "search", "generate", "train-guided"):
            assert main([command, "--config", str(cfg_path)]) == 0
        cfg_path = write_config(tmp_path, whole, search={"objective": objective})
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert len(digests(whole)) == 8
        assert digests(phases) == digests(whole)

    def test_each_command_builds_only_the_sets_it_reads(self, tmp_path, capsys, monkeypatch):
        # The config has 15 training and 6 validation images per class.
        built = []

        def counting_synth_shapes(class_count, image_size, per_class, seed):
            built.append(per_class)
            return synth_shapes(class_count, image_size, per_class, seed)

        monkeypatch.setattr(cli, "synth_shapes", counting_synth_shapes)
        cfg_path = write_config(tmp_path, tmp_path / "run")
        for command, sets in [
            ("train-random", [15, 6]),
            ("search", [6]),
            ("generate", [15]),
            ("train-guided", [15, 6]),
            ("pipeline", [15, 6]),
        ]:
            built.clear()
            assert main([command, "--config", str(cfg_path)]) == 0, command
            assert built == sets, command

    def test_generate_requires_search(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, tmp_path / "run")
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["generate", "--config", str(cfg_path)]) == 2
        assert "run search first" in capsys.readouterr().err

    def test_pipeline_command(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        for name in (
            FITNESS_MODEL_FILE,
            FITNESS_METRICS_FILE,
            SEARCH_HISTORY_FILE,
            BEST_INDIVIDUAL_FILE,
            GUIDED_MANIFEST_FILE,
            FINAL_MODEL_FILE,
            FINAL_METRICS_FILE,
            CONFIG_SNAPSHOT_FILE,
        ):
            assert (run_dir / name).exists(), name
        out = capsys.readouterr().out
        assert "best_score," in out and "val_top1," in out


class TestResume:
    """A rerun into a run directory reuses its phase-1 checkpoint only when
    the config snapshot beside it records the settings about to run."""

    @pytest.mark.parametrize(
        "change",
        [
            {"train": {"hidden_dim": 32}},
            {"dataset": {"class_count": 4}},
            {"train": {"grid_size": 4}},
        ],
        ids=["hidden_dim", "class_count", "grid_size"],
    )
    def test_mismatched_checkpoint_refused(self, tmp_path, capsys, change):
        run_dir = tmp_path / "run"
        assert main(["train-random", "--config", str(write_config(tmp_path, run_dir))]) == 0
        checkpoint = (run_dir / FITNESS_MODEL_FILE).read_bytes()
        capsys.readouterr()
        cfg_path = write_config(tmp_path, run_dir, **change)
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert "but the config asks for" in captured.err
        assert captured.out == ""
        assert (run_dir / FITNESS_MODEL_FILE).read_bytes() == checkpoint
        assert not (run_dir / FINAL_MODEL_FILE).exists()

    def test_matching_checkpoint_skips_phase_one(self, tmp_path, capsys, caplog):
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir)
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        checkpoint = (run_dir / FITNESS_MODEL_FILE).read_bytes()
        with caplog.at_level("INFO", logger="patchmix.workflow"):
            assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert any("phase 1 skipped" in r.getMessage() for r in caplog.records)
        assert (run_dir / FITNESS_MODEL_FILE).read_bytes() == checkpoint
        assert (run_dir / FINAL_MODEL_FILE).exists()

    def test_resumed_pipeline_writes_what_a_fresh_one_writes(self, tmp_path, capsys):
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        cfg_path = write_config(tmp_path, resumed)
        assert main(["train-random", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        resumed_out = capsys.readouterr().out
        assert main(["pipeline", "--config", str(write_config(tmp_path, fresh))]) == 0
        assert capsys.readouterr().out == resumed_out
        assert len(digests(fresh)) == 8
        assert digests(resumed) == digests(fresh)

    def test_search_refuses_other_class_count(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train-random", "--config", str(write_config(tmp_path, run_dir))]) == 0
        capsys.readouterr()
        snapshot = (run_dir / CONFIG_SNAPSHOT_FILE).read_bytes()
        cfg_path = write_config(tmp_path, run_dir, dataset={"class_count": 4})
        assert main(["search", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{FITNESS_MODEL_FILE} was made with dataset.class_count = 3" in err
        assert "but the config asks for 4;" in err
        assert (run_dir / CONFIG_SNAPSHOT_FILE).read_bytes() == snapshot
        assert not (run_dir / BEST_INDIVIDUAL_FILE).exists()


class TestResumeSettings:
    """``pipeline`` and ``search`` read a phase-1 checkpoint only when the
    config snapshot beside it records the ``dataset`` and ``train`` settings
    about to run."""

    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train-random", "--config", str(write_config(tmp_path, run_dir))]) == 0
        capsys.readouterr()
        return run_dir

    def refused(self, tmp_path, capsys, run_dir, argv, command="pipeline"):
        before = digests(run_dir)
        assert main([command, "--config", str(tmp_path / "run_config.json"), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert digests(run_dir) == before  # config.json and the checkpoint included
        assert not (run_dir / BEST_INDIVIDUAL_FILE).exists()
        assert not (run_dir / FINAL_MODEL_FILE).exists()
        return captured.err

    def test_other_dataset_train_and_seed_refused(self, tmp_path, capsys, run_dir):
        # Dataset settings are compared first: dataset.seed is named.
        write_config(tmp_path, run_dir, dataset={"seed": 9}, train={"epochs": 1})
        err = self.refused(tmp_path, capsys, run_dir, ["--seed", "99"])
        assert f"{FITNESS_MODEL_FILE} was made with dataset.seed = 3" in err
        assert "but the config asks for 9" in err

    def test_search_with_another_seed_refused(self, tmp_path, capsys, run_dir):
        write_config(tmp_path, run_dir)
        err = self.refused(tmp_path, capsys, run_dir, ["--seed", "99"], command="search")
        assert "train.seed = 7" in err and "asks for 99;" in err

    def test_other_train_setting_named(self, tmp_path, capsys, run_dir):
        write_config(tmp_path, run_dir, train={"epochs": 1, "lr0": 0.01})
        err = self.refused(tmp_path, capsys, run_dir, [])
        assert "train.epochs = 3" in err and "asks for 1;" in err

    def test_seed_override_refused(self, tmp_path, capsys, run_dir):
        write_config(tmp_path, run_dir)
        err = self.refused(tmp_path, capsys, run_dir, ["--seed", "99"])
        assert "train.seed = 7" in err and "asks for 99;" in err

    def test_key_only_the_snapshot_has_named(self, tmp_path, capsys, run_dir):
        path = run_dir / CONFIG_SNAPSHOT_FILE
        snapshot = json.loads(path.read_text())
        snapshot["train"]["retired"] = 1
        path.write_text(json.dumps(snapshot))
        write_config(tmp_path, run_dir)
        err = self.refused(tmp_path, capsys, run_dir, [])
        assert "train.retired = 1" in err and "asks for unset;" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"train": {"hidden_dim": 32}},
            {"dataset": {"class_count": 4}},
            {"train": {"grid_size": 4}},
        ],
        ids=["hidden_dim", "class_count", "grid_size"],
    )
    def test_checkpoint_without_snapshot_refused(self, tmp_path, capsys, run_dir, change):
        # With no config.json, nothing records what trained the checkpoint.
        (run_dir / CONFIG_SNAPSHOT_FILE).unlink()
        checkpoint = (run_dir / FITNESS_MODEL_FILE).read_bytes()
        cfg_path = write_config(tmp_path, run_dir, **change)
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert (
            f"{FITNESS_MODEL_FILE} has no record of the settings that made it; "
            "remove it or choose another output_dir"
        ) in captured.err
        assert captured.out == ""
        assert (run_dir / FITNESS_MODEL_FILE).read_bytes() == checkpoint
        assert not (run_dir / CONFIG_SNAPSHOT_FILE).exists()
        assert not (run_dir / FINAL_MODEL_FILE).exists()

    def test_other_search_settings_reuse_the_checkpoint(self, tmp_path, capsys, run_dir):
        checkpoint = (run_dir / FITNESS_MODEL_FILE).read_bytes()
        cfg_path = write_config(tmp_path, run_dir, search={"generations": 1})
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert (run_dir / FITNESS_MODEL_FILE).read_bytes() == checkpoint
        snapshot = json.loads((run_dir / CONFIG_SNAPSHOT_FILE).read_text())
        assert snapshot["search"]["generations"] == 1


class TestGuidedInputs:
    """``generate`` and ``train-guided`` refuse, with exit code 2, a genome
    or manifest that other settings made or that does not fit the training
    set."""

    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["pipeline", "--config", str(write_config(tmp_path, run_dir))]) == 0
        capsys.readouterr()
        return run_dir

    def test_genome_of_another_class_count_refused(self, tmp_path, capsys, run_dir):
        before = digests(run_dir)
        cfg_path = write_config(tmp_path, run_dir, dataset={"class_count": 4})
        for command in ("generate", "train-guided"):
            assert main([command, "--config", str(cfg_path)]) == 2
            captured = capsys.readouterr()
            assert f"{BEST_INDIVIDUAL_FILE} was made with dataset.class_count = 3" in captured.err
            assert captured.out == ""
        assert digests(run_dir) == before

    def test_train_guided_refuses_another_grid(self, tmp_path, capsys, run_dir):
        before = digests(run_dir)
        cfg_path = write_config(tmp_path, run_dir, train={"grid_size": 4})
        assert main(["train-guided", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{BEST_INDIVIDUAL_FILE} was made with train.grid_size = 2" in err
        assert "but the config asks for 4;" in err
        assert digests(run_dir) == before

    @pytest.mark.parametrize("command", ["generate", "train-guided"])
    def test_other_search_settings_refused(self, tmp_path, capsys, run_dir, command):
        before = digests(run_dir)
        cfg_path = write_config(tmp_path, run_dir, search={"generations": 1})
        assert main([command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"{BEST_INDIVIDUAL_FILE} was made with search.generations = 2" in captured.err
        assert captured.out == ""
        assert digests(run_dir) == before

    def test_train_guided_refuses_a_bad_manifest_entry(self, tmp_path, capsys, run_dir):
        path = run_dir / GUIDED_MANIFEST_FILE
        lines = path.read_text().splitlines()
        slot, i, _ = lines[3].split(",")
        lines[3] = f"{slot},{i},-1"
        path.write_text("\n".join(lines) + "\n")
        cfg_path = write_config(tmp_path, run_dir)
        assert main(["train-guided", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"guided set entry 2 ({slot},{i},-1): an image index lies outside [0, 45)" in err

    def test_train_guided_refuses_a_non_integer_manifest_field(self, tmp_path, capsys, run_dir):
        path = run_dir / GUIDED_MANIFEST_FILE
        lines = path.read_text().splitlines()
        lines[1] = "0,3,x"
        path.write_text("\n".join(lines) + "\n")
        assert main(["train-guided", "--config", str(write_config(tmp_path, run_dir))]) == 2
        assert "bad manifest line '0,3,x'" in capsys.readouterr().err


class TestRunDirectory:
    """``config.json`` records the settings that made every artifact of a run
    directory: a command refuses, before it writes anything, to leave an
    artifact in place that other settings made, and records its own
    settings before its phase runs."""

    @pytest.fixture()
    def run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["pipeline", "--config", str(write_config(tmp_path, run_dir))]) == 0
        capsys.readouterr()
        return run_dir

    def test_pipeline_leaves_config_and_the_table_artifacts(self, run_dir):
        listed = [name for files in cli.PHASE_FILES.values() for name in files]
        assert sorted(path.name for path in run_dir.iterdir()) == sorted(
            [CONFIG_SNAPSHOT_FILE, *listed]
        )

    def test_readme_table_matches_the_code(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        rows = readme.split("### Run directory", 1)[1].split("\n\n", 2)[1].splitlines()[2:]
        cells = [[cell.strip(" `") for cell in row.split("|")[1:4]] for row in rows]
        assert cells == [
            [CONFIG_SNAPSHOT_FILE, "every phase", ""],
            *(
                [name, command, ", ".join(cli._made_by(name)[1])]
                for command, files in cli.PHASE_FILES.items() for name in files
            ),
        ]

    def test_train_random_with_other_settings_refused(self, tmp_path, capsys, run_dir):
        before = digests(run_dir)
        cfg_path = write_config(tmp_path, run_dir, train={"epochs": 1})
        assert main(["train-random", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"{SEARCH_HISTORY_FILE} was made with train.epochs = 3" in captured.err
        assert "but the config asks for 1;" in captured.err
        assert captured.out == ""
        assert digests(run_dir) == before

    def test_search_with_other_settings_refused(self, tmp_path, capsys, run_dir):
        before = digests(run_dir)
        cfg_path = write_config(tmp_path, run_dir, search={"generations": 1})
        assert main(["search", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert f"{GUIDED_MANIFEST_FILE} was made with search.generations = 2" in captured.err
        assert captured.out == ""
        assert digests(run_dir) == before

    def test_one_refusal_names_every_stale_artifact(self, tmp_path, capsys, run_dir):
        cfg_path = write_config(tmp_path, run_dir, train={"epochs": 1})
        assert main(["train-random", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        stale = (SEARCH_HISTORY_FILE, BEST_INDIVIDUAL_FILE, GUIDED_MANIFEST_FILE,
                 FINAL_MODEL_FILE, FINAL_METRICS_FILE)
        assert f"{stale[0]} was made with train.epochs = 3" in err
        assert f"remove {', '.join(stale)} or choose another output_dir" in err
        for name in stale:
            (run_dir / name).unlink()
        assert main(["train-random", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("command", ["train-random", "search", "generate", "train-guided"])
    def test_same_settings_accepted(self, tmp_path, capsys, run_dir, command):
        before = digests(run_dir)
        assert main([command, "--config", str(write_config(tmp_path, run_dir))]) == 0
        assert digests(run_dir) == before

    @pytest.mark.parametrize("command", ["search", "generate", "train-guided"])
    def test_missing_input_makes_no_directory(self, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        assert main([command, "--config", str(write_config(tmp_path, run_dir))]) == 2
        assert "first" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_failed_phase_leaves_no_artifact_config_does_not_describe(
        self, tmp_path, capsys, monkeypatch, run_dir
    ):
        def failing_phase(*args, **kwargs):
            raise NumericError("phase 4 failed")

        monkeypatch.setattr(workflow, "train_guided_model", failing_phase)
        cfg_path = write_config(tmp_path, run_dir, search={"generations": 1})
        assert main(["pipeline", "--config", str(cfg_path)]) == 3
        snapshot = json.loads((run_dir / CONFIG_SNAPSHOT_FILE).read_text())
        assert snapshot["search"]["generations"] == 1
        assert not (run_dir / FINAL_MODEL_FILE).exists()
        monkeypatch.undo()
        # The genome the new settings chose is not read under the old ones.
        assert main(["train-guided", "--config", str(write_config(tmp_path, run_dir))]) == 2
        err = capsys.readouterr().err
        assert f"{BEST_INDIVIDUAL_FILE} was made with search.generations = 1" in err


class TestRefusedBeforeWriting:
    """Settings that ``--seed`` or only the datasets refute exit 2 before
    the run directory is touched: one that exists keeps its bytes, and a new
    one is not made."""

    def refused(self, tmp_path, capsys, run_dir, argv, message, **overrides):
        before = digests(run_dir) if run_dir.exists() else None
        cfg_path = write_config(tmp_path, run_dir, **overrides)
        assert main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        if before is None:
            assert not run_dir.exists()
        else:
            assert digests(run_dir) == before

    def test_negative_seed_override_over_a_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train-random", "--config", str(write_config(tmp_path, run_dir))]) == 0
        capsys.readouterr()
        self.refused(
            tmp_path, capsys, run_dir, ["train-random", "--seed", "-1"],
            "seed must be non-negative",
        )

    def test_negative_seed_override_into_a_new_directory(self, tmp_path, capsys):
        self.refused(
            tmp_path, capsys, tmp_path / "run", ["pipeline", "--seed", "-1"],
            "seed must be non-negative",
        )

    def test_search_with_too_many_active_pairs_over_a_run(self, tmp_path, capsys):
        run_dir, two_classes = tmp_path / "run", {"class_count": 2}
        cfg_path = write_config(tmp_path, run_dir, dataset=two_classes)
        for command in ("train-random", "search"):
            assert main([command, "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        self.refused(
            tmp_path, capsys, run_dir, ["search"], "max_active_pairs 100 exceeds 3 pair slots",
            dataset=two_classes, search={"max_active_pairs": 100},
        )

    @pytest.mark.parametrize(
        "search, message",
        [
            ({"max_active_pairs": 100}, "max_active_pairs 100 exceeds 3 pair slots"),
            ({"force_same_class": True, "max_active_pairs": 1},
             "force_same_class needs max_active_pairs >= class_count (1 < 2)"),
        ],
        ids=["too-many", "fewer-than-the-classes"],
    )
    def test_pipeline_with_a_pair_limit_the_classes_refute(
        self, tmp_path, capsys, search, message
    ):
        self.refused(
            tmp_path, capsys, tmp_path / "run", ["pipeline"], message,
            dataset={"class_count": 2}, search=search,
        )

    @pytest.mark.parametrize("command", ["pipeline", "train-random"])
    def test_grid_that_does_not_split_the_images(self, tmp_path, capsys, command):
        self.refused(
            tmp_path, capsys, tmp_path / "run", [command],
            "image 16x16 not divisible by grid size 3", train={"grid_size": 3},
        )


class TestRefusedInsideThePhase:
    """A phase refuses what only its inputs refute before its first write,
    and the command records the run only at that write: a refusal leaves
    the run directory byte-identical."""

    @pytest.fixture()
    def run(self, tmp_path, capsys):
        """A pipeline run of the ``cifar`` kind, read from ``.pmxd`` files
        whose paths, and so whose config, stay put when a file is swapped.
        Returns the run directory, the config path and both dataset paths."""
        sets = build_datasets(DatasetConfig(train_per_class=15, val_per_class=6, seed=3))
        paths = (tmp_path / "train.pmxd", tmp_path / "val.pmxd")
        for dataset, path in zip(sets, paths):
            save_dataset(dataset, path)
        dataset = {"kind": "cifar", "train_path": str(paths[0]), "val_path": str(paths[1])}
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir, dataset=dataset)
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        return run_dir, cfg_path, *paths

    @staticmethod
    def refused(capsys, run_dir, cfg_path, command, message):
        before = digests(run_dir)
        assert main([command, "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert digests(run_dir) == before

    def test_train_guided_with_an_image_index_outside_the_set(self, capsys, run):
        run_dir, cfg_path, _, _ = run
        path = run_dir / GUIDED_MANIFEST_FILE
        lines = path.read_text().splitlines()
        slot, i, _ = lines[3].split(",")
        lines[3] = f"{slot},{i},-1"
        path.write_text("\n".join(lines) + "\n")
        self.refused(
            capsys, run_dir, cfg_path, "train-guided",
            f"guided set entry 2 ({slot},{i},-1): an image index lies outside [0, 45)",
        )

    def test_train_guided_with_a_genome_of_another_grid(self, capsys, run):
        run_dir, cfg_path, _, _ = run
        path = run_dir / BEST_INDIVIDUAL_FILE
        best, max_active = load_individual(path)
        save_individual(Individual(best.head, best.masks[:, :1, :1]), max_active, path)
        self.refused(
            capsys, run_dir, cfg_path, "train-guided",
            "guided set has grid size 1, but train.grid_size is 2",
        )

    def test_train_guided_with_a_genome_of_grid_0(self, capsys, run):
        run_dir, cfg_path, _, _ = run
        path = run_dir / BEST_INDIVIDUAL_FILE
        header, head, *blocks = path.read_text().splitlines()
        c, _, n = header.split()  # "C=.. P=.. N=.."
        pairs = [line for line in blocks if line.startswith("(")]  # mask rows dropped
        path.write_text("\n".join([f"{c} P=0 {n}", head, *pairs]) + "\n")
        self.refused(capsys, run_dir, cfg_path, "train-guided", "grid size must be at least 1")

    def test_search_with_a_validation_set_that_lacks_a_class(self, capsys, run):
        run_dir, cfg_path, _, val_path = run
        val = load_dataset(val_path)
        save_dataset(val.subset(np.flatnonzero(val.labels != 2)), val_path)
        self.refused(
            capsys, run_dir, cfg_path, "search", "validation set has no samples of class 2"
        )

    def test_generate_with_a_training_set_that_lacks_an_active_class(self, capsys, run):
        run_dir, cfg_path, train_path, _ = run
        best, _ = load_individual(run_dir / BEST_INDIVIDUAL_FILE)
        first = min(slot_pairs(3)[best.active_slots(), 0])
        train = load_dataset(train_path)
        save_dataset(train.subset(np.flatnonzero(train.labels != first)), train_path)
        self.refused(
            capsys, run_dir, cfg_path, "generate", f"training set has no samples of class {first}"
        )

    def test_train_random_with_validation_images_of_another_shape(self, capsys, run):
        run_dir, cfg_path, _, val_path = run
        save_dataset(synth_shapes(3, 20, 6, 4), val_path)
        self.refused(
            capsys, run_dir, cfg_path, "train-random", "train and validation image shapes differ"
        )


class TestEvalCommand:
    @pytest.fixture()
    def trained_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg_path = write_config(tmp_path, run_dir)
        main(["pipeline", "--config", str(cfg_path)])
        val = build_datasets(
            DatasetConfig(train_per_class=15, val_per_class=6, seed=3)
        )[1]
        dataset_path = tmp_path / "val.pmxd"
        save_dataset(val, dataset_path)
        capsys.readouterr()
        return run_dir / FINAL_MODEL_FILE, dataset_path

    def test_clean_metrics_printed(self, trained_run, capsys):
        model_path, dataset_path = trained_run
        assert main(["eval", "--model", str(model_path), "--dataset", str(dataset_path)]) == 0
        top1 = float(stdout_value(capsys, "clean_top1"))
        assert 0.0 <= top1 <= 1.0

    def test_zero_epsilon_attack_equals_clean(self, trained_run, capsys):
        model_path, dataset_path = trained_run
        main(["eval", "--model", str(model_path), "--dataset", str(dataset_path)])
        clean = stdout_value(capsys, "clean_top1")
        main(
            [
                "eval", "--model", str(model_path), "--dataset", str(dataset_path),
                "--attack", "fgsm", "--epsilon", "0.0",
            ]
        )
        assert stdout_value(capsys, "0.0") == clean

    @pytest.mark.parametrize(
        "ladder",
        [["nan"], ["inf"], ["0.1", "-0.5"], ["0.1", "0.2", "inf"]],
        ids=["nan", "inf", "negative-last", "inf-last"],
    )
    def test_non_finite_epsilon_exits_2(self, trained_run, capsys, ladder):
        # Every epsilon is checked before anything is printed; the bad one is last.
        model_path, dataset_path = trained_run
        argv = ["eval", "--model", str(model_path), "--dataset", str(dataset_path),
                "--attack", "fgsm"]
        for epsilon in ladder:
            argv += ["--epsilon", epsilon]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"epsilon must be finite and non-negative, got {ladder[-1]}" in captured.err
        assert captured.out == ""

    def test_default_epsilon_ladder(self, trained_run, capsys):
        model_path, dataset_path = trained_run
        main(["eval", "--model", str(model_path), "--dataset", str(dataset_path), "--attack", "fgsm"])
        out = capsys.readouterr().out
        for eps in ("0.1,", "0.2,", "0.3,"):
            assert f"\n{eps}" in out

    def test_untrained_model_near_chance(self, tmp_path, capsys):
        # Labels drawn independently of the images: whatever a fixed random
        # model predicts, each sample matches with probability exactly 1/C.
        rng = np.random.default_rng(77)
        n, classes = 400, 4
        images = rng.random((n, 8, 8, 1), dtype=np.float64).astype(np.float32)
        labels = rng.integers(0, classes, n).astype(np.int64)
        dataset = Dataset(images, labels, classes)
        dataset_path = tmp_path / "chance.pmxd"
        save_dataset(dataset, dataset_path)
        model = ReferenceModel.initialize(2, classes, 16, 16, np.random.default_rng(5))
        model_path = tmp_path / "untrained.pmxm"
        save_model(model, model_path)
        assert main(["eval", "--model", str(model_path), "--dataset", str(dataset_path)]) == 0
        top1 = float(stdout_value(capsys, "clean_top1"))
        margin = 2.576 * np.sqrt(0.25 * 0.75 / n)  # 99% binomial interval
        assert abs(top1 - 1.0 / classes) <= margin


class TestBoundaryDemo:
    def test_raster_shape_and_classes(self):
        lines = run_boundary_demo("none", seed=0, samples_per_class=30, epochs=8)
        assert lines[0] == "x,y,class"
        assert len(lines) == 1 + 200 * 200
        preds = {int(line.rsplit(",", 1)[1]) for line in lines[1:]}
        assert preds <= {0, 1, 2}

    def test_cli_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = main(
            [
                "boundary-demo", "--method", "none", "--out", str(out),
                "--seed", "1", "--samples-per-class", "20", "--epochs", "5",
            ]
        )
        assert code == 0
        assert stdout_value(capsys, "grid_rows") == "40000"
        content = out.read_text().splitlines()
        assert len(content) == 40001
        x, y, cls = content[1].split(",")
        float(x), float(y), int(cls)
