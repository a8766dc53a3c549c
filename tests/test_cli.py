import json
from pathlib import Path

import numpy as np
import pytest

from layerlens import cli
from layerlens import data as D
from layerlens import lltn
from layerlens import model as M
from layerlens.cli import main
from layerlens.train import TrainConfig

TINY_ESTIMATOR = {
    "max_steps": 40,
    "samples_per_step": 8,
    "certify_samples": 128,
    "baseline_samples": 128,
    "max_rounds": 6,
}

CNN = {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4}
RESNET = {"architecture": "tiny-resnet", "input_shape": [1, 8, 8], "classes": 4}


def estimator_patch(**fields) -> dict:
    """A one-layer sid config patch with TINY_ESTIMATOR's fields overridden."""
    return {"layers": ["conv1"], "estimator": dict(TINY_ESTIMATOR, **fields)}


@pytest.fixture
def workspace(tmp_path):
    """LLTN dataset + ready-to-edit config skeleton."""
    images, labels = D.make_fourclass_images(n=48, shape=(1, 8, 8), seed=3)
    ip, lp = D.save_lltn_pair(tmp_path / "data" / "train", images, labels)
    return {
        "root": tmp_path,
        "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
        "images": images,
    }


def relabelled(name: str) -> dict:
    """A dataset section for the workspace's images under the labels that
    test_malformed_value_is_config_error saves as `name` in @relabel."""
    return {"format": "lltn", "images": f"@relabel/{name}_images.lltn", "labels": f"@relabel/{name}_labels.lltn"}


def write_config(root: Path, name: str, config: dict) -> str:
    path = root / name
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def run(verb: str, config_path: str, *extra: str) -> int:
    return main([verb, "--config", config_path, *extra])


def assert_same_outputs(left: Path, right: Path) -> None:
    """Every file under `left` exists under `right` with the same bytes, and
    no other; resolved_config.json echoes the outputs path, so it differs."""
    names = sorted(p.relative_to(left) for p in left.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(right) for p in right.rglob("*") if p.is_file())
    for name in names:
        if name.name != "resolved_config.json":
            assert (left / name).read_bytes() == (right / name).read_bytes(), name


def run_serial_and_parallel(root: Path, verb: str, config: dict) -> tuple[int, int]:
    """Run `verb` at --jobs 1 and --jobs 2 into root/serial and root/parallel."""
    codes = []
    for name, jobs in (("serial", "1"), ("parallel", "2")):
        cfg = write_config(root, f"{name}.json", dict(config, outputs=str(root / name)))
        codes.append(run(verb, cfg, "--jobs", jobs))
    assert_same_outputs(root / "serial", root / "parallel")
    return tuple(codes)


class TestTrainVerb:
    def test_emits_checkpoints_and_loss_csv(self, workspace):
        root = workspace["root"]
        cfg = write_config(
            root,
            "train.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "train": {"epochs": 5, "learning_rate": 0.02, "batch_size": 16},
                "outputs": str(root / "run"),
                "seed": 1,
            },
        )
        assert run("train", cfg) == 0
        ckpts = sorted(p.name for p in (root / "run" / "checkpoints").iterdir())
        assert ckpts == [f"epoch_{i:03d}" for i in range(5)]
        lines = (root / "run" / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 6
        resolved = json.loads((root / "run" / "resolved_config.json").read_text())
        assert resolved["tool_version"] and resolved["command"] == "train"

    def test_resume_continues_epoch_numbering(self, workspace):
        root = workspace["root"]
        base = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
            "train": {"epochs": 2, "learning_rate": 0.02},
            "outputs": str(root / "first"),
            "seed": 1,
        }
        assert run("train", write_config(root, "a.json", base)) == 0
        resumed = dict(base)
        resumed["model"] = {"checkpoint": str(root / "first" / "final")}
        resumed["outputs"] = str(root / "second")
        assert run("train", write_config(root, "b.json", resumed)) == 0
        names = sorted(p.name for p in (root / "second" / "checkpoints").iterdir())
        assert names == ["epoch_002", "epoch_003"]

    def test_zero_epochs_leave_a_resumable_checkpoint(self, workspace):
        # no epoch ran, so the final checkpoint names none and a resume starts at 0
        root = workspace["root"]
        base = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
            "train": {"epochs": 0},
            "outputs": str(root / "first"),
        }
        assert run("train", write_config(root, "a.json", base)) == 0
        assert "epoch" not in M.load_checkpoint(root / "first" / "final")[1]
        resumed = dict(base, model={"checkpoint": str(root / "first" / "final")}, train={"epochs": 1})
        resumed["outputs"] = str(root / "second")
        assert run("train", write_config(root, "b.json", resumed)) == 0
        assert [p.name for p in (root / "second" / "checkpoints").iterdir()] == ["epoch_000"]

    def test_same_seed_identical_final_checkpoint(self, workspace):
        root = workspace["root"]
        base = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
            "train": {"epochs": 3, "learning_rate": 0.02},
            "seed": 7,
        }
        for out in ("r1", "r2"):
            cfg = dict(base, outputs=str(root / out))
            assert run("train", write_config(root, f"{out}.json", cfg)) == 0
        for f in sorted((root / "r1" / "final").iterdir()):
            assert f.read_bytes() == (root / "r2" / "final" / f.name).read_bytes(), f.name


class TestSidVerb:
    def _config(self, workspace, out="sid_out", estimator=None, seed=2):
        root = workspace["root"]
        return write_config(
            root,
            f"{out}.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": estimator if estimator is not None else dict(TINY_ESTIMATOR),
                "layers": ["conv2"],
                "inputs": [0],
                "outputs": str(root / out),
                "seed": seed,
            },
        )

    def test_single_input_single_layer_outputs(self, workspace):
        root = workspace["root"]
        assert run("sid", self._config(workspace)) == 0
        out = root / "sid_out"
        for name in (
            "sid_conv2_0.json",
            "sid_conv2_0_H_i.lltn",
            "sid_conv2_0.pgm",
            "sid_conv2_0.pgm.json",
            "resolved_config.json",
        ):
            assert (out / name).exists(), name
        payload = json.loads((out / "sid_conv2_0.json").read_text())
        assert payload["conformant"] is True

    def test_non_conformant_exit_code(self, workspace):
        # the sigma cap, 10x the input's range, is far below this budget
        estimator = dict(TINY_ESTIMATOR, alpha=1e9)
        code = run("sid", self._config(workspace, out="capped", estimator=estimator))
        assert code == 2
        payload = json.loads((workspace["root"] / "capped" / "sid_conv2_0.json").read_text())
        assert payload["conformant"] is False

    def test_byte_identical_rerun(self, workspace):
        root = workspace["root"]
        for out in ("det1", "det2"):
            assert run("sid", self._config(workspace, out=out, seed=5)) == 0
        left, right = root / "det1", root / "det2"
        names = sorted(p.name for p in left.iterdir())
        assert names == sorted(p.name for p in right.iterdir())
        for name in names:
            if name == "resolved_config.json":
                continue  # echoes the config, which differs here in its outputs path
            assert (left / name).read_bytes() == (right / name).read_bytes(), name

    def test_paper_defaults_applied_when_omitted(self, workspace):
        # no estimator section at all: alpha=1.5, tau=0.01 defaults kick in and
        # the run must match an explicit alpha=1.5, tau=0.01 run byte for byte
        root = workspace["root"]
        fast = dict(TINY_ESTIMATOR)
        cfg_default = self._config(workspace, out="dflt", estimator=fast, seed=3)
        cfg_explicit = self._config(
            workspace, out="expl", estimator=dict(fast, alpha=1.5, tau=0.01), seed=3
        )
        assert run("sid", cfg_default) == 0
        assert run("sid", cfg_explicit) == 0
        assert (root / "dflt" / "sid_conv2_0_H_i.lltn").read_bytes() == (
            root / "expl" / "sid_conv2_0_H_i.lltn"
        ).read_bytes()

    def test_jobs_parallelism_outputs_identical(self, workspace):
        root = workspace["root"]
        base = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1", "conv2"],
            "inputs": [0, 1],
            "seed": 6,
        }
        cfg1 = write_config(root, "serial.json", dict(base, outputs=str(root / "serial")))
        cfg4 = write_config(root, "parallel.json", dict(base, outputs=str(root / "parallel")))
        assert run("sid", cfg1) == 0
        assert run("sid", cfg4, "--jobs", "4") == 0
        for p in sorted((root / "serial").iterdir()):
            if p.name == "resolved_config.json":
                continue
            assert p.read_bytes() == (root / "parallel" / p.name).read_bytes(), p.name

    def test_input_shape_defaults_to_the_dataset(self, workspace):
        root = workspace["root"]
        config = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "classes": 4},
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1"],
            "outputs": str(root / "no_shape"),
        }
        assert run("sid", write_config(root, "no_shape.json", config)) in (0, 2)

    def test_alpha_flag_overrides(self, workspace):
        root = workspace["root"]
        assert run("sid", self._config(workspace, out="a15", seed=3)) == 0
        assert run("sid", self._config(workspace, out="a30", seed=3), "--alpha", "3.0") == 0
        assert (root / "a15" / "sid_conv2_0_H_i.lltn").read_bytes() != (
            root / "a30" / "sid_conv2_0_H_i.lltn"
        ).read_bytes()


class TestRuVerb:
    def test_outputs_and_decoder_checkpoint(self, workspace):
        root = workspace["root"]
        cfg = write_config(
            root,
            "ru.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": dict(TINY_ESTIMATOR),
                "decoder": {"epochs": 3, "learning_rate": 0.01, "loss": "mse"},
                "layers": ["conv1"],
                "inputs": [0],
                "outputs": str(root / "ru_out"),
                "seed": 2,
            },
        )
        code = run("ru", cfg)
        assert code in (0, 2)  # tiny decoder budget may leave epsilon off-target
        out = root / "ru_out"
        assert (out / "ru_conv1_0.json").exists()
        assert (out / "ru_conv1_0_H_hat_i.lltn").exists()
        assert (out / "ru_conv1_0.pgm").exists()
        assert (out / "decoder_conv1" / "graph.json").exists()


    def test_worker_processes_write_identical_files(self, workspace):
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "decoder": {"epochs": 2, "learning_rate": 0.01, "loss": "mse"},
            "layers": ["conv1"],
            "inputs": [0, 1],
            "seed": 2,
        }
        serial, parallel = run_serial_and_parallel(workspace["root"], "ru", config)
        assert serial == parallel
        assert (workspace["root"] / "parallel" / "ru_conv1_1_H_hat_i.lltn").exists()

    def test_feature_no_decoder_fits_is_config_error(self, workspace, capsys):
        # a 4x4 feature map of a 6x6 input: the spatial ratio is not a power of 2
        root = workspace["root"]
        images, labels = D.make_fourclass_images(n=16, shape=(1, 6, 6), seed=3)
        ip, lp = D.save_lltn_pair(root / "six", images, labels)
        specs = [M.conv("c", 2, 3), M.relu("r"), M.flatten("f"), M.dense("logits", 4)]
        M.save_checkpoint(M.build(specs, (1, 6, 6), seed=0), root / "six_ck")
        config = {
            "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
            "model": {"checkpoint": str(root / "six_ck")},
            "estimator": dict(TINY_ESTIMATOR),
            "decoder": {"epochs": 1, "loss": "mse"},
            "layers": ["c"],
            "outputs": str(root / "o"),
        }
        assert run("ru", write_config(root, "six.json", config)) == 3
        err = capsys.readouterr().err
        assert "(2, 4, 4)" in err and "(1, 6, 6)" in err
        assert not (root / "o").exists()

    def test_one_image_dataset_is_config_error(self, workspace, capsys):
        # the 90/10 split gave the one image to validation: "dataset is empty", exit 1
        root = workspace["root"]
        images, labels = D.make_fourclass_images(n=1, shape=(1, 8, 8), seed=3)
        ip, lp = D.save_lltn_pair(root / "one", images, labels)
        config = {
            "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
            "model": CNN,
            **estimator_patch(),
            "decoder": {"epochs": 1, "loss": "mse"},
            "inputs": [0],
            "outputs": str(root / "o"),
        }
        assert run("ru", write_config(root, "one.json", config)) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "1 image(s)" in err and "at least 2" in err
        # refused before the first write: no output directory of a run that never happened
        assert not (root / "o").exists()


class TestConcentrationVerb:
    def test_bbox_mask_csv(self, workspace):
        root = workspace["root"]
        cfg = write_config(
            root,
            "conc.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": dict(TINY_ESTIMATOR),
                "layers": ["conv2"],
                "inputs": [0, 1],
                "mask": {"bbox": {"x": 0, "y": 0, "w": 4, "h": 4}},
                "outputs": str(root / "conc_out"),
                "seed": 2,
            },
        )
        assert run("concentration", cfg) == 0
        from layerlens.report import parse_csv

        rep = parse_csv(root / "conc_out" / "concentration.csv")
        assert len(rep.records) == 1
        assert rep.records[0].concentration is not None
        assert rep.records[0].input_set == "inputs[2]"


class TestCoherencyVerb:
    def _config(self, workspace, diagnostic: bool, out: str):
        root = workspace["root"]
        return write_config(
            root,
            f"{out}.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": dict(TINY_ESTIMATOR, max_steps=60),
                "coherency": {"layer": "conv1", "diagnostic": diagnostic},
                "outputs": str(root / out),
                "seed": 4,
            },
        )

    def test_pass_line_and_csv(self, workspace, capsys):
        root = workspace["root"]
        assert run("coherency", self._config(workspace, False, "coh")) == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((root / "coh" / "coherency.json").read_text())
        assert payload["passed"] is True and payload["max_abs_delta_h"] <= 1e-6
        from layerlens.report import parse_csv

        rep = parse_csv(root / "coh" / "coherency.csv")
        assert [r.model for r in rep.records] == ["original", "rescaled"]

    def test_diagnostic_mode_fails(self, workspace, capsys):
        assert run("coherency", self._config(workspace, True, "coh_diag")) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_json_keys(self, workspace):
        root = workspace["root"]
        config = json.loads(Path(self._config(workspace, False, "coh_keys")).read_text())
        config["estimator"] = dict(TINY_ESTIMATOR, max_steps=4, max_rounds=1)
        assert run("coherency", write_config(root, "coh_keys.json", config)) in (0, 2)
        payload = json.loads((root / "coh_keys" / "coherency.json").read_text())
        assert sorted(payload) == [
            "conformant",
            "factor",
            "layer",
            "max_abs_delta_h",
            "normalized",
            "output_max_diff",
            "passed",
        ]


class TestDamageVerb:
    def test_damage_column_groups(self, workspace):
        root = workspace["root"]
        cfg = write_config(
            root,
            "damage.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-resnet", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": dict(TINY_ESTIMATOR),
                "train": {"epochs": 2, "learning_rate": 0.02},
                "damage": {"positions": [1, 2], "n_filters": 8},
                "inputs": [0],
                "outputs": str(root / "damage_out"),
                "seed": 3,
            },
        )
        code = run("damage", cfg)
        assert code in (0, 2)
        from layerlens.report import parse_csv

        rep = parse_csv(root / "damage_out" / "damage.csv")
        assert sorted({r.model for r in rep.records}) == ["damaged@1", "damaged@2", "original"]
        summary = json.loads((root / "damage_out" / "damage_summary.json").read_text())
        assert set(summary["delta_H_total_vs_original"]) == {"damaged@1", "damaged@2"}

    def test_nan_row_writes_null_delta(self, workspace, monkeypatch):
        # the original model's block2 cell fails, so it is a NaN row and both
        # deltas at block2 are unknown: strict JSON null, not a bare NaN
        from layerlens import report
        from layerlens.sid import DegenerateLayerError

        estimate_cell, seen = report._estimate_cell, []

        def first_block2_fails(m, layer, inputs, cfg):
            seen.append(layer)
            if seen.count("block2") == 1 and layer == "block2":
                raise DegenerateLayerError("block2: forced")
            return estimate_cell(m, layer, inputs, cfg)

        monkeypatch.setattr(report, "_estimate_cell", first_block2_fails)
        root = workspace["root"]
        cfg = write_config(
            root,
            "damage_nan.json",
            {
                "dataset": workspace["dataset"],
                "model": RESNET,
                "estimator": dict(TINY_ESTIMATOR),
                "train": {"epochs": 1, "learning_rate": 0.02},
                "damage": {"positions": [1]},
                "layers": ["block1", "block2"],
                "inputs": [0],
                "outputs": str(root / "damage_nan"),
                "seed": 3,
            },
        )
        assert run("damage", cfg) in (0, 2)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (root / "damage_nan" / "damage_summary.json").read_text()
        deltas = json.loads(text, parse_constant=reject)["delta_H_total_vs_original"]
        assert deltas["damaged@1"]["block2"] is None
        assert isinstance(deltas["damaged@1"]["block1"], float)


    def test_worker_processes_write_identical_files(self, workspace):
        config = {
            "dataset": workspace["dataset"],
            "model": RESNET,
            "estimator": dict(TINY_ESTIMATOR),
            "train": {"epochs": 1, "learning_rate": 0.02},
            "damage": {"positions": [1], "n_filters": 8},
            "layers": ["block1", "block3"],
            "inputs": [0],
            "seed": 3,
        }
        serial, parallel = run_serial_and_parallel(workspace["root"], "damage", config)
        assert serial == parallel
        assert (workspace["root"] / "parallel" / "damage_summary.json").exists()

    @pytest.mark.parametrize(
        "patch,message",
        [
            ({"layers": "block1"}, "layers must be"),
            ({"layers": ["block9"]}, "block9"),
            ({"damage": {"positions": [1, 9]}}, "got 9"),
        ],
    )
    def test_bad_grid_rejected_before_training(self, workspace, capsys, monkeypatch, patch, message):
        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained before the config was checked")

        monkeypatch.setattr(cli, "train", no_training)
        config = {
            "dataset": workspace["dataset"],
            "model": RESNET,
            "estimator": dict(TINY_ESTIMATOR),
            "damage": {"positions": [1]},
            "outputs": str(workspace["root"] / "o"),
            **patch,
        }
        assert run("damage", write_config(workspace["root"], "layers.json", config)) == 3
        assert message in capsys.readouterr().err


class TestSweepVerb:
    def test_sweep_over_checkpoints(self, workspace):
        root = workspace["root"]
        train_cfg = write_config(
            root,
            "sweep_train.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "train": {"epochs": 2, "learning_rate": 0.02},
                "outputs": str(root / "sw_train"),
                "seed": 1,
            },
        )
        assert run("train", train_cfg) == 0
        cfg = write_config(
            root,
            "sweep.json",
            {
                "dataset": workspace["dataset"],
                "estimator": dict(TINY_ESTIMATOR),
                "sweep": {
                    "checkpoints": [
                        str(root / "sw_train" / "checkpoints" / "epoch_000"),
                        str(root / "sw_train" / "checkpoints" / "epoch_001"),
                    ]
                },
                "layers": ["conv2"],
                "inputs": [0],
                "outputs": str(root / "sweep_out"),
                "seed": 1,
            },
        )
        assert run("sweep", cfg) in (0, 2)
        from layerlens.report import parse_csv

        rep = parse_csv(root / "sweep_out" / "sweep.csv")
        assert [r.model for r in rep.records] == ["epoch_0", "epoch_1"]

    def test_empty_sweep_is_config_error(self, workspace, capsys):
        root = workspace["root"]
        cfg = write_config(
            root,
            "sweep_empty.json",
            {
                "dataset": workspace["dataset"],
                "estimator": {},
                "sweep": {"checkpoints": []},
                "outputs": str(root / "x"),
                "seed": 1,
            },
        )
        assert run("sweep", cfg) == 3
        assert "empty sweep" in capsys.readouterr().err


class TestReportVerb:
    def _checkpoints(self, root):
        paths = []
        for seed in (1, 2):
            path = root / f"ckpt{seed}"
            M.save_checkpoint(M.tiny_cnn(input_shape=(1, 8, 8), classes=4, seed=seed), path)
            paths.append(str(path))
        return paths

    def test_report_over_checkpoints(self, workspace, capsys):
        root = workspace["root"]
        first, second = self._checkpoints(root)
        cfg = write_config(
            root,
            "report.json",
            {
                "dataset": workspace["dataset"],
                "estimator": dict(TINY_ESTIMATOR),
                "report": {"models": [{"id": "a", "checkpoint": first}, {"checkpoint": second}]},
                "layers": ["conv1", "conv2"],
                "inputs": [0],
                "outputs": str(root / "report_out"),
                "seed": 1,
            },
        )
        assert run("report", cfg) in (0, 2)
        from layerlens.report import parse_csv

        rep = parse_csv(root / "report_out" / "report.csv")
        # a model without an id is named by its checkpoint path
        assert [(r.model, r.layer) for r in rep.records] == [
            ("a", "conv1"),
            ("a", "conv2"),
            (second, "conv1"),
            (second, "conv2"),
        ]
        assert all(r.input_set == "inputs[1]" for r in rep.records)
        assert "report: 2 models x 2 layers done" in capsys.readouterr().out

    @pytest.mark.parametrize("entry", [{"id": "a"}, "just-a-path"])
    def test_entry_without_checkpoint_is_config_error(self, workspace, capsys, entry):
        root = workspace["root"]
        cfg = write_config(
            root,
            "report_bad.json",
            {
                "dataset": workspace["dataset"],
                "report": {"models": [entry]},
                "outputs": str(root / "x"),
            },
        )
        assert run("report", cfg) == 3
        assert "checkpoint" in capsys.readouterr().err


class TestConfigHandling:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, workspace, capsys, jobs):
        cfg = write_config(
            workspace["root"],
            "jobs.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": dict(TINY_ESTIMATOR),
                "layers": ["conv2"],
                "outputs": str(workspace["root"] / "o"),
            },
        )
        assert run("sid", cfg, "--jobs", jobs) == 3
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_capped_at_core_count(self, workspace, monkeypatch, pool_recorder):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR, max_steps=4, max_rounds=1),
            "layers": ["conv1", "conv2"],
            "inputs": [0, 1],
            "outputs": str(workspace["root"] / "o"),
        }
        assert run("sid", write_config(workspace["root"], "many.json", config), "--jobs", "64") in (0, 2)
        assert [(workers, len(cells)) for workers, cells in pool_recorder] == [(3, 4)]

    def test_unknown_top_level_key_rejected(self, workspace, capsys):
        cfg = write_config(
            workspace["root"],
            "bad.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn"},
                "outputs": str(workspace["root"] / "o"),
                "surprise": 1,
            },
        )
        assert run("sid", cfg) == 3
        assert "surprise" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,verb",
        [
            ("dataset", "sid"),
            ("model", "sid"),
            ("estimator", "sid"),
            ("train", "train"),
            ("decoder", "ru"),
            ("mask", "concentration"),
            ("coherency", "coherency"),
            ("damage", "damage"),
            ("sweep", "sweep"),
            ("report", "report"),
        ],
    )
    def test_section_not_an_object_is_config_error(self, workspace, capsys, section, verb):
        config = {"dataset": workspace["dataset"], "outputs": str(workspace["root"] / "o")}
        config[section] = []
        cfg = write_config(workspace["root"], f"{section}.json", config)
        assert run(verb, cfg) == 3
        assert repr(section) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb,patch,key",
        [
            ("sid", {"layers": ["conv1"], "inputs": ["a"]}, "inputs"),
            ("sid", {"layers": ["conv1"], "inputs": [0.7]}, "inputs"),
            # no config key sets the rescale factor: coherency rescales by 4
            ("coherency", {"coherency": {"layer": "conv1", "factor": 4.0}}, "coherency.factor"),
            ("coherency", {"coherency": {"layer": "conv1", "factor": -2}}, "coherency.factor"),
            ("concentration", {"layers": ["conv1"], "mask": {"bbox": {"x": 1}}}, "mask.bbox"),
            ("concentration", {"layers": ["conv1"], "mask": {"bbox": {"x": 0, "y": 0, "w": 0, "h": 4}}}, "mask"),
            ("damage", {"model": RESNET, "damage": {"positions": ["x"]}}, "damage.positions"),
            ("damage", {"model": RESNET, "damage": {"n_filters": 0}}, "damage.n_filters"),
            ("sid", {"layers": ["conv1"], "model": dict(CNN, input_shape=[3, 8, 8])}, "input_shape"),
            ("damage", {"model": RESNET, "train": {"epochs": 2.5}}, "epochs"),
            ("damage", {"model": RESNET, "train": {"batch_size": 2.5}}, "batch_size"),
            ("damage", {"model": RESNET, "train": {"epochs": True}}, "epochs"),
            ("ru", {"layers": ["conv1"], "decoder": {"epochs": 2.5}}, "epochs"),
            ("concentration", {"layers": ["conv1"], "mask": {"pgm": 5}}, "mask.pgm"),
            ("sid", estimator_patch(alpha=float("nan")), "alpha"),
            ("sid", estimator_patch(alpha=float("inf")), "alpha"),
            ("sid", estimator_patch(tau=float("inf")), "tau"),
            # not estimator keys: no config key sets lambda, only
            # coherency.diagnostic sets normalize, and the sigma cap is 10x
            # the input's range
            ("sid", estimator_patch(lambda_init=1.0), "lambda_init"),
            ("sid", estimator_patch(normalize=False), "normalize"),
            ("sid", estimator_patch(sigma_cap=-1.0), "sigma_cap"),
            ("sid", estimator_patch(sigma_cap=float("nan")), "sigma_cap"),
            # nor is the sigma fit's step size, a constant (a case's id holds
            # its position, so the later cases of removed keys are at the end)
            ("sid", estimator_patch(sigma_lr=0.05), "sigma_lr"),
            ("sid", estimator_patch(max_steps=0), "max_steps"),
            ("sid", estimator_patch(max_rounds=0), "max_rounds"),
            ("sid", estimator_patch(baseline_samples=0), "baseline_samples"),
            ("sid", estimator_patch(certify_samples=0), "certify_samples"),
            ("coherency", {"coherency": {"layer": 5}}, "coherency.layer"),
            ("coherency", {"coherency": {"layer": ["conv1"]}}, "coherency.layer"),
            ("coherency", {"coherency": {"layer": "nope"}}, "coherency.layer"),
            ("sid", estimator_patch(lambda_init=None), "lambda_init"),
            ("sid", {"layers": ["conv1"] * 4}, "layers"),
            ("sid", {"layers": ["conv1"], "inputs": [1, 0, 1]}, "inputs"),
            ("damage", {"model": RESNET, "damage": {"positions": [1, 1]}}, "damage.positions"),
            ("damage", {"model": RESNET, "damage": {"positions": []}}, "damage.positions"),
            ("coherency", {"coherency": {"layer": "conv1", "diagnostic": "false"}}, "coherency.diagnostic"),
            ("sweep", {"sweep": {"checkpoints": [5]}}, "sweep.checkpoints"),
            ("sweep", {"sweep": {"checkpoints": "abc"}}, "sweep.checkpoints"),
            ("report", {"report": {"models": [{"checkpoint": 5}]}}, "report.models"),
            # @ckpt/a and @ckpt/b: two checkpoints whose metadata both say epoch 1
            ("sweep", {"sweep": {"checkpoints": ["@ckpt/a", "@ckpt/a"]}}, "sweep.checkpoints"),
            ("sweep", {"sweep": {"checkpoints": ["@ckpt/a", "@ckpt/b"]}}, "sweep.checkpoints"),
            ("report", {"report": {"models": [{"id": "m", "checkpoint": "@ckpt/a"}, {"id": "m", "checkpoint": "@ckpt/b"}]}}, "report.models"),
            ("report", {"report": {"models": [{"checkpoint": "@ckpt/a"}, {"checkpoint": "@ckpt/a"}]}}, "report.models"),
            ("concentration", {"layers": ["conv1"], "mask": {"bbox": {"x": 6, "y": 6, "w": 4, "h": 4}}}, "mask.bbox"),
            ("report", {"report": {"models": [{"id": None, "checkpoint": "@ckpt/a"}]}}, "report.models"),
            ("report", {"report": {"models": [{"idd": "x", "checkpoint": "@ckpt/a"}]}}, "report.models"),
            ("report", {"report": {"models": [{"id": 5, "checkpoint": "@ckpt/a"}]}}, "report.models"),
            # training targets that do not fit the model and its loss
            ("train", {"model": dict(CNN, classes=2)}, "train.loss"),
            ("train", {"train": {"loss": "mse"}}, "train.loss"),
            ("damage", {"model": RESNET, "dataset": relabelled("onehot")}, "train.loss"),
            ("damage", {"model": RESNET, "dataset": relabelled("negative")}, "train.loss"),
            ("ru", {"layers": ["conv1"], "decoder": {"loss": "cross_entropy"}}, "decoder.loss"),
            # compared with the dataset before the build would allocate its parameters
            ("sid", {"layers": ["conv1"], "model": dict(CNN, input_shape=[1, 1000000, 1000000])}, "model.input_shape"),
            # layers coherency cannot rescale: each message names the layer
            ("coherency", {"coherency": {"layer": "relu1"}}, "'relu1' is relu, not conv/dense"),
            ("coherency", {"coherency": {"layer": "flat"}}, "'flat' is flatten, not conv/dense"),
            ("coherency", {"coherency": {"layer": "logits"}}, "'logits' has no linear successor"),
            ("coherency", {"coherency": {"layer": "conv1"}, "inputs": [0, 3]}, "inputs must list exactly one index"),
            # would otherwise reach resolved_config.json, which holds no NaN
            ("train", {"train": {"learning_rate": float("nan")}}, "learning_rate"),
            ("ru", {"layers": ["conv1"], "decoder": {"learning_rate": float("inf")}}, "learning_rate"),
            # "input" is no layer of tiny-cnn: no name is reserved
            ("coherency", {"coherency": {"layer": "input"}}, "unknown layer 'input'"),
            # the conformance band is a constant, and training has one optimizer
            ("sid", estimator_patch(lambda_tolerance=0.1), "lambda_tolerance"),
            ("damage", {"model": RESNET, "train": {"optimizer": "sgd"}}, "optimizer"),
            ("ru", {"layers": ["conv1"], "decoder": {"optimizer": "adam"}}, "optimizer"),
            ("sid", {"layers": ["input"]}, "layers: unknown layer 'input'"),
            ("sid", estimator_patch(sigma_cap=0.02), "sigma_cap"),
            # an architecture is built with the run seed
            ("sid", {"layers": ["conv1"], "model": dict(CNN, seed=1)}, "model.seed"),
        ],
    )
    def test_malformed_value_is_config_error(self, workspace, capsys, verb, patch, key):
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "outputs": str(workspace["root"] / "o"),
            **patch,
        }
        if verb in ("sweep", "report"):  # these load their models from checkpoints
            del config["model"]
            ckpt = workspace["root"] / "ckpt"
            for name in ("a", "b"):
                M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), ckpt / name, {"epoch": 1})
            config = json.loads(json.dumps(config).replace("@ckpt", str(ckpt)))
        if verb == "train":
            del config["estimator"]
        if "@relabel" in json.dumps(config):
            labels = D.load_lltn_pair(workspace["dataset"]["images"], workspace["dataset"]["labels"])[1]
            for name, other in (("onehot", np.eye(4)[labels]), ("negative", labels - 1)):
                D.save_lltn_pair(workspace["root"] / name, workspace["images"], other)
            config = json.loads(json.dumps(config).replace("@relabel", str(workspace["root"])))
        assert run(verb, write_config(workspace["root"], "value.json", config)) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb,patch",
        [
            ("sid", estimator_patch(tau=1e200)),
            ("sid", estimator_patch(alpha=1e308)),
            ("ru", dict(estimator_patch(tau=1e200), decoder={"epochs": 1, "loss": "mse"})),
        ],
        ids=["sid-tau", "sid-alpha", "ru-tau"],
    )
    def test_non_finite_estimate_is_an_error_exit(self, workspace, capsys, verb, patch):
        # every value is positive and finite, so validation passes; the
        # estimate then overflows, which exits 2 with a message, not a traceback
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "inputs": [0],
            "outputs": str(workspace["root"] / "o"),
            **patch,
        }
        assert run(verb, write_config(workspace["root"], "overflow.json", config)) == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb,patch,want",
        [
            ("ru", {"model": CNN, "layers": ["conv1"], "decoder": {"batch_size": 8}}, (30, 0.01, 8)),
            ("damage", {"model": RESNET, "train": {"epochs": 3}}, (3, 0.02, 16)),
        ],
    )
    def test_partial_training_section_keeps_the_verbs_other_defaults(self, workspace, monkeypatch, verb, patch, want):
        seen = []

        class Stop(Exception):
            pass

        def record(*args):
            seen.extend(a for a in args if isinstance(a, TrainConfig))
            raise Stop

        monkeypatch.setattr(cli, "train", record)
        monkeypatch.setattr(cli, "train_decoder", record)
        config = {"dataset": workspace["dataset"], "outputs": str(workspace["root"] / "o"), **patch}
        with pytest.raises(Stop):
            run(verb, write_config(workspace["root"], "partial.json", config))
        assert (seen[0].epochs, seen[0].learning_rate, seen[0].batch_size) == want

    @pytest.mark.parametrize(
        "patch,key",
        [
            ({"seed": "x"}, "seed"),
            ({"model": dict(CNN, classes="x")}, "model.classes"),
            ({"estimator": dict(TINY_ESTIMATOR, max_steps="x")}, "max_steps"),
            ({"estimator": dict(TINY_ESTIMATOR, sigma_cap="x")}, "sigma_cap"),
            ({"outputs": 5}, "outputs"),
            ({"dataset": {"format": "lltn", "images": 5, "labels": "l.lltn"}}, "dataset.images"),
            ({"dataset": {"format": "lltn", "images": "i.lltn", "labels": 5}}, "dataset.labels"),
            ({"dataset": {"format": "cifar10", "path": 5}}, "dataset.path"),
            ({"model": {"checkpoint": 5}}, "model.checkpoint"),
            ({"model": dict(CNN, architecture=["x"])}, "model.architecture"),
        ],
    )
    def test_value_of_wrong_type_is_config_error(self, workspace, capsys, patch, key):
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1"],
            "outputs": str(workspace["root"] / "o"),
            **patch,
        }
        assert run("sid", write_config(workspace["root"], "typed.json", config)) == 3
        assert key in capsys.readouterr().err

    def test_repeated_layers_rejected_before_any_pool(self, workspace, capsys, pool_recorder):
        # two workers would write the same sid_conv1_0.* files at once
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1", "conv2", "conv1"],
            "outputs": str(workspace["root"] / "o"),
        }
        assert run("sid", write_config(workspace["root"], "twice.json", config), "--jobs", "2") == 3
        assert "layers repeats ['conv1']" in capsys.readouterr().err
        assert pool_recorder == []

    @pytest.mark.parametrize(
        "raw",
        [b"P5\n8 8\n255\n" + bytes(20), b"P5\n8 eight\n255\n" + bytes(64)],
        ids=["truncated-payload", "non-numeric-height"],
    )
    def test_malformed_mask_pgm_is_io_error(self, workspace, capsys, raw):
        root = workspace["root"]
        (root / "mask.pgm").write_bytes(raw)
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1"],
            "mask": {"pgm": str(root / "mask.pgm")},
            "outputs": str(root / "o"),
        }
        assert run("concentration", write_config(root, "bad_pgm.json", config)) == 4
        assert "mask.pgm" in capsys.readouterr().err

    def test_mask_shape_mismatch_is_config_error(self, workspace, capsys):
        from layerlens.report import write_pgm

        root = workspace["root"]
        write_pgm(root / "small.pgm", np.full((4, 4), 255, dtype=np.uint8))
        config = {
            "dataset": workspace["dataset"],
            "model": CNN,
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1"],
            "mask": {"pgm": str(root / "small.pgm")},
            "outputs": str(root / "o"),
        }
        assert run("concentration", write_config(root, "pgm_mask.json", config)) == 3
        assert "mask shape" in capsys.readouterr().err

    def test_bbox_mask_on_a_flat_input_is_config_error(self, workspace, capsys):
        root = workspace["root"]
        ip, lp = D.save_lltn_pair(root / "flat", np.linspace(0.0, 1.0, 32).reshape(8, 4), np.arange(8) % 4)
        M.save_checkpoint(M.build([M.dense("fc", 3)], (4,), seed=0), root / "flat_ck")
        config = {
            "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
            "model": {"checkpoint": str(root / "flat_ck")},
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["fc"],
            "mask": {"bbox": {"x": 0, "y": 0, "w": 1, "h": 1}},
            "outputs": str(root / "o"),
        }
        assert run("concentration", write_config(root, "flat_mask.json", config)) == 3
        assert "mask.bbox" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph_text",
        [
            '{"input_shape": [1, 8, 8], "layers": [',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "relu", "name": "r", "warp": 9}]}',
            '{"input_shape": "abc", "layers": [{"kind": "relu", "name": "r"}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "nope", "name": "conv1"}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "conv", "name": "conv1", "channels": "x", "kernel": 3}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "conv", "name": "conv1", "channels": 8, "kernel": -3}]}',
            # the graph is a chain of the kinds the program builds
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "conv", "name": "conv1", "channels": 8, "kernel": 3}, '
            '{"kind": "add_skip", "name": "s"}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "transpose_conv", "name": "conv1", "channels": 8, "kernel": 2}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "conv", "name": "conv1", "channels": 8, "kernel": 3}, '
            '{"kind": "relu", "name": "r", "source": "conv1"}]}',
            # a field the layer's kind needs is missing, or one it does not read is set
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "flatten", "name": "f"}, {"kind": "dense", "name": "conv1"}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "conv", "name": "conv1", "channels": 8}]}',
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "residual_block", "name": "conv1", "channels": 8, '
            '"kernel": 5, "stride": 2}]}',
            # a layer name that reaches outside the checkpoint directory
            '{"input_shape": [1, 8, 8], "layers": [{"kind": "relu", "name": "../r"}, '
            '{"kind": "conv", "name": "conv1", "channels": 8, "kernel": 3, "padding": 1}]}',
        ],
    )
    def test_malformed_checkpoint_is_io_error(self, workspace, capsys, graph_text):
        root = workspace["root"]
        M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), root / "ck")
        (root / "ck" / "graph.json").write_text(graph_text)
        config = {
            "dataset": workspace["dataset"],
            "model": {"checkpoint": str(root / "ck")},
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv1"],
            "outputs": str(root / "o"),
        }
        assert run("sid", write_config(root, "bad_ck.json", config)) == 4
        assert "graph.json" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["x", None])
    def test_bad_checkpoint_epoch_is_io_error(self, workspace, capsys, epoch):
        # train resumes after the checkpoint's epoch, so it must be an integer
        root = workspace["root"]
        M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), root / "ck", {"epoch": epoch})
        config = {
            "dataset": workspace["dataset"],
            "model": {"checkpoint": str(root / "ck")},
            "train": {"epochs": 1},
            "outputs": str(root / "o"),
        }
        assert run("train", write_config(root, "bad_epoch.json", config)) == 4
        assert "meta.json" in capsys.readouterr().err

    def test_unknown_section_key_rejected(self, workspace):
        cfg = write_config(
            workspace["root"],
            "bad2.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "estimator": {"alpha": 1.5, "warp_factor": 9},
                "outputs": str(workspace["root"] / "o"),
            },
        )
        assert run("sid", cfg) == 3

    def test_missing_dataset_file_is_io_error(self, workspace):
        cfg = write_config(
            workspace["root"],
            "noio.json",
            {
                "dataset": {"format": "lltn", "images": "/nonexistent_i.lltn", "labels": "/nonexistent_l.lltn"},
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "outputs": str(workspace["root"] / "o"),
            },
        )
        assert run("sid", cfg) == 4

    @pytest.mark.parametrize("verb", ["train", "sid"])
    @pytest.mark.parametrize("bad", ["nan-pixel", "inf-label", "no-images"])
    def test_non_finite_dataset_value_is_io_error(self, workspace, capsys, verb, bad):
        # a NaN pixel ended both verbs with exit 2 naming a tensor op; an inf
        # label was cast to -2**63 and ended them with exit 3; a pair with no
        # images ended train with "dataset is empty", exit 1
        root = workspace["root"]
        images, labels = D.make_fourclass_images(n=48, shape=(1, 8, 8), seed=3)
        labels = labels.astype(np.float64)
        if bad == "nan-pixel":
            images[5, 0, 2, 3] = np.nan
        elif bad == "inf-label":
            labels[7] = np.inf
        else:
            images, labels = images[:0], labels[:0]
        ip, lp = D.save_lltn_pair(root / "bad" / "set", images, labels)
        config = {
            "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
            "model": CNN,
            **({"train": {"epochs": 1}} if verb == "train" else estimator_patch()),
            "outputs": str(root / "o"),
        }
        assert run(verb, write_config(root, "nonfinite.json", config)) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.count("\n") == 1
        assert str(lp if bad == "inf-label" else ip) in err
        assert ("no images" if bad == "no-images" else "non-finite") in err

    @pytest.mark.parametrize("verb", ["train", "sid", "sweep"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_checkpoint_parameter_is_io_error(self, workspace, capsys, verb, bad):
        # a NaN weight ended sid with exit 2 and "conv2d: non-finite value
        # produced", naming neither the file nor the parameter
        root = workspace["root"]
        M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), root / "ck", {"epoch": 1})
        weight = root / "ck" / "conv1__weight.lltn"
        arr = lltn.read(weight)
        arr[0, 0, 1, 1] = bad
        lltn.write(weight, arr)
        config = {"dataset": workspace["dataset"], "outputs": str(root / "o")}
        if verb == "sweep":
            config.update(estimator_patch(), sweep={"checkpoints": [str(root / "ck")]})
        else:
            config["model"] = {"checkpoint": str(root / "ck")}
            config.update({"train": {"epochs": 1}} if verb == "train" else estimator_patch())
        assert run(verb, write_config(root, "nonfinite.json", config)) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.count("\n") == 1
        assert str(weight) in err and "conv1.weight" in err and "non-finite" in err

    def test_seed_is_flag_then_config_then_zero(self, workspace, monkeypatch):
        # the environment sets no seed
        monkeypatch.setenv("LAYERLENS_SEED", "99")
        root = workspace["root"]
        config = {"dataset": workspace["dataset"], "model": CNN, "outputs": str(root / "o"), **estimator_patch()}
        for patch, flags, want in (({}, (), 0), ({"seed": 3}, (), 3), ({"seed": 3}, ("--seed", "5"), 5)):
            assert run("sid", write_config(root, "seed.json", dict(config, **patch)), *flags) == 0
            assert json.loads((root / "o" / "resolved_config.json").read_text())["seed"] == want

    @pytest.mark.parametrize("verb", list(cli._VERBS))
    def test_resolved_config_reruns_to_the_same_outputs(self, workspace, verb):
        # resolved_config.json is the config that ran, its flags folded in:
        # run again from it into another directory, it makes the same files
        patch = {
            "train": {"model": CNN, "train": {"epochs": 1}},
            "sid": {"model": CNN, "layers": ["conv1"]},
            "ru": {"model": CNN, "layers": ["conv1"], "decoder": {"epochs": 1}},
            "concentration": {"model": CNN, "layers": ["conv1"], "mask": {"bbox": {"x": 0, "y": 0, "w": 4, "h": 4}}},
            "coherency": {"model": CNN, "coherency": {"layer": "conv1"}},
            "damage": {"model": RESNET, "train": {"epochs": 1}, "damage": {"positions": [1]}, "layers": ["block1"]},
            "sweep": {"sweep": {"checkpoints": ["@ckpt/a", "@ckpt/b"]}, "layers": ["conv1"]},
            "report": {"report": {"models": [{"id": "a", "checkpoint": "@ckpt/a"}]}, "layers": ["conv1"]},
        }[verb]
        root = workspace["root"]
        for epoch, name in enumerate("ab"):
            M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=epoch), root / name, {"epoch": epoch})
        config = {"dataset": workspace["dataset"], "outputs": str(root / "first"), **patch}
        if verb != "train":
            config.update(estimator=dict(TINY_ESTIMATOR, max_steps=4, max_rounds=1), inputs=[0])
        config = json.loads(json.dumps(config).replace("@ckpt", str(root)))
        code = run(verb, write_config(root, "first.json", config), "--seed", "7", "--alpha", "2.5")
        assert code in (0, 2)
        resolved = json.loads((root / "first" / "resolved_config.json").read_text())
        assert (resolved["seed"], resolved["command"]) == (7, verb)
        if verb == "train":  # train reads no estimator, so --alpha sets nothing
            assert "estimator" not in resolved
        else:
            assert resolved["estimator"]["alpha"] == 2.5
        assert run(verb, str(root / "first" / "resolved_config.json"), "--out", str(root / "again")) == code
        assert_same_outputs(root / "first", root / "again")
        again = json.loads((root / "again" / "resolved_config.json").read_text())
        assert again == dict(resolved, outputs=str(root / "again"))

    def test_malformed_json_is_config_error(self, workspace, capsys):
        bad = workspace["root"] / "broken.json"
        bad.write_text("{not json")
        assert main(["sid", "--config", str(bad)]) == 3
        assert "malformed" in capsys.readouterr().err

    def test_config_not_utf8_is_config_error(self, workspace, capsys):
        # read_text raised UnicodeDecodeError: a traceback and exit 1
        bad = workspace["root"] / "latin1.json"
        bad.write_bytes(b'\xff\xfe{"a": 1}')
        assert main(["sid", "--config", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and str(bad) in err

    def test_unreadable_config_is_io_error(self, workspace, capsys):
        missing = workspace["root"] / "missing.json"
        assert main(["sid", "--config", str(missing)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot read config:") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["sid", "report"])
    def test_resolved_config_reruns_from_another_directory(self, workspace, monkeypatch, verb):
        # relative paths resolve against the working directory, and the
        # resolved config records them absolute
        first, other = workspace["root"], workspace["root"] / "elsewhere"
        other.mkdir()
        M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), first / "ck", {"epoch": 1})
        relative = {k: str(Path(v).relative_to(first)) for k, v in workspace["dataset"].items() if k != "format"}
        config = {
            "dataset": dict(workspace["dataset"], **relative),
            "outputs": "out",
            "layers": ["conv1"],
            "inputs": [0],
            "estimator": dict(TINY_ESTIMATOR, max_steps=4, max_rounds=1),
            **{"sid": {"model": CNN}, "report": {"report": {"models": [{"checkpoint": "ck"}]}}}[verb],
        }

        def written() -> dict:
            return {p.relative_to(first / "out"): p.read_bytes() for p in (first / "out").rglob("*") if p.is_file()}

        monkeypatch.chdir(first)
        code = run(verb, write_config(first, "run.json", config))
        assert code in (0, 2)
        before = written()
        if verb == "report":  # the model is named after its checkpoint path as written
            assert b"\nck," in before[Path("report.csv")]
        monkeypatch.chdir(other)
        assert run(verb, str(first / "out" / "resolved_config.json")) == code
        assert written() == before
        assert not any(other.iterdir())

    @pytest.mark.parametrize("case,code", [("missing-images", 4), ("unknown-format", 3)])
    def test_refused_dataset_leaves_no_output_directory(self, workspace, capsys, case, code):
        # the output directory was made before the dataset was read
        root = workspace["root"]
        dataset = {
            "missing-images": dict(workspace["dataset"], images=str(root / "missing.lltn")),
            "unknown-format": {"format": "npz", "path": str(root / "data.npz")},
        }[case]
        config = {"dataset": dataset, "model": CNN, "outputs": str(root / "o"), **estimator_patch()}
        assert run("sid", write_config(root, "dataset.json", config)) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("missing.lltn" in err if code == 4 else "'npz'" in err)
        assert not (root / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["sid"], ["sid", "--config", "run.json", "--jobs", "two"], ["no-such-verb"]],
        ids=["no-config", "jobs-not-int", "unknown-verb"],
    )
    def test_usage_error_is_config_error(self, capsys, argv):
        # argparse exited 2, the code of an unmet budget, with usage and message on two lines
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["outputs-nan", "classes-overflow"])
    def test_non_finite_number_in_an_unread_key_is_config_error(self, workspace, capsys, case):
        # a key the verb does not read reached resolved_config.json, which
        # refused the number with a traceback and exit 1
        root = workspace["root"]
        config = {"dataset": workspace["dataset"], "model": CNN, "outputs": str(root / "o"), **estimator_patch()}
        if case == "outputs-nan":
            config["outputs"], extra, key = float("nan"), ["--out", str(root / "o")], "outputs"
        else:
            M.save_checkpoint(M.tiny_cnn((1, 8, 8), 4, seed=1), root / "ck", {"epoch": 1})
            config["model"], extra, key = {"checkpoint": str(root / "ck"), "classes": 1e400}, [], "model.classes"
        path = write_config(root, "nonfinite.json", config)
        Path(path).write_text(Path(path).read_text().replace("Infinity", "1e400"))  # as a user would write it
        assert run("sid", path, *extra) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1 and key in err
        assert not (root / "o").exists()

    def test_unknown_architecture_is_config_error(self, workspace):
        cfg = write_config(
            workspace["root"],
            "arch.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "resnet-152"},
                "outputs": str(workspace["root"] / "o"),
            },
        )
        assert run("sid", cfg) == 3

    def test_unknown_layer_rejected(self, workspace):
        cfg = write_config(
            workspace["root"],
            "badlayer.json",
            {
                "dataset": workspace["dataset"],
                "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
                "layers": ["ghost"],
                "outputs": str(workspace["root"] / "o"),
            },
        )
        assert run("sid", cfg) == 3


class TestMallocPin:
    """main pins glibc's mmap and trim thresholds before anything else runs,
    and a process where they cannot be pinned runs unpinned."""

    class Libc:
        def __init__(self, calls, returns=1):
            def mallopt(param, value):
                calls.append((param, value))
                return returns

            self.mallopt = mallopt

    def test_pinned_before_the_arguments_are_parsed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: calls.append(name) or self.Libc(calls))
        parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append("parse") or parser())
        with pytest.raises(SystemExit):
            main(["no-such-verb"])
        assert calls == ["libc.so.6", (-3, 32 << 20), (-1, 128 << 20), "parse"]

    @pytest.mark.parametrize("libc", ["absent", "no mallopt", "refuses"])
    def test_unpinned_run_still_succeeds(self, workspace, monkeypatch, libc):
        def cdll(name):
            if libc == "absent":
                raise OSError(f"{name}: cannot open shared object file")
            return object() if libc == "no mallopt" else self.Libc([], returns=0)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert "not pinned" in cli.pin_malloc()
        root = workspace["root"]
        config = dict(estimator_patch(), dataset=workspace["dataset"], model=CNN, inputs=[0],
                      outputs=str(root / "out"), seed=2)
        assert run("sid", write_config(root, "sid.json", config)) == 0
        assert (root / "out" / "sid_conv1_0.json").exists()
