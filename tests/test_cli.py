import json
from pathlib import Path

import pytest

from layerlens import data as D
from layerlens.cli import main

TINY_ESTIMATOR = {
    "max_steps": 40,
    "samples_per_step": 8,
    "certify_samples": 128,
    "baseline_samples": 128,
    "max_rounds": 6,
}


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


def write_config(root: Path, name: str, config: dict) -> str:
    path = root / name
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def run(verb: str, config_path: str, *extra: str) -> int:
    return main([verb, "--config", config_path, *extra])


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
        estimator = dict(TINY_ESTIMATOR, sigma_cap=0.011, alpha=50.0)
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
        from layerlens import model as M

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

    def test_env_seed_is_last_resort(self, workspace, monkeypatch):
        root = workspace["root"]
        config = {
            "dataset": workspace["dataset"],
            "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
            "estimator": dict(TINY_ESTIMATOR),
            "layers": ["conv2"],
            "outputs": str(root / "envseed"),
        }
        monkeypatch.setenv("LAYERLENS_SEED", "99")
        assert run("sid", write_config(root, "env.json", config)) == 0
        resolved = json.loads((root / "envseed" / "resolved_config.json").read_text())
        assert resolved["seed"] == 99
        # --seed flag still wins over the environment
        config["outputs"] = str(root / "envseed2")
        assert run("sid", write_config(root, "env2.json", config), "--seed", "5") == 0
        resolved = json.loads((root / "envseed2" / "resolved_config.json").read_text())
        assert resolved["seed"] == 5

    def test_malformed_json_is_config_error(self, workspace, capsys):
        bad = workspace["root"] / "broken.json"
        bad.write_text("{not json")
        assert main(["sid", "--config", str(bad)]) == 3
        assert "malformed" in capsys.readouterr().err

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
