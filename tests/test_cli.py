"""Command-line interface: subcommands, overrides, exit codes."""

import json

from coopgraph.cli import main


NANO_ARGS = [
    "--task", "CSI-4/1/2",
    "--set", "n_clusters=3",
    "--set", "env.n_bases=2",
    "--set", "env.t_max=20",
    "--set", "train.batch_episodes=4",
    "--set", "train.ppo_epochs=2",
    "--set", "run.total_updates=1",
    "--set", "run.eval_every=0",
    "--set", "run.checkpoint_every=0",
    "--set", "eval_episodes=3",
]


def test_oracle_subcommand(capsys):
    code = main(["oracle", "--task", "CSI-4/1/2", "--seed", "0",
                 "--set", "n_clusters=3", "--set", "env.n_bases=2",
                 "--set", "env.t_max=30", "--set", "eval_episodes=5",
                 "--out", "/tmp/cli_oracle"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["episodes"] == 5


def test_config_error_exit_code(capsys):
    assert main(["oracle", "--task", "CSI-nope"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["train", "--set", "seeds=[]"]) == 2
    assert main(["oracle", "--set", "coop_actions=false", "--task", "CSI-4/1/2"]) == 2


def test_runtime_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.ckpt"
    code = main(["eval", "--checkpoint", str(missing), "--task", "CSI-4/1/2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_train_eval_export_cycle(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--seed", "3", "--out", str(out)] + NANO_ARGS)
    assert code == 0
    capsys.readouterr()
    ckpt = out / "seed_3" / "checkpoint_last.ckpt"
    assert ckpt.exists()

    code = main(["eval", "--checkpoint", str(ckpt), "--seed", "3", "--out", str(out)] + NANO_ARGS)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "success_mean" in report

    dest = tmp_path / "snaps"
    code = main([
        "export-topology", "--checkpoint", str(ckpt), "--episode-seed", "4",
        "--steps", "0,2", "--out", str(dest)] + NANO_ARGS)
    assert code == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 4  # DOT + JSON per step
    assert (dest / "topology_step_0000.dot").exists()


def test_ablate_csv(tmp_path, capsys):
    out = tmp_path / "abl"
    code = main(["ablate", "--sweep", "clusters", "--values", "2,3",
                 "--seed", "5", "--out", str(out)] + NANO_ARGS)
    assert code == 0
    csv_path = out / "ablation.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "setting,seed,success"
    assert len(rows) == 3  # two settings x one seed


def test_transfer_subcommand(tmp_path, capsys):
    out = tmp_path / "src"
    assert main(["train", "--seed", "2", "--out", str(out)] + NANO_ARGS) == 0
    capsys.readouterr()
    ckpt = out / "seed_2" / "checkpoint_last.ckpt"
    code = main([
        "transfer", "--checkpoint", str(ckpt), "--target-task", "CSI-8/2/2",
        "--fan-out", "2", "--seed", "2", "--out", str(tmp_path / "tf"),
        "--set", "eval_episodes=2",
        "--set", "run.total_updates=1", "--set", "run.eval_every=0",
        "--set", "run.checkpoint_every=0", "--set", "train.batch_episodes=2",
        "--set", "train.ppo_epochs=1", "--set", "env.t_max=20", "--set", "env.n_bases=2",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fan_out"] == 2
    assert (tmp_path / "tf" / "transfer_report.json").exists()

    # inconsistent scaling is a config error
    code = main([
        "transfer", "--checkpoint", str(ckpt), "--target-task", "CSI-9/1/2",
        "--fan-out", "2", "--out", str(tmp_path / "tf2"),
    ])
    assert code == 2
