"""Command-line interface: subcommands, overrides, exit codes."""

import json

from coopgraph import training
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
    assert main(["train", "--set", "seeds=3"]) == 2
    assert main(["train", "--set", "env=5"]) == 2
    assert main(["train", "--set", "run.total_updates=x"]) == 2
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


def test_ablate_validates_every_setting_before_training(tmp_path, capsys):
    """A bad setting anywhere in the sweep is a config error before the
    first setting trains, so nothing is written."""
    for sweep, values, error in [
        ("clusters", "3,0", "clusters setting '0': n_clusters must be an integer >= 1"),
        ("clusters", "3,x", "clusters setting 'x': n_clusters must be an integer >= 1"),
        ("primitives", "six,bogus", "primitives setting 'bogus': primitive_set:"),
    ]:
        out = tmp_path / sweep / values
        code = main(["ablate", "--sweep", sweep, "--values", values, "--out", str(out)] + NANO_ARGS)
        assert code == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


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


def test_rerun_of_killed_train_resumes(tmp_path, monkeypatch, capsys):
    """A train command killed inside collect at update 4, two updates past
    its last checkpoint, continues when rerun as is, to the logs of a run
    never stopped."""
    args = NANO_ARGS + ["--set", "run.total_updates=5", "--set", "run.eval_every=2",
                        "--set", "run.eval_episodes=2"]
    assert main(["train", "--seed", "1", "--out", str(tmp_path / "full")] + args) == 0
    cut = ["train", "--seed", "1", "--out", str(tmp_path / "cut")] + args
    real_collect = training.collect

    def dying_collect(*collect_args):
        if collect_args[-1] == 3 * 4:  # episode offset of update 4 at 4 episodes per batch
            raise RuntimeError("killed")
        return real_collect(*collect_args)

    def counted_collect(*collect_args):
        offsets.append(collect_args[-1])
        return real_collect(*collect_args)

    monkeypatch.setattr(training, "collect", dying_collect)
    assert main(cut) == 1
    seed_dir = tmp_path / "cut" / "seed_1"
    assert len((seed_dir / "metrics.jsonl").read_text().splitlines()) == 3
    capsys.readouterr()
    offsets = []
    monkeypatch.setattr(training, "collect", counted_collect)
    assert main(cut) == 0
    assert offsets == [8, 12, 16]  # updates 3-5: resumed from the update-2 eval
    summary = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert summary[0]["updates"] == 5
    for log in ("metrics.jsonl", "eval.jsonl"):
        assert (seed_dir / log).read_bytes() == (tmp_path / "full" / "seed_1" / log).read_bytes(), log


def test_rerun_under_another_config_is_refused(tmp_path, capsys):
    """A rerun whose config differs from the one its checkpoint trained under
    names every differing field and leaves the run directory as it was."""
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + NANO_ARGS) == 0
    before = {p.name: p.read_bytes() for p in (out, out / "seed_0") for p in p.iterdir() if p.is_file()}
    capsys.readouterr()
    other = ["--set", "env.t_max=25", "--set", "train.lr=0.0002", "--set", "n_clusters=2"]
    assert main(["train", "--out", str(out)] + NANO_ARGS + other) == 2
    err = capsys.readouterr().err
    assert "env.t_max (checkpoint 20, config 25), train.lr (checkpoint 0.0001, config 0.0002)" in err
    assert "the initial topology" in err
    after = {p.name: p.read_bytes() for p in (out, out / "seed_0") for p in p.iterdir() if p.is_file()}
    assert after == before
