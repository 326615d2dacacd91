import os

import pytest

from bowl.cli import main
from bowl.config import load_run_config
from bowl.nn import Network, eval_mode, read_checkpoint
from bowl.ood import predictive_entropy_per_sample
from bowl.serialization import read_tensors, write_tensors
from bowl.stream import load_dataset

BASE_CONFIG = """
# toy experiment used by the CLI tests
[run]
variant = full
seed = 0
output_dir = {outdir}

[network]
hidden = 12,6

[loop]
acquisition_batch = 48
buffer_capacity = 100
ood_batch_size = 8
pretrain_epochs = 8
minibatch_size = 32
bootstrap_k = 30
bootstrap_size = 4
eval_every_update = false

[data]
n_classes = 6
dims = 8
separation = 0.3
within_std = 0.1
train_per_class = 80
test_per_class = 40
schedule = 0,1 | 2,3 | 4,5
"""


@pytest.fixture()
def config_path(tmp_path):
    def write(outdir=None, extra="", body=BASE_CONFIG):
        outdir = outdir or str(tmp_path / "out")
        path = tmp_path / "run.cfg"
        path.write_text(body.format(outdir=outdir) + extra)
        return str(path), outdir
    return write


class TestRun:
    def test_writes_all_outputs(self, config_path):
        path, outdir = config_path()
        assert main(["run", path]) == 0
        for name in ("report.csv", "summary.txt", "buffer_composition.csv",
                     "metrics.csv", "checkpoint.bnt"):
            assert os.path.exists(os.path.join(outdir, name)), name

    def test_determinism_byte_identical_summary(self, config_path, tmp_path):
        path, _ = config_path()
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", path, "--output-dir", out1]) == 0
        assert main(["run", path, "--output-dir", out2]) == 0
        s1 = open(os.path.join(out1, "summary.txt"), "rb").read()
        s2 = open(os.path.join(out2, "summary.txt"), "rb").read()
        assert s1 == s2

    def test_missing_required_key_names_it(self, config_path, capsys):
        body = BASE_CONFIG.replace("schedule = 0,1 | 2,3 | 4,5\n", "")
        path, _ = config_path(body=body)
        assert main(["run", path]) == 2
        assert "data.schedule" in capsys.readouterr().err

    def test_unknown_key_rejected(self, config_path, capsys):
        path, _ = config_path(extra="\n[loop]\nwarp_speed = 9\n")
        assert main(["run", path]) == 2
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["epochs_per_update=0", "minibatch_size=1",
                                         "buffer_capacity=3", "ood_batch_size=0",
                                         "network.hidden=0", "network.hidden=16,0",
                                         "network.bn_eps=-1", "network.bn_eps=0",
                                         "network.bn_momentum=0", "network.bn_momentum=1.5",
                                         "optimizer.learning_rate=-1",
                                         "optimizer.momentum=nan",
                                         "optimizer.weight_decay=-0.1",
                                         "data.within_std=-1", "data.separation=0",
                                         "data.train_per_class=0", "data.test_per_class=0",
                                         "mix.corrupted_fraction=2", "mix.ood_fraction=-0.5",
                                         "mix.severity=0"])
    def test_invalid_loop_setting_is_config_error(self, config_path, capsys, setting):
        path, _ = config_path()
        dotted = setting if "." in setting.split("=")[0] else f"loop.{setting}"
        assert main(["run", path, "--set", dotted]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_pretraining_divergence_writes_aborted_report(self, config_path, capsys):
        """A NaN loss during pretraining takes the path of one in a task: the
        outputs are written, the summary says aborted, and the exit code is 1."""
        path, outdir = config_path()
        assert main(["run", path, "--set", "optimizer.learning_rate=1e30"]) == 1
        assert "run aborted: loss diverged" in capsys.readouterr().err
        summary = open(os.path.join(outdir, "summary.txt")).read().splitlines()
        assert "aborted=True" in summary
        assert "timesteps=0" in summary
        assert not any(line.startswith("accuracy_t0=") for line in summary)
        for name in ("report.csv", "checkpoint.bnt"):
            assert os.path.exists(os.path.join(outdir, name)), name

    def test_duplicate_section_key_rejected(self, config_path, capsys):
        path, _ = config_path(extra="\n[data]\ndims = 9\n")
        assert main(["run", path]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "/nonexistent/run.cfg"]) == 2

    def test_env_var_overrides_output_dir(self, config_path, tmp_path, monkeypatch):
        path, _ = config_path()
        env_dir = str(tmp_path / "env_out")
        monkeypatch.setenv("BOWL_OUTPUT_DIR", env_dir)
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(env_dir, "summary.txt"))

    def test_set_flag_overrides_key(self, config_path, capsys):
        path, outdir = config_path()
        assert main(["run", path, "--set", "run.variant=finetune"]) == 0
        summary = open(os.path.join(outdir, "summary.txt")).read()
        assert "variant=finetune" in summary

    def test_bad_override_target(self, config_path):
        path, _ = config_path()
        assert main(["run", path, "--set", "loop.warp=1"]) == 2


class TestGenData:
    def test_generates_and_roundtrips(self, tmp_path):
        out = str(tmp_path / "blobs.bnt")
        args = ["gen-data", "--classes", "2", "--dims", "4", "--separation", "0.5",
                "--std", "0.1", "--n", "1000", "--seed", "3", "--out", out]
        assert main(args) == 0
        ds = load_dataset(out)
        assert ds.n == 1000
        assert ds.labels.shape == (1000,)
        assert set(ds.classes()) == {0, 1}

    def test_same_seed_identical_bytes(self, tmp_path):
        outs = [str(tmp_path / f"d{i}.bnt") for i in range(2)]
        for out in outs:
            main(["gen-data", "--classes", "3", "--dims", "5", "--separation",
                  "0.4", "--std", "0.1", "--n", "300", "--seed", "9", "--out", out])
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


@pytest.fixture()
def trained_run(config_path, tmp_path):
    path, outdir = config_path()
    assert main(["run", path]) == 0
    in_set = str(tmp_path / "in.bnt")
    assert main(["gen-data", "--classes", "6", "--dims", "8", "--separation", "0.3",
                 "--std", "0.1", "--n", "480", "--seed", "77", "--clip-unit",
                 "--out", in_set]) == 0
    out_set = str(tmp_path / "outset.bnt")
    assert main(["gen-data", "--classes", "6", "--dims", "8", "--separation", "6.0",
                 "--std", "0.1", "--n", "480", "--seed", "78", "--out", out_set]) == 0
    return path, outdir, in_set, out_set


class TestOodHist:
    def test_exports_and_separates(self, trained_run, tmp_path, capsys):
        path, outdir, in_set, out_set = trained_run
        hist_dir = str(tmp_path / "hist")
        code = main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", out_set,
                     "--output-dir", hist_dir])
        assert code == 0
        for name in ("hist_eta1.csv", "hist_pe.csv", "ood_summary.txt"):
            assert os.path.exists(os.path.join(hist_dir, name))
        summary = open(os.path.join(hist_dir, "ood_summary.txt")).read()
        auroc_eta1 = float([l for l in summary.splitlines()
                            if l.startswith("auroc_eta1=")][0].split("=")[1])
        assert auroc_eta1 >= 0.9

    def test_in_equals_out_near_half(self, trained_run, tmp_path):
        path, outdir, in_set, _ = trained_run
        hist_dir = str(tmp_path / "hist_same")
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", in_set,
                     "--output-dir", hist_dir]) == 0
        summary = open(os.path.join(hist_dir, "ood_summary.txt")).read()
        auroc_eta1 = float([l for l in summary.splitlines()
                            if l.startswith("auroc_eta1=")][0].split("=")[1])
        assert abs(auroc_eta1 - 0.5) <= 0.05

    def test_sample_granularity(self, trained_run, tmp_path):
        path, outdir, in_set, out_set = trained_run
        hist_dir = str(tmp_path / "hist_sample")
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", out_set,
                     "--granularity", "sample", "--output-dir", hist_dir]) == 0
        lines = open(os.path.join(hist_dir, "hist_eta1.csv")).read().splitlines()
        assert len(lines) == 1 + 480 + 480

    @pytest.mark.parametrize("granularity, chunks", [("batch", 1), ("sample", 1)])
    def test_one_forward_pass_per_chunk(self, trained_run, tmp_path, monkeypatch,
                                        granularity, chunks):
        """eta1 and predictive entropy come from one eval pass per 512-row chunk
        of each set (one for these 480-row sets), and the entropy is that of
        separate plain eval passes, one per batch at batch granularity."""
        path, outdir, in_set, out_set = trained_run
        checkpoint = os.path.join(outdir, "checkpoint.bnt")
        hist_dir = str(tmp_path / "hist")
        calls = []
        forward = Network.forward
        monkeypatch.setattr(Network, "forward",
                            lambda net, *a, **k: calls.append(1) or forward(net, *a, **k))
        assert main(["ood-hist", path, "--checkpoint", checkpoint, "--in-set", in_set,
                     "--out-set", out_set, "--granularity", granularity,
                     "--output-dir", hist_dir]) == 0
        monkeypatch.undo()
        assert len(calls) == 2 * chunks
        class_ids, state = read_checkpoint(checkpoint)
        net = load_run_config(path).build_network(class_ids=class_ids)
        net.load_state_dict(state)
        chunk = 8 if granularity == "batch" else 512
        expected = []
        for name in (in_set, out_set):
            inputs = load_dataset(name).inputs
            for start in range(0, len(inputs), chunk):
                with eval_mode(net):
                    logits = net.forward(inputs[start:start + chunk])
                entropy = predictive_entropy_per_sample(logits)
                values = [entropy.mean()] if granularity == "batch" else entropy
                expected += [f"{float(e):.8g}" for e in values]
        rows = open(os.path.join(hist_dir, "hist_pe.csv")).read().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == expected

    def test_missing_dataset_file_is_run_failure(self, trained_run, tmp_path):
        path, outdir, in_set, _ = trained_run
        assert main(["ood-hist", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--in-set", in_set, "--out-set", str(tmp_path / "missing.bnt"),
                     "--output-dir", str(tmp_path / "h")]) == 1


def _damaged_copy(src, dst, damage):
    """Copy a BNT1 file, cutting its last payload short ("truncated") or
    giving its first tensor an unknown dtype code ("dtype")."""
    with open(src, "rb") as fh:
        data = bytearray(fh.read())
    if damage == "truncated":
        data = data[:-3]
    else:
        name_len = int.from_bytes(data[4:6], "little")
        data[6 + name_len] = 7  # the dtype code follows the name
    with open(dst, "wb") as fh:
        fh.write(data)
    return dst


class TestDamagedFiles:
    @pytest.mark.parametrize("damage, message", [("truncated", "truncated payload"),
                                                 ("dtype", "unknown dtype code 7")])
    def test_run_failure_with_format_message(self, trained_run, tmp_path, capsys,
                                             damage, message):
        """A damaged dataset or checkpoint is a run failure (exit 1) that names
        the damage; no exception escapes main."""
        path, outdir, in_set, out_set = trained_run
        checkpoint = os.path.join(outdir, "checkpoint.bnt")
        bad_set = _damaged_copy(in_set, str(tmp_path / "bad_set.bnt"), damage)
        bad_ckpt = _damaged_copy(checkpoint, str(tmp_path / "bad_ckpt.bnt"), damage)
        hist = ["--out-set", out_set, "--output-dir", str(tmp_path / "h")]
        for argv in (["eval", path, "--checkpoint", checkpoint, "--dataset", bad_set],
                     ["eval", path, "--checkpoint", bad_ckpt, "--dataset", in_set],
                     ["ood-hist", path, "--checkpoint", checkpoint, "--in-set", bad_set,
                      *hist]):
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (argv, err)

    @pytest.mark.parametrize("missing", ["head.class_ids", "layer1.running_var"])
    def test_checkpoint_missing_tensor(self, trained_run, tmp_path, capsys, missing):
        """A checkpoint without its class ids or a running statistic is a run
        failure that names the tensor."""
        path, outdir, in_set, _ = trained_run
        state = read_tensors(os.path.join(outdir, "checkpoint.bnt"))
        del state[missing]
        checkpoint = str(tmp_path / "partial.bnt")
        write_tensors(checkpoint, state)
        assert main(["eval", path, "--checkpoint", checkpoint, "--dataset", in_set]) == 1
        assert missing in capsys.readouterr().err


class TestEval:
    def test_prints_accuracy(self, trained_run, capsys):
        path, outdir, in_set, _ = trained_run
        assert main(["eval", path, "--checkpoint",
                     os.path.join(outdir, "checkpoint.bnt"),
                     "--dataset", in_set]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        assert 0.0 <= float(out.split()[0].split("=")[1]) <= 1.0


class TestAblate:
    def test_grid_and_aggregate(self, config_path, tmp_path):
        path, outdir = config_path()
        assert main(["ablate", path]) == 0
        for variant in ("full", "no_ood", "random_query", "no_cl"):
            assert os.path.exists(os.path.join(outdir, f"{variant}_seed0",
                                               "summary.txt"))
        csv = open(os.path.join(outdir, "ablation.csv")).read().splitlines()
        header = csv[0].split(",")
        assert header[0] == "variant"
        assert "acc_t1_mean" in header and "acc_t2_std" in header
        assert len(csv) == 5
        # single seed: every std column is exactly zero
        idx = [i for i, h in enumerate(header) if h.endswith("_std")]
        for row in csv[1:]:
            cells = row.split(",")
            assert all(float(cells[i]) == 0.0 for i in idx)
