"""Command-line entry point: run experiments, ablation sweeps, OoD histogram
export, dataset generation, and checkpoint evaluation.

Exit codes: 0 success, 1 run failure (IO/numeric), 2 configuration error.
Flags override config keys; BOWL_OUTPUT_DIR overrides the output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_run_config
from .engine import (RunReport, run_variant, write_buffer_composition,
                     write_report_csv, write_summary, write_update_metrics)
from .metrics import auroc
from .nn import Network, NonFiniteLossError, read_checkpoint, save_checkpoint
from .ood import (batch_ood_score, export_score_csv, predictive_entropy_per_sample,
                  sample_eta1_scores, segment_means)
from .serialization import FormatError, atomic_write_text
from .stream import Dataset, load_dataset, save_dataset, synth_generate

OUTPUT_DIR_ENV = "BOWL_OUTPUT_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bowl",
                                     description="Batch-norm open-world learner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to a run configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override a config key")
        p.add_argument("--output-dir", default=None, help="override the output directory")

    run_p = sub.add_parser("run", help="execute one experiment")
    add_common(run_p)

    ablate_p = sub.add_parser("ablate", help="run the ablation grid over seeds")
    add_common(ablate_p)

    hist_p = sub.add_parser("ood-hist", help="export score histograms for two datasets")
    add_common(hist_p)
    hist_p.add_argument("--checkpoint", required=True)
    hist_p.add_argument("--in-set", required=True, help="in-distribution dataset file")
    hist_p.add_argument("--out-set", required=True, help="out-of-distribution dataset file")
    hist_p.add_argument("--granularity", choices=("batch", "sample"), default="batch")

    gen_p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    gen_p.add_argument("--classes", type=int, required=True)
    gen_p.add_argument("--dims", type=int, required=True)
    gen_p.add_argument("--separation", type=float, required=True)
    gen_p.add_argument("--std", type=float, required=True)
    gen_p.add_argument("--n", type=int, required=True, help="total sample count")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--clip-unit", action="store_true")
    gen_p.add_argument("--out", required=True)

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(eval_p)
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--dataset", required=True)

    return parser


def _load_config(path: str, overrides) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    return load_run_config(path, overrides)


def _resolve_outdir(args, cfg: RunConfig) -> str:
    if args.output_dir:
        return args.output_dir
    if os.environ.get(OUTPUT_DIR_ENV):
        return os.environ[OUTPUT_DIR_ENV]
    return str(cfg["run.output_dir"])


def _restore_network(cfg: RunConfig, checkpoint: str) -> Network:
    class_ids, state = read_checkpoint(checkpoint)
    net = cfg.build_network(class_ids=class_ids)
    net.load_state_dict(state)
    return net


def _write_run_outputs(report: RunReport, net: Network, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    write_report_csv(report, os.path.join(outdir, "report.csv"))
    write_summary(report, os.path.join(outdir, "summary.txt"))
    write_buffer_composition(report, os.path.join(outdir, "buffer_composition.csv"))
    write_update_metrics(report, os.path.join(outdir, "metrics.csv"))
    save_checkpoint(net, os.path.join(outdir, "checkpoint.bnt"))


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    tasks = cfg.build_tasks()
    net = cfg.build_network()
    report = run_variant(net, cfg.loop_config(), tasks, cfg["run.variant"])
    _write_run_outputs(report, net, outdir)
    print(f"{report.variant}: final_accuracy={report.final_accuracy:.4f} "
          f"steps={report.total_steps} odp={report.odp} -> {outdir}")
    if report.aborted:
        print(f"run aborted: {report.abort_reason}", file=sys.stderr)
        return 1
    return 0


ABLATION_VARIANTS = ("full", "no_ood", "random_query", "no_cl")


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    os.makedirs(outdir, exist_ok=True)
    seeds = cfg.seeds
    n_tasks = len(cfg["data.schedule"]) - 1
    rows = []
    failed = False
    per_variant: dict[str, list[RunReport]] = {v: [] for v in ABLATION_VARIANTS}
    for variant in ABLATION_VARIANTS:
        for seed in seeds:
            tasks = cfg.build_tasks(seed)
            net = cfg.build_network(seed)
            report = run_variant(net, cfg.loop_config(seed), tasks, variant)
            run_dir = os.path.join(outdir, f"{variant}_seed{seed}")
            _write_run_outputs(report, net, run_dir)
            per_variant[variant].append(report)
            failed = failed or report.aborted
    header = ["variant"]
    for t in range(1, n_tasks + 1):
        header.extend([f"acc_t{t}_mean", f"acc_t{t}_std"])
    header.extend(["odp_mean", "odp_std", "steps_mean", "steps_std"])
    rows.append(",".join(header))
    for variant in ABLATION_VARIANTS:
        reports = per_variant[variant]
        cells = [variant]
        for t in range(1, n_tasks + 1):
            accs = [r.task_accuracies.get(t, float("nan")) for r in reports]
            cells.extend([f"{np.mean(accs):.6f}", f"{np.std(accs):.6f}"])
        odps = [r.odp for r in reports]
        steps = [r.total_steps for r in reports]
        cells.extend([f"{np.mean(odps):.2f}", f"{np.std(odps):.2f}",
                      f"{np.mean(steps):.2f}", f"{np.std(steps):.2f}"])
        rows.append(",".join(cells))
    atomic_write_text(os.path.join(outdir, "ablation.csv"), "\n".join(rows) + "\n")
    print(f"ablation grid ({len(ABLATION_VARIANTS)} variants x {len(seeds)} seeds) "
          f"-> {outdir}/ablation.csv")
    return 1 if failed else 0


def _dataset_scores(net: Network, dataset: Dataset, batch_size: int, granularity: str):
    """eta1 and predictive-entropy scores at batch or sample granularity, both
    from one read-only pass over the set; a batch's entropy is its rows' mean."""
    if granularity == "sample":
        eta1, logits = sample_eta1_scores(net, dataset.inputs)
        return eta1, predictive_entropy_per_sample(logits)
    n = dataset.n
    sizes = [min(batch_size, n - s) for s in range(0, n, batch_size)]
    eta1, logits = batch_ood_score(net, dataset.inputs, sizes)
    return eta1, segment_means(predictive_entropy_per_sample(logits), sizes)


def cmd_ood_hist(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    outdir = _resolve_outdir(args, cfg)
    os.makedirs(outdir, exist_ok=True)
    net = _restore_network(cfg, args.checkpoint)
    in_set = load_dataset(args.in_set)
    out_set = load_dataset(args.out_set)
    batch = int(cfg["loop.ood_batch_size"])
    in_eta1, in_pe = _dataset_scores(net, in_set, batch, args.granularity)
    out_eta1, out_pe = _dataset_scores(net, out_set, batch, args.granularity)
    export_score_csv(os.path.join(outdir, "hist_eta1.csv"), in_eta1, out_eta1, "eta1")
    export_score_csv(os.path.join(outdir, "hist_pe.csv"), in_pe, out_pe,
                     "predictive_entropy")
    auroc_eta1 = auroc(in_eta1, out_eta1)
    auroc_pe = auroc(in_pe, out_pe)
    summary = "\n".join([
        f"granularity={args.granularity}",
        f"n_in={len(in_eta1)}",
        f"n_out={len(out_eta1)}",
        f"auroc_eta1={auroc_eta1:.6f}",
        f"auroc_predictive_entropy={auroc_pe:.6f}",
    ]) + "\n"
    atomic_write_text(os.path.join(outdir, "ood_summary.txt"), summary)
    print(summary, end="")
    return 0


def cmd_gen_data(args) -> int:
    dataset = synth_generate(args.classes, args.dims, args.separation, args.std,
                             args.n, args.seed, args.clip_unit)
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n} samples ({args.classes} classes, {args.dims} dims) "
          f"-> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    from .engine import evaluate
    net = _restore_network(cfg, args.checkpoint)
    dataset = load_dataset(args.dataset)
    accuracy = evaluate(net, dataset.inputs, dataset.labels)
    print(f"accuracy={accuracy:.6f} n={dataset.n}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "ablate": cmd_ablate,
    "ood-hist": cmd_ood_hist,
    "gen-data": cmd_gen_data,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, NonFiniteLossError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
