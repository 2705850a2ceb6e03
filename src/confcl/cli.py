"""Command line entry points.

Commands: ``kernel`` (pair-weight matrix from an annotation CSV),
``loss`` (breakdown of one embedding batch), ``gradcheck`` (analytic vs
finite-difference gradients), ``eval-detect`` (detection metrics over
volume/mask pairs), and ``simulate`` (the synthetic variant study).

Exit codes: 0 success, 1 malformed input or a failed check (with an
error JSON on stderr), 2 usage errors.  File outputs are written
atomically; stdout JSON is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bench, detection, io as cio, losses, metadata

VARIANT_NAMES = tuple(bench.STUDY_VARIANTS)
KERNEL_VARIANT_NAMES = ("proposed", "hc", "majority", "biopsy")


def _print_json(payload: dict, out: str | None) -> None:
    if out is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        cio.write_json_atomic(out, payload)


def _fail(exc: Exception) -> int:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, cio.FileFormatError):
        payload["file"] = exc.file
        payload["line"] = exc.line
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


def _parse_overrides(entries: list[str]) -> dict[str, float]:
    overrides: dict[str, float] = {}
    for entry in entries:
        exam_id, sep, value = entry.partition("=")
        if not sep or not exam_id:
            raise ValueError(f"bad --epsilon-override {entry!r}; expected EXAM_ID=VALUE")
        overrides[exam_id] = float(value)
    return overrides


def _resolve_overrides(
    vectors: list[metadata.AnnotationVector],
    entries: list[str],
    biopsy_source: str | None,
    variant: str,
) -> dict[str, float]:
    """Explicit EXAM_ID=VALUE entries plus bulk source-based full trust.

    The biopsy variant without explicit settings defaults to trusting
    every isup-sourced exam fully.
    """
    overrides = _parse_overrides(entries)
    if variant == "biopsy" and not entries and biopsy_source is None:
        biopsy_source = "isup"
    if biopsy_source is not None:
        src = metadata.Source(biopsy_source)
        for vec in vectors:
            if src in vec.sources:
                overrides.setdefault(vec.exam_id, 1.0)
    return overrides


def _read_summaries(args: argparse.Namespace) -> list[metadata.MetadataSummary]:
    """The --metadata CSV's exams, in first-appearance order, summarized
    under the --epsilon, --epsilon-override and --biopsy-source options."""
    vectors = cio.read_metadata_csv(args.metadata)
    overrides = _resolve_overrides(
        vectors, args.epsilon_override, args.biopsy_source, args.variant
    )
    return metadata.summarize_batch(vectors, args.epsilon, overrides)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_kernel(args: argparse.Namespace) -> int:
    summaries = _read_summaries(args)
    spec = bench.variant_spec(args.variant)
    partition = losses.partition_batch(summaries, spec.kernel)
    kernel = metadata.kernel_matrix(list(partition.labeled_summaries), spec.kernel)
    cio.write_matrix_csv(args.out, kernel.weights)
    _print_json(
        {
            "variant": args.variant,
            "epsilon": args.epsilon,
            "labeled": [s.exam_id for s in partition.labeled_summaries],
            "unlabeled": [summaries[i].exam_id for i in partition.unlabeled],
            "shape": list(kernel.weights.shape),
            "out": args.out,
        },
        None,
    )
    return 0


def _load_views(args: argparse.Namespace) -> tuple[np.ndarray, np.ndarray]:
    if args.embeddings is not None:
        return cio.read_embeddings(args.embeddings)
    if args.x1 is None or args.x2 is None:
        raise ValueError("give --embeddings or both --x1 and --x2")
    return cio.read_matrix_csv(args.x1), cio.read_matrix_csv(args.x2)


def _cmd_loss(args: argparse.Namespace) -> int:
    x1, x2 = _load_views(args)
    if args.normalize:
        x1 = x1 / np.sqrt((x1 * x1).sum(axis=1, keepdims=True) + bench.EPS_NORM**2)
        x2 = x2 / np.sqrt((x2 * x2).sum(axis=1, keepdims=True) + bench.EPS_NORM**2)
    batch = losses.ViewPairBatch(x1, x2)
    spec = bench.variant_spec(args.variant)
    # Metadata rows map onto batch rows by first appearance order; rows
    # past the last annotated exam (all of them without --metadata) are
    # unlabeled.
    summaries = _read_summaries(args) if args.metadata is not None else []
    if len(summaries) > batch.n:
        raise cio.FileFormatError(
            f"{len(summaries)} exams but the batch has only {batch.n} rows", args.metadata
        )
    summaries += [
        metadata.MetadataSummary.unlabeled(f"row-{i}") for i in range(len(summaries), batch.n)
    ]
    partition, kernel = bench.batch_loss_inputs(summaries, spec)
    breakdown = losses.loss_decoupled(batch, partition, kernel, spec.global_uniformity)
    payload = breakdown.as_dict()
    payload["variant"] = args.variant
    payload["n"] = batch.n
    _print_json(payload, args.out)
    return 0


def _random_summaries(
    n: int, rng: np.random.Generator, epsilon: float, trusted: bool
) -> list[metadata.MetadataSummary]:
    out = []
    for i in range(n):
        n_votes = int(rng.integers(0, 8))
        votes = tuple(int(v) for v in rng.integers(0, 2, n_votes))
        vec = metadata.AnnotationVector(
            f"row-{i}", votes, tuple(metadata.Source.PIRADS for _ in range(n_votes))
        )
        out.append(metadata.summarize(vec, 1.0 if trusted else epsilon))
    return out


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    batch = losses.ViewPairBatch(
        rng.normal(0.0, 1.0, (args.n, args.d)), rng.normal(0.0, 1.0, (args.n, args.d))
    )
    spec = bench.variant_spec(args.variant)
    summaries = _random_summaries(args.n, rng, args.epsilon, spec.epsilon == 1.0)
    partition, kernel = bench.batch_loss_inputs(summaries, spec)
    analytic = losses.loss_gradient(
        "decoupled", batch, partition, kernel, spec.global_uniformity
    )
    numeric = losses.finite_diff_gradient(
        "decoupled", batch, partition, kernel, spec.global_uniformity, h=args.h
    )
    err = losses.max_relative_error(analytic, numeric)
    ok = err <= args.tol
    _print_json(
        {
            "variant": args.variant,
            "n": args.n,
            "d": args.d,
            "seed": args.seed,
            "h": args.h,
            "tol": args.tol,
            "max_rel_error": err,
            "ok": ok,
        },
        None,
    )
    return 0 if ok else 1


def _dynamic_params(args: argparse.Namespace) -> detection.DynamicThresholdParams:
    return detection.DynamicThresholdParams(
        t_start=args.t_start,
        t_min=args.t_min,
        step=args.step,
        max_candidates=args.max_candidates,
        min_voxels=args.min_voxels,
    )


def _cmd_eval_detect(args: argparse.Namespace) -> int:
    if len(args.prob) != len(args.ref):
        raise ValueError(
            f"{len(args.prob)} --prob files but {len(args.ref)} --ref files"
        )
    if args.threshold is not None and args.dynamic:
        raise ValueError("give --threshold or --dynamic, not both")
    fixed_t = 0.5 if args.threshold is None else args.threshold
    results = []
    for idx, (prob_path, ref_path) in enumerate(zip(args.prob, args.ref)):
        volume = detection.ProbVolume(cio.read_volume(prob_path))
        mask = detection.BinaryMask(cio.read_mask(ref_path))
        results.append(
            detection.evaluate_exam(
                f"exam-{idx:04d}",
                volume,
                mask,
                tau=args.tau,
                connectivity=args.connectivity,
                threshold=None if args.dynamic else fixed_t,
                dynamic=_dynamic_params(args) if args.dynamic else None,
            )
        )
    outcomes = [r.outcome for r in results]
    n_ref = sum(o.n_reference for o in outcomes)
    n_pool = sum(
        len(o.true_positives) + len(o.false_positives) + len(o.false_negatives)
        for o in outcomes
    )
    # (name, metric, its input, n for the CSV); an undefined metric is None
    # with the reason in notes.
    table = (
        ("exam_auc", detection.exam_auc, results, len(results)),
        ("lesion_auc", detection.lesion_auc, outcomes, n_pool),
        ("map", detection.average_precision, outcomes, n_ref),
    )
    metrics: dict[str, float | None] = {}
    notes: dict[str, str] = {}
    for name, metric, inputs, _ in table:
        try:
            metrics[name] = metric(inputs)
        except ValueError as exc:
            metrics[name] = None
            notes[name] = str(exc)
    payload = {
        "settings": {
            "tau": args.tau,
            "overlap": "iou",
            "match_comparison": "strict_greater",
            "connectivity": args.connectivity,
            "threshold": "dynamic" if args.dynamic else fixed_t,
            "fn_injected_as_zero_score_positives": True,
            "map_pooling": "dataset",
        },
        "per_exam": [_exam_entry(r) for r in results],
        "metrics": metrics,
        "notes": notes,
    }
    _print_json(payload, args.out)
    if args.csv is not None:
        cio.write_csv_table(
            args.csv, ("metric", "value", "n"), [(name, metrics[name], n) for name, _, _, n in table]
        )
    return 0


def _exam_entry(r: detection.ExamResult) -> dict:
    """The ExamResult's fields with its outcome's matches one level deep.

    A shallow conversion on purpose: dataclasses.asdict deep-copies every
    element, which costs about 100 times more on an exam with hundreds of
    missed references.
    """
    tps, fps = r.outcome.true_positives, r.outcome.false_positives
    return {
        **{k: v for k, v in vars(r).items() if k != "outcome"},
        "n_candidates": len(tps) + len(fps),
        "true_positives": [dict(vars(tp)) for tp in tps],
        "false_positives": [dict(vars(fp)) for fp in fps],
        "false_negatives": list(r.outcome.false_negatives),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
                raise cio.FileFormatError(exc.msg, args.config, exc.lineno) from None
        try:
            config = bench.config_from_dict(raw)
        except (TypeError, ValueError) as exc:
            raise cio.FileFormatError(str(exc), args.config) from None
    else:
        config = bench.default_config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    variants = args.variants.split(",") if args.variants else None
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    report = bench.run_study(config, variants, seeds, args.workers)
    _print_json(report.as_dict(), args.out)
    if args.cells_csv is not None:
        _write_cells_csv(args.cells_csv, report)
    if args.summary_csv is not None:
        _write_summary_csv(args.summary_csv, report)
    return 1 if any(r.error is not None for r in report.records) else 0


def _write_cells_csv(path: str, report: bench.StudyReport) -> None:
    fields = bench.SUMMARY_FIELDS
    cio.write_csv_table(
        path,
        ("variant", "seed", *fields),
        [(r.variant, r.seed, *(getattr(r, f) for f in fields)) for r in report.records],
    )


def _write_summary_csv(path: str, report: bench.StudyReport) -> None:
    fields, moments = bench.SUMMARY_FIELDS, ("mean", "std")
    aggregates = report.aggregates()
    cio.write_csv_table(
        path,
        ("variant", *(f"{f}_{m}" for f in fields for m in moments), "n"),
        [
            (v, *(aggregates[v][f][m] for f in fields for m in moments), aggregates[v][fields[0]]["n"])
            for v in report.variants
        ],
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcl",
        description="Confidence-weighted conditional contrastive losses and their evaluation tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_metadata_opts(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("--metadata", required=required, help="exam_id,source,value CSV")
        p.add_argument("--epsilon", type=float, default=metadata.DEFAULT_EPSILON)
        p.add_argument(
            "--epsilon-override",
            action="append",
            default=[],
            metavar="EXAM_ID=VALUE",
            help="per-exam single-vote confidence override (repeatable)",
        )
        p.add_argument(
            "--biopsy-source",
            choices=[s.value for s in metadata.Source],
            default=None,
            help="trust every exam with a vote from this source fully (epsilon 1)",
        )

    p_kernel = sub.add_parser("kernel", help="pair-weight matrix from annotations")
    add_metadata_opts(p_kernel, required=True)
    p_kernel.add_argument("--variant", choices=KERNEL_VARIANT_NAMES, default="proposed")
    p_kernel.add_argument("--out", required=True, help="output CSV path")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_loss = sub.add_parser("loss", help="loss breakdown for one embedding batch")
    p_loss.add_argument("--embeddings", help="EMB1 binary file with both views")
    p_loss.add_argument("--x1", help="view 1 CSV (with --x2)")
    p_loss.add_argument("--x2", help="view 2 CSV (with --x1)")
    add_metadata_opts(p_loss, required=False)
    p_loss.add_argument("--variant", choices=VARIANT_NAMES, default="proposed")
    p_loss.add_argument("--normalize", action="store_true", help="L2-normalize rows first")
    p_loss.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_loss.set_defaults(func=_cmd_loss)

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_grad.add_argument("--n", type=int, default=6)
    p_grad.add_argument("--d", type=int, default=4)
    p_grad.add_argument("--variant", choices=VARIANT_NAMES, default="proposed")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--epsilon", type=float, default=metadata.DEFAULT_EPSILON)
    p_grad.add_argument("--h", type=float, default=1e-5)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_eval = sub.add_parser("eval-detect", help="detection metrics for volume/mask pairs")
    p_eval.add_argument("--prob", action="append", required=True, help="VOL1 file (repeatable)")
    p_eval.add_argument("--ref", action="append", required=True, help="MSK1 file (repeatable)")
    p_eval.add_argument("--tau", type=float, default=0.1)
    p_eval.add_argument("--connectivity", type=int, choices=detection.CONNECTIVITIES, default=26)
    p_eval.add_argument("--threshold", type=float, default=None, help="fixed threshold (default 0.5)")
    p_eval.add_argument("--dynamic", action="store_true", help="use the descending threshold search")
    p_eval.add_argument("--t-start", type=float, default=0.6)
    p_eval.add_argument("--t-min", type=float, default=0.1)
    p_eval.add_argument("--step", type=float, default=0.05)
    p_eval.add_argument("--max-candidates", type=int, default=5)
    p_eval.add_argument("--min-voxels", type=int, default=10)
    p_eval.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_eval.add_argument("--csv", default=None, help="metric,value,n CSV path")
    p_eval.set_defaults(func=_cmd_eval_detect)

    p_sim = sub.add_parser("simulate", help="run the synthetic variant study")
    p_sim.add_argument("--config", default=None, help="SynthConfig JSON (default: built-in)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--variants", default=None, help="comma-separated variant names")
    p_sim.add_argument("--seeds", default=None, help="comma-separated dataset seeds")
    p_sim.add_argument("--workers", type=int, default=None, help=f"cell parallelism (default ${bench.WORKERS_ENV} or 1)")
    p_sim.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_sim.add_argument("--cells-csv", default=None, help="per-cell CSV path")
    p_sim.add_argument("--summary-csv", default=None, help="per-variant mean/std CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cio.FileFormatError, metadata.AnnotationError, losses.DegenerateUniformityError) as exc:
        return _fail(exc)
    except (ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
