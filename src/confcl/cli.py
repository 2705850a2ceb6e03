"""Command line entry points.

Commands: ``kernel`` (pair-weight matrix from an annotation CSV),
``loss`` (breakdown of one embedding batch), ``gradcheck`` (analytic vs
finite-difference gradients), ``eval-detect`` (detection metrics over
volume/mask pairs), and ``simulate`` (the synthetic variant study).

Exit codes: 0 success, 1 malformed input or a failed check (with an
error JSON on stderr), 2 usage errors.  File outputs are written
atomically; stdout JSON is deterministic for fixed inputs.

``main(argv)`` may be called repeatedly in one process: it returns the
exit code, raises ``SystemExit(2)`` on a usage error, and builds its
parser once, on the first call.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys

import numpy as np

from . import bench, detection, io as cio, losses, metadata

VARIANT_NAMES = tuple(bench.STUDY_VARIANTS)
KERNEL_VARIANT_NAMES = ("proposed", "hc", "majority", "biopsy")


def _print_json(payload: dict, out: str | None) -> None:
    """Strict JSON: a NaN or infinity raises ValueError instead of printing a non-JSON token."""
    if out is None:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        cio.write_json_atomic(out, payload)


def _fail(exc: Exception) -> int:
    payload: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, cio.FileFormatError):
        payload["file"] = exc.file
        payload["line"] = exc.line
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 1


def _parse_overrides(args: argparse.Namespace) -> dict[str, float]:
    """The --epsilon-override entries as exam id -> epsilon, each value and
    --epsilon checked against the (0, 1] rule before any file is read."""
    metadata.check_epsilon(args.epsilon, "--epsilon")
    overrides: dict[str, float] = {}
    for entry in args.epsilon_override or ():
        exam_id, sep, value = entry.partition("=")
        if not sep or not exam_id:
            raise ValueError(f"bad --epsilon-override {entry!r}; expected EXAM_ID=VALUE")
        if exam_id in overrides:
            raise ValueError(f"--epsilon-override gives exam {exam_id!r} twice")
        try:
            epsilon = float(value)
        except ValueError:
            raise ValueError(f"bad --epsilon-override {entry!r}; VALUE {value!r} is not a number") from None
        overrides[exam_id] = metadata.check_epsilon(epsilon, f"--epsilon-override {exam_id}")
    return overrides


def _read_summaries(
    args: argparse.Namespace, overrides: dict[str, float]
) -> tuple[list[str], tuple[np.ndarray, np.ndarray]]:
    """The --metadata CSV's exam ids, in first-appearance order, and their
    (label, confidence) columns: each exam with its --epsilon-override, else
    with --epsilon and the trusted source: --biopsy-source, else the
    variant's.  An override of an exam the CSV lacks is an error."""
    votes = cio.read_metadata_columns(args.metadata)
    for exam_id in overrides:
        if exam_id not in votes.exam_ids:
            raise cio.FileFormatError(f"no exam {exam_id!r}, which --epsilon-override names", args.metadata)
    source = args.biopsy_source
    trusted = bench.variant_spec(args.variant).trusted if source is None else metadata.Source(source)
    return votes.exam_ids, metadata.summarize_votes(votes, args.epsilon, trusted, overrides)


def _given(args: argparse.Namespace, flags: tuple[str, ...]) -> list[tuple[str, str]]:
    """(flag, path) for each path these flags were given, repeats included."""
    values = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in flags}
    return [
        (f, p) for f, v in values.items() for p in (v if isinstance(v, list) else [v]) if p is not None
    ]


def _check_paths(args: argparse.Namespace) -> None:
    """Fail before any input is read, not after the work, when an output
    (a flag in args.outputs) is a directory, has no directory, or is the
    file of an input (args.inputs) or of an earlier output: the same real
    path, or an existing file os.path.samefile matches, as a hard link."""
    named = _given(args, args.inputs)
    for flag, path in _given(args, args.outputs):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, f"{flag} is a directory", path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, f"no directory for {flag}", path)
        for other, earlier in named:
            if os.path.realpath(earlier) == os.path.realpath(path) or (
                os.path.exists(earlier) and os.path.exists(path) and os.path.samefile(earlier, path)
            ):
                raise ValueError(f"{other} and {flag} both name {path}")
        named.append((flag, path))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_kernel(args: argparse.Namespace) -> int:
    exam_ids, summaries = _read_summaries(args, _parse_overrides(args))
    partition, kernel = losses.batch_inputs(*summaries, bench.variant_spec(args.variant).kernel)
    cio.write_kernel_csv(args.out, kernel.classes, kernel.weights)
    _print_json(
        {
            "variant": args.variant,
            "epsilon": args.epsilon,
            "labeled": [exam_ids[i] for i in partition.labeled],
            "unlabeled": [exam_ids[i] for i in partition.unlabeled],
            "shape": [kernel.n] * 2,
            "out": args.out,
        },
        None,
    )
    return 0


def _load_views(args: argparse.Namespace) -> tuple[losses.ViewPairBatch, tuple[str, str]]:
    """The batch, and where each view came from as "FLAG PATH"."""
    if args.embeddings is not None:
        if args.x1 is not None or args.x2 is not None:
            raise ValueError("give --embeddings or --x1 and --x2, not both")
        source = f"--embeddings {args.embeddings}"
        return cio.read_embeddings(args.embeddings), (source, source)
    if args.x1 is None or args.x2 is None:
        raise ValueError("give --embeddings or both --x1 and --x2")
    x1, x2 = cio.read_matrix_csv(args.x1), cio.read_matrix_csv(args.x2)
    try:
        return losses.ViewPairBatch(x1, x2), (f"--x1 {args.x1}", f"--x2 {args.x2}")
    except ValueError as exc:  # the readers admit only finite (N, D), so a shape mismatch
        raise ValueError(f"--x1 {args.x1} with --x2 {args.x2}: {exc}") from None


def _normalized(batch: losses.ViewPairBatch, sources: tuple[str, str]) -> losses.ViewPairBatch:
    """Both views with unit rows; a finite row whose squared norm overflows
    float64 (which normalize_rows would scale to 0) is an error."""
    views = []
    for k, (x, source) in enumerate(zip((batch.x1, batch.x2), sources), start=1):
        with np.errstate(over="ignore"):
            unit, norms = bench.normalize_rows(x)
        overflow = np.flatnonzero(np.isinf(norms))
        if len(overflow):
            raise ValueError(
                f"--normalize: row {overflow[0]} of view {k} in {source} has a squared norm beyond float64"
            )
        views.append(unit)
    return losses.ViewPairBatch(*views)


def _cmd_loss(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args)
    for flag, given in (("--epsilon-override", overrides), ("--biopsy-source", args.biopsy_source)):
        if given and args.metadata is None:
            raise ValueError(f"{flag} needs --metadata")
    batch, sources = _load_views(args)
    if args.normalize:
        batch = _normalized(batch, sources)
    spec = bench.variant_spec(args.variant)
    # Metadata rows map onto batch rows by first appearance order; rows
    # past the last annotated exam (all of them without --metadata) are
    # unlabeled.
    label, conf = np.full(batch.n, -1), np.zeros(batch.n)
    if args.metadata is not None:
        exam_ids, (labels, confs) = _read_summaries(args, overrides)
        if len(exam_ids) > batch.n:
            raise cio.FileFormatError(
                f"{len(exam_ids)} exams but the batch has only {batch.n} rows", args.metadata
            )
        label[: len(exam_ids)], conf[: len(exam_ids)] = labels, confs
    partition, kernel = losses.batch_inputs(label, conf, spec.kernel)
    breakdown = losses.loss_decoupled(batch, partition, kernel, spec.global_uniformity)
    payload = breakdown.as_dict()
    names = sorted(breakdown.present) + ["total"]
    bad = [f"{name} = {payload[name]}" for name in names if not np.isfinite(payload[name])]
    if bad:
        inputs = " and ".join(dict.fromkeys(sources))
        raise ValueError(f"the loss of {inputs} is not finite, and JSON holds no inf or nan: {', '.join(bad)}")
    payload["variant"] = args.variant
    payload["n"] = batch.n
    _print_json(payload, args.out)
    return 0


def _random_summaries(
    n: int, rng: np.random.Generator, epsilon: float, trusted: metadata.Source | None
) -> list[metadata.MetadataSummary]:
    out = []
    for i in range(n):
        n_votes = int(rng.integers(0, 8))
        votes = tuple(int(v) for v in rng.integers(0, 2, n_votes))
        vec = metadata.AnnotationVector(f"row-{i}", votes, bench.vote_sources(n_votes))
        out.append(metadata.summarize(vec, epsilon, trusted))
    return out


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    for flag, value in (("--n", args.n), ("--d", args.d)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value!r}")
    if not 0.0 < args.h < np.inf:
        raise ValueError(f"--h must be finite and > 0, got {args.h!r}")
    if not 0.0 <= args.tol < np.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
    metadata.check_epsilon(args.epsilon, "--epsilon")
    rng = np.random.default_rng(args.seed)
    batch = losses.ViewPairBatch(
        rng.normal(0.0, 1.0, (args.n, args.d)), rng.normal(0.0, 1.0, (args.n, args.d))
    )
    spec = bench.variant_spec(args.variant)
    summaries = _random_summaries(args.n, rng, args.epsilon, spec.trusted)
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


def _cmd_eval_detect(args: argparse.Namespace) -> int:
    if len(args.prob) != len(args.ref):
        raise ValueError(
            f"{len(args.prob)} --prob files but {len(args.ref)} --ref files"
        )
    if args.threshold is not None and args.dynamic:
        raise ValueError("give --threshold or --dynamic, not both")
    # Every setting is checked before the first file is read; a search
    # setting away from its default is an error without --dynamic.
    detection.check_tau(args.tau)
    search = dataclasses.fields(detection.DynamicThresholdParams)
    if args.dynamic:
        threshold = detection.DynamicThresholdParams(**{f.name: getattr(args, f.name) for f in search})
    else:
        for f in search:
            if getattr(args, f.name) != f.default:
                raise ValueError(f"--{f.name.replace('_', '-')} is a search setting; give it with --dynamic")
        threshold = detection.check_threshold(0.5 if args.threshold is None else args.threshold)
    results = []
    for idx, (prob_path, ref_path) in enumerate(zip(args.prob, args.ref)):
        volume, reference = cio.read_volume(prob_path), cio.read_mask(ref_path)
        try:
            exam = detection.evaluate_exam(
                f"exam-{idx:04d}", volume, reference, args.tau, args.connectivity, threshold=threshold
            )
        except ValueError as exc:  # a shape mismatch: say which pair
            raise ValueError(f"--prob {prob_path} with --ref {ref_path}: {exc}") from None
        results.append(exam)
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
            "threshold": "dynamic" if args.dynamic else threshold,
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
        raw = cio.read_json(args.config)
        try:
            config = bench.config_from_dict(raw)
        except (TypeError, ValueError) as exc:
            raise cio.FileFormatError(str(exc), args.config) from None
    else:
        config = bench.default_config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    variants = _list_option(args.variants, "--variants", str)
    seeds = _list_option(args.seeds, "--seeds", int)
    report = bench.run_study(config, variants, seeds, args.workers)
    _print_json(report.as_dict(), args.out)
    if args.cells_csv is not None:
        _write_cells_csv(args.cells_csv, report)
    if args.summary_csv is not None:
        _write_summary_csv(args.summary_csv, report)
    return 1 if any(r.error is not None for r in report.records) else 0


def _list_option(value: str | None, flag: str, cast) -> list | None:
    """A comma-separated option's entries through cast, or None if it was not
    given; an empty list or entry is an error, not a request for the default,
    and an entry that cast rejects is named with its flag."""
    if value is None:
        return None
    entries = value.split(",")
    if "" in entries:
        raise ValueError(f"{flag} {value!r} has an empty entry")
    parsed = []
    for entry in entries:
        try:
            parsed.append(cast(entry))
        except ValueError as exc:
            raise ValueError(f"{flag} {value!r} has a bad entry {entry!r}: {exc}") from None
    return parsed


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
            default=None,
            metavar="EXAM_ID=VALUE",
            help="per-exam single-vote confidence override (repeatable)",
        )
        p.add_argument(
            "--biopsy-source",
            choices=[s.value for s in metadata.Source],
            default=None,
            help="single-vote confidence 1 for an exam whose lone vote is from this source",
        )

    p_kernel = sub.add_parser("kernel", help="pair-weight matrix from annotations")
    add_metadata_opts(p_kernel, required=True)
    p_kernel.add_argument("--variant", choices=KERNEL_VARIANT_NAMES, default="proposed")
    p_kernel.add_argument("--out", required=True, help="output CSV path")
    p_kernel.set_defaults(func=_cmd_kernel, inputs=("--metadata",), outputs=("--out",))

    p_loss = sub.add_parser("loss", help="loss breakdown for one embedding batch")
    p_loss.add_argument("--embeddings", help="EMB1 binary file with both views")
    p_loss.add_argument("--x1", help="view 1 CSV (with --x2)")
    p_loss.add_argument("--x2", help="view 2 CSV (with --x1)")
    add_metadata_opts(p_loss, required=False)
    p_loss.add_argument("--variant", choices=VARIANT_NAMES, default="proposed")
    p_loss.add_argument("--normalize", action="store_true", help="L2-normalize rows first")
    p_loss.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_loss.set_defaults(
        func=_cmd_loss, inputs=("--embeddings", "--x1", "--x2", "--metadata"), outputs=("--out",)
    )

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients")
    p_grad.add_argument("--n", type=int, default=6)
    p_grad.add_argument("--d", type=int, default=4)
    p_grad.add_argument("--variant", choices=VARIANT_NAMES, default="proposed")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--epsilon", type=float, default=metadata.DEFAULT_EPSILON)
    p_grad.add_argument("--h", type=float, default=1e-5)
    p_grad.add_argument("--tol", type=float, default=1e-4)
    p_grad.set_defaults(func=_cmd_gradcheck, inputs=(), outputs=())

    p_eval = sub.add_parser("eval-detect", help="detection metrics for volume/mask pairs")
    p_eval.add_argument("--prob", action="append", required=True, help="VOL1 file (repeatable)")
    p_eval.add_argument("--ref", action="append", required=True, help="MSK1 file (repeatable)")
    p_eval.add_argument("--tau", type=float, default=0.1)
    p_eval.add_argument("--connectivity", type=int, choices=detection.CONNECTIVITIES, default=26)
    p_eval.add_argument("--threshold", type=float, default=None, help="fixed threshold (default 0.5)")
    p_eval.add_argument("--dynamic", action="store_true", help="use the descending threshold search")
    for f in dataclasses.fields(detection.DynamicThresholdParams):
        p_eval.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p_eval.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p_eval.add_argument("--csv", default=None, help="metric,value,n CSV path")
    p_eval.set_defaults(func=_cmd_eval_detect, inputs=("--prob", "--ref"), outputs=("--out", "--csv"))

    p_sim = sub.add_parser("simulate", help="run the synthetic variant study")
    p_sim.add_argument("--config", default=None, help="SynthConfig JSON (default: built-in)")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--variants", default=None, help="comma-separated variant names")
    p_sim.add_argument("--seeds", default=None, help="comma-separated dataset seeds")
    p_sim.add_argument("--workers", type=int, default=1, help="cell parallelism")
    p_sim.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p_sim.add_argument("--cells-csv", default=None, help="per-cell CSV path")
    p_sim.add_argument("--summary-csv", default=None, help="per-variant mean/std CSV path")
    p_sim.set_defaults(
        func=_cmd_simulate, inputs=("--config",), outputs=("--out", "--cells-csv", "--summary-csv")
    )

    return parser


# main's parser: build_parser itself returns a fresh one for callers to extend.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_paths(args)
        return args.func(args)
    # FileFormatError, AnnotationError and DegenerateUniformityError are ValueErrors.
    except (ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
