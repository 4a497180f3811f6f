"""Pipeline CLI: ``python -m repro pipeline <verb>``.

Verbs::

    run       start a fresh stream: ingest, classify online, re-fit on drift
    resume    continue an interrupted stream from its checkpoint
    status    per-stage state of a stored stream (no model started)

Examples::

    python -m repro pipeline run --profile agnews --name agnews-live \\
        --n-docs 400 --duplicate-every 7 --drift-at 200 \\
        --drift-labels sports --bootstrap-docs 96
    python -m repro pipeline status --name agnews-live
    python -m repro pipeline resume --name agnews-live --max-batches 50

The corpus store lives under ``--store-root`` / ``REPRO_CORPUS_DIR``;
published models go to ``--registry-root`` / ``REPRO_MODEL_DIR``. Every
run ends with a per-stage footer (source cursor, dedupe drops, store
shards, classify counts, drift levels).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import env as _env
from repro.core.exceptions import ReproError
from repro.pipeline.drift import DriftPolicy
from repro.pipeline.orchestrator import (
    Pipeline,
    PipelineConfig,
    PipelineReport,
    pipeline_status,
)
from repro.pipeline.source import StreamConfig
from repro.pipeline.store import CorpusStore


def _stage_footer(pipe: Pipeline, report: PipelineReport) -> str:
    """The per-stage status footer printed after ``run``/``resume``."""
    drift = report.drift_levels or {}
    gen = pipe.generation
    model = (f"v{report.model_version:04d} (gen {gen})"
             if report.model_version is not None else "-")
    lines = [
        "[pipeline] stages:",
        f"  source     cursor={report.cursor} "
        f"exhausted={'yes' if report.exhausted else 'no'}",
        f"  tokenize   docs={report.ingested + report.deduped}",
        f"  dedupe     kept={report.ingested} dropped={report.deduped}",
        f"  store      docs={pipe.store.docs} "
        f"shards={len(pipe.store.shard_files())}",
        f"  classify   docs={report.classified} model={model}",
        f"  drift      hist={drift.get('hist_distance', 0.0):.3f} "
        f"oov={drift.get('oov_rate', 0.0):.3f} "
        f"conf={drift.get('conf_decay', 0.0):.3f} refits={report.refits}",
    ]
    return "\n".join(lines)


def _run_and_report(pipe: Pipeline, args) -> int:
    report = pipe.run(max_batches=args.max_batches)
    print(f"[pipeline] {report.batches} batches in {report.seconds:.1f}s "
          f"({report.ingested} stored, {report.classified} classified, "
          f"{report.fits} fits)")
    print(_stage_footer(pipe, report))
    return 0


def _cmd_run(args) -> int:
    stream = StreamConfig(
        profile=args.profile,
        seed=args.seed,
        scale=args.scale,
        n_docs=args.n_docs,
        duplicate_every=args.duplicate_every,
        drift_at=args.drift_at,
        drift_labels=tuple(args.drift_labels or ()),
        drift_novel_rate=args.drift_novel_rate,
    )
    config = PipelineConfig(
        stream=stream,
        name=args.name,
        store_root=args.store_root,
        registry_root=args.registry_root,
        method=args.method,
        batch_size=args.batch_size,
        checkpoint_every=args.checkpoint_every,
        bootstrap_docs=args.bootstrap_docs,
        drift=DriftPolicy(
            window=args.drift_window,
            hist_threshold=args.hist_threshold,
            oov_threshold=args.oov_threshold,
            conf_decay_threshold=args.conf_decay_threshold),
        seed=args.seed,
    )
    return _run_and_report(Pipeline(config), args)


def _cmd_resume(args) -> int:
    return _run_and_report(Pipeline.resume(args.name, args.store_root), args)


def _cmd_status(args) -> int:
    root = Path(args.store_root) if args.store_root else _env.corpus_dir()
    store = CorpusStore(root / args.name)
    status = pipeline_status(store)
    print(f"[pipeline] {status['name']} (model {status['model_name']})")
    print(f"  store      docs={status['store_docs']} "
          f"shards={status['shards']} "
          f"predictions={status['predictions']}")
    checkpoint = status["checkpoint"]
    if checkpoint is None:
        print("  checkpoint none (stream never checkpointed)")
    else:
        model = (f"v{checkpoint['model_version']:04d}"
                 if checkpoint["model_version"] is not None else "-")
        print(f"  checkpoint cursor={checkpoint['cursor']} "
              f"ingested={checkpoint['ingested']} "
              f"deduped={checkpoint['deduped']} "
              f"classified={checkpoint['classified']}")
        print(f"  model      {model} fits={checkpoint['fits']} "
              f"drift_triggers={checkpoint['drift_triggers']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro pipeline",
        description="streaming ingestion + online classification")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--name", default="stream",
                       help="stream name (store subdirectory)")
        p.add_argument("--store-root", default=None,
                       help="corpus-store root (default REPRO_CORPUS_DIR)")
        p.add_argument("--max-batches", type=int, default=None,
                       help="stop after N batches (default: exhaustion)")

    run = sub.add_parser("run", help="start a fresh stream")
    common(run)
    run.add_argument("--profile", default="agnews")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--n-docs", type=int, default=None)
    run.add_argument("--duplicate-every", type=int, default=0)
    run.add_argument("--drift-at", type=int, default=None)
    run.add_argument("--drift-labels", nargs="*", default=None)
    run.add_argument("--drift-novel-rate", type=float, default=0.0)
    run.add_argument("--drift-window", type=int, default=64)
    run.add_argument("--hist-threshold", type=float, default=0.35,
                     help="label-histogram TV distance that re-fits")
    run.add_argument("--oov-threshold", type=float, default=None,
                     help="window OOV rate that re-fits (default: off)")
    run.add_argument("--conf-decay-threshold", type=float, default=None,
                     help="mean-confidence drop that re-fits (default: off)")
    run.add_argument("--method", default="westclass")
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--checkpoint-every", type=int, default=4)
    run.add_argument("--bootstrap-docs", type=int, default=64)
    run.add_argument("--registry-root", default=None,
                     help="model-registry root (default REPRO_MODEL_DIR)")
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser("resume",
                            help="continue a stream from its checkpoint")
    common(resume)
    resume.set_defaults(func=_cmd_resume)

    status = sub.add_parser("status", help="show stored-stream state")
    status.add_argument("--name", default="stream")
    status.add_argument("--store-root", default=None)
    status.set_defaults(func=_cmd_status)
    return parser


def main(argv: "list | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
