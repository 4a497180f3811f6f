"""Serving CLI: ``python -m repro serve <verb>``.

Verbs::

    export    train a registered method on a catalog profile and publish it
    list      one row per published model (versions, method, labels)
    inspect   dump a model version's manifest as JSON
    predict   classify documents with one in-process predict call
    pool      serve a model over a multi-process replica pool + HTTP
    evict     delete a model version (or a whole model with --all)

Examples::

    python -m repro serve export --method westclass --profile agnews \\
        --scale 0.5 --name agnews-westclass
    python -m repro serve list
    python -m repro serve predict agnews-westclass --text "the team won"
    python -m repro serve pool agnews-westclass --replicas 4 --port 8321
    python -m repro serve inspect agnews-westclass@1
    python -m repro serve evict agnews-westclass --all

The registry root comes from ``--root`` or the ``REPRO_MODEL_DIR``
environment knob.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.exceptions import ReproError
from repro.core.registry import method_registry
from repro.datasets import available_profiles, load_profile
from repro.evaluation.reporting import format_table
from repro.serve.http import PoolServer
from repro.serve.pool import PoolConfig, ReplicaPool
from repro.serve.registry import ModelRegistry, parse_ref


def _method_index() -> dict:
    """Registered methods keyed by normalized CLI name (``x-class`` etc.)."""
    index = {}
    for info in method_registry().values():
        if info.cls is not None:
            index[info.name.lower().replace("-", "")] = info
    return index


def _supervision(bundle, info, kind: "str | None", seed: int):
    """Build the requested (or first supported) supervision format."""
    builders = {
        "LabelNames": ("labels", bundle.label_names),
        "Keywords": ("keywords", bundle.keywords),
        "LabeledDocuments": ("docs",
                             lambda: bundle.labeled_documents(5, seed=seed)),
    }
    supported = {builders[fmt][0]: builders[fmt][1]
                 for fmt in info.supervision if fmt in builders}
    if kind is None:
        kind = next(iter(supported))
    if kind not in supported:
        raise ReproError(
            f"{info.name} does not support supervision {kind!r} "
            f"(supported: {', '.join(supported)})"
        )
    return kind, supported[kind]()


def _cmd_export(args) -> int:
    index = _method_index()
    key = args.method.lower().replace("-", "")
    if key not in index:
        print(f"unknown method {args.method!r}; "
              f"available: {', '.join(sorted(index))}", file=sys.stderr)
        return 2
    info = index[key]
    bundle = load_profile(args.profile, seed=args.seed, scale=args.scale)
    kind, supervision = _supervision(bundle, info, args.supervision, args.seed)
    name = args.name or f"{args.profile}-{key}"
    print(f"training {info.name} on {args.profile} "
          f"(seed={args.seed}, scale={args.scale}, supervision={kind})...")
    start = time.time()
    model = info.cls(seed=args.seed)
    model.fit(bundle.train_corpus, supervision)
    trained = time.time() - start
    registry = ModelRegistry(args.root)
    probe = None
    if args.quantize:
        # Gate probe: held-out test documents the method never saw in fit.
        probe = bundle.test_corpus[: args.probe_docs]
        print(f"quantizing to {args.quantize} "
              f"(gate: {args.max_accuracy_delta} macro-F1 points "
              f"on {len(probe)} probe docs)...")
    version = registry.publish(name, model, provenance={
        "profile": args.profile,
        "seed": args.seed,
        "scale": args.scale,
        "supervision": kind,
        "method": info.name,
        "train_docs": len(bundle.train_corpus),
        "train_seconds": round(trained, 2),
    }, quantize=args.quantize, probe=probe,
        max_accuracy_delta=args.max_accuracy_delta)
    suffix = f" [{args.quantize}]" if args.quantize else ""
    print(f"published {name}@v{version:04d}{suffix} "
          f"({registry.version_dir(name, version)}) [{trained:.1f}s train]")
    return 0


def _cmd_list(args) -> int:
    registry = ModelRegistry(args.root)
    rows = registry.describe()
    if not rows:
        print(f"no models published under {registry.root}")
        return 0
    print(format_table(rows, title=f"models in {registry.root}"))
    return 0


def _cmd_inspect(args) -> int:
    registry = ModelRegistry(args.root)
    name, version = parse_ref(args.model)
    print(json.dumps(registry.inspect(name, version), indent=2,
                     sort_keys=True))
    return 0


def _read_docs(args) -> list:
    if args.text:
        return list(args.text)
    if args.file:
        lines = Path(args.file).read_text().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    return [line for line in lines if line.strip()]


def _cmd_predict(args) -> int:
    registry = ModelRegistry(args.root)
    name, version = parse_ref(args.model)
    docs = _read_docs(args)
    if not docs:
        print("no documents to classify (use --text/--file or stdin)",
              file=sys.stderr)
        return 2
    loaded = registry.load(name, version, verify=not args.no_verify)
    if not args.no_warmup:
        loaded.warmup()
    start = time.time()
    labels = loaded.predict(docs)
    elapsed = time.time() - start
    for doc, label in zip(docs, labels):
        shown = label if isinstance(label, str) else ",".join(label)
        print(f"{shown}\t{doc[:70]}")
    print(f"[{len(docs)} docs in {elapsed * 1000:.0f}ms]", file=sys.stderr)
    return 0


def _cmd_pool(args) -> int:
    registry = ModelRegistry(args.root)
    name, version = parse_ref(args.model)
    resolved = registry.resolve(name, version)
    if args.trace is not None:
        obs.enable(f"serve:pool:{name}")
    config = PoolConfig(replicas=args.replicas, max_queue=args.max_queue,
                        max_batch_docs=args.batch,
                        default_deadline_s=args.deadline,
                        warmup=not args.no_warmup,
                        verify=not args.no_verify)
    pool = ReplicaPool(registry.version_dir(name, resolved), config=config)
    server = PoolServer(pool, host=args.host, port=args.port).start()
    try:
        host, port = server.address
        print(f"listening on http://{host}:{port} "
              f"({name}@v{resolved:04d}, {args.replicas} replica(s))",
              flush=True)
        if args.port_file:
            Path(args.port_file).write_text(f"{host} {port}\n")
        try:
            if args.max_seconds is not None:
                time.sleep(args.max_seconds)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down...", file=sys.stderr)
    finally:
        server.close()
        pool.close()
        stats = pool.stats()
        print(f"[pool] dispatched={stats['dispatched']} "
              f"completed={stats['completed']} failed={stats['failed']} "
              f"shed={stats['shed']} deaths={stats['replica_deaths']} "
              f"replica_busy_max={stats['replica_busy_max']}",
              file=sys.stderr)
        if args.trace is not None:
            tracer = obs.disable()
            path = tracer.write(Path(args.trace)
                                / f"trace_pool_{name}.jsonl")
            print(obs.trace_footer(tracer, path))
    return 0


def _cmd_evict(args) -> int:
    registry = ModelRegistry(args.root)
    name, version = parse_ref(args.model)
    if args.all:
        removed = registry.evict(name, None)
    else:
        if "@" not in args.model:
            print("refusing to evict without an explicit @version "
                  "(pass --all to delete every version)", file=sys.stderr)
            return 2
        removed = registry.evict(name, version)
    print(f"evicted {name}: versions {removed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Export, version, and serve trained models.",
    )
    parser.add_argument("--root", type=Path, default=None,
                        help="registry root (default: REPRO_MODEL_DIR)")
    sub = parser.add_subparsers(dest="verb", required=True)

    export = sub.add_parser("export", help="train a method and publish it")
    export.add_argument("--method", required=True,
                        help="registered method (e.g. westclass, x-class)")
    export.add_argument("--profile", default="agnews",
                        help=f"dataset profile ({', '.join(available_profiles())})")
    export.add_argument("--name", default=None,
                        help="model name (default: <profile>-<method>)")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier")
    export.add_argument("--supervision", default=None,
                        choices=["labels", "keywords", "docs"],
                        help="supervision format (default: method's first)")
    export.add_argument("--quantize", default=None,
                        choices=["int8", "float16"],
                        help="publish quantized predict-only weights "
                             "(gated on probe-set accuracy delta)")
    export.add_argument("--max-accuracy-delta", type=float, default=0.5,
                        help="macro-F1 points the quantized model may "
                             "lose on the probe set (default: 0.5)")
    export.add_argument("--probe-docs", type=int, default=64,
                        help="held-out documents for the quantization "
                             "gate (default: 64)")
    export.set_defaults(fn=_cmd_export)

    lst = sub.add_parser("list", help="list published models")
    lst.set_defaults(fn=_cmd_list)

    inspect = sub.add_parser("inspect", help="dump a version's manifest")
    inspect.add_argument("model", help="name or name@version")
    inspect.set_defaults(fn=_cmd_inspect)

    predict = sub.add_parser("predict", help="classify documents")
    predict.add_argument("model", help="name or name@version")
    predict.add_argument("--text", action="append", default=[],
                         help="document text (repeatable)")
    predict.add_argument("--file", default=None,
                         help="file with one document per line")
    predict.add_argument("--no-verify", action="store_true",
                         help="skip artifact digest verification")
    predict.add_argument("--no-warmup", action="store_true",
                         help="skip the warm-up predict")
    predict.set_defaults(fn=_cmd_predict)

    pool = sub.add_parser("pool",
                          help="serve over a multi-process replica pool")
    pool.add_argument("model", help="name or name@version")
    pool.add_argument("--replicas", type=int, default=2,
                      help="worker processes (default: 2)")
    pool.add_argument("--host", default="127.0.0.1",
                      help="bind address (default: 127.0.0.1)")
    pool.add_argument("--port", type=int, default=8321,
                      help="bind port; 0 picks an ephemeral one "
                           "(default: 8321)")
    pool.add_argument("--max-queue", type=int, default=32,
                      help="per-replica in-flight bound before 429s")
    pool.add_argument("--batch", type=int, default=64,
                      help="per-replica predict document budget")
    pool.add_argument("--deadline", type=float, default=None,
                      help="default per-request deadline in seconds")
    pool.add_argument("--max-seconds", type=float, default=None,
                      help="serve for N seconds then exit "
                           "(default: until interrupted)")
    pool.add_argument("--port-file", default=None,
                      help="write '<host> <port>' here once bound "
                           "(for scripts/tests)")
    pool.add_argument("--trace", default=None, metavar="DIR",
                      help="write a merged pool trace JSONL under DIR")
    pool.add_argument("--no-verify", action="store_true",
                      help="skip artifact digest verification")
    pool.add_argument("--no-warmup", action="store_true",
                      help="skip per-replica warm-up predicts")
    pool.set_defaults(fn=_cmd_pool)

    evict = sub.add_parser("evict", help="delete a model version")
    evict.add_argument("model", help="name@version (or name with --all)")
    evict.add_argument("--all", action="store_true",
                       help="delete every version of the model")
    evict.set_defaults(fn=_cmd_evict)
    return parser


def main(argv: "list | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
