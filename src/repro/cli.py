"""Command-line interface: train, scan, explain, and serve.

Usage::

    python -m repro.cli train  --out model_dir [--train-per-class 60] [--seed 0]
    python -m repro.cli scan   --model model_dir [--workers 4] [--cache-dir DIR]
                               [--format json|text] file_dir_or_dash [...]
    python -m repro.cli analyze [--format json|text] [--fail-on SEVERITY]
                               file_dir_or_dash [...]
    python -m repro.cli explain --model model_dir [--top 5] [--format json|text]
    python -m repro.cli serve  --model model_dir [--host H] [--port P]
                               [--workers N] [--max-batch B] [--queue-limit Q]
                               [--cache-dir DIR] [--shards N]
    python -m repro.cli cluster --model model_dir [--shards N] [--port P]
                               [--cache-dir DIR] [--vnodes V]
    python -m repro.cli top    [--url http://host:port] [--interval-s S] [--count N]
    python -m repro.cli loadgen --port P [--concurrency C] [--repeats R]
                               [--format json|text] file_dir_or_dash [...]

``train`` fits on the synthetic corpus (the offline default); real
deployments would swap in their own labeled corpus via the library API.
``scan`` fans extraction out over ``--workers`` processes and, with
``--cache-dir``, reuses content-addressed embeddings across runs;
``--format json`` emits one machine-readable ScanReport object.  A lone
``-`` argument reads one script from stdin, so the CLI composes with
pipes (``curl … | repro scan --model m -``).  ``serve`` keeps the model
resident behind an HTTP endpoint with micro-batching (see
:mod:`repro.serve`).

``analyze`` runs the static-analysis rule catalog alone — no model, no
embeddings — and prints explainable findings with source spans.

``cluster`` (or ``serve --shards N``) boots the sharded tier: a router
consistent-hashing scans across N supervised shard daemons (see
:mod:`repro.serve.cluster` and DESIGN.md §11).

``top`` polls a router's ``GET /v1/status`` and renders a live fleet
dashboard (per-shard rps, p95, queue depth, cache hit %, SLO burn
states); ``loadgen`` drives concurrent scan load and reports latency
percentiles, with ``--format json`` for machine consumers (see
DESIGN.md §15).

Duration flags follow one unit-suffixed convention (``--timeout-s``,
``--request-timeout-s``, ``--breaker-reset-s``, ``--trace-slow-ms``).
Micro-batches dispatch as soon as the scanner is idle, so there is no
batching-delay flag.

``scan``/``analyze``/``serve`` accept ``--log-level``/``--log-format``
(structured JSON logs carry ``trace_id``/``span_id`` fields).  ``scan
--trace`` records a span tree plus verdict provenance (top attention
paths, decisive rules, cluster feature weights) per file; ``explain
--trace FILE…`` prints the provenance alone.  ``serve`` samples traces
at ``--trace-sample-rate`` and retains them in a ring buffer behind
``GET /v1/debug/traces`` (an inbound sampled ``traceparent`` always wins).

Exit codes — the ``scan``/``analyze`` contract scripts rely on
(``grep``-style):

* ``0`` — completed, nothing flagged (``analyze``: no finding at or above
  ``--fail-on``),
* ``1`` — completed, something flagged (malicious verdict / failing finding),
* ``2`` — usage or I/O error (bad flags, no input, unreadable model/cache).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core import JSRevealer, JSRevealerConfig
from repro.core.persistence import load_detector, save_detector
from repro.datasets import experiment_split


def _cmd_train(args: argparse.Namespace) -> int:
    split = experiment_split(
        seed=args.seed,
        pretrain_per_class=args.pretrain_per_class,
        train_per_class=args.train_per_class,
        test_per_class=2,
        realistic=True,
    )
    config = JSRevealerConfig(
        embed_dim=args.embed_dim,
        pretrain_epochs=args.epochs,
        k_benign=args.k_benign,
        k_malicious=args.k_malicious,
        seed=args.seed,
    )
    detector = JSRevealer(config)
    print(f"pre-training embedder on {len(split.pretrain)} scripts…", file=sys.stderr)
    detector.pretrain(split.pretrain.sources, split.pretrain.labels)
    print(f"fitting detector on {len(split.train)} scripts…", file=sys.stderr)
    detector.fit(split.train.sources, split.train.labels)
    save_detector(detector, args.out)
    print(f"saved model to {args.out}")
    return 0


def _collect_files(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.glob("**/*.js")))
        elif path.exists():
            out.append(path)
        else:
            print(f"warning: {path} not found", file=sys.stderr)
    return out


def _read_inputs(paths: list[str]) -> tuple[list[str], list[str]]:
    """Resolve file/dir/``-`` arguments into (sources, names)."""
    files = _collect_files([p for p in paths if p != "-"])
    sources = [f.read_text(errors="replace") for f in files]
    names = [str(f) for f in files]
    if "-" in paths:  # one script from stdin, after any file arguments
        sources.append(sys.stdin.read())
        names.append("<stdin>")
    return sources, names


def _configure_logging(args: argparse.Namespace, default_level: str = "warning") -> None:
    from repro.obs import configure_logging

    configure_logging(
        level=getattr(args, "log_level", None) or default_level,
        log_format=getattr(args, "log_format", None) or "text",
    )


def _add_logging_flags(parser: argparse.ArgumentParser, default_level: str) -> None:
    parser.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default=default_level, help="repro logger threshold")
    parser.add_argument("--log-format", choices=("text", "json"), default="text",
                        help="text lines or one JSON object per log record (with trace ids)")


def _print_provenance(result, indent: str = "    ") -> None:
    """Text-mode rendering of one file's verdict provenance."""
    provenance = (result.trace or {}).get("provenance") or {}
    for rule in provenance.get("rules", []):
        decisive = "  (decisive)" if rule.get("decisive") else ""
        print(f"{indent}rule {rule['rule_id']} [{rule['severity']}]{decisive}")
    for entry in provenance.get("top_paths", [])[:3]:
        print(f"{indent}path w={entry['weight']:.4f}  {entry['path'][:100]}")
    for entry in provenance.get("cluster_features", [])[:3]:
        print(
            f"{indent}feature #{entry['feature_index']} ({entry['cluster_label']}) "
            f"weight={entry['weight']:.4f}  {entry['central_path'][:80]}"
        )


def _cmd_scan(args: argparse.Namespace) -> int:
    # Exit-code contract: 0 = clean, 1 = malicious found, 2 = usage/IO error.
    _configure_logging(args)
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    sources, names = _read_inputs(args.paths)
    if not sources:
        print("no input files", file=sys.stderr)
        return 2
    try:
        detector = load_detector(args.model)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load model {args.model!r}: {error}", file=sys.stderr)
        return 2
    limits = None
    if args.timeout_s is not None or args.max_rss_mb is not None:
        from repro.faults import ScanLimits

        limits = ScanLimits(timeout_s=args.timeout_s, max_rss_mb=args.max_rss_mb)
        try:
            limits.validate()
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    quarantine = None
    if args.quarantine_dir is not None:
        from repro.faults import QuarantineJournal

        quarantine = QuarantineJournal.in_dir(args.quarantine_dir)
    try:
        report = detector.scan_batch(
            sources,
            names=names,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            threshold=args.threshold,
            triage=args.triage,
            limits=limits,
            quarantine=quarantine,
            trace=args.trace,
            deobfuscate=args.deobfuscate,
        )
    except OSError as error:
        print(f"error: cache directory {args.cache_dir!r} unusable: {error}", file=sys.stderr)
        return 2
    from repro.obs import get_logger

    get_logger("cli").debug(
        "scan complete",
        extra={
            "n_files": report.n_files,
            "n_malicious": report.n_malicious,
            "trace_id": (report.trace or {}).get("trace_id"),
        },
    )
    if args.format == "json":
        print(report.to_json())
    else:
        for result in report.results:
            verdict = "MALICIOUS" if result.malicious else "clean"
            cached = "  (cached)" if result.cache_hit else ""
            triaged = "  (triaged)" if result.triaged else ""
            normalized = (
                "  (deobfuscated)" if (result.normalization or {}).get("changed") else ""
            )
            flags = cached + triaged + normalized
            if result.status != "ok":
                flags += f"  [{result.status}{', degraded' if result.degraded else ''}]"
            print(f"{verdict:9s}  P={result.probability:.3f}  {result.path}{flags}")
            if args.trace:
                _print_provenance(result)
        if args.trace and report.trace is not None:
            print(f"# trace {report.trace['trace_id']}: {len(report.trace['spans'])} spans",
                  file=sys.stderr)
        print(f"# {report.summary()}", file=sys.stderr)
    return 1 if report.n_malicious else 0


def _format_witness(finding) -> list[str]:
    """Indented source→sink hop lines under a flow finding."""
    lines = []
    for hop in finding.witness:
        raw = hop.get("raw_line")
        span = f"{hop.get('line', '?')}:{hop.get('col', '?')}"
        if raw is not None:
            span += f" (raw line {raw})"
        snippet = hop.get("snippet", "")
        lines.append(f"    {span:>18}  {hop.get('op', '?'):<18}  {snippet}")
    return lines


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Same exit-code contract as scan: 0 clean, 1 flagged, 2 usage error —
    # "flagged" here means a finding at or above --fail-on severity.
    from repro.analysis import Analyzer, normalize_and_analyze, severity_at_least

    _configure_logging(args)
    sources, names = _read_inputs(args.paths)
    if not sources:
        print("no input files", file=sys.stderr)
        return 2
    analyzer = Analyzer()
    deobfuscator = None
    if getattr(args, "deobfuscate", False):
        from repro.deobfuscate import Deobfuscator

        deobfuscator = Deobfuscator()
    # The scan pipeline's intake: normalize first so the rules (and the
    # taint engine) see the deobfuscated text, then map findings back to
    # the submitted file.
    reports = []
    norm_dicts: list[dict | None] = []
    for source, name in zip(sources, names):
        _, norm, report = normalize_and_analyze(source, name, deobfuscator, analyzer)
        assert report is not None  # an analyzer was given
        reports.append(report)
        norm_dicts.append(norm.to_dict() if norm is not None and norm.interesting else None)
    failing = sum(
        1
        for report in reports
        for finding in report.findings
        if severity_at_least(finding.severity, args.fail_on)
    )
    if args.format == "json":
        report_dicts = [r.to_dict() for r in reports]
        for report_dict, norm in zip(report_dicts, norm_dicts):
            if norm is not None:
                report_dict["normalization"] = norm
        print(
            json.dumps(
                {
                    "n_files": len(reports),
                    "n_findings": sum(r.n_findings for r in reports),
                    "n_failing": failing,
                    "fail_on": args.fail_on,
                    "rules": analyzer.rule_ids(),
                    "reports": report_dicts,
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            for finding in report.findings:
                print(finding.format(report.name))
                for line in _format_witness(finding):
                    print(line)
        n_findings = sum(r.n_findings for r in reports)
        suppressed = sum(r.suppressed for r in reports)
        print(
            f"# analyzed {len(reports)} files: {n_findings} findings "
            f"({failing} at/above {args.fail_on}, {suppressed} suppressed)",
            file=sys.stderr,
        )
    return 1 if failing else 0


#: ``repro serve`` flags a shard inherits from the command that booted
#: the cluster, when that command accepted them (``cluster`` accepts the
#: first five, ``serve --shards N`` all of them).  ``--host``, ``--port``
#: and ``--cache-dir`` come from the supervisor instead.
_SHARD_FLAGS = (
    "--workers", "--max-batch", "--queue-limit", "--threshold", "--request-timeout-s",
    "--timeout-s", "--max-rss-mb", "--quarantine-dir", "--breaker-threshold",
    "--breaker-reset-s", "--max-body-bytes", "--trace-capacity", "--trace-slow-ms",
)


def _shard_flags(args: argparse.Namespace) -> list[str]:
    """``repro serve`` flags every shard of a cluster is spawned with."""
    flags = []
    for flag in _SHARD_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            flags += [flag, str(value)]
    if getattr(args, "deobfuscate", False):
        flags.append("--deobfuscate")
    return flags


def _run_cluster(args: argparse.Namespace, n_shards: int) -> int:
    from repro.serve import AutoscaleConfig, ClusterConfig, RouterConfig, run_cluster

    min_shards = getattr(args, "min_shards", None)
    max_shards = getattr(args, "max_shards", None)
    autoscale = None
    if min_shards is not None or max_shards is not None:
        autoscale = AutoscaleConfig(
            min_shards=min_shards if min_shards is not None else 1,
            max_shards=max_shards if max_shards is not None else max(n_shards, 4),
            up_queue_depth=getattr(args, "scale_up_queue_depth", 8.0),
            down_queue_depth=getattr(args, "scale_down_queue_depth", 1.0),
            sustain_s=getattr(args, "scale_sustain_s", 5.0),
            cooldown_s=getattr(args, "scale_cooldown_s", 30.0),
        )
    try:
        config = ClusterConfig(
            model_dir=args.model,
            n_shards=n_shards,
            host=args.host,
            port=args.port,
            bind=getattr(args, "bind", None),
            cache_dir=args.cache_dir,
            shard_args=_shard_flags(args),
            router=RouterConfig(
                # The router budget wraps a shard's own queueing budget and
                # any retries, so it must not be the tighter of the two.
                request_timeout_s=args.request_timeout_s + 10.0,
                # `serve --shards N --max-body-bytes B`: the router refuses an
                # oversized body itself instead of a shard cutting it off mid-forward.
                max_body_bytes=getattr(args, "max_body_bytes", RouterConfig.max_body_bytes),
                vnodes=getattr(args, "vnodes", 64),
                trace_sample_rate=args.trace_sample_rate,
                replicas=getattr(args, "replicas", 2),
                verdict_cache_size=getattr(args, "verdict_cache_size", 1024),
            ),
            autoscale=autoscale,
            restart_budget=getattr(args, "restart_budget", 5),
            restart_backoff_s=getattr(args, "restart_backoff_s", 0.5),
        )
        config.validate()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        return run_cluster(config)
    except (OSError, RuntimeError) as error:  # bind failure, shards never ready
        print(f"error: {error}", file=sys.stderr)
        return 2


def _cmd_cluster(args: argparse.Namespace) -> int:
    _configure_logging(args, default_level="info")
    return _run_cluster(args, n_shards=args.shards)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server

    _configure_logging(args, default_level="info")
    if args.shards > 1:
        return _run_cluster(args, n_shards=args.shards)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            n_workers=args.workers,
            max_batch=args.max_batch,
            queue_limit=args.queue_limit,
            cache_dir=args.cache_dir,
            threshold=args.threshold,
            request_timeout_s=args.request_timeout_s,
            timeout_s=args.timeout_s,
            max_rss_mb=args.max_rss_mb,
            quarantine_dir=args.quarantine_dir,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset_s,
            max_body_bytes=args.max_body_bytes,
            trace_sample_rate=args.trace_sample_rate,
            trace_capacity=args.trace_capacity,
            trace_slow_ms=args.trace_slow_ms,
            deobfuscate=args.deobfuscate,
        )
        config.validate()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        detector = load_detector(args.model)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load model {args.model!r}: {error}", file=sys.stderr)
        return 2
    try:
        return run_server(detector, config)
    except OSError as error:  # bind failure, unusable cache dir
        print(f"error: {error}", file=sys.stderr)
        return 2


def _na(value, spec: str = "") -> str:
    """Render a possibly-``None`` status number (scrape hasn't landed yet)."""
    if value is None:
        return "-"
    return format(value, spec) if spec else str(value)


def _format_top(payload: dict) -> list[str]:
    """One ``repro top`` frame from a ``/v1/status`` payload."""
    router = payload.get("router") or {}
    lines = [
        f"fleet {payload.get('status', '?'):>8s}   "
        f"shards {payload.get('n_healthy', '?')}/{payload.get('n_shards', '?')} healthy   "
        f"uptime {_na(payload.get('uptime_s'), '.0f')}s   "
        f"router rps={_na(router.get('rps'), '.1f')} "
        f"p95={_na(router.get('p95_ms'), '.1f')}ms"
    ]
    slos = payload.get("slo") or []
    if slos:
        lines.append("")
        lines.append(f"{'SLO':<24s} {'state':>6s} {'burn fast':>10s} {'burn slow':>10s}  objective")
        for slo in slos:
            burn = slo.get("burn_rate") or {}
            lines.append(
                f"{slo.get('name', '?'):<24s} {slo.get('state', '?'):>6s} "
                f"{_na(burn.get('fast'), '.2f'):>10s} {_na(burn.get('slow'), '.2f'):>10s}  "
                f"{slo.get('objective', '')}"
            )
    lines.append("")
    lines.append(
        f"{'shard':<12s} {'state':>10s} {'rps':>8s} {'p95 ms':>8s} "
        f"{'queue':>6s} {'cache%':>7s} {'restarts':>8s}"
    )
    for shard in payload.get("fleet") or []:
        ratio = shard.get("cache_hit_ratio")
        cache = "-" if ratio is None else f"{100.0 * ratio:.1f}"
        lines.append(
            f"{shard.get('shard', '?'):<12s} {shard.get('state', '?'):>10s} "
            f"{_na(shard.get('rps'), '.1f'):>8s} {_na(shard.get('p95_ms'), '.1f'):>8s} "
            f"{_na(shard.get('queue_depth'), '.0f'):>6s} {cache:>7s} "
            f"{_na(shard.get('restarts')):>8s}"
        )
    crash_loops = payload.get("crash_loops") or {}
    parked = crash_loops.get("parked") or []
    footer = []
    if parked:
        footer.append(f"parked: {', '.join(parked)}")
    autoscale = payload.get("autoscale")
    if autoscale:
        footer.append(
            f"autoscale {autoscale.get('min_shards', '?')}–{autoscale.get('max_shards', '?')} "
            f"(cooldown {_na(autoscale.get('cooldown_remaining_s'), '.0f')}s)"
        )
    scrape = payload.get("scrape") or {}
    if scrape.get("errors_total"):
        footer.append(f"scrape errors: {scrape['errors_total']:.0f}")
    if footer:
        lines.append("")
        lines.append("   ".join(footer))
    return lines


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll the router's /v1/status and render a live fleet dashboard."""
    import time as _time

    from repro.client import ScanAPIError, ScanClient

    client = ScanClient(args.url, timeout_s=args.timeout_s, retries=0)
    live = sys.stdout.isatty() and args.count != 1
    frames = 0
    try:
        while True:
            try:
                payload = client.status()
            except ScanAPIError as error:
                print(f"error: {args.url}/v1/status: {error}", file=sys.stderr)
                return 2
            frame = "\n".join(_format_top(payload))
            if live:
                # Home + clear-to-end keeps the frame flicker-free.
                sys.stdout.write(f"\x1b[H\x1b[2J{frame}\n")
                sys.stdout.flush()
            else:
                print(frame)
            frames += 1
            if args.count and frames >= args.count:
                return 0
            _time.sleep(args.interval_s)
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive load at a daemon/router; exit 1 when any request failed."""
    from repro.serve.loadgen import run_load

    _configure_logging(args)
    sources, names = _read_inputs(args.paths)
    if not sources:
        print("no input files", file=sys.stderr)
        return 2
    try:
        report = run_load(
            args.host,
            args.port,
            list(zip(names, sources)),
            concurrency=args.concurrency,
            repeats=args.repeats,
            timeout_s=args.timeout_s,
            trace_ratio=args.trace_ratio,
            retries=args.retries,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if report.errors else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    detector = load_detector(args.model)
    if args.trace:
        # Per-verdict provenance: scan the given scripts with tracing on
        # and show what drove each verdict (rules, attention paths,
        # cluster feature weights) instead of the global feature ranking.
        if not args.paths:
            print("error: explain --trace needs script paths to explain", file=sys.stderr)
            return 2
        sources, names = _read_inputs(args.paths)
        if not sources:
            print("no input files", file=sys.stderr)
            return 2
        report = detector.scan_batch(sources, names=names, trace=True)
        if args.format == "json":
            print(json.dumps([
                {
                    "path": result.path,
                    "verdict": result.verdict,
                    "probability": result.probability,
                    "provenance": (result.trace or {}).get("provenance"),
                }
                for result in report.results
            ], indent=2))
            return 0
        for result in report.results:
            print(f"{result.verdict:9s}  P={result.probability:.3f}  {result.path}")
            _print_provenance(result, indent="  ")
        return 0
    explanations = detector.explain(top_n=args.top)
    if args.format == "json":
        print(json.dumps([
            {
                "importance": e.importance,
                "cluster_label": e.cluster_label,
                "central_path_signature": e.central_path_signature,
                "cluster_size": e.cluster_size,
            }
            for e in explanations
        ], indent=2))
        return 0
    print(f"{'importance':>10s} {'class':>10s}  central path")
    for explanation in explanations:
        print(f"{explanation.importance:>10.3f} {explanation.cluster_label:>10s}  "
              f"{explanation.central_path_signature[:120]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train on the synthetic corpus and save a model")
    train.add_argument("--out", required=True, help="output model directory")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--train-per-class", type=int, default=60)
    train.add_argument("--pretrain-per-class", type=int, default=20)
    train.add_argument("--embed-dim", type=int, default=64)
    train.add_argument("--epochs", type=int, default=12)
    train.add_argument("--k-benign", type=int, default=11)
    train.add_argument("--k-malicious", type=int, default=10)
    train.set_defaults(fn=_cmd_train)

    scan = sub.add_parser(
        "scan",
        help="scan .js files/directories (or - for stdin) with a saved model",
        epilog="exit codes: 0 nothing malicious, 1 malicious found, 2 usage or I/O error",
    )
    scan.add_argument("--model", required=True)
    scan.add_argument("--threshold", type=float, default=0.5)
    scan.add_argument("--workers", type=int, default=1,
                      help="extraction/embedding worker processes (1 = sequential)")
    scan.add_argument("--cache-dir", default=None,
                      help="persistent content-addressed embedding cache directory")
    scan.add_argument("--format", choices=("text", "json"), default="text",
                      help="text lines or one machine-readable ScanReport JSON object")
    scan.add_argument("--triage", action="store_true",
                      help="run static analysis first; decisive rule hits skip embedding")
    scan.add_argument("--timeout-s", type=float, default=None,
                      help="per-script wall-clock deadline; enables fault-isolated workers")
    scan.add_argument("--max-rss-mb", type=int, default=None,
                      help="per-script memory headroom in MiB (RLIMIT_AS); enables isolation")
    scan.add_argument("--quarantine-dir", default=None,
                      help="persist quarantine.jsonl of poison scripts here")
    scan.add_argument("--trace", action="store_true",
                      help="record a span tree + per-file verdict provenance in the report")
    scan.add_argument("--deobfuscate", action="store_true",
                      help="run the staged AST normalizer (constant folding, string "
                           "decoding, string-array unpacking, forced execution) before "
                           "path extraction; clean scripts are unaffected")
    _add_logging_flags(scan, default_level="warning")
    scan.add_argument("paths", nargs="+",
                      help=".js files, directories, or - to read one script from stdin")
    scan.set_defaults(fn=_cmd_scan)

    analyze = sub.add_parser(
        "analyze",
        help="static-analysis rules only: explainable findings, no model needed",
        epilog="exit codes: 0 nothing at/above --fail-on, 1 failing findings, 2 usage error",
    )
    analyze.add_argument("--format", choices=("text", "json"), default="text",
                         help="text finding lines or one JSON object with per-file reports")
    analyze.add_argument("--fail-on", choices=("info", "warning", "error"), default="error",
                         help="lowest severity that makes the exit code 1 (default: error)")
    analyze.add_argument("--deobfuscate", action="store_true",
                         help="normalize first and analyze the deobfuscated text; "
                              "findings and taint witnesses carry raw_line spans "
                              "mapped back to the submitted file")
    _add_logging_flags(analyze, default_level="warning")
    analyze.add_argument("paths", nargs="+",
                         help=".js files, directories, or - to read one script from stdin")
    analyze.set_defaults(fn=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio scan daemon (POST /v1/scan, /v1/scan/batch, /v1/analyze; "
             "GET /v1/healthz, /v1/version, /v1/metrics)",
    )
    serve.add_argument("--model", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=1,
                       help="extraction/embedding worker processes behind the batcher")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="most queued scripts dispatched in one micro-batch")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission bound; beyond it requests get 429 + Retry-After")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent content-addressed embedding cache directory")
    serve.add_argument("--threshold", type=float, default=0.5,
                       help="default verdict threshold (overridable per request)")
    serve.add_argument("--request-timeout-s", type=float, default=30.0,
                       help="seconds before a queued request is answered 503")
    serve.add_argument("--shards", type=int, default=1,
                       help="run N supervised shard daemons behind a router "
                            "instead of one in-process daemon")
    serve.add_argument("--timeout-s", type=float, default=None,
                       help="per-script wall-clock deadline; enables fault-isolated workers")
    serve.add_argument("--max-rss-mb", type=int, default=None,
                       help="per-script memory headroom in MiB (RLIMIT_AS); enables isolation")
    serve.add_argument("--quarantine-dir", default=None,
                       help="persist quarantine.jsonl of poison scripts here")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive worker deaths that open the circuit breaker")
    serve.add_argument("--breaker-reset-s", type=float, default=30.0,
                       help="seconds the breaker stays open before a half-open probe")
    serve.add_argument("--max-body-bytes", type=int, default=16 * 1024 * 1024,
                       help="request body cap; larger bodies are refused with 413")
    serve.add_argument("--trace-sample-rate", type=float, default=0.1,
                       help="fraction of requests traced (inbound sampled traceparent wins)")
    serve.add_argument("--trace-capacity", type=int, default=256,
                       help="ring-buffer size behind GET /v1/debug/traces")
    serve.add_argument("--trace-slow-ms", type=float, default=250.0,
                       help="traces slower than this are retained preferentially")
    serve.add_argument("--deobfuscate", action="store_true",
                       help="normalize every request through the deobfuscation pre-pass "
                            "by default (requests may still override per call)")
    _add_logging_flags(serve, default_level="info")
    serve.set_defaults(fn=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run the sharded scan tier: one router consistent-hashing across "
             "N supervised shard daemons",
    )
    cluster.add_argument("--model", required=True)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=8076,
                         help="router TCP port (0 = ephemeral)")
    cluster.add_argument("--shards", type=int, default=2,
                         help="scan shard daemons behind the router")
    cluster.add_argument("--cache-dir", default=None,
                         help="on-disk embedding cache shared by all shards "
                              "(each reads the others' entries; no locking)")
    cluster.add_argument("--workers", type=int, default=1,
                         help="worker processes per shard")
    cluster.add_argument("--max-batch", type=int, default=8,
                         help="per-shard micro-batch size cap")
    cluster.add_argument("--queue-limit", type=int, default=64,
                         help="per-shard admission bound (429 beyond it)")
    cluster.add_argument("--threshold", type=float, default=0.5,
                         help="default verdict threshold (overridable per request)")
    cluster.add_argument("--request-timeout-s", type=float, default=30.0,
                         help="per-shard request budget; the router allows +10s "
                              "on top for retries")
    cluster.add_argument("--vnodes", type=int, default=64,
                         help="consistent-hash ring points per shard")
    cluster.add_argument("--bind", default=None,
                         help="shard bind/dial host (default: same as --host); "
                              "use 127.0.0.1 to keep shards loopback-only while "
                              "the router listens on an outward interface")
    cluster.add_argument("--replicas", type=int, default=2,
                         help="replicas per hash-ring slot: the primary plus R-1 "
                              "deterministic failover shards")
    cluster.add_argument("--verdict-cache-size", type=int, default=1024,
                         help="router verdict-cache entries (0 disables)")
    cluster.add_argument("--min-shards", type=int, default=None,
                         help="enable queue-depth autoscaling with this floor")
    cluster.add_argument("--max-shards", type=int, default=None,
                         help="enable queue-depth autoscaling with this ceiling")
    cluster.add_argument("--scale-up-queue-depth", type=float, default=8.0,
                         help="mean per-shard queue depth that triggers scale-up")
    cluster.add_argument("--scale-down-queue-depth", type=float, default=1.0,
                         help="mean queue depth under which the fleet shrinks "
                              "(must stay below the up threshold: hysteresis)")
    cluster.add_argument("--scale-sustain-s", type=float, default=5.0,
                         help="seconds pressure/idleness must persist before acting")
    cluster.add_argument("--scale-cooldown-s", type=float, default=30.0,
                         help="minimum seconds between scaling actions")
    cluster.add_argument("--restart-budget", type=int, default=5,
                         help="consecutive shard deaths tolerated before the "
                              "shard is parked in crash_loop state")
    cluster.add_argument("--restart-backoff-s", type=float, default=0.5,
                         help="base of the exponential restart backoff")
    cluster.add_argument("--trace-sample-rate", type=float, default=0.1,
                         help="fraction of routed requests traced end to end")
    _add_logging_flags(cluster, default_level="info")
    cluster.set_defaults(fn=_cmd_cluster)

    top = sub.add_parser(
        "top",
        help="live per-shard fleet dashboard polling a router's GET /v1/status",
    )
    top.add_argument("--url", default="http://127.0.0.1:8076",
                     help="router base URL (the /v1/status endpoint is router-only)")
    top.add_argument("--interval-s", type=float, default=2.0,
                     help="seconds between /v1/status polls")
    top.add_argument("--count", type=int, default=0,
                     help="frames to render before exiting (0 = until Ctrl-C); "
                          "--count 1 prints one snapshot and exits")
    top.add_argument("--timeout-s", type=float, default=10.0,
                     help="per-poll socket timeout")
    top.set_defaults(fn=_cmd_top)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive concurrent POST /v1/scan load at a daemon or router",
        epilog="exit codes: 0 all requests succeeded, 1 some failed, 2 usage error",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True,
                         help="daemon or router TCP port")
    loadgen.add_argument("--concurrency", type=int, default=8,
                         help="worker threads, each driving one ScanClient")
    loadgen.add_argument("--repeats", type=int, default=1,
                         help="times each input script is submitted")
    loadgen.add_argument("--timeout-s", type=float, default=60.0,
                         help="per-request socket timeout")
    loadgen.add_argument("--trace-ratio", type=float, default=0.0,
                         help="fraction of requests carrying a sampled traceparent")
    loadgen.add_argument("--retries", type=int, default=0,
                         help="client retries on 429/503 (0 measures backpressure)")
    loadgen.add_argument("--format", choices=("text", "json"), default="text",
                         help="one summary line, or the full LoadReport as JSON")
    _add_logging_flags(loadgen, default_level="warning")
    loadgen.add_argument("paths", nargs="+",
                         help=".js files, directories, or - to read one script from stdin")
    loadgen.set_defaults(fn=_cmd_loadgen)

    explain = sub.add_parser(
        "explain",
        help="show a saved model's top features, or (--trace FILE…) what drove a verdict",
    )
    explain.add_argument("--model", required=True)
    explain.add_argument("--top", type=int, default=5)
    explain.add_argument("--format", choices=("text", "json"), default="text")
    explain.add_argument("--trace", action="store_true",
                         help="scan the given scripts with tracing and print per-verdict provenance")
    explain.add_argument("paths", nargs="*",
                         help="scripts to explain (required with --trace)")
    explain.set_defaults(fn=_cmd_explain)

    # Exact spellings only: a prefix such as ``--request-timeout`` must not
    # stand in for ``--request-timeout-s`` as a second, undocumented name.
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
