"""Command-line interface: ``python -m repro <command>``.

Commands (all built on the staged :mod:`repro.api` pipeline):

* ``infer FILE``   -- infer region annotations and print the target program
* ``check FILE``   -- infer, then verify with the region type checker
* ``run FILE``     -- infer and execute a static entry point on the
  region-based interpreter, reporting space statistics
* ``report FILE``  -- per-class/per-method inference statistics
* ``profile FILE`` -- run the pipeline's stages (parse, typecheck,
  annotate, infer, verify) one by one under cProfile, reporting per-stage
  wall-clock, cyclic-GC collections per generation and pause time, and
  the top-N functions by cumulative time, and stopping at
  the first stage that fails (text or JSON; see ``docs/scaling.md``)
* ``batch FILE...`` -- batch inference over many files
* ``watch FILE``   -- re-infer incrementally on every change to the file,
  printing per-edit latency and SCC splice/re-infer counts
* ``gen``          -- emit seeded synthetic Core-Java programs, corpora
  and edit scripts from a :class:`~repro.gen.GenSpec` (:mod:`repro.gen`;
  see ``docs/generator.md``)
* ``bench list|run|publish|compare`` -- the staged benchmark subsystem:
  run the registered families, publish the next schema-versioned
  ``BENCH_<n>.json`` sample file, and gate on per-metric regressions
  between two published files (:mod:`repro.bench.pkb`)
* ``fig8`` / ``fig9`` -- regenerate the paper's evaluation tables
* ``serve``        -- the multi-tenant HTTP inference daemon
  (:mod:`repro.serve`; see ``docs/serving.md``)

Every command but ``serve`` accepts ``--format {text,json}``; JSON
output carries the machine-readable diagnostics of
:mod:`repro.api.diagnostics` (severity, stage, code, source span).
Errors render as ``file:line:col`` diagnostics
on stderr and exit with code 2 (``check`` keeps exit code 1 for programs
that infer but fail verification).  A command that runs pipeline stages
unwraps each :class:`~repro.api.StageResult` and lets the
:class:`~repro.api.StageFailure` reach :func:`main`, which renders it.

Options: ``--mode {none,object,field}``, ``--downcast {padding,first-region,
reject}``, ``--entry NAME``, ``--args N [N ...]``, ``--recursion-limit N``,
``--quick``.  One CLI invocation owns one :class:`~repro.api.Session`,
so all the work a subcommand schedules (every ``batch`` file, every
``fig8`` measurement) shares one cache, in the calling thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

from .analysis import render_report, summarize
from .api import Pipeline, Session, StageFailure
from .api.diagnostics import (
    Diagnostic,
    DiagnosticCode,
    Severity,
    from_exception,
    render_diagnostics,
)
from .bench import fig8_rows, fig8_table, fig9_rows, fig9_table
from .core import DowncastStrategy, InferenceConfig, SubtypingMode
from .lang.pretty import pretty_target

#: exit codes: 0 ok, 1 verification failure, 2 error diagnostics
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

def _config(args: argparse.Namespace) -> InferenceConfig:
    return InferenceConfig(
        mode=SubtypingMode(args.mode),
        downcast=DowncastStrategy(args.downcast),
        polymorphic_recursion=not args.monomorphic,
        localize_blocks=not args.no_letreg,
    )


def _emit(args: argparse.Namespace, payload: Dict[str, Any], text: str) -> None:
    """Print ``text`` or the JSON payload, per ``--format``."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif text:
        print(text)


def _fail(
    args: argparse.Namespace, command: str, diagnostics: List[Diagnostic]
) -> int:
    """Render error diagnostics and return the error exit code."""
    # ``serve`` has no --format flag
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps(
                {
                    "ok": False,
                    "command": command,
                    "diagnostics": [d.to_dict() for d in diagnostics],
                },
                indent=2,
            )
        )
    else:
        print(render_diagnostics(diagnostics), file=sys.stderr)
    return EXIT_ERROR


def _pipeline(args: argparse.Namespace, session: Session) -> Pipeline:
    source = Path(args.file).read_text()
    return session.pipeline(
        source,
        _config(args),
        filename=args.file,
        collect=getattr(args, "collect", False),
    )


# ---------------------------------------------------------------- commands
def cmd_infer(args: argparse.Namespace, session: Session) -> int:
    pipe = _pipeline(args, session)
    results = pipe.run("infer")
    result = results[-1].unwrap()
    target_text = pretty_target(result.target)
    q_lines = [str(a) for a in sorted(result.target.q, key=lambda a: a.name)]
    payload = {
        "ok": True,
        "command": "infer",
        "file": args.file,
        "target": target_text,
        "stats": {
            "inference_seconds": result.elapsed,
            "localized_regions": result.total_localized,
            "stage_seconds": {r.stage: r.elapsed for r in results},
            "cached_stages": [r.stage for r in results if r.cached],
        },
        "diagnostics": [],
    }
    if args.show_q:
        payload["q"] = q_lines
    text = target_text
    if args.show_q:
        text += "\n// constraint abstractions:\n" + "\n".join(
            f"//   {line}" for line in q_lines
        )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, session: Session) -> int:
    pipe = _pipeline(args, session)
    # a failure before verify is an error; a failing verify is the verdict
    pipe.infer().unwrap()
    last = pipe.verify()
    report = last.value
    payload = {
        "ok": report.ok,
        "command": "check",
        "file": args.file,
        "obligations": report.obligations,
        "diagnostics": [d.to_dict() for d in last.diagnostics],
    }
    if report.ok:
        _emit(args, payload, f"OK: {report.obligations} obligations discharged")
        return EXIT_OK
    if args.format == "json":
        _emit(args, payload, "")
    else:
        print(render_diagnostics(last.diagnostics), file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_run(args: argparse.Namespace, session: Session) -> int:
    pipe = _pipeline(args, session)
    execution = pipe.execute(
        args.entry, args.args, recursion_limit=args.recursion_limit
    ).unwrap()
    stats = execution.stats
    payload = {
        "ok": True,
        "command": "run",
        "file": args.file,
        **execution.to_dict(),
        "diagnostics": [],
    }
    text = (
        f"result: {execution.value}\n"
        f"allocation: {stats.objects_allocated} objects / "
        f"{stats.total_allocated} bytes; peak live {stats.peak_live} bytes; "
        f"{stats.regions_created} regions "
        f"(space-usage ratio {stats.space_usage_ratio:.3f})"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_report(args: argparse.Namespace, session: Session) -> int:
    report = summarize(_pipeline(args, session).infer().unwrap())
    payload = {
        "ok": True,
        "command": "report",
        "file": args.file,
        "report": report.to_dict(),
        "diagnostics": [],
    }
    _emit(args, payload, render_report(report))
    return EXIT_OK


def cmd_profile(args: argparse.Namespace, session: Session) -> int:
    import cProfile
    import pstats
    import time

    from .obs import GcPauses

    pipe = _pipeline(args, session)
    stages: List[Dict[str, Any]] = []
    for name in ("parse", "typecheck", "annotate", "infer", "verify"):
        profiler = cProfile.Profile()
        with GcPauses() as pauses:
            start = time.perf_counter()
            profiler.enable()
            outcome = getattr(pipe, name)()
            profiler.disable()
            elapsed = time.perf_counter() - start
        outcome.unwrap()
        rows = []
        stats = pstats.Stats(profiler).stats
        by_cumulative = sorted(
            stats.items(), key=lambda item: item[1][3], reverse=True
        )
        for (filename, lineno, funcname), entry in by_cumulative[: args.top]:
            _cc, ncalls, tottime, cumtime, _callers = entry
            rows.append(
                {
                    "function": funcname,
                    "location": f"{Path(filename).name}:{lineno}",
                    "calls": ncalls,
                    "tottime_s": round(tottime, 6),
                    "cumtime_s": round(cumtime, 6),
                }
            )
        stages.append(
            {
                "stage": name,
                "seconds": round(elapsed, 6),
                "gc": pauses.to_dict(),
                "top": rows,
            }
        )

    total = sum(s["seconds"] for s in stages)
    lines = []
    for s in stages:
        gc_ = s["gc"]
        lines.append(
            f"{s['stage']}: {s['seconds'] * 1000:.1f}ms "
            f"(gc {gc_['pause_ms']:.1f}ms, collections per generation "
            f"{'/'.join(str(n) for n in gc_['collections'])})"
        )
        lines.append(
            f"  {'cum(ms)':>9}  {'tot(ms)':>9}  {'calls':>8}  function"
        )
        for row in s["top"]:
            lines.append(
                f"  {row['cumtime_s'] * 1000:9.1f}  "
                f"{row['tottime_s'] * 1000:9.1f}  "
                f"{row['calls']:>8}  "
                f"{row['function']} ({row['location']})"
            )
    lines.append(f"total: {total * 1000:.1f}ms")
    payload = {
        "ok": True,
        "command": "profile",
        "file": args.file,
        "total_seconds": round(total, 6),
        "stages": stages,
        "diagnostics": [],
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_batch(args: argparse.Namespace, session: Session) -> int:
    # an unreadable file is a per-file failure like any other: the rest of
    # the batch still runs
    sources: Dict[str, str] = {}
    read_errors: Dict[str, StageFailure] = {}
    for path in args.files:
        try:
            sources[path] = Path(path).read_text()
        except OSError as err:
            read_errors[path] = StageFailure(
                "read", [from_exception(err, stage="read", file=path)]
            )
    readable = [path for path in args.files if path in sources]
    inferred = session.infer_many(
        [sources[path] for path in readable],
        _config(args),
        return_exceptions=True,
    )
    outcomes = dict(zip(readable, inferred))
    entries: List[Dict[str, Any]] = []
    lines: List[str] = []
    failures = 0
    for path in args.files:
        outcome = read_errors.get(path) or outcomes[path]
        if isinstance(outcome, StageFailure):
            failures += 1
            entries.append(
                {
                    "file": path,
                    "ok": False,
                    "stage": outcome.stage,
                    # batch ships bare sources, so re-attach the filename
                    "diagnostics": [
                        {**d.to_dict(), "file": d.file or path}
                        for d in outcome.diagnostics
                    ],
                }
            )
            first = outcome.diagnostics[0] if outcome.diagnostics else None
            detail = f": {first.message}" if first is not None else ""
            lines.append(f"{path}: FAILED at {outcome.stage}{detail}")
        else:
            entries.append(
                {
                    "file": path,
                    "ok": True,
                    "inference_seconds": outcome.elapsed,
                    "localized_regions": outcome.total_localized,
                }
            )
            lines.append(
                f"{path}: ok ({outcome.elapsed:.3f}s, "
                f"{outcome.total_localized} localized regions)"
            )
    lines.append(
        f"{len(entries) - failures}/{len(entries)} programs inferred"
        + (f", {failures} failed" if failures else "")
    )
    payload = {
        "ok": failures == 0,
        "command": "batch",
        "programs": entries,
        "diagnostics": [],
    }
    if args.stats:
        # cache observability for the whole invocation: hits, misses and
        # evictions per kind
        payload["stats"] = session.stats.as_dict()
        lines.append(json.dumps(payload["stats"], indent=2, sort_keys=True))
    _emit(args, payload, "\n".join(lines))
    return EXIT_ERROR if failures else EXIT_OK


def cmd_watch(args: argparse.Namespace, session: Session) -> int:
    import time

    path = Path(args.file)
    config = _config(args)
    document = str(path)

    def infer_once():
        source = path.read_text()
        start = time.perf_counter()
        result = session.reinfer(
            source, config, document=document, filename=args.file
        )
        return result, time.perf_counter() - start

    events: List[Dict[str, Any]] = []

    def report(result, seconds: float, edit: bool) -> None:
        total = result.reused_sccs + result.reinferred_sccs
        events.append(
            {
                "edit": edit,
                "seconds": seconds,
                "reused_sccs": result.reused_sccs,
                "reinferred_sccs": result.reinferred_sccs,
            }
        )
        if args.format != "json":
            label = "edit" if edit else "initial"
            print(
                f"{label}: {seconds * 1000:.1f} ms "
                f"({result.reused_sccs}/{total} SCCs spliced, "
                f"{result.reinferred_sccs} re-inferred)",
                flush=True,
            )

    result, seconds = infer_once()
    report(result, seconds, edit=False)
    seen = path.stat().st_mtime_ns
    remaining = args.iterations
    try:
        while remaining is None or remaining > 0:
            time.sleep(args.interval)
            try:
                mtime = path.stat().st_mtime_ns
            except OSError:
                continue  # mid-rename: the next poll sees the new file
            if mtime == seen:
                continue
            seen = mtime
            if remaining is not None:
                remaining -= 1
            try:
                result, seconds = infer_once()
            except StageFailure as err:
                # a broken intermediate state is normal under an editor;
                # report it and keep watching
                print(render_diagnostics(err.diagnostics), file=sys.stderr)
                continue
            report(result, seconds, edit=True)
    except KeyboardInterrupt:
        pass
    payload = {
        "ok": True,
        "command": "watch",
        "file": args.file,
        "events": events,
        "stats": session.stats.as_dict(),
        "diagnostics": [],
    }
    _emit(args, payload, "")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace, session: Session) -> int:
    # the daemon builds its own per-tenant sessions; the CLI-invocation
    # session goes unused
    from .serve import ServerConfig, serve

    serve(
        ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_pending=args.max_pending,
            request_timeout=args.request_timeout,
            max_tenants=args.max_tenants,
            quiet=args.quiet,
        )
    )
    return EXIT_OK


def _gen_spec(args: argparse.Namespace):
    """Build the GenSpec a ``repro gen`` invocation describes."""
    from .gen import GenSpec

    if args.spec is not None:
        spec = GenSpec.from_json(args.spec)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        return spec
    seed = args.seed if args.seed is not None else 0
    if args.sized:
        return GenSpec.sized(args.classes, seed=seed)
    return GenSpec(
        seed=seed,
        classes=args.classes,
        methods_per_class=args.methods_per_class,
        fields_per_class=args.fields_per_class,
        statics=args.statics,
        hierarchy_depth=args.hierarchy_depth,
        recursion=not args.no_recursion,
        loops=not args.no_loops,
        downcasts=not args.no_downcasts,
        overrides=not args.no_overrides,
        letreg=not args.no_letreg_gen,
    )


def cmd_gen(args: argparse.Namespace, session: Session) -> int:
    from .gen import edit_script, generate_corpus, generate_source, write_corpus

    def usage_error(message: str) -> int:
        diag = Diagnostic(
            severity=Severity.ERROR,
            stage="gen",
            code=DiagnosticCode.INTERNAL,
            message=message,
        )
        return _fail(args, "gen", [diag])

    if args.count is not None and args.edits is not None:
        return usage_error("--count and --edits are mutually exclusive")
    if (args.count is not None or args.edits is not None) and not args.out_dir:
        return usage_error("--count/--edits need --out-dir to write into")
    try:
        spec = _gen_spec(args)
    except (ValueError, KeyError) as err:
        return usage_error(f"bad spec: {err}")

    payload: Dict[str, Any] = {
        "ok": True,
        "command": "gen",
        "spec": spec.to_dict(),
        "diagnostics": [],
    }
    if args.spec_only:
        _emit(args, payload, spec.to_json())
        return EXIT_OK

    if args.count is not None:
        corpus = generate_corpus(spec, args.count)
        paths = write_corpus(args.out_dir, corpus)
        payload["files"] = [str(p) for p in paths]
        payload["manifest"] = str(Path(args.out_dir) / "corpus.json")
        _emit(
            args,
            payload,
            f"wrote {len(paths)} programs + corpus.json to {args.out_dir}",
        )
        return EXIT_OK

    if args.edits is not None:
        versions = edit_script(spec, args.edits)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, version in enumerate(versions):
            path = out_dir / f"edit_{k:03d}.cj"
            path.write_text(version)
            paths.append(str(path))
        payload["files"] = paths
        _emit(
            args,
            payload,
            f"wrote {len(paths)} edit-script versions to {args.out_dir}",
        )
        return EXIT_OK

    source = generate_source(spec)
    payload["lines"] = len(source.splitlines())
    if args.output:
        Path(args.output).write_text(source)
        payload["file"] = args.output
        _emit(args, payload, f"wrote {payload['lines']} lines to {args.output}")
    else:
        payload["source"] = source
        # print() adds the trailing newline back, so stdout stays
        # byte-identical to what -o FILE writes.
        _emit(args, payload, source.rstrip("\n"))
    return EXIT_OK


def _bench_specs(args: argparse.Namespace) -> List[Any]:
    """The specs a bench subcommand operates on (all, or --families)."""
    from .bench import families as bench_families

    names = getattr(args, "families", None) or bench_families.family_names()
    return [bench_families.get_spec(name) for name in names]


def cmd_bench(args: argparse.Namespace, session: Session) -> int:
    from .bench import pkb

    if args.bench_command == "list":
        specs = _bench_specs(args)
        payload = {
            "ok": True,
            "command": "bench list",
            "families": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "key_fields": list(spec.key_fields),
                    "thresholds": [
                        {
                            "metric": t.metric,
                            "floor": t.floor,
                            "ceiling": t.ceiling,
                        }
                        for t in spec.thresholds
                    ],
                }
                for spec in specs
            ],
            "diagnostics": [],
        }
        lines = []
        for spec in specs:
            bars = ", ".join(
                f"{t.metric}>={t.floor:g}" if t.floor is not None
                else f"{t.metric}<={t.ceiling:g}"
                for t in spec.thresholds
            )
            lines.append(f"{spec.name:22s} {spec.description}")
            if bars:
                lines.append(f"{'':22s} threshold: {bars}")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK

    if args.bench_command in ("run", "publish"):
        specs = _bench_specs(args)
        runner = pkb.Runner()
        runs, violations, lines = [], [], []
        for spec in specs:
            run = runner.run(spec, smoke=args.smoke)
            runs.append(run)
            broken = run.violations
            violations.extend(f"{spec.name}: {v}" for v in broken)
            lines.append(
                f"{spec.name:22s} {len(run.samples):3d} samples in "
                f"{run.elapsed:6.2f}s"
                + (f"  THRESHOLD FAILED ({len(broken)})" if broken else "")
            )
            if args.bench_command == "run":
                for s in run.samples:
                    meta = ", ".join(f"{k}={v}" for k, v in s.metadata)
                    lines.append(
                        f"  {s.metric:24s} {s.value:12.3f} {s.unit:10s} {meta}"
                    )
        output = None
        if args.bench_command == "publish":
            output = args.output or str(pkb.next_bench_path())
        report = pkb.publish(runs, output, smoke=args.smoke)
        if output:
            lines.append(
                f"wrote {output} ({len(report['samples'])} samples, "
                f"{len(runs)} families)"
            )
        lines.extend(f"THRESHOLD: {v}" for v in violations)
        payload = {
            "ok": not violations,
            "command": f"bench {args.bench_command}",
            "report": report,
            "violations": violations,
            "output": output,
            "diagnostics": [],
        }
        _emit(args, payload, "\n".join(lines))
        return EXIT_CHECK_FAILED if violations else EXIT_OK

    if args.bench_command == "compare":
        comparison = pkb.compare(args.baseline, args.candidate)
        payload = {
            "command": "bench compare",
            **comparison.to_dict(),
            "diagnostics": [],
        }
        _emit(
            args,
            payload,
            pkb.format_comparison(comparison, verbose=args.verbose),
        )
        return EXIT_OK if comparison.ok else EXIT_CHECK_FAILED

    raise AssertionError(f"unknown bench subcommand {args.bench_command!r}")


def cmd_fig8(args: argparse.Namespace, session: Session) -> int:
    rows = fig8_rows(quick=args.quick, session=session)
    payload = {
        "ok": True,
        "command": "fig8",
        "rows": [r.as_dict() for r in rows],
        "diagnostics": [],
    }
    _emit(args, payload, fig8_table(rows))
    return EXIT_OK


def cmd_fig9(args: argparse.Namespace, session: Session) -> int:
    rows = fig9_rows(session=session)
    payload = {
        "ok": True,
        "command": "fig9",
        "rows": [r.as_dict() for r in rows],
        "diagnostics": [],
    }
    _emit(args, payload, fig9_table(rows))
    return EXIT_OK


# ---------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Region inference for Core-Java (PLDI 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="output format (json carries structured diagnostics)",
        )

    def common(p: argparse.ArgumentParser, collect: bool = True) -> None:
        p.add_argument(
            "--mode",
            choices=[m.value for m in SubtypingMode],
            default="field",
            help="region subtyping mode (Sec 3.2)",
        )
        p.add_argument(
            "--downcast",
            choices=[s.value for s in DowncastStrategy],
            default="padding",
            help="downcast-safety strategy (Sec 5)",
        )
        p.add_argument(
            "--monomorphic",
            action="store_true",
            help="disable region-polymorphic recursion (ablation)",
        )
        p.add_argument(
            "--no-letreg",
            action="store_true",
            help="disable letreg localisation (ablation)",
        )
        if collect:
            p.add_argument(
                "--collect",
                action="store_true",
                help="collect every top-level syntax error instead of stopping "
                "at the first",
            )
        output(p)

    p_infer = sub.add_parser("infer", help="print the region-annotated program")
    p_infer.add_argument("file")
    p_infer.add_argument("--show-q", action="store_true", help="print Q too")
    common(p_infer)
    p_infer.set_defaults(func=cmd_infer)

    p_check = sub.add_parser("check", help="infer and verify")
    p_check.add_argument("file")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="infer and execute on the region runtime")
    p_run.add_argument("file")
    p_run.add_argument("--entry", default="main", help="static method to run")
    p_run.add_argument("--args", nargs="*", type=int, default=[], help="int arguments")
    p_run.add_argument(
        "--recursion-limit",
        type=int,
        default=None,
        help="Python stack depth ensured while the interpreter runs "
        "(default: the interpreter's own generous limit)",
    )
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser(
        "report", help="per-class/per-method inference statistics"
    )
    p_report.add_argument("file")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    p_profile = sub.add_parser(
        "profile",
        help="profile each pipeline stage under cProfile",
        description="Run the pipeline stages parse -> typecheck -> annotate "
        "-> infer -> verify on one file, each under cProfile, reporting "
        "per-stage wall-clock, cyclic-GC collections and pause time, and "
        "the top-N functions by cumulative time, "
        "and stop at the first stage that fails -- the first tool to reach "
        "for when the gen_scaling curve regresses (see docs/scaling.md).",
    )
    p_profile.add_argument("file")
    p_profile.add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="functions shown per stage (default 12)",
    )
    common(p_profile, collect=False)
    p_profile.set_defaults(func=cmd_profile)

    p_batch = sub.add_parser(
        "batch",
        help="batch inference over many files",
        description="Infer every file in turn through one session, "
        "reporting per-file outcomes.",
    )
    p_batch.add_argument("files", nargs="+", metavar="FILE")
    p_batch.add_argument(
        "--stats",
        action="store_true",
        help="also print the session's cache statistics as JSON",
    )
    common(p_batch, collect=False)
    p_batch.set_defaults(func=cmd_batch)

    p_watch = sub.add_parser(
        "watch",
        help="re-infer a file incrementally every time it changes",
        description="Watch FILE's mtime and re-run inference on each "
        "change through the session's SCC-granular incremental path, "
        "printing per-edit latency and how many method SCCs were spliced "
        "vs re-inferred (see docs/incremental.md).",
    )
    p_watch.add_argument("file")
    p_watch.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="exit after N observed edits (0: exit right after the "
        "initial inference; default: watch until interrupted)",
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="mtime poll interval",
    )
    common(p_watch, collect=False)
    p_watch.set_defaults(func=cmd_watch)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP inference daemon",
        description="Serve /v1/infer, /v1/check, /v1/run, /v1/stats and "
        "/healthz over HTTP+JSON, one session per tenant, every request "
        "inline under its deadline (see docs/serving.md).",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8178, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        metavar="N",
        help="requests served at once (default: the CPU allowance)",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=16,
        metavar="N",
        help="requests allowed to queue before 429s (0 disables queueing)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="server-side cap on any request's deadline",
    )
    p_serve.add_argument(
        "--max-tenants", type=int, default=64, metavar="N",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_gen = sub.add_parser(
        "gen",
        help="generate seeded synthetic Core-Java programs",
        description="Emit well-typed, region-inferable programs "
        "deterministically from a GenSpec (seed + size knobs + feature "
        "toggles): one program, a corpus directory with a manifest "
        "(--count), or an edit-script of successive versions (--edits) "
        "for the watch/reinfer workloads (see docs/generator.md).",
    )
    p_gen.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="generator seed (default 0; overrides --spec's seed)",
    )
    p_gen.add_argument(
        "--classes", type=int, default=4, metavar="N",
        help="number of generated classes",
    )
    p_gen.add_argument(
        "--sized",
        action="store_true",
        help="scale every knob with --classes (the GenSpec.sized preset: "
        "4 is a ~100-line smoke program, 1000 a ~50k-line corpus)",
    )
    p_gen.add_argument(
        "--methods-per-class", type=int, default=2, metavar="N"
    )
    p_gen.add_argument("--fields-per-class", type=int, default=2, metavar="N")
    p_gen.add_argument("--statics", type=int, default=2, metavar="N")
    p_gen.add_argument("--hierarchy-depth", type=int, default=3, metavar="N")
    p_gen.add_argument(
        "--no-recursion", action="store_true",
        help="disable recursive shape classes (lists/trees/dags)",
    )
    p_gen.add_argument("--no-loops", action="store_true")
    p_gen.add_argument("--no-downcasts", action="store_true")
    p_gen.add_argument("--no-overrides", action="store_true")
    p_gen.add_argument(
        "--no-letreg", dest="no_letreg_gen", action="store_true",
        help="disable letreg-heavy methods",
    )
    p_gen.add_argument(
        "--spec", default=None, metavar="JSON",
        help="full GenSpec as JSON (as embedded in generated headers); "
        "knob flags are ignored, --seed still overrides",
    )
    p_gen.add_argument(
        "--spec-only", action="store_true",
        help="print the canonical spec JSON without generating",
    )
    p_gen.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write the single program here instead of stdout",
    )
    p_gen.add_argument(
        "--count", type=int, default=None, metavar="K",
        help="write a K-program corpus (derived seeds) plus corpus.json "
        "into --out-dir",
    )
    p_gen.add_argument(
        "--edits", type=int, default=None, metavar="K",
        help="write K+1 successive edit-script versions into --out-dir",
    )
    p_gen.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="destination directory for --count/--edits",
    )
    output(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser(
        "bench",
        help="run, publish and compare the benchmark families",
        description="The PKB-style staged benchmark subsystem: every "
        "family emits metadata-rich timestamped samples; `publish` "
        "writes the next schema-versioned BENCH_<n>.json and `compare` "
        "gates on per-metric regressions (see docs/benchmarks.md).",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    b_list = bench_sub.add_parser(
        "list", help="list the registered benchmark families"
    )
    output(b_list)
    b_list.set_defaults(func=cmd_bench)

    def bench_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--smoke",
            action="store_true",
            help="per-family smoke sizes (CI-fast; every family still "
            "emits at least one sample)",
        )
        p.add_argument(
            "--families",
            nargs="+",
            default=None,
            metavar="NAME",
            help="only these families (default: all registered)",
        )
        output(p)

    b_run = bench_sub.add_parser(
        "run",
        help="run families and print their samples",
        description="Runs each family through its provision/prepare/run/"
        "teardown stages and checks its declared thresholds (exit 1 on "
        "a violation).",
    )
    bench_run_args(b_run)
    b_run.set_defaults(func=cmd_bench)

    b_publish = bench_sub.add_parser(
        "publish",
        help="run families and write the next BENCH_<n>.json",
        description="Writes a schema-versioned multi-family sample file "
        "with host metadata; exit 1 if any family's threshold fails "
        "(the file is still written).",
    )
    b_publish.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="destination (default: the next unclaimed BENCH_<n>.json)",
    )
    bench_run_args(b_publish)
    b_publish.set_defaults(func=cmd_bench)

    b_compare = bench_sub.add_parser(
        "compare",
        help="diff two published sample files, gating on regressions",
        description="Per-metric diff with per-family tolerance: exit 1 "
        "when any gated metric regresses beyond its tolerance.  Files in "
        "a layout other than `repro bench publish` exit 2.",
    )
    b_compare.add_argument("baseline", help="the older published file")
    b_compare.add_argument("candidate", help="the newer published file")
    b_compare.add_argument(
        "--verbose",
        action="store_true",
        help="show every compared metric, not just warnings/regressions",
    )
    output(b_compare)
    b_compare.set_defaults(func=cmd_bench)

    p8 = sub.add_parser("fig8", help="regenerate the Fig 8 table")
    p8.add_argument("--quick", action="store_true")
    output(p8)
    p8.set_defaults(func=cmd_fig8)

    p9 = sub.add_parser("fig9", help="regenerate the Fig 9 table")
    output(p9)
    p9.set_defaults(func=cmd_fig9)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # one session for the whole invocation: every batch the subcommand
    # schedules (all of fig8's measurements, fig9's programs, every
    # `batch` file) shares its cache
    session = Session()
    try:
        return args.func(args, session)
    except BrokenPipeError:
        # downstream closed the pipe (`repro infer f | head`): not an error;
        # swap stdout for devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except StageFailure as err:
        return _fail(
            args,
            args.command,
            err.diagnostics
            or [
                Diagnostic(
                    severity=Severity.ERROR,
                    stage=err.stage,
                    code=DiagnosticCode.INTERNAL,
                    message=f"stage {err.stage!r} failed without diagnostics",
                )
            ],
        )
    except Exception as err:  # noqa: BLE001 -- the CLI boundary
        # Anything a command did not already adapt (unreadable files, an
        # exception escaping the harness, ...) becomes one diagnostic.
        stage = getattr(args, "command", None) or "cli"
        diag = from_exception(err, stage=stage, file=getattr(args, "file", None))
        return _fail(args, stage, [diag])


if __name__ == "__main__":
    raise SystemExit(main())
