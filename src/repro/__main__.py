"""Command-line interface: ``python -m repro <command>``.

``docs/cli.md`` documents the commands, their flags, the JSON envelope
and the exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

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
from .gen import GenSpec, edit_script, generate_corpus, generate_source, write_corpus
from .lang.pretty import pretty_target
from .runtime import DEFAULT_RECURSION_LIMIT

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


def _done(args, text, /, *, ok=True, code=EXIT_OK, **fields) -> int:
    """Print ``text``, or under ``--format json`` the envelope ``{ok,
    command, [file], **fields, diagnostics}``; return ``code``."""
    if args.format == "json":
        payload = {"ok": ok, "command": args.name}
        if "file" in args:
            payload["file"] = args.file
        payload.update(fields)
        payload.setdefault("diagnostics", [])
        print(json.dumps(payload, indent=2))
    elif text:
        print(text)
    return code


def _fail(args, diagnostics, /, *, code=EXIT_ERROR, **fields) -> int:
    """Render error diagnostics (the JSON envelope, or text on stderr) and
    return ``code``."""
    # ``serve`` has no --format flag
    if getattr(args, "format", "text") == "json":
        payload = {
            "ok": False,
            "command": args.name,
            **fields,
            "diagnostics": [d.to_dict() for d in diagnostics],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_diagnostics(diagnostics), file=sys.stderr)
    return code


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
    text = pretty_target(result.target)
    stats = {
        "inference_seconds": result.elapsed,
        "localized_regions": result.total_localized,
        "stage_seconds": {r.stage: r.elapsed for r in results},
        "cached_stages": [r.stage for r in results if r.cached],
    }
    if not args.show_q:
        return _done(args, text, target=text, stats=stats)
    q_lines = [str(a) for a in sorted(result.target.q, key=lambda a: a.name)]
    shown = text + "\n// constraint abstractions:\n" + "\n".join(
        f"//   {line}" for line in q_lines
    )
    return _done(args, shown, target=text, stats=stats, q=q_lines)


def cmd_check(args: argparse.Namespace, session: Session) -> int:
    pipe = _pipeline(args, session)
    # a failure before verify is an error; a failing verify is the verdict
    pipe.infer().unwrap()
    last = pipe.verify()
    report = last.value
    if not report.ok:
        return _fail(
            args,
            last.diagnostics,
            code=EXIT_CHECK_FAILED,
            file=args.file,
            obligations=report.obligations,
        )
    text = f"OK: {report.obligations} obligations discharged"
    return _done(args, text, obligations=report.obligations)


def cmd_run(args: argparse.Namespace, session: Session) -> int:
    pipe = _pipeline(args, session)
    execution = pipe.execute(
        args.entry, args.args, recursion_limit=args.recursion_limit
    ).unwrap()
    stats = execution.stats
    text = (
        f"result: {execution.value}\n"
        f"allocation: {stats.objects_allocated} objects / "
        f"{stats.total_allocated} bytes; peak live {stats.peak_live} bytes; "
        f"{stats.regions_created} regions "
        f"(space-usage ratio {stats.space_usage_ratio:.3f})"
    )
    return _done(args, text, **execution.to_dict())


def cmd_report(args: argparse.Namespace, session: Session) -> int:
    report = summarize(_pipeline(args, session).infer().unwrap())
    return _done(args, render_report(report), report=report.to_dict())


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
    return _done(
        args, "\n".join(lines), total_seconds=round(total, 6), stages=stages
    )


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
    extra: Dict[str, Any] = {}
    if args.stats:
        # cache observability for the whole invocation: hits, misses and
        # evictions per kind
        extra["stats"] = session.stats.as_dict()
        lines.append(json.dumps(extra["stats"], indent=2, sort_keys=True))
    return _done(
        args,
        "\n".join(lines),
        ok=failures == 0,
        code=EXIT_ERROR if failures else EXIT_OK,
        programs=entries,
        **extra,
    )


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
    return _done(args, "", events=events, stats=session.stats.as_dict())


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


#: the GenSpec knobs and toggles, each a ``repro gen`` flag (the seed is
#: ``--seed``, whose default is "--spec's seed, else 0")
_GEN_FIELDS = [f for f in dataclasses.fields(GenSpec) if f.name != "seed"]


def _gen_dest(f: dataclasses.Field) -> str:
    """The ``repro gen`` Namespace attribute of a GenSpec field: a knob's
    own name, or a toggle's ``--no-`` flag (``--no-letreg`` is stored as
    ``no_letreg_gen``, apart from the inference flag's ``no_letreg``)."""
    if not isinstance(f.default, bool):
        return f.name
    return "no_letreg_gen" if f.name == "letreg" else f"no_{f.name}"


def _gen_spec(args: argparse.Namespace) -> GenSpec:
    """Build the GenSpec a ``repro gen`` invocation describes."""
    if args.spec is not None:
        spec = GenSpec.from_json(args.spec)
        if args.seed is not None:
            spec = spec.with_seed(args.seed)
        return spec
    seed = args.seed if args.seed is not None else 0
    if args.sized:
        return GenSpec.sized(args.classes, seed=seed)
    knobs = {}
    for f in _GEN_FIELDS:
        value = getattr(args, _gen_dest(f))
        knobs[f.name] = not value if isinstance(f.default, bool) else value
    return GenSpec(seed=seed, **knobs)


def cmd_gen(args: argparse.Namespace, session: Session) -> int:
    # usage errors are ValueErrors: main renders them as gen diagnostics
    if args.count is not None and args.edits is not None:
        raise ValueError("--count and --edits are mutually exclusive")
    if (args.count is not None or args.edits is not None) and not args.out_dir:
        raise ValueError("--count/--edits need --out-dir to write into")
    try:
        spec = _gen_spec(args)
    except (ValueError, KeyError) as err:
        raise ValueError(f"bad spec: {err}") from err

    done = functools.partial(_done, args, spec=spec.to_dict())
    if args.spec_only:
        return done(spec.to_json())

    if args.count is not None:
        corpus = generate_corpus(spec, args.count)
        paths = write_corpus(args.out_dir, corpus)
        return done(
            f"wrote {len(paths)} programs + corpus.json to {args.out_dir}",
            files=[str(p) for p in paths],
            manifest=str(Path(args.out_dir) / "corpus.json"),
        )

    if args.edits is not None:
        versions = edit_script(spec, args.edits)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, version in enumerate(versions):
            path = out_dir / f"edit_{k:03d}.cj"
            path.write_text(version)
            paths.append(str(path))
        return done(
            f"wrote {len(paths)} edit-script versions to {args.out_dir}",
            files=paths,
        )

    source = generate_source(spec)
    lines = len(source.splitlines())
    if args.output:
        Path(args.output).write_text(source)
        return done(
            f"wrote {lines} lines to {args.output}", lines=lines, file=args.output
        )
    # print() adds the trailing newline back, so stdout stays
    # byte-identical to what -o FILE writes.
    return done(source.rstrip("\n"), lines=lines, source=source)


def _bench_specs(names: Optional[Sequence[str]]) -> List[Any]:
    """The specs of the named benchmark families (default: all)."""
    from .bench import families

    return [families.get_spec(n) for n in names or families.family_names()]


def cmd_bench_list(args: argparse.Namespace, session: Session) -> int:
    lines, families = [], []
    for spec in _bench_specs(None):
        bars = ", ".join(
            f"{t.metric}>={t.floor:g}" if t.floor is not None
            else f"{t.metric}<={t.ceiling:g}"
            for t in spec.thresholds
        )
        lines.append(f"{spec.name:22s} {spec.description}")
        if bars:
            lines.append(f"{'':22s} threshold: {bars}")
        families.append(
            {
                "name": spec.name,
                "description": spec.description,
                "key_fields": list(spec.key_fields),
                "thresholds": [
                    {"metric": t.metric, "floor": t.floor, "ceiling": t.ceiling}
                    for t in spec.thresholds
                ],
            }
        )
    return _done(args, "\n".join(lines), families=families)


def cmd_bench_run(args: argparse.Namespace, session: Session) -> int:
    """``bench run`` and ``bench publish``: run the families, and for
    ``publish`` write the sample file."""
    from .bench import pkb

    publish = args.name == "bench publish"
    runner = pkb.Runner()
    runs, violations, lines = [], [], []
    for spec in _bench_specs(args.families):
        run = runner.run(spec, smoke=args.smoke)
        runs.append(run)
        broken = run.violations
        violations.extend(f"{spec.name}: {v}" for v in broken)
        lines.append(
            f"{spec.name:22s} {len(run.samples):3d} samples in "
            f"{run.elapsed:6.2f}s"
            + (f"  THRESHOLD FAILED ({len(broken)})" if broken else "")
        )
        if not publish:
            for s in run.samples:
                meta = ", ".join(f"{k}={v}" for k, v in s.metadata)
                lines.append(
                    f"  {s.metric:24s} {s.value:12.3f} {s.unit:10s} {meta}"
                )
    output = (args.output or str(pkb.next_bench_path())) if publish else None
    report = pkb.publish(runs, output, smoke=args.smoke)
    if output:
        lines.append(
            f"wrote {output} ({len(report['samples'])} samples, "
            f"{len(runs)} families)"
        )
    lines.extend(f"THRESHOLD: {v}" for v in violations)
    return _done(
        args,
        "\n".join(lines),
        ok=not violations,
        code=EXIT_CHECK_FAILED if violations else EXIT_OK,
        report=report,
        violations=violations,
        output=output,
    )


def cmd_bench_compare(args: argparse.Namespace, session: Session) -> int:
    from .bench import pkb

    comparison = pkb.compare(args.baseline, args.candidate)
    return _done(
        args,
        pkb.format_comparison(comparison, verbose=args.verbose),
        code=EXIT_OK if comparison.ok else EXIT_CHECK_FAILED,
        **comparison.to_dict(),  # carries "ok"
    )


def cmd_fig8(args: argparse.Namespace, session: Session) -> int:
    rows = fig8_rows(quick=args.quick, session=session)
    return _done(args, fig8_table(rows), rows=[r.as_dict() for r in rows])


def cmd_fig9(args: argparse.Namespace, session: Session) -> int:
    rows = fig9_rows(session=session)
    return _done(args, fig9_table(rows), rows=[r.as_dict() for r in rows])


# ---------------------------------------------------------------- parser
def _recursion_limit(text: str) -> int:
    """``--recursion-limit``: an integer in the daemon's accepted range."""
    try:
        limit = int(text)
    except ValueError:
        limit = 0
    if not 1 <= limit <= DEFAULT_RECURSION_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {DEFAULT_RECURSION_LIMIT}], "
            f"got {text!r}"
        )
    return limit


#: help for the ``repro gen`` flags that need more than the flag's name
_GEN_HELP = {
    "classes": "number of generated classes",
    "recursion": "disable recursive shape classes (lists/trees/dags)",
    "letreg": "disable letreg-heavy methods",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Region inference for Core-Java (PLDI 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, *, output=True, **kwargs):
        """A subcommand: ``--format`` (unless ``output`` is off), ``func``
        and its full name (``"bench run"``) as ``args.name``."""
        p = subparsers.add_parser(name, **kwargs)
        if output:
            p.add_argument(
                "--format",
                choices=["text", "json"],
                default="text",
                help="output format (json carries structured diagnostics)",
            )
        # p.prog is "repro bench run"
        p.set_defaults(func=func, name=p.prog.split(" ", 1)[1])
        return p

    def on_file(name, func, *, collect=False, **kwargs):
        """A command over a source file (``batch``: files) with the
        inference flags."""
        p = command(sub, name, func, **kwargs)
        if name == "batch":
            p.add_argument("files", nargs="+", metavar="FILE")
        else:
            p.add_argument("file")
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
        return p

    on_file(
        "infer", cmd_infer, collect=True, help="print the region-annotated program"
    ).add_argument("--show-q", action="store_true", help="print Q too")
    on_file("check", cmd_check, collect=True, help="infer and verify")

    p_run = on_file(
        "run",
        cmd_run,
        collect=True,
        help="infer and execute on the region runtime",
    )
    p_run.add_argument("--entry", default="main", help="static method to run")
    p_run.add_argument("--args", nargs="*", type=int, default=[], help="int arguments")
    p_run.add_argument(
        "--recursion-limit",
        type=_recursion_limit,
        default=None,
        help="Python stack depth ensured while the interpreter runs, "
        f"1..{DEFAULT_RECURSION_LIMIT} "
        "(default: the interpreter's own generous limit)",
    )

    on_file(
        "report",
        cmd_report,
        collect=True,
        help="per-class/per-method inference statistics",
    )

    on_file(
        "profile",
        cmd_profile,
        help="profile each pipeline stage under cProfile",
        description="Run the pipeline stages parse -> typecheck -> annotate "
        "-> infer -> verify on one file, each under cProfile, reporting "
        "per-stage wall-clock, cyclic-GC collections and pause time, and "
        "the top-N functions by cumulative time, "
        "and stop at the first stage that fails -- the first tool to reach "
        "for when the gen_scaling curve regresses (see docs/scaling.md).",
    ).add_argument(
        "--top",
        type=int,
        default=12,
        metavar="N",
        help="functions shown per stage (default 12)",
    )

    on_file(
        "batch",
        cmd_batch,
        help="batch inference over many files",
        description="Infer every file in turn through one session, "
        "reporting per-file outcomes.",
    ).add_argument(
        "--stats",
        action="store_true",
        help="also print the session's cache statistics as JSON",
    )

    p_watch = on_file(
        "watch",
        cmd_watch,
        help="re-infer a file incrementally every time it changes",
        description="Watch FILE's mtime and re-run inference on each "
        "change through the session's SCC-granular incremental path, "
        "printing per-edit latency and how many method SCCs were spliced "
        "vs re-inferred (see docs/incremental.md).",
    )
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

    p_serve = command(
        sub,
        "serve",
        cmd_serve,
        output=False,
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

    p_gen = command(
        sub,
        "gen",
        cmd_gen,
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
    for f in _GEN_FIELDS:
        flag = f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p_gen.add_argument(
                f"--no-{flag}", dest=_gen_dest(f), action="store_true",
                help=_GEN_HELP.get(f.name),
            )
        else:
            p_gen.add_argument(
                f"--{flag}", type=int, default=f.default, metavar="N",
                help=_GEN_HELP.get(f.name),
            )
    p_gen.add_argument(
        "--sized",
        action="store_true",
        help="scale every knob with --classes (the GenSpec.sized preset: "
        "4 is a ~100-line smoke program, 1000 a ~50k-line corpus)",
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

    p_bench = sub.add_parser(
        "bench",
        help="run, publish and compare the benchmark families",
        description="The PKB-style staged benchmark subsystem: every "
        "family emits metadata-rich timestamped samples; `publish` "
        "writes the next schema-versioned BENCH_<n>.json and `compare` "
        "gates on per-metric regressions (see docs/benchmarks.md).",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    command(
        bench_sub,
        "list",
        cmd_bench_list,
        help="list the registered benchmark families",
    )

    def bench_run(name: str, **kwargs) -> argparse.ArgumentParser:
        p = command(bench_sub, name, cmd_bench_run, **kwargs)
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
        return p

    bench_run(
        "run",
        help="run families and print their samples",
        description="Runs each family through its provision/prepare/run/"
        "teardown stages and checks its declared thresholds (exit 1 on "
        "a violation).",
    )
    bench_run(
        "publish",
        help="run families and write the next BENCH_<n>.json",
        description="Writes a schema-versioned multi-family sample file "
        "with host metadata; exit 1 if any family's threshold fails "
        "(the file is still written).",
    ).add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="destination (default: the next unclaimed BENCH_<n>.json)",
    )

    b_compare = command(
        bench_sub,
        "compare",
        cmd_bench_compare,
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

    command(
        sub, "fig8", cmd_fig8, help="regenerate the Fig 8 table"
    ).add_argument("--quick", action="store_true")
    command(sub, "fig9", cmd_fig9, help="regenerate the Fig 9 table")
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
        message = f"stage {err.stage!r} failed without diagnostics"
        return _fail(
            args,
            err.diagnostics
            or [Diagnostic(Severity.ERROR, err.stage, DiagnosticCode.INTERNAL, message)],
        )
    except Exception as err:  # noqa: BLE001 -- the CLI boundary
        # Anything a command did not already adapt (unreadable files, an
        # exception escaping the harness, a gen usage error, ...) becomes
        # one diagnostic.
        diag = from_exception(
            err, stage=args.command, file=getattr(args, "file", None)
        )
        return _fail(args, [diag])


if __name__ == "__main__":
    raise SystemExit(main())
