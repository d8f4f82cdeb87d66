"""Command-line interface.

Subcommands:

* ``validate <paths...>``: check SEG files, exit 0 iff all are valid and
  no seg id is defined twice.
* ``score --segs DIR --scores FILE [--metric NAME]... [--tie-mode ...]
  [--pair-mode ...] [--subset ...] --out DIR``: compute per-SEG and
  aggregate meta-metrics and write the report bundle.
* ``accumulate --mode tifa|dsg --questions FILE --answers FILE --out FILE``:
  turn VQA answers on a question DAG into a score table.
* ``pareto --report FILE --costs FILE --basis rank|sep|delta --out FILE``:
  cost-quality frontier from an emitted report plus cost models.
* ``synth --seed N --segs K --out DIR``: generate valid synthetic SEGs
  (optionally oracle score tables) for testing and demos.

Defaults follow the documented conventions (midrank ties, per-walk pairs);
aggregate tables print x100 unless --raw is given.  Exit codes are stable:
0 ok, 2 usage, 3 parse error, 4 validation error, 5 coverage gap, 6 I/O.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .cost import QualityCostPoint, estimate_flops, load_cost_models, pareto_frontier
from .errors import CoverageError, ParseError, ValidationError
from .fileio import read_json, write_csv
from .metametrics import aggregate, evaluate_collection, load_score_tables, write_score_tables
from .reporting import _fmt, emit_report
from .seg import SUBSETS, check_seg_files, load_segs
from .scorers import accumulate_scores, load_answer_table, load_question_graphs
from .stats import TIE_MODES
from .synth import ORACLE_KINDS, SynthConfig, generate_segs, oracle_scores, write_collection
from .walks import PAIR_MODES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_COVERAGE = 5
EXIT_IO = 6


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segeval",
        description="Meta-evaluation of image-faithfulness metrics over semantic error graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate SEG files")
    p_val.add_argument("paths", nargs="+", help="SEG files or directories of *.json")

    p_score = sub.add_parser("score", help="compute meta-metrics and emit reports")
    p_score.add_argument("--segs", required=True, help="SEG file or directory")
    p_score.add_argument("--scores", required=True, help="score CSV (seg_id,image_id,metric,score)")
    p_score.add_argument("--metric", action="append", default=None, help="metric to evaluate (repeatable; default: all)")
    p_score.add_argument("--tie-mode", choices=TIE_MODES, default="midrank")
    p_score.add_argument("--pair-mode", choices=PAIR_MODES, default="per-walk")
    p_score.add_argument("--subset", choices=SUBSETS, default=None, help="restrict to one SEG subset")
    p_score.add_argument("--out", required=True, help="output directory for the report bundle")
    p_score.add_argument("--raw", action="store_true", help="print raw values instead of x100")

    p_acc = sub.add_parser("accumulate", help="accumulate VQA answers into a score table")
    p_acc.add_argument("--mode", choices=("tifa", "dsg"), required=True)
    p_acc.add_argument("--questions", required=True, help="question graph JSON")
    p_acc.add_argument("--answers", required=True, help="answer CSV (seg_id,image_id,question_id,answer)")
    p_acc.add_argument("--out", required=True, help="output score CSV")
    p_acc.add_argument("--name", default=None, help="metric base name (default: prompt_id)")

    p_par = sub.add_parser("pareto", help="cost-quality frontier from a report")
    p_par.add_argument("--report", required=True, help="report.json from the score command")
    p_par.add_argument("--costs", required=True, help="cost model JSON (object or array)")
    p_par.add_argument("--basis", choices=("rank", "sep", "delta"), default="rank")
    p_par.add_argument("--out", required=True, help="output frontier CSV")

    p_syn = sub.add_parser("synth", help="generate synthetic SEGs")
    p_syn.add_argument("--seed", type=int, required=True)
    p_syn.add_argument("--segs", type=int, required=True, help="number of SEGs")
    p_syn.add_argument("--out", required=True, help="output directory")
    p_syn.add_argument("--nodes", type=int, nargs=2, default=(3, 7), metavar=("MIN", "MAX"))
    p_syn.add_argument("--images", type=int, nargs=2, default=(1, 4), metavar=("MIN", "MAX"))
    p_syn.add_argument("--branch-prob", type=float, default=0.4)
    p_syn.add_argument("--multi-edge-prob", type=float, default=0.2)
    p_syn.add_argument("--noise-sigma", type=float, default=0.05)
    p_syn.add_argument(
        "--scores-out",
        default=None,
        help="also write oracle score tables (perfect/inverse/constant/noisy) to this CSV",
    )
    return parser


def cmd_validate(args: argparse.Namespace) -> int:
    any_parse = False
    violations_total = files = 0
    for f, seg, report in check_seg_files(args.paths):  # a missing path raises OSError: exit 6 in main
        files += 1
        if report is None:
            print(f"PARSE ERROR {seg}", file=sys.stderr)  # the ParseError names the file
            any_parse = True
            continue
        for w in report.warnings:
            print(f"WARN {f}: {w}", file=sys.stderr)
        if report.ok:
            print(f"OK {f}")
        else:
            violations_total += len(report.violations)
            for msg in report.violations:
                print(f"INVALID {f}: {msg}")
    if any_parse:
        return EXIT_PARSE
    if violations_total:
        print(f"{violations_total} violation(s) across {files} file(s)")
        return EXIT_VALIDATION
    print(f"all {files} file(s) valid")
    return EXIT_OK


def _print_table(report, raw: bool) -> None:
    scale = 1.0 if raw else 100.0
    rows = [("metric", "scope", "rank", "sep", "delta", "segs")]
    for name in sorted(report.metrics):
        agg = report.metrics[name]
        scopes = [("Avg", agg.overall)]
        for subset in SUBSETS:
            if subset in agg.by_subset:
                scopes.append((subset.capitalize(), agg.by_subset[subset]))
        for scope, ms in scopes:
            rows.append((name, scope, *(f"{v * scale:.2f}" for v in (ms.rank, ms.sep, ms.delta)), str(ms.seg_count)))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def cmd_score(args: argparse.Namespace) -> int:
    loaded, warnings = load_segs(args.segs)
    for w in warnings:  # the lines validate prints for these files
        print(f"WARN {w}", file=sys.stderr)
    collection = loaded.filter_subset(args.subset)
    if not len(collection):
        raise ValidationError(f"no SEGs{f' in subset {args.subset!r}' if args.subset else ''}")
    tables = load_score_tables(args.scores)
    if not tables:
        raise ParseError("no score rows", source=args.scores)
    if args.metric:
        unknown = sorted(set(args.metric) - set(tables))
        if unknown:
            print(
                "error: metric(s) not in score file: " + ", ".join(unknown), file=sys.stderr
            )
            return EXIT_USAGE
        tables = {name: tables[name] for name in args.metric}
    results = evaluate_collection(collection, tables.values(), args.tie_mode, args.pair_mode)
    # coverage has passed, so an evaluated SEG's rows beyond its image count are for images it does not list;
    # rows for a SEG that --subset leaves out are expected
    image_count = sum(len(seg.image_ids()) for seg in collection)
    for name in sorted(tables):
        entries = tables[name].entries
        segs = len(entries) - sum(len(entries.index.get(seg.id, ())) for seg in loaded)
        images = sum(len(entries.index[seg.id]) for seg in collection) - image_count
        if segs or images:
            unused = f"{segs + images} score row(s) unused: {segs} for unknown SEG(s), {images} for unknown image(s)"
            print(f"WARN {args.scores}: metric {name!r}: {unused}", file=sys.stderr)
    report = aggregate(results, collection)
    emit_report(report, results, args.out, collection=collection, score_tables=tables, tie_mode=args.tie_mode)
    _print_table(report, args.raw)
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_accumulate(args: argparse.Namespace) -> int:
    graphs = load_question_graphs(args.questions)
    answers = load_answer_table(args.answers)
    if not answers.entries:
        raise ParseError("no answer rows", source=args.answers)
    table = accumulate_scores(graphs, answers, args.mode, metric_name=args.name)
    write_score_tables([table], args.out)
    print(f"{len(table.entries)} score(s) for metric {table.metric_name!r} written to {args.out}")
    return EXIT_OK


def _overall_value(block, name: str, basis: str, source: str) -> float:
    """The finite ``overall[basis]`` number of one report metric block."""
    overall = block.get("overall", {}) if isinstance(block, dict) else None
    if not isinstance(overall, dict):
        raise ParseError(f"metric {name!r}: block and its 'overall' must be objects", source=source)
    if basis not in overall:
        raise ParseError(f"metric {name!r} has no overall {basis!r} value", source=source)
    value = overall[basis]
    try:
        quality = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:
        quality = math.nan
    if not math.isfinite(quality):
        raise ParseError(
            f"metric {name!r}: overall {basis!r} value {value!r} is not a finite number", source=source
        )
    return quality


def cmd_pareto(args: argparse.Namespace) -> int:
    report = read_json(args.report)
    metrics = report.get("metrics") if isinstance(report, dict) else None
    if not isinstance(metrics, dict) or not metrics:
        raise ParseError("report has no 'metrics' section", source=args.report)
    qualities = {name: _overall_value(metrics[name], name, args.basis, args.report) for name in sorted(metrics)}
    models = load_cost_models(args.costs)
    missing = sorted(set(metrics) - set(models))
    if missing:
        raise CoverageError("missing cost model(s) for metric(s): " + ", ".join(missing))
    points = [
        QualityCostPoint(metric_name=name, quality=q, cost_flops=estimate_flops(models[name]))
        for name, q in qualities.items()
    ]
    frontier = pareto_frontier(points)
    rows = [(p.metric_name, _fmt(p.quality), _fmt(p.cost_flops)) for p in frontier]
    for name, quality, cost in rows:
        print(f"{name}  {args.basis}={quality}  cost={cost} FLOPs")
    write_csv(args.out, ["metric", "quality", "cost_flops"], rows)
    print(f"{len(frontier)} of {len(points)} metric(s) on the frontier; written to {args.out}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(
        seed=args.seed,
        seg_count=args.segs,
        nodes_per_seg=tuple(args.nodes),
        images_per_node=tuple(args.images),
        branch_probability=args.branch_prob,
        multi_error_edge_probability=args.multi_edge_prob,
        noise_sigma=args.noise_sigma,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    collection = generate_segs(config)
    written = write_collection(collection, args.out)
    print(f"{len(written)} SEG file(s) written to {args.out}")
    if args.scores_out:
        tables = [
            oracle_scores(collection, kind, noise_sigma=config.noise_sigma, seed=config.seed)
            for kind in ORACLE_KINDS
        ]
        write_score_tables(tables, args.scores_out)
        print(f"oracle score tables written to {args.scores_out}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "score": cmd_score,
    "accumulate": cmd_accumulate,
    "pareto": cmd_pareto,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "" in (vars(args).get("out"), vars(args).get("scores_out")):  # Path("") would be the working directory
            raise FileNotFoundError("'': path does not exist")
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except CoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        shown = exc.missing[:20]
        for item in shown:
            print(f"  missing: {item}", file=sys.stderr)
        if len(exc.missing) > len(shown):
            print(f"  ... and {len(exc.missing) - len(shown)} more", file=sys.stderr)
        return EXIT_COVERAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
