"""Seeded inputs, CLI commands and output checks of the benchmark workloads.

Every generator goes through segeval's public API and is a pure function of
its seed, so one seed always gives the same input bytes.  The program under
test only ever sees the generated files: each workload hands back the CLI
argument lists to run and a check of what those commands wrote.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import traceback
import warnings
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable

import segeval
import segeval.cli
from segeval import (
    ErrorEdge,
    ErrorNode,
    SegCollection,
    SemanticErrorGraph,
    SynthConfig,
    generate_segs,
    oracle_scores,
    write_collection,
    write_score_tables,
    write_seg_file,
)
from segeval.seg import ERROR_LABELS

ORACLES = ("perfect", "inverse", "constant", "noisy")

# Bundle files that exist at the commit the digests were pinned on.  The
# pinned digest covers only these, so a later change may add a file to the
# bundle; it must leave the bytes of these unchanged.
PINNED_FILES = (
    "report/report.json",
    "report/per_seg.csv",
    "report/hist_*.csv",
    "report/lines_*.csv",
    "frontier.csv",
    "scores.csv",
)


class SetupError(Exception):
    """Generated inputs did not validate; the run measures nothing."""


@dataclass(frozen=True)
class CliResult:
    code: int | None  # None: the command raised instead of returning
    warnings: int
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """Run one ``segeval`` command in this process, capturing its output.

    ``warnings.warn`` lint lines (one per out-of-range SEG on synth inputs)
    are recorded and counted instead of printed.  ``segeval.cli.main`` is
    looked up on every call so an installed tracer sees it.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = segeval.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a crashed run
                code = None
                traceback.print_exc(file=err)
    return CliResult(code=code, warnings=len(caught), stderr=err.getvalue())


@dataclass(frozen=True)
class Prepared:
    """Validated inputs of one workload, and how to run and check it."""

    commands: tuple[tuple[str, ...], ...]  # run in order; one iteration
    out_dir: Path  # everything the commands write, wiped before each iteration
    check: Callable[[], list[str]]  # problems found in the outputs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, int], Prepared]


# ---------------------------------------------------------------------------
# generators


def write_synth_inputs(
    in_dir: Path,
    seed: int,
    segs: int,
    nodes: tuple[int, int],
    images: tuple[int, int],
    kinds: tuple[str, ...],
) -> None:
    """What ``segeval synth --scores-out`` writes, restricted to ``kinds``."""
    config = SynthConfig(
        seed=seed, seg_count=segs, nodes_per_seg=nodes, images_per_node=images
    )
    collection = generate_segs(config)
    write_collection(collection, in_dir / "segs")
    tables = [
        oracle_scores(collection, kind, noise_sigma=config.noise_sigma, seed=seed)
        for kind in kinds
    ]
    write_score_tables(tables, in_dir / "scores.csv")


def write_cost_models(path: Path, seed: int, metrics: tuple[str, ...]) -> None:
    rng = random.Random(f"costs:{seed}")
    models = [
        {
            "metric": metric,
            "stages": [
                {
                    "calls": rng.randint(1, 8),
                    "tokens_per_call": rng.randint(16, 512),
                    "model_params": rng.choice((1e8, 3e8, 1e9, 7e9, 1.3e10)),
                }
                for _ in range(rng.randint(1, 3))
            ],
        }
        for metric in metrics
    ]
    path.write_text(json.dumps(models, indent=2) + "\n", encoding="utf-8")


def stacked_diamond(seed: int, k: int) -> SemanticErrorGraph:
    """k diamonds in a row, one image per node: 3k+1 nodes and 2^k walks."""
    rng = random.Random(f"diamond:{seed}")

    def node(node_id: str, count: int) -> ErrorNode:
        return ErrorNode(id=node_id, error_count=count, images=(f"{node_id}-0.jpg",))

    nodes = [node("0", 0)]
    edges = []
    top = "0"
    for i in range(k):
        count = 2 * i
        left, right, join = f"{count + 1}a", f"{count + 1}b", f"{count + 2}"
        nodes += [node(left, count + 1), node(right, count + 1), node(join, count + 2)]
        for src, dst in ((top, left), (top, right), (left, join), (right, join)):
            label = rng.choice(ERROR_LABELS)
            edges.append(ErrorEdge(src=src, dst=dst, error_labels=(label,), weight=1))
        top = join
    return SemanticErrorGraph(
        id=f"diamond-{k}",
        prompt=f"stacked diamonds {seed}",
        subset="synth",
        nodes=tuple(nodes),
        edges=tuple(edges),
    )


def write_diamond_inputs(in_dir: Path, seed: int, k: int) -> None:
    seg = stacked_diamond(seed, k)
    (in_dir / "segs").mkdir(parents=True, exist_ok=True)
    write_seg_file(seg, in_dir / "segs" / f"{seg.id}.json")
    collection = SegCollection((seg,))
    write_score_tables(
        [oracle_scores(collection, kind, seed=seed) for kind in ORACLES],
        in_dir / "scores.csv",
    )


DSG_PROMPT = "chain"


def write_dsg_inputs(
    in_dir: Path, seed: int, images: int, chain: int
) -> dict[tuple[str, str], float]:
    """A chain of ``chain`` questions and one answer per (image, question).

    Returns the DSG score every image must get: a chained question counts
    only if it and all earlier ones are right, so the score is the length
    of the leading run of right answers over ``chain``.
    """
    rng = random.Random(f"dsg:{seed}")
    questions = [
        {
            "id": f"q{i}",
            "parent_ids": [f"q{i - 1}"] if i else [],
            "expected_answer": rng.choice(("yes", "no")),
        }
        for i in range(chain)
    ]
    in_dir.mkdir(parents=True, exist_ok=True)
    (in_dir / "questions.json").write_text(
        json.dumps({"prompt_id": DSG_PROMPT, "questions": questions}, indent=2) + "\n",
        encoding="utf-8",
    )
    rows = []
    expected = {}
    for n in range(images):
        seg_id, image_id = f"{n // 8:04d}", f"{n:05d}.jpg"
        lead = chain
        for i, q in enumerate(questions):
            answer = q["expected_answer"]
            if rng.random() < 0.1:
                answer = "no" if answer == "yes" else "yes"
                lead = min(lead, i)
            elif rng.random() < 0.2:
                answer = f" {answer.upper()} "  # right once normalized
            rows.append((seg_id, image_id, q["id"], answer))
        expected[(seg_id, image_id)] = lead / chain
    rng.shuffle(rows)
    with open(in_dir / "answers.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seg_id", "image_id", "question_id", "answer"])
        writer.writerows(rows)
    return expected


# ---------------------------------------------------------------------------
# output checks


def oracle_problems(report_path: Path, kinds: tuple[str, ...]) -> list[str]:
    """Exact oracle fixed points in every scope of an emitted report.json."""
    expected = {
        "perfect": {"rank": 1.0},
        "inverse": {"rank": -1.0},
        "constant": {"rank": 0.0, "sep": 0.0, "delta": 0.0},
    }
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    problems = []
    for kind in kinds:
        if kind not in metrics:
            problems.append(f"report has no metric {kind!r}")
            continue
        scopes = {"overall": metrics[kind]["overall"], **metrics[kind]["by_subset"]}
        for scope, values in scopes.items():
            for field, want in expected.get(kind, {}).items():
                if values[field] != want:
                    problems.append(f"{kind} {scope} {field} = {values[field]!r}, want {want!r}")
    return problems


def file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            with open(path, "rb") as fh:  # streamed, so checks do not raise peak RSS
                digests[path.relative_to(out_dir).as_posix()] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def pinned_digest(digests: dict[str, str]) -> str:
    """One sha256 over the files named by ``PINNED_FILES``."""
    h = hashlib.sha256()
    for rel in sorted(digests):
        if any(fnmatch(rel, pattern) for pattern in PINNED_FILES):
            h.update(f"{rel}\0{digests[rel]}\n".encode())
    return h.hexdigest()


def _score_problems(work: Path, kinds: tuple[str, ...]) -> list[str]:
    return oracle_problems(work / "out" / "report" / "report.json", kinds)


def _walk_count_problems(per_seg: Path, walks: int) -> list[str]:
    with open(per_seg, encoding="utf-8", newline="") as fh:
        counts = {row["walks"] for row in csv.DictReader(fh)}
    return [] if counts == {str(walks)} else [f"per_seg walks {sorted(counts)}, want {walks}"]


def _frontier_problems(frontier: Path) -> list[str]:
    # perfect has the highest rank, so no cheaper metric can dominate it
    names = [line.split(",")[0] for line in frontier.read_text(encoding="utf-8").splitlines()]
    if names[:1] != ["metric"] or "perfect" not in names:
        return [f"{frontier}: frontier lacks 'perfect'"]
    return []


def _dsg_problems(scores: Path, expected: dict[tuple[str, str], float]) -> list[str]:
    got = {}
    with open(scores, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] != f"{DSG_PROMPT}-dsg-acc":
                return [f"unexpected metric {row['metric']!r}"]
            got[(row["seg_id"], row["image_id"])] = float(row["score"])
    if got.keys() != expected.keys():
        return [f"{len(got)} scored images, want {len(expected)}"]
    wrong = [key for key in expected if got[key] != expected[key]]
    return [f"{len(wrong)} wrong DSG score(s), first {wrong[0]}"] if wrong else []


# ---------------------------------------------------------------------------
# workloads


def _validate_segs(segs: Path) -> None:
    result = call_cli(["validate", str(segs)])
    if result.code != 0:
        raise SetupError(f"segeval validate {segs} exited {result.code}:\n{result.stderr}")


def _score_argv(work: Path, *extra: str) -> tuple[str, ...]:
    return (
        "score",
        "--segs", str(work / "in" / "segs"),
        "--scores", str(work / "in" / "scores.csv"),
        "--out", str(work / "out" / "report"),
        *extra,
    )


def prepare_synth_1k(work: Path, seed: int) -> Prepared:
    in_dir = work / "in"
    write_synth_inputs(in_dir, seed, 1000, (6, 12), (2, 8), ORACLES)
    write_cost_models(in_dir / "costs.json", seed, ORACLES)
    _validate_segs(in_dir / "segs")
    pareto = (
        "pareto",
        "--report", str(work / "out" / "report" / "report.json"),
        "--costs", str(in_dir / "costs.json"),
        "--basis", "rank",
        "--out", str(work / "out" / "frontier.csv"),
    )
    return Prepared(
        commands=(_score_argv(work), pareto),
        out_dir=work / "out",
        check=lambda: _score_problems(work, ORACLES)
        + _frontier_problems(work / "out" / "frontier.csv"),
    )


DIAMOND_K = 12


def prepare_diamond_12(work: Path, seed: int) -> Prepared:
    write_diamond_inputs(work / "in", seed, DIAMOND_K)
    _validate_segs(work / "in" / "segs")
    return Prepared(
        commands=(_score_argv(work),),
        out_dir=work / "out",
        check=lambda: _score_problems(work, ORACLES)
        + _walk_count_problems(work / "out" / "report" / "per_seg.csv", 2**DIAMOND_K),
    )


def prepare_small_4k(work: Path, seed: int) -> Prepared:
    kinds = ("perfect", "constant")
    write_synth_inputs(work / "in", seed, 4000, (2, 3), (1, 1), kinds)
    _validate_segs(work / "in" / "segs")
    return Prepared(
        commands=(_score_argv(work, "--pair-mode", "unique-edge", "--tie-mode", "countbelow"),),
        out_dir=work / "out",
        check=lambda: _score_problems(work, kinds),
    )


def prepare_dsg_4k(work: Path, seed: int) -> Prepared:
    in_dir = work / "in"
    images, chain = 4000, 8
    expected = write_dsg_inputs(in_dir, seed, images, chain)
    try:
        graphs = segeval.load_question_graphs(in_dir / "questions.json")
        answers = segeval.load_answer_table(in_dir / "answers.csv")
    except segeval.SegEvalError as exc:
        raise SetupError(f"generated DSG inputs do not load: {exc}") from exc
    if len(graphs) != 1 or len(answers.entries) != images * chain:
        raise SetupError("generated DSG inputs have the wrong shape")
    argv = (
        "accumulate",
        "--mode", "dsg",
        "--questions", str(in_dir / "questions.json"),
        "--answers", str(in_dir / "answers.csv"),
        "--out", str(work / "out" / "scores.csv"),
    )
    return Prepared(
        commands=(argv,),
        out_dir=work / "out",
        check=lambda: _dsg_problems(work / "out" / "scores.csv", expected),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-1k",
            "paper-shaped 1000-SEG collection, 4 oracle metrics, score then pareto; evaluation dominates",
            prepare_synth_1k,
        ),
        Workload(
            "diamond-12",
            "one stacked-diamond SEG with 4096 walks; walk enumeration, sep and walk lines dominate",
            prepare_diamond_12,
        ),
        Workload(
            "small-4k",
            "4000 tiny SEGs in unique-edge/countbelow modes; per-SEG parse and validate dominate",
            prepare_small_4k,
        ),
        Workload(
            "dsg-4k",
            "accumulate --mode dsg over 4000 images x 8 chained questions; only scorers works",
            prepare_dsg_4k,
        ),
    )
}
