"""The package's top-level names and the README's library example."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import segeval
from segeval.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = {
    "CoverageError", "ParseError", "SegEvalError", "ValidationError",
    "ErrorEdge", "ErrorNode", "SegCollection", "SemanticErrorGraph",
    "load_segs", "validate_seg", "write_seg_file", "enumerate_walks",
    "ScoreTable", "load_score_tables", "write_score_tables", "rank_score", "sep_score", "delta_score",
    "global_std", "evaluate_seg", "evaluate_collection", "aggregate",
    "emit_report", "walk_line_data",
    "load_question_graphs", "load_answer_table", "accumulate_scores", "load_embeddings", "embedding_score_table",
    "SynthConfig", "generate_segs", "oracle_scores", "write_collection",
}


def test_no_module_has_an_unused_top_level_import():
    # __init__.py imports to export; a line marked "# noqa: F401" says why its import looks unused
    unused = []
    for path in sorted(Path(segeval.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            names = ((alias.asname or alias.name).partition(".")[0] for alias in node.names)
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in used]
    assert unused == []


def test_public_names_are_the_documented_ones():
    public = {
        name
        for name, value in vars(segeval).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(DOCUMENTED) == 33
    assert public == DOCUMENTED


def test_readme_library_example_runs_on_top_level_names(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S).group(1)
    used = {
        node.attr
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "segeval"
    }
    assert used and used <= DOCUMENTED
    assert all(f"`{name}`" in text for name in DOCUMENTED)

    monkeypatch.chdir(tmp_path)
    quickstart = re.search(r"^segeval (synth .*)$", text, re.M).group(1).split()
    assert main(quickstart) == EXIT_OK
    exec(snippet, {})
    assert (tmp_path / "report" / "report.json").is_file()
    assert (tmp_path / "report" / "lines_noisy.csv").is_file()


def test_readme_cost_models_cover_the_quickstart_metrics(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    costs = re.search(r"save this as `costs.json`.*?```json\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "costs.json").write_text(costs, encoding="utf-8")
    commands = re.findall(r"^segeval ((?:synth|score|pareto) .*)$", text, re.M)
    assert [c.split()[0] for c in commands] == ["synth", "score", "pareto"]
    for command in commands:
        assert main(command.split()) == EXIT_OK, command
    assert (tmp_path / "frontier.csv").read_text(encoding="utf-8").startswith("metric,quality,cost_flops\n")


NO_NUMPY_QUICKSTART = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from segeval.cli import main
for argv in sys.argv[1:]:
    code = main(argv.split())
    if code != 0:
        sys.exit(f"{argv}: exit {code}")
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "numpy" and mod is not None]
sys.exit(f"numpy loaded: {loaded}" if loaded else 0)
"""


def test_readme_quickstart_runs_without_numpy(tmp_path):
    text = README.read_text(encoding="utf-8")
    commands = re.findall(r"^segeval ((?:synth|score) .*)$", text, re.M)
    assert [c.split()[0] for c in commands] == ["synth", "score"]
    env = dict(os.environ, PYTHONPATH=str(Path(segeval.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_QUICKSTART, *commands],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "report" / "report.json").is_file()
