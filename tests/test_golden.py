"""Golden bytes: the sha256 of every file a small fixed CLI run writes.

The digests were computed before the shared I/O helpers replaced the
per-format readers and writers, so any change to an output byte (quoting,
line ends, float formatting, row order) fails here.
"""

from __future__ import annotations

import hashlib
import json

from segeval.cli import EXIT_OK, main

COSTS = [
    {"metric": name, "stages": [{"calls": calls, "tokens_per_call": 4, "model_params": 1e8}]}
    for name, calls in (("perfect", 3), ("inverse", 1), ("constant", 2), ("noisy", 4))
]

QUESTIONS = {
    "prompt_id": "chain",
    "questions": [
        {"id": "q1", "parent_ids": [], "expected_answer": "yes"},
        {"id": "q2", "parent_ids": ["q1"], "expected_answer": "yes"},
        {"id": "q3", "parent_ids": ["q2"], "expected_answer": "no"},
        {"id": "q4", "parent_ids": ["q1"], "expected_answer": "yes"},
    ],
}

ANSWERS = (
    "seg_id,image_id,question_id,answer\n"
    "s1,a,q1,yes\ns1,a,q2,yes\ns1,a,q3,no\ns1,a,q4,yes\n"
    "s1,b,q1,yes\ns1,b,q2,no\ns1,b,q3,no\ns1,b,q4,yes\n"
    "s2,c,q1,no\ns2,c,q2,yes\ns2,c,q3,no\ns2,c,q4,yes\n"
)

GOLDEN = {
    "default/hist_rank_constant.csv": "5eb4fb70f989dd30b27667269033c797b257bb287cc6fa641b7bb36eb3d4acad",
    "default/hist_rank_inverse.csv": "7d7a1a371a447f664025a6d18a56432140eeb60e97954bdafbdca3e0e4986889",
    "default/hist_rank_noisy.csv": "1ed6c627eef9da5b3c1ac8f71e70249a15c29247f6544ccde2c2f48d5a1826e9",
    "default/hist_rank_perfect.csv": "62bac34be5e055d4077b2bb7226c3057d11a3a336dfa8832bcb63850cc0184c5",
    "default/hist_sep_constant.csv": "cfe0285a22e6a2c136d6f13d5f5539ed5ece7ee4ed12f6b4d269effb41cfdcac",
    "default/hist_sep_inverse.csv": "ebcf7c076aaca05f3215239a83389484c663f2135624aeb0ae66633aa8cf93fd",
    "default/hist_sep_noisy.csv": "6355774a36ccb0dbd00c96b6b1fcf16c0248a82f43462bc92a79275a899110b8",
    "default/hist_sep_perfect.csv": "ebcf7c076aaca05f3215239a83389484c663f2135624aeb0ae66633aa8cf93fd",
    "default/lines_constant.csv": "f9ce3a9fb8085627152261298efd617af9b4639bf8706843321cf7c48cf7b259",
    "default/lines_inverse.csv": "5b10879226d331fab34f79a90b3fd03326209b79cad3a1f6b8b0790afa9f2773",
    "default/lines_noisy.csv": "a28464e1777f39aa67d11307ca643b5d7361e5d73ab1dab5a6117483aa38536b",
    "default/lines_perfect.csv": "46ff45603da625713bbeda5cfbb922c669737421716fee005b6dd7c3c96bebd3",
    "default/per_seg.csv": "4b3a7566a5cefd7b00ff9d52b09d25516ea0642c72461b5d184edd6a98536891",
    "default/report.json": "5b3c73309938d885fdd4a9289dd991ba957e5fd3c05e4641438666317f78b7b8",
    "dsg.csv": "0c5d2fe6fad2c9142f89a1945309b977b49a1a6ced11fa36c59f5d83e91afe94",
    "frontier.csv": "614fb7b43fee4cfd95f66fc61ffb652c3a83ec9f5f62a693ec9a5f7b31fba73d",
    "scores.csv": "99e741cb9284c17e4cfa3aa34372215248ed6c8bd323c55c6da9af5e05db67df",
    "segs/0000.json": "35009bf2bd9e09ac39a17c248eb44adf92d69fa446befc8256ff117f27679789",
    "segs/0001.json": "e58e7e207509122cc4e6936f40951f9a43b28360ab5755d15fd26b8d263e5179",
    "segs/0002.json": "876dbc226f73eb814d5a885455c91e46c718952eefa042d0f98088399cac6ae9",
    "segs/0003.json": "672b8166f3602e00d978ca0a2d0af7d69a3e2be2d2cf905144bda400d1ba6e27",
    "segs/0004.json": "b43120e6e5fac8cda6bb5ba8e5bc558615d9258efcf52bcba492b0eaf8dbdc64",
    "segs/0005.json": "061ef9fbedacb3747e2b4b7801a71f4a3865787668f783a4a9703092a57eb1d9",
    "segs/0006.json": "74d0daebb7565b5cb0ca1b348edc34428fb6afcfe2b67f2895523def4628d1e3",
    "segs/0007.json": "34d4c821edbd44df5fceefc3d9dea795e12d7262da9eef8bab9bb0f4634dffc6",
    "segs/0008.json": "31c9652220aee30d75e783973d0fd1230539f5fc9cb66abc4aec7b5930166f0b",
    "segs/0009.json": "4e00ac3e78b76a99378b14451980f83edea02d91df9e91be2084dd2be8205392",
    "segs/0010.json": "6c815e36689e1f1a66b108714fa227689c67e4e00930c5c54f54364b6c2a0feb",
    "segs/0011.json": "b5f31389f7a143daaa7124d3e6df949ef39e4b797cbc28c6dd17def800227c81",
    "segs/0012.json": "1747c9fc7ef6ed57dac304f846cdfd0ecc132940aa144167dda60667839da379",
    "segs/0013.json": "4b2e7ca6c0a08a7b9e8d4aa6e95eede1886eb701d0880ae0c7310c5b8e9889b4",
    "segs/0014.json": "8916523ff00bf1aeecf76aa9f727df48775ec9b69c6a3b1dae1827e5bbeab645",
    "segs/0015.json": "9c2682649c99210a5499d0e8dd082645ada2432b81b4a7249ce432080b34c454",
    "segs/0016.json": "f4b3dd51e95cd8b08759d47064ff076cc8af2f39f1bef06b2fb735fcc97120d4",
    "segs/0017.json": "b7eb00f34f3ca8c84f4bc16618edd8a4536c648eee5c056eb7bae3c8ea24fc4b",
    "segs/0018.json": "e23a7417296e2c50b469589f72e33f481495a0317a2ee199ae83a479f593640b",
    "segs/0019.json": "9ee639363b6ffaf80c6e45142d03ed527a533d91b3b4d80d582ac36885ef597a",
    "unique/hist_rank_constant.csv": "5eb4fb70f989dd30b27667269033c797b257bb287cc6fa641b7bb36eb3d4acad",
    "unique/hist_rank_inverse.csv": "7d7a1a371a447f664025a6d18a56432140eeb60e97954bdafbdca3e0e4986889",
    "unique/hist_rank_noisy.csv": "62bac34be5e055d4077b2bb7226c3057d11a3a336dfa8832bcb63850cc0184c5",
    "unique/hist_rank_perfect.csv": "1ed6c627eef9da5b3c1ac8f71e70249a15c29247f6544ccde2c2f48d5a1826e9",
    "unique/hist_sep_constant.csv": "cfe0285a22e6a2c136d6f13d5f5539ed5ece7ee4ed12f6b4d269effb41cfdcac",
    "unique/hist_sep_inverse.csv": "ebcf7c076aaca05f3215239a83389484c663f2135624aeb0ae66633aa8cf93fd",
    "unique/hist_sep_noisy.csv": "6355774a36ccb0dbd00c96b6b1fcf16c0248a82f43462bc92a79275a899110b8",
    "unique/hist_sep_perfect.csv": "ebcf7c076aaca05f3215239a83389484c663f2135624aeb0ae66633aa8cf93fd",
    "unique/lines_constant.csv": "f9ce3a9fb8085627152261298efd617af9b4639bf8706843321cf7c48cf7b259",
    "unique/lines_inverse.csv": "5b10879226d331fab34f79a90b3fd03326209b79cad3a1f6b8b0790afa9f2773",
    "unique/lines_noisy.csv": "a28464e1777f39aa67d11307ca643b5d7361e5d73ab1dab5a6117483aa38536b",
    "unique/lines_perfect.csv": "46ff45603da625713bbeda5cfbb922c669737421716fee005b6dd7c3c96bebd3",
    "unique/per_seg.csv": "d434bb76cbdef54bfe58d830762acb1fb30631e5444219359293bf2b893405b9",
    "unique/report.json": "88b45b391cb452ae87ec13395b96b191f6e8d5e88f9c1afcdec692f99f827b28",
}


def _run(tmp_path) -> None:
    segs, scores = tmp_path / "segs", tmp_path / "scores.csv"
    assert main(["synth", "--seed", "3", "--segs", "20", "--out", str(segs), "--scores-out", str(scores)]) == EXIT_OK
    score = ["score", "--segs", str(segs), "--scores", str(scores)]
    assert main(score + ["--out", str(tmp_path / "default")]) == EXIT_OK
    assert main(score + ["--pair-mode", "unique-edge", "--tie-mode", "countbelow", "--out", str(tmp_path / "unique")]) == EXIT_OK

    costs = tmp_path / "inputs" / "costs.json"
    costs.parent.mkdir()
    costs.write_text(json.dumps(COSTS), encoding="utf-8")
    report = tmp_path / "default" / "report.json"
    assert main(["pareto", "--report", str(report), "--costs", str(costs), "--out", str(tmp_path / "frontier.csv")]) == EXIT_OK

    questions, answers = tmp_path / "inputs" / "questions.json", tmp_path / "inputs" / "answers.csv"
    questions.write_text(json.dumps(QUESTIONS), encoding="utf-8")
    answers.write_text(ANSWERS, encoding="utf-8")
    assert main(["accumulate", "--mode", "dsg", "--questions", str(questions), "--answers", str(answers), "--out", str(tmp_path / "dsg.csv")]) == EXIT_OK


def _digests(tmp_path) -> dict[str, str]:
    return {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.parent.name != "inputs"
    }


def test_every_output_file_matches_its_pinned_digest(tmp_path):
    _run(tmp_path)
    assert _digests(tmp_path) == GOLDEN
