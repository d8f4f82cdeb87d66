"""Synthetic SEG generation and the oracle scorers."""

from __future__ import annotations

import pytest

from segeval.metametrics import evaluate_collection
from segeval.seg import seg_to_dict, validate_seg
from segeval.synth import SynthConfig, generate_segs, oracle_scores, write_collection
from segeval.walks import enumerate_walks


def test_minimal_two_node_chain():
    col = generate_segs(SynthConfig(seed=1, seg_count=1, nodes_per_seg=(2, 2)))
    (seg,) = col
    assert len(seg.nodes) == 2
    assert len(seg.edges) == 1
    assert validate_seg(seg).ok


def test_same_seed_same_collection():
    a = generate_segs(SynthConfig(seed=1, seg_count=5))
    b = generate_segs(SynthConfig(seed=1, seg_count=5))
    assert [seg_to_dict(s) for s in a] == [seg_to_dict(s) for s in b]


def test_different_seeds_differ():
    a = generate_segs(SynthConfig(seed=1, seg_count=5))
    b = generate_segs(SynthConfig(seed=2, seg_count=5))
    assert [seg_to_dict(s) for s in a] != [seg_to_dict(s) for s in b]


def test_full_branching_guarantees_multiple_walks():
    col = generate_segs(
        SynthConfig(seed=1, seg_count=10, nodes_per_seg=(4, 4), branch_probability=1.0)
    )
    for seg in col:
        children = seg.children()
        assert any(len(kids) >= 2 for kids in children.values())
        assert len(enumerate_walks(seg)) >= 2


def test_zero_branching_yields_chains():
    col = generate_segs(
        SynthConfig(seed=1, seg_count=10, nodes_per_seg=(5, 5), branch_probability=0.0)
    )
    for seg in col:
        assert len(enumerate_walks(seg)) == 1


def test_all_generated_segs_validate():
    col = generate_segs(
        SynthConfig(
            seed=77,
            seg_count=100,
            nodes_per_seg=(2, 12),
            images_per_node=(1, 8),
            branch_probability=0.6,
            multi_error_edge_probability=0.5,
        )
    )
    for seg in col:
        assert validate_seg(seg).ok


def test_multi_error_edges_appear_when_enabled():
    col = generate_segs(
        SynthConfig(seed=5, seg_count=20, multi_error_edge_probability=1.0)
    )
    weights = [e.weight for seg in col for e in seg.edges]
    assert all(w >= 2 for w in weights)
    labels_match = all(
        len(e.error_labels) == e.weight for seg in col for e in seg.edges
    )
    assert labels_match


def test_degenerate_config_rejected():
    with pytest.raises(ValueError):
        SynthConfig(seed=1, seg_count=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, nodes_per_seg=(5, 3)).validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, nodes_per_seg=(1, 4)).validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, images_per_node=(0, 2)).validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, branch_probability=1.5).validate()
    with pytest.raises(ValueError):
        SynthConfig(seed=1, noise_sigma=-0.1).validate()


def test_write_collection_round_trips(tmp_path):
    import warnings

    from segeval.seg import load_segs

    col = generate_segs(SynthConfig(seed=9, seg_count=4))
    write_collection(col, tmp_path)
    with warnings.catch_warnings():
        # small synthetic graphs may sit below the expected image-count range
        warnings.simplefilter("ignore")
        loaded = load_segs(tmp_path)
    assert [seg_to_dict(s) for s in loaded] == [seg_to_dict(s) for s in col]


def test_oracle_kinds_and_determinism():
    col = generate_segs(SynthConfig(seed=11, seg_count=5))
    with pytest.raises(ValueError):
        oracle_scores(col, "bogus")
    n1 = oracle_scores(col, "noisy", noise_sigma=0.1, seed=3)
    n2 = oracle_scores(col, "noisy", noise_sigma=0.1, seed=3)
    assert dict(n1.entries) == dict(n2.entries)
    n3 = oracle_scores(col, "noisy", noise_sigma=0.1, seed=4)
    assert dict(n1.entries) != dict(n3.entries)


def test_noise_degrades_rank_monotonically():
    col = generate_segs(SynthConfig(seed=100, seg_count=100))

    def mean_rank(sigma):
        if sigma == 0.0:
            table = oracle_scores(col, "perfect")
        else:
            table = oracle_scores(col, "noisy", noise_sigma=sigma, seed=8)
        results = evaluate_collection(col, table)
        return sum(r.rank for r in results) / len(results)

    r0, r_small, r_large = mean_rank(0.0), mean_rank(0.05), mean_rank(0.5)
    assert r0 == 1.0
    assert r0 >= r_small > r_large


def test_write_collection_to_an_empty_path_writes_nothing_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError, match="'': path does not exist"):
        write_collection(generate_segs(SynthConfig(seed=2, seg_count=3)), "")
    assert list(tmp_path.iterdir()) == []
