"""Seeded generation of valid SEGs and oracle score tables.

Everything here is a pure function of the seed: sub-seeds are derived by
hashing ``seed:tag`` strings, so collections are reproducible across runs
and platforms and independent of generation order.  The oracle scorers
encode the behaviours the meta-metrics must recover exactly: a perfect
scorer orders every walk, an inverse one anti-orders it, a constant one
carries no information, and a noisy one degrades smoothly with sigma.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
from .metametrics import ScoreTable
from .seg import (
    ERROR_LABELS,
    SUBSETS,
    ErrorEdge,
    ErrorNode,
    SegCollection,
    SemanticErrorGraph,
    validate_seg,
    write_seg_file,
)

ORACLE_KINDS = ("perfect", "inverse", "constant", "noisy")

NODE_RANGE_LIMIT = (2, 12)
IMAGE_RANGE_LIMIT = (1, 8)


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    seg_count: int = 10
    nodes_per_seg: tuple[int, int] = (3, 7)
    images_per_node: tuple[int, int] = (1, 4)
    branch_probability: float = 0.4
    multi_error_edge_probability: float = 0.2
    noise_sigma: float = 0.05

    def validate(self) -> None:
        if self.seg_count < 1:
            raise ValueError("seg_count must be >= 1")
        lo, hi = self.nodes_per_seg
        if not (NODE_RANGE_LIMIT[0] <= lo <= hi <= NODE_RANGE_LIMIT[1]):
            raise ValueError(
                f"nodes_per_seg must be an ordered range within {NODE_RANGE_LIMIT}, got {self.nodes_per_seg}"
            )
        lo, hi = self.images_per_node
        if not (IMAGE_RANGE_LIMIT[0] <= lo <= hi <= IMAGE_RANGE_LIMIT[1]):
            raise ValueError(
                f"images_per_node must be an ordered range within {IMAGE_RANGE_LIMIT}, got {self.images_per_node}"
            )
        for name in ("branch_probability", "multi_error_edge_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _subseed(seed: int, tag: str) -> int:
    import hashlib  # here, so that commands other than synth skip its import
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _edge_weight(rng: random.Random, multi_prob: float) -> tuple[int, tuple[str, ...]]:
    weight = rng.randint(2, 3) if rng.random() < multi_prob else 1
    labels = tuple(rng.sample(ERROR_LABELS, k=weight))
    return weight, labels


def _generate_one(index: int, config: SynthConfig) -> SemanticErrorGraph:
    rng = random.Random(_subseed(config.seed, f"seg:{index}"))
    n_nodes = rng.randint(*config.nodes_per_seg)

    counts = [0]  # error count per node index
    parents: list[list[tuple[int, int, tuple[str, ...]]]] = [[]]  # (parent, weight, labels)
    children_of: list[list[int]] = [[]]

    for _ in range(1, n_nodes):
        internal = [i for i in range(len(counts)) if children_of[i]]
        leaves = [i for i in range(len(counts)) if not children_of[i]]
        if internal and rng.random() < config.branch_probability:
            primary = rng.choice(internal)  # second child -> guaranteed branch
        else:
            primary = rng.choice(leaves)
        w, labels = _edge_weight(rng, config.multi_error_edge_probability)
        in_edges = [(primary, w, labels)]
        # occasional second parent at the same error count keeps both the
        # strict-increase and min-over-in-edges invariants by construction
        peers = [
            i for i in range(len(counts)) if i != primary and counts[i] == counts[primary]
        ]
        if peers and rng.random() < config.branch_probability:
            other = rng.choice(peers)
            w2, labels2 = _edge_weight(rng, config.multi_error_edge_probability)
            in_edges.append((other, w2, labels2))
        new = len(counts)
        counts.append(min(counts[p] + w for p, w, _ in in_edges))
        parents.append(in_edges)
        children_of.append([])
        for p, _, _ in in_edges:
            children_of[p].append(new)

    # node ids: head "0", then "<count><letter>" per count group (e.g. 1a, 1b)
    per_count: dict[int, int] = {}
    ids = []
    for i, count in enumerate(counts):
        if i == 0:
            ids.append("0")
            continue
        k = per_count.get(count, 0)
        per_count[count] = k + 1
        ids.append(f"{count}{chr(ord('a') + k)}")

    nodes = []
    for i, count in enumerate(counts):
        n_images = rng.randint(*config.images_per_node)
        images = tuple(f"{ids[i]}-{j}.jpg" for j in range(n_images))
        nodes.append(ErrorNode(id=ids[i], error_count=count, images=images))

    edges = []
    for i in range(1, len(counts)):
        for p, w, labels in parents[i]:
            edges.append(ErrorEdge(src=ids[p], dst=ids[i], error_labels=labels, weight=w))

    seg = SemanticErrorGraph(
        id=f"{index:04d}",
        prompt=f"synthetic prompt {index:04d}",
        subset=SUBSETS[index % len(SUBSETS)],
        nodes=tuple(nodes),
        edges=tuple(edges),
    )
    report = validate_seg(seg)
    if not report.ok:  # generator bug, not user error
        raise ValidationError(
            f"generated seg {seg.id} is invalid", violations=report.violations
        )
    return seg


def generate_segs(config: SynthConfig) -> SegCollection:
    """A valid, id-sorted collection; byte-identical for equal configs."""
    config.validate()
    return SegCollection(tuple(_generate_one(i, config) for i in range(config.seg_count)))


def write_collection(collection: SegCollection, out_dir: str | Path) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for seg in collection:
        path = out_dir / f"{seg.id}.json"
        write_seg_file(seg, path)
        written.append(path)
    return written


def oracle_scores(
    collection: SegCollection,
    kind: str,
    noise_sigma: float = 0.05,
    seed: int = 0,
) -> ScoreTable:
    """Score every image of every SEG with a known-behaviour oracle.

    perfect: 1 - error_count / max count in the SEG; inverse: the
    complement; constant: 0.5 everywhere; noisy: perfect plus seeded
    Gaussian noise clipped to [0, 1].
    """
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind: {kind!r}")
    entries: dict[tuple[str, str], float] = {}
    for seg in collection:
        max_count = max(n.error_count for n in seg.nodes)
        rng = random.Random(_subseed(seed, f"noise:{seg.id}"))
        for node in seg.nodes:
            base = 1.0 - node.error_count / max_count
            for img in node.images:
                if kind == "perfect":
                    score = base
                elif kind == "inverse":
                    score = 1.0 - base
                elif kind == "constant":
                    score = 0.5
                else:
                    score = min(1.0, max(0.0, base + rng.gauss(0.0, noise_sigma)))
                entries[(seg.id, img)] = score
    return ScoreTable(metric_name=kind, entries=entries)
