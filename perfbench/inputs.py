"""Seeded input files for the ``topology`` workload's CLI commands.

Every poset is written as an ordlab poset document (``labels`` plus the
Hasse ``covers``).  The seed fixes a permutation of each carrier and
the random DAG, so different seeds give different files for nearly the
same amount of work.  Only ``Random.random`` is used, whose stream is
stable across Python versions.
"""

from __future__ import annotations

import json
import os
from random import Random

DAG_POINTS = 64
DAG_EDGE_PROB = 0.08


def _shuffled(items: list, rng: Random) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def _doc(labels: list[str], covers: list[tuple[int, int]], rng: Random) -> dict:
    """Poset document with the carrier listed in a seeded order."""
    order = _shuffled(list(range(len(labels))), rng)
    pos = {k: i for i, k in enumerate(order)}
    return {
        "labels": [labels[k] for k in order],
        "covers": sorted([pos[a], pos[b]] for a, b in covers),
    }


def boolean(n: int) -> tuple[list[str], list[tuple[int, int]]]:
    labels = [format(i, f"0{n}b") for i in range(1 << n)]
    covers = [(i, i | (1 << b)) for i in range(1 << n) for b in range(n) if not i >> b & 1]
    return labels, covers


def cube_product() -> tuple[list[str], list[tuple[int, int]]]:
    """2^3 x 2^3 with pair labels; index a*8+b for the pair (a, b)."""
    labels = [f"({a:03b},{b:03b})" for a in range(8) for b in range(8)]
    covers = []
    for a in range(8):
        for b in range(8):
            for bit in range(3):
                if not a >> bit & 1:
                    covers.append((a * 8 + b, (a | 1 << bit) * 8 + b))
                if not b >> bit & 1:
                    covers.append((a * 8 + b, a * 8 + (b | 1 << bit)))
    return labels, covers


def chain(k: int) -> tuple[list[str], list[tuple[int, int]]]:
    return [f"c{i}" for i in range(k)], [(i, i + 1) for i in range(k - 1)]


def random_dag(n: int, rng: Random) -> tuple[list[str], list[tuple[int, int]]]:
    """Transitive reduction of a random DAG on the natural order of 0..n-1."""
    down = [1 << i for i in range(n)]
    for j in range(n):
        for i in range(j):
            if rng.random() < DAG_EDGE_PROB:
                down[j] |= down[i]
    covers = []
    for j in range(n):
        below = down[j] & ~(1 << j)
        for i in range(j):
            if below >> i & 1:
                # i is covered by j unless some k strictly between sits above i
                between = below & ~down[i]
                if not any(between >> k & 1 and down[k] >> i & 1 for k in range(i + 1, j)):
                    covers.append((i, j))
    return [f"d{i}" for i in range(n)], covers


def write_inputs(directory: str, seed: int) -> dict[str, object]:
    """Write every input file of the topology workload; return facts the checks need."""
    rng = Random(seed)
    os.makedirs(directory, exist_ok=True)
    files: dict[str, dict] = {}
    files["bool6"] = _doc(*boolean(6), rng)
    files["cube2"] = _doc(*cube_product(), rng)
    files["chain64"] = _doc(*chain(64), rng)
    files["dag64"] = _doc(*random_dag(DAG_POINTS, rng), rng)
    files["bool3"] = _doc(*boolean(3), rng)
    files["bool5"] = _doc(*boolean(5), rng)
    cyc_labels = ["x", "y", "z"]
    files["cyclic"] = _doc(cyc_labels, [(0, 1), (1, 2), (2, 0)], rng)

    bool4 = _doc(*boolean(4), rng)
    files["hom-identity"] = {
        "domain": bool4,
        "codomain": bool4,
        "map": {label: label for label in bool4["labels"]},
    }
    # projection of 2^4 onto two seeded coordinates, into the library 2^2
    coords = _shuffled(list(range(4)), rng)[:2]
    files["hom-projection"] = {
        "domain": bool4,
        "codomain": "2^2",
        "map": {label: label[coords[0]] + label[coords[1]] for label in bool4["labels"]},
    }
    generator = ",".join(_shuffled(boolean(3)[0], rng)[:3])

    paths = {}
    for name, doc in files.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        paths[name] = path
    return {"paths": paths, "generator": generator}
