"""Seeded input generator for the benchmark.

Every system is typed from its formula in the cited source and written as a
``SystemFile`` JSON (the schema ``multiroot.cli.parse_system`` reads), with
the known exact root in a ``<stem>.root.json`` file beside it.  The library
only ever sees the SystemFile; the benchmark uses the root file to check the
outputs.

Sources:
  gy2            the package's worked example (``fixtures/gy2.json``).
  Griewank-Osborne, cmbs1, cmbs2, DZ1
                 Dayton and Zeng, ISSAC 2005; Leykin, Verschelde and Zhao,
                 TCS 359 (2006).
  KSS(n)         Kobayashi, Suzuki and Sakai, Math. Comp. 1998; root (1,...,1).

Inputs on which the library raises (Griewank-Osborne and some DZ1 points in
extraction, many KSS points in the pivot search of ``newton_iterate``) are
kept on purpose: they are part of the workload and count against the success
share.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# A polynomial is a list of (coefficient, exponent tuple) terms.


def gy2():
    return [
        [(1 / 3, (3, 0)), (1.0, (1, 2)), (1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))],
        [(1.0, (2, 1)), (-1.0, (1, 2)), (1.0, (2, 0)), (2.0, (1, 1)), (1.0, (0, 2))],
    ]


def griewank_osborne():
    # 29/16 x^3 - 2xy,  y - x^2
    return [
        [(29 / 16, (3, 0)), (-2.0, (1, 1))],
        [(1.0, (0, 1)), (-1.0, (2, 0))],
    ]


def cmbs1():
    # x^3 - yz,  y^3 - xz,  z^3 - xy
    return [
        [(1.0, (3, 0, 0)), (-1.0, (0, 1, 1))],
        [(1.0, (0, 3, 0)), (-1.0, (1, 0, 1))],
        [(1.0, (0, 0, 3)), (-1.0, (1, 1, 0))],
    ]


def cmbs2():
    # (x - y)^3 - z^2 and its two cyclic shifts x -> z -> y -> x:
    # (z - x)^3 - y^2 and (y - z)^3 - x^2.
    first = [(1.0, (3, 0, 0)), (-3.0, (2, 1, 0)), (3.0, (1, 2, 0)), (-1.0, (0, 3, 0)),
             (-1.0, (0, 0, 2))]
    second = [(c, _shift(e)) for c, e in first]
    return [first, second, [(c, _shift(e)) for c, e in second]]


def _shift(e: tuple[int, int, int]) -> tuple[int, int, int]:
    """Exponents of x^a y^b z^c after substituting x -> z, y -> x, z -> y."""
    return (e[1], e[2], e[0])


def dz1(n: int = 4):
    # x_i^4 - prod_{j != i} x_j
    eqs = []
    for i in range(n):
        power = [0] * n
        power[i] = 4
        prod = [1] * n
        prod[i] = 0
        eqs.append([(1.0, tuple(power)), (-1.0, tuple(prod))])
    return eqs


def kss(n: int):
    # x_i^2 + sum_j x_j - 2 x_i - n + 1, root (1, ..., 1)
    eqs = []
    for i in range(n):
        terms = []
        sq = [0] * n
        sq[i] = 2
        terms.append((1.0, tuple(sq)))
        for j in range(n):
            lin = [0] * n
            lin[j] = 1
            terms.append((-1.0 if j == i else 1.0, tuple(lin)))
        terms.append((float(1 - n), (0,) * n))
        eqs.append(terms)
    return eqs


# name -> (equations, root coordinate, truncation order: 3, or the degree
# when that is higher, so that every system is stored exactly)
FAMILIES = {
    "griewank_osborne": (griewank_osborne(), 0.0, 3),
    "cmbs1": (cmbs1(), 0.0, 3),
    "cmbs2": (cmbs2(), 0.0, 3),
    "dz1": (dz1(4), 0.0, 4),
    "kss3": (kss(3), 1.0, 3),
    "kss4": (kss(4), 1.0, 3),
    "kss5": (kss(5), 1.0, 3),
    "kss6": (kss(6), 1.0, 3),
}

GY2_FIXTURE_POINT = (-0.0005, 0.0006)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_PLASTIC = 1.324717957244746  # real root of x^3 = x + 1
R2 = (1.0 / _PLASTIC, 1.0 / _PLASTIC**2)


def spread_distances(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """``count`` distances, log-uniform in [lo, hi] along a golden-ratio
    sequence with a seeded start, so every prefix covers the range evenly."""
    start = rng.random()
    return [
        math.exp(math.log(lo) + ((start + k * GOLDEN) % 1.0) * math.log(hi / lo))
        for k in range(count)
    ]


def perturbed(rng: random.Random, root: list[float], dist: float) -> list[float]:
    """root + dist * u, u a uniform real unit vector."""
    u = [rng.gauss(0.0, 1.0) for _ in root]
    norm = math.sqrt(sum(v * v for v in u))
    return [r + dist * v / norm for r, v in zip(root, u)]


def write_system(path: Path, equations, point, root, order: int, backend: str) -> None:
    n = len(point)
    payload = {
        "vars": [f"x{i}" for i in range(n)],
        "equations": [
            [[[float(c), 0.0], list(e)] for c, e in eq] for eq in equations
        ],
        "point": [[float(v), 0.0] for v in point],
        "radius": 1.0,
        "order": order,
        "norm_backend": backend,
    }
    path.write_text(json.dumps(payload))
    root_path(path).write_text(json.dumps({"root": [[float(v), 0.0] for v in root]}))


def root_path(path: Path) -> Path:
    return path.with_name(path.stem + ".root.json")


def read_root(path: Path) -> tuple[complex, ...]:
    data = json.loads(root_path(path).read_text())
    return tuple(complex(re, im) for re, im in data["root"])


def gy2_inputs(out: Path, seed: int, count: int, backend: str = "appendix") -> list[Path]:
    """The fixture point first, then ``count`` seeded points at 1e-4..8e-4
    from the root.  (log distance, angle) follow the two-dimensional R2
    sequence from a seeded start, so every prefix of the points covers the
    annulus evenly."""
    rng = random.Random(f"gy2:{seed}")
    s1, s2 = rng.random(), rng.random()
    points = [list(GY2_FIXTURE_POINT)]
    for k in range(count):
        t, u = (s1 + k * R2[0]) % 1.0, (s2 + k * R2[1]) % 1.0
        dist = 1e-4 * 8.0**t
        points.append([dist * math.cos(2 * math.pi * u), dist * math.sin(2 * math.pi * u)])
    paths = []
    for k, point in enumerate(points):
        path = out / f"gy2_{k:03d}.json"
        write_system(path, gy2(), point, [0.0, 0.0], 3, backend)
        paths.append(path)
    return paths


def family_inputs(out: Path, seed: int, per_family: int) -> list[list[Path]]:
    """Blocks of one input per family, in a seeded shuffled order within each
    block; ``per_family`` blocks at 1e-6..1e-4 from the root."""
    rng = random.Random(f"families:{seed}")
    blocks: list[list[Path]] = [[] for _ in range(per_family)]
    for name, (equations, r, order) in FAMILIES.items():
        root = [r] * len(equations[0][0][1])
        for k, dist in enumerate(spread_distances(rng, per_family, 1e-6, 1e-4)):
            path = out / f"{name}_{k:03d}.json"
            write_system(path, equations, perturbed(rng, root, dist), root, order, "complex")
            blocks[k].append(path)
    for block in blocks:
        rng.shuffle(block)
    return blocks
