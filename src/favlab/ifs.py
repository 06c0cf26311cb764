"""Homothety iterated function systems: word enumeration, generation-n
squares, similarity dimension, presets, and the generic-word census.

Generations are enumerated in stable lexicographic word order so disk
indices are reproducible across runs.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Point2, Square

#: cap on the steps of one streamed engine run, counted before it starts: a
#: step costs 1.2-1.7e-8 s on a 2-core host, so the cap stops a run near 20 s
WORK_BUDGET = 2 ** 30

Word = tuple[int, ...]


class ResourceBudgetError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


def check_budget(what: str, need: int, unit: str, cap: int) -> None:
    """Raise ResourceBudgetError when `what` needs more than `cap` units."""
    if need > cap:
        raise ResourceBudgetError(f"{what} needs {need} {unit}; cap is {cap}")


class DimensionError(ValueError):
    """Similarity dimension has no root in (0, 2]."""


@dataclass(frozen=True)
class Similitude:
    """Homothety x -> lam * x + z (no rotation); lam = 1 only for the
    identity obtained by composing the empty word."""

    lam: float
    z: tuple[float, float]

    def __post_init__(self):
        if not (0 < self.lam <= 1):
            raise ValueError(f"contraction ratio must be in (0, 1], got {self.lam}")

    def apply(self, p: Point2) -> Point2:
        return Point2(self.lam * p.x + self.z[0], self.lam * p.y + self.z[1])


@dataclass(frozen=True)
class IFSystem:
    maps: tuple[Similitude, ...]
    hull: Square

    def __post_init__(self):
        if len(self.maps) < 2:
            raise ValueError("an IFS needs at least 2 maps")

    @property
    def s(self) -> int:
        return len(self.maps)

    @property
    def equal_ratios(self) -> bool:
        lams = [m.lam for m in self.maps]
        return all(abs(l - lams[0]) < 1e-15 for l in lams)

    def log_depth(self, n: int) -> int:
        """Least L >= 0 with s^L >= n, i.e. ceil(log_s n) for n >= 1,
        computed in integers."""
        L = 0
        while self.s ** L < n:
            L += 1
        return L

    def stage_side(self, n: int) -> float:
        """Common side of the stage-n squares, as `generate_generation`
        computes it, and refused past its cap as it is; only equal-ratio
        systems have one."""
        if not self.equal_ratios:
            raise ValueError("generation squares have no common side: the "
                             "IFS contraction ratios differ")
        _check_generation(self, n)
        return math.prod([self.maps[0].lam] * n) * self.hull.side


@dataclass(frozen=True)
class DiskNode:
    word: Word
    square: Square


class Generation(Sequence):
    """The s^n stage-n squares T_w(J0), in lexicographic word order.

    Stored as corner arrays for bulk geometry; indexing yields DiskNode.
    """

    def __init__(self, sys: IFSystem, n: int, corner_x: np.ndarray,
                 corner_y: np.ndarray, sides: np.ndarray):
        self.sys = sys
        self.n = n
        self.corner_x = corner_x
        self.corner_y = corner_y
        self.sides = sides

    @property
    def side(self) -> float:
        """Common side length; only equal-ratio systems have one."""
        return self.sys.stage_side(self.n)

    def __len__(self) -> int:
        return len(self.corner_x)

    def word_of(self, i: int) -> Word:
        if not -len(self) <= i < len(self):
            raise IndexError(f"square {i} outside a generation of {len(self)}")
        i %= len(self)
        s = self.sys.s
        letters = []
        for _ in range(self.n):
            i, r = divmod(i, s)
            letters.append(r + 1)
        return tuple(reversed(letters))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        sq = Square(Point2(float(self.corner_x[i]), float(self.corner_y[i])),
                    float(self.sides[i]))
        return DiskNode(self.word_of(i), sq)

    def centers(self) -> np.ndarray:
        return np.stack([self.corner_x + self.sides / 2,
                         self.corner_y + self.sides / 2], axis=1)


def similarity_dimension(sys: IFSystem) -> float:
    """Unique alpha in (0, 2] with sum(lam_i^alpha) = 1, by bisection."""
    lams = np.array([m.lam for m in sys.maps])

    def g(a):
        return float(np.sum(lams ** a)) - 1.0

    if g(2.0) > 1e-12:
        raise DimensionError(
            "sum lam_i^2 > 1: similarity dimension exceeds 2")
    lo, hi = 1e-9, 2.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    if abs(g(alpha)) > 1e-9:
        raise DimensionError("no root of sum lam_i^alpha = 1 in (0, 2]")
    return alpha


def compose_word(sys: IFSystem, w: Word) -> Similitude:
    """T_w = T_{w_n} o ... o T_{w_1} (first letter applied first)."""
    lam = 1.0
    zx = zy = 0.0
    for letter in w:
        if not 1 <= letter <= sys.s:
            raise ValueError(f"letter {letter} outside 1..{sys.s}")
        m = sys.maps[letter - 1]
        lam, zx, zy = m.lam * lam, m.lam * zx + m.z[0], m.lam * zy + m.z[1]
    return Similitude(lam, (zx, zy))


def _extended(sys: IFSystem, lam: np.ndarray, zx: np.ndarray,
              zy: np.ndarray, letters: int):
    """The composed maps (lam, zx, zy) of words, each extended by every
    word of `letters` more letters, lexicographic with the last letter
    fastest."""
    lam_arr = np.array([m.lam for m in sys.maps])
    zx_arr = np.array([m.z[0] for m in sys.maps])
    zy_arr = np.array([m.z[1] for m in sys.maps])
    for _ in range(letters):
        lam = (lam[:, None] * lam_arr[None, :]).ravel()
        zx = (zx[:, None] * lam_arr[None, :] + zx_arr[None, :]).ravel()
        zy = (zy[:, None] * lam_arr[None, :] + zy_arr[None, :]).ravel()
    return lam, zx, zy


def _squares(sys: IFSystem, lam, zx, zy):
    """(corner_x, corner_y, sides) of the images of the hull under the
    composed maps."""
    hull = sys.hull
    return (lam * hull.corner.x + zx, lam * hull.corner.y + zy,
            lam * hull.side)


def _stage_squares(sys: IFSystem, n: int, cap: int) -> int:
    """The s^n stage-n squares as `cap` counts them: past its bit length,
    s^bit_length, a lower bound that already exceeds the cap."""
    if n < 0:
        raise ValueError("generation index must be >= 0")
    return sys.s ** min(n, cap.bit_length())


def _check_generation(sys: IFSystem, n: int) -> None:
    """Raise ResourceBudgetError past WORK_BUDGET >> 10 = 4^10 stage-n
    squares.  Building one costs about 30 ns and 48 bytes at peak on a
    2-core host (0.035 s and 50 MB at the cap); the cap stays at 4^10
    because every experiment that takes a generation spends far more per
    square."""
    cap = WORK_BUDGET >> 10
    check_budget(f"generation {n}", _stage_squares(sys, n, cap), "nodes",
                 cap)


def generate_generation(sys: IFSystem, n: int) -> Generation:
    """All s^n stage-n squares, lexicographic in the word, checked first by
    `_check_generation`."""
    _check_generation(sys, n)
    [squares] = _generation_blocks(sys, n, sys.s ** n)
    return Generation(sys, n, *squares)


def _generation_blocks(sys: IFSystem, n: int, block: int):
    """The stage-n squares as (corner_x, corner_y, sides) blocks of at most
    max(block, 1) squares, in lexicographic word order.  A block is one
    word prefix's composed map extended by every suffix, so the blocks of
    any size concatenate to the one block of `generate_generation` bit for
    bit; only the prefixes' maps are held at once."""
    suffix = 0
    while suffix < n and sys.s ** (suffix + 1) <= block:
        suffix += 1
    lam, zx, zy = _extended(sys, np.ones(1), np.zeros(1), np.zeros(1),
                            n - suffix)
    for i in range(lam.size):
        yield _squares(sys, *_extended(sys, lam[i:i + 1], zx[i:i + 1],
                                       zy[i:i + 1], suffix))


def subword_census(sys: IFSystem, N: int, L: int, samples: int = 100_000,
                   seed: int = 0) -> float:
    """Fraction of words in W_N that do NOT contain every word of W_L as a
    contiguous subword (the non-generic fraction).

    Exact enumeration when s^N <= 4^6; otherwise a fixed-seed Monte-Carlo
    estimate over `samples` uniform words.  The letters of the words read
    are checked first against WORK_BUDGET >> 5 (one costs 0.15-0.3 us on a
    2-core host at L <= 3, so the cap stops a run near 5-10 s); letters
    rather than windows, so that an L near N cannot draw a huge word.
    """
    if not (N >= L >= 1):
        raise ValueError("need N >= L >= 1")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    s = sys.s
    cap = WORK_BUDGET >> 5
    # s^N and s^L are capped where the comparisons they feed are decided
    # (s >= 2): s^N > 4^6 past cap's bit length, s^L > N - L + 1 past its
    exact = _stage_squares(sys, N, cap) <= 4 ** 6
    check_budget(f"subword census of length {N}",
                 (s ** N if exact else samples) * N, "letters", cap)
    needed = s ** min(L, (N - L + 1).bit_length())

    def is_generic(word) -> bool:
        if N - L + 1 < needed:
            return False
        seen = {tuple(word[i:i + L]) for i in range(N - L + 1)}
        return len(seen) == needed

    if exact:
        bad = sum(not is_generic(w)
                  for w in itertools.product(range(s), repeat=N))
        return bad / s ** N
    rng = np.random.default_rng(seed)
    words = rng.integers(0, s, size=(samples, N))
    bad = sum(not is_generic(tuple(row)) for row in words)
    return bad / samples


# ---------------------------------------------------------------------------
# presets and the JSON description format
# ---------------------------------------------------------------------------

def four_corner(corner: tuple[float, float] = (0.0, 0.0),
                side: float = 1.0) -> IFSystem:
    """The 4-corner Cantor system: ratio-1/4 homotheties keeping the four
    corner squares of the hull."""
    cx, cy = corner
    q = 3.0 * side / 4.0
    # z places T_i(hull) at the corner offsets, corner/4 + z = corner +
    # offset, in the order (0,0), (q,0), (0,q), (q,q)
    maps = tuple(Similitude(0.25, (0.75 * cx + dx, 0.75 * cy + dy))
                 for dy in (0.0, q) for dx in (0.0, q))
    return IFSystem(maps, Square(Point2(cx, cy), side))


PRESETS = {
    # unit-square 4-corner set
    "fourcorner": lambda: four_corner(),
    # translated copy inside the annulus B(0,100) \ B(0,1/100), center (2,2)
    "fourcorner-annulus": lambda: four_corner(corner=(1.5, 1.5)),
    # dilated copy filling [1,20]^2, for the projective-bridge fixtures
    "fourcorner-wide": lambda: four_corner(corner=(1.0, 1.0), side=19.0),
}


def preset(name: str) -> IFSystem:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None


def _finite(val, field: str) -> float:
    """val as a float if it is a finite JSON number; else a ValueError
    naming the field."""
    try:
        if not isinstance(val, bool) and math.isfinite(val):
            return float(val)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{field}: expected a finite number, got {val!r}")


def _pair(val, field: str) -> tuple[float, float]:
    """val as (x, y) if it is a list of two finite JSON numbers."""
    if not (isinstance(val, list) and len(val) == 2):
        raise ValueError(f"{field}: expected [x, y], got {val!r}")
    return _finite(val[0], field), _finite(val[1], field)


def ifs_from_dict(d) -> IFSystem:
    """The IFS of a JSON description {"maps": [{"lambda": r, "z": [x, y]},
    ...], "hull": {"corner": [x, y], "side": a}}; a malformed field raises
    a ValueError that names it."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    maps, hull = d.get("maps"), d.get("hull")
    if not (isinstance(maps, list) and all(isinstance(m, dict)
                                           for m in maps)):
        raise ValueError("maps: expected a list of objects")
    if not isinstance(hull, dict):
        raise ValueError("hull: expected an object")
    return IFSystem(
        tuple(Similitude(_finite(m.get("lambda"), f"maps[{i}].lambda"),
                         _pair(m.get("z"), f"maps[{i}].z"))
              for i, m in enumerate(maps)),
        Square(Point2(*_pair(hull.get("corner"), "hull.corner")),
               _finite(hull.get("side"), "hull.side")))


def load_ifs(path: str) -> IFSystem:
    with open(path) as fh:
        return ifs_from_dict(json.load(fh))


def resolve_ifs(spec: str) -> IFSystem:
    """Preset name or path to a JSON description file."""
    if spec in PRESETS:
        return preset(spec)
    return load_ifs(spec)
