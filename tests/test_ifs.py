"""IFS generation machinery: dimensions, word composition, nesting,
and the generic-word census."""

import math

import numpy as np
import pytest

from favlab.geometry import Point2, Square
from favlab.ifs import (WORK_BUDGET, DimensionError, IFSystem,
                        ResourceBudgetError, Similitude, _generation_blocks, compose_word,
                        four_corner, generate_generation, preset, resolve_ifs,
                        similarity_dimension, subword_census)

UNIT = Square(Point2(0.0, 0.0), 1.0)


def two_map_system(lam=0.25):
    return IFSystem((Similitude(lam, (0.0, 0.0)),
                     Similitude(lam, (1.0 - lam, 0.0))), UNIT)


class TestSimilarityDimension:
    def test_four_quarter_maps(self, fourcorner):
        assert similarity_dimension(fourcorner) == pytest.approx(1.0, abs=1e-9)

    def test_two_quarter_maps(self):
        assert similarity_dimension(two_map_system()) == \
            pytest.approx(0.5, abs=1e-9)

    def test_three_third_maps(self):
        sys_ = IFSystem(tuple(Similitude(1 / 3, (z, 0.0))
                              for z in (0.0, 1 / 3, 2 / 3)), UNIT)
        assert similarity_dimension(sys_) == pytest.approx(1.0, abs=1e-9)

    def test_overfull_system_rejected(self):
        sys_ = IFSystem(tuple(Similitude(0.9, (0.1 * i, 0.0))
                              for i in range(3)), UNIT)
        with pytest.raises(DimensionError):
            similarity_dimension(sys_)


SKEW3 = IFSystem((Similitude(0.5, (0.0, 0.0)), Similitude(0.3, (0.6, 0.1)),
                  Similitude(0.25, (0.2, 0.75))), Square(Point2(0.1, -0.3), 1.7))


@pytest.mark.parametrize("sys_, top", [(four_corner(), 7), (SKEW3, 8)],
                         ids=["fourcorner", "skew3"])
def test_generation_blocks_concatenate_to_the_generation(sys_, top):
    """Blocks of 1, s, s^3 and 2^14 squares (and 5, between powers of s)
    concatenate to generate_generation's arrays bit for bit, each block
    the largest power of s that fits."""
    s = sys_.s
    for n in range(top + 1):
        gen = generate_generation(sys_, n)
        for block in (1, s, s ** 3, 2 ** 14, 5):
            size = s ** min(n, int(math.log(block + 0.5, s)))
            blocks = list(_generation_blocks(sys_, n, block))
            assert [len(b[0]) for b in blocks] == [size] * (s ** n // size)
            for got, want in zip(zip(*blocks), (gen.corner_x, gen.corner_y,
                                                gen.sides)):
                assert np.concatenate(got).tobytes() == want.tobytes()


class TestGenerateGeneration:
    def test_stage_zero_is_hull(self, fourcorner):
        g = generate_generation(fourcorner, 0)
        assert len(g) == 1
        assert g[0].square == fourcorner.hull
        assert g[0].word == ()

    def test_stage_one_corners(self, gens):
        g = gens(1)
        got = sorted(zip(g.corner_x.tolist(), g.corner_y.tolist()))
        assert got == [(0.0, 0.0), (0.0, 0.75), (0.75, 0.0), (0.75, 0.75)]
        assert np.all(g.sides == 0.25)

    def test_stage_three_area_identity(self, gens):
        g = gens(3)
        assert len(g) == 64
        assert np.all(g.sides == 4.0 ** -3)
        assert float(np.sum(g.sides ** 2)) == pytest.approx(4.0 ** -3,
                                                            abs=1e-15)

    def test_nesting(self, gens):
        """Each stage-(n+1) square lies inside some stage-n square.

        The last letter is applied outermost, so dropping the FIRST letter
        (index mod s^n) names the containing coarser square.
        """
        outer = gens(2)
        inner = gens(3)
        for i in range(0, len(inner), 7):
            node = inner[i]
            parent = outer[i % 16]
            assert parent.square.contains(node.square.corner)
            far = Point2(node.square.corner.x + node.square.side,
                         node.square.corner.y + node.square.side)
            assert parent.square.contains(far)

    def test_self_similarity(self, fourcorner, gens):
        """Squares whose last letter is 1 are T_1 images of stage-n squares."""
        g2 = gens(2)
        g3 = gens(3)
        lam = fourcorner.maps[0].lam
        np.testing.assert_allclose(g3.corner_x[0::4], lam * g2.corner_x,
                                   atol=1e-15)
        np.testing.assert_allclose(g3.corner_y[0::4], lam * g2.corner_y,
                                   atol=1e-15)

    def test_budget_error_names_cap(self, fourcorner):
        with pytest.raises(ResourceBudgetError,
                           match=f"^generation 11 needs {4 ** 11} nodes; "
                                 f"cap is {4 ** 10}$"):
            generate_generation(fourcorner, 11)

    @pytest.mark.parametrize("n", [10 ** 8, 10 ** 18])
    def test_huge_depth_refused_at_once(self, fourcorner, n):
        """The power is capped at the cap's bit length, so a huge depth is
        refused without computing s^n, by the generation and by the side
        of its squares alike."""
        for build in (generate_generation, IFSystem.stage_side):
            with pytest.raises(ResourceBudgetError,
                               match=f"^generation {n} needs {4 ** 21} "):
                build(fourcorner, n)

    def test_negative_depth_refused(self, fourcorner):
        """By the generation and by the side of its squares, which the
        default delta goes through (the side read 1.0, the hull's)."""
        for build in (generate_generation, IFSystem.stage_side):
            with pytest.raises(ValueError,
                               match="^generation index must be >= 0$"):
                build(fourcorner, -1)

    def test_word_roundtrip(self, gens):
        g = gens(3)
        assert g.word_of(0) == (1, 1, 1)
        assert g.word_of(63) == (4, 4, 4)
        # word order is lexicographic
        assert g.word_of(1) == (1, 1, 2)

    def test_word_of_range_is_the_index_range(self, gens):
        """Negative indices count from the end as in gen[i]; an index
        outside [-len, len) raises as gen[i] does, instead of wrapping."""
        g = gens(2)
        assert g.word_of(-1) == (4, 4) and g.word_of(-16) == (1, 1)
        assert g[-1].word == (4, 4)
        for i in (16, -17, 10 ** 6):
            with pytest.raises(IndexError):
                g.word_of(i)
            with pytest.raises(IndexError):
                g[i]


class TestComposeWord:
    def test_empty_word_is_identity(self, fourcorner):
        t = compose_word(fourcorner, ())
        assert t.lam == 1.0 and t.z == (0.0, 0.0)

    def test_single_letter(self, fourcorner):
        t = compose_word(fourcorner, (1,))
        assert t.lam == 0.25 and t.z == (0.0, 0.0)

    def test_word_11(self, fourcorner):
        t = compose_word(fourcorner, (1, 1))
        assert t.lam == 0.0625 and t.z == (0.0, 0.0)
        # direct composition check on sample points
        for p in (Point2(0.3, 0.7), Point2(1, 0), Point2(0.5, 0.5)):
            q = fourcorner.maps[0].apply(fourcorner.maps[0].apply(p))
            r = t.apply(p)
            assert (q.x, q.y) == pytest.approx((r.x, r.y), abs=1e-15)

    def test_matches_generation_squares(self, fourcorner, gens):
        g = gens(3)
        for i in (0, 17, 42, 63):
            t = compose_word(fourcorner, g.word_of(i))
            corner = t.apply(fourcorner.hull.corner)
            assert corner.x == pytest.approx(g.corner_x[i], abs=1e-15)
            assert corner.y == pytest.approx(g.corner_y[i], abs=1e-15)

    def test_bad_letter(self, fourcorner):
        with pytest.raises(ValueError):
            compose_word(fourcorner, (0,))


class TestSubwordCensus:
    def test_length_one_words_never_generic(self, fourcorner):
        # no length-1 word contains all 4 one-letter subwords
        assert subword_census(fourcorner, 1, 1) == 1.0

    def test_two_letter_alphabet(self):
        # generic length-2 words over {1,2} are exactly 12 and 21
        assert subword_census(two_map_system(), 2, 1) == 0.5

    def test_union_bound_regime(self, fourcorner):
        # non-generic fraction <= 4*(3/4)^20 ~ 0.0127 by the union bound
        frac = subword_census(fourcorner, 20, 1, samples=50_000, seed=3)
        assert 0.001 <= frac <= 0.025

    def test_deterministic_for_seed(self, fourcorner):
        a = subword_census(fourcorner, 15, 1, samples=2000, seed=9)
        b = subword_census(fourcorner, 15, 1, samples=2000, seed=9)
        assert a == b

    def test_rejects_bad_orders(self, fourcorner):
        with pytest.raises(ValueError):
            subword_census(fourcorner, 1, 2)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_rejects_samples_below_one(self, fourcorner, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            subword_census(fourcorner, 7, 2, samples=samples)

    def test_capped_on_letters_before_drawing(self, fourcorner):
        """Letters, not windows: one word of length N = L = 10^8 has a
        single window but 10^8 letters."""
        cap = WORK_BUDGET >> 5
        for N, L, samples in ((10 ** 8, 10 ** 8, 1), (8, 2, 10 ** 13),
                              (cap + 1, 1, 1)):
            with pytest.raises(ResourceBudgetError,
                               match=f"^subword census of length {N} needs "
                                     f"{samples * N} letters; cap is {cap}$"):
                subword_census(fourcorner, N, L, samples=samples)

    def test_long_subwords_never_generic(self, fourcorner):
        """Past the windows of a word the fraction is 1, with s^L capped."""
        assert subword_census(fourcorner, 40, 30, samples=10) == 1.0
        assert subword_census(fourcorner, 6, 5) == 1.0


class TestPresets:
    def test_known_presets_resolve(self):
        for name in ("fourcorner", "fourcorner-annulus", "fourcorner-wide"):
            sys_ = resolve_ifs(name)
            assert sys_.s == 4 and sys_.equal_ratios

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("no-such-thing")

    def test_wide_preset_geometry(self):
        sys_ = preset("fourcorner-wide")
        assert sys_.hull.corner == Point2(1.0, 1.0)
        assert sys_.hull.side == 19.0
        g1 = generate_generation(sys_, 1)
        assert float(g1.sides[0]) == pytest.approx(19.0 / 4, abs=1e-12)

    def test_custom_corner_side(self):
        sys_ = four_corner(corner=(2.0, 3.0), side=2.0)
        g1 = generate_generation(sys_, 1)
        got = sorted(zip(g1.corner_x.tolist(), g1.corner_y.tolist()))
        assert got == [(2.0, 3.0), (2.0, 4.5), (3.5, 3.0), (3.5, 4.5)]


@pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
def test_log_depth_is_the_integer_ceil_log(s):
    """s^L >= n > s^(L-1), also at the powers where a float ceil of
    log(n) / log(s) overshoots (125 = 5^3, 216 = 6^3, 16807 = 7^5)."""
    sys_ = IFSystem(tuple(Similitude(0.25, (0.0, 0.0)) for _ in range(s)),
                    UNIT)
    assert sys_.log_depth(0) == sys_.log_depth(1) == 0
    for n in [*range(2, 300), s ** 5, s ** 5 + 1]:
        L = sys_.log_depth(n)
        assert s ** L >= n > s ** (L - 1)


def test_similitude_rejects_expansion():
    with pytest.raises(ValueError):
        Similitude(1.5, (0.0, 0.0))


def test_load_ifs_roundtrip(tmp_path):
    import json
    desc = {"maps": [{"lambda": 0.25, "z": [0, 0]},
                     {"lambda": 0.25, "z": [0.75, 0]}],
            "hull": {"corner": [0, 0], "side": 1.0}}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(desc))
    sys_ = resolve_ifs(str(path))
    assert sys_.s == 2
    assert sys_.maps[1].z == (0.75, 0.0)


class TestUnequalRatios:
    """The delta-layer needs one common square side; a system with unequal
    contraction ratios has none, so the side and the cloud refuse."""

    def unequal(self):
        return IFSystem((Similitude(0.5, (0.0, 0.0)),
                         Similitude(0.25, (0.75, 0.75))), UNIT)

    def test_side_refuses(self):
        g = generate_generation(self.unequal(), 3)
        with pytest.raises(ValueError, match="contraction ratios differ"):
            g.side

    def test_cloud_refuses(self):
        from favlab.visibility import cloud_from_generation
        with pytest.raises(ValueError, match="contraction ratios differ"):
            cloud_from_generation(generate_generation(self.unequal(), 3))

    def test_equal_ratios_keep_their_side(self):
        assert generate_generation(two_map_system(), 3).side == 4.0 ** -3

    @pytest.mark.parametrize("lam", [0.25, 1 / 3, 0.1, 0.3, 0.45])
    def test_stage_side_is_the_generated_side(self, lam):
        """The side is known without building the generation, bit for
        bit, on a hull whose side is not a power of two."""
        sys_ = IFSystem(two_map_system(lam).maps,
                        Square(Point2(-0.3, 0.7), 19.0 / 7))
        for n in range(12):
            assert sys_.stage_side(n) == generate_generation(sys_, n).sides[0]
