import hashlib
import random
from fractions import Fraction as F

import pytest

from tropface import Arrangement
import tropface.render as render_module
from tropface.render import _fmt, _round, render_svg

from demo_data import DEMO_ROWS

# a viewport whose four bounds have denominators 3, 2, 7 and 4, and one
# written as decimals with 299 places, so each bound's denominator is the
# 300-digit 10**299
_UNEQUAL = (F(-7, 3), F(5, 2), F(-1, 7), F(9, 4))
_LONG = ("-4." + "1" * 298 + "3", "5." + "2" * 298 + "7",
         "-3." + "6" * 298 + "9", "4." + "0" * 298 + "1")
VIEWPORTS = (None, ("-30", "30", "-30", "30"), _UNEQUAL, _LONG)


def _cases():
    yield "demo", DEMO_ROWS
    for d in range(4, 9):
        rng = random.Random(1500 + d)
        yield f"generic 3x{d}", [[F(rng.randint(-40, 40), rng.randint(1, 7))
                                  for _ in range(d)] for _ in range(3)]
    for d in range(1, 9):
        rng = random.Random(1600 + d)
        yield f"ties 3x{d}", [[rng.choice((-1, 0, 1)) for _ in range(d)]
                              for _ in range(3)]


# SHA-256 over the renders of each arrangement in the four VIEWPORTS,
# joined in that order; the bytes are those of the exact Fraction renderer
# that preceded the integer grid
SVG_PINS = {
    "demo":
        "77c9224689a4688d147288295b4a37f91a38ed1aa19dd8b0bddbcbb0f9362143",
    "generic 3x4":
        "d88f4c5b14cc8aa2fcc18318169b5fc456cfd0555b34c0f524e4db8e468c2df0",
    "generic 3x5":
        "a7b004a665116009aff745f1723b501e9f91a386506fa4c2db0039d3da2ae0ae",
    "generic 3x6":
        "635d3f2bf1421eb34b9aad8441e37a999f2d5422c35d6cdb8e37468d668b4ea5",
    "generic 3x7":
        "c3339cfc50cb4b4f72cb062e7b0e7e49f1ca126da99bed9ce897e625ae6f6355",
    "generic 3x8":
        "b8967130cad4353767fcaa0687dc915120d54475c4c436a3bd413195a5256859",
    "ties 3x1":
        "fb1225f4721c39d6342e86c465e28540060e80ba71794604a1c12c8591c10f80",
    "ties 3x2":
        "b135d06eb80b8038deffcf386bad9e191d7741f0bc593a8c657cd5cc696edfb2",
    "ties 3x3":
        "0039998261478f32dbb084c57af7d51114180d1cffaa9becfd94349ce6e239ee",
    "ties 3x4":
        "5e6e7d779548dfe8bf6c9383af9425dc5d528b67817750f014084c8d4e244328",
    "ties 3x5":
        "a56093aa7e854ad2134ebbabc01249511c3522e15514c6005b4b21501a7f0e84",
    "ties 3x6":
        "dbe6c343dd02f7afb86399156ec5ed72ee5d97904a859ef6a94bf6436c13e416",
    "ties 3x7":
        "61cfcd918df465cad57a2bb5672c786e6e1e80782288dcedf6ebe249a6ef63e7",
    "ties 3x8":
        "d62d8cecd76c9d02b2072c40c2a999a3c945fa7ff14ceb1278e79db7a2666865",
}


def test_svg_bytes_are_pinned():
    got = {}
    for name, rows in _cases():
        arr = Arrangement(rows)
        svgs = "".join(render_svg(arr, viewport) for viewport in VIEWPORTS)
        got[name] = hashlib.sha256(svgs.encode("utf-8")).hexdigest()
    assert got == SVG_PINS


def _round_cases():
    rng = random.Random(2024)
    for _ in range(3000):
        den = rng.choice((1, 2, 3, 7, 8, 1000, 2000, 4000, 10**6 + 3))
        yield rng.randint(-10**7, 10**7), den
    for q in range(-6, 7):  # exact halves, with even and odd neighbours
        for den in (2000, 4000, 2 * 10**30):
            yield (2 * q + 1) * den // 2000, den
    big = 1 << 70  # denominators past 2**64
    for _ in range(500):
        den = rng.randrange(big, 8 * big)
        yield rng.randrange(-(den << 10), den << 10), den
        yield (2 * rng.randrange(-99, 100) + 1) * den, 2000 * den


def test_milli_rounding_matches_fraction_round():
    for num, den in _round_cases():
        assert _round(num * 1000, den) == round(F(num, den) * 1000), \
            (num, den)
    assert [_round(k, 2) for k in (-3, -1, 1, 3, 5)] == [-2, 0, 0, 2, 2]
    assert [_fmt(m) for m in (0, 5, -5, 1000, -1234, 720000)] == \
        ["0.000", "0.005", "-0.005", "1.000", "-1.234", "720.000"]


@pytest.mark.parametrize("rows, viewport, match", [
    ([[0, 1], [1, 0]], None, "3-row"),
    (DEMO_ROWS, (1, 1, 0, 2), "empty viewport"),
    (DEMO_ROWS, (0, 2, 3, -3), "empty viewport"),
    (DEMO_ROWS, (0, 1), "viewport must hold 4 values"),
    (DEMO_ROWS, (0, 1, 0, 1, 2), "viewport must hold 4 values"),
], ids=["two-rows", "empty-x", "empty-y", "short-viewport", "long-viewport"])
def test_render_svg_refuses_what_it_cannot_draw(rows, viewport, match):
    with pytest.raises(ValueError, match=match):
        render_svg(Arrangement(rows), viewport)


@pytest.mark.parametrize("viewport", [(0, 1), (0, 1, 1, 1)])
def test_render_svg_checks_its_viewport_before_any_work(monkeypatch,
                                                        viewport):
    def refuse(arr, cap=None):
        raise AssertionError("the cells were enumerated")

    monkeypatch.setattr(render_module, "_search", refuse)
    with pytest.raises(ValueError, match="viewport"):
        render_svg(Arrangement(DEMO_ROWS), viewport)


def test_default_render_makes_no_fraction(monkeypatch):
    # parsing the entries makes Fractions, so the arrangement comes first
    arrs = [Arrangement(rows) for _, rows in _cases()]
    made = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    F(1, 3)
    assert made == [(1, 3)]  # the patch sees a Fraction being made
    made.clear()
    for arr in arrs:
        render_svg(arr)
    assert made == []
