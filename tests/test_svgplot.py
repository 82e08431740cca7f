import math
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from growbench.svgplot import Series, _fit, _nice_ticks, escape, render_chart


def test_chart_is_well_formed_xml():
    s = Series("loss", (0.0, 1.0, 2.0), (3.0, 2.0, 1.5))
    svg = render_chart([s], title="t", ylabel="loss")
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert svg.startswith('<?xml version="1.0"')


def test_chart_deterministic():
    s = Series("a", tuple(range(10)), tuple(float(i * i) for i in range(10)))
    assert render_chart([s]) == render_chart([s])


def test_legend_and_polyline_per_series():
    s1 = Series("alpha", (0, 1, 2), (1.0, 2.0, 3.0))
    s2 = Series("beta", (0, 1, 2), (3.0, 2.0, 1.0))
    svg = render_chart([s1, s2])
    assert svg.count("<polyline") == 2
    assert ">alpha</text>" in svg and ">beta</text>" in svg


def test_event_markers_drawn():
    s = Series("x", (0, 1, 2, 3), (0.0, 1.0, 2.0, 3.0))
    svg = render_chart([s], events_x=(1.0, 2.0))
    assert svg.count("stroke-dasharray") == 2


def test_title_escaped():
    s = Series("a<b&c>d", (0, 1), (0.0, 1.0))
    svg = render_chart([s], title="x < y & z", ylabel="<&> loss")
    root = ET.fromstring(svg)  # must stay well-formed
    assert "x &lt; y &amp; z" in svg
    assert "&lt;&amp;&gt; loss" in svg and "a&lt;b&amp;c&gt;d" in svg
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert {"x < y & z", "<&> loss", "a<b&c>d"} <= texts


@given(st.text())
@example("&")
@example("&amp;")
@example("<tag attr=\"v\">a & 'b'</tag>")
@example("µ < ε ≥ 0 & 日本 > ☃")
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        Series("e", (), ())
    with pytest.raises(ValueError):
        Series("e", (1,), (1.0, 2.0))
    with pytest.raises(ValueError):
        render_chart([])


def test_fixed_ranges_respected():
    s = Series("a", (0, 10), (5.0, 5.0))
    svg = render_chart([s], x_range=(0, 20), y_range=(0, 10))
    root = ET.fromstring(svg)
    poly = [el for el in root.iter() if el.tag.endswith("polyline")][0]
    ys = {float(p.split(",")[1]) for p in poly.attrib["points"].split()}
    assert len(ys) == 1  # flat line stays flat


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE)
@example(1e16, 10000000000000004.0)
@example(0.0, 5e-324)
@example(-1e-12, 1e-12)
@example(-8e307, 8e307)
def test_nice_ticks_are_few_increasing_and_inside(a, b):
    lo, hi = min(a, b), max(a, b)
    assume(lo < hi and math.isfinite(hi - lo))
    ticks = _nice_ticks(lo, hi)
    assert len(ticks) <= 12
    assert all(x < y for x, y in zip(ticks, ticks[1:]))
    assert all(lo <= t <= hi for t in ticks)


_BIG = 1.7976931348623157e308


@given(_FINITE, _FINITE, st.sampled_from((0.0, 0.05)))
@example(1e17, 1e17, 0.05)
@example(-1e308, 1e308, 0.05)
@example(_BIG, _BIG, 0.05)
@example(-_BIG, _BIG, 0.0)
@example(0.0, _BIG, 0.05)
@example(5e-324, 5e-324, 0.05)
def test_auto_fit_range_has_a_finite_positive_width(a, b, pad):
    lo, hi = min(a, b), max(a, b)
    fit_lo, fit_hi = _fit(lo, hi, pad)
    assert fit_lo < fit_hi and 0.0 < fit_hi - fit_lo < math.inf
    if lo < hi and math.isfinite(hi - lo):  # data a float can span stays inside the frame
        assert fit_lo <= lo and hi <= fit_hi


def test_auto_fit_keeps_the_ordinary_ranges():
    assert _fit(2.0, 12.0, 0.0) == (2.0, 12.0)
    assert _fit(0.0, 1.0, 0.05) == (-0.05, 1.05)
    assert _fit(3.0, 3.0, 0.0) == (3.0, 4.0)
    assert _fit(1e17, 1e17, 0.05) == (1e17, 1e17 + 16)


_COORD = re.compile(r'\b(?:x|y|x1|y1|x2|y2|width|height)="([^"]*)"')


@given(st.lists(_FINITE, min_size=1, max_size=6), st.lists(_FINITE, min_size=1, max_size=6))
@example([0.0], [1e17])
@example([0.0, 1.0], [-1e308, 1e308])
@example([-_BIG, _BIG], [_BIG, -_BIG])
def test_any_finite_series_renders_with_finite_coordinates(xs, ys):
    n = min(len(xs), len(ys))
    svg = render_chart([Series("s", tuple(xs[:n]), tuple(ys[:n]))])
    root = ET.fromstring(svg)
    poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
    numbers = [float(v) for p in poly.attrib["points"].split() for v in p.split(",")]
    numbers += [float(v) for v in _COORD.findall(svg)]
    assert all(math.isfinite(v) for v in numbers)


def test_nice_ticks_of_ordinary_ranges():
    assert _nice_ticks(0.0, 12.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    assert _nice_ticks(-0.05, 1.05) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
