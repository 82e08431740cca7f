import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from growbench.svgplot import Series, _nice_ticks, escape, render_chart


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


def test_nice_ticks_of_ordinary_ranges():
    assert _nice_ticks(0.0, 12.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    assert _nice_ticks(-0.05, 1.05) == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
