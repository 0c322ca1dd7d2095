import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt.viz import _text, svg_city, svg_counts_bar, svg_hinton
from conftest import oracle_svg_city, oracle_svg_hinton

KINDS = ("random", "zero", "negative", "sub_threshold")


def _matrix(kind: str, num_qubits: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = 4**num_qubits
    m = rng.normal(scale=scale, size=(n, n))
    if kind == "zero":
        return np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
    if kind == "negative":
        return -np.abs(m)
    if kind == "sub_threshold":
        # entries straddling the city (1e-4) and Hinton (1e-6) drop thresholds
        small = rng.choice([1e-3, 1.01e-4, 0.99e-4, 1e-5, 1.01e-6, 0.99e-6, 1e-8, 0.0], size=(n, n))
        m = np.where(rng.random((n, n)) < 0.8, small * scale, m)
        m[0, 0] = scale
    return m


def test_hinton_structure():
    m = np.array([[1.0, -0.5], [0.25, 0.0]])
    svg = svg_hinton(m, ["A", "B"], title="demo")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # three nonzero entries drawn, positive filled, negative outlined
    assert svg.count('fill="#2b6cb0"') == 2
    assert svg.count('stroke="#c53030"') == 1
    assert "demo" in svg


def test_hinton_square_area_scales_with_magnitude():
    m = np.array([[1.0, 0.25], [0.0, 0.0]])
    svg = svg_hinton(m, ["r0", "r1"])
    widths = sorted(
        float(tok.split('"')[1])
        for tok in svg.split() if tok.startswith('width="') and tok.endswith('"')
    )[:2]
    # side ~ sqrt(|v|/vmax): the 0.25 entry's square has half the side
    assert abs(widths[0] / widths[1] - 0.5) < 1e-6


def test_city_draws_positive_and_negative_bars():
    tiny = np.zeros((4, 4))
    tiny[1, 2] = 1e-310  # 90 / 1e-310 overflows
    m = np.array([[0.8, 0.0], [0.0, -0.4]])
    for mat, bars in ((m, 2), (m * 1e-310, 2), (tiny, 1)):
        svg = svg_city(mat, [str(k) for k in range(len(mat))])
        ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<polygon") == 3 * bars  # three faces each
        assert "#3d85c6" in svg
        assert ("#cc4125" in svg) == (mat.min() < 0)


def test_counts_bar_has_all_outcomes():
    svg = svg_counts_bar({"00": 90, "01": 5, "10": 4, "11": 1}, 100)
    for key in ("00", "01", "10", "11"):
        assert f">{key}</text>" in svg


def test_svg_deterministic():
    m = np.linspace(-1, 1, 16).reshape(4, 4)
    labels = list("abcd")
    assert svg_hinton(m, labels) == svg_hinton(m, labels)
    assert svg_city(m, labels) == svg_city(m, labels)


@pytest.mark.parametrize("writer, oracle", [(svg_city, oracle_svg_city), (svg_hinton, oracle_svg_hinton)])
@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    num_qubits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-300, 1e-9, 1e-3, 0.5, 1.0, 7.3, 1e200]),
)
def test_writers_match_oracle(writer, oracle, kind, num_qubits, seed, scale):
    m = _matrix(kind, num_qubits, seed, scale)
    labels = [format(k, f"0{2 * num_qubits}b") for k in range(len(m))]
    assert writer(m, labels, "Re C") == oracle(m, labels, "Re C")


def test_text_escape_matches_saxutils():
    for text in ("a<b", "R&D", "x > y & <z>", "&amp;", "plain", 'q"uote\''):
        assert _text(text) == escape(text)


def test_svg_text_is_escaped():
    def texts(doc: str) -> list[str]:  # raises ParseError on unescaped text
        return [el.text for el in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")]

    title = "R&D <x>"
    for doc, label in (
        (svg_hinton(np.eye(2), ["a<b", "c"], title), "a<b"),
        (svg_city(np.eye(2), ["a<b", "c"], title), "a<b"),
        (svg_counts_bar({"<t>": 3, "a&b": 1}, 4, title), "<t>"),
    ):
        assert {title, label} <= set(texts(doc))
