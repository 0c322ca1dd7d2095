import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt import viz
from choiqpt.channels import choi_from_unitary, choi_to_chi
from choiqpt.linalg import product_labels
from choiqpt.viz import _text, _two_decimals, svg_city, svg_counts_bar, svg_hinton
from choiqpt.simulator import sample_counts
from conftest import oracle_svg_city, oracle_svg_counts_bar, oracle_svg_hinton

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
    tiny[1, 2] = 1e-310  # below the plot scale's floor, like m * 1e-310: no bar, and no overflow
    m = np.array([[0.8, 0.0], [0.0, -0.4]])
    for mat, bars in ((m, 2), (m * 1e-310, 0), (tiny, 0)):
        svg = svg_city(mat, [str(k) for k in range(len(mat))])
        ET.fromstring(svg)
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<polygon") == 3 * bars  # three faces each
        assert ("#3d85c6" in svg) == (bars > 0)
        assert ("#cc4125" in svg) == (bars > 0 and mat.min() < 0)


@pytest.mark.parametrize("writer", [svg_city, svg_hinton])
def test_rounding_noise_draws_an_empty_plot(writer):
    choi = choi_from_unitary(np.eye(4))
    rng = np.random.default_rng(11)
    for im in (choi.matrix.imag, choi_to_chi(choi).matrix.imag):
        noisy = im + rng.choice([-1e-14, 1e-14], size=im.shape)
        labels = [str(k) for k in range(len(im))]
        assert writer(noisy, labels, "Im") == writer(np.zeros(im.shape), labels, "Im")


def test_two_decimals_formats_each_element_as_percent_template():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.125, -0.125, 1.005, 2.675, 0.005,
               -0.004, 5e-324, 1e300, -1e-300, 2.675]
    rng = np.random.default_rng(5)
    for values in (
        np.array(special),
        np.array(special).reshape(4, 4).T,  # not contiguous
        np.round(rng.normal(scale=50, size=(300, 24)), 3),  # repeats, as bar corners do
        np.zeros((0, 24)),  # the empty plot
    ):
        got = _two_decimals(values)
        assert got.shape == values.shape and got.dtype == object
        assert got.ravel().tolist() == ["%.2f" % x for x in values.ravel().tolist()]
    assert _two_decimals(np.array([-0.0, 0.0, 0.125, 2.675])).tolist() == ["-0.00", "0.00", "0.12", "2.67"]


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
    labels = ["a<b", "R&D"] + [format(k, f"0{2 * num_qubits}b") for k in range(2, len(m))]
    assert writer(m, labels, "Re C") == oracle(m, labels, "Re C")


def test_counts_bar_matches_oracle():
    rng = np.random.default_rng(8)
    tables = [
        ({"00": 90, "01": 5, "10": 4, "11": 1}, 100),
        ({"0": 7}, 7),
        ({"00": 7168, "01": 0, "10": 0, "11": 0}, 7168),
        ({"a<b": 3, "R&D": 1, "<t>": 0}, 4),
        (sample_counts(rng.dirichlet(np.ones(8)), 4000, 3).counts, 4000),
    ]
    for counts, shots in tables:
        for title in ("Measured outcomes", "R&D <x>", ""):
            assert svg_counts_bar(counts, shots, title) == oracle_svg_counts_bar(counts, shots, title)


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


@pytest.mark.parametrize("writer, oracle, frame", [
    (svg_city, oracle_svg_city, viz._city_frame),
    (svg_hinton, oracle_svg_hinton, viz._hinton_frame),
])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_writers_match_oracle_with_frames_cold_and_warm(writer, oracle, frame, num_qubits):
    rng = np.random.default_rng(num_qubits)
    n = 4**num_qubits
    labels = product_labels("01", 2 * num_qubits)
    frame.cache_clear()
    for _ in range(2):  # the first call builds the frame, the second reuses it for another matrix
        m = rng.normal(size=(n, n))
        assert writer(m, labels, "Re C") == oracle(m, labels, "Re C")
    m[0, 1] = np.nan  # a NaN scale puts the city's base plane at NaN: a frame of its own
    assert writer(m, labels, "Re C") == oracle(m, labels, "Re C")
    assert writer(m[::-1], labels, "") == oracle(m[::-1], labels, "")
    assert frame.cache_info().hits >= 2


@pytest.mark.parametrize("writer, oracle, frame", [
    (svg_city, oracle_svg_city, viz._city_frame),
    (svg_hinton, oracle_svg_hinton, viz._hinton_frame),
])
def test_frames_are_keyed_by_size_and_label_texts(writer, oracle, frame):
    m = np.array([[1.0, -0.5], [0.25, 0.0]])
    frame.cache_clear()
    for labels in (["a", "b"], ["c", "d"], ["<", "&"], [">", "&amp;"], ["a", "b"]):
        assert writer(m, labels) == oracle(m, labels)
    assert writer(m[:1, :1], ["a"]) == oracle(m[:1, :1], ["a"])  # same first label, other size
    # 1, 1.0 and True hash alike, but each plot writes its own text
    docs = [writer(m[:1, :1], [label]) for label in (1, 1.0, True)]
    for doc, text in zip(docs, ("1", "1.0", "True")):
        assert doc == oracle(m[:1, :1], [text])
    assert len(set(docs)) == 3


def test_frame_caches_are_bounded():
    # a city and a Hinton frame at K = 4 (256 x 256), each cache full of frames that size
    sizes = {
        viz._city_frame: sys.getsizeof(viz._city_frame(256, tuple(product_labels("01", 8)), False)),
        viz._hinton_frame: sys.getsizeof(viz._hinton_frame(256, tuple(product_labels("IXYZ", 4)))),
    }
    assert all(0 < frame.cache_info().maxsize < 16 for frame in sizes)
    assert sum(size * frame.cache_info().maxsize for frame, size in sizes.items()) < 1_000_000
