"""The indexed codec and span directory (paper §4.4/§5 future work).

The parity suites are the directory's contract: for every fragment
(random or hand-picked) the ``indexed``, ``plain`` and ``dict`` values of
the same text return byte-identical ``getElm``, ``findKeyInElm``,
``getElmIndex``, ``elmEquals`` and ``unnest`` results.
"""

import random

import pytest

from repro.xadt import (
    DICT,
    INDEXED,
    PLAIN,
    SpanDirectory,
    XadtValue,
    elm_equals,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
    unnest_values,
)
from repro.engine.faults import FAULTS, FaultPlan
from repro.errors import FaultInjected
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xadt.storage import (
    CODECS,
    DEGRADATION,
    dict_payload_text,
    reset_degradation,
)

FRAGMENT = (
    "<SPEECH><SPEAKER>ROMEO</SPEAKER>"
    "<LINE>but soft, my friend</LINE>"
    "<LINE>what light <STAGEDIR>aside</STAGEDIR> breaks</LINE>"
    "</SPEECH>"
    "<SPEECH><SPEAKER>JULIET</SPEAKER><LINE>deny thy father</LINE></SPEECH>"
)


class TestSpanDirectory:
    @pytest.fixture(scope="class")
    def directory(self):
        return SpanDirectory.build(FRAGMENT)

    def test_counts_every_element(self, directory):
        # 2 SPEECH + 2 SPEAKER + 3 LINE + 1 STAGEDIR
        assert len(directory) == 8

    def test_spans_by_tag(self, directory):
        assert len(directory.spans_of("LINE")) == 3
        assert len(directory.spans_of("GHOST")) == 0

    def test_top_level(self, directory):
        assert [e.tag for e in directory.top_level()] == ["SPEECH", "SPEECH"]

    def test_parent_links(self, directory):
        stagedir = directory.spans_of("STAGEDIR")[0]
        parent = directory.entries[stagedir.parent]
        assert parent.tag == "LINE"
        assert stagedir.depth == 2

    def test_slices_recover_text(self, directory):
        speaker = directory.spans_of("SPEAKER")[0]
        assert speaker.slice(FRAGMENT) == "<SPEAKER>ROMEO</SPEAKER>"
        assert speaker.content(FRAGMENT) == "ROMEO"

    def test_outermost_filters_nested_same_tag(self):
        directory = SpanDirectory.build("<d>a<d>b</d></d><d>c</d>")
        assert len(list(directory.outermost_of("d"))) == 2
        assert len(directory.spans_of("d")) == 3

    def test_descendants_within(self, directory):
        first_speech = directory.top_level()[0]
        lines = directory.descendants_within(first_speech, "LINE")
        assert len(lines) == 2

    def test_byte_size_positive_and_empty_zero(self, directory):
        assert directory.byte_size() > 8 * 18
        assert SpanDirectory.build("").byte_size() == 0


class TestIndexedCodec:
    def test_storage_costs_more_than_plain(self):
        plain = XadtValue.from_xml(FRAGMENT, PLAIN)
        indexed = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert indexed.byte_size() > plain.byte_size()
        assert indexed.to_xml() == plain.to_xml()

    def test_directory_cached(self):
        value = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert value.directory() is value.directory()

    def test_recode_across_all_codecs(self):
        value = XadtValue.from_xml(FRAGMENT, INDEXED)
        assert value.recode(DICT).recode(PLAIN).to_xml() == FRAGMENT

    def test_equality_across_codecs(self):
        assert XadtValue.from_xml(FRAGMENT, INDEXED) == XadtValue.from_xml(
            FRAGMENT, PLAIN
        )


class TestMethodAgreement:
    """The indexed fast paths must agree with the plain implementation."""

    @pytest.fixture(params=[PLAIN, INDEXED], ids=["plain", "indexed"])
    def value(self, request):
        return XadtValue.from_xml(FRAGMENT, request.param)

    def test_get_elm(self, value):
        result = get_elm(value, "LINE", "LINE", "friend")
        assert result.to_xml() == "<LINE>but soft, my friend</LINE>"

    def test_get_elm_empty_root(self, value):
        assert get_elm(value, "", "", "father").to_xml().startswith("<SPEECH>")

    def test_get_elm_subelement(self, value):
        result = get_elm(value, "LINE", "STAGEDIR", "")
        assert "aside" in result.to_xml()

    def test_find_key(self, value):
        assert find_key_in_elm(value, "SPEAKER", "JULIET") == 1
        assert find_key_in_elm(value, "SPEAKER", "HAMLET") == 0
        assert find_key_in_elm(value, "", "father") == 1

    def test_get_elm_index(self, value):
        result = get_elm_index(value, "SPEECH", "LINE", 2, 2)
        assert "what light" in result.to_xml()
        assert "friend" not in result.to_xml()

    def test_get_elm_index_top_level(self, value):
        result = get_elm_index(value, "", "SPEECH", 2, 2)
        assert "JULIET" in result.to_xml()

    def test_unnest(self, value):
        lines = unnest_values(value, "LINE")
        assert len(lines) == 3
        assert all(piece.codec == PLAIN for piece in lines)

    def test_unnest_top_level(self, value):
        assert len(unnest_values(value, "")) == 2

    def test_elm_text(self, value):
        assert elm_text(value).startswith("ROMEObut soft")


def test_indexed_skips_irrelevant_payload():
    """The §5 claim: metadata avoids scanning unrelated fragment bytes.

    The indexed getElmIndex touches only directory entries plus the
    matched slices; a huge unrelated sibling costs nothing extra beyond
    the one-time directory build.
    """
    big_noise = "<NOISE>" + "x" * 50_000 + "</NOISE>"
    fragment = big_noise + "<LINE>first</LINE><LINE>second</LINE>"
    value = XadtValue.from_xml(fragment, INDEXED)
    value.directory()  # build once (amortized at load time)

    import time

    start = time.perf_counter()
    for _ in range(200):
        get_elm_index(value, "", "LINE", 2, 2)
    indexed_time = time.perf_counter() - start

    plain = XadtValue.from_xml(fragment, PLAIN)
    start = time.perf_counter()
    for _ in range(200):
        get_elm_index(plain, "", "LINE", 2, 2)
    plain_time = time.perf_counter() - start

    assert indexed_time < plain_time


# ---------------------------------------------------------------------------
# codec parity: indexed (directory) vs plain and dict (tag scan)
# ---------------------------------------------------------------------------

TAGS = ["LINE", "SPEAKER", "STAGEDIR", "SPEECH", "a", "b"]
WORDS = ["kiss", "die", "plague", "apothecary", "rising", "love", "O"]


def random_fragment(rng: random.Random) -> str:
    """A random fragment: nested elements, repeated tags, mixed text."""

    def element(depth: int) -> str:
        tag = rng.choice(TAGS)
        if depth >= 3 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return f"<{tag}/>"
            return f"<{tag}>{' '.join(rng.sample(WORDS, rng.randint(1, 3)))}</{tag}>"
        children = "".join(element(depth + 1) for _ in range(rng.randint(1, 3)))
        text = rng.choice(WORDS) if rng.random() < 0.5 else ""
        return f"<{tag}>{text}{children}</{tag}>"

    return "".join(element(0) for _ in range(rng.randint(0, 4)))


def _canonical(result):
    if isinstance(result, XadtValue):
        return result.to_xml()
    if isinstance(result, list):
        return [_canonical(item) for item in result]
    return result


def agreed(codec: str, xml: str, method, *args):
    """``method(value, *args)`` on ``codec``'s value of ``xml``.

    Asserts that the values of every other codec give the same answer.
    """
    answers = {
        other: _canonical(method(XadtValue.from_xml(xml, other), *args))
        for other in CODECS
    }
    assert len(set(map(repr, answers.values()))) == 1, (xml, args, answers)
    return answers[codec]


@pytest.fixture
def cold_cache():
    """Memoized verdicts off the table: every call computes its answer."""
    DECODE_CACHE.clear()
    DECODE_CACHE.configure(enabled=False)
    yield
    DECODE_CACHE.configure(enabled=True)
    DECODE_CACHE.clear()


def get_elm_cases(codec):
    rng = random.Random(11)
    for _ in range(40):
        xml = random_fragment(rng)
        for root in ["", rng.choice(TAGS), rng.choice(TAGS)]:
            for search in ["", rng.choice(TAGS)]:
                for key in ["", rng.choice(WORDS), "zz", "lo", " d"]:
                    for level in (-1, 0, 1, 2):
                        agreed(codec, xml, get_elm, root, search, key, level)


def find_key_cases(codec):
    rng = random.Random(23)
    keys = WORDS + ["zz", "lo", "kiss die", " ", "a,", "plague on"]
    for _ in range(40):
        xml = random_fragment(rng)
        for elm in ["", rng.choice(TAGS), "MISSING"]:
            for key in keys:
                agreed(codec, xml, find_key_in_elm, elm, key)
            agreed(codec, xml, find_key_in_elm, elm or "LINE", "")


def get_elm_index_cases(codec):
    rng = random.Random(37)
    positions = [(1, 1), (2, 2), (1, 4), (3, 2), (0, 2), (-1, 1), (2, -3), (5, 9)]
    for _ in range(40):
        xml = random_fragment(rng)
        for parent in ["", rng.choice(TAGS), "MISSING"]:
            child = rng.choice(TAGS)
            for start, end in positions:
                agreed(codec, xml, get_elm_index, parent, child, start, end)


def elm_equals_cases(codec):
    rng = random.Random(41)
    values = WORDS + ["", "zz", "kiss die"]
    for _ in range(40):
        xml = random_fragment(rng)
        for elm in [rng.choice(TAGS), rng.choice(TAGS), "MISSING"]:
            for value in values:
                agreed(codec, xml, elm_equals, elm, value)


def unnest_cases(codec):
    rng = random.Random(53)
    for _ in range(40):
        xml = random_fragment(rng)
        for tag in ["", rng.choice(TAGS), "MISSING"]:
            agreed(codec, xml, unnest_values, tag)


def elm_text_cases(codec):
    rng = random.Random(59)
    for _ in range(40):
        agreed(codec, random_fragment(rng), elm_text)


@pytest.mark.usefixtures("cold_cache")
@pytest.mark.parametrize("codec", CODECS)
class TestRandomizedParity:
    """Each codec's value against the other two over the same random fragments."""

    def test_get_elm_parity(self, codec):
        get_elm_cases(codec)

    def test_find_key_parity(self, codec):
        find_key_cases(codec)

    def test_get_elm_index_parity(self, codec):
        get_elm_index_cases(codec)

    def test_elm_equals_parity(self, codec):
        elm_equals_cases(codec)

    def test_unnest_parity(self, codec):
        unnest_cases(codec)


@pytest.fixture(params=["cache-off", "cache-on", "degraded"])
def dict_decode_mode(request):
    """How dict values reach their text: decoded per call with the cache
    off, memoized with it on, or in degraded mode — past the
    ``xadt.decode`` fault threshold, with the fault site still armed."""
    saved_threshold = DEGRADATION.threshold
    DECODE_CACHE.clear()
    DECODE_CACHE.configure(enabled=request.param != "cache-off")
    if request.param == "degraded":
        reset_degradation(threshold=2)
        FAULTS.install(FaultPlan().raise_at("xadt.decode", probability=1.0))
        payload = XadtValue.from_xml(FRAGMENT, DICT).payload
        with pytest.raises(FaultInjected):
            dict_payload_text(payload)
        dict_payload_text(payload)  # the second fault flips the switch
        assert DEGRADATION.active
    yield request.param
    FAULTS.clear()
    reset_degradation(threshold=saved_threshold)
    DECODE_CACHE.configure(enabled=True)
    DECODE_CACHE.clear()


class TestDictDecodeModes:
    """Dict values agree with plain and indexed in every decode mode."""

    @pytest.mark.parametrize("cases", [
        get_elm_cases, find_key_cases, get_elm_index_cases,
        elm_equals_cases, unnest_cases, elm_text_cases,
    ], ids=lambda cases: cases.__name__)
    def test_dict_parity(self, dict_decode_mode, cases):
        cases(DICT)
        if dict_decode_mode == "degraded":
            assert DEGRADATION.active


@pytest.mark.usefixtures("cold_cache")
@pytest.mark.parametrize("codec", CODECS)
class TestEdgeCaseParity:
    def test_empty_fragment(self, codec):
        assert len(SpanDirectory.build("")) == 0
        assert agreed(codec, "", get_elm, "", "", "") == ""
        assert agreed(codec, "", find_key_in_elm, "LINE", "kiss") == 0
        assert agreed(codec, "", find_key_in_elm, "", "kiss") == 0
        assert agreed(codec, "", get_elm_index, "", "LINE", 1, 5) == ""
        assert agreed(codec, "", elm_equals, "LINE", "") == 0
        assert agreed(codec, "", unnest_values, "") == []

    def test_repeated_nested_same_tag(self, codec):
        xml = "<d>x<d>inner<d>deep</d></d></d><d>flat</d>"
        assert agreed(codec, xml, get_elm, "d", "", "") == xml
        assert agreed(codec, xml, get_elm, "d", "d", "deep") == (
            "<d>x<d>inner<d>deep</d></d></d>"
        )
        assert agreed(codec, xml, get_elm_index, "d", "d", 1, 1) == (
            "<d>inner<d>deep</d></d>"
        )
        # only outermost occurrences count: the inner <d>deep</d> does not
        assert agreed(codec, xml, elm_equals, "d", "deep") == 0
        assert agreed(codec, xml, elm_equals, "d", "flat") == 1
        assert agreed(codec, xml, unnest_values, "d") == [
            "<d>x<d>inner<d>deep</d></d></d>", "<d>flat</d>",
        ]

    def test_out_of_range_ordinals_are_empty(self, codec):
        xml = "<s><l>one</l><l>two</l></s>"
        for start, end in [(3, 9), (0, 0), (2, 1), (-5, -1)]:
            assert agreed(codec, xml, get_elm_index, "s", "l", start, end) == ""

    def test_word_run_across_child_boundary(self, codec):
        # tags strip to "love": the token blobs must see the joined run
        xml = "<a><b>lo</b>ve</a>"
        assert agreed(codec, xml, find_key_in_elm, "a", "love") == 1
        assert agreed(codec, xml, find_key_in_elm, "", "love") == 1
        assert agreed(codec, xml, find_key_in_elm, "b", "love") == 0
        assert agreed(codec, xml, get_elm, "a", "", "love") == xml

    def test_non_word_keys(self, codec):
        xml = "<a>kiss, <b>die</b> now</a><a>a,b</a>"
        for key in [",", " ", "s, d", "a,b", "kiss, die", "!"]:
            agreed(codec, xml, find_key_in_elm, "a", key)
            agreed(codec, xml, find_key_in_elm, "", key)
            agreed(codec, xml, get_elm, "a", "a", key)
            agreed(codec, xml, get_elm, "", "", key)
        assert agreed(codec, xml, find_key_in_elm, "a", "s, d") == 1
        assert agreed(codec, xml, find_key_in_elm, "b", " ") == 0
