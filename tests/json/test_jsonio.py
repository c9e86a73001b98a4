"""The strict JSON reader/writer: offsets, hostile inputs, round-trips."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError, ParseError
from repro.json.jsonio import (
    JsonLinesParser,
    iter_json_documents,
    parse_json,
    serialize_json,
)


def offset_of(error: ParseError) -> int:
    message = str(error)
    assert "offset" in message, message
    return int(message.split("offset ")[1].split(":")[0])


class TestParseBasics:
    def test_all_value_kinds(self):
        assert parse_json('{"a": [1, -2.5, "x", true, false, null]}') == {
            "a": [1, -2.5, "x", True, False, None]
        }

    def test_bytes_input(self):
        assert parse_json(b'{"k": "caf\xc3\xa9"}') == {"k": "café"}

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError, match="invalid UTF-8"):
            parse_json(b'{"k": "\xff"}')

    def test_integers_stay_int_and_floats_float(self):
        value = parse_json("[0, -7, 1.5, 1e3, 0.0]")
        assert value == [0, -7, 1.5, 1000.0, 0.0]
        assert [type(v) for v in value] == [int, int, float, float, float]

    def test_unicode_escapes_and_surrogate_pairs(self):
        assert parse_json('"\\u00e9\\ud83d\\ude00"') == "é\U0001f600"


class TestParseRejections:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("", "unexpected end of input"),
            ("{", "unterminated object"),
            ('{"a": 1', "unterminated object"),
            ("[1, 2", "unterminated array"),
            ('"abc', "unterminated string"),
            ('{"a" 1}', "expected ':'"),
            ("{1: 2}", "object keys must be strings"),
            ("[1 2]", "expected ',' or ']'"),
            ('{"a": 1 "b": 2}', "expected ',' or '}'"),
            ("01", "leading zeros"),
            ("1.", "fraction needs digits"),
            ("1e", "exponent needs digits"),
            ("-", "malformed number"),
            ("1e999", "overflows to infinity"),
            ("NaN", "unexpected character"),
            ("Infinity", "unexpected character"),
            ("{} {}", "trailing content"),
            ("1 2", "trailing content"),
            ('"\\x"', "unknown escape"),
            ('"\\u12"', "four hex digits"),
            ('"\\ud800"', "unpaired high surrogate"),
            ('"\\udc00"', "unpaired low surrogate"),
            ('"\\ud800\\u0041"', "not a low surrogate"),
            ('"\x01"', "raw control character U+0001"),
        ],
    )
    def test_rejected_with_parse_error(self, source, fragment):
        with pytest.raises(ParseError, match="JSON error at offset") as caught:
            parse_json(source)
        assert fragment in str(caught.value)

    def test_duplicate_key_offset_points_at_second_key(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{"a": 1, "a": 2}')
        assert "duplicate object key 'a'" in str(caught.value)
        assert offset_of(caught.value) == 9

    def test_depth_cap_is_a_parse_error_not_a_recursion_error(self):
        hostile = "[" * 5000
        with pytest.raises(ParseError, match="nesting depth exceeds"):
            parse_json(hostile)

    def test_depth_cap_is_configurable(self):
        assert parse_json("[[[1]]]", max_depth=3) == [[[1]]]
        with pytest.raises(ParseError, match="nesting depth exceeds"):
            parse_json("[[[1]]]", max_depth=2)

    def test_error_offsets_are_exact(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{"key": bad}')
        assert offset_of(caught.value) == 8

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        """``int()`` refuses more than 4300 digits with a ValueError,
        which used to escape the reader and drop a served connection."""
        with pytest.raises(ParseError) as caught:
            parse_json('{"host": ' + "9" * 5000 + "}")
        assert "integer literal of 5000 digits exceeds the limit" in str(
            caught.value
        )
        assert offset_of(caught.value) == 9
        assert parse_json("-" + "9" * 4300) == -int("9" * 4300)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0661", "\uff11"])
    def test_only_ascii_digits_make_numbers(self, digit):
        """RFC 8259 digits are 0-9; ``str.isdigit`` also admitted
        superscripts (then ``int()`` raised) and other scripts' digits."""
        with pytest.raises(ParseError, match="unexpected character") as caught:
            parse_json("[" + digit + "]")
        assert offset_of(caught.value) == 1
        with pytest.raises(ParseError, match="malformed number"):
            parse_json("-" + digit)


class TestSerialize:
    def test_single_line_and_insertion_order(self):
        value = {"b": [1, {"a": None}], "a": True}
        assert serialize_json(value) == '{"b": [1, {"a": null}], "a": true}'

    def test_control_characters_escape(self):
        assert serialize_json("a\x01b\n") == '"a\\u0001b\\n"'

    def test_non_finite_rejected(self):
        with pytest.raises(EncodingError, match="non-finite"):
            serialize_json(float("inf"))

    def test_unmodeled_type_rejected(self):
        with pytest.raises(EncodingError, match="outside the modeled"):
            serialize_json({"a": object()})

    def test_non_string_key_rejected(self):
        with pytest.raises(EncodingError, match="not a string"):
            serialize_json({1: "a"})


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_roundtrip_property(value):
    """parse(serialize(v)) == v for every modeled value."""
    assert parse_json(serialize_json(value)) == value


class TestJsonLinesParser:
    def test_feed_ready_close_contract(self):
        parser = JsonLinesParser()
        parser.feed(b'{"a": 1}\n[1, ')
        assert parser.ready() == [{"a": 1}]
        parser.feed(b"2]\n\n")
        parser.feed('{"b": "x"}')  # str fragments are accepted
        assert parser.ready() == [[1, 2]]
        assert parser.close() == [{"b": "x"}]
        assert parser.documents_seen == 3

    def test_blank_lines_skipped(self):
        parser = JsonLinesParser()
        parser.feed(b"\n  \n1\n\n")
        assert parser.close() == [1]

    def test_feed_after_close_rejected(self):
        parser = JsonLinesParser()
        parser.close()
        with pytest.raises(ParseError, match="closed stream parser"):
            parser.feed(b"1\n")

    def test_errors_carry_document_number(self):
        parser = JsonLinesParser()
        parser.feed(b"1\n2\n")
        parser.ready()
        with pytest.raises(ParseError, match="document 3"):
            parser.feed(b"{bad}\n")

    def test_errors_carry_the_offset_past_the_failing_line(self):
        parser = JsonLinesParser()
        parser.feed(b"[1]\n")
        with pytest.raises(ParseError) as caught:
            parser.feed(b"\n2\n{bad}\n3\n")
        assert str(caught.value).startswith(
            "JSON stream error in document 3 (near byte 13): "
        )

    def test_split_across_tiny_fragments(self):
        parser = JsonLinesParser()
        for byte in b'{"key": [1, 2]}\n"tail"':
            parser.feed(bytes([byte]))
        assert parser.ready() == [{"key": [1, 2]}]
        assert parser.close() == ["tail"]


def test_iter_json_documents_from_path(tmp_path):
    stream = tmp_path / "docs.jsonl"
    stream.write_text('{"a": 1}\n[true, null]\n"x"\n')
    assert list(iter_json_documents(stream)) == [{"a": 1}, [True, None], "x"]


def test_iter_json_documents_small_chunks(tmp_path):
    stream = tmp_path / "docs.jsonl"
    stream.write_text("\n".join(serialize_json([i] * i) for i in range(20)))
    documents = list(iter_json_documents(stream, chunk_bytes=3))
    assert documents == [[i] * i for i in range(20)]


class TestScaling:
    def test_per_line_feed_time_is_flat_in_the_lines_per_fragment(self):
        """``feed`` scans a fragment with an offset and cuts the buffer
        once; cutting it after every line copied the rest of the
        fragment each time, quadratic in the lines per fragment.  Blank
        lines keep the reader's own cost out of the measurement."""
        line = b" " * 200 + b"\n"

        def per_line_seconds(lines):
            fragment = line * lines
            repeats = 8000 // lines
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(repeats):
                    JsonLinesParser().feed(fragment)
                best = min(best, (time.perf_counter() - started) / repeats)
            return best / lines

        assert per_line_seconds(4000) <= 3 * per_line_seconds(50)
