"""Tests for the DTD-based encoding (Section 10)."""

import time

import pytest

from repro.errors import AmbiguousContentModelError, EncodingError
from repro.trees.tree import parse_term
from repro.workloads.library import library_document, library_input_dtd
from repro.workloads.xmlflip import xmlflip_document, xmlflip_input_dtd
from repro.xml.dtd import parse_dtd
from repro.xml.encode import DTDEncoder
from repro.xml.unranked import element, text


class TestPaperFlipEncoding:
    """The Introduction's example: root(a,a,b) and its printed encoding."""

    def test_exact_paper_tree(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        got = encoder.encode(xmlflip_document(2, 1))
        expected = parse_term(
            'root("(a*,b*)"(a*(a, a*(a, a*(#, #))), b*(b, b*(#, #))))'
        )
        assert got == expected

    def test_empty_lists(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        got = encoder.encode(xmlflip_document(0, 0))
        assert got == parse_term('root("(a*,b*)"(a*(#, #), b*(#, #)))')

    def test_compact_lists(self):
        encoder = DTDEncoder(xmlflip_input_dtd(), compact_lists=True)
        got = encoder.encode(xmlflip_document(1, 0))
        assert got == parse_term('root("(a*,b*)"(a*(a, #), #))')

    def test_alphabet(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        alphabet = encoder.alphabet
        assert alphabet.rank("root") == 1
        assert alphabet.rank("(a*,b*)") == 2
        assert alphabet.rank("a*") == 2
        assert alphabet.rank("a") == 0
        assert alphabet.rank("#") == 0


class TestPaperLibraryEncoding:
    """Section 10: the first library DTD with the choice content model."""

    def test_choice_encoding(self):
        dtd = parse_dtd(
            """
            <!ELEMENT LIBRARY (BOOK*) >
            <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >
            <!ELEMENT AUTHOR #PCDATA >
            <!ELEMENT TITLE #PCDATA >
            <!ELEMENT YEAR #PCDATA >
            """
        )
        encoder = DTDEncoder(dtd)
        doc = element(
            "LIBRARY",
            element("BOOK", element("AUTHOR", text("x")), element("TITLE", text("y"))),
            element("BOOK", element("TITLE", text("z"))),
        )
        encoded = encoder.encode(doc)
        # First book takes the (AUTHOR,TITLE,YEAR?) branch with YEAR? = #.
        book1 = encoded.children[0].children[0]
        assert book1.label == "BOOK"
        alt = book1.children[0]
        assert alt.label == "((AUTHOR,TITLE,YEAR?)|TITLE)"
        assert alt.children[0].label == "(AUTHOR,TITLE,YEAR?)"
        assert encoder.roundtrip(doc) == doc


class TestFusion:
    def test_fused_book_rank_three(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        encoded = encoder.encode(library_document(1))
        book = encoded.children[0].children[0]
        assert book.label == "BOOK"
        assert book.arity == 3  # fused (AUTHOR, TITLE, YEAR)

    def test_unfused_book_rank_one(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=False)
        encoded = encoder.encode(library_document(1))
        book = encoded.children[0].children[0]
        assert book.arity == 1
        assert book.children[0].label == "(AUTHOR,TITLE,YEAR)"


class TestValues:
    def test_values_attached_to_pcdata_slots(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        tree, values = encoder.encode_with_values(library_document(1))
        assert sorted(values.values()) == ["1991", "author1", "title1"]

    def test_value_roundtrip(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        doc = library_document(3)
        assert encoder.roundtrip(doc) == doc

    def test_decode_without_values_gives_placeholders(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        tree = encoder.encode(library_document(1))
        decoded = encoder.decode(tree)
        texts = [n for _, n in decoded.subtrees() if n.is_text]
        assert all(n.text is None for n in texts)


class TestErrors:
    def test_wrong_root(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            encoder.encode(element("zzz"))

    def test_invalid_children(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            # b before a violates (a*, b*).
            encoder.encode(element("root", element("b"), element("a")))

    def test_non_empty_empty_element(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            encoder.encode(element("root", element("a", element("a"))))

    def test_ambiguous_model_detected(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (a*, a*) >
            <!ELEMENT a EMPTY >
            """
        )
        encoder = DTDEncoder(dtd)
        with pytest.raises(AmbiguousContentModelError):
            encoder.encode(element("r", element("a")))


class TestRoundtrips:
    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 2), (3, 2)])
    def test_xmlflip_roundtrip(self, fuse, compact, n, m):
        encoder = DTDEncoder(
            xmlflip_input_dtd(), fuse=fuse, compact_lists=compact
        )
        doc = xmlflip_document(n, m)
        assert encoder.roundtrip(doc) == doc

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_library_roundtrip(self, count):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        assert encoder.roundtrip(library_document(count)) == library_document(count)

    def test_optional_and_plus(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (a+, b?) >
            <!ELEMENT a EMPTY >
            <!ELEMENT b EMPTY >
            """
        )
        encoder = DTDEncoder(dtd)
        for doc in [
            element("r", element("a")),
            element("r", element("a"), element("a"), element("b")),
        ]:
            assert encoder.roundtrip(doc) == doc
        with pytest.raises(EncodingError):
            encoder.encode(element("r", element("b")))


class TestScaling:
    def test_per_child_encode_time_is_flat_in_the_child_count(self):
        """Star/Plus matching memoizes reachable ends per start, so a
        wide element costs about the same per child at 80 children as
        at 10 (trying every split point of every span was cubic)."""
        encoder = DTDEncoder(xmlflip_input_dtd())

        def per_child_seconds(width):
            document = xmlflip_document(width // 2, width - width // 2)
            repeats = 400 // width
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(repeats):
                    encoder.encode(document)
                best = min(best, (time.perf_counter() - started) / repeats)
            return best / width

        assert per_child_seconds(80) <= 3 * per_child_seconds(10)
