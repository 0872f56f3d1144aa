"""XML parser tests: well-formed input, entities, errors, round trips."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.databases import CLASSES_BY_KEY
from repro.databases.base import SMALL
from repro.errors import XMLParseError
from repro.xml.nodes import Comment, Element, Text
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.serializer import serialize


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root_element.tag == "a"
        assert not doc.root_element.children

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.root_element.find("b/c") is not None

    def test_text_content(self):
        doc = parse_document("<a>hello</a>")
        assert doc.root_element.text_content() == "hello"

    def test_mixed_content_order(self):
        doc = parse_document("<a>x<b/>y<c/>z</a>")
        kinds = [type(child).__name__
                 for child in doc.root_element.children]
        assert kinds == ["Text", "Element", "Text", "Element", "Text"]

    def test_attributes(self):
        doc = parse_document('<a x="1" y="two"/>')
        assert doc.root_element.get("x") == "1"
        assert doc.root_element.get("y") == "two"

    def test_single_quoted_attribute(self):
        doc = parse_document("<a x='v'/>")
        assert doc.root_element.get("x") == "v"

    def test_attribute_order_preserved(self):
        doc = parse_document('<a b="1" a="2" c="3"/>')
        assert list(doc.root_element.attributes) == ["b", "a", "c"]

    def test_whitespace_in_tags(self):
        doc = parse_document('<a  x="1"\n  y="2"\t></a>')
        assert doc.root_element.get("y") == "2"

    def test_document_name(self):
        doc = parse_document("<a/>", name="n.xml")
        assert doc.name == "n.xml"

    def test_order_keys_assigned(self):
        doc = parse_document("<a><b/><c/></a>")
        b, c = doc.root_element.children
        assert 0 <= doc.order_key < b.order_key < c.order_key


class TestProlog:
    def test_xml_declaration(self):
        doc = parse_document('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.root_element.tag == "a"

    def test_doctype_skipped(self):
        doc = parse_document('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
        assert doc.root_element.tag == "a"

    def test_doctype_with_internal_subset(self):
        doc = parse_document(
            "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>")
        assert doc.root_element.text_content() == "x"

    def test_leading_comment_kept(self):
        doc = parse_document("<!-- hi --><a/>")
        assert isinstance(doc.children[0], Comment)

    def test_processing_instruction_skipped(self):
        doc = parse_document('<?pi data?><a/>')
        assert doc.root_element.tag == "a"

    def test_trailing_comment_allowed(self):
        doc = parse_document("<a/><!-- bye -->")
        assert any(isinstance(child, Comment) for child in doc.children)


class TestEntities:
    def test_predefined_entities(self):
        doc = parse_document("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert doc.root_element.text_content() == "<>&\"'"

    def test_decimal_char_reference(self):
        doc = parse_document("<a>&#65;</a>")
        assert doc.root_element.text_content() == "A"

    def test_hex_char_reference(self):
        doc = parse_document("<a>&#x41;&#x20AC;</a>")
        assert doc.root_element.text_content() == "A€"

    def test_entity_in_attribute(self):
        doc = parse_document('<a x="a&amp;b"/>')
        assert doc.root_element.get("x") == "a&b"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&nope;</a>")

    def test_unterminated_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a>&amp</a>")


class TestCData:
    def test_cdata_preserved_verbatim(self):
        doc = parse_document("<a><![CDATA[<not> & markup]]></a>")
        assert doc.root_element.text_content() == "<not> & markup"

    def test_cdata_merges_with_text(self):
        doc = parse_document("<a>x<![CDATA[y]]>z</a>")
        texts = [child for child in doc.root_element.children
                 if isinstance(child, Text)]
        assert "".join(t.text for t in texts) == "xyz"


class TestComments:
    def test_inline_comment_node(self):
        doc = parse_document("<a>x<!-- note -->y</a>")
        kinds = [type(child).__name__
                 for child in doc.root_element.children]
        assert "Comment" in kinds

    def test_comment_splits_text(self):
        doc = parse_document("<a>x<!--c-->y</a>")
        texts = [child.text for child in doc.root_element.children
                 if isinstance(child, Text)]
        assert texts == ["x", "y"]


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",                                # no root
        "<a>",                             # unterminated
        "<a></b>",                         # mismatched tags
        "<a/><b/>",                        # two roots
        "<a x=1/>",                        # unquoted attribute
        '<a x="1" x="2"/>',                # duplicate attribute
        "<a><b></a></b>",                  # interleaved
        "text only",                       # no element
        "<a b></a>",                       # attribute without value
        '<a x="<"/>',                      # raw < in attribute
        "<a>&#xZZ;</a>",                   # bad char ref
        "<1tag/>",                         # bad name start
    ])
    def test_rejected(self, bad):
        with pytest.raises(XMLParseError):
            parse_document(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<a>\n\n<b></a>")
        assert info.value.line == 3

    def test_content_after_root_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a/>junk")


class TestFragment:
    def test_parse_fragment(self):
        element = parse_fragment("<x a='1'><y/></x>")
        assert isinstance(element, Element)
        assert element.parent is None

    def test_fragment_trailing_junk_rejected(self):
        with pytest.raises(XMLParseError):
            parse_fragment("<x/><y/>")


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "<a/>",
        '<a x="1"/>',
        "<a>text</a>",
        "<a>x<b>y</b>z</a>",
        "<a>&lt;escaped&amp;&gt;</a>",
        '<a x="&quot;q&amp;"/>',
        "<a><b/><b/><b/></a>",
    ])
    def test_serialize_parse_identity(self, text):
        doc = parse_document(text)
        assert serialize(doc) == text

    def test_generated_corpus_round_trips(self, small_corpora):
        for corpus in small_corpora.values():
            for name, text in corpus["texts"][:3]:
                reparsed = parse_document(text, name=name)
                assert serialize(reparsed) == text


# -- equivalence over the generated classes ----------------------------------


@pytest.fixture(scope="module")
def small_scale_texts():
    """Every document of all four classes at small scale (divisor 100)."""
    texts = {}
    for key, db_class in CLASSES_BY_KEY.items():
        units = db_class.units_for_budget(SMALL.budget(100), seed=5)
        texts[key] = [(doc.name, serialize(doc))
                      for doc in db_class.generate(units, seed=5)]
    return texts


def order_keys(node) -> list:
    """Every node's ``order_key``, in a depth-first walk."""
    keys = [node.order_key]
    if isinstance(node, Element):
        keys.extend(attr.order_key for attr in node.attributes.values())
    for child in getattr(node, "children", ()):
        keys.extend(order_keys(child))
    return keys


class TestEquivalence:
    def test_every_small_scale_document_round_trips(self, small_scale_texts):
        assert sorted(small_scale_texts) == ["dcmd", "dcsd", "tcmd", "tcsd"]
        for texts in small_scale_texts.values():
            assert texts
            for name, text in texts:
                assert serialize(parse_document(text, name=name)) == text

    def test_order_keys_equal_refresh_order(self, small_scale_texts):
        for texts in small_scale_texts.values():
            for name, text in texts:
                document = parse_document(text, name=name)
                parsed = order_keys(document)
                document.refresh_order()
                assert parsed == order_keys(document)

    def test_order_keys_cover_every_node_kind(self):
        document = parse_document(
            '<?xml version="1.0"?><!--a--><!DOCTYPE r [<!ENTITY x "y">]>'
            '<r k="1" j="2">t<![CDATA[u]]>v<!--c--><?pi?>w<e/>x</r>'
            "<!--z-->")
        parsed = order_keys(document)
        assert parsed == list(range(len(parsed)))
        document.refresh_order()
        assert parsed == order_keys(document)

    def test_fragment_order_keys_follow_document_order(self):
        element = parse_fragment("<x a='1'>t<y b='2'/><!--c--></x>")
        assert order_keys(element) == [0, 1, 2, 3, 4, 5]

    def test_deep_nesting_needs_no_recursion(self):
        depth = 5000
        node = parse_document("<a>" * depth + "</a>" * depth)
        keys = []
        while node.children:
            node = node.children[0]
            keys.append(node.order_key)
        assert keys == list(range(1, depth + 1))

    def test_collector_state_restored(self):
        assert gc.isenabled()
        parse_document("<a><b/></a>")
        assert gc.isenabled()
        with pytest.raises(XMLParseError):
            parse_document("<a><b></a>")
        assert gc.isenabled()
        gc.disable()
        try:
            parse_fragment("<a/>")
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestErrorLocations:
    @pytest.mark.parametrize("bad, line, column", [
        ("", 1, 1),
        ("<a>", 1, 4),
        ("<a></b>", 1, 7),
        ("<a/><b/>", 1, 5),
        ("<a x=1/>", 1, 6),
        ('<a x="1" x="2"/>', 1, 13),
        ("<a><b></a></b>", 1, 10),
        ("text only", 1, 1),
        ("<a b></a>", 1, 5),
        ('<a x="<"/>', 1, 7),
        ("<a>&#xZZ;</a>", 1, 4),
        ("<1tag/>", 1, 2),
        ("<a>\n\n<b></a>", 3, 7),
        ("<a x='1'y='2'/>", 1, 9),
        ("<a/ >", 1, 3),
        ("<a>&amp</a>", 1, 4),
        ("<a><!-- x</a>", 1, 8),
        ("<a></a >x", 1, 9),
        ("<!DOCTYPE a [", 1, 14),
    ])
    def test_line_and_column(self, bad, line, column):
        with pytest.raises(XMLParseError) as info:
            parse_document(bad)
        assert (info.value.line, info.value.column) == (line, column)


# -- properties --------------------------------------------------------------

xmlish = st.lists(st.sampled_from(
    list("<>/!?-[]&;#x=\"' \t\nab:1") + ["<!--", "-->", "<![CDATA[",
                                           "]]>", "&amp;", "&#65;",
                                           "<a>", "</a>", "<?", "?>"]),
    max_size=30).map("".join)


class TestFuzz:
    @given(st.one_of(st.text(max_size=60), xmlish))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        for parse in (parse_document, parse_fragment):
            try:
                parse(text)
            except XMLParseError:
                pass

    @given(st.from_regex(r"&#x?[0-9a-fA-F]{0,30};", fullmatch=True))
    @settings(max_examples=100, deadline=None)
    def test_character_references_raise_only_parse_errors(self, ref):
        try:
            parse_document(f"<a>{ref}</a>")
        except XMLParseError:
            pass


names = st.text(alphabet="abcxyz_:-.", min_size=1, max_size=5).filter(
    lambda name: name[0] not in "-.")
chars = st.text(alphabet=st.sampled_from(list("ab <>&\"'\n") + ["\u20ac"]),
                min_size=1, max_size=8)
ESCAPES = {"<": ["&lt;", "&#60;"], ">": [">", "&gt;"],
           "&": ["&amp;", "&#x26;"], '"': ["&quot;", "&#34;"],
           "'": ["&apos;", "&#X27;"], "\u20ac": ["\u20ac", "&#x20AC;"]}


@st.composite
def escaped(draw, raw: str) -> str:
    return "".join(draw(st.sampled_from(ESCAPES[char])) if char in ESCAPES
                   else char for char in raw)


@st.composite
def trees(draw, depth: int = 3):
    """``(xml, model)``: a well-formed element and the node tree the
    parser must build from it, as nested tuples."""
    tag = draw(names)
    markup, attributes = [f"<{tag}"], []
    for name in draw(st.lists(names, max_size=3, unique=True)):
        value = draw(chars)
        quote = draw(st.sampled_from(['"', "'"]))
        markup.append(f" {name}{draw(st.sampled_from(['=', ' = ']))}"
                      f"{quote}{draw(escaped(value))}{quote}")
        attributes.append((name, value))
    markup.append(">")
    children: list = []
    for __ in range(draw(st.integers(0, 4)) if depth else 0):
        kind = draw(st.sampled_from(["text", "cdata", "comment", "element"]))
        if kind == "element":
            xml, model = draw(trees(depth - 1))
            markup.append(xml)
            children.append(model)
        elif kind == "comment":
            body = draw(st.text(alphabet="ab <>&", max_size=6))
            markup.append(f"<!--{body}-->")
            children.append(("comment", body))
        else:
            raw = draw(chars)
            markup.append(f"<![CDATA[{raw}]]>" if kind == "cdata"
                          else draw(escaped(raw)))
            # Character data and CDATA merge into one text node.
            if children and children[-1][0] == "text":
                raw = children.pop()[1] + raw
            children.append(("text", raw))
    markup.append(f"</{tag}>")
    return "".join(markup), ("element", tag, attributes, children)


def model_of(node):
    if isinstance(node, Element):
        return ("element", node.tag,
                [(a.name, a.value) for a in node.attributes.values()],
                [model_of(child) for child in node.children])
    return ("comment" if isinstance(node, Comment) else "text", node.text)


class TestGeneratedTrees:
    @given(trees())
    @settings(max_examples=150, deadline=None)
    def test_well_formed_trees_parse_to_their_model(self, tree):
        xml, model = tree
        document = parse_document(xml)
        assert model_of(document.root_element) == model
        assert model_of(parse_fragment(xml)) == model
        assert order_keys(document) == list(range(len(order_keys(document))))

    @given(trees())
    @settings(max_examples=100, deadline=None)
    def test_serialized_trees_round_trip(self, tree):
        canonical = serialize(parse_document(tree[0]))
        assert serialize(parse_document(canonical)) == canonical
