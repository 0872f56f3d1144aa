"""A from-scratch, non-validating XML 1.0 parser.

Supports everything the XBench document classes produce: elements,
attributes, character data, CDATA sections, comments, the five predefined
entities and character references.  Processing instructions, the XML
declaration and DOCTYPE (XBench loads without validation) are skipped.

Parsing is one iterative pass, shared by :func:`parse_document` and
:func:`parse_fragment`: ``str.find("<")`` finds each run of character
data, compiled patterns matched at a position take each start tag,
attribute, tag end and end tag, and a stack of open elements replaces
recursion.  Nodes are created in document order (element, attributes,
children), so each ``order_key`` is assigned at creation.  Cyclic GC is
paused while a tree is built, since every new node stays reachable.
Errors raise :class:`XMLParseError` with a 1-based line and column.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from sys import intern as _intern

from ..errors import XMLParseError
from .nodes import Attribute, Comment, Document, Element, Text

# Longer attribute values rarely repeat; interning them only grows the table.
_INTERN_VALUE_LIMIT = 64

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}

# XML whitespace and ASCII names (``\s`` would accept Unicode spaces).
_S = "[ \t\r\n]"
_NAME_PATTERN = "[A-Za-z_:][A-Za-z0-9_:.-]*"
_SPACE = re.compile(_S + "*")
# An end tag (groups 1-3: name, space, ">"; any may be missing), or a
# start tag's name (group 4) and, unless attributes follow, its end
# (group 5: "/" or "").
_TAG = re.compile(f"<(?:/({_NAME_PATTERN})?({_S}*)(>)?|({_NAME_PATTERN})"
                  f"(?:{_S}*(/?)>)?)")
# One attribute, leading space included; a value holding '<' fails.
_ATTRIBUTE = re.compile(
    f"{_S}+({_NAME_PATTERN}){_S}*={_S}*(?:\"([^\"<]*)\"|'([^'<]*)')")
_TAG_END = re.compile(_S + "*(/?)>")
# Where an attribute or the tag end should be: finds what is wrong.
_ATTRIBUTE_PARTS = re.compile(
    f"({_S}*)(?:({_NAME_PATTERN})({_S}*)(=?)({_S}*)(['\"]?))?")
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
_REFERENCE = re.compile("&([^;]*)(;?)")


def _error(text: str, message: str, pos: int) -> XMLParseError:
    """An :class:`XMLParseError` located at offset ``pos`` of ``text``."""
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return XMLParseError(message, line, column)


def _find(text: str, terminator: str, start: int) -> int:
    """The offset of ``terminator`` at or after ``start``."""
    index = text.find(terminator, start)
    if index < 0:
        raise _error(text, f"unterminated construct, expected {terminator!r}",
                     start)
    return index


def _decode_entities(text: str, raw: str, base: int) -> str:
    """Expand the entity and character references in ``raw``, which
    starts at offset ``base`` of ``text``."""
    def expand(match: re.Match) -> str:
        name, closed = match.groups()
        where = base + match.start()
        if not closed:
            raise _error(text, "unterminated entity reference", where)
        if name in _ENTITIES:
            return _ENTITIES[name]
        if not name.startswith("#"):
            raise _error(text, f"unknown entity &{name};", where)
        try:
            return chr(int(name[2:], 16) if name[1:2] in ("x", "X")
                       else int(name[1:]))
        except (ValueError, OverflowError):
            raise _error(text, f"bad character reference &{name};",
                         where) from None
    return _REFERENCE.sub(expand, raw)


def _attribute_error(text: str, pos: int) -> XMLParseError:
    """Why the start tag is malformed at ``pos``, where neither another
    attribute nor the tag end matches."""
    match = _ATTRIBUTE_PARTS.match(text, pos)
    space, name, __, equals, __, quote = match.groups()
    if text[match.end(1):match.end(1) + 1] in ("", ">", "/"):
        return _error(text, "expected '>'", match.end(1))
    if not space:
        return _error(text, "expected whitespace before attribute", pos)
    if name is None:
        return _error(text, "expected a name", match.end(1))
    if not equals:
        return _error(text, "expected '='", match.end(3))
    if not quote:
        return _error(text, "attribute value must be quoted", match.end(5))
    start = match.end()
    raw = text[start:_find(text, quote, start)]
    # A quoted value without '<' would have matched _ATTRIBUTE.
    return _error(text, "'<' not allowed in attribute value",
                  start + raw.index("<"))


def _end_tag_error(text: str, match: re.Match, tag: str) -> XMLParseError:
    """Why the end tag ``match`` does not close the open ``tag``."""
    closing = match.group(1)
    if closing is None:
        return _error(text, "expected a name", match.start() + 2)
    if closing != tag:
        return _error(text, f"mismatched end tag </{closing}>, "
                      f"expected </{tag}>", match.end(1))
    return _error(text, "expected '>'", match.end())


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection, restoring its previous state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse_element(text: str, pos: int,
                   key: int) -> tuple[Element, int, int]:
    """Parse the element whose start tag is at ``text[pos]``, numbering
    nodes from ``key``.  Returns the detached element, the offset past
    its end tag and the next unused key."""
    find, startswith = text.find, text.startswith
    # __new__ plus slot stores (as the binary decoder does) beats __init__.
    new_element, new_attribute, new_text = (
        Element.__new__, Attribute.__new__, Text.__new__)
    stack: list[Element] = []   # open ancestors of ``node``
    node = None                 # innermost open element
    match = _TAG.match(text, pos)
    while True:
        # ``match`` is the start tag at text[pos].
        if match is None or match.group(4) is None:
            raise _error(text, "expected a name", pos + 1)
        tag, ended = match.group(4, 5)
        element = new_element(Element)
        # Interned names make tag-map keys and name tests pointer-equal.
        element.tag = _intern(tag)
        element.attributes = attributes = {}
        element.children = []
        element.parent = node
        element.order_key = key
        key += 1
        pos = match.end()
        if ended is None:
            while True:
                match = _ATTRIBUTE.match(text, pos)
                if match is None:
                    break
                name = _intern(match.group(1))
                group = match.lastindex     # the quote style's group
                value = match.group(group)
                if name in attributes:
                    raise _error(text, f"duplicate attribute {name!r}",
                                 match.start(group))
                if "&" in value:
                    value = _decode_entities(text, value, match.start(group))
                if len(value) <= _INTERN_VALUE_LIMIT:
                    value = _intern(value)  # ids, enumerations repeat
                attribute = new_attribute(Attribute)
                attribute.name = name
                attribute.value = value
                attribute.parent = element
                attribute.order_key = key
                key += 1
                attributes[name] = attribute
                pos = match.end()
            match = _TAG_END.match(text, pos)
            if match is None:
                raise _attribute_error(text, pos)
            pos = match.end()
            ended = match.group(1)
        if node is not None:
            node.children.append(element)
        if not ended:
            if node is not None:
                stack.append(node)
            node = element
        elif node is None:
            return element, pos, key

        # Content of ``node`` up to the next start tag.
        pending = None          # character data not yet in a Text node
        while True:
            lt = find("<", pos)
            if lt != pos:
                stop = lt if lt >= 0 else len(text)
                raw = text[pos:stop]
                if "&" in raw:
                    raw = _decode_entities(text, raw, pos)
                pending = raw if pending is None else pending + raw
                if lt < 0:
                    raise _error(text, f"unterminated element <{node.tag}>",
                                 stop)
                pos = lt
            match = _TAG.match(text, pos)
            if match is None and startswith("<![CDATA[", pos):
                # CDATA merges with the character data around it.
                end = _find(text, "]]>", pos + 9)
                data = text[pos + 9:end]
                pending = data if pending is None else pending + data
                pos = end + 3
                continue
            if pending is not None:
                child = new_text(Text)
                child.text = pending
                child.parent = node
                child.order_key = key
                key += 1
                node.children.append(child)
                pending = None
            if match is not None:
                if match.group(4) is not None:
                    break           # a start tag
                if match.group(1) != node.tag or match.group(3) is None:
                    raise _end_tag_error(text, match, node.tag)
                pos = match.end()
                if not stack:
                    return node, pos, key
                node = stack.pop()
            elif startswith("<!--", pos):
                end = _find(text, "-->", pos + 4)
                child = node.append(Comment(text[pos + 4:end]))
                child.order_key = key
                key += 1
                pos = end + 3
            elif startswith("<?", pos):
                pos = _find(text, "?>", pos + 2) + 2
            else:
                raise _error(text, "expected a name", pos + 1)


def parse_document(text: str, name: str = "") -> Document:
    """Parse ``text`` into a :class:`Document` named ``name``; raises
    :class:`XMLParseError` if the input is not well-formed."""
    document = Document(name=name)
    document.order_key = 0
    with _gc_paused():
        pos, key = _parse_misc(text, 0, document, 1, prolog=True)
        if not text.startswith("<", pos):
            raise _error(text, "expected root element", pos)
        root, pos, key = _parse_element(text, pos, key)
        document.append(root)
        pos, key = _parse_misc(text, pos, document, key, prolog=False)
    if pos < len(text):
        raise _error(text, "content after root element", pos)
    return document


def parse_fragment(text: str) -> Element:
    """Parse a single element (no prolog) and return it detached."""
    pos = _SPACE.match(text).end()
    if not text.startswith("<", pos):
        raise _error(text, "expected '<'", pos)
    with _gc_paused():
        element, pos, __ = _parse_element(text, pos, 0)
    pos = _SPACE.match(text, pos).end()
    if pos < len(text):
        raise _error(text, "content after fragment element", pos)
    return element


def _parse_misc(text: str, pos: int, document: Document, key: int,
                prolog: bool) -> tuple[int, int]:
    """Skip whitespace, PIs and (in the ``prolog``) DOCTYPE around the
    root element, appending comments to ``document``.  Returns the
    offset of the first other input and the next unused order key."""
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith("<!--", pos):
            end = _find(text, "-->", pos + 4)
            comment = document.append(Comment(text[pos + 4:end]))
            comment.order_key = key
            key += 1
            pos = end + 3
        elif text.startswith("<?", pos):
            pos = _find(text, "?>", pos + 2) + 2
        elif prolog and text.startswith("<!DOCTYPE", pos):
            # Skip the declaration, internal subset included.
            depth = 0
            for mark in _DOCTYPE_MARK.finditer(text, pos + 9):
                char = mark.group()
                if char == ">" and depth <= 0:
                    pos = mark.end()
                    break
                depth += (char == "[") - (char == "]")
            else:
                raise _error(text, "unterminated DOCTYPE", len(text))
        else:
            return pos, key
