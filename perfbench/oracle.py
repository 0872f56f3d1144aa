"""Answer oracle for the five XBench experiment queries.

Evaluates Q5, Q8, Q12, Q14 and Q17 on each of the four database classes
with :mod:`xml.etree.ElementTree` and hand-written path walks, sharing
no code with the program under test.  Answers are what the benchmark
compares against:

* Q5, Q8, Q14, Q17: the list of result values.  Element results are
  compared by their text with tags stripped (:func:`strip_tags` applies
  the same reduction to the engine's serialized answer);
* Q12: the number of results, because its results are constructed
  elements.

Run as a script it answers a batch in its own process, so its CPU and
memory stay out of every timed window of the benchmark::

    python3 perfbench/oracle.py REQUEST.json ANSWERS.json

``REQUEST.json`` holds ``{"corpora": {class: path}, "requests":
[[class, qid, params], ...], "writes": [[class, tag, value], ...]}``
where each corpus file is a JSON list of ``[name, xml_text]`` pairs in
collection order; ``ANSWERS.json`` receives one answer per request, in
order.  The optional ``writes`` are checked to change no answer.
"""

from __future__ import annotations

import json
import sys
import xml.etree.ElementTree as ET

#: queries whose answers are compared by result count only.
COUNTED = frozenset({"Q12"})


def text(element) -> str:
    """XPath string value of an element: all descendant text."""
    return "".join(element.itertext())


def string_of(elements) -> str:
    """``string(path)`` for a path yielding at most one element."""
    return text(elements[0]) if elements else ""


def strip_tags(value: str) -> str:
    """An engine answer reduced to comparable text: serialized elements
    lose their tags, atomic values pass through."""
    if value.startswith("<"):
        return text(ET.fromstring(value))
    return value


def in_window(elements, low: str, high: str) -> bool:
    """``$x >= $from and $x <= $to`` under general-comparison
    semantics: each side is existential over the nodes, and untyped
    values compare to strings by code point."""
    values = [text(e) for e in elements]
    return any(v >= low for v in values) and any(v <= high for v in values)


def children(elements, tag: str) -> list:
    """One child step from every element in order (``*`` = any)."""
    if tag == "*":
        return [child for element in elements for child in element]
    return [child for element in elements for child in element.findall(tag)]


def path(elements, steps: str) -> list:
    """A child-step path (``a/*/b``) from every element in order."""
    for tag in steps.split("/"):
        elements = children(elements, tag)
    return elements


def first(elements, tag: str) -> list:
    """``tag[1]``: the first ``tag`` child of each element."""
    out = []
    for element in elements:
        found = element.find(tag)
        if found is not None:
            out.append(found)
    return out


def distinct(values: list) -> list:
    """``distinct-values`` keeping first occurrence order."""
    seen: set = set()
    return [v for v in values if not (v in seen or seen.add(v))]


class ClassOracle:
    """Answers for one database class, built from its serialized
    documents (``[(name, xml_text)]`` in collection order)."""

    def __init__(self, class_key: str, documents) -> None:
        self.class_key = class_key
        roots = [ET.fromstring(xml_text) for __, xml_text in documents]
        if class_key == "dcsd":
            self.units = roots[0].findall("item")
        elif class_key == "tcsd":
            self.units = roots[0].findall("entry")
        else:
            tag = "order" if class_key == "dcmd" else "article"
            self.units = [root for root in roots if root.tag == tag]
        self._by_key: dict[str, list] = {}
        for unit in self.units:
            key = (string_of(unit.findall("hw")) if class_key == "tcsd"
                   else unit.get("id"))
            self._by_key.setdefault(key, []).append(unit)

    def write(self, tag: str, value: str) -> None:
        """Set the text of every ``tag`` element, as an update does."""
        for unit in self.units:
            for element in unit.iter(tag):
                element.clear()
                element.text = value

    def point_units(self, params: dict) -> list:
        key = params["word"] if self.class_key == "tcsd" else params["id"]
        return self._by_key.get(str(key), [])

    def answer(self, qid: str, params: dict):
        """The expected answer: a value list, or a count for Q12."""
        method = getattr(self, f"_{self.class_key}_{qid.lower()}")
        return method(params)

    # -- DC/SD: /catalog/item -------------------------------------------

    def _dcsd_q5(self, params):
        authors = first(path(self.point_units(params), "authors"), "author")
        return [text(e) for e in path(authors, "name/last_name")]

    def _dcsd_q8(self, params):
        found = path(self.point_units(params), "*/suggested_retail_price")
        return [text(e) for e in found]

    def _dcsd_q12(self, params):
        return len(first(path(self.point_units(params), "authors"),
                         "author"))

    def _dcsd_q14(self, params):
        return distinct([
            string_of(path([item], "publisher/name"))
            for item in self.units
            if in_window(item.findall("date_of_release"),
                         params["from"], params["to"])
            and not path([item], "publisher/fax")])

    def _dcsd_q17(self, params):
        return [string_of(item.findall("title")) for item in self.units
                if params["word"] in string_of(item.findall("description"))]

    # -- DC/MD: collection()/order ---------------------------------------

    def _dcmd_q5(self, params):
        lines = first(path(self.point_units(params), "order_lines"),
                      "order_line")
        return [text(e) for e in path(lines, "item_id")]

    def _dcmd_q8(self, params):
        return [text(e) for e in path(self.point_units(params),
                                      "*/ship_type")]

    def _dcmd_q12(self, params):
        return len(self.point_units(params))

    def _dcmd_q14(self, params):
        return [order.get("id") for order in self.units
                if in_window(order.findall("order_date"),
                             params["from"], params["to"])
                and not path([order], "shipping_information/"
                                      "shipping_address/street2")]

    def _dcmd_q17(self, params):
        return [order.get("id") for order in self.units
                if any(params["word"] in text(comment) for comment in
                       path([order], "order_lines/order_line/comments"))]

    # -- TC/SD: /dictionary/entry ----------------------------------------

    def _tcsd_q5(self, params):
        definitions = first(self.point_units(params), "definition")
        return [text(e) for e in path(definitions, "def_text")]

    def _tcsd_q8(self, params):
        return [text(e) for e in path(self.point_units(params),
                                      "*/quote/qt")]

    def _tcsd_q12(self, params):
        return len(self.point_units(params))

    def _tcsd_q14(self, params):
        return [string_of(entry.findall("hw")) for entry in self.units
                if not entry.findall("etymology")]

    def _tcsd_q17(self, params):
        return [string_of(entry.findall("hw")) for entry in self.units
                if params["word"] in text(entry)]

    # -- TC/MD: collection()/article -------------------------------------

    def _tcmd_q5(self, params):
        sections = first(path(self.point_units(params), "body"), "sec")
        return [text(e) for e in path(sections, "heading")]

    def _tcmd_q8(self, params):
        return [text(e) for e in path(self.point_units(params), "*/title")]

    def _tcmd_q12(self, params):
        return len(self.point_units(params))

    def _tcmd_q14(self, params):
        return [string_of(path([article], "prolog/title"))
                for article in self.units
                if in_window(path([article], "prolog/date_of_publication"),
                             params["from"], params["to"])
                and not path([article], "prolog/abstract")]

    def _tcmd_q17(self, params):
        return [string_of(path([article], "prolog/title"))
                for article in self.units
                if params["word"] in string_of(article.findall("body"))]


def matches(qid: str, expected, values: list[str]) -> bool:
    """Whether an engine's answer agrees with the oracle's."""
    if qid in COUNTED:
        return expected == len(values)
    return expected == [strip_tags(value) for value in values]


def answer_batch(request: dict) -> list:
    """Answers for ``request["requests"]``.  Each ``[class, tag, value]``
    in ``request["writes"]`` is then applied to every ``tag`` element of
    that class; a write that changes any answer raises, since answers
    are only valid while writes run if no query reads the written
    field."""
    oracles = {}
    for class_key, corpus_path in request["corpora"].items():
        with open(corpus_path, encoding="utf-8") as handle:
            oracles[class_key] = ClassOracle(class_key, json.load(handle))

    def answers() -> list:
        return [oracles[class_key].answer(qid, params)
                for class_key, qid, params in request["requests"]]

    before = answers()
    writes = request.get("writes", [])
    for class_key, tag, value in writes:
        oracles[class_key].write(tag, value)
    if writes and answers() != before:
        raise ValueError(f"writes {writes} change query answers")
    return before


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: oracle.py REQUEST.json ANSWERS.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        request = json.load(handle)
    answers = answer_batch(request)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
