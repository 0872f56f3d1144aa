"""The answer oracle on hand-written documents (answers worked out by
hand), and against the native engine on small generated corpora."""

import json

import pytest

import oracle
from common import EXPERIMENT_QUERIES, POINT_QUERIES
from oracle import ClassOracle, matches, strip_tags

CATALOG = """<catalog>
<item id="1"><title>Alpha</title><description>has word_3 inside</description>
<date_of_release>1996-05-01</date_of_release>
<pricing><suggested_retail_price>10.5</suggested_retail_price></pricing>
<authors><author id="7"><name><first_name>A</first_name><last_name>Smith</last_name></name></author>
<author id="8"><name><last_name>Jones</last_name></name></author></authors>
<publisher><name>Acme</name></publisher></item>
<item id="2"><title>Beta</title><description>nothing</description>
<date_of_release>2001-01-01</date_of_release>
<pricing><suggested_retail_price>20</suggested_retail_price></pricing>
<publisher><name>Acme</name><fax>1</fax></publisher></item>
<item id="3"><title>Gamma &amp; Co</title><description>word_3 again</description>
<date_of_release>1999-12-31</date_of_release>
<authors><author id="9"><name><last_name>Lee</last_name></name></author></authors>
<publisher><name>Books</name></publisher></item>
<item id="4"><title>Delta</title><description>x</description>
<date_of_release>1997-03-03</date_of_release><publisher><name>Acme</name></publisher></item>
</catalog>"""

ORDERS = [
    ("order1.xml", """<order id="1"><order_date>2002-03-01</order_date>
<shipping_information><ship_type>AIR</ship_type><delivery><order_status>OPEN</order_status></delivery>
<shipping_address><street1>a</street1></shipping_address></shipping_information>
<billing_information><credit_card><cc_type>VISA</cc_type></credit_card></billing_information>
<order_lines><order_line id="1"><item_id>5</item_id><comments>fast word_2</comments></order_line>
<order_line id="2"><item_id>6</item_id></order_line></order_lines></order>"""),
    ("order2.xml", """<order id="2"><order_date>2003-01-05</order_date>
<shipping_information><ship_type>SEA</ship_type>
<shipping_address><street1>b</street1><street2>c</street2></shipping_address></shipping_information>
<order_lines><order_line id="1"><item_id>9</item_id><comments>word_2 slow</comments></order_line></order_lines></order>"""),
    ("customer.xml", """<customers><customer><c_id>1</c_id></customer></customers>"""),
]

DICTIONARY = """<dictionary>
<entry id="e1"><hw>word_1</hw><etymology>old</etymology>
<definition><def_text>first def</def_text><quote><qt>some <emphasis>mixed</emphasis> text</qt></quote></definition>
<definition><def_text>second</def_text></definition></entry>
<entry id="e2"><hw>apple_2</hw><definition><def_text>has word_3</def_text></definition></entry>
<entry id="e3"><hw>word_1</hw><definition><def_text>third</def_text></definition></entry>
</dictionary>"""

ARTICLES = [
    ("article1.xml", """<article id="1"><prolog><title>T1</title>
<date_of_publication>1999-01-01</date_of_publication></prolog>
<body><sec id="s1"><heading>Intro</heading><p>mentions word_3</p>
<sec id="s2"><heading>Inner</heading></sec></sec><sec id="s3"><heading>Next</heading></sec></body></article>"""),
    ("article2.xml", """<article id="2"><prolog><title>T2</title>
<date_of_publication>2002-05-05</date_of_publication><abstract><p>a</p></abstract></prolog>
<body><sec id="s1"><heading>Start</heading></sec></body></article>"""),
]


def test_dcsd_by_hand():
    o = ClassOracle("dcsd", [("catalog.xml", CATALOG)])
    assert o.answer("Q5", {"id": "1"}) == ["Smith"]
    assert o.answer("Q5", {"id": "2"}) == []
    assert o.answer("Q8", {"id": "1"}) == ["10.5"]
    assert o.answer("Q12", {"id": "1"}) == 1
    assert o.answer("Q12", {"id": "2"}) == 0
    window = {"from": "1995-01-01", "to": "1999-12-31"}
    assert o.answer("Q14", window) == ["Acme", "Books"]
    assert o.answer("Q17", {"word": "word_3"}) == ["Alpha", "Gamma & Co"]


def test_dcmd_by_hand_ignores_flat_documents():
    o = ClassOracle("dcmd", ORDERS)
    assert o.answer("Q5", {"id": "1"}) == ["5"]
    assert o.answer("Q8", {"id": "2"}) == ["SEA"]
    assert o.answer("Q12", {"id": "1"}) == 1
    assert o.answer("Q12", {"id": "9"}) == 0
    window = {"from": "2002-01-01", "to": "2002-12-31"}
    assert o.answer("Q14", window) == ["1"]
    assert o.answer("Q17", {"word": "word_2"}) == ["1", "2"]
    assert o.answer("Q17", {"word": "word_1"}) == []


def test_tcsd_by_hand():
    o = ClassOracle("tcsd", [("dictionary.xml", DICTIONARY)])
    assert o.answer("Q5", {"word": "word_1"}) == ["first def", "third"]
    assert o.answer("Q8", {"word": "word_1"}) == ["some mixed text"]
    assert o.answer("Q12", {"word": "word_1"}) == 2
    assert o.answer("Q14", {}) == ["apple_2", "word_1"]
    assert o.answer("Q17", {"word": "word_3"}) == ["apple_2"]


def test_tcmd_by_hand():
    o = ClassOracle("tcmd", ARTICLES)
    assert o.answer("Q5", {"id": "1"}) == ["Intro"]
    assert o.answer("Q8", {"id": "2"}) == ["T2"]
    assert o.answer("Q12", {"id": "2"}) == 1
    window = {"from": "1998-01-01", "to": "2001-12-31"}
    assert o.answer("Q14", window) == ["T1"]
    assert o.answer("Q17", {"word": "word_3"}) == ["T1"]


def test_matching_strips_tags_and_counts_q12():
    assert strip_tags("<title>Gamma &amp; Co</title>") == "Gamma & Co"
    assert strip_tags("<qt>a <emphasis>b</emphasis> c</qt>") == "a b c"
    assert strip_tags("plain") == "plain"
    assert matches("Q5", ["Smith"], ["<last_name>Smith</last_name>"])
    assert not matches("Q5", ["Smith"], ["<last_name>Jones</last_name>"])
    assert not matches("Q14", ["1", "2"], ["2", "1"])
    assert matches("Q12", 1, ["<payment_info><x/></payment_info>"])
    assert not matches("Q12", 0, ["<payment_info/>"])


@pytest.mark.parametrize("class_key,units", [
    ("dcsd", 20), ("dcmd", 25), ("tcsd", 45), ("tcmd", 8)])
def test_agrees_with_native_engine(class_key, units):
    from repro.core.indexes import indexes_for
    from repro.databases import CLASSES_BY_KEY
    from repro.engines import create
    from repro.workload import bind_params
    from repro.xml.serializer import serialize
    db_class = CLASSES_BY_KEY[class_key]
    texts = [(d.name, serialize(d)) for d in db_class.generate(units, 5)]
    o = ClassOracle(class_key, texts)
    keys = ([oracle.string_of(u.findall("hw")) for u in o.units]
            if class_key == "tcsd" else [u.get("id") for u in o.units])
    with create("native") as engine:
        engine.timed_load(db_class, texts)
        engine.create_indexes(list(indexes_for(class_key)))
        for qid in EXPERIMENT_QUERIES:
            for key in (keys if qid in POINT_QUERIES else [None]):
                params = dict(bind_params(qid, class_key, units))
                if key is not None:
                    params["word" if class_key == "tcsd" else "id"] = key
                assert matches(qid, o.answer(qid, params),
                               engine.execute(qid, params)), (qid, params)


def test_writes_to_unread_fields_keep_answers(tmp_path):
    corpus = tmp_path / "dcmd.json"
    corpus.write_text(json.dumps(ORDERS))
    request = {"corpora": {"dcmd": str(corpus)},
               "requests": [["dcmd", "Q8", {"id": "1"}],
                            ["dcmd", "Q14", {"from": "2002-01-01",
                                             "to": "2002-12-31"}]]}
    assert oracle.answer_batch(
        dict(request, writes=[["dcmd", "order_status", "X1"]])) == [
        ["AIR"], ["1"]]
    with pytest.raises(ValueError):
        oracle.answer_batch(dict(request,
                                 writes=[["dcmd", "ship_type", "X1"]]))
