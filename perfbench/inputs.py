"""Seeded inputs for every workload, with their reference outputs.

Every generator takes a ``random.Random`` built from the run's seed, so
the same seed gives the same documents.  The seed varies content only:
document sizes are drawn from fixed ranges, so the cost distribution of
a workload does not depend on the seed.

Each served document gets its expected output from an independent path
(the ``DTOP.apply`` interpreter, or the local pipeline, which runs the
origin-tracking interpreter) and, where the repository has one, from a
plain-Python reference as well.  The two must agree; the served output
is then compared with them byte for byte.  The fresh ``bulk`` documents
are made while the run goes on, so there the plain-Python reference
checks every document and the interpreter every ``FRESH_CROSS_CHECK``-th
one.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.json.jsonio import parse_json, serialize_json
from repro.trees.tree import Tree, parse_term
from repro.workloads import jsonwl
from repro.workloads.flip import flip_input, flip_output
from repro.workloads.library import transform_library
from repro.workloads.xmlflip import transform_xmlflip, xmlflip_document
from repro.xml.unranked import element, text
from repro.xml.xmlio import parse_xml, serialize_xml

#: Every stock model, in the round-robin order of ``interactive``.
STOCK_MODELS = (
    "flip@1",
    "swap@1",
    "cycle4@1",
    "rotate3@1",
    "swap-twice@1",
    "xmlflip@1",
    "library@1",
    "addressbook@1",
    "identity-json@1",
    "rename-json@1",
    "wrap-json@1",
    "defaults-json@1",
    "redact-json@1",
)

#: Distinct documents generated per model for ``interactive``.
INTERACTIVE_DOCS_PER_MODEL = 240

#: The kinds of ``bulk`` stream, in the order one cycle sends them.
BULK_KINDS = ("json", "xml", "fresh")
#: Documents in one JSON stream: above the server's default
#: ``--max-pending`` of 1024, as a batch client would send.
JSON_STREAM_DOCS = 2000
#: Documents in one XML stream (two full batches of 32).
XML_STREAM_DOCS = 64
#: Children per XML stream document.
XML_STREAM_CHILDREN = (10, 40)
#: JSON and XML streams generated per run; the run cycles over them.
BULK_STREAMS = 2
#: Documents in one fresh stream (eight full batches of 32), below
#: ``--max-pending``.
FRESH_STREAM_DOCS = 256
#: Every ``FRESH_CROSS_CHECK``-th fresh document is also run through the
#: local pipeline, which must agree with the plain-Python reference.
FRESH_CROSS_CHECK = 8

#: Keys that ``rename-json@1`` cannot collide on: a document holding
#: both ``pwd`` and ``password`` renames into a duplicate key, which is
#: a correct error but not what these workloads measure.
SAFE_KEYS = tuple(
    key for key in jsonwl.CONFIG_KEYS if key not in ("username", "password")
)

_WORDS = ("al", "am", "ada", "db", "h1", "x", "config", "v2", "grace", "42a")

JSON_REFERENCES: Dict[str, Callable] = {
    "identity-json@1": jsonwl.reference_identity,
    "rename-json@1": jsonwl.reference_rename,
    "wrap-json@1": jsonwl.reference_wrap,
    "defaults-json@1": jsonwl.reference_defaults,
    "redact-json@1": jsonwl.reference_redact,
}


# ----------------------------------------------------------------------
# Document generators
# ----------------------------------------------------------------------


def _list_term(symbol: str, length: int) -> Tree:
    node = Tree("#", ())
    for _ in range(length):
        node = Tree(symbol, (Tree("#", ()), node))
    return node


def _word(rng: random.Random) -> str:
    return rng.choice(_WORDS) + str(rng.randrange(1000))


def _json_value(rng: random.Random, scalars: bool, depth: int = 0):
    """A config-shaped document; ``scalars`` picks strings and numbers
    at the leaves, otherwise only ``true``/``false``/``null``."""
    if depth < 2 and rng.random() < 0.7:
        if rng.random() < 0.7:
            keys = sorted(rng.sample(SAFE_KEYS, rng.randint(1, 4)))
            return {key: _json_value(rng, scalars, depth + 1) for key in keys}
        return [_json_value(rng, scalars, depth + 1) for _ in range(rng.randint(0, 3))]
    if scalars:
        return rng.choice([_word(rng), rng.randint(-9999, 9999), _word(rng)])
    return rng.choice([True, False, None])


def _has_scalar(value) -> bool:
    if isinstance(value, dict):
        return any(_has_scalar(item) for item in value.values())
    if isinstance(value, list):
        return any(_has_scalar(item) for item in value)
    return isinstance(value, (str, int, float)) and not isinstance(value, bool)


def json_document(rng: random.Random, scalars: bool) -> str:
    """One JSON document; with ``scalars`` it always carries one."""
    while True:
        value = _json_value(rng, scalars)
        if _has_scalar(value) == scalars:
            return serialize_json(value)


def _term_document(model: str, rng: random.Random) -> str:
    if model in ("flip@1", "swap@1", "swap-twice@1"):
        return str(flip_input(rng.randint(0, 4), rng.randint(0, 4)))
    if model == "cycle4@1":
        node = Tree("e", ())
        for _ in range(rng.randint(0, 8)):
            node = Tree("a", (node,))
        return str(node)
    if model == "rotate3@1":
        return str(
            Tree("root", tuple(_list_term(f"s{i}", rng.randint(0, 3)) for i in range(3)))
        )
    raise ValueError(model)


def _xml_document(model: str, rng: random.Random) -> str:
    if model == "xmlflip@1":
        document = xmlflip_document(rng.randint(0, 3), rng.randint(0, 3))
    elif model == "library@1":
        document = element(
            "LIBRARY",
            *(
                element(
                    "BOOK",
                    element("AUTHOR", text(_word(rng))),
                    element("TITLE", text(_word(rng))),
                    element("YEAR", text(str(rng.randint(1900, 2030)))),
                )
                for _ in range(rng.randint(0, 3))
            ),
        )
    elif model == "addressbook@1":
        document = element(
            "CONTACTS",
            *(
                element(
                    "PERSON",
                    element("NAME", text(_word(rng))),
                    element("EMAIL", text(_word(rng) + "@example.org")),
                    element("PHONE", text(str(rng.randint(1000, 9999)))),
                )
                for _ in range(rng.randint(0, 3))
            ),
        )
    else:
        raise ValueError(model)
    return serialize_xml(document, indent=None)


def document_for(model: str, rng: random.Random, index: int) -> str:
    """A small document in the model's own syntax.

    JSON models alternate between scalar-free and scalar-carrying
    documents; XML models mix documents with and without text (a
    library or address book may be empty, ``xmlflip`` never has text).
    """
    if model.endswith("-json@1"):
        return json_document(rng, scalars=index % 2 == 1)
    if model in ("xmlflip@1", "library@1", "addressbook@1"):
        return _xml_document(model, rng)
    return _term_document(model, rng)


def interactive_requests(rng: random.Random) -> List[Tuple[str, str]]:
    """``(model, document)`` pairs, round-robin over the stock models."""
    requests = []
    for index in range(INTERACTIVE_DOCS_PER_MODEL):
        for model in STOCK_MODELS:
            requests.append((model, document_for(model, rng, index)))
    return requests


def json_stream(rng: random.Random) -> List[str]:
    """A JSON stream: scalar-carrying config documents."""
    return [json_document(rng, scalars=True) for _ in range(JSON_STREAM_DOCS)]


def xml_stream(rng: random.Random) -> List[str]:
    """An XML stream: wide, value-free ``xmlflip`` documents.

    An ``xmlflip`` document has no content but its number of ``a`` and
    ``b`` children.  Every stream holds the same widths and a/b splits
    (encode time grows with the list lengths), so every stream of every
    seed holds the same 64 documents; the seed only orders them.
    """
    low, high = XML_STREAM_CHILDREN
    steps = range(XML_STREAM_DOCS)
    widths = [low + (high - low) * step // (XML_STREAM_DOCS - 1) for step in steps]
    shares = [step / (XML_STREAM_DOCS - 1) for step in steps]
    rng.shuffle(widths)
    rng.shuffle(shares)
    documents = []
    for width, share in zip(widths, shares):
        n_as = round(width * share)
        documents.append(
            serialize_xml(xmlflip_document(n_as, width - n_as), indent=None)
        )
    return documents


def _config(rng: random.Random, depth: int):
    """A scalar-free config value: objects and arrays over booleans and null."""
    if depth < 3 and rng.random() < 0.6:
        if rng.random() < 0.75:
            keys = sorted(rng.sample(SAFE_KEYS, rng.randint(2, 5)))
            return {key: _config(rng, depth + 1) for key in keys}
        return [_config(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    return rng.choice([True, False, None])


def stream_body(model: str, documents: List[str]) -> bytes:
    """The ``transform_stream`` body: JSON lines, or one wrapping root."""
    if model.endswith("-json@1"):
        return ("\n".join(documents) + "\n").encode("utf-8")
    return ("<batch>" + "".join(documents) + "</batch>").encode("utf-8")


class Stream(NamedTuple):
    """One ``transform_stream`` request and its expected outputs."""

    kind: str
    model: str
    documents: List[str]
    body: bytes
    expected: List[str]


class StreamPool:
    """The JSON or XML streams of a ``bulk`` run, cycled by index."""

    def __init__(self, kind: str, model: str, documents: List[List[str]], expected: List[List[str]]):
        self.streams = [
            Stream(kind, model, stream, stream_body(model, stream), want)
            for stream, want in zip(documents, expected)
        ]

    def stream(self, index: int) -> Stream:
        return self.streams[index % len(self.streams)]


class FreshStreams:
    """The fresh streams of a ``bulk`` run: new documents for every index.

    Each document is a scalar-free config for ``rename-json@1``, three
    levels deep.  Scalar-free documents take the compiled engine, and
    documents drawn afresh give it trees it has not seen (their shared
    subtrees still hit its memo).  Streams are made on first use, in
    index order, so the same seed gives the same streams.
    """

    model = "rename-json@1"

    def __init__(self, rng: random.Random, registry):
        self.rng = rng
        self.registry = registry
        self.streams: List[Stream] = []

    def stream(self, index: int) -> Stream:
        while len(self.streams) <= index:
            self.streams.append(self._make())
        return self.streams[index]

    def _make(self) -> Stream:
        documents, expected = [], []
        for position in range(FRESH_STREAM_DOCS):
            keys = sorted(self.rng.sample(SAFE_KEYS, self.rng.randint(3, 6)))
            value = {key: _config(self.rng, 1) for key in keys}
            document = serialize_json(value)
            if position % FRESH_CROSS_CHECK == 0:
                want = reference_output(self.registry, self.model, document)
            else:
                want = serialize_json(jsonwl.reference_rename(value))
            documents.append(document)
            expected.append(want)
        return Stream("fresh", self.model, documents, stream_body(self.model, documents), expected)


class BulkStreams:
    """Every stream of a ``bulk`` run: one of each kind in turn.

    Stream ``index`` is of kind ``BULK_KINDS[index % 3]``; three streams
    in a row, starting at a multiple of 3, make one cycle.
    """

    def __init__(self, pools: Dict[str, object]):
        self.pools = pools

    def stream(self, index: int) -> Stream:
        cycle, position = divmod(index, len(BULK_KINDS))
        return self.pools[BULK_KINDS[position]].stream(cycle)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------


def _plain_reference(model: str, document: str) -> Optional[str]:
    """The plain-Python reference output, where the repository has one."""
    if model in JSON_REFERENCES:
        return serialize_json(JSON_REFERENCES[model](parse_json(document)))
    if model == "xmlflip@1":
        return serialize_xml(
            transform_xmlflip(parse_xml(document, ignore_attributes=True))
        )
    if model == "library@1":
        return serialize_xml(
            transform_library(parse_xml(document, ignore_attributes=True))
        )
    if model == "flip@1":
        tree = parse_term(document)
        lengths = [_list_length(child) for child in tree.children]
        return str(flip_output(*lengths))
    if model == "swap-twice@1":
        return str(parse_term(document))
    return None


def _list_length(node: Tree) -> int:
    length = 0
    while node.children:
        node = node.children[1]
        length += 1
    return length


def reference_output(registry, model: str, document: str) -> str:
    """The expected served output of ``document`` under ``model``.

    ``registry`` is a :class:`~repro.server.registry.ModelRegistry`
    loaded in this process; its entries supply the machines, and the
    interpreters that run here share no code with the compiled engine
    the server runs.
    """
    entry = registry.get(model)
    parsed = entry.parse_document(document)
    if entry.kind == "dtop":
        rendered = str(entry.machine.apply(parsed))
    else:
        rendered = entry.render_output(entry.transformation.apply(parsed))
    plain = _plain_reference(model, document)
    if plain is not None and plain != rendered:
        raise AssertionError(
            f"references disagree for {model} on {document!r}: "
            f"{rendered!r} != {plain!r}"
        )
    return rendered
