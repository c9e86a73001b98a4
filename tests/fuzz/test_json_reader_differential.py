"""Differential fuzzing of the JSON reader: C decoder vs strict reader.

:func:`repro.json.jsonio.parse_json` accepts documents with the stdlib's
C decoder and hands everything it refuses to the strict pure-Python
reader, the reference.  So the two can only disagree where the C path
*accepts*: a value it reads differently, or a document the reference
refuses.  Every case here runs through both and must come back as a
type-exact equal value (``int`` vs ``float``, ``-0.0``, key order) or as
the same :class:`~repro.errors.ParseError` text.

Inputs are Hypothesis JSON values rendered several ways, seeded
byte-level mutations of them, and pinned edge cases.
``REPRO_FUZZ_SEEDS`` widens the budget like the rest of the harness.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.json.jsonio import (
    DEFAULT_MAX_DEPTH,
    _REFUSED,
    _read_fast,
    _read_strict,
    parse_json,
    serialize_json,
)

#: Seed budget; the CI fuzz-smoke job raises it via the environment.
FUZZ_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "6")))

#: Mutants per rendering of a seeded value, 20 values per seed.
MUTANTS = 2

#: Bytes a mutation writes: JSON's structural and number characters, the
#: literal initials, an escape, a control byte, and UTF-8 lead bytes.
MUTATION_BYTES = b'{}[]",:\\/-+.eE0123456789tfnu \t\n\x00\x1f\x7f\xc3\xef'

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


def typed(value):
    """A canonical form that tells apart what ``==`` conflates."""
    if isinstance(value, dict):
        return ("dict", tuple((key, typed(member)) for key, member in value.items()))
    if isinstance(value, list):
        return ("list", tuple(typed(item) for item in value))
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def outcome(reader, source):
    try:
        return ("value", typed(reader(source)))
    except ParseError as error:
        return ("error", str(error))


def strict(source):
    return _read_strict(source, DEFAULT_MAX_DEPTH)


def check(source):
    """Assert both readers agree on ``source``; True if the C path read it."""
    assert outcome(parse_json, source) == outcome(strict, source), source
    return _read_fast(source, DEFAULT_MAX_DEPTH) is not _REFUSED


def renderings(value):
    """The texts one value is sent as: the writer's, and stdlib variants."""
    yield serialize_json(value)
    yield json.dumps(value, ensure_ascii=False, separators=(",", ":"))
    yield json.dumps(value, indent=1)


def mutate(data, rng):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        position = rng.randrange(len(data) + 1)
        action = rng.random()
        if action < 0.4 and position < len(data):
            data[position] = rng.choice(MUTATION_BYTES)
        elif action < 0.7:
            data[position:position] = bytes([rng.choice(MUTATION_BYTES)])
        elif action < 0.85:
            del data[position:position + rng.randint(1, 4)]
        else:
            data[position:position] = data[position:position + rng.randint(1, 8)]
    return bytes(data)


def seeded_value(rng, depth=0):
    """A random JSON value from ``rng`` (Hypothesis-free, so seeded)."""
    roll = rng.random()
    if depth < 3 and roll < 0.35:
        return {
            rng.choice(["a", "b", "key", "é", ""]) + str(i): seeded_value(rng, depth + 1)
            for i in range(rng.randint(0, 4))
        }
    if depth < 3 and roll < 0.55:
        return [seeded_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return rng.choice(
        [
            None,
            True,
            False,
            rng.randint(-(10**20), 10**20),
            rng.uniform(-1e6, 1e6),
            -0.0,
            rng.choice(["", "plain", "tab\there", "quote\"d", "ü", "😀"]),
        ]
    )


@settings(max_examples=50 * len(FUZZ_SEEDS), deadline=None)
@given(json_values)
def test_generated_values_read_identically(value):
    for text in renderings(value):
        accepted = check(text)
        if "\\u" not in text and (
            text.count("{") + text.count("[") <= DEFAULT_MAX_DEPTH
        ):
            # Outside the two pre-checks a well-formed rendering of a
            # modeled value has no reason to leave the C path.
            assert accepted, text


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mutated_documents_read_identically(seed):
    rng = random.Random(seed * 7757 + 5)
    accepted = 0
    for _ in range(20):
        for text in renderings(seeded_value(rng)):
            for _ in range(MUTANTS):
                mutant = mutate(text.encode("utf-8"), rng)
                try:
                    source = mutant.decode("utf-8")
                except UnicodeDecodeError:
                    # parse_json refuses invalid UTF-8 before either reader.
                    continue
                accepted += check(source)
    assert accepted, "no mutant reached the C path; the sweep tested nothing"


#: ``name: (source, "value" or "error")``.
PINNED = {
    "duplicate-key": ('{"a": 1, "a": 2}', "error"),
    "nested-duplicate-key": ('{"a": {"b": 1, "b": 1}}', "error"),
    "nan": ("NaN", "error"),
    "infinity": ("Infinity", "error"),
    "minus-infinity": ("-Infinity", "error"),
    "nan-member": ("[1, NaN]", "error"),
    "overflow": ("1e400", "error"),
    "negative-overflow": ("-1e400", "error"),
    "underflow": ("1e-400", "value"),
    "surrogate-pair": ('"\\ud83d\\ude00"', "value"),
    "lone-high-surrogate": ('"\\ud800"', "error"),
    "lone-low-surrogate": ('"\\udc00"', "error"),
    "high-surrogate-then-char": ('"\\ud800x"', "error"),
    "depth-200": ("[" * 200 + "1" + "]" * 200, "value"),
    "depth-201": ("[" * 201 + "1" + "]" * 201, "error"),
    "object-depth-200": ('{"k": ' * 200 + "null" + "}" * 200, "value"),
    "object-depth-201": ('{"k": ' * 201 + "null" + "}" * 201, "error"),
    "raw-control-character": ('"a\x01b"', "error"),
    "raw-unit-separator": ('"a\x1fb"', "error"),
    "bom": ("\ufeff{}", "error"),
    "integer-5000-digits": ("9" * 5000, "error"),
    "member-5000-digits": ('{"host": ' + "9" * 5000 + "}", "error"),
    "integer-4300-digits": ("9" * 4300, "value"),
    "trailing-document": ("{} {}", "error"),
    "trailing-garbage": ("[1] x", "error"),
    "trailing-number": ("1 2", "error"),
    "minus-zero-int": ("-0", "value"),
    "minus-zero-float": ("-0.0", "value"),
    "number-forms": ("[0, 1.0, 1E2, -5e-1]", "value"),
    "leading-zero": ("01", "error"),
    "superscript-digit": ("[\u00b2]", "error"),
    "key-order": ('{"b": 1, "a": 2}', "value"),
    "surrounding-whitespace": (" \t\r\n[true, false, null] \n", "value"),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_cases(name):
    source, kind = PINNED[name]
    check(source)
    assert outcome(parse_json, source)[0] == kind


def test_pinned_values_keep_their_exact_types():
    assert typed(parse_json("[-0.0, -0, 1.0, 1, true]")) == typed(
        [-0.0, 0, 1.0, 1, True]
    )
    assert list(parse_json('{"b": 1, "a": 2}')) == ["b", "a"]
