"""Reading and writing bitrades as JSON documents or plain text.

Both formats carry the same data: n, q, kind, and the two parts.  Words
are serialized as integer sequences so alphabets beyond 10 symbols need
no escaping, and parts are written in lexicographic order so equal
bitrades produce byte-identical files.

JSON:  {"format_version": "1", "n": .., "q": .., "kind": ..,
        "t0": [[..], ..], "t1": [[..], ..]}
Text:  a header line "n q kind", then one line per word: the part tag
       0 or 1 followed by the n symbols, all space-separated.
"""

from __future__ import annotations

import json

from .construct import Bitrade, check_kind
from .hamming import HammingParams, Word, is_int

FORMAT_VERSION = "1"


def to_document(b: Bitrade) -> dict:
    """The canonical JSON-ready dict for a bitrade."""
    t0, t1 = b.sorted_parts()
    return {
        "format_version": FORMAT_VERSION,
        "n": b.params.n,
        "q": b.params.q,
        "kind": b.kind,
        "t0": [list(w) for w in t0],
        "t1": [list(w) for w in t1],
    }


def from_document(doc: object) -> Bitrade:
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}; expected {FORMAT_VERSION!r}")
    for key in ("n", "q", "kind", "t0", "t1"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
    params = HammingParams(doc["n"], doc["q"])
    parts = []
    for key in ("t0", "t1"):
        raw = doc[key]
        if not isinstance(raw, list):
            raise ValueError(f"{key} must be an array of words")
        words = []
        for entry in raw:
            if not isinstance(entry, list) or not all(map(is_int, entry)):
                raise ValueError(f"every word in {key} must be an array of integers")
            words.append(tuple(entry))
        if len(set(words)) != len(words):
            raise ValueError(f"duplicate word in {key}")
        parts.append(words)
    return Bitrade(params, doc["kind"], parts[0], parts[1])


def dumps_json(b: Bitrade) -> str:
    """The document one key per line, each value in compact JSON."""
    lines = (
        f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in to_document(b).items()
    )
    return "{\n" + ",\n".join(lines) + "\n}\n"


def loads_json(text: str) -> Bitrade:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"invalid JSON: {e}") from e
    return from_document(doc)


def dumps_text(b: Bitrade) -> str:
    t0, t1 = b.sorted_parts()
    lines = [f"{b.params.n} {b.params.q} {b.kind}"]
    for tag, part in ((0, t0), (1, t1)):
        lines.extend(f"{tag} " + " ".join(str(s) for s in w) for w in part)
    return "\n".join(lines) + "\n"


def loads_text(text: str) -> Bitrade:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("line 1: expected a header 'n q kind'")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"line 1: expected 'n q kind', got {lines[0]!r}")
    try:
        n, q = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"line 1: n and q must be integers, got {lines[0]!r}") from None
    kind = header[2]
    try:
        check_kind(kind)
    except ValueError as e:
        raise ValueError(f"line 1: {e}") from None
    params = HammingParams(n, q)

    parts: tuple[set[Word], set[Word]] = (set(), set())
    seen: dict[Word, int] = {}
    for number, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != n + 1:
            raise ValueError(
                f"line {number}: expected a part tag and {n} symbols, got {line!r}"
            )
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise ValueError(f"line {number}: non-integer token in {line!r}") from None
        tag, word = values[0], tuple(values[1:])
        if tag not in (0, 1):
            raise ValueError(f"line {number}: part tag must be 0 or 1, got {tag}")
        if word in seen:
            raise ValueError(
                f"line {number}: {word} already appeared on line {seen[word]}"
            )
        seen[word] = number
        parts[tag].add(word)
    try:  # in file order, so the first bad word's line is named
        params.check_words(seen)
    except ValueError as e:
        bad = next(w for w in seen if not params.contains(w))
        raise ValueError(f"line {seen[bad]}: {e}") from None
    return Bitrade(params, kind, *parts)


def save_bitrade(b: Bitrade, path: str, fmt: str = "json") -> None:
    """Write a bitrade to ``path`` in the requested format."""
    if fmt == "json":
        payload = dumps_json(b)
    elif fmt == "text":
        payload = dumps_text(b)
    else:
        raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write(payload)


def load_bitrade(path: str) -> Bitrade:
    """Read a bitrade from ``path``, sniffing the format."""
    with open(path, "r", encoding="ascii") as handle:
        text = handle.read()
    if not text.strip():
        raise ValueError(f"{path} is empty")
    if text.lstrip().startswith("{"):
        return loads_json(text)
    return loads_text(text)
