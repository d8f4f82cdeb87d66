"""JSON and CSV helpers shared by every loader and writer.

Malformed input becomes a :class:`ParseError` naming the file; filesystem
trouble stays an :class:`OSError`.  Every JSON format reads its objects
through :func:`fields`, so a missing or mistyped field reads the same in
each.  The :mod:`csv` module quotes any field containing ``,``, ``"``, CR
or LF, so every row round-trips.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
from collections.abc import Mapping
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a file that is not valid UTF-8."""
    return ParseError(f"not valid UTF-8: {exc.reason} (byte {exc.object[exc.start]:#04x})", source=str(path))


def nonempty_path(path: str | Path) -> Path:
    """``path`` as a Path; an empty one is missing, not the working directory ``Path("")`` names."""
    if path == "":
        raise FileNotFoundError("'': path does not exist")
    return Path(path)


def read_json(path: str | Path):
    """The decoded contents of a UTF-8 JSON file; a leading byte-order mark is skipped."""
    with open(path, "rb", buffering=0) as fh:  # one read, and no buffer or text layer per file
        raw = fh.read()
    utf8 = codecs.getincrementaldecoder("utf-8-sig")()
    try:  # text mode's decoders: line ends read as "\n", so a JSON error names the same offsets
        text = io.IncrementalNewlineDecoder(utf8, translate=True).decode(raw, final=True)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer over the digit limit, or deep nesting
        raise ParseError(f"invalid JSON: {exc}", source=str(path)) from exc


class IndexView(Mapping):
    """A read-only view of an index ``{group: {last key field: value}}``, keyed by whole key tuples.

    A group is a key's first field, or the tuple of its leading fields.  The view iterates group by
    group, then in each group's order; any key but a tuple of two or more fields is missing.
    """

    __slots__ = ("index", "_len")

    def __init__(self, index: dict) -> None:
        self.index, self._len = index, sum(map(len, index.values()))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, key: tuple):
        if isinstance(key, tuple) and len(key) >= 2:
            try:  # a tuple first field is never a group by itself, so (("a", "b"), "c") is not ("a", "b", "c")
                return self.index[key[:-1] if len(key) > 2 or isinstance(key[0], tuple) else key[0]][key[-1]]
            except (KeyError, TypeError):  # no such value, or an unhashable field
                pass
        raise KeyError(key)

    def __iter__(self):
        for group, values in self.index.items():
            head = group if isinstance(group, tuple) else (group,)
            for last in values:
                yield (*head, last)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def check_keys(keys: Iterable, names: Sequence[str], where: str) -> None:
    """Raise ValidationError, prefixed ``where``, naming the first of ``keys`` that is not a tuple of strings named ``names``."""
    types = (str,) * len(names)
    for key in keys:
        if not (isinstance(key, tuple) and len(key) == len(types) and all(map(isinstance, key, types))):
            raise ValidationError(f"{where}key {key!r} is not a ({', '.join(names)}) tuple of strings")


NUMBER = (int, float)

_BOOL_REJECTED = {int: "an integer", NUMBER: "a number"}  # bool subclasses int but is neither


def fields(obj, spec: dict, where: str, source: str) -> list:
    """``obj``'s values for the keys of ``spec``, in spec order.

    ``spec`` maps each required key to its type (a class or a tuple of
    classes); a bool is never an ``int`` or a :data:`NUMBER`.  A non-object,
    a missing key or a value of another type is a ParseError naming
    ``source``, ``where`` and the key.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object", source=source)
    values = []
    for key, kind in spec.items():
        if key not in obj:
            raise ParseError(f"{where}: missing field {key!r}", source=source)
        val = obj[key]
        if type(val) is not kind:  # a value of exactly its type, as json decodes it, passes both checks
            if isinstance(val, bool) and kind in _BOOL_REJECTED:
                raise ParseError(f"{where}: field {key!r} must be {_BOOL_REJECTED[kind]}", source=source)
            if not isinstance(val, kind):
                expected = "number" if kind is NUMBER else kind.__name__
                raise ParseError(
                    f"{where}: field {key!r} has type {type(val).__name__}, expected {expected}", source=source
                )
        values.append(val)
    return values


def str_list(val: list, key: str, where: str, source: str) -> tuple[str, ...]:
    """The list ``val`` of field ``key`` as a tuple, when every item is a string."""
    if not all(isinstance(x, str) for x in val):
        raise ParseError(f"{where}: field {key!r} must be a list of strings", source=source)
    return tuple(val)


def read_csv(path: str | Path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, row)`` for each non-blank data row of a CSV file.

    ``lineno`` counts CSV records, header = 1.  The first row must equal
    ``header`` (after a leading byte-order mark, which is skipped) and every
    data row must have as many fields.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        lineno = 0  # the last record read whole
        try:
            got = next(reader, None)
            if got is None:
                raise ParseError("empty file", source=str(path))
            if got != header:
                raise ParseError(f"bad header {got!r}, expected {header!r}", source=str(path))
            lineno = 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"line {lineno}: expected {len(header)} fields, got {len(row)}",
                        source=str(path),
                    )
                yield lineno, row
        except UnicodeDecodeError as exc:  # raised while the reader pulls lines
            raise not_utf8(path, exc) from exc
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ParseError(f"line {lineno + 1}: {exc}", source=str(path)) from exc


def load_csv(path: Path, header: list[str], load: Callable, first_fault: Callable):
    """``load(rows)`` over the non-blank data rows of a CSV file, read once with no line numbers.

    ``load`` returns None for a file it does not vouch for (one holding a
    duplicate, say).  On None, a wrong header, a ValueError (a row of the
    wrong length, a bad number, bytes that are not UTF-8) or a csv.Error,
    the file is read again by :func:`read_csv`, and ``first_fault(numbered
    rows, source)`` raises the ParseError naming the line of the first fault.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) == header:
                table = load(filter(None, reader))
                if table is not None:
                    return table
    except (ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        pass
    first_fault(read_csv(path, header), str(path))
    raise ParseError("rejected in one pass but not line by line; did it change while read?", source=str(path))


def _lf_writer(write):
    """A csv writer calling ``write`` once per row, LF-terminated; CRLF rendering quotes a lone CR on 3.10-3.12."""
    return csv.writer(SimpleNamespace(write=lambda row: write(row[:-2] + "\n")))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` then ``rows`` as UTF-8 CSV with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _lf_writer(fh.write)
        writer.writerow(header)
        writer.writerows(rows)


def csv_row(row: Sequence) -> str:
    """``row`` as :func:`write_csv` renders it, line end included."""
    return _lf_writer(str).writerow(row)  # writerow returns what write returns

