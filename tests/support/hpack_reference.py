"""Reference HPACK codec: every decision re-derived for every field.

``repro.h2.hpack.HpackEncoder`` plans each distinct ``(name, value)``
pair once, reads the dynamic table's maps directly and writes indices
up to 254 from a table of ready octets.  This is the per-field encoder
it replaced — lower-case, two static lookups, ``DynamicTable.find``,
``entry_size``, ``encode_integer`` and a fresh Huffman-or-raw literal
per encoded field — and a decoder that takes ``decode_integer`` and
``DynamicTable.get`` per field, as ``HpackDecoder`` does again now that
it has no in-loop fast paths.  Both work through public calls only, so
the property suite (``tests/property/test_property_hpack.py``) has
something independent to compare against: same bytes, same headers,
same errors, same table afterwards.
"""

from repro.errors import HpackError
from repro.h2.hpack import (
    STATIC_TABLE,
    STATIC_TABLE_SIZE,
    DynamicTable,
    decode_integer,
    encode_integer,
    entry_size,
    huffman_decode,
    huffman_encode,
    huffman_encoded_length,
    lookup_exact,
    lookup_name,
)


def encode_string_reference(text: str) -> bytes:
    raw = text.encode("ascii")
    if huffman_encoded_length(raw) < len(raw):
        huff = huffman_encode(raw)
        return encode_integer(len(huff), 7, 0x80) + huff
    return encode_integer(len(raw), 7, 0x00) + raw


class ReferenceHpackEncoder:
    """Same interface as ``HpackEncoder``; shares no code with it."""

    def __init__(self, max_table_size: int = 4096):
        self.table = DynamicTable(max_table_size)
        self._initial_size = max_table_size
        #: Every size the table took since the last block, in order.
        self._sizes_since_block = []

    def set_max_table_size(self, size: int) -> None:
        self.table.set_protocol_max(size)
        self.table.resize(min(size, self._initial_size))
        self._sizes_since_block.append(self.table.max_size)

    def encode(self, headers, sensitive=()) -> bytes:
        sensitive_names = {name.lower() for name in sensitive}
        out = bytearray()
        if self._sizes_since_block:
            # RFC 7541 §4.2: the smallest size in the interval, then the
            # final size if the table grew back from it.
            smallest, final = min(self._sizes_since_block), self._sizes_since_block[-1]
            out.extend(encode_integer(smallest, 5, 0x20))
            if final != smallest:
                out.extend(encode_integer(final, 5, 0x20))
        self._sizes_since_block = []
        for name, value in headers:
            name = name.lower()
            entry_size(name, value)  # the one rule: non-ASCII is an HpackError
            out.extend(self._encode_field(name, value, name in sensitive_names))
        return bytes(out)

    def _encode_field(self, name: str, value: str, is_sensitive: bool) -> bytes:
        if is_sensitive:
            return self._never_indexed(name, value)
        static_exact = lookup_exact(name, value)
        if static_exact is not None:
            return encode_integer(static_exact, 7, 0x80)
        dynamic_exact, dynamic_name = self.table.find(name, value)
        if dynamic_exact is not None:
            return encode_integer(dynamic_exact, 7, 0x80)
        # Literal with incremental indexing (pattern 01, 6-bit prefix).
        self.table.add((name, value), entry_size(name, value))
        name_index = lookup_name(name) or dynamic_name
        if name_index is not None:
            return encode_integer(name_index, 6, 0x40) + encode_string_reference(value)
        return b"\x40" + encode_string_reference(name) + encode_string_reference(value)

    def _never_indexed(self, name: str, value: str) -> bytes:
        name_index = lookup_name(name) or self.table.find(name, value)[1]
        if name_index is not None:
            return encode_integer(name_index, 4, 0x10) + encode_string_reference(value)
        return b"\x10" + encode_string_reference(name) + encode_string_reference(value)


class ReferenceHpackDecoder:
    """The decoder before its one-octet fast paths: every field through
    ``decode_integer`` and ``DynamicTable.get``, sizes from ``entry_size``."""

    def __init__(self, max_table_size: int = 4096):
        self.table = DynamicTable(max_table_size)

    def decode(self, data: bytes):
        headers = []
        offset = 0
        seen_field = False
        while offset < len(data):
            octet = data[offset]
            if octet & 0x80:
                index, offset = decode_integer(data, offset, 7)
                if index == 0:
                    raise HpackError("indexed representation with index 0")
                headers.append(self._resolve(index))
                seen_field = True
            elif octet & 0xC0 == 0x40:
                header, offset = self._literal(data, offset, 6)
                self.table.add(header, entry_size(*header))
                headers.append(header)
                seen_field = True
            elif octet & 0xE0 == 0x20:
                if seen_field:
                    raise HpackError("table size update after header fields")
                new_size, offset = decode_integer(data, offset, 5)
                self.table.resize(new_size)
            else:
                header, offset = self._literal(data, offset, 4)
                headers.append(header)
                seen_field = True
        return headers

    def _literal(self, data: bytes, offset: int, prefix: int):
        name_index, offset = decode_integer(data, offset, prefix)
        if name_index:
            name = self._resolve(name_index)[0]
        else:
            name, offset = self._string(data, offset)
        value, offset = self._string(data, offset)
        return (name, value), offset

    def _resolve(self, index: int):
        if 1 <= index <= STATIC_TABLE_SIZE:
            return STATIC_TABLE[index]
        return self.table.get(index)

    @staticmethod
    def _string(data: bytes, offset: int):
        if offset >= len(data):
            raise HpackError("string extends past end of block")
        huffman = bool(data[offset] & 0x80)
        length, offset = decode_integer(data, offset, 7)
        if offset + length > len(data):
            raise HpackError("string literal longer than block")
        raw = data[offset : offset + length]
        if huffman:
            raw = huffman_decode(raw)
        if not raw.isascii():
            raise HpackError("non-ASCII octet in string literal")
        return raw.decode("ascii"), offset + length
