"""HPACK header block decoder (RFC 7541 §6)."""

from __future__ import annotations

from typing import List, Tuple

from ...errors import HpackError
from .dynamic_table import ENTRY_OVERHEAD, DynamicTable
from .huffman import huffman_decode
from .integers import decode_integer
from .static_table import STATIC_TABLE, STATIC_TABLE_SIZE

Header = Tuple[str, str]


class HpackDecoder:
    """Stateful decoder; one per connection direction."""

    def __init__(self, max_table_size: int = 4096):
        self._table = DynamicTable(max_table_size)

    @property
    def table(self) -> DynamicTable:
        return self._table

    def set_max_table_size(self, size: int) -> None:
        """Apply a new SETTINGS_HEADER_TABLE_SIZE bound."""
        self._table.set_protocol_max(size)

    def decode(self, data: bytes) -> List[Header]:
        """Decode a complete header block into a header list.

        Nearly every field on the wire is an index that fits its first
        octet (``1xxxxxxx`` below 127, ``01xxxxxx`` between 1 and 62)
        or ``0xFF`` and one more (127 to 254); those are resolved right
        here.  Longer integers, new-name and non-indexed literals take
        the general ``_indexed`` / ``_literal`` route.
        """
        headers: List[Header] = []
        append = headers.append
        table = self._table
        entries = table._entries
        offset = 0
        end = len(data)
        while offset < end:
            octet = data[offset]
            if octet & 0x80:
                index = octet & 0x7F
                if index == 0x7F:
                    # 0xFF and a final octet (continuation bit clear) is
                    # 127..254: always the dynamic table.
                    if offset + 1 < end and data[offset + 1] < 0x80:
                        index = 0x7F + data[offset + 1]
                        position = index - STATIC_TABLE_SIZE - 1
                        if position >= len(entries):
                            raise HpackError(f"dynamic table index {index} out of range")
                        header = entries[position]
                        offset += 2
                    else:
                        header, offset = self._indexed(data, offset)
                elif index > STATIC_TABLE_SIZE:
                    position = index - STATIC_TABLE_SIZE - 1
                    if position >= len(entries):
                        raise HpackError(f"dynamic table index {index} out of range")
                    header = entries[position]
                    offset += 1
                elif index:
                    header = STATIC_TABLE[index]
                    offset += 1
                else:
                    raise HpackError("indexed representation with index 0")
            elif octet & 0x40:
                index = octet & 0x3F
                if index == 0 or index == 0x3F:
                    header, offset = self._literal(data, offset, prefix=6, add_to_table=True)
                else:
                    if index <= STATIC_TABLE_SIZE:
                        name = STATIC_TABLE[index][0]
                    elif entries:
                        # 62 is all a one-octet name index can reach
                        # into the dynamic table: its newest entry.
                        name = entries[0][0]
                    else:
                        raise HpackError(f"dynamic table index {index} out of range")
                    value, offset = self._decode_string(data, offset + 1)
                    header = (name, value)
                    # Decoded strings are ASCII: characters are octets.
                    table.add(header, len(name) + len(value) + ENTRY_OVERHEAD)
            elif octet & 0x20:
                if headers:
                    raise HpackError("table size update after header fields")
                new_size, offset = decode_integer(data, offset, 5)
                table.resize(new_size)
                continue
            else:
                # 0000 (without indexing) and 0001 (never indexed) share layout.
                header, offset = self._literal(data, offset, prefix=4, add_to_table=False)
            append(header)
        return headers

    def _indexed(self, data: bytes, offset: int) -> Tuple[Header, int]:
        index, offset = decode_integer(data, offset, 7)
        if index == 0:
            raise HpackError("indexed representation with index 0")
        return self._resolve(index), offset

    def _literal(
        self, data: bytes, offset: int, prefix: int, add_to_table: bool
    ) -> Tuple[Header, int]:
        name_index, offset = decode_integer(data, offset, prefix)
        if name_index:
            name = self._resolve(name_index)[0]
        else:
            name, offset = self._decode_string(data, offset)
        value, offset = self._decode_string(data, offset)
        header = (name, value)
        if add_to_table:
            self._table.add(header, len(name) + len(value) + ENTRY_OVERHEAD)
        return header, offset

    def _resolve(self, index: int) -> Header:
        if 1 <= index <= STATIC_TABLE_SIZE:
            return STATIC_TABLE[index]
        return self._table.get(index)

    def _decode_string(self, data: bytes, offset: int) -> Tuple[str, int]:
        if offset >= len(data):
            raise HpackError("string extends past end of block")
        first = data[offset]
        length = first & 0x7F
        if length == 0x7F:
            length, offset = decode_integer(data, offset, 7)
        else:
            offset += 1
        end = offset + length
        if end > len(data):
            raise HpackError("string literal longer than block")
        raw = data[offset:end]
        if first & 0x80:
            raw = huffman_decode(raw)
        try:
            return raw.decode("ascii"), end
        except UnicodeDecodeError:
            raise HpackError("non-ASCII octet in string literal") from None
