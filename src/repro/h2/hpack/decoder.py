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
        """Decode a complete header block into a header list."""
        headers: List[Header] = []
        offset = 0
        while offset < len(data):
            octet = data[offset]
            if octet & 0x80:
                header, offset = self._indexed(data, offset)
            elif octet & 0x40:
                header, offset = self._literal(data, offset, prefix=6, add_to_table=True)
            elif octet & 0x20:
                if headers:
                    raise HpackError("table size update after header fields")
                new_size, offset = decode_integer(data, offset, 5)
                self._table.resize(new_size)
                continue
            else:
                # 0000 (without indexing) and 0001 (never indexed) share layout.
                header, offset = self._literal(data, offset, prefix=4, add_to_table=False)
            headers.append(header)
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
