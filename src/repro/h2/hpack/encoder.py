"""HPACK header block encoder (RFC 7541 §6).

The encoder prefers, in order: an indexed representation (static or
dynamic exact match), a literal with incremental indexing and an
indexed name, and a literal with new name.  String literals use Huffman
coding when that is shorter.  Sensitive headers (e.g. cookies in some
deployments) may be emitted as never-indexed literals.

Everything about a field that depends on the ``(name, value)`` pair
alone — and not on what the dynamic table holds right now — is worked
out once per distinct pair and kept as a *field plan*; per field,
:meth:`HpackEncoder.encode` probes the plan memo and then asks the
dynamic table the one question left: is the entry in there?
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

from .dynamic_table import DynamicTable, entry_size
from .huffman import huffman_encode, huffman_encoded_length
from .integers import encode_integer
from .static_table import STATIC_TABLE_SIZE, lookup_exact, lookup_name

Header = Tuple[str, str]

#: Indexed header field (pattern ``1xxxxxxx``) for indices up to 254:
#: one octet below 127 (the whole static table and the near end of the
#: dynamic one), ``0xFF`` and one continuation-free octet from 127 on —
#: a default 4 096-octet table holds ~90 entries, so the far end of it
#: passes 127.  Only 255 and above need ``encode_integer``.
_INDEXED_FIELD = tuple(bytes([0x80 | i]) for i in range(127)) + tuple(
    bytes([0xFF, i - 127]) for i in range(127, 255)
)


class _FieldPlan(NamedTuple):
    """The table-independent part of encoding one header field."""

    #: Lower-cased name, and the ``(name, value)`` tuple that goes into
    #: the dynamic table and keys its maps (one object, never rebuilt).
    name: str
    entry: Header
    #: ``entry_size(name, value)``.
    size: int
    #: The whole field as one octet if the static table has the pair.
    indexed: Optional[bytes]
    #: ``01`` pattern with the static name index, if the name has one.
    name_prefix: Optional[bytes]
    #: The name as a string literal, if it has no static index.
    name_literal: Optional[bytes]
    value_literal: bytes


#: Plans by header pair *as passed* (any case), so the hot loop neither
#: lower-cases nor rebuilds a key.  Names and most values (methods,
#: status codes, content types, hostnames) repeat heavily across
#: requests; bounded so pathological value diversity (e.g. unique URLs)
#: cannot grow it without limit.
_FIELD_PLANS: dict = {}
_FIELD_PLANS_MAX = 8192


def _encode_string(text: str) -> bytes:
    raw = text.encode("ascii")
    if huffman_encoded_length(raw) < len(raw):
        huff = huffman_encode(raw)
        return encode_integer(len(huff), 7, 0x80) + huff
    return encode_integer(len(raw), 7, 0x00) + raw


def _plan_field(field: Header) -> _FieldPlan:
    name, value = field
    entry = field
    if name != name.lower():
        name = name.lower()
        entry = (name, value)
    size = entry_size(name, value)  # rejects non-ASCII before any literal is built
    static_exact = lookup_exact(name, value)
    static_name = lookup_name(name)
    plan = _FieldPlan(
        name=name,
        entry=entry,
        size=size,
        indexed=None if static_exact is None else _INDEXED_FIELD[static_exact],
        name_prefix=None if static_name is None else bytes([0x40 | static_name]),
        name_literal=_encode_string(name) if static_name is None else None,
        value_literal=_encode_string(value),
    )
    if len(_FIELD_PLANS) >= _FIELD_PLANS_MAX:
        _FIELD_PLANS.clear()
    _FIELD_PLANS[field] = plan
    return plan


class HpackEncoder:
    """Stateful encoder; one per connection direction."""

    def __init__(self, max_table_size: int = 4096):
        self._table = DynamicTable(max_table_size)
        #: The size this encoder uses where the peer allows it.
        self._wanted_size = max_table_size
        #: Table size updates for the next block: the smallest size
        #: since the last block, then the size now if it is larger.
        self._pending_resize: List[int] = []

    @property
    def table(self) -> DynamicTable:
        return self._table

    def set_max_table_size(self, size: int) -> None:
        """The peer's SETTINGS_HEADER_TABLE_SIZE is now ``size``: the
        table takes the smaller of it and the wanted size at once, and
        the next block signals the smallest size the table had since
        the last block, then its final size (RFC 7541 §4.2)."""
        table = self._table
        table.set_protocol_max(size)
        table.resize(min(size, self._wanted_size))
        size = table.max_size
        pending = self._pending_resize
        smallest = min(pending[0], size) if pending else size
        self._pending_resize = [smallest] if smallest == size else [smallest, size]

    def encode(
        self,
        headers: Iterable[Header],
        sensitive: Iterable[str] = (),
        fields: Optional[List[Header]] = None,
    ) -> bytes:
        """Encode a complete header list into a header block.

        A ``fields`` list receives what :meth:`HpackDecoder.decode`
        returns for the block: each field as a ``(name, value)`` tuple,
        its name lower-cased, in order.
        """
        sensitive_names = {name.lower() for name in sensitive} if sensitive else ()
        parts: List[bytes] = []
        append = parts.append
        add_field = (fields if fields is not None else []).append
        if self._pending_resize:
            for size in self._pending_resize:
                append(encode_integer(size, 5, 0x20))
            self._pending_resize.clear()
        plan_of = _FIELD_PLANS.get
        table = self._table
        # The table's maps hold live insertion ids only (see
        # DynamicTable), read here without a call per field.
        exact_ids = table._exact_ids
        name_ids = table._name_ids
        for field in headers:
            if field.__class__ is not tuple:
                field = tuple(field)
            plan = plan_of(field)
            if plan is None:
                plan = _plan_field(field)
            name, entry, size, indexed, name_prefix, name_literal, value_literal = plan
            add_field(entry)
            if sensitive_names and name in sensitive_names:
                append(self._never_indexed(plan))
                continue
            if indexed is not None:
                append(indexed)
                continue
            entry_id = exact_ids.get(entry)
            if entry_id is not None:
                index = STATIC_TABLE_SIZE + table._next_id - entry_id
                append(_INDEXED_FIELD[index] if index < 255 else encode_integer(index, 7, 0x80))
                continue
            # Literal with incremental indexing (pattern 01, 6-bit
            # prefix).  A dynamic name index is read before the insert
            # shifts every index by one.
            if name_prefix is None:
                name_id = name_ids.get(name)
                if name_id is None:
                    append(b"\x40")
                    append(name_literal)
                else:
                    index = STATIC_TABLE_SIZE + table._next_id - name_id
                    append(encode_integer(index, 6, 0x40))
            else:
                append(name_prefix)
            table.add(entry, size)
            append(value_literal)
        return b"".join(parts)

    def _never_indexed(self, plan: _FieldPlan) -> bytes:
        """Literal never indexed (pattern 0001, 4-bit prefix)."""
        name_index = lookup_name(plan.name) or self._table.find(*plan.entry)[1]
        if name_index is not None:
            return encode_integer(name_index, 4, 0x10) + plan.value_literal
        return b"\x10" + plan.name_literal + plan.value_literal
