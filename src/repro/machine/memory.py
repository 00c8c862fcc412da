"""Flat byte-addressable memory with permissioned segments.

The model is deliberately simple: a process image is a set of disjoint
segments (code, data, stack, heap, code cache), each a contiguous
bytearray with read/write/execute permissions.  Accesses outside any
segment, or violating permissions, raise :class:`SegmentationFault` —
the modelled outcome a failed ROP attempt typically produces.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..errors import ConfigError, SegmentationFault
from ..isa.base import WORD_SIZE, to_unsigned

_WORD = struct.Struct("<I")
_unpack_word = _WORD.unpack_from
_pack_word = _WORD.pack_into


@dataclass
class Segment:
    """One contiguous mapped region."""

    name: str
    base: int
    size: int
    readable: bool = True
    writable: bool = True
    executable: bool = False
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.size)
        elif len(self.data) != self.size:
            raise ConfigError(
                f"segment {self.name}: data length {len(self.data)} != size {self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def __repr__(self) -> str:
        perms = "".join(
            flag if enabled else "-"
            for flag, enabled in (("r", self.readable), ("w", self.writable),
                                  ("x", self.executable)))
        return f"<Segment {self.name} {self.base:#x}-{self.end:#x} {perms}>"


class Memory:
    """The process address space: an ordered collection of segments."""

    def __init__(self) -> None:
        self._segments: List[Segment] = []
        self._by_name: Dict[str, Segment] = {}
        #: the segment the last successful :meth:`find` returned; accesses
        #: cluster (stack, then data, then stack again), so checking it
        #: first skips the scan.  Mapping changes reset it.
        self._last: Optional[Segment] = None
        self._forget_accessed()

    def _forget_accessed(self) -> None:
        """Reset the last-readable and last-writable segment caches.

        The word/byte accessors first try the segment the last read (or
        write) resolved to, with one bounds test on the offset: base,
        data, and the last offset a word or byte access may start at.
        Only a segment that passed the permission check is cached, so a
        hit needs none.  The empty state (last offsets -1) never hits.
        """
        self._read_base = self._write_base = 0
        self._read_word_last = self._read_byte_last = -1
        self._write_word_last = self._write_byte_last = -1
        self._read_data = self._write_data = bytearray()

    def _readable(self, address: int, length: int) -> Segment:
        """:meth:`_locate` for a read, remembering the segment."""
        segment = self._locate(address, length, "read")
        self._read_base = segment.base
        self._read_data = segment.data
        self._read_word_last = segment.size - WORD_SIZE
        self._read_byte_last = segment.size - 1
        return segment

    def _writable(self, address: int, length: int) -> Segment:
        """:meth:`_locate` for a write, remembering the segment."""
        segment = self._locate(address, length, "write")
        self._write_base = segment.base
        self._write_data = segment.data
        self._write_word_last = segment.size - WORD_SIZE
        self._write_byte_last = segment.size - 1
        return segment

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_segment(self, segment: Segment) -> Segment:
        for existing in self._segments:
            if segment.base < existing.end and existing.base < segment.end:
                raise ConfigError(
                    f"segment {segment.name} overlaps {existing.name}")
        if segment.name in self._by_name:
            raise ConfigError(f"duplicate segment name {segment.name!r}")
        self._segments.append(segment)
        self._segments.sort(key=lambda s: s.base)
        self._by_name[segment.name] = segment
        self._last = None
        self._forget_accessed()
        return segment

    def map(self, name: str, base: int, size: int, *, readable: bool = True,
            writable: bool = True, executable: bool = False,
            data: Optional[bytes] = None) -> Segment:
        payload = bytearray(data) if data is not None else bytearray(size)
        if data is not None and len(payload) < size:
            payload.extend(bytearray(size - len(payload)))
        return self.map_segment(Segment(
            name=name, base=base, size=size, readable=readable,
            writable=writable, executable=executable, data=payload))

    def unmap(self, name: str) -> None:
        segment = self._by_name.pop(name)
        self._segments.remove(segment)
        self._last = None
        self._forget_accessed()

    def segment(self, name: str) -> Segment:
        return self._by_name[name]

    def has_segment(self, name: str) -> bool:
        return name in self._by_name

    def segments(self) -> Iterator[Segment]:
        return iter(self._segments)

    def find(self, address: int, length: int = 1) -> Optional[Segment]:
        last = self._last
        if last is not None and last.base <= address \
                and address + length <= last.base + last.size:
            return last
        end = address + length
        for segment in self._segments:
            if segment.base <= address and end <= segment.base + segment.size:
                self._last = segment
                return segment
        return None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _locate(self, address: int, length: int, access: str) -> Segment:
        """The segment holding ``address`` (already 32-bit), or a fault."""
        segment = self.find(address, length)
        if segment is None:
            raise SegmentationFault(address, access)
        if access == "read" and not segment.readable:
            raise SegmentationFault(address, access)
        if access == "write" and not segment.writable:
            raise SegmentationFault(address, access)
        if access == "execute" and not segment.executable:
            raise SegmentationFault(address, access)
        return segment

    def read_bytes(self, address: int, length: int,
                   access: str = "read") -> bytes:
        address = to_unsigned(address)
        segment = self._locate(address, length, access)
        offset = address - segment.base
        return bytes(segment.data[offset:offset + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        address = to_unsigned(address)
        segment = self._locate(address, len(data), "write")
        offset = address - segment.base
        segment.data[offset:offset + len(data)] = data

    def read_u8(self, address: int) -> int:
        address &= 0xFFFFFFFF
        offset = address - self._read_base
        if 0 <= offset <= self._read_byte_last:
            return self._read_data[offset]
        segment = self._readable(address, 1)
        return segment.data[address - segment.base]

    def write_u8(self, address: int, value: int) -> None:
        address &= 0xFFFFFFFF
        offset = address - self._write_base
        if 0 <= offset <= self._write_byte_last:
            self._write_data[offset] = value & 0xFF
            return
        segment = self._writable(address, 1)
        segment.data[address - segment.base] = value & 0xFF

    def read_word(self, address: int) -> int:
        address &= 0xFFFFFFFF
        offset = address - self._read_base
        if 0 <= offset <= self._read_word_last:
            return _unpack_word(self._read_data, offset)[0]
        segment = self._readable(address, WORD_SIZE)
        return _unpack_word(segment.data, address - segment.base)[0]

    def write_word(self, address: int, value: int) -> None:
        address &= 0xFFFFFFFF
        offset = address - self._write_base
        if 0 <= offset <= self._write_word_last:
            _pack_word(self._write_data, offset, value & 0xFFFFFFFF)
            return
        segment = self._writable(address, WORD_SIZE)
        _pack_word(segment.data, address - segment.base, value & 0xFFFFFFFF)

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated byte string (used by the syscall layer)."""
        out = bytearray()
        for i in range(limit):
            byte = self.read_u8(address + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise SegmentationFault(address, "unterminated string")

    def fetch_window(self, address: int, length: int) -> bytes:
        """Read up to ``length`` executable bytes for instruction decode.

        Clamps at the end of the containing segment rather than faulting,
        because instruction fetch near a segment boundary is legitimate.
        """
        address = to_unsigned(address)
        segment = self._locate(address, 1, "execute")
        offset = address - segment.base
        return bytes(segment.data[offset:offset + length])
