"""Set-associative cache simulation with LRU replacement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigError
from .cores import CacheConfig


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of set-associative cache, LRU within each set."""

    def __init__(self, config: CacheConfig):
        self.config = config
        line = config.line_size
        if line & (line - 1):
            raise ConfigError("line size must be a power of two")
        self.num_sets = max(config.size // (line * config.associativity), 1)
        self.offset_bits = line.bit_length() - 1
        #: per-set list of tags, most recently used last
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch one address; returns True on hit."""
        tag = address >> self.offset_bits
        ways = self._sets[tag % self.num_sets]
        self.stats.accesses += 1
        if ways and ways[-1] == tag:
            return True                 # already most recently used
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return False

    def access_cost(self, address: int) -> int:
        """Touch and return the latency in cycles."""
        if self.access(address):
            return self.config.hit_latency
        return self.config.hit_latency + self.config.miss_penalty

    def flush(self) -> None:
        for ways in self._sets:
            ways.clear()
