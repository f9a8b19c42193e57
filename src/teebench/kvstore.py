"""Hash-table key-value store used as the shared-memory overhead workload.

Separate chaining over a fixed 256-bucket array with modular placement
(bucket = key mod 256). Single-threaded by contract. It has two clients,
each with a store of its own: the KV bench's direct runner and, behind
the boundary, the trusted application ``KvTa``.
"""

from __future__ import annotations

BUCKET_COUNT = 256


def bucket_of(key: int) -> int:
    return key % BUCKET_COUNT


class KvStore:
    """Chained hash table mapping integer keys to owned byte strings.

    PUT on an existing key replaces the value. GET returns None for a
    missing key; DELETE returns False. The store keeps no memory budget:
    behind the boundary, ``KvTa`` charges every value to the trusted
    heap.
    """

    def __init__(self):
        self._buckets: list[list[tuple[int, bytes]]] = [
            [] for _ in range(BUCKET_COUNT)
        ]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def put(self, key: int, value) -> None:
        """Store an owned copy of ``value`` under ``key``, replacing any
        previous value; ValueError on an empty value."""
        data = bytes(value)
        if len(data) < 1:
            raise ValueError("value must be at least 1 byte")
        chain = self._buckets[bucket_of(key)]
        for i, (k, _) in enumerate(chain):
            if k == key:
                chain[i] = (key, data)
                return
        chain.append((key, data))
        self._count += 1

    def get(self, key: int) -> bytes | None:
        """The stored bytes object itself (no copy), or None if absent."""
        for k, v in self._buckets[bucket_of(key)]:
            if k == key:
                return v
        return None

    def delete(self, key: int) -> bool:
        """Free the entry after looking it up; False when absent."""
        chain = self._buckets[bucket_of(key)]
        for i, (k, _) in enumerate(chain):
            if k == key:
                del chain[i]
                self._count -= 1
                return True
        return False
