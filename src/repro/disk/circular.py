"""Circular array of disk blocks.

"The disk space within each queue is managed as a circular array; the head
and tail pointers rotate through the positions of the array so that records
conceptually move from tail to head but physically they remain in the same
place on disk."

This class does only the space accounting: which slots are in use, where the
head and tail are, and how many free blocks remain.  Content lives in
:class:`~repro.disk.block.BlockImage` objects owned by the generation.

Bad-block remapping: a slot that has exhausted its write retries (or
suffered a latent sector error) can be :meth:`retire`\\ d.  Retired slots
drop out of the rotation — the tail skips over them — shrinking the
generation's *usable* ring.  With no retired slots the reservation
sequence is bit-for-bit the plain modular rotation, so fault-free runs
are unaffected.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Set, Tuple

from repro.errors import ConfigurationError, LogFullError


class CircularBlockArray:
    """Head/tail bookkeeping over ``capacity`` block slots.

    Slots are handed out at the tail by :meth:`reserve_tail` (this is where
    the log manager assigns a block position to a buffer *before* it is
    written — the paper notes the LM "knows the position of the disk block
    to which it will eventually be written") and reclaimed at the head by
    :meth:`free_head`.  In-use slots are tracked as an explicit FIFO of
    physical indices rather than plain modular arithmetic, so the tail can
    skip retired (remapped-out) slots while head-to-tail order survives.
    """

    __slots__ = ("capacity", "_order", "_retired", "_used_retired", "_next")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"circular array needs >=1 block, got {capacity}")
        self.capacity = capacity
        #: In-use slots, oldest (head) first.
        self._order: Deque[int] = deque()
        #: Slots permanently removed from rotation.
        self._retired: Set[int] = set()
        #: How many in-use slots are already retired (freed lazily at the head).
        self._used_retired = 0
        #: Physical slot the next reservation will receive.
        self._next = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Slot index of the oldest in-use block (undefined when empty)."""
        return self._order[0] if self._order else self._next

    @property
    def tail(self) -> int:
        """Slot index the *next* reservation will receive."""
        return self._next

    @property
    def used(self) -> int:
        """Number of slots currently reserved or written."""
        return len(self._order)

    @property
    def usable_capacity(self) -> int:
        """Slots still in rotation: capacity minus retired slots."""
        return self.capacity - len(self._retired)

    @property
    def retired_slots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._retired))

    @property
    def free(self) -> int:
        """Number of slots available for new reservations."""
        return self.usable_capacity - (len(self._order) - self._used_retired)

    @property
    def empty(self) -> bool:
        return not self._order

    @property
    def full(self) -> bool:
        return self.free == 0

    def slot_offset(self, slot: int) -> int:
        """Logical age of ``slot``: 0 for the head, 1 for the next, ...

        Only meaningful for slots currently in use; used by tests and by the
        recirculation-safety check.
        """
        try:
            return self._order.index(slot)
        except ValueError:
            # Not in use: fall back to the plain rotation distance so the
            # pre-remap semantics (and tests) are preserved.
            return (slot - self.head) % self.capacity

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve_tail(self) -> int:
        """Reserve the slot at the tail; returns its index."""
        if self.free == 0:
            raise LogFullError(
                f"all {self.usable_capacity} usable blocks in use "
                f"({len(self._retired)} retired)"
            )
        slot = self._next
        self._order.append(slot)
        self._advance_next()
        return slot

    def free_head(self) -> int:
        """Release the slot at the head; returns its index."""
        if not self._order:
            raise LogFullError("cannot advance head of an empty queue")
        slot = self._order.popleft()
        if self._used_retired and slot in self._retired:
            self._used_retired -= 1
        return slot

    def retire(self, slot: int) -> None:
        """Remove ``slot`` from rotation permanently (bad-block remap).

        The slot may still be in use — it stays in head-to-tail order until
        the head reclaims it, but it is never reserved again.  The caller
        is responsible for checking that the shrunken ring stays above the
        generation's safety floor before retiring.
        """
        if not 0 <= slot < self.capacity:
            raise ConfigurationError(f"slot {slot} out of range 0..{self.capacity - 1}")
        if slot in self._retired:
            return
        if self.usable_capacity <= 1:
            raise LogFullError("cannot retire the last usable block")
        self._retired.add(slot)
        if slot in self._order:
            self._used_retired += 1
        if self._next == slot:
            self._advance_next(start=slot)

    def _advance_next(self, start: int | None = None) -> None:
        nxt = ((self._next if start is None else start) + 1) % self.capacity
        while nxt in self._retired:
            nxt = (nxt + 1) % self.capacity
        self._next = nxt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CircularBlockArray capacity={self.capacity} head={self.head} "
            f"tail={self.tail} used={self.used} retired={len(self._retired)}>"
        )
