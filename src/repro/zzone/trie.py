"""The binary trie over blocks, linearised into two-level pointer arrays.

Per §3.1 of the paper:

* Blocks form a binary trie keyed by hashed-key prefixes.  Only leaves
  hold data; an internal node is just a NULL pointer.
* The trie is completed with *ghost* leaves and linearised level by level
  (heap order), so the node for depth ``d``, prefix ``p`` lives at array
  position ``2^d - 1 + p`` — pure address arithmetic, no root-to-leaf
  pointer chase.
* A lookup computes the last-level position for the hashed key and walks
  *up* (``(pos - 1) / 2``) until it meets a non-NULL pointer — the unique
  leaf on the key's path.  With a balanced trie this inspects only a few
  consecutive levels.
* The pointer array is segmented: 128 four-byte pointers per second-level
  segment, allocated only when some pointer in it is non-NULL; a
  first-level array points at segments.  This is what makes the index's
  memory footprint a function of the number of *blocks*, not of the
  complete tree's size.

One deviation from the paper's linear first-level array: segments here
live in a *sparse directory* (a hash map keyed by segment index).  The
paper's dense first level is safe only because MurmurHash keeps the trie
balanced; a pathologically clustered key set would make the deepest
position — and therefore the dense array — exponentially large.  The
sparse directory keeps the same O(1) position arithmetic while bounding
memory by the number of allocated segments; its accounting charges one
directory entry per allocated segment.  Split depth is additionally
capped at :data:`MAX_DEPTH`; a block whose items cannot be separated by
then stays as an oversized block (see ``ZZone._split``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.zzone.block import Block

SEGMENT_POINTERS = 128
#: Shift/mask equivalents of ``divmod(position, SEGMENT_POINTERS)`` for
#: the hot lookup path (SEGMENT_POINTERS is a power of two).
_SEG_SHIFT = SEGMENT_POINTERS.bit_length() - 1
_SEG_MASK = SEGMENT_POINTERS - 1
#: The paper stores 4-byte pointers in segments and in the first level.
POINTER_BYTES = 4
#: Bytes charged per allocated segment's directory entry (index + pointer).
DIRECTORY_ENTRY_BYTES = 12

MAX_DEPTH = 48


class BlockTrie:
    """Two-level pointer-array trie of blocks."""

    def __init__(self) -> None:
        #: Sparse first level: segment index -> 128-pointer segment.
        self._segments: Dict[int, list] = {}
        self._height = 0  # deepest level that currently has leaves
        self._block_count = 0
        #: Lookup telemetry: pointers inspected on the walk up.
        self.probe_count = 0
        self.lookup_count = 0
        #: Bumped on every structural mutation; a batched reader's leaf
        #: memo is valid only while this is unchanged.
        self.version = 0

    # -- positions -----------------------------------------------------------

    @staticmethod
    def _position(depth: int, prefix: int) -> int:
        return (1 << depth) - 1 + prefix

    def _get_pointer(self, position: int) -> Optional[Block]:
        segment_index, slot = divmod(position, SEGMENT_POINTERS)
        segment = self._segments.get(segment_index)
        if segment is None:
            return None
        return segment[slot]

    def _set_pointer(self, position: int, block: Optional[Block]) -> None:
        segment_index, slot = divmod(position, SEGMENT_POINTERS)
        segment = self._segments.get(segment_index)
        if segment is None:
            if block is None:
                return
            segment = [None] * SEGMENT_POINTERS
            self._segments[segment_index] = segment
        segment[slot] = block
        if block is None and all(entry is None for entry in segment):
            del self._segments[segment_index]  # give the segment back

    # -- public operations ----------------------------------------------------

    @property
    def block_count(self) -> int:
        return self._block_count

    def insert_root(self, block: Block) -> None:
        """Install the initial root leaf (empty trie only)."""
        if self._block_count:
            raise ValueError("trie already has blocks")
        block.depth = 0
        block.prefix = 0
        self._set_pointer(0, block)
        self._block_count = 1
        self._height = 0
        self.version += 1

    def find_leaf(self, hashed_key: int) -> Optional[Block]:
        """Locate the leaf on ``hashed_key``'s path via bottom-up walk.

        The pointer reads are inlined (rather than calling
        :meth:`_get_pointer`) because this runs on every Z-zone GET, SET,
        and filter check.
        """
        if self._block_count == 0:
            return None
        self.lookup_count += 1
        height = self._height
        prefix = (hashed_key >> (64 - height)) if height else 0
        position = (1 << height) - 1 + prefix
        segments = self._segments
        probes = 1
        segment = segments.get(position >> _SEG_SHIFT)
        block = segment[position & _SEG_MASK] if segment is not None else None
        while block is None and position > 0:
            position = (position - 1) >> 1
            probes += 1
            segment = segments.get(position >> _SEG_SHIFT)
            block = segment[position & _SEG_MASK] if segment is not None else None
        self.probe_count += probes
        return block

    def find_leaf_batched(
        self, hashed_key: int, leaf_cache: Dict[int, "tuple"]
    ) -> Optional[Block]:
        """:meth:`find_leaf` with a caller-held (prefix -> result) memo.

        A batched read resolves many hashed keys against an unchanged
        trie; keys sharing their last-level prefix walk the same pointer
        path, so the memo answers repeats without re-probing.  Lookup
        telemetry stays exact: a memo hit charges ``lookup_count`` and
        the memoised walk's ``probe_count``, so ``average_probes()`` is
        identical to issuing the same lookups sequentially.  Callers must
        clear the memo whenever :attr:`version` changes.
        """
        if self._block_count == 0:
            return None
        height = self._height
        prefix = (hashed_key >> (64 - height)) if height else 0
        memo = leaf_cache.get(prefix)
        if memo is not None:
            block, probes = memo
            self.lookup_count += 1
            self.probe_count += probes
            return block
        probes_before = self.probe_count
        block = self.find_leaf(hashed_key)
        if block is not None:
            leaf_cache[prefix] = (block, self.probe_count - probes_before)
        return block

    def replace_leaf(self, old: Block, new: Block) -> None:
        """Swap a rebuilt block into the old one's position."""
        if (old.depth, old.prefix) != (new.depth, new.prefix):
            raise ValueError("replacement must keep the trie position")
        self._set_pointer(self._position(new.depth, new.prefix), new)
        self.version += 1

    def split_leaf(self, old: Block, left: Block, right: Block) -> None:
        """Replace ``old`` with its two children (old's slot goes NULL)."""
        child_depth = old.depth + 1
        if child_depth > MAX_DEPTH:
            raise OverflowError(f"trie depth limit {MAX_DEPTH} exceeded")
        if (left.depth, right.depth) != (child_depth, child_depth):
            raise ValueError("children must sit one level below the parent")
        if (left.prefix, right.prefix) != (old.prefix * 2, old.prefix * 2 + 1):
            raise ValueError("children prefixes must extend the parent's")
        self._set_pointer(self._position(old.depth, old.prefix), None)
        self._set_pointer(self._position(left.depth, left.prefix), left)
        self._set_pointer(self._position(right.depth, right.prefix), right)
        self._block_count += 1
        if child_depth > self._height:
            self._height = child_depth
        self.version += 1

    def get_leaf(self, depth: int, prefix: int) -> Optional[Block]:
        """Direct pointer read (used to find a leaf's sibling)."""
        return self._get_pointer(self._position(depth, prefix))

    def merge_leaves(self, left: Block, right: Block, parent: Block) -> None:
        """Collapse two sibling leaves into ``parent`` (reverse of split).

        The paper never merges (a cache under steady pressure only
        splits), but adaptive shrinking can empty whole subtrees whose
        metadata would otherwise be unreclaimable.
        """
        if left.depth != right.depth or left.depth == 0:
            raise ValueError("merge needs two non-root siblings")
        if right.prefix != left.prefix + 1 or left.prefix % 2 != 0:
            raise ValueError("blocks are not siblings")
        if (parent.depth, parent.prefix) != (left.depth - 1, left.prefix // 2):
            raise ValueError("parent position mismatch")
        self._set_pointer(self._position(left.depth, left.prefix), None)
        self._set_pointer(self._position(right.depth, right.prefix), None)
        self._set_pointer(self._position(parent.depth, parent.prefix), parent)
        self._block_count -= 1
        self.version += 1

    def leaves(self) -> Iterator[Block]:
        """Iterate every allocated leaf block."""
        for segment in self._segments.values():
            for entry in segment:
                if entry is not None:
                    yield entry

    # -- accounting ------------------------------------------------------------

    @property
    def allocated_segments(self) -> int:
        return len(self._segments)

    @property
    def memory_bytes(self) -> int:
        """Segment directory plus allocated second-level segments."""
        first_level = self.allocated_segments * DIRECTORY_ENTRY_BYTES
        second_level = self.allocated_segments * SEGMENT_POINTERS * POINTER_BYTES
        return first_level + second_level

    def average_probes(self) -> float:
        """Mean pointers inspected per lookup (paper: usually < 3)."""
        if self.lookup_count == 0:
            return 0.0
        return self.probe_count / self.lookup_count
