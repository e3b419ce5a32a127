// Occupancy-compacted CSR over a window of the box lattice: the one host
// grid (Section IV-A's uniform grid, stored by occupied box).
//
// The window is a range of owned z-planes plus `halo` planes on each side
// (wrapped on a torus, clamped at open faces). The global uniform grid is
// the window over the whole lattice with no halo; a spatial shard is the
// window over its owned planes +-1 (docs/sharding.md). Only occupied boxes
// are stored: slot s is the s-th occupied window box, starts()/agents() are
// indexed by slot. A box resolves to its slot through occupancy words: one
// 64-bit mask per 64 consecutive window boxes plus the slot of the word's
// first occupied box, so a box's slot is that first slot plus the occupied
// boxes before it in the word (a rank). At 2 bits per box the words are a
// sixteenth of an int32 box->slot map. On a very sparse window (fewer slots
// than one word in 16) the words fall out of cache, so lookups there first
// test a mask with one bit per word, which stays cached, and read a box's
// own row from its adjacent slots: the force pass on 8x the boxes then
// costs about what it does on 1x (docs/perf.md).
//
// Build costs O(members + occupied boxes), independent of the lattice size:
//   1. bin    -- each member's window box, in parallel, packed with its row
//                into one 64-bit key (box in the high word);
//   2. sort   -- stable LSD radix sort on the box bits only. Members arrive
//                in ascending row order, so each box's run stays ascending;
//                a stable sort has exactly one output, so the result is the
//                same at every thread count;
//   3. fill   -- per-chunk slot counts, a chunk-order prefix, then every
//                chunk writes its slots' starts and boxes; the first slot
//                of each word writes the word, the first of each 64 words
//                the mask entry;
//   4. order  -- on a densely occupied window the owned slots are also
//                sorted by 8^3-box brick, the force pass's visit order;
//   5. reset  -- the next build first clears only the words this one
//                occupied, so no step pays O(window boxes).
//
// Bitwise contract: a box's run holds its members ascending by row — the
// canonical order of the paper's box chains after sorting — and
// NeighborSlots enumerates the 3x3x3 block in the canonical (dz, dy, dx)
// order of GridGeometry::ForEachNeighborCoord, skipping empty boxes (which
// contribute no candidates). Every traversal (the callback query, the fused
// scalar and SIMD force passes, global or per shard) therefore sees each
// agent's neighbors in one order, and force sums are bitwise the same for
// any thread count, shard count and traversal order of the boxes.
//
// Window planes are numbered owned planes first, so the slots of owned
// boxes are the prefix [0, owned_slots()) — the force pass's traversal
// range. With no halo and the whole lattice owned, window box == flat box
// index.
#ifndef BIOSIM_SPATIAL_COMPACT_GRID_H_
#define BIOSIM_SPATIAL_COMPACT_GRID_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/math.h"
#include "core/thread_pool.h"
#include "spatial/csr_grid_view.h"
#include "spatial/grid_geometry.h"

namespace biosim {

class CompactGrid {
 public:
  /// Set the lattice and the window: owned planes [owned_begin, owned_end)
  /// plus `halo` planes on each side. O(planes + last build's occupied
  /// boxes); the occupancy words only grow, so a steady lattice allocates
  /// nothing. Throws std::length_error when the window holds more than
  /// 2^32 boxes (box keys are 32-bit).
  void Configure(const GridGeometry& geometry, int32_t owned_begin,
                 int32_t owned_end, int32_t halo,
                 ExecMode mode = ExecMode::kSerial);

  /// Rebuild the CSR for `count` members: global rows `rows[0..count)`
  /// (ascending, deduplicated), or rows 0..count-1 when `rows` is null.
  /// Throws std::length_error past 2^31-1 members and std::logic_error when
  /// a member bins outside the window (the halo protocol dropped a row).
  void Build(const int32_t* rows, size_t count, const Double3* positions,
             ExecMode mode);

  /// The CSR offsets and rows are int32 (the layout the GPU offload
  /// mirrors), so a count past 2^31-1 would wrap them. Throws
  /// std::length_error beyond that; static so the guard is testable
  /// without allocating 2^31 agents.
  static void CheckCsrAgentCount(size_t n);

  /// Occupied window boxes (= slots).
  size_t occupied_boxes() const { return slot_box_.size(); }
  /// Slots [0, owned_slots()) are the occupied boxes in owned planes.
  size_t owned_slots() const { return owned_slots_; }
  /// Exclusive prefix sum over slots; size occupied_boxes() + 1.
  const std::vector<int32_t>& starts() const { return starts_; }
  /// Member rows grouped by slot, ascending within each slot.
  const std::vector<int32_t>& agents() const { return agents_; }
  /// Window box of each slot, ascending.
  const std::vector<uint32_t>& slot_boxes() const { return slot_box_; }
  /// The order in which a force pass visits the owned slots: brick by
  /// brick on a densely occupied window, null for ascending slot order.
  const uint32_t* traversal_order() const {
    return order_.empty() ? nullptr : order_.data();
  }
  const GridGeometry& geometry() const { return geometry_; }

  /// Slot of the box at lattice coordinates `c`, or -1 when the box is
  /// empty or outside the window.
  int32_t SlotOf(const Int3& c) const;
  /// Members of the box at `c`, ascending; empty when it has none.
  std::span<const int32_t> RunOf(const Int3& c) const;
  /// Lattice coordinates of a slot's box.
  Int3 SlotCoordinates(uint32_t slot) const;

  /// Slots of the occupied boxes in the 3x3x3 block around `c`, canonical
  /// (dz, dy, dx) order. `out` must hold 27 entries; returns the count.
  int NeighborSlotsOf(const Int3& c, size_t out[27]) const;

  /// CsrGridView resolver: NeighborSlotsOf(SlotCoordinates(slot)).
  static int NeighborSlots(const void* self, uint32_t slot, size_t out[27]);

  /// View for the fused force kernels. Valid until the next Build().
  CsrGridView View() const {
    CsrGridView v;
    v.box_starts = starts_.data();
    v.box_agents = agents_.data();
    v.neighbor_slots = &CompactGrid::NeighborSlots;
    v.self = this;
    return v;
  }

 private:
  /// 64 consecutive window boxes (a word): which are occupied, and the
  /// slot of the first occupied one.
  struct BoxWord {
    uint64_t bits = 0;
    int32_t first = 0;
  };
  /// The word holding window box `wb` (all zero when it has no slot);
  /// tests the word mask first on a very sparse window.
  template <bool kVerySparse>
  BoxWord WordOf(uint64_t wb) const;
  /// Stable LSD radix sort of `keys` on the low `key_bits` bits of their
  /// high 32-bit word, in `chunks` contiguous chunks.
  void SortByHighWord(std::vector<uint64_t>& keys, int key_bits,
                      size_t chunks, ExecMode mode);
  /// Window box of lattice coordinates, or -1 outside the window.
  int64_t WindowBoxOf(const Int3& c) const;
  /// Whether slot s is the first slot of its 64-box word.
  bool StartsWord(size_t s) const {
    return s == 0 || slot_box_[s] / 64 != slot_box_[s - 1] / 64;
  }
  /// Whether slot s is the first slot of its 4096-box block (one mask
  /// entry).
  bool StartsBlock(size_t s) const {
    return s == 0 || slot_box_[s] / 4096 != slot_box_[s - 1] / 4096;
  }
  /// NeighborSlotsOf for a box whose slot is known (`self`; -1 when the box
  /// is empty).
  int NeighborSlotsAround(const Int3& c, int32_t self, size_t out[27]) const;
  /// NeighborSlotsAround, compiled once for very sparse windows and once
  /// for the rest so neither pays the other's tests per box.
  template <bool kVerySparse>
  int NeighborSlotsIn(const Int3& c, int32_t self, size_t out[27]) const;
  /// Clear the words of the last build's slots.
  void ResetSlots(ExecMode mode);

  GridGeometry geometry_;
  int32_t owned_begin_ = 0;
  int32_t owned_end_ = 0;
  /// Boxes per plane (nx * ny).
  size_t plane_size_ = 0;
  /// Global z-plane -> window plane, -1 when outside the window.
  std::vector<int32_t> plane_to_window_;
  /// Window plane -> global z-plane; owned planes first.
  std::vector<int32_t> window_planes_;
  size_t owned_planes_ = 0;
  /// Bits of the largest window box index: the radix sort's key width.
  int key_bits_ = 0;
  /// Occupancy word of every 64 window boxes (16 bytes: 2 bits per box).
  /// Only words holding a slot are ever nonzero.
  std::vector<BoxWord> words_;
  /// Bit w % 64 of entry w / 64: whether word w holds a slot (1 bit per 64
  /// boxes). Always kept; consulted only on a very sparse window.
  std::vector<uint64_t> word_mask_;
  /// Whether the last build's window is very sparse (see Build step 4).
  bool skip_empty_words_ = false;
  std::vector<uint32_t> slot_box_;
  std::vector<int32_t> starts_;
  std::vector<int32_t> agents_;
  size_t owned_slots_ = 0;
  /// Brick order of the owned slots; empty on a sparse window.
  std::vector<uint32_t> order_;
  /// Radix-sort buffers: (window box << 32 | row), then (brick << 32 |
  /// slot).
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> keys_tmp_;
  /// Per-chunk digit counts and slot counts, reused across builds.
  std::vector<uint32_t> histogram_;
  std::vector<size_t> chunk_slots_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_COMPACT_GRID_H_
