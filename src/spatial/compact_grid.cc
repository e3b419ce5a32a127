#include "spatial/compact_grid.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace biosim {

namespace {

/// Widest radix digit: 2^11 buckets per chunk keep the histograms in L1/L2.
constexpr int kMaxDigitBits = 11;
/// Members per chunk below which a chunk is not worth a worker.
constexpr size_t kMinChunk = 8192;
/// The word mask is consulted when fewer than one word in this many can
/// hold a slot (see Build).
constexpr size_t kMaskSparsity = 16;
/// Edge of the bricks a dense window is traversed in, in boxes.
constexpr uint32_t kBrick = 8;
/// Owned slots are traversed brick by brick when at least one owned box in
/// this many is occupied (see Build step 5).
constexpr size_t kBrickOccupancy = 16;

/// Set bits of `bits` below bit `k`. Branch-free SWAR count: the portable
/// x86-64 baseline has no popcnt instruction, and std::popcount compiles
/// to a library call there.
inline int32_t BitsBelow(uint64_t bits, uint64_t k) {
  uint64_t x = bits & ((uint64_t{1} << k) - 1);
  x = x - ((x >> 1) & 0x5555555555555555ull);
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Begin of chunk `c` when `n` items are cut into `chunks` even pieces.
size_t ChunkBegin(size_t c, size_t n, size_t chunks) {
  return c * n / chunks;
}

}  // namespace

void CompactGrid::Configure(const GridGeometry& geometry, int32_t owned_begin,
                            int32_t owned_end, int32_t halo,
                            ExecMode mode) {
  const int32_t nz = geometry.num_boxes_axis.z;
  const size_t plane_size = static_cast<size_t>(geometry.num_boxes_axis.x) *
                            static_cast<size_t>(geometry.num_boxes_axis.y);
  std::vector<int32_t> plane_to_window(static_cast<size_t>(nz), -1);
  std::vector<int32_t> window_planes;
  // On a torus the halo wraps; on an open domain out-of-range planes are
  // skipped. A plane already in the window (a torus so small the halo wraps
  // onto an owned plane) is kept once.
  auto add_plane = [&](int32_t z) {
    if (geometry.torus) {
      z = ((z % nz) + nz) % nz;
    } else if (z < 0 || z >= nz) {
      return;
    }
    if (plane_to_window[static_cast<size_t>(z)] >= 0) {
      return;
    }
    plane_to_window[static_cast<size_t>(z)] =
        static_cast<int32_t>(window_planes.size());
    window_planes.push_back(z);
  };
  for (int32_t z = owned_begin; z < owned_end; ++z) {
    add_plane(z);
  }
  const size_t owned_planes = window_planes.size();
  for (int32_t h = 1; h <= halo; ++h) {
    add_plane(owned_begin - h);
    add_plane(owned_end - 1 + h);
  }
  const size_t window_boxes = window_planes.size() * plane_size;
  if (window_boxes > (size_t{1} << 32)) {
    throw std::length_error(
        "CompactGrid: window of " + std::to_string(window_boxes) +
        " boxes exceeds the 2^32 boxes a 32-bit box key can address");
  }

  ResetSlots(mode);
  geometry_ = geometry;
  owned_begin_ = owned_begin;
  owned_end_ = owned_end;
  plane_size_ = plane_size;
  plane_to_window_ = std::move(plane_to_window);
  window_planes_ = std::move(window_planes);
  owned_planes_ = owned_planes;
  const size_t window_words = (window_boxes + 63) / 64;
  if (words_.size() < window_words) {
    words_.resize(window_words);
    word_mask_.resize((window_words + 63) / 64);
  }
  key_bits_ = std::bit_width(static_cast<uint64_t>(window_boxes) - 1);
  starts_.assign(1, 0);
  agents_.clear();
}

void CompactGrid::ResetSlots(ExecMode mode) {
  ParallelFor(mode, slot_box_.size(), [&](size_t s) {
    if (StartsWord(s)) {
      words_[slot_box_[s] / 64] = BoxWord{};
    }
    if (StartsBlock(s)) {
      word_mask_[slot_box_[s] / 4096] = 0;
    }
  });
  slot_box_.clear();
  owned_slots_ = 0;
}

void CompactGrid::CheckCsrAgentCount(size_t n) {
  if (n > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    throw std::length_error(
        "CompactGrid: " + std::to_string(n) +
        " members exceed the 2^31-1 rows the int32 CSR offsets can address "
        "(starts/agents, mirrored by the GPU offload); the offsets would "
        "silently wrap");
  }
}

void CompactGrid::Build(const int32_t* rows, size_t count,
                        const Double3* positions, ExecMode mode) {
  CheckCsrAgentCount(count);
  ResetSlots(mode);

  // 1) Bin: key = window box in the high word, row in the low word. A row
  // outside the window gets the all-ones key and is reported below.
  constexpr uint64_t kOutside = ~uint64_t{0};
  keys_.resize(count);
  std::atomic<bool> outside{false};
  const int32_t nx = geometry_.num_boxes_axis.x;
  ParallelFor(mode, count, [&](size_t i) {
    const int32_t row = rows != nullptr ? rows[i] : static_cast<int32_t>(i);
    const Int3 c = geometry_.BoxCoordinatesOf(positions[row]);
    const int32_t wz = plane_to_window_[static_cast<size_t>(c.z)];
    if (wz < 0) {
      keys_[i] = kOutside;
      outside.store(true, std::memory_order_relaxed);
      return;
    }
    const uint64_t wb = static_cast<uint64_t>(wz) * plane_size_ +
                        static_cast<uint64_t>(c.y) * static_cast<uint64_t>(nx) +
                        static_cast<uint64_t>(c.x);
    keys_[i] = (wb << 32) | static_cast<uint32_t>(row);
  });
  if (outside.load(std::memory_order_relaxed)) {
    for (size_t i = 0; i < count; ++i) {
      if (keys_[i] == kOutside) {
        const int32_t row = rows != nullptr ? rows[i] : static_cast<int32_t>(i);
        starts_.assign(1, 0);
        agents_.clear();
        throw std::logic_error(
            "CompactGrid: agent row " + std::to_string(row) +
            " binned to plane " +
            std::to_string(geometry_.BoxCoordinatesOf(positions[row]).z) +
            " outside the window [" + std::to_string(owned_begin_) + ", " +
            std::to_string(owned_end_) +
            ") + halo — halo exchange or migration dropped a transfer");
      }
    }
  }

  // Chunks are contiguous ranges of the key array; any chunking yields the
  // same bytes (the sort is stable, the fill is a function of the sorted
  // keys), so the count only trades parallelism against overhead.
  const size_t chunks =
      mode == ExecMode::kParallel
          ? std::clamp<size_t>(count / kMinChunk, 1, HardwareThreads())
          : 1;
  const ExecMode chunk_mode = chunks > 1 ? mode : ExecMode::kSerial;

  // 2) Stable radix sort on the box bits: each box's rows stay ascending.
  SortByHighWord(keys_, key_bits_, chunks, mode);

  // 3) Slot fill: a slot starts wherever the box changes. Chunks count
  // their slot starts, a chunk-order prefix gives each chunk its first
  // slot, then every chunk writes its own slots and rows.
  const uint64_t* keys = keys_.data();
  auto starts_slot = [&](size_t i) {
    return i == 0 || (keys[i] >> 32) != (keys[i - 1] >> 32);
  };
  chunk_slots_.resize(chunks + 1);
  ParallelFor(chunk_mode, chunks, [&](size_t c) {
    size_t n = 0;
    const size_t end = ChunkBegin(c + 1, count, chunks);
    for (size_t i = ChunkBegin(c, count, chunks); i < end; ++i) {
      n += starts_slot(i) ? 1 : 0;
    }
    chunk_slots_[c + 1] = n;
  });
  chunk_slots_[0] = 0;
  for (size_t c = 0; c < chunks; ++c) {
    chunk_slots_[c + 1] += chunk_slots_[c];
  }
  const size_t occupied = chunk_slots_[chunks];
  slot_box_.resize(occupied);
  starts_.resize(occupied + 1);
  agents_.resize(count);
  ParallelFor(chunk_mode, chunks, [&](size_t c) {
    size_t s = chunk_slots_[c];
    const size_t end = ChunkBegin(c + 1, count, chunks);
    for (size_t i = ChunkBegin(c, count, chunks); i < end; ++i) {
      if (starts_slot(i)) {
        slot_box_[s] = static_cast<uint32_t>(keys[i] >> 32);
        starts_[s] = static_cast<int32_t>(i);
        ++s;
      }
      agents_[i] = static_cast<int32_t>(keys[i] & 0xFFFFFFFFu);
    }
  });
  starts_[occupied] = static_cast<int32_t>(count);

  // 4) Occupancy words and their mask: the first slot of each 64-box word
  // writes the word, the first slot of each 4096-box block writes the
  // block's mask entry, so every entry has exactly one writer.
  ParallelFor(mode, occupied, [&](size_t s) {
    if (StartsWord(s)) {
      const uint32_t word = slot_box_[s] / 64;
      uint64_t bits = 0;
      for (size_t e = s; e < occupied && slot_box_[e] / 64 == word; ++e) {
        bits |= uint64_t{1} << (slot_box_[e] % 64);
      }
      words_[word] = BoxWord{bits, static_cast<int32_t>(s)};
    }
    if (StartsBlock(s)) {
      const uint32_t block = slot_box_[s] / 4096;
      uint64_t mask = 0;
      for (size_t e = s; e < occupied && slot_box_[e] / 4096 == block; ++e) {
        mask |= uint64_t{1} << (slot_box_[e] / 64 % 64);
      }
      word_mask_[block] = mask;
    }
  });
  // Consult the word mask only where almost every word is empty: there it
  // stays cached while the words do not, and saves their loads; where many
  // words are occupied it is one more load per lookup (measured 15-20%
  // slower on sparse_walk's force pass).
  const size_t window_words = (window_planes_.size() * plane_size_ + 63) / 64;
  skip_empty_words_ = occupied * kMaskSparsity < window_words;

  const size_t owned_boxes = owned_planes_ * plane_size_;
  owned_slots_ = static_cast<size_t>(
      std::lower_bound(slot_box_.begin(), slot_box_.end(), owned_boxes) -
      slot_box_.begin());

  // 5) Traversal order of the owned slots. Where boxes are densely
  // occupied, visiting them brick by brick (8^3 boxes, bricks and the
  // boxes inside each in ascending order) keeps the candidates of
  // consecutive boxes in cache, as the paper's Z-order does for the GPU: a
  // force pass over a lattice-ordered tumor is much slower in plain box
  // order. Where boxes are sparse, plain box order is faster — the lookups
  // of consecutive boxes share words — and the order stays empty. One
  // stable radix sort on the brick index; slots arrive in box order, so
  // each brick keeps it.
  order_.clear();
  if (owned_slots_ * kBrickOccupancy >= owned_boxes) {
    const auto nx = static_cast<uint32_t>(geometry_.num_boxes_axis.x);
    const auto plane = static_cast<uint32_t>(plane_size_);
    const uint32_t bricks_x = (nx + kBrick - 1) / kBrick;
    const uint32_t bricks_y =
        (static_cast<uint32_t>(geometry_.num_boxes_axis.y) + kBrick - 1) /
        kBrick;
    const uint64_t bricks = uint64_t{bricks_x} * bricks_y *
                            ((window_planes_.size() + kBrick - 1) / kBrick);
    keys_.resize(owned_slots_);
    ParallelFor(mode, owned_slots_, [&](size_t s) {
      const uint32_t wb = slot_box_[s];
      const uint32_t rem = wb % plane;
      const uint64_t brick =
          (uint64_t{wb / plane / kBrick} * bricks_y + rem / nx / kBrick) *
              bricks_x +
          rem % nx / kBrick;
      keys_[s] = (brick << 32) | s;
    });
    SortByHighWord(keys_, std::bit_width(bricks - 1), chunks, mode);
    order_.resize(owned_slots_);
    ParallelFor(mode, owned_slots_, [&](size_t i) {
      order_[i] = static_cast<uint32_t>(keys_[i]);
    });
  }
}

void CompactGrid::SortByHighWord(std::vector<uint64_t>& keys, int key_bits,
                                 size_t chunks, ExecMode mode) {
  // LSD passes over the low `key_bits` bits of the high word. Per pass:
  // per-chunk digit histograms, an exclusive prefix in (digit, chunk)
  // order, then each chunk scatters its keys in input order — so equal
  // digits keep their relative order.
  const size_t count = keys.size();
  if (key_bits == 0 || count < 2) {
    return;
  }
  const ExecMode chunk_mode = chunks > 1 ? mode : ExecMode::kSerial;
  const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const uint64_t mask = buckets - 1;
  keys_tmp_.resize(count);
  histogram_.resize(chunks * buckets);
  for (int p = 0; p < passes; ++p) {
    const int shift = 32 + p * digit_bits;
    const uint64_t* src = keys.data();
    uint64_t* dst = keys_tmp_.data();
    ParallelFor(chunk_mode, chunks, [&](size_t c) {
      uint32_t* h = histogram_.data() + c * buckets;
      std::fill(h, h + buckets, 0u);
      const size_t end = ChunkBegin(c + 1, count, chunks);
      for (size_t i = ChunkBegin(c, count, chunks); i < end; ++i) {
        ++h[(src[i] >> shift) & mask];
      }
    });
    uint32_t offset = 0;
    for (size_t d = 0; d < buckets; ++d) {
      for (size_t c = 0; c < chunks; ++c) {
        const uint32_t n = histogram_[c * buckets + d];
        histogram_[c * buckets + d] = offset;
        offset += n;
      }
    }
    ParallelFor(chunk_mode, chunks, [&](size_t c) {
      uint32_t* h = histogram_.data() + c * buckets;
      const size_t end = ChunkBegin(c + 1, count, chunks);
      for (size_t i = ChunkBegin(c, count, chunks); i < end; ++i) {
        dst[h[(src[i] >> shift) & mask]++] = src[i];
      }
    });
    keys.swap(keys_tmp_);
  }
}

int64_t CompactGrid::WindowBoxOf(const Int3& c) const {
  const int32_t wz = plane_to_window_[static_cast<size_t>(c.z)];
  if (wz < 0) {
    return -1;
  }
  return static_cast<int64_t>(static_cast<size_t>(wz) * plane_size_ +
                              static_cast<size_t>(c.y) *
                                  static_cast<size_t>(
                                      geometry_.num_boxes_axis.x) +
                              static_cast<size_t>(c.x));
}

template <bool kVerySparse>
CompactGrid::BoxWord CompactGrid::WordOf(uint64_t wb) const {
  const uint64_t word = wb / 64;
  if (kVerySparse && ((word_mask_[word / 64] >> (word % 64)) & 1) == 0) {
    return BoxWord{};
  }
  return words_[word];
}

int32_t CompactGrid::SlotOf(const Int3& c) const {
  const int64_t wb = WindowBoxOf(c);
  if (wb < 0) {
    return -1;
  }
  const BoxWord w = WordOf<false>(static_cast<uint64_t>(wb));
  const uint64_t bit = static_cast<uint64_t>(wb) % 64;
  if (((w.bits >> bit) & 1) == 0) {
    return -1;
  }
  // Slots are in box order: this box's slot is the word's first slot plus
  // the occupied boxes before it in the word.
  return w.first + BitsBelow(w.bits, bit);
}

std::span<const int32_t> CompactGrid::RunOf(const Int3& c) const {
  const int32_t s = SlotOf(c);
  if (s < 0) {
    return {};
  }
  return {agents_.data() + starts_[static_cast<size_t>(s)],
          static_cast<size_t>(starts_[static_cast<size_t>(s) + 1] -
                              starts_[static_cast<size_t>(s)])};
}

Int3 CompactGrid::SlotCoordinates(uint32_t slot) const {
  const size_t wb = slot_box_[slot];
  const size_t rem = wb % plane_size_;
  const auto nx = static_cast<size_t>(geometry_.num_boxes_axis.x);
  return {static_cast<int32_t>(rem % nx), static_cast<int32_t>(rem / nx),
          window_planes_[wb / plane_size_]};
}

int CompactGrid::NeighborSlotsOf(const Int3& c, size_t out[27]) const {
  return NeighborSlotsAround(c, SlotOf(c), out);
}

int CompactGrid::NeighborSlotsAround(const Int3& c, int32_t self,
                                     size_t out[27]) const {
  return skip_empty_words_ ? NeighborSlotsIn<true>(c, self, out)
                           : NeighborSlotsIn<false>(c, self, out);
}

template <bool kVerySparse>
int CompactGrid::NeighborSlotsIn(const Int3& c, int32_t self,
                                 size_t out[27]) const {
  const auto nx = static_cast<uint64_t>(geometry_.num_boxes_axis.x);
  const int32_t ny = geometry_.num_boxes_axis.y;
  int count = 0;
  // The x offsets are innermost: resolve each row's window position once
  // for its (up to) three boxes, and step a box's rank in its word from
  // the previous box's instead of recounting.
  int64_t row = -1;
  int64_t row_base = -1;
  uint64_t last_wb = ~uint64_t{0};
  int32_t last_rank = 0;
  BoxWord w;
  geometry_.ForEachNeighborCoord(c, [&](const Int3& nc) {
    const int64_t r = static_cast<int64_t>(nc.z) * ny + nc.y;
    if (r != row) {
      row = r;
      const int32_t wz = plane_to_window_[static_cast<size_t>(nc.z)];
      row_base = wz < 0 ? -1
                        : static_cast<int64_t>(
                              (static_cast<uint64_t>(wz) * ny + nc.y) * nx);
    }
    if (row_base < 0) {
      return;
    }
    const uint64_t wb = static_cast<uint64_t>(row_base) + nc.x;
    if constexpr (kVerySparse) {
      // The box's own row comes from the adjacent slots (box order: box
      // self +- 1 is occupied exactly when the adjacent slot holds it), so
      // its own word — cold on a very sparse window — is never loaded.
      const int32_t dx = nc.x - c.x;
      if (self >= 0 && nc.z == c.z && nc.y == c.y && dx >= -1 && dx <= 1) {
        const int64_t s = int64_t{self} + dx;
        if (s >= 0 && s < static_cast<int64_t>(slot_box_.size()) &&
            slot_box_[static_cast<size_t>(s)] == wb) {
          out[count++] = static_cast<size_t>(s);
        }
        last_wb = ~uint64_t{0};
        return;
      }
    }
    int32_t rank;
    if (wb == last_wb + 1 && wb % 64 != 0) {
      rank = last_rank + static_cast<int32_t>((w.bits >> (last_wb % 64)) & 1);
    } else {
      w = WordOf<kVerySparse>(wb);
      rank = BitsBelow(w.bits, wb % 64);
    }
    last_wb = wb;
    last_rank = rank;
    if ((w.bits >> (wb % 64)) & 1) {
      out[count++] = static_cast<size_t>(w.first + rank);
    }
  });
  return count;
}

int CompactGrid::NeighborSlots(const void* self, uint32_t slot,
                               size_t out[27]) {
  const auto* grid = static_cast<const CompactGrid*>(self);
  return grid->NeighborSlotsAround(grid->SlotCoordinates(slot),
                                   static_cast<int32_t>(slot), out);
}

}  // namespace biosim
