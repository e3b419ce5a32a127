// The fused CSR force kernel: the one force path on the uniform grid
// (docs/perf.md "One force kernel").
//
// A walk over the compacted grid's occupied slots, one 27-neighbor
// candidate gather per box, one sweep over the gathered stream per
// resident agent:
//
//   * the candidate block is gathered into 64-byte-aligned SoA component
//     arrays (x/y/z/diameter) — the layout a vector loop wants;
//   * the per-agent sweep is three passes. Pass 1 computes the squared
//     distance of every candidate into a scratch stream: whole W-groups
//     as straight-line lane math (no masks, no branches), then the last
//     cand_n % W candidates as a scalar tail with the same expression, so
//     nothing is padded. Pass 2 compacts the indices of the hits
//     (d² <= r²) branchlessly, skipping the agent's own slot by its
//     position in the stream. Pass 3 runs the contact math on the hits,
//     in candidate order. The distance test is ~all of the sweep's work,
//     so vectorizing pass 1 is where the speedup lives; keeping the
//     contact math scalar avoids paying vector sqrt and division on
//     mostly-empty lane groups;
//   * pair math and accumulation run in double.
//
// Contract (docs/determinism.md): the kernel is bitwise equal to the
// generic callback path (MechanicalForcesOp::ComputeDisplacementsGeneric
// with SphereSphereForce / HertzForce) — forces and force_evaluations — at
// every vector width and worker count. Three choices make it so:
//   * d² is `dx*dx + dy*dy + dz*dz`, Real3::Dot's order, never an FMA
//     chain; the per-ISA TUs build with -ffp-contract=off, so the lane
//     loop, the scalar tail and the W = 1 kernel give the same bits, and
//     the hit decision d² <= r² is the callback's;
//   * each agent's sum starts at its tractor force and adds the pair
//     forces in candidate order, the callback's `force +=` sequence;
//   * the contact math follows SphereSphereForce / HertzForce on the
//     callback's operands: on a torus pj = pi - MinImage(pi, pj) and then
//     d = pi - pj (which need not equal the wrapped separation), and a hit
//     whose dist² <= 0 or delta <= 0 still adds +0.0, as the callback adds
//     a zero vector. The self slot is skipped by position (own box's
//     offset in the stream + the resident's rank), the callback's
//     `j == query` test.
// The body is written inline rather than through EvaluateForce /
// MinImageVector: inline helpers instantiated in the -mavx2 TU would be
// emitted as weak symbols that the linker may fold with copies compiled
// for another ISA. Boxes never share accumulation state, so the kernel is
// bitwise self-consistent at any worker count.
#ifndef BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
#define BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/aligned_buffer.h"
#include "core/analysis.h"
#include "core/math.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "physics/force_law.h"
#include "spatial/csr_grid_view.h"

namespace biosim::detail {

/// Flattened inputs of one fused force pass. Plain pointers so the
/// per-ISA kernel TUs need no view of ResourceManager/Param. The kernel
/// writes *net forces* (the tractor force plus the pair forces, summed in
/// that order); the caller converts them to displacements afterwards —
/// that epilogue must not live in the per-ISA TUs, where its inline
/// helpers would be emitted as weak symbols that the linker could fold
/// with copies compiled for a different ISA.
struct FusedSimdArgs {
  const Double3* positions = nullptr;
  const double* diameters = nullptr;
  const Double3* tractor = nullptr;
  /// CSR layout + neighbor-slot resolver of one window of the compacted
  /// grid (the whole lattice, or one spatial shard; spatial/
  /// compact_grid.h). Every window presents each box's candidates in the
  /// identical canonical order, so the kernel body is shared bit-for-bit.
  CsrGridView view;
  /// Visit slots [0, num_slots) — the window's owned occupied boxes — in
  /// `order` when it is not null. The visit order never affects any box's
  /// own candidate sequence.
  size_t num_slots = 0;
  const uint32_t* order = nullptr;
  ForceLaw law = ForceLaw::kCortex3D;
  double repulsion = 0.0;
  double attraction = 0.0;
  /// Interaction radius squared.
  double r2 = 0.0;
  bool torus = false;
  double edge = 0.0;
  ExecMode mode = ExecMode::kSerial;
  /// Output: per-agent net force.
  Double3* out_forces = nullptr;
  std::atomic<size_t>* force_evaluations = nullptr;
};

/// The kernel template. `Tag` exists purely to keep instantiations from
/// different translation units distinct: each per-ISA TU passes its own
/// internal-linkage tag type, so a baseline-ISA body and an AVX2 body
/// can never be folded into one weak symbol by the linker.
template <int W, typename Tag>
void RunFusedSimdKernel(const FusedSimdArgs& a) {
  using V = simd::Vec<double, W>;
  constexpr size_t kW = static_cast<size_t>(W);

  const int32_t* starts = a.view.box_starts;
  const int32_t* agents = a.view.box_agents;

  const double r2 = a.r2;
  const double kappa = a.repulsion;
  const double gamma = a.attraction;
  const double edge = a.edge;
  const double half_edge = edge / 2.0;
  const V edgev = V::Broadcast(edge);
  const V half_edgev = V::Broadcast(half_edge);
  const V neg_half_edgev = V::Broadcast(-half_edge);
  const bool hertz = a.law == ForceLaw::kHertz;
  const bool torus = a.torus;
  // MinImageVector's per-component wrap. The closure type is local to this
  // instantiation, whose Tag keeps it distinct per TU, so the linker cannot
  // fold it with another ISA's copy.
  const auto wrap = [&](double d) {
    d = d > half_edge ? d - edge : d;
    return d < -half_edge ? d + edge : d;
  };

  ParallelForChunks(a.mode, a.num_slots, [&](size_t begin, size_t end) {
    // Per-chunk gather scratch; uninitialized capacity-managed storage,
    // overwritten for every box (core/aligned_buffer.h).
    AlignedBuffer<double> xs_buf;
    AlignedBuffer<double> ys_buf;
    AlignedBuffer<double> zs_buf;
    AlignedBuffer<double> ds_buf;
    AlignedBuffer<double> d2s_buf;
    AlignedBuffer<uint32_t> hidx_buf;
    size_t hits = 0;  // candidates with d² <= r², self slots excluded
    size_t blocks[27];

    for (size_t bi = begin; bi < end; ++bi) {
      const size_t b = a.order != nullptr ? a.order[bi] : bi;
      const int block_count = a.view.neighbor_slots(
          a.view.self, static_cast<uint32_t>(b), blocks);
      size_t cand_n = 0;
      size_t own_offset = 0;  // where box b's residents start in the stream
      for (int k = 0; k < block_count; ++k) {
        if (blocks[k] == b) {
          own_offset = cand_n;
        }
        cand_n += static_cast<size_t>(starts[blocks[k] + 1] -
                                      starts[blocks[k]]);
      }
      double* xs = xs_buf.EnsureCapacity(cand_n);
      double* ys = ys_buf.EnsureCapacity(cand_n);
      double* zs = zs_buf.EnsureCapacity(cand_n);
      double* ds = ds_buf.EnsureCapacity(cand_n);
      double* d2s = d2s_buf.EnsureCapacity(cand_n);
      uint32_t* hidx = hidx_buf.EnsureCapacity(cand_n);
      size_t w = 0;
      for (int k = 0; k < block_count; ++k) {
        const size_t nb = blocks[k];
        const int32_t nb_end = starts[nb + 1];
        for (int32_t u = starts[nb]; u < nb_end; ++u, ++w) {
          const int32_t j = agents[u];
          xs[w] = a.positions[j].x;
          ys[w] = a.positions[j].y;
          zs[w] = a.positions[j].z;
          ds[w] = a.diameters[j];
        }
      }
      const size_t full = cand_n / kW * kW;

      BIOSIM_HOT_LOOP_BEGIN();
      const int32_t row_begin = starts[b];
      const int32_t row_end = starts[b + 1];
      for (int32_t t = row_begin; t < row_end; ++t) {
        const int32_t i = agents[t];
        const size_t self = own_offset + static_cast<size_t>(t - row_begin);
        const double pix = a.positions[i].x;
        const double piy = a.positions[i].y;
        const double piz = a.positions[i].z;
        const double ri = a.diameters[i] / 2.0;
        // Pass 1: squared distance of every candidate. Whole W-groups in
        // vector lanes, the rest in the scalar tail; both evaluate the
        // same per-candidate expression, so the stream does not depend
        // on W. The torus wrap is MinImageVector's two-sided test: a lane
        // wrapped down lands in [-edge/2, edge/2], so the second select is
        // the scalar else-if.
        const V pixv = V::Broadcast(pix);
        const V piyv = V::Broadcast(piy);
        const V pizv = V::Broadcast(piz);
        for (size_t u = 0; u < full; u += kW) {
          V dx = pixv - V::Load(xs + u);
          V dy = piyv - V::Load(ys + u);
          V dz = pizv - V::Load(zs + u);
          if (torus) {
            dx = simd::Select(simd::Gt(dx, half_edgev), dx - edgev, dx);
            dx = simd::Select(simd::Lt(dx, neg_half_edgev), dx + edgev, dx);
            dy = simd::Select(simd::Gt(dy, half_edgev), dy - edgev, dy);
            dy = simd::Select(simd::Lt(dy, neg_half_edgev), dy + edgev, dy);
            dz = simd::Select(simd::Gt(dz, half_edgev), dz - edgev, dz);
            dz = simd::Select(simd::Lt(dz, neg_half_edgev), dz + edgev, dz);
          }
          const V d2 = dx * dx + dy * dy + dz * dz;
          d2.Store(d2s + u);
        }
        for (size_t u = full; u < cand_n; ++u) {
          double dx = pix - xs[u];
          double dy = piy - ys[u];
          double dz = piz - zs[u];
          if (torus) {
            dx = wrap(dx);
            dy = wrap(dy);
            dz = wrap(dz);
          }
          d2s[u] = dx * dx + dy * dy + dz * dz;
        }
        // Pass 2: branchless compaction of the hit indices around the
        // self slot. A plain `if (d2 <= r2) continue` scan stalls on one
        // mispredict per unpredictable candidate (hit rate ~1 in 6,
        // spatially random); the unconditional store + conditional
        // increment compiles to store/setcc/add.
        size_t m = 0;
        for (size_t c = 0; c < self; ++c) {
          hidx[m] = static_cast<uint32_t>(c);
          m += static_cast<size_t>(d2s[c] <= r2);
        }
        for (size_t c = self + 1; c < cand_n; ++c) {
          hidx[m] = static_cast<uint32_t>(c);
          m += static_cast<size_t>(d2s[c] <= r2);
        }
        hits += m;
        // Pass 3: contact math on the hits, in candidate order, on the
        // callback path's operands (SphereSphereForce / HertzForce).
        double fx = a.tractor[i].x;
        double fy = a.tractor[i].y;
        double fz = a.tractor[i].z;
        for (size_t h = 0; h < m; ++h) {
          const size_t c = hidx[h];
          double dx = pix - xs[c];
          double dy = piy - ys[c];
          double dz = piz - zs[c];
          double dist2 = d2s[c];
          if (torus) {
            // The callback shifts the neighbor to pj = pi - miv and the
            // force law takes d = pi - pj, which can differ from miv in
            // the last bits.
            dx = pix - (pix - wrap(dx));
            dy = piy - (piy - wrap(dy));
            dz = piz - (piz - wrap(dz));
            dist2 = dx * dx + dy * dy + dz * dz;
          }
          double cx = 0.0;
          double cy = 0.0;
          double cz = 0.0;
          if (!(dist2 <= 0.0)) {
            const double dist = std::sqrt(dist2);
            const double rj = ds[c] / 2.0;
            const double delta = ri + rj - dist;
            if (!(delta <= 0.0)) {
              const double reduced = (ri * rj) / (ri + rj);
              double magnitude;
              if (hertz) {
                magnitude =
                    kappa * std::sqrt(reduced) * delta * std::sqrt(delta);
              } else {
                magnitude = kappa * delta - gamma * std::sqrt(reduced * delta);
              }
              const double scale = magnitude / dist;
              cx = dx * scale;
              cy = dy * scale;
              cz = dz * scale;
            }
          }
          fx += cx;
          fy += cy;
          fz += cz;
        }
        a.out_forces[i] = Double3{fx, fy, fz};
      }
      BIOSIM_HOT_LOOP_END();
    }
    a.force_evaluations->fetch_add(hits, std::memory_order_relaxed);
  });
}

}  // namespace biosim::detail

#endif  // BIOSIM_PHYSICS_SIMD_FORCE_KERNEL_H_
