// Uniform grid environment: the paper's core CPU contribution (Section IV-A,
// Fig. 4 and Fig. 5).
//
// The simulation AABB is covered by cubic boxes of edge >= the interaction
// radius, so the neighborhood of any agent is contained in the 3x3x3 block of
// boxes around it. Fig. 5 stores each box as {start, length} with the
// agents of a box chained through a grid-wide successor list, built by one
// atomic exchange per agent; that build is what the GPU kernels run
// (gpu/grid_build_kernels.h: ug_reset / ug_build).
//
// On the host the grid is one occupancy-compacted CSR (spatial/
// compact_grid.h) over the whole lattice: only occupied boxes are stored,
// each as an ascending run of agent rows, and a box->slot map resolves the
// 27-box block. Every Update rebuilds it from scratch in
// O(agents + occupied boxes) — bin, stable radix sort, slot fill — and
// clears only the map entries the previous build occupied, so no step pays
// for the empty boxes (BioDynaMo's no-full-reset grid, arXiv:2301.06984).
// The sharded step builds the same structure per shard window.
//
// Determinism contract (docs/determinism.md): runs are ascending by agent
// row and the 27-box block is enumerated in the canonical (dz, dy, dx)
// order, so ForEachNeighborWithinRadius and the fused force kernels visit
// every agent's neighbors in one order, independent of thread count and
// serial/parallel build mode. Downstream order-sensitive reductions (force
// accumulation in MechanicalForcesOp) are therefore bitwise reproducible.
#ifndef BIOSIM_SPATIAL_UNIFORM_GRID_H_
#define BIOSIM_SPATIAL_UNIFORM_GRID_H_

#include <cstdint>

#include "spatial/compact_grid.h"
#include "spatial/environment.h"
#include "spatial/grid_geometry.h"

namespace biosim {

class UniformGridEnvironment : public Environment {
 public:
  /// If `fixed_box_length` > 0, the grid always uses that box edge length
  /// instead of deriving it from the largest agent diameter (benchmark B
  /// keeps it fixed so the measured density sweep is exact).
  explicit UniformGridEnvironment(double fixed_box_length = 0.0)
      : fixed_box_length_(fixed_box_length) {}

  /// Rebuild the CSR for the current positions. `param.incremental_grid` is
  /// ignored: every Update is a full build.
  void Update(const ResourceManager& rm, const Param& param,
              ExecMode mode) override;

  void ForEachNeighborWithinRadius(AgentIndex query,
                                   const ResourceManager& rm, double radius,
                                   NeighborFn fn) const override;

  double interaction_radius() const override { return interaction_radius_; }
  const char* name() const override { return "uniform-grid"; }

  double box_length() const { return geometry_.box_length; }
  const Int3& num_boxes_axis() const { return geometry_.num_boxes_axis; }
  /// Boxes in the lattice, occupied or not.
  size_t total_boxes() const { return geometry_.TotalBoxes(); }
  /// Boxes holding at least one agent.
  size_t occupied_boxes() const { return csr_.occupied_boxes(); }
  const Double3& grid_min() const { return geometry_.grid_min; }

  /// The box lattice of the last Update (spatial/grid_geometry.h). Shards
  /// derive the identical lattice independently; tests compare the two.
  const GridGeometry& geometry() const { return geometry_; }

  /// The compacted CSR of the last Update: slots, ascending runs and the
  /// box->slot map. Its slots [0, occupied_boxes()) are the force pass's
  /// traversal range; csr().View() is what the fused kernels read.
  const CompactGrid& csr() const { return csr_; }

  Int3 BoxCoordinatesOf(const Double3& pos) const {
    return geometry_.BoxCoordinatesOf(pos);
  }

  /// Mean number of agents per non-empty box (diagnostics; benchmark B's
  /// density knob is validated against this).
  double MeanAgentsPerBox() const;

  /// Average neighbor count over a sample of agents at the interaction
  /// radius; this is the paper's "neighborhood density" n. A
  /// `sample_stride` of 0 is clamped to 1 (sample every agent).
  double MeanNeighborCount(const ResourceManager& rm,
                           size_t sample_stride = 1) const;

  /// Whether the current Update built a periodic (torus) grid.
  bool is_torus() const { return geometry_.torus; }

  /// Cumulative Update outcomes since construction (obs exports these as
  /// grid/* counters). Every Update is a full build, so full_rebuilds
  /// counts Updates and the other two stay 0; they remain for the records
  /// and reports that carry them.
  struct UpdateStats {
    /// Updates that built the grid from scratch.
    uint64_t full_rebuilds = 0;
    /// Updates served by patching the previous grid (none: no patch path).
    uint64_t incremental_updates = 0;
    /// Agents re-binned by a patch (none: no patch path).
    uint64_t rebinned_agents = 0;
  };
  const UpdateStats& update_stats() const { return update_stats_; }

 private:
  double fixed_box_length_ = 0.0;
  double interaction_radius_ = 0.0;
  // The box lattice of the last Update (edge length, origin, axis counts,
  // torus wrap, reduced offsets): derived by GridGeometry::Derive — the same
  // function every spatial shard uses, so the two can never drift.
  GridGeometry geometry_;
  bool configured_ = false;
  CompactGrid csr_;
  UpdateStats update_stats_;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_UNIFORM_GRID_H_
