// Spatial shard runtime: ownership, halo exchange, per-shard grids.
//
// Orchestrates the sharded step (docs/sharding.md). The domain is cut into K
// contiguous z-plane ranges of the SAME box lattice the global uniform grid
// would derive (spatial/grid_geometry.h). Each step:
//
//   Repartition   -- re-derive the lattice, split the planes (static or
//                    load-adaptive), and bin every agent row to its owner:
//                    ownership is a pure function of position, so
//                    boundary-crossers "migrate" simply by being owned by
//                    the neighbor next step — their state (including
//                    behaviors) lives in the global SoA and needs no copy.
//   ExchangeHalos -- every shard ships the rows of its two face planes to
//                    the adjacent shards through the Communicator (one
//                    interaction radius = one box plane, by lattice
//                    construction). Ghost lists are sorted + deduplicated,
//                    so shard membership is canonical regardless of message
//                    arrival order.
//   UpdateGrids   -- each shard rebuilds its occupancy-compacted CSR
//                    (spatial/compact_grid.h: a window over its owned
//                    planes +-1) over owned + ghost members.
//
// The phases run shard-parallel with a join between phases — the join IS the
// barrier of the rank protocol (Communicator::Barrier exists for drivers
// that run ranks on dedicated threads; a work-stealing ParallelFor may run
// two ranks on one worker, where an in-phase barrier would self-deadlock).
//
// Nothing here touches force math: the runtime only decides which shard
// computes which rows and which ghosts it can see. The merge discipline
// (ascending rows in every CSR run, canonical block order, one global
// displacement epilogue, row-sorted deposit merge) makes the step's output
// bitwise-identical for every shard count — docs/sharding.md walks the
// argument, the parity harness and the CI shard×thread sweep enforce it.
#ifndef BIOSIM_CORE_SHARD_RUNTIME_H_
#define BIOSIM_CORE_SHARD_RUNTIME_H_

#include <cstdint>
#include <vector>

#include "core/communicator.h"
#include "core/param.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/grid_geometry.h"
#include "spatial/compact_grid.h"
#include "spatial/shard_partition.h"

namespace biosim {

class ShardRuntime {
 public:
  ShardRuntime(uint32_t shards, ShardBalance balance);

  uint32_t shards() const { return shards_; }

  /// Once per step, after commit and z-order: derive the lattice for the
  /// current population and assign every row to its owning shard. Throws std::invalid_argument (via ShardPartition::Split) when
  /// the shard count exceeds the lattice's z-plane count. O(n + planes).
  void Repartition(const ResourceManager& rm, const Param& param);

  /// Ship face-plane rows to the adjacent shards and build each shard's
  /// member list (owned ++ ghosts, ascending, deduplicated). Must follow
  /// Repartition on the same population snapshot.
  void ExchangeHalos(const ResourceManager& rm, ExecMode mode);

  /// Rebuild each shard's compacted CSR from its member list. Reconfigures
  /// the shard windows only when the lattice or the partition changed.
  void UpdateGrids(const ResourceManager& rm, ExecMode mode);

  /// Per-shard force inputs for ComputeDisplacementsSharded. Valid until
  /// the next UpdateGrids.
  std::vector<ShardForceInput> ForceInputs() const;

  const GridGeometry& geometry() const { return geometry_; }
  const ShardPartition& partition() const { return partition_; }
  /// Rows owned by shard k, ascending. Valid until the next Repartition.
  const std::vector<int32_t>& owned_rows(uint32_t k) const {
    return owned_rows_[k];
  }
  const CompactGrid& grid(uint32_t k) const { return grids_[k]; }
  Communicator& communicator() { return comm_; }
  const Communicator& communicator() const { return comm_; }

  // --- observability (obs/metrics.h CollectShards consumes these) --------
  /// Ghost rows received into shard k's halo last ExchangeHalos.
  const std::vector<uint64_t>& ghosts_received() const {
    return ghosts_received_;
  }
  /// Agents whose owning shard changed since the previous Repartition.
  /// Row-stable approximation: rows whose uid is unchanged are compared,
  /// permuted/new rows are skipped — exact whenever rows are stable (no
  /// z-order resort, no division), documented in docs/sharding.md.
  uint64_t last_migrations() const { return last_migrations_; }

 private:
  const uint32_t shards_;
  const ShardBalance balance_;
  Communicator comm_;

  GridGeometry geometry_;
  ShardPartition partition_;
  std::vector<CompactGrid> grids_;
  /// Owning z-plane of each row (scratch, rebuilt by Repartition).
  std::vector<int32_t> row_plane_;
  std::vector<std::vector<int32_t>> owned_rows_;
  /// Owned ++ halo ghosts, per shard.
  std::vector<std::vector<int32_t>> members_;
  std::vector<uint64_t> ghosts_received_;

  // Migration tracking (previous step's owner per row + uid guard).
  std::vector<int32_t> prev_owner_;
  std::vector<AgentUid> prev_uids_;
  uint64_t last_migrations_ = 0;

  // Window reconfiguration gate.
  bool grids_configured_ = false;
  GridGeometry configured_geometry_;
  std::vector<int32_t> configured_begin_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_SHARD_RUNTIME_H_
