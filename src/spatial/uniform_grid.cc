#include "spatial/uniform_grid.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "physics/displacement.h"

namespace biosim {

void UniformGridEnvironment::Update(const ResourceManager& rm,
                                    const Param& param, ExecMode mode) {
  GridGeometry geometry = GridGeometry::Derive(rm, param, fixed_box_length_);
  // The window is reconfigured only when the lattice moved (always on a
  // growing open domain, never on a torus or fixed bounds).
  if (!configured_ || !geometry.SameLattice(geometry_)) {
    csr_.Configure(geometry, 0, geometry.num_boxes_axis.z, /*halo=*/0,
                    mode);
    configured_ = true;
  }
  geometry_ = geometry;
  interaction_radius_ = geometry.interaction_radius;
  csr_.Build(nullptr, rm.size(), rm.positions().data(), mode);
  ++update_stats_.full_rebuilds;
}

void UniformGridEnvironment::ForEachNeighborWithinRadius(
    AgentIndex query, const ResourceManager& rm, double radius,
    NeighborFn fn) const {
  if (radius > geometry_.box_length + 1e-12) {
    // Out of contract in any build type: the traversal only visits the 27
    // surrounding boxes, so a larger radius would silently miss neighbors.
    throw std::invalid_argument(
        "UniformGridEnvironment: query radius " + std::to_string(radius) +
        " exceeds the box length " + std::to_string(geometry_.box_length) +
        "; the uniform grid only covers the 27 surrounding boxes");
  }
  const auto& pos = rm.positions();
  const Double3 q = pos[query];
  const double r2 = radius * radius;
  const int32_t* starts = csr_.starts().data();
  const int32_t* agents = csr_.agents().data();

  // The occupied boxes of the 3x3x3 block around the query's box (Fig. 4),
  // canonical order: clamped at the domain faces normally, wrapped around
  // them on a torus.
  size_t slots[27];
  const int slot_count = csr_.NeighborSlotsOf(BoxCoordinatesOf(q), slots);
  for (int k = 0; k < slot_count; ++k) {
    const int32_t end = starts[slots[k] + 1];
    for (int32_t t = starts[slots[k]]; t < end; ++t) {
      const int32_t j = agents[t];
      if (static_cast<AgentIndex>(j) == query) {
        continue;
      }
      double d2 = geometry_.torus
                      ? MinImageVector(q, pos[j], geometry_.edge).SquaredNorm()
                      : SquaredDistance(q, pos[j]);
      if (d2 <= r2) {
        fn(static_cast<AgentIndex>(j), d2);
      }
    }
  }
}

double UniformGridEnvironment::MeanAgentsPerBox() const {
  const size_t occupied = csr_.occupied_boxes();
  return occupied == 0 ? 0.0
                       : static_cast<double>(csr_.agents().size()) /
                             static_cast<double>(occupied);
}

double UniformGridEnvironment::MeanNeighborCount(const ResourceManager& rm,
                                                 size_t sample_stride) const {
  if (rm.empty()) {
    return 0.0;
  }
  // A zero stride would loop forever on the first agent; treat it as "sample
  // everything" instead.
  sample_stride = std::max<size_t>(1, sample_stride);
  size_t count = 0;
  size_t samples = 0;
  for (size_t i = 0; i < rm.size(); i += sample_stride) {
    ++samples;
    ForEachNeighborWithinRadius(
        i, rm, interaction_radius_,
        [&](AgentIndex, double) { ++count; });
  }
  return static_cast<double>(count) / static_cast<double>(samples);
}

}  // namespace biosim
