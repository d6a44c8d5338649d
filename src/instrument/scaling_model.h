// Multi-node strong-scaling projection (paper Fig. 1).
//
// Fig. 1's content is that the MPI pattern -- one allreduce for the
// running averages plus walker send/recv during load balancing -- is
// cheap and *unchanged* by the single-node optimizations, so the 2-4.5x
// on-node speedup translates directly to multi-node runs at 90-98%
// parallel efficiency. qmcxx reproduces the figure with a calibrated
// alpha-beta communication model fed by *measured* quantities: the
// per-walker-step compute time of each engine and the serialized walker
// size (which the compute-on-the-fly work shrinks by 22.5 MB for
// NiO-64). See docs/API.md, "Substitutions".
#ifndef QMCXX_INSTRUMENT_SCALING_MODEL_H
#define QMCXX_INSTRUMENT_SCALING_MODEL_H

#include <cstddef>
#include <vector>

namespace qmcxx
{

struct ScalingParams
{
  /// Allreduce latency coefficient: t = alpha * log2(nodes).
  double allreduce_alpha_s = 25e-6;
  /// Fraction of walkers migrated per generation during load balancing.
  double migration_fraction = 0.02;
  /// Per-node injection bandwidth (bytes/s), Aries/Omni-Path class.
  double network_bw = 10e9;
  /// Fixed per-step overhead on the node (branching bookkeeping).
  double node_overhead_s = 1e-4;
  /// Cores per node: the measured single-core walker-step time is
  /// divided by this to model a full node's crowd of threads.
  double node_cores = 1.0;
  /// DMC population fluctuation -> load imbalance: stragglers add
  /// roughly coeff/sqrt(walkers_per_node) of the compute time.
  double imbalance_coeff = 1.0;
};

struct ScalingPoint
{
  int nodes;
  double step_seconds;    ///< time per MC generation
  double throughput;      ///< samples (walker-generations) per second
  double efficiency;      ///< vs ideal scaling from the smallest count
};

/// Project strong scaling of a fixed total population across node
/// counts. per_walker_step_s and walker_bytes are measured on the host
/// for the engine configuration being projected.
std::vector<ScalingPoint> project_strong_scaling(double per_walker_step_s,
                                                 std::size_t walker_bytes, long total_population,
                                                 const std::vector<int>& node_counts,
                                                 const ScalingParams& params = {});

} // namespace qmcxx

#endif
