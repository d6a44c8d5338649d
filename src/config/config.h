// qmcxx: configuration, precision policy and engine taxonomy.
//
// The paper (Mathuriya et al., SC'17) evaluates three configurations of
// QMCPACK:
//   Ref      -- AoS data layout, store-over-compute, all double precision
//   Ref+MP   -- Ref algorithms with key tables in single precision
//   Current  -- SoA layout, compute-on-the-fly, mixed precision
// Two axes separate them, and qmcxx keeps exactly those two: an
// EngineVariant is the {EngineLayout, Precision} pair. Layout selects
// the concrete classes (Aos* vs Soa*), precision the TR template
// parameter; run_engine (drivers/qmc_system.h) dispatches on the pair.
// The legacy names ("ref", "currentdp", ...) are parsed only at the
// CLI/job-spec edge (io::variant_from_name).
#ifndef QMCXX_CONFIG_CONFIG_H
#define QMCXX_CONFIG_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace qmcxx
{

/// Spatial dimension of the simulations. The paper's abstractions are
/// D-dimensional; all workloads are 3D.
inline constexpr unsigned OHMMS_DIM = 3;

/// Cache-line alignment (bytes) used by all hot containers.
inline constexpr std::size_t QMC_SIMD_ALIGNMENT = 64;

/// Index type used throughout (matches QMCPACK's choice of int).
using IndexType = int;

/// Full-precision real type for deliberate double-precision work inside
/// code templated on the compute precision TR: accumulators, matrix
/// inversions, Ewald phases, ratio/log-value bookkeeping (paper
/// Sec. 7.2). Bare `double` locals in TR-templated code are rejected by
/// tools/lint/qmcxx_lint.py (rule double-in-tr-template) so that every
/// full-precision escape from TR is a named, grep-able decision.
using FullPrecReal = double;

/// Accumulation type: per-walker and ensemble quantities are always kept
/// in double precision (paper Sec. 7.2).
using AccumType = FullPrecReal;

/// Position type of the *walker record* (serialization format). Note
/// this is a storage type, not an information-content guarantee: the
/// canonical position store inside ParticleSet lives in the table
/// precision TR, so under mixed precision (TR = float) the position
/// chain itself advances in float and walker records hold float-rounded
/// values. The periodic from-scratch recompute (Sec. 7.2) bounds the
/// resulting drift; per-walker and ensemble *accumulators* stay double.
using PosReal = double;

/// Compute precision of the hot path (the TR template parameter).
/// `Single` is the paper's production mixed precision (TR = float
/// tables/kernels, FullPrecReal accumulators and inversions, Sec. 7.2);
/// `Double` is the full-precision reference.
enum class Precision
{
  Double, ///< TR = double everywhere
  Single  ///< TR = float hot path, double accumulators (mixed precision)
};

inline const char* to_string(Precision p)
{
  return p == Precision::Double ? "double" : "single";
}

/// sizeof(TR) for a precision value; matches the qmcxx-snap-v1
/// precision_bytes tag.
inline int precision_bytes(Precision p)
{
  return p == Precision::Double ? 8 : 4;
}

/// Data-layout half of the engine taxonomy: the paper's Ref engines are
/// AoS store-over-compute, the Current engines SoA compute-on-the-fly.
enum class EngineLayout
{
  Aos, ///< AoS containers, store-over-compute (Ref algorithms)
  Soa  ///< SoA containers, compute-on-the-fly
};

/// An engine configuration: the paper's two design axes. The named
/// constants are the four cells of the grid.
struct EngineVariant
{
  EngineLayout layout = EngineLayout::Soa;
  Precision precision = Precision::Single;

  static const EngineVariant Ref;       ///< AoS, store-over-compute, double
  static const EngineVariant RefMP;     ///< AoS, store-over-compute, mixed precision
  static const EngineVariant Current;   ///< SoA, compute-on-the-fly, mixed precision
  static const EngineVariant CurrentDP; ///< Current algorithms in double (ablation)

  friend bool operator==(const EngineVariant&, const EngineVariant&) = default;
};

inline constexpr EngineVariant EngineVariant::Ref{EngineLayout::Aos, Precision::Double};
inline constexpr EngineVariant EngineVariant::RefMP{EngineLayout::Aos, Precision::Single};
inline constexpr EngineVariant EngineVariant::Current{EngineLayout::Soa, Precision::Single};
inline constexpr EngineVariant EngineVariant::CurrentDP{EngineLayout::Soa, Precision::Double};

inline constexpr EngineVariant variant_for(EngineLayout l, Precision p)
{
  return {l, p};
}

/// The paper's label of a configuration. Snapshot fingerprints hash
/// these strings, so they are part of the checkpoint identity.
inline const char* to_string(EngineVariant v)
{
  if (v.layout == EngineLayout::Aos)
    return v.precision == Precision::Double ? "Ref" : "Ref+MP";
  return v.precision == Precision::Double ? "Current(DP)" : "Current";
}

/// Drift-guard knobs of the precision policy (paper Sec. 7.2): what
/// makes the float path production-safe. Threaded DriverConfig ->
/// EngineRunSpec -> run_engine; the monitor itself lives in
/// DiracDeterminant. The compute precision is EngineVariant::precision.
///
/// The guard samples `drift_sample_rows` rotating rows of the inverse
/// each generation (row indices derived from the generation counter
/// only, so chains stay bitwise-identical across crowd_size x
/// num_threads decompositions) and computes the FullPrecReal residual
/// ||psi_row . A^-1 - e_k||_inf. A residual above `drift_tolerance`
/// triggers a from-scratch refresh; `refresh_interval > 0` additionally
/// forces one every that many generations regardless of residual.
struct PrecisionPolicy
{
  /// Refresh when the sampled inverse residual exceeds this (0 disables
  /// residual-triggered refreshes; double-path residuals ~1e-12 never
  /// reach the default, keeping double chains bitwise-identical).
  double drift_tolerance = 1e-3;
  /// Force a from-scratch refresh every N generations (0 = never).
  int refresh_interval = 0;
  /// Rows of each determinant inverse sampled per generation (0
  /// disables the monitor entirely).
  int drift_sample_rows = 2;
};

/// Unified run-shape validation. Degenerate crowd/delay/thread
/// configurations (crowd_size <= 0, delay_rank < 1, num_threads < 0,
/// ...) used to be rejected by per-site `throw std::invalid_argument`
/// blocks scattered across the drivers and update engines; every
/// construction-time check now funnels through these helpers so the
/// bound, the hint and the message shape live in one place.
namespace validate
{

/// Require an integral knob to be at least `min_allowed`.
/// `context` names the constructing object ("DriverConfig", ...),
/// `knob` the field, `hint` an optional clarification appended in
/// parentheses (e.g. "0 = hardware").
inline void at_least(const char* context, const char* knob, long long value,
                     long long min_allowed, const char* hint = nullptr)
{
  if (value < min_allowed)
    throw std::invalid_argument(std::string(context) + ": " + knob + " must be >= " +
                                std::to_string(min_allowed) +
                                (hint ? std::string(" (") + hint + ")" : std::string()) +
                                ", got " + std::to_string(value));
}

/// Require a real-valued knob to be strictly positive. Written as
/// !(value > 0) so NaN is rejected too.
inline void positive(const char* context, const char* knob, double value)
{
  if (!(value > 0.0))
    throw std::invalid_argument(std::string(context) + ": " + knob + " must be > 0, got " +
                                std::to_string(value));
}

} // namespace validate

/// Round n up to a multiple of the SIMD alignment in elements of T.
/// SoA containers pad each component row to this size so that every row
/// starts cache-aligned (paper Sec. 7.4, "full N x Np storage").
template<typename T>
constexpr std::size_t getAlignedSize(std::size_t n)
{
  constexpr std::size_t per_line = QMC_SIMD_ALIGNMENT / sizeof(T);
  static_assert(per_line > 0);
  return ((n + per_line - 1) / per_line) * per_line;
}

} // namespace qmcxx

#endif
