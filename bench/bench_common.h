// Shared helpers for the figure/table reproduction binaries.
//
// Every bench runs a short but representative DMC (or VMC) segment of
// the paper's workloads on this host. Set QMCXX_BENCH_LONG=1 for longer,
// lower-noise runs.
#ifndef QMCXX_BENCH_BENCH_COMMON_H
#define QMCXX_BENCH_BENCH_COMMON_H

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "drivers/qmc_system.h"
#include "instrument/report.h"
#include "io/job_spec.h"
#include "io/json.h"
#include "workloads/system_spec.h"

namespace qmcxx::bench
{

/// The paper's four Table 1 workloads, in table order.
inline constexpr Workload paper_workloads[] = {Workload::Graphite, Workload::Be64,
                                               Workload::NiO32, Workload::NiO64};

/// The committed spec file of a paper workload, parsed.
inline SystemSpec load_spec(Workload w)
{
  const std::string path = io::workload_spec_path(w);
  return io::parse_system_spec(io::read_text_file(path), path);
}

inline bool long_mode()
{
  const char* env = std::getenv("QMCXX_BENCH_LONG");
  return env && env[0] == '1';
}

/// Standard short-run driver settings per workload: big systems get
/// fewer walkers/steps so every bench binary finishes in seconds.
inline DriverConfig default_config(Workload w)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.seed = 20170708;
  cfg.num_threads = 1;
  cfg.recompute_period = 8;
  const bool big = (w == Workload::NiO64);
  cfg.num_walkers = big ? 2 : 3;
  cfg.steps = big ? 2 : 3;
  cfg.warmup_steps = 0;
  if (long_mode())
  {
    cfg.num_walkers *= 2;
    cfg.steps *= 3;
  }
  return cfg;
}

inline EngineReport run(Workload w, EngineVariant v, bool dmc = true)
{
  EngineRunSpec spec;
  spec.spec_path = io::workload_spec_path(w);
  spec.variant = v;
  spec.dmc = dmc;
  spec.driver = default_config(w);
  return run_engine(spec);
}

/// Samples per second per walker-step second: the paper's throughput
/// figure of merit P = M <Nw> / T_CPU (Sec. 6.2).
inline double throughput(const EngineReport& rep) { return rep.result.throughput; }

inline void header(const std::string& title, const std::string& paper_ref)
{
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

// ---------------------------------------------------------------------
// Machine-readable bench records: every figure/table binary can dump a
// BENCH_<name>.json next to its console output so the perf trajectory
// (layout ablations, hot-spot timings) is recorded run over run.
//
// Schema "qmcxx-bench-v1":
//   { "schema": "qmcxx-bench-v1", "bench": "<name>",
//     "records": [ { "workload": ..., "variant": ...,
//                    "seconds": ..., "total_samples": ...,
//                    "throughput": ..., "build_seconds": ...,
//                    "footprint_bytes": ..., "peak_bytes": ...,
//                    "spline_bytes": ..., "walker_bytes": ...,
//                    "dist_table_bytes": ...,
//                    "kernel_seconds": { "<kernel>": ..., ... },
//                    "metrics": { "<key>": ..., ... } }, ... ] }
//
// Numbers come from the io/json.h writer (17 digits, null if not
// finite). Output directory: $QMCXX_BENCH_JSON_DIR if set, else the CWD;
// QMCXX_BENCH_JSON=0 suppresses the file. A failed write throws.
// ---------------------------------------------------------------------
class BenchJsonWriter
{
public:
  using Layout = io::json::Writer::Layout;

  explicit BenchJsonWriter(std::string bench_name) : bench_name_(std::move(bench_name))
  {
    w_.begin_object(Layout::Lines).member("schema", "qmcxx-bench-v1").member("bench", bench_name_);
    w_.key("records").begin_array(Layout::Lines);
  }

  /// Start a record for one engine run and fill the standard metrics.
  void add_engine_record(const std::string& workload, const std::string& variant,
                         const EngineReport& rep)
  {
    start_record(workload, variant);
    w_.member("seconds", rep.result.seconds).member("total_samples", rep.result.total_samples);
    w_.member("throughput", rep.result.throughput).member("mean_energy", rep.result.mean_energy);
    w_.member("build_seconds", rep.build_seconds).member("footprint_bytes", rep.footprint_bytes);
    w_.member("peak_bytes", rep.peak_bytes).member("spline_bytes", rep.spline_bytes);
    w_.member("walker_bytes", rep.walker_bytes).member("dist_table_bytes", rep.dist_table_bytes);
    w_.key("kernel_seconds").begin_object();
    for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k)
      w_.member(kernel_name(static_cast<Kernel>(k)), rep.profile.seconds[k]);
    w_.end_object();
    w_.key("metrics").begin_object();
  }

  /// Start a minimal record for a kernel-level bench that times raw
  /// kernels instead of running a whole engine: only workload/variant
  /// tags, all numbers attached through add_metric().
  void add_kernel_record(const std::string& workload, const std::string& variant)
  {
    start_record(workload, variant);
    w_.key("metrics").begin_object();
  }

  /// Attach a named scalar to the most recent record; requires at least
  /// one add_engine_record() / add_kernel_record() first.
  void add_metric(const std::string& key, double value)
  {
    assert(in_record_ && "add_metric needs a record: call add_engine_record first");
    w_.member(key, value);
  }

  /// Write BENCH_<name>.json; returns the path (empty if suppressed).
  std::string write() const
  {
    const char* off = std::getenv("QMCXX_BENCH_JSON");
    if (off && off[0] == '0')
      return {};
    const char* dir = std::getenv("QMCXX_BENCH_JSON_DIR");
    const std::string path =
        (dir && dir[0] ? std::string(dir) + "/" : std::string()) + "BENCH_" + bench_name_ + ".json";
    io::json::Writer w = w_;
    if (in_record_)
      w.end_object().end_object(); // metrics, record
    w.end_array().end_object();
    io::write_text_file(path, w.str() + "\n");
    std::printf("\n[bench-json] wrote %s\n", path.c_str());
    return path;
  }

private:
  void start_record(const std::string& workload, const std::string& variant)
  {
    if (in_record_)
      w_.end_object().end_object(); // metrics, record
    w_.begin_object(Layout::Lines).member("workload", workload).member("variant", variant);
    in_record_ = true;
  }

  std::string bench_name_;
  io::json::Writer w_;
  bool in_record_ = false;
};

} // namespace qmcxx::bench

#endif
