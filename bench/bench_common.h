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
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "drivers/qmc_system.h"
#include "instrument/report.h"
#include "io/job_spec.h"
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
// Output directory: $QMCXX_BENCH_JSON_DIR if set, else the CWD. Set
// QMCXX_BENCH_JSON=0 to suppress the file.
// ---------------------------------------------------------------------
class BenchJsonWriter
{
public:
  explicit BenchJsonWriter(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  /// Start a record for one engine run and fill the standard metrics.
  void add_engine_record(const std::string& workload, const std::string& variant,
                         const EngineReport& rep)
  {
    std::ostringstream os;
    os << "    {\n";
    os << "      \"workload\": \"" << workload << "\",\n";
    os << "      \"variant\": \"" << variant << "\",\n";
    os << "      \"seconds\": " << rep.result.seconds << ",\n";
    os << "      \"total_samples\": " << rep.result.total_samples << ",\n";
    os << "      \"throughput\": " << rep.result.throughput << ",\n";
    os << "      \"mean_energy\": " << rep.result.mean_energy << ",\n";
    os << "      \"build_seconds\": " << rep.build_seconds << ",\n";
    os << "      \"footprint_bytes\": " << rep.footprint_bytes << ",\n";
    os << "      \"peak_bytes\": " << rep.peak_bytes << ",\n";
    os << "      \"spline_bytes\": " << rep.spline_bytes << ",\n";
    os << "      \"walker_bytes\": " << rep.walker_bytes << ",\n";
    os << "      \"dist_table_bytes\": " << rep.dist_table_bytes << ",\n";
    os << "      \"kernel_seconds\": {";
    for (int k = 0; k < static_cast<int>(Kernel::kCount); ++k)
    {
      os << (k ? ", " : "") << "\"" << kernel_name(static_cast<Kernel>(k))
         << "\": " << rep.profile.seconds[k];
    }
    os << "}";
    records_.push_back(os.str());
    metrics_.emplace_back();
  }

  /// Start a minimal record for a kernel-level bench that times raw
  /// kernels instead of running a whole engine: only workload/variant
  /// tags, all numbers attached through add_metric().
  void add_kernel_record(const std::string& workload, const std::string& variant)
  {
    std::ostringstream os;
    os << "    {\n";
    os << "      \"workload\": \"" << workload << "\",\n";
    os << "      \"variant\": \"" << variant << "\"";
    records_.push_back(os.str());
    metrics_.emplace_back();
  }

  /// Attach a named scalar to the most recent record; requires at least
  /// one add_engine_record() / add_kernel_record() first.
  void add_metric(const std::string& key, double value)
  {
    assert(!metrics_.empty() && "add_metric needs a record: call add_engine_record first");
    std::ostringstream os;
    os << "\"" << key << "\": " << value;
    metrics_.back().push_back(os.str());
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
    std::ofstream out(path);
    if (!out)
      return {};
    out << "{\n  \"schema\": \"qmcxx-bench-v1\",\n  \"bench\": \"" << bench_name_
        << "\",\n  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i)
    {
      out << records_[i] << ",\n      \"metrics\": {";
      for (std::size_t m = 0; m < metrics_[i].size(); ++m)
        out << (m ? ", " : "") << metrics_[i][m];
      out << "}\n    }" << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("\n[bench-json] wrote %s\n", path.c_str());
    return path;
  }

private:
  std::string bench_name_;
  std::vector<std::string> records_;
  std::vector<std::vector<std::string>> metrics_;
};

} // namespace qmcxx::bench

#endif
