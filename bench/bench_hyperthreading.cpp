// Sec. 8.2 hyperthreading study: threads-per-core sweep on NiO-32.
//
// The paper finds 2 threads/core optimal (+10% on BDW, +8.5% on KNL;
// 3-4 threads/core no better) because hyperthreading hides the memory
// latency of the random 4D B-spline table reads. The measured sweep
// runs walker crowds concurrently on the drivers' ThreadPool (threads
// beyond the core count show oversubscription behaviour); the
// latency-hiding gain itself is reported through a memory-stall model
// fed by the measured Bspline kernel share (docs/API.md, "Substitutions").
//
// --real-threads widens the measured sweep to {1, 2, 4} threads and
// emits the measured records into BENCH_hyperthreading.json next to
// the modeled gain (records tagged by the "num_threads"/"modeled"
// metrics). Chains are bitwise-identical across the sweep.
#include <cstring>

#include "bench/bench_common.h"

using namespace qmcxx;

int main(int argc, char** argv)
{
  bool real_threads = false;
  for (int a = 1; a < argc; ++a)
    if (!std::strcmp(argv[a], "--real-threads"))
      real_threads = true;

  bench::header("Sec. 8.2: hyperthreading (threads per core) study, NiO-32 Current",
                "Mathuriya et al. SC'17, Sec. 8.2");
  bench::BenchJsonWriter json("hyperthreading");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"threads", "throughput", "vs 1 thread"});
  double base = 0;
  const std::vector<int> sweep =
      real_threads ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2};
  for (int threads : sweep)
  {
    EngineRunSpec spec;
    spec.spec_path = io::workload_spec_path(Workload::NiO32);
    spec.variant = EngineVariant::Current;
    spec.driver = bench::default_config(Workload::NiO32);
    spec.driver.num_walkers = 4;
    spec.driver.crowd_size = 1; // one walker per crowd: 4 concurrent tasks
    spec.driver.num_threads = threads;
    const EngineReport rep = run_engine(spec);
    if (threads == 1)
      base = rep.result.throughput;
    rows.push_back({std::to_string(threads), fmt(rep.result.throughput, 2) + "/s",
                    fmt(rep.result.throughput / base, 2) + "x"});
    json.add_engine_record("NiO-32", "Current", rep);
    json.add_metric("modeled", 0);
    json.add_metric("num_threads", threads);
    json.add_metric("speedup_vs_serial", rep.result.throughput / base);
  }
  print_table(rows);

  // Latency-hiding model: a second hardware thread overlaps the
  // memory-stall fraction of the Bspline kernels (random table reads).
  // stall fraction ~ 35% of Bspline time on a cache-based CPU; the
  // second thread recovers ~60% of it.
  const EngineReport rep = bench::run(Workload::NiO32, EngineVariant::Current);
  const double t_bspline = rep.profile.seconds[static_cast<int>(Kernel::BsplineV)] +
      rep.profile.seconds[static_cast<int>(Kernel::BsplineVGH)];
  const double bspline_share = t_bspline / rep.profile.total();
  const double stall_fraction = 0.35;
  const double recovered = 0.60;
  const double modeled_gain = 1.0 / (1.0 - bspline_share * stall_fraction * recovered) - 1.0;
  std::printf("\nmodeled 2-threads/core gain from Bspline latency hiding:\n");
  std::printf("  Bspline share of runtime: %.1f%%\n", 100 * bspline_share);
  std::printf("  modeled SMT-2 gain: +%.1f%% (paper: +10%% BDW, +8.5%% KNL)\n",
              100 * modeled_gain);
  std::printf("  SMT-3/4: no further gain once the stall fraction is hidden\n"
              "  (paper: '3 or 4 threads per core does not improve throughput').\n");
  json.add_engine_record("NiO-32", "Current", rep);
  json.add_metric("modeled", 1);
  json.add_metric("bspline_share", bspline_share);
  json.add_metric("modeled_smt2_gain", modeled_gain);
  json.write();
  return 0;
}
