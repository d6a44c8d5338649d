#include "drivers/qmc_system.h"

#include <stdexcept>
#include <string>

#include "drivers/qmc_drivers.h"
#include "estimators/estimators.h"
#include "instrument/memory_tracker.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "instrument/stopwatch.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

namespace qmcxx
{
namespace
{

template<typename TR>
EngineReport run_typed(const EngineRunSpec& spec, const SystemSpec& sysspec)
{
  auto& mt = MemoryTracker::instance();
  auto& timers = TimerRegistry::instance();
  mt.clearTags();
  const std::size_t mem0 = mt.current();

  const Stopwatch build_watch;
  BuildOptions opt;
  opt.soa_layout = spec.variant.layout == EngineLayout::Soa;
  opt.seed = spec.driver.seed;
  // The spec's delay_rank is a default; an explicit driver request
  // (> 1) wins so job files can still A/B the delayed path.
  opt.delay_rank = spec.driver.delay_rank > 1 ? spec.driver.delay_rank : sysspec.delay_rank;
  QMCSystem<TR> sys = build_system<TR>(sysspec, opt);

  // Stamp the workload identity into the driver config so snapshots
  // written by this run carry it, and restores verify it. The resolved
  // spec's content hash distinguishes same-named different-content
  // specs.
  DriverConfig dcfg = spec.driver;
  dcfg.delay_rank = opt.delay_rank;
  dcfg.checkpoint_fingerprint = io::workload_fingerprint(
      sysspec.name, to_string(spec.variant), dcfg.delay_rank, spec_content_hash(sysspec));
  QMCDriver<TR> driver(*sys.elec, *sys.twf, *sys.ham, dcfg);
  if (spec.estimators)
    driver.set_estimators(
        make_default_estimators<TR>(sysspec.lattice, sys.table_ee, sysspec.num_electrons));
  {
    MemoryScope scope("walker-buffers");
    if (spec.resume_path.empty())
      driver.initialize_population();
    else
      driver.restore_snapshot(io::read_snapshot_file(spec.resume_path));
  }
  const FullPrecReal build_seconds = build_watch.seconds();

  EngineReport report;
  report.build_seconds = build_seconds;
  report.footprint_bytes = mt.current() - mem0;
  report.spline_bytes = sys.spos->table_bytes();
  report.walker_bytes = driver.population().byte_size();
  report.dist_table_bytes = 0;
  for (int t = 0; t < sys.elec->num_tables(); ++t)
    report.dist_table_bytes += sys.elec->table(t).storage_bytes();

  mt.resetPeak();
  timers.reset();
  report.result = spec.dmc ? driver.run_dmc() : driver.run_vmc();
  report.profile = timers.snapshot();
  report.peak_bytes = mt.peak() - (mem0 < mt.peak() ? mem0 : 0);
  return report;
}

} // namespace

EngineReport run_engine(const EngineRunSpec& spec)
{
  if (spec.spec_path.empty())
    throw std::invalid_argument("run_engine: EngineRunSpec::spec_path is empty (name a "
                                "qmcxx-spec-v1 system file, e.g. io::workload_spec_path)");
  const SystemSpec sysspec =
      io::parse_system_spec(io::read_text_file(spec.spec_path), spec.spec_path);
  return spec.variant.precision == Precision::Double ? run_typed<double>(spec, sysspec)
                                                     : run_typed<float>(spec, sysspec);
}

} // namespace qmcxx
