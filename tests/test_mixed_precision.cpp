// Property tests for the mixed-precision policy (paper Sec. 7.2):
// float-table engines must track the double engines within single
// precision across system sizes and seeds, per-walker/ensemble
// quantities stay in double, and the periodic recompute keeps the
// accumulated drift bounded over long PbyP sequences.
#include <gtest/gtest.h>

#include <cmath>

#include "drivers/qmc_driver_impl.h"
#include "workloads/system_builder.h"

using namespace qmcxx;

namespace
{

SystemSpec scaled_workload(int nions)
{
  SystemSpec w;
  w.name = "scaled-" + std::to_string(nions);
  w.has_pseudopotential = true;
  w.num_electrons = 4 * nions;
  w.num_orbitals = w.num_electrons / 2;
  w.grid = {10, 10, 10};
  w.species = {{"X", 4.0, -0.4, 1.1, 0.6, 0.8, 0.9, 1.6}};
  w.ion_counts = {nions};
  const double box = 5.0 * std::cbrt(static_cast<double>(nions));
  w.lattice = Lattice::cubic(box);
  RandomGenerator rng(nions * 31 + 7);
  for (int a = 0; a < nions; ++a)
  {
    // Jittered lattice arrangement keeps ions separated.
    const int per_axis = static_cast<int>(std::ceil(std::cbrt(static_cast<double>(nions))));
    const int ix = a % per_axis, iy = (a / per_axis) % per_axis, iz = a / (per_axis * per_axis);
    w.ion_positions.push_back(w.lattice.to_cart(
        TinyVector<double, 3>{(ix + 0.5) / per_axis, (iy + 0.5) / per_axis,
                              (iz + 0.5) / per_axis}));
  }
  return w;
}

} // namespace

class MixedPrecisionSweep : public ::testing::TestWithParam<int> // nions
{};

TEST_P(MixedPrecisionSweep, LogPsiTracksDouble)
{
  const SystemSpec w = scaled_workload(GetParam());
  BuildOptions opt;
  auto sd = build_system<double>(w, opt);
  auto sf = build_system<float>(w, opt);
  // Same seed produces the same start configuration; the float engine's
  // canonical store holds the float-rounded double coordinates.
  for (int i = 0; i < w.num_electrons; ++i)
    for (unsigned d = 0; d < 3; ++d)
      ASSERT_EQ(static_cast<double>(static_cast<float>(sd.elec->pos(i)[d])),
                sf.elec->pos(i)[d]);
  sd.elec->update();
  sf.elec->update();
  const double ld = sd.twf->evaluate_log(*sd.elec);
  const double lf = sf.twf->evaluate_log(*sf.elec);
  // Single-precision tables: relative agreement ~1e-4.
  EXPECT_NEAR(lf, ld, 2e-4 * std::abs(ld) + 2e-3) << w.name;
}

TEST_P(MixedPrecisionSweep, LocalEnergyTracksDouble)
{
  const SystemSpec w = scaled_workload(GetParam());
  BuildOptions opt;
  auto sd = build_system<double>(w, opt);
  auto sf = build_system<float>(w, opt);
  sd.elec->update();
  sf.elec->update();
  sd.twf->evaluate_log(*sd.elec);
  sf.twf->evaluate_log(*sf.elec);
  const double ed = sd.ham->evaluate(*sd.elec, *sd.twf);
  const double ef = sf.ham->evaluate(*sf.elec, *sf.twf);
  // E_L involves large kinetic cancellations: allow looser tolerance
  // that still catches precision-policy regressions.
  EXPECT_NEAR(ef, ed, 5e-3 * std::abs(ed) + 0.05) << w.name;
}

TEST_P(MixedPrecisionSweep, GradientsTrackDouble)
{
  const SystemSpec w = scaled_workload(GetParam());
  BuildOptions opt;
  auto sd = build_system<double>(w, opt);
  auto sf = build_system<float>(w, opt);
  sd.elec->update();
  sf.elec->update();
  sd.twf->evaluate_log(*sd.elec);
  sf.twf->evaluate_log(*sf.elec);
  for (int k = 0; k < w.num_electrons; k += std::max(1, w.num_electrons / 7))
  {
    const auto gd = sd.twf->eval_grad(*sd.elec, k);
    const auto gf = sf.twf->eval_grad(*sf.elec, k);
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(gf[d], gd[d], 2e-3 * std::abs(gd[d]) + 2e-3) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MixedPrecisionSweep, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           return "ions" + std::to_string(pinfo.param);
                         });

TEST(MixedPrecision, AccumulationsAreAlwaysDouble)
{
  // Compile-time policy checks (paper Sec. 7.2): per-walker and
  // ensemble quantities never degrade to float.
  static_assert(std::is_same_v<AccumType, double>);
  static_assert(std::is_same_v<decltype(Walker{}.weight), double>);
  static_assert(std::is_same_v<decltype(Walker{}.local_energy), double>);
  static_assert(std::is_same_v<decltype(GenerationStats{}.energy), double>);
  // TrialWaveFunction G/L accumulators are double even for float engines.
  static_assert(
      std::is_same_v<typename TrialWaveFunction<float>::Grad, TinyVector<double, 3>>);
  SUCCEED();
}

TEST(MixedPrecision, RecomputeBoundsDriftOverLongRuns)
{
  // Run the float engine for many generations with and without the
  // periodic from-scratch recompute; the recompute path's final
  // log psi must match a fresh double evaluation more closely.
  const SystemSpec w = scaled_workload(4);
  auto run_final_error = [&](int recompute_period) {
    BuildOptions opt;
    auto sys = build_system<float>(w, opt);
    DriverConfig cfg;
    cfg.steps = 12;
    cfg.num_walkers = 2;
    cfg.num_threads = 1;
    cfg.seed = 99;
    cfg.recompute_period = recompute_period;
    QMCDriver<float> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
    driver.initialize_population();
    driver.run_vmc();
    // Compare buffered log psi against a from-scratch evaluation for
    // the first walker.
    auto& wk = *driver.population().walkers.front();
    auto check = build_system<float>(w, opt);
    check.elec->load_walker(wk);
    check.elec->update();
    const double fresh = check.twf->evaluate_log(*check.elec);
    return std::abs(wk.log_psi - fresh);
  };
  const double with_recompute = run_final_error(3);
  const double without = run_final_error(0);
  EXPECT_LT(with_recompute, 5e-3);
  EXPECT_LE(with_recompute, without + 1e-6);
}

TEST(MixedPrecision, CurrentDPIsolatesLayoutFromPrecision)
{
  // The CurrentDP ablation (SoA layout, double precision) must agree
  // with Ref (AoS, double) to near machine precision: layout is
  // mathematically neutral.
  const SystemSpec w = scaled_workload(4);
  BuildOptions aos, soa;
  aos.soa_layout = false;
  soa.soa_layout = true;
  auto s1 = build_system<double>(w, aos);
  auto s2 = build_system<double>(w, soa);
  s1.elec->update();
  s2.elec->update();
  const double l1 = s1.twf->evaluate_log(*s1.elec);
  const double l2 = s2.twf->evaluate_log(*s2.elec);
  EXPECT_NEAR(l1, l2, 1e-9 * std::abs(l1) + 1e-9);
}
