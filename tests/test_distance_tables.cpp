// Unit + property tests for the distance tables: AoS packed-triangle vs
// SoA full-row (compute-on-the-fly) layouts, the PbyP move protocol
// (paper Fig. 6), and the layout-parity guarantees: Reference (AoS)
// and canonical (SoA) tables serve bitwise-identical rows through the
// unified DTRowView interface, and whole VMC/DMC chains are
// bitwise-identical across layout modes.
#include <gtest/gtest.h>

#include <memory>

#include "drivers/qmc_driver_impl.h"
#include "workloads/system_builder.h"

#include "test_utils.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

/// Reference distances via direct double-precision minimum image.
double exact_dist(const Lattice& lat, const TinyVector<double, 3>& a,
                  const TinyVector<double, 3>& b)
{
  return norm(lat.min_image(b - a));
}

} // namespace

/// Parameter: true for the SoA table, false for the AoS packed triangle.
class DistanceTableAA : public ::testing::TestWithParam<bool>
{
protected:
  static constexpr int kN = 24;

  std::unique_ptr<ParticleSet<double>> make_system(int& table_idx)
  {
    auto p = make_electrons<double>(kN / 2, kN / 2, 6.0);
    if (GetParam())
      table_idx = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), kN));
    else
      table_idx = p->add_table(std::make_unique<AosDistanceTableAA<double>>(p->lattice(), kN));
    p->update();
    return p;
  }
};

TEST_P(DistanceTableAA, EvaluateMatchesExactDistances)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  for (int i = 0; i < kN; ++i)
    for (int j = 0; j < kN; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(dt.dist(i, j), exact_dist(p->lattice(), p->pos(i), p->pos(j)), 1e-12)
          << i << "," << j;
    }
}

TEST_P(DistanceTableAA, DisplacementConventionIsTowardsSource)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  // displ(i,j) = min_image(r_j - r_i); norm must equal dist.
  for (int i = 0; i < kN; i += 5)
    for (int j = 0; j < kN; j += 3)
    {
      if (i == j)
        continue;
      const auto d = dt.displ(i, j);
      const auto expect = p->lattice().min_image(p->pos(j) - p->pos(i));
      for (unsigned dd = 0; dd < 3; ++dd)
        EXPECT_NEAR(d[dd], expect[dd], 1e-12);
      EXPECT_NEAR(norm(d), dt.dist(i, j), 1e-12);
    }
}

TEST_P(DistanceTableAA, MoveFillsTempRow)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  const int k = 7;
  const TinyVector<double, 3> rnew = p->pos(k) + TinyVector<double, 3>{0.3, -0.2, 0.5};
  p->prepare_move(k);
  p->make_move(k, rnew);
  const double* tr = dt.temp_r();
  for (int j = 0; j < kN; ++j)
  {
    if (j == k)
      continue;
    EXPECT_NEAR(tr[j], exact_dist(p->lattice(), rnew, p->pos(j)), 1e-12) << j;
  }
  p->reject_move(k);
}

TEST_P(DistanceTableAA, SweepWithAcceptsKeepsRowsConsistent)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  RandomGenerator rng(99);
  // Ordered sweep accepting every other move, like the PbyP update.
  for (int k = 0; k < kN; ++k)
  {
    p->prepare_move(k);
    const TinyVector<double, 3> rnew =
        p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                        rng.uniform(-0.4, 0.4)};
    p->make_move(k, rnew);
    if (k % 2 == 0)
      p->accept_move(k);
    else
      p->reject_move(k);

    // After each accept, the data future moves will read (row k + 1 at
    // prepare time) must be consistent: verify by preparing the next
    // particle and checking its row.
    if (k + 1 < kN)
    {
      p->prepare_move(k + 1);
      const auto& base = p->table(ti);
      for (int j = 0; j < kN; ++j)
      {
        if (j == k + 1)
          continue;
        const double expect = exact_dist(p->lattice(), p->pos(k + 1), p->pos(j));
        if (GetParam())
        {
          auto& soa = p->template table_as<SoaDistanceTableAA<double>>(ti);
          EXPECT_NEAR(soa.row_d(k + 1)[j], expect, 1e-12) << "k=" << k << " j=" << j;
        }
        else
        {
          EXPECT_NEAR(base.dist(k + 1, j), expect, 1e-12) << "k=" << k << " j=" << j;
        }
      }
    }
  }
  (void)dt;
  // Full refresh at measurement reproduces exact distances everywhere.
  p->update();
  for (int i = 0; i < kN; ++i)
    for (int j = i + 1; j < kN; ++j)
      EXPECT_NEAR(p->table(ti).dist(i, j), exact_dist(p->lattice(), p->pos(i), p->pos(j)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistanceTableAA, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return std::string(pinfo.param ? "SoaOnTheFly" : "AosPackedTriangle");
                         });

TEST(DistanceTableAASoA, SelfDistanceIsSentinel)
{
  const int n = 8;
  auto p = make_electrons<double>(n / 2, n / 2, 5.0);
  const int ti = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), n));
  p->update();
  auto& dt = p->table(ti);
  for (int i = 0; i < n; ++i)
    EXPECT_GT(dt.dist(i, i), 1e9);
}

TEST(DistanceTableAASoA, PaddedTailIsHarmless)
{
  // Row stride exceeds N; kernels may read the padding, which must be 0.
  const int n = 5;
  auto p = make_electrons<double>(2, 3, 5.0);
  const int ti = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), n));
  p->update();
  auto& dt = p->template table_as<SoaDistanceTableAA<double>>(ti);
  EXPECT_GT(dt.row_stride(), static_cast<std::size_t>(n));
  for (std::size_t j = n; j < dt.row_stride(); ++j)
    EXPECT_EQ(dt.row_d(0)[j], 0.0);
}

// ---------------------------------------------------------------------
// AB tables
// ---------------------------------------------------------------------

class DistanceTableAB : public ::testing::TestWithParam<bool> // soa?
{
protected:
  static constexpr int kNel = 12;
  static constexpr int kNion = 6;

  void build()
  {
    ions_ = make_ions<double>(3, 3, 6.0);
    elec_ = make_electrons<double>(kNel / 2, kNel / 2, 6.0);
    if (GetParam())
      ti_ = elec_->add_table(
          std::make_unique<SoaDistanceTableAB<double>>(elec_->lattice(), *ions_, kNel));
    else
      ti_ = elec_->add_table(
          std::make_unique<AosDistanceTableAB<double>>(elec_->lattice(), *ions_, kNel));
    elec_->update();
  }

  std::unique_ptr<ParticleSet<double>> ions_, elec_;
  int ti_ = -1;
};

TEST_P(DistanceTableAB, EvaluateMatchesExact)
{
  build();
  auto& dt = elec_->table(ti_);
  for (int i = 0; i < kNel; ++i)
    for (int j = 0; j < kNion; ++j)
      EXPECT_NEAR(dt.dist(i, j), exact_dist(elec_->lattice(), elec_->pos(i), ions_->pos(j)), 1e-12);
}

TEST_P(DistanceTableAB, MoveAndUpdateCommitRow)
{
  build();
  auto& dt = elec_->table(ti_);
  const int k = 4;
  const TinyVector<double, 3> rnew = elec_->pos(k) + TinyVector<double, 3>{-0.5, 0.9, 0.2};
  elec_->prepare_move(k);
  elec_->make_move(k, rnew);
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.temp_r()[j], exact_dist(elec_->lattice(), rnew, ions_->pos(j)), 1e-12);
  elec_->accept_move(k);
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.dist(k, j), exact_dist(elec_->lattice(), rnew, ions_->pos(j)), 1e-12);
  // Other rows untouched.
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.dist(0, j), exact_dist(elec_->lattice(), elec_->pos(0), ions_->pos(j)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistanceTableAB, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? std::string("Soa") : std::string("Aos");
                         });

TEST(DistanceTableMixedPrecision, FloatTablesTrackDouble)
{
  const int n = 20;
  auto pd = make_electrons<double>(n / 2, n / 2, 6.0, /*seed=*/3);
  auto pf = make_electrons<float>(n / 2, n / 2, 6.0, /*seed=*/3);
  const int td = pd->add_table(std::make_unique<SoaDistanceTableAA<double>>(pd->lattice(), n));
  const int tf = pf->add_table(std::make_unique<SoaDistanceTableAA<float>>(pf->lattice(), n));
  pd->update();
  pf->update();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(pd->table(td).dist(i, j), static_cast<double>(pf->table(tf).dist(i, j)), 2e-6);
    }
}

// ---------------------------------------------------------------------
// Layout parity: Reference (AoS) vs canonical (SoA) through the unified
// row interface, on a skewed (hexagonal graphite) lattice.
// ---------------------------------------------------------------------

namespace
{

/// Bitwise comparison of two row views over n entries, skipping `skip`
/// (the self index, where only the distance sentinel is specified).
void expect_rows_identical(const DTRowView<double>& a, const DTRowView<double>& b, int n,
                           int skip, const char* what)
{
  for (int j = 0; j < n; ++j)
  {
    if (j == skip)
    {
      EXPECT_EQ(a.d[j], b.d[j]) << what << " sentinel j=" << j;
      continue;
    }
    EXPECT_EQ(a.d[j], b.d[j]) << what << " d j=" << j;
    EXPECT_EQ(a.dx[j], b.dx[j]) << what << " dx j=" << j;
    EXPECT_EQ(a.dy[j], b.dy[j]) << what << " dy j=" << j;
    EXPECT_EQ(a.dz[j], b.dz[j]) << what << " dz j=" << j;
  }
}

} // namespace

TEST(LayoutParity, HexagonalAARowsBitwiseIdentical)
{
  // Graphite's cell shape: hexagonal, exercising the general-cell
  // min-image kernel shared by both layouts.
  const int n = 20;
  Lattice lat = Lattice::hexagonal(4.65, 12.68);
  ParticleSet<double> p("e", lat);
  p.add_species("u", -1.0);
  p.add_species("d", -1.0);
  p.create({n / 2, n / 2});
  RandomGenerator rng(21);
  randomize_positions(p, rng);
  const int ta = p.add_table(std::make_unique<AosDistanceTableAA<double>>(lat, n));
  const int ts = p.add_table(std::make_unique<SoaDistanceTableAA<double>>(lat, n));
  p.update();
  for (int i = 0; i < n; ++i)
    expect_rows_identical(p.table(ta).row(i), p.table(ts).row(i), n, i, "evaluate row");

  // Drive both tables through a PbyP sweep with accepts: temp rows and
  // committed rows must stay bitwise-identical under both update
  // policies (AoS triangle copy vs SoA on-the-fly recompute).
  for (int k = 0; k < n; ++k)
  {
    p.prepare_move(k);
    // Row k is the data the PbyP consumers read at this point: fresh in
    // both layouts (on-the-fly recompute vs always-fresh triangle).
    expect_rows_identical(p.table(ta).row(k), p.table(ts).row(k), n, k, "prepared row");
    const TinyVector<double, 3> rnew =
        p.pos(k) + TinyVector<double, 3>{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                         rng.uniform(-0.4, 0.4)};
    p.make_move(k, rnew);
    expect_rows_identical(p.table(ta).temp_row(), p.table(ts).temp_row(), n, k, "temp row");
    if (k % 2 == 0)
      p.accept_move(k);
    else
      p.reject_move(k);
  }
  // Measurement-time refresh: every committed row identical again (the
  // OnTheFly table deliberately leaves non-active rows stale mid-sweep).
  p.update();
  for (int i = 0; i < n; ++i)
    expect_rows_identical(p.table(ta).row(i), p.table(ts).row(i), n, i, "post-sweep row");
}

TEST(LayoutParity, HexagonalABRowsBitwiseIdentical)
{
  const int nel = 14, nion = 6;
  Lattice lat = Lattice::hexagonal(4.65, 12.68);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("C", 4.0);
  ions.create({nion});
  RandomGenerator irng(5);
  randomize_positions(ions, irng);
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.add_species("d", -1.0);
  elec.create({nel / 2, nel / 2});
  RandomGenerator rng(23);
  randomize_positions(elec, rng);
  const int ta = elec.add_table(std::make_unique<AosDistanceTableAB<double>>(lat, ions, nel));
  const int ts = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, nel));
  elec.update();
  for (int i = 0; i < nel; ++i)
    expect_rows_identical(elec.table(ta).row(i), elec.table(ts).row(i), nion, -1, "evaluate row");

  for (int k = 0; k < nel; ++k)
  {
    elec.prepare_move(k);
    const TinyVector<double, 3> rnew =
        elec.pos(k) + TinyVector<double, 3>{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                            rng.uniform(-0.5, 0.5)};
    elec.make_move(k, rnew);
    expect_rows_identical(elec.table(ta).temp_row(), elec.table(ts).temp_row(), nion, -1,
                          "temp row");
    if (k % 3 != 0)
      elec.accept_move(k);
    else
      elec.reject_move(k);
  }
  for (int i = 0; i < nel; ++i)
    expect_rows_identical(elec.table(ta).row(i), elec.table(ts).row(i), nion, -1,
                          "post-sweep row");
}

namespace
{

DriverConfig parity_config(int steps, int walkers)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.steps = steps;
  cfg.num_walkers = walkers;
  cfg.seed = 20170708;
  cfg.recompute_period = 3;
  cfg.num_threads = 1;
  return cfg;
}

RunResult run_graphite(LayoutMode layout, bool dmc, int steps, int walkers)
{
  const SystemSpec info = load_spec(Workload::Graphite);
  BuildOptions opt;
  opt.layout = layout;
  auto sys = build_system<double>(info, opt);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, parity_config(steps, walkers));
  driver.initialize_population();
  return dmc ? driver.run_dmc() : driver.run_vmc();
}

void expect_chains_identical(const RunResult& a, const RunResult& b, const char* what)
{
  ASSERT_EQ(a.generations.size(), b.generations.size()) << what;
  for (std::size_t g = 0; g < a.generations.size(); ++g)
  {
    EXPECT_EQ(a.generations[g].energy, b.generations[g].energy) << what << " gen " << g;
    EXPECT_EQ(a.generations[g].variance, b.generations[g].variance) << what << " gen " << g;
    EXPECT_EQ(a.generations[g].acceptance, b.generations[g].acceptance) << what << " gen " << g;
    EXPECT_EQ(a.generations[g].num_walkers, b.generations[g].num_walkers) << what << " gen " << g;
    EXPECT_EQ(a.generations[g].weight, b.generations[g].weight) << what << " gen " << g;
  }
}

} // namespace

TEST(LayoutParity, GraphiteVmcChainBitwiseIdentical)
{
  // Acceptance gate of the SoA-canonical refactor: the Reference (AoS)
  // layout, consumed through the unified row interface, reproduces the
  // canonical chain exactly -- layout is storage, not physics.
  const RunResult soa = run_graphite(LayoutMode::Canonical, /*dmc=*/false, /*steps=*/2,
                                     /*walkers=*/2);
  const RunResult aos = run_graphite(LayoutMode::Reference, /*dmc=*/false, 2, 2);
  expect_chains_identical(soa, aos, "vmc");
}

TEST(LayoutParity, GraphiteDmcChainBitwiseIdentical)
{
  const RunResult soa = run_graphite(LayoutMode::Canonical, /*dmc=*/true, /*steps=*/3,
                                     /*walkers=*/2);
  const RunResult aos = run_graphite(LayoutMode::Reference, /*dmc=*/true, 3, 2);
  expect_chains_identical(soa, aos, "dmc");
}

TEST(DistanceTableSkewedCell, SoaFallbackMatchesAos)
{
  // Hexagonal cell exercises the scalar exact-min-image fallback.
  const int n = 14;
  Lattice lat = Lattice::hexagonal(5.0, 8.0);
  ParticleSet<double> p("e", lat);
  p.add_species("u", -1.0);
  p.add_species("d", -1.0);
  p.create({n / 2, n / 2});
  RandomGenerator rng(13);
  randomize_positions(p, rng);
  const int ta = p.add_table(std::make_unique<AosDistanceTableAA<double>>(lat, n));
  const int ts = p.add_table(std::make_unique<SoaDistanceTableAA<double>>(lat, n));
  p.update();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(p.table(ta).dist(i, j), p.table(ts).dist(i, j), 1e-12);
    }
}
