// Unit tests: SPO sets -- the Cartesian transform (SPO-vgl kernel),
// layout/precision agreement, synthetic orbital generation, and
// scalar-vs-batched SPO chain parity.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "wavefunction/spo_set.h"

using namespace qmcxx;

namespace
{

template<typename TR, typename Backend>
std::shared_ptr<SPOSet<TR>> make_set(const Lattice& lat, int grid, int norb, std::uint64_t seed)
{
  auto backend = std::make_shared<Backend>();
  fill_synthetic_orbitals<TR>(*backend, grid, grid, grid, norb, seed);
  return std::make_shared<BsplineSPOSet<TR, Backend>>(lat, backend);
}

} // namespace

TEST(SPOSet, CartesianGradientMatchesFiniteDifference)
{
  const Lattice lat = Lattice::cubic(6.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 14, 6, 99);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{1.234, 4.2, 2.78};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  const double h = 1e-5;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      EXPECT_NEAR(dpsi(d, s), (psi_p[s] - psi_m[s]) / (2 * h), 1e-5) << "d=" << d << " s=" << s;
  }
}

TEST(SPOSet, CartesianLaplacianMatchesFiniteDifference)
{
  const Lattice lat = Lattice::cubic(6.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 16, 4, 7);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np), psi_0(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{2.1, 0.9, 5.3};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  spos->evaluate_v(r, psi_0.data());
  const double h = 2e-4;
  std::vector<double> lap_fd(norb, 0.0);
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      lap_fd[s] += (psi_p[s] - 2 * psi_0[s] + psi_m[s]) / (h * h);
  }
  for (int s = 0; s < norb; ++s)
    EXPECT_NEAR(d2psi[s], lap_fd[s], 5e-3 * std::max(1.0, std::abs(lap_fd[s]))) << s;
}

TEST(SPOSet, HexagonalCellTransformCorrect)
{
  // The reduced->Cartesian jacobian is non-diagonal for hexagonal cells;
  // finite differences in Cartesian space validate it.
  const Lattice lat = Lattice::hexagonal(5.0, 8.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 14, 4, 3);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{0.8, 1.7, 3.1};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  const double h = 1e-5;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      EXPECT_NEAR(dpsi(d, s), (psi_p[s] - psi_m[s]) / (2 * h), 1e-5);
  }
}

TEST(SPOSet, AoSandSoABackendsAgree)
{
  const Lattice lat = Lattice::cubic(7.3);
  auto soa = make_set<double, MultiBspline3D<double>>(lat, 12, 10, 11);
  auto aos = make_set<double, BsplineSetAoS<double>>(lat, 12, 10, 11);
  const int norb = 10;
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> v1(np), v2(np), l1(np), l2(np);
  VectorSoaContainer<double, 3> g1(norb), g2(norb);
  RandomGenerator rng(5);
  for (int t = 0; t < 20; ++t)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 7.3), rng.uniform(0, 7.3), rng.uniform(0, 7.3)};
    soa->evaluate_vgl(r, v1.data(), g1, l1.data());
    aos->evaluate_vgl(r, v2.data(), g2, l2.data());
    for (int s = 0; s < norb; ++s)
    {
      EXPECT_NEAR(v1[s], v2[s], 1e-12);
      for (unsigned d = 0; d < 3; ++d)
        EXPECT_NEAR(g1(d, s), g2(d, s), 1e-11);
      EXPECT_NEAR(l1[s], l2[s], 1e-10);
    }
  }
}

TEST(SPOSet, FloatTracksDouble)
{
  const Lattice lat = Lattice::cubic(7.3);
  auto sd = make_set<double, MultiBspline3D<double>>(lat, 12, 8, 21);
  auto sf = make_set<float, MultiBspline3D<float>>(lat, 12, 8, 21);
  aligned_vector<double> vd(getAlignedSize<double>(8));
  aligned_vector<float> vf(getAlignedSize<float>(8));
  RandomGenerator rng(9);
  for (int t = 0; t < 10; ++t)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 7.3), rng.uniform(0, 7.3), rng.uniform(0, 7.3)};
    sd->evaluate_v(r, vd.data());
    sf->evaluate_v(r, vf.data());
    for (int s = 0; s < 8; ++s)
      EXPECT_NEAR(vd[s], static_cast<double>(vf[s]), 2e-5);
  }
}

TEST(SyntheticOrbitals, LinearlyIndependent)
{
  // The Slater matrix on random positions must be far from singular.
  const Lattice lat = Lattice::cubic(6.0);
  const int norb = 16;
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 12, norb, 777);
  RandomGenerator rng(8);
  Matrix<double> a(norb, norb);
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np);
  for (int i = 0; i < norb; ++i)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)};
    spos->evaluate_v(r, psi.data());
    for (int j = 0; j < norb; ++j)
      a(i, j) = psi[j];
  }
  Matrix<double> inv;
  double logdet, sign;
  EXPECT_NO_THROW(linalg::invert_matrix(a, inv, logdet, sign));
  EXPECT_TRUE(std::isfinite(logdet));
}

TEST(SyntheticOrbitals, DeterministicForSeed)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto s1 = make_set<double, MultiBspline3D<double>>(lat, 10, 4, 42);
  auto s2 = make_set<double, MultiBspline3D<double>>(lat, 10, 4, 42);
  aligned_vector<double> v1(getAlignedSize<double>(4)), v2(getAlignedSize<double>(4));
  const TinyVector<double, 3> r{1.2, 3.4, 0.5};
  s1->evaluate_v(r, v1.data());
  s2->evaluate_v(r, v2.data());
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(v1[s], v2[s]);
}

TEST(SyntheticOrbitals, PeriodicAcrossCellBoundary)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 12, 4, 13);
  aligned_vector<double> v1(getAlignedSize<double>(4)), v2(getAlignedSize<double>(4));
  const TinyVector<double, 3> r{1.2, 3.4, 0.5};
  const TinyVector<double, 3> r_shift = r + TinyVector<double, 3>{5.0, -5.0, 10.0};
  spos->evaluate_v(r, v1.data());
  spos->evaluate_v(r_shift, v2.data());
  for (int s = 0; s < 4; ++s)
    EXPECT_NEAR(v1[s], v2[s], 1e-10);
}

TEST(SPOSet, TableBytesMatchBackend)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto backend = std::make_shared<MultiBspline3D<float>>();
  fill_synthetic_orbitals<float>(*backend, 10, 10, 10, 6, 1);
  BsplineSPOSetSoA<float> spos(lat, backend);
  EXPECT_EQ(spos.table_bytes(), backend->coefficient_bytes());
  EXPECT_EQ(spos.num_orbitals(), 6);
}

// ---------------------------------------------------------------------
// Scalar-vs-batched SPO chain parity: crowd_size 1 drives the per-walker
// scalar SPO calls, crowd_size 4 the crowd-batched mw_evaluate_* kernels.
// The two Graphite chains must be bitwise identical.
// ---------------------------------------------------------------------

namespace
{

struct SpoChainCase
{
  const char* name;
  EngineVariant variant;
  bool dmc;
  int delay_rank;
};

RunResult run_graphite_chain(const SpoChainCase& c, int crowd_size)
{
  EngineRunSpec spec;
  spec.spec_path = io::workload_spec_path(Workload::Graphite);
  spec.variant = c.variant;
  spec.dmc = c.dmc;
  spec.driver.tau = 0.02;
  spec.driver.steps = 2;
  spec.driver.num_walkers = 6;
  spec.driver.seed = 20170708;
  spec.driver.recompute_period = 3;
  spec.driver.crowd_size = crowd_size;
  spec.driver.num_threads = 1;
  spec.driver.delay_rank = c.delay_rank;
  return run_engine(spec).result;
}

} // namespace

class SpoChainParity : public ::testing::TestWithParam<SpoChainCase>
{};

TEST_P(SpoChainParity, CrowdOneAndFourBitwiseIdentical)
{
  const RunResult scalar = run_graphite_chain(GetParam(), /*crowd_size=*/1);
  const RunResult batched = run_graphite_chain(GetParam(), /*crowd_size=*/4);
  ASSERT_EQ(scalar.generations.size(), batched.generations.size());
  for (std::size_t g = 0; g < scalar.generations.size(); ++g)
  {
    const GenerationStats& a = scalar.generations[g];
    const GenerationStats& b = batched.generations[g];
    EXPECT_EQ(a.energy, b.energy) << "generation " << g;
    EXPECT_EQ(a.variance, b.variance) << "generation " << g;
    EXPECT_EQ(a.weight, b.weight) << "generation " << g;
    EXPECT_EQ(a.num_walkers, b.num_walkers) << "generation " << g;
    EXPECT_EQ(a.acceptance, b.acceptance) << "generation " << g;
    EXPECT_EQ(a.trial_energy, b.trial_energy) << "generation " << g;
  }
  EXPECT_EQ(scalar.mean_energy, batched.mean_energy);
  EXPECT_EQ(scalar.mean_variance, batched.mean_variance);
}

// The double-precision Current VMC and DMC chains are covered by
// CrowdParity.GraphiteVmcCrowdMatchesScalar / GraphiteDmcCrowdMatchesScalar.
INSTANTIATE_TEST_SUITE_P(
    Graphite, SpoChainParity,
    ::testing::Values(
        // float spline kernels: reassociation in the fused batched
        // accumulation would show up immediately in single precision.
        SpoChainCase{"FloatCurrentVmc", EngineVariant::Current, false, 1},
        // AoS backend, whose *_multi entry points are flat per-position loops.
        SpoChainCase{"RefVmc", EngineVariant::Ref, false, 1},
        // Delayed updates route NLPP ratios through effective_row.
        SpoChainCase{"CurrentDPDmcDelay4", EngineVariant::CurrentDP, true, 4}),
    [](const ::testing::TestParamInfo<SpoChainCase>& pinfo) {
      return std::string(pinfo.param.name);
    });
