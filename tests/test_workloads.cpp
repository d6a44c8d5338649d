// Unit tests: every committed system (specs/*.json) must be physically
// sane, and the four paper workloads must match the paper's Table 1
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "config/config.h"
#include "io/job_spec.h"
#include "workloads/system_spec.h"

#include "test_utils.h"

using namespace qmcxx;
using namespace qmcxx::testing;

class WorkloadTable1 : public ::testing::TestWithParam<const char*> // spec file
{};

TEST_P(WorkloadTable1, ElectronCountMatchesIonCharges)
{
  const SystemSpec w = load_spec(GetParam());
  double total_charge = 0;
  for (std::size_t s = 0; s < w.species.size(); ++s)
    total_charge += w.species[s].charge * w.ion_counts[s];
  EXPECT_EQ(w.num_electrons, static_cast<int>(total_charge)) << w.name;
}

TEST_P(WorkloadTable1, IonCountsConsistent)
{
  const SystemSpec w = load_spec(GetParam());
  ASSERT_EQ(w.ion_counts.size(), w.species.size());
  int total = 0;
  for (int c : w.ion_counts)
    total += c;
  EXPECT_EQ(static_cast<int>(w.ion_positions.size()), total);
}

TEST_P(WorkloadTable1, OrbitalsAreHalfTheElectrons)
{
  const SystemSpec w = load_spec(GetParam());
  EXPECT_EQ(w.num_orbitals, w.num_electrons / 2);
}

TEST_P(WorkloadTable1, IonsInsideCellAndSeparated)
{
  const SystemSpec w = load_spec(GetParam());
  // All ions fold into the unit cube.
  for (const auto& r : w.ion_positions)
  {
    const auto u = w.lattice.to_unit_folded(r);
    for (unsigned d = 0; d < 3; ++d)
    {
      EXPECT_GE(u[d], 0.0);
      EXPECT_LT(u[d], 1.0);
    }
  }
  // No two ions closer than 1.5 bohr (minimum image).
  double min_dist = 1e9;
  for (std::size_t i = 0; i < w.ion_positions.size(); ++i)
    for (std::size_t j = i + 1; j < w.ion_positions.size(); ++j)
      min_dist = std::min(min_dist,
                          norm(w.lattice.min_image(w.ion_positions[j] - w.ion_positions[i])));
  EXPECT_GT(min_dist, 1.5) << w.name;
}

TEST_P(WorkloadTable1, JastrowCutoffsFitTheCell)
{
  const SystemSpec w = load_spec(GetParam());
  EXPECT_GT(w.lattice.wigner_seitz_radius(), 1.5);
  for (const auto& sp : w.species)
  {
    EXPECT_GT(sp.j1_width, 0);
    if (sp.nl_amplitude != 0)
    {
      EXPECT_LT(sp.nl_rcut, w.lattice.wigner_seitz_radius());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTable1,
                         ::testing::Values("graphite.json", "be64.json", "nio32.json",
                                           "nio64.json", "graphite-32.json", "nio-48.json"),
                         [](const ::testing::TestParamInfo<const char*>& pinfo) {
                           // The spec's own name, e.g. "NiO-32" -> "NiO32".
                           std::string name = load_spec(pinfo.param).name;
                           std::erase(name, '-');
                           return name;
                         });

TEST(Workloads, PaperTable1Values)
{
  // Pin the Table 1 values the paper specs carry.
  const SystemSpec g = load_spec(Workload::Graphite);
  EXPECT_EQ(g.num_electrons, 256);
  EXPECT_EQ(g.ion_positions.size(), 64u);
  EXPECT_EQ(g.species[0].charge, 4.0); // C
  EXPECT_TRUE(g.has_pseudopotential);
  const SystemSpec be = load_spec(Workload::Be64);
  EXPECT_EQ(be.num_electrons, 256);
  EXPECT_EQ(be.ion_positions.size(), 64u);
  EXPECT_EQ(be.species[0].charge, 4.0); // Be, all-electron
  EXPECT_FALSE(be.has_pseudopotential);
  const SystemSpec n32 = load_spec(Workload::NiO32);
  EXPECT_EQ(n32.num_electrons, 384);
  EXPECT_EQ(n32.ion_positions.size(), 32u);
  EXPECT_EQ(n32.species[0].charge, 18.0); // Ni
  EXPECT_EQ(n32.species[1].charge, 6.0);  // O
  EXPECT_TRUE(n32.has_pseudopotential);
  const SystemSpec n64 = load_spec(Workload::NiO64);
  EXPECT_EQ(n64.num_electrons, 768);
  EXPECT_EQ(n64.ion_positions.size(), 64u);
  EXPECT_EQ(n64.species[0].charge, 18.0);
  EXPECT_EQ(n64.species[1].charge, 6.0);
  EXPECT_TRUE(n64.has_pseudopotential);
}

TEST(Workloads, NiOIsRocksalt)
{
  // Every Ni must have O as nearest neighbours at a0/2.
  const SystemSpec w = load_spec(Workload::NiO32);
  const int n_ni = w.ion_counts[0];
  const int n_ion = static_cast<int>(w.ion_positions.size());
  const double a_half = 7.89 / 2.0;
  for (int i = 0; i < n_ni; ++i)
  {
    double nearest_o = 1e9;
    for (int j = n_ni; j < n_ion; ++j)
      nearest_o = std::min(nearest_o,
                           norm(w.lattice.min_image(w.ion_positions[j] - w.ion_positions[i])));
    EXPECT_NEAR(nearest_o, a_half, 1e-9) << i;
  }
}

TEST(Workloads, HexagonalCellsForGraphiteAndBe)
{
  EXPECT_FALSE(load_spec(Workload::Graphite).lattice.orthorhombic());
  EXPECT_FALSE(load_spec(Workload::Be64).lattice.orthorhombic());
  EXPECT_TRUE(load_spec(Workload::NiO32).lattice.orthorhombic());
  EXPECT_TRUE(load_spec(Workload::NiO64).lattice.orthorhombic());
}

TEST(Workloads, SplineTableOrderingMatchesPaper)
{
  // The paper's spline tables order Graphite < NiO-32 ~ Be-64 < NiO-64;
  // the scaled qmcxx grids preserve Graphite smallest / NiO-64 largest.
  auto bytes = [](Workload w) {
    const SystemSpec s = load_spec(w);
    return static_cast<std::size_t>(s.grid[0] + 3) * (s.grid[1] + 3) * (s.grid[2] + 3) *
        getAlignedSize<float>(s.num_orbitals);
  };
  EXPECT_LT(bytes(Workload::Graphite), bytes(Workload::Be64));
  EXPECT_LT(bytes(Workload::Graphite), bytes(Workload::NiO32));
  EXPECT_LT(bytes(Workload::NiO32), bytes(Workload::NiO64));
  EXPECT_LT(bytes(Workload::Be64), bytes(Workload::NiO64));
}
