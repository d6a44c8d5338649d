// Shared fixtures: small synthetic particle systems for unit tests, the
// tiny test system, and the committed specs/ files.
#ifndef QMCXX_TESTS_TEST_UTILS_H
#define QMCXX_TESTS_TEST_UTILS_H

#include <memory>
#include <string>

#include "io/job_spec.h"
#include "numerics/rng.h"
#include "numerics/spline_builder.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "particle/lattice.h"
#include "particle/particle_set.h"
#include "workloads/system_spec.h"

namespace qmcxx::testing
{

/// Scatter n particles uniformly in the cell (deterministic).
template<typename TR>
void randomize_positions(ParticleSet<TR>& p, RandomGenerator& rng)
{
  for (int i = 0; i < p.size(); ++i)
  {
    const TinyVector<double, 3> u{rng.uniform(), rng.uniform(), rng.uniform()};
    p.set_pos(i, p.lattice().to_cart(u));
  }
}

/// Two-species electron set (up/down) in a cubic cell.
template<typename TR>
std::unique_ptr<ParticleSet<TR>> make_electrons(int nup, int ndown, double box,
                                                std::uint64_t seed = 7)
{
  auto p = std::make_unique<ParticleSet<TR>>("e", Lattice::cubic(box));
  p->add_species("u", -1.0);
  p->add_species("d", -1.0);
  p->create({nup, ndown});
  RandomGenerator rng(seed);
  randomize_positions(*p, rng);
  return p;
}

/// Two-species ion set in the same cell.
template<typename TR>
std::unique_ptr<ParticleSet<TR>> make_ions(int na, int nb, double box, std::uint64_t seed = 11)
{
  auto p = std::make_unique<ParticleSet<TR>>("ion", Lattice::cubic(box));
  p->add_species("A", 4.0);
  p->add_species("B", 6.0);
  p->create({na, nb});
  RandomGenerator rng(seed);
  randomize_positions(*p, rng);
  return p;
}

/// A short-ranged test functor: smooth well with cusp, cutoff rc.
template<typename TR>
std::shared_ptr<CubicBsplineFunctor<TR>> make_test_functor(double rc, double cusp = -0.5,
                                                           int knots = 10)
{
  return std::make_shared<CubicBsplineFunctor<TR>>(
      build_bspline_functor<TR>(ee_jastrow_shape(cusp, rc), cusp, rc, knots));
}

/// A miniature system (16 electrons, 4 ions of Z* = 4 in a 7 bohr cubic
/// cell) for fast driver tests. The name only feeds snapshot
/// fingerprints.
inline SystemSpec tiny_spec(const std::string& name = "Tiny")
{
  SystemSpec s;
  s.name = name;
  s.num_electrons = 16;
  s.grid = {10, 10, 10};
  s.num_orbitals = 8;
  s.has_pseudopotential = true;
  s.species = {{"X", 4.0, -0.4, 1.1, 0.6, 0.8, 0.9, 1.6}};
  s.ion_counts = {4};
  s.lattice = Lattice::cubic(7.0);
  s.ion_positions = {{1.75, 1.75, 1.75}, {5.25, 5.25, 1.75}, {5.25, 1.75, 5.25},
                     {1.75, 5.25, 5.25}};
  return s;
}

/// A committed specs/ file (e.g. "graphite-32.json"), parsed.
inline SystemSpec load_spec(const std::string& file)
{
  const std::string path = std::string(QMCXX_SPECS_DIR) + "/" + file;
  return io::parse_system_spec(io::read_text_file(path), path);
}

/// A paper workload's committed spec file, parsed.
inline SystemSpec load_spec(Workload w)
{
  const std::string path = io::workload_spec_path(w);
  return io::parse_system_spec(io::read_text_file(path), path);
}

} // namespace qmcxx::testing

#endif
