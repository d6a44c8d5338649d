// Unit tests: Ewald summation (Madelung constants, consistency
// identities), Coulomb components and the non-local pseudopotential
// quadrature.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "hamiltonian/coulomb.h"
#include "hamiltonian/ewald.h"
#include "hamiltonian/pseudopotential.h"
#include "test_utils.h"
#include "wavefunction/trial_wavefunction.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{
using Pos = TinyVector<double, 3>;
}

TEST(Ewald, NaClMadelungConstant)
{
  // Rocksalt with nearest-neighbor distance 1: energy per ion pair is
  // -M_NaCl = -1.747564594...
  const double a0 = 2.0; // conventional cell; nn distance = 1
  const Lattice lat = Lattice::cubic(a0);
  std::vector<Pos> r = {{0, 0, 0},     {1, 1, 0},     {1, 0, 1},     {0, 1, 1},   // +
                        {1, 0, 0},     {0, 1, 0},     {0, 0, 1},     {1, 1, 1}};  // -
  std::vector<double> q = {1, 1, 1, 1, -1, -1, -1, -1};
  EwaldSum ewald(lat, 1e-10);
  const double e = ewald.energy(r, q);
  const double madelung = -e / 4.0; // 4 ion pairs, r_nn = 1
  EXPECT_NEAR(madelung, 1.7475645946, 1e-6);
}

TEST(Ewald, CsClMadelungConstant)
{
  // CsCl structure: simple cubic of +, body center -; Madelung constant
  // referred to the nearest-neighbor distance sqrt(3)/2 a: 1.76267...
  const Lattice lat = Lattice::cubic(1.0);
  std::vector<Pos> r = {{0, 0, 0}, {0.5, 0.5, 0.5}};
  std::vector<double> q = {1, -1};
  EwaldSum ewald(lat, 1e-10);
  const double e = ewald.energy(r, q);
  const double r_nn = std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(-e * r_nn, 1.76267477, 1e-6);
}

TEST(Ewald, ToleranceConvergence)
{
  const Lattice lat = Lattice::cubic(3.7);
  RandomGenerator rng(3);
  std::vector<Pos> r;
  std::vector<double> q;
  for (int i = 0; i < 10; ++i)
  {
    r.push_back(Pos{rng.uniform(0, 3.7), rng.uniform(0, 3.7), rng.uniform(0, 3.7)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  const double e6 = EwaldSum(lat, 1e-6).energy(r, q);
  const double e10 = EwaldSum(lat, 1e-10).energy(r, q);
  EXPECT_NEAR(e6, e10, 1e-4 * std::abs(e10) + 1e-5);
}

TEST(Ewald, TranslationInvariance)
{
  const Lattice lat = Lattice::cubic(4.2);
  RandomGenerator rng(9);
  std::vector<Pos> r;
  std::vector<double> q;
  for (int i = 0; i < 8; ++i)
  {
    r.push_back(Pos{rng.uniform(0, 4.2), rng.uniform(0, 4.2), rng.uniform(0, 4.2)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  EwaldSum ewald(lat, 1e-8);
  const double e0 = ewald.energy(r, q);
  const Pos shift{1.234, -0.77, 2.5};
  for (auto& ri : r)
    ri += shift;
  EXPECT_NEAR(ewald.energy(r, q), e0, 1e-8 * std::abs(e0) + 1e-9);
}

namespace
{

/// Full-sphere reference for the k-space sums, one std::polar per
/// (k, particle): rho(k) = sum_i q_i exp(i k.r_i) over every k of the
/// EwaldSum cutoff sphere at the default tolerance.
struct DirectKSpace
{
  std::vector<Pos> k;
  std::vector<double> kfac;

  DirectKSpace(const Lattice& lat, double alpha)
  {
    const double log_tol = -std::log(1e-5);
    const double kmax = 2.0 * alpha * std::sqrt(log_tol);
    const auto& b = lat.reciprocal_rows();
    int m[3];
    for (int a = 0; a < 3; ++a)
      m[a] = static_cast<int>(std::ceil(kmax / norm(b[a])));
    for (int n0 = -m[0]; n0 <= m[0]; ++n0)
      for (int n1 = -m[1]; n1 <= m[1]; ++n1)
        for (int n2 = -m[2]; n2 <= m[2]; ++n2)
        {
          const Pos kv = static_cast<double>(n0) * b[0] + static_cast<double>(n1) * b[1] +
              static_cast<double>(n2) * b[2];
          const double k2 = norm2(kv);
          if ((n0 == 0 && n1 == 0 && n2 == 0) || k2 > kmax * kmax)
            continue;
          k.push_back(kv);
          kfac.push_back(2.0 * M_PI / lat.volume() * std::exp(-k2 / (4.0 * alpha * alpha)) / k2);
        }
  }

  std::complex<double> rho(std::size_t kk, const std::vector<Pos>& r,
                           const std::vector<double>& q) const
  {
    std::complex<double> s(0.0, 0.0);
    for (std::size_t i = 0; i < r.size(); ++i)
      s += q[i] * std::polar(1.0, dot(k[kk], r[i]));
    return s;
  }
};

EwaldSum::StructureFactor soa_structure_factor(const EwaldSum& ew, const std::vector<Pos>& r,
                                               const std::vector<double>& q)
{
  std::vector<double> x, y, z;
  for (const auto& ri : r)
  {
    x.push_back(ri[0]);
    y.push_back(ri[1]);
    z.push_back(ri[2]);
  }
  return ew.structure_factor(x.data(), y.data(), z.data(), q.data(), static_cast<int>(r.size()));
}

} // namespace

TEST(Ewald, HalfSpaceSumsMatchFullSphereOnEverySpec)
{
  // Seeded random electrons in each committed cell with the spec's ion
  // charges: the half-space SoA structure factor must reproduce the
  // direct full-sphere electron k-space energy and the electron-ion
  // k-space cross term.
  for (const char* file : {"be64.json", "graphite.json", "graphite-32.json", "nio32.json",
                           "nio-48.json", "nio64.json"})
  {
    SCOPED_TRACE(file);
    const SystemSpec spec = load_spec(file);
    const Lattice& lat = spec.lattice;
    RandomGenerator rng(29);
    std::vector<Pos> re;
    for (int i = 0; i < spec.num_electrons; ++i)
      re.push_back(lat.to_cart(Pos{rng.uniform(), rng.uniform(), rng.uniform()}));
    const std::vector<double> qe(re.size(), -1.0);
    std::vector<double> qi;
    for (std::size_t s = 0; s < spec.species.size(); ++s)
      qi.insert(qi.end(), spec.ion_counts[s], spec.species[s].charge);
    ASSERT_EQ(qi.size(), spec.ion_positions.size());

    const EwaldSum ew(lat);
    const DirectKSpace direct(lat, ew.alpha());
    ASSERT_EQ(direct.k.size(), 2 * static_cast<std::size_t>(ew.num_kvectors()));
    double ee = 0.0, ei = 0.0, q_e = 0.0, q_i = 0.0;
    for (std::size_t kk = 0; kk < direct.k.size(); ++kk)
    {
      const std::complex<double> rho_e = direct.rho(kk, re, qe);
      const std::complex<double> rho_i = direct.rho(kk, spec.ion_positions, qi);
      ee += direct.kfac[kk] * std::norm(rho_e);
      ei += direct.kfac[kk] * 2.0 * (rho_e * std::conj(rho_i)).real();
    }
    for (double q : qe)
      q_e += q;
    for (double q : qi)
      q_i += q;
    ei += -M_PI / (lat.volume() * ew.alpha() * ew.alpha()) * q_e * q_i;

    const auto rho_e = soa_structure_factor(ew, re, qe);
    const auto rho_i = soa_structure_factor(ew, spec.ion_positions, qi);
    EXPECT_NEAR(ew.kspace_energy(rho_e), ee, 1e-12 * std::abs(ee));
    EXPECT_NEAR(ew.interaction_kspace(rho_e, rho_i), ei, 1e-12 * std::abs(ei));
  }
}

TEST(Coulomb, TableTermsSumToUnionEwaldEnergy)
{
  // E(e u I) = CoulombEE + CoulombEI(r_core = 0) + CoulombII: the
  // production table-backed terms against the position-based reference.
  for (const Lattice& lat : {Lattice::cubic(5.0), Lattice::hexagonal(4.6, 6.3)})
  {
    RandomGenerator rng(17);
    ParticleSet<double> ions("ion", lat);
    ions.add_species("A", 2.0);
    ions.add_species("B", 3.0);
    ions.create({2, 1});
    randomize_positions(ions, rng);
    ParticleSet<double> elec("e", lat);
    elec.add_species("u", -1.0);
    elec.create({7});
    randomize_positions(elec, rng);
    const int tee = elec.add_table(std::make_unique<SoaDistanceTableAA<double>>(lat, 7));
    const int tei = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, 7));
    elec.update();
    TrialWaveFunction<double> twf(7);

    CoulombEE<double> cee(lat, tee);
    CoulombEI<double> cei(ions, {0.0, 0.0}, tei);
    CoulombII<double> cii(ions);
    const double e_terms = cee.evaluate(elec, twf) + cei.evaluate(elec, twf) +
        cii.evaluate(elec, twf);

    std::vector<Pos> r_all = elec.positions();
    const std::vector<Pos>& r_ion = ions.positions();
    r_all.insert(r_all.end(), r_ion.begin(), r_ion.end());
    const std::vector<double> q_all = {-1, -1, -1, -1, -1, -1, -1, 2, 2, 3};
    const double e_all = EwaldSum(lat).energy(r_all, q_all);
    EXPECT_NEAR(e_terms, e_all, 1e-10 * std::abs(e_all));
  }
}

TEST(NonLocalPP, VanishesForConstantWavefunction)
{
  // With no wavefunction components every ratio is 1, and the l = 1
  // angular quadrature integrates P_1 exactly to zero.
  auto ions = make_ions<double>(2, 2, 6.0);
  auto elec = make_electrons<double>(6, 6, 6.0);
  const int ti =
      elec->add_table(std::make_unique<SoaDistanceTableAB<double>>(elec->lattice(), *ions, 12));
  elec->update();
  TrialWaveFunction<double> twf(12);

  std::vector<NLChannel> channels = {NLChannel{1, 2.0, 1.0, 5.0}, NLChannel{1, 1.0, 0.8, 5.0}};
  NonLocalPP<double> nlpp(*ions, channels, ti);
  const double e = nlpp.evaluate(*elec, twf);
  EXPECT_NEAR(e, 0.0, 1e-10);
}

TEST(NonLocalPP, RespectsCutoff)
{
  // Zero when all electrons are farther than rcut from every ion.
  Lattice lat = Lattice::cubic(20.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 4.0);
  ions.create({1});
  ions.set_pos(0, {0, 0, 0});
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.create({2});
  elec.set_pos(0, {8, 8, 8});
  elec.set_pos(1, {9, 2, 9});
  const int ti = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, 2));
  elec.update();
  TrialWaveFunction<double> twf(2);
  NonLocalPP<double> nlpp(ions, {NLChannel{1, 3.0, 1.0, 1.5}}, ti);
  EXPECT_EQ(nlpp.evaluate(elec, twf), 0.0);
}

TEST(CoulombII, ConstantAndNegativeForNeutralCrystal)
{
  // Rocksalt-like ion lattice: the Madelung energy is negative.
  Lattice lat = Lattice::cubic(4.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 1.0);
  ions.add_species("B", -1.0);
  ions.create({4, 4});
  const std::vector<TinyVector<double, 3>> pos = {{0, 0, 0}, {2, 2, 0}, {2, 0, 2}, {0, 2, 2},
                                                  {2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {2, 2, 2}};
  ions.set_positions(pos);
  CoulombII<double> cii(ions);
  ParticleSet<double> dummy_e("e", lat);
  TrialWaveFunction<double> twf(0);
  const double e1 = cii.evaluate(dummy_e, twf);
  const double e2 = cii.evaluate(dummy_e, twf);
  EXPECT_LT(e1, 0.0);
  EXPECT_EQ(e1, e2);
}

TEST(CoulombEI, CoreRegularizationReducesSingularity)
{
  // With the erf-regularized core, the e-i energy near an ion stays
  // finite and above the bare -Z/r value.
  Lattice lat = Lattice::cubic(8.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 6.0);
  ions.create({1});
  ions.set_pos(0, {4, 4, 4});
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.create({1});
  elec.set_pos(0, {4.001, 4, 4}); // nearly on top of the ion
  const int tei = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, 1));
  elec.update();
  TrialWaveFunction<double> twf(1);

  CoulombEI<double> bare(ions, {0.0}, tei);
  CoulombEI<double> soft(ions, {0.8}, tei);
  const double e_bare = bare.evaluate(elec, twf);
  const double e_soft = soft.evaluate(elec, twf);
  EXPECT_LT(e_bare, -1000.0); // -Z/r with r = 1e-3
  EXPECT_GT(e_soft, -100.0);  // erf regularized
}
