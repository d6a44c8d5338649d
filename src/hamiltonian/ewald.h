// Ewald summation for periodic point-charge Coulomb interactions.
//
// The electron-electron and ion-ion Coulomb terms of the local energy
// (paper Eq. 7) are conditionally convergent sums in periodic boundary
// conditions; Ewald splits them into a short-range real-space part
// (erfc-screened, minimum image) and a smooth reciprocal-space part,
// plus self-interaction and neutralizing-background corrections.
//
// The reciprocal-space part runs over a half-space k list: for real
// charges rho(-k) = conj(rho(k)), so each +/-k pair enters once with a
// doubled prefactor. rho(k) = sum_i q_i exp(i k.r_i) is reduced from
// per-axis phase rows e^{i p b_a.r_i} stored SoA (re and im rows,
// contiguous in the particle index), so the particle loop is a
// unit-stride SIMD reduction with no trig call per k-vector.
#ifndef QMCXX_HAMILTONIAN_EWALD_H
#define QMCXX_HAMILTONIAN_EWALD_H

#include <array>
#include <cmath>
#include <vector>

#include "containers/tiny_vector.h"
#include "particle/lattice.h"

namespace qmcxx
{

class EwaldSum
{
public:
  using Pos = TinyVector<double, 3>;

  /// Structure factor of one charge set on the half-space k list:
  /// rho(k) = sum_i q_i exp(i k . r_i), plus the total charge.
  struct StructureFactor
  {
    std::vector<double> re, im;
    double q_sum = 0.0;
  };

  /// tolerance controls the truncation of both sums; the real-space
  /// cutoff is the Wigner-Seitz radius so that only the nearest image
  /// enters the erfc sum.
  explicit EwaldSum(const Lattice& lattice, double tolerance = 1e-5);

  double alpha() const { return alpha_; }
  double rcut() const { return rcut_; }
  /// k-vectors in the half-space list; each stands for +k and -k.
  int num_kvectors() const { return static_cast<int>(kindex_.size()); }

  /// Total Coulomb energy of charges q at positions r (same length).
  double energy(const std::vector<Pos>& r, const std::vector<double>& q) const;

  /// Screened real-space pair potential erfc(alpha r)/r for a
  /// minimum-image distance r already in hand (e.g. a distance-table
  /// row entry); zero beyond the real-space cutoff. Summing this over
  /// i < j pairs with q_i q_j weights reproduces the real-space part of
  /// energy() exactly.
  double real_space_term(double r) const
  {
    return r < rcut_ ? std::erfc(alpha_ * r) / r : 0.0;
  }

  /// Self-interaction and neutralizing-background corrections of
  /// energy() (positions-independent): -e_self + e_background.
  double self_background(const std::vector<double>& q) const;

  /// rho(k) of n charges q at the SoA coordinate rows x, y, z (the
  /// compute-precision rows of ParticleSet::Rsoa(), widened to double).
  template<typename T>
  StructureFactor structure_factor(const T* x, const T* y, const T* z, const double* q,
                                   int n) const;

  /// Reciprocal-space energy of one charge set: sum_k kfac |rho(k)|^2.
  double kspace_energy(const StructureFactor& rho) const;

  /// Reciprocal-space and background cross energy of two charge sets
  /// (the electron-ion term): sum_k 2 kfac Re(rho_a rho_b*) minus the
  /// cross background; the real-space pair sum is the caller's.
  double interaction_kspace(const StructureFactor& a, const StructureFactor& b) const;

private:
  Lattice lattice_;
  double alpha_ = 1.0;
  double rcut_ = 1.0;
  int mmax_[3] = {0, 0, 0};                 ///< per-axis integer k range
  std::vector<std::array<int, 3>> kindex_;  ///< half-space integer k indices
  std::vector<double> kfac_; ///< 2 x 2 pi/V * exp(-k^2/4a^2)/k^2 per k
};

} // namespace qmcxx

#endif
