#include "hamiltonian/ewald.h"

#include <cmath>

namespace qmcxx
{

EwaldSum::EwaldSum(const Lattice& lattice, double tolerance) : lattice_(lattice)
{
  rcut_ = lattice.wigner_seitz_radius();
  // Choose alpha so the real-space sum is converged at the Wigner-Seitz
  // radius: erfc(a r) ~ exp(-(a r)^2) ~ tolerance.
  const double log_tol = -std::log(tolerance);
  alpha_ = std::sqrt(log_tol) / rcut_;
  // Reciprocal cutoff: exp(-k^2 / 4 a^2) ~ tolerance.
  const double kmax = 2.0 * alpha_ * std::sqrt(log_tol);

  const auto& b = lattice.reciprocal_rows();
  mmax_[0] = static_cast<int>(std::ceil(kmax / norm(b[0])));
  mmax_[1] = static_cast<int>(std::ceil(kmax / norm(b[1])));
  mmax_[2] = static_cast<int>(std::ceil(kmax / norm(b[2])));
  // Half space: n0 > 0, or n0 == 0 and n1 > 0, or n0 == n1 == 0 and
  // n2 > 0. The (n0, n1) order keeps each run of n2 contiguous for the
  // reduction in structure_factor().
  const double two_pi_over_v = 2.0 * M_PI / lattice.volume();
  for (int n0 = 0; n0 <= mmax_[0]; ++n0)
    for (int n1 = -mmax_[1]; n1 <= mmax_[1]; ++n1)
      for (int n2 = -mmax_[2]; n2 <= mmax_[2]; ++n2)
      {
        if (n0 == 0 && (n1 < 0 || (n1 == 0 && n2 <= 0)))
          continue;
        const Pos k = static_cast<double>(n0) * b[0] + static_cast<double>(n1) * b[1] +
            static_cast<double>(n2) * b[2];
        const double k2 = norm2(k);
        if (k2 > kmax * kmax)
          continue;
        kindex_.push_back({n0, n1, n2});
        kfac_.push_back(2.0 * two_pi_over_v * std::exp(-k2 / (4.0 * alpha_ * alpha_)) / k2);
      }
}

double EwaldSum::energy(const std::vector<Pos>& r, const std::vector<double>& q) const
{
  const std::size_t n = r.size();
  std::vector<double> x(n), y(n), z(n);
  double e_real = 0.0;
  for (std::size_t i = 0; i < n; ++i)
  {
    x[i] = r[i][0];
    y[i] = r[i][1];
    z[i] = r[i][2];
    for (std::size_t j = i + 1; j < n; ++j)
      e_real += q[i] * q[j] * real_space_term(norm(lattice_.min_image(r[j] - r[i])));
  }
  const auto rho = structure_factor(x.data(), y.data(), z.data(), q.data(), static_cast<int>(n));
  return e_real + kspace_energy(rho) + self_background(q);
}

double EwaldSum::self_background(const std::vector<double>& q) const
{
  double q_sum = 0.0, q2_sum = 0.0;
  for (double qi : q)
  {
    q_sum += qi;
    q2_sum += qi * qi;
  }
  const double e_self = alpha_ / std::sqrt(M_PI) * q2_sum;
  const double e_background =
      -M_PI / (2.0 * lattice_.volume() * alpha_ * alpha_) * q_sum * q_sum;
  return -e_self + e_background;
}

template<typename T>
EwaldSum::StructureFactor EwaldSum::structure_factor(const T* x, const T* y, const T* z,
                                                     const double* q, int n) const
{
  // Per-call phase rows: row (a, p) holds e^{i p b_a.r_i} for every
  // particle i, at offset (p + m_a) n of re[a]/im[a], p in [-m_a, m_a].
  // Rows p > 1 come from the recurrence e^{i p t} = e^{i (p-1) t} e^{i t};
  // the cutoff makes every m_a >= 1.
  const auto& b = lattice_.reciprocal_rows();
  std::vector<double> re[3], im[3];
  for (int a = 0; a < 3; ++a)
  {
    const int m = mmax_[a];
    re[a].assign(static_cast<std::size_t>(2 * m + 1) * n, 0.0);
    im[a].assign(static_cast<std::size_t>(2 * m + 1) * n, 0.0);
    double* __restrict r0 = re[a].data() + static_cast<std::size_t>(m) * n;
    double* __restrict i0 = im[a].data() + static_cast<std::size_t>(m) * n;
    for (int i = 0; i < n; ++i)
    {
      const double t = b[a][0] * static_cast<double>(x[i]) +
          b[a][1] * static_cast<double>(y[i]) + b[a][2] * static_cast<double>(z[i]);
      r0[i] = 1.0;
      r0[n + i] = std::cos(t);
      i0[n + i] = std::sin(t);
    }
    for (int p = 2; p <= m; ++p)
    {
      const double* __restrict r1 = r0 + n;
      const double* __restrict i1 = i0 + n;
      const double* __restrict rq = r0 + static_cast<std::size_t>(p - 1) * n;
      const double* __restrict iq = i0 + static_cast<std::size_t>(p - 1) * n;
      double* __restrict rp = r0 + static_cast<std::size_t>(p) * n;
      double* __restrict ip = i0 + static_cast<std::size_t>(p) * n;
#pragma omp simd
      for (int i = 0; i < n; ++i)
      {
        rp[i] = rq[i] * r1[i] - iq[i] * i1[i];
        ip[i] = rq[i] * i1[i] + iq[i] * r1[i];
      }
    }
    // e^{-i p t} = conj(e^{i p t})
    for (int p = 1; p <= m; ++p)
    {
      const double* __restrict rp = r0 + static_cast<std::size_t>(p) * n;
      const double* __restrict ip = i0 + static_cast<std::size_t>(p) * n;
      double* __restrict rn = r0 - static_cast<std::size_t>(p) * n;
      double* __restrict in = i0 - static_cast<std::size_t>(p) * n;
#pragma omp simd
      for (int i = 0; i < n; ++i)
      {
        rn[i] = rp[i];
        in[i] = -ip[i];
      }
    }
  }
  const auto row = [&](int a, int p) {
    return static_cast<std::size_t>(p + mmax_[a]) * n;
  };

  StructureFactor rho;
  for (int i = 0; i < n; ++i)
    rho.q_sum += q[i];
  const std::size_t nk = kindex_.size();
  rho.re.resize(nk);
  rho.im.resize(nk);
  // q_i e^{i (n0 b_0 + n1 b_1).r_i}, rebuilt once per (n0, n1) run.
  std::vector<double> q01_re(n), q01_im(n);
  for (std::size_t k = 0; k < nk; ++k)
  {
    const auto [n0, n1, n2] = kindex_[k];
    if (k == 0 || n0 != kindex_[k - 1][0] || n1 != kindex_[k - 1][1])
    {
      const double* __restrict ra = re[0].data() + row(0, n0);
      const double* __restrict ia = im[0].data() + row(0, n0);
      const double* __restrict rb = re[1].data() + row(1, n1);
      const double* __restrict ib = im[1].data() + row(1, n1);
      double* __restrict qr = q01_re.data();
      double* __restrict qi = q01_im.data();
#pragma omp simd
      for (int i = 0; i < n; ++i)
      {
        qr[i] = q[i] * (ra[i] * rb[i] - ia[i] * ib[i]);
        qi[i] = q[i] * (ra[i] * ib[i] + ia[i] * rb[i]);
      }
    }
    const double* __restrict qr = q01_re.data();
    const double* __restrict qi = q01_im.data();
    const double* __restrict rc = re[2].data() + row(2, n2);
    const double* __restrict ic = im[2].data() + row(2, n2);
    double sr = 0.0, si = 0.0;
#pragma omp simd reduction(+ : sr, si)
    for (int i = 0; i < n; ++i)
    {
      sr += qr[i] * rc[i] - qi[i] * ic[i];
      si += qr[i] * ic[i] + qi[i] * rc[i];
    }
    rho.re[k] = sr;
    rho.im[k] = si;
  }
  return rho;
}

template EwaldSum::StructureFactor EwaldSum::structure_factor(const float*, const float*,
                                                              const float*, const double*,
                                                              int) const;
template EwaldSum::StructureFactor EwaldSum::structure_factor(const double*, const double*,
                                                              const double*, const double*,
                                                              int) const;

double EwaldSum::kspace_energy(const StructureFactor& rho) const
{
  double e = 0.0;
  for (std::size_t k = 0; k < kfac_.size(); ++k)
    e += kfac_[k] * (rho.re[k] * rho.re[k] + rho.im[k] * rho.im[k]);
  return e;
}

double EwaldSum::interaction_kspace(const StructureFactor& a, const StructureFactor& b) const
{
  double e_recip = 0.0;
  for (std::size_t k = 0; k < kfac_.size(); ++k)
    e_recip += 2.0 * kfac_[k] * (a.re[k] * b.re[k] + a.im[k] * b.im[k]);
  const double e_background = -M_PI / (lattice_.volume() * alpha_ * alpha_) * a.q_sum * b.q_sum;
  return e_recip + e_background;
}

} // namespace qmcxx
