#include "workloads/system_spec.h"

#include <cstring>

namespace qmcxx
{
namespace
{

/// FNV-1a (64-bit) with a 0xff separator between fields, matching the
/// io::workload_fingerprint mixing so field boundaries cannot alias.
struct Fnv
{
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(const void* p, std::size_t n)
  {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i)
    {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
    h ^= 0xffu;
    h *= 0x100000001b3ull;
  }

  void mix_string(const std::string& s) { mix(s.data(), s.size()); }
  void mix_i64(std::int64_t v) { mix(&v, sizeof(v)); }
  void mix_f64(double v) { mix(&v, sizeof(v)); }
};

} // namespace

std::uint64_t spec_content_hash(const SystemSpec& spec)
{
  Fnv f;
  f.mix_string(spec.name);
  f.mix_i64(spec.num_electrons);
  for (const int g : spec.grid)
    f.mix_i64(g);
  f.mix_i64(spec.num_orbitals);
  f.mix_i64(spec.jastrow_knots);
  f.mix_i64(spec.delay_rank);
  f.mix_i64(spec.has_pseudopotential ? 1 : 0);
  for (const auto& row : spec.lattice.rows())
    for (unsigned d = 0; d < 3; ++d)
      f.mix_f64(row[d]);
  f.mix_i64(static_cast<std::int64_t>(spec.species.size()));
  for (std::size_t s = 0; s < spec.species.size(); ++s)
  {
    const IonSpecies& sp = spec.species[s];
    f.mix_string(sp.name);
    f.mix_f64(sp.charge);
    f.mix_f64(sp.j1_depth);
    f.mix_f64(sp.j1_width);
    f.mix_f64(sp.r_core);
    f.mix_f64(sp.nl_amplitude);
    f.mix_f64(sp.nl_width);
    f.mix_f64(sp.nl_rcut);
    f.mix_i64(spec.ion_counts[s]);
  }
  for (const auto& r : spec.ion_positions)
    for (unsigned d = 0; d < 3; ++d)
      f.mix_f64(r[d]);
  return f.h;
}

namespace
{

bool pos_equal(const TinyVector<double, 3>& a, const TinyVector<double, 3>& b)
{
  // Bitwise double comparison: the round-trip contract is exactness,
  // and memcmp sidesteps -0.0 == 0.0 and NaN != NaN surprises.
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

} // namespace

bool operator==(const IonSpecies& a, const IonSpecies& b)
{
  const auto feq = [](double x, double y) { return std::memcmp(&x, &y, sizeof(x)) == 0; };
  return a.name == b.name && feq(a.charge, b.charge) && feq(a.j1_depth, b.j1_depth) &&
      feq(a.j1_width, b.j1_width) && feq(a.r_core, b.r_core) &&
      feq(a.nl_amplitude, b.nl_amplitude) && feq(a.nl_width, b.nl_width) &&
      feq(a.nl_rcut, b.nl_rcut);
}

bool operator==(const SystemSpec& a, const SystemSpec& b)
{
  if (a.name != b.name || a.num_electrons != b.num_electrons || a.grid != b.grid ||
      a.num_orbitals != b.num_orbitals || a.jastrow_knots != b.jastrow_knots ||
      a.delay_rank != b.delay_rank ||
      a.has_pseudopotential != b.has_pseudopotential ||
      a.species != b.species || a.ion_counts != b.ion_counts ||
      a.ion_positions.size() != b.ion_positions.size())
    return false;
  for (unsigned r = 0; r < 3; ++r)
    if (!pos_equal(a.lattice.rows()[r], b.lattice.rows()[r]))
      return false;
  for (std::size_t i = 0; i < a.ion_positions.size(); ++i)
    if (!pos_equal(a.ion_positions[i], b.ion_positions[i]))
      return false;
  return true;
}

} // namespace qmcxx
