// The four benchmark workloads of the paper (Table 1).
//
// Geometries are the real crystal structures (graphite and hcp Be in
// hexagonal cells, NiO rocksalt supercells in orthorhombic cells) with
// the paper's electron and ion counts. The DFT-derived orbitals and
// optimized Jastrow/pseudopotential parameters are replaced by synthetic
// equivalents with the same counts, cutoffs and code paths (docs/API.md,
// "Substitutions"); spline grids are scaled so the tables keep the
// paper's size ordering while fitting in laptop memory.
#ifndef QMCXX_WORKLOADS_WORKLOADS_H
#define QMCXX_WORKLOADS_WORKLOADS_H

#include <array>
#include <string>
#include <vector>

#include "particle/lattice.h"

namespace qmcxx
{

enum class Workload
{
  Graphite,
  Be64,
  NiO32,
  NiO64
};

inline constexpr std::array<Workload, 4> all_workloads = {Workload::Graphite, Workload::Be64,
                                                          Workload::NiO32, Workload::NiO64};

struct IonSpecies
{
  std::string name;
  double charge;     ///< valence charge Z* (paper Table 1)
  double j1_depth;   ///< one-body Jastrow well depth (hartree)
  double j1_width;   ///< one-body Jastrow width (bohr)
  double r_core;     ///< local-pseudopotential core radius (bohr)
  double nl_amplitude; ///< non-local channel strength (0 = none)
  double nl_width;
  double nl_rcut;
};

struct WorkloadInfo
{
  std::string name;
  Workload id;
  // ---- paper Table 1 metadata ----
  int num_electrons;       ///< N
  int num_ions;            ///< Nion
  int ions_per_unit_cell;
  int num_unit_cells;
  std::string ion_types;   ///< e.g. "Ni(18), O(6)"
  int paper_unique_spos;
  std::string paper_fft_grid;
  double paper_spline_gb;
  bool has_pseudopotential;
  // ---- qmcxx realization ----
  std::array<int, 3> grid; ///< our B-spline grid
  int num_orbitals;        ///< N/2 orbitals per spin determinant
  std::vector<IonSpecies> species;
  std::vector<int> ion_counts; ///< per species
  Lattice lattice;
  /// Ion positions (bohr), grouped by species to match ion_counts.
  std::vector<TinyVector<double, 3>> ion_positions;
};

/// Full description of one benchmark workload.
const WorkloadInfo& workload_info(Workload w);

} // namespace qmcxx

#endif
