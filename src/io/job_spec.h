// Job requests for the qmc_server example: a system (a spec_path to a
// qmcxx-spec-v1 file, or the "workload" name of one of the four paper
// files), an engine variant, and DriverConfig knobs, parsed from a
// small JSON object.
//
//   { "workload": "Graphite", "variant": "current", "dmc": false,
//     "driver": { "steps": 64, "num_walkers": 16, "seed": 42,
//                 "checkpoint_every": 8 },
//     "mem_budget_mb": 512 }
//
// The parser is a minimal recursive-descent JSON reader (objects,
// arrays, strings, numbers, booleans) -- deliberately no external
// dependency. Unknown keys are rejected with an error naming the key,
// so a typo'd knob fails the job instead of silently running defaults.
//
// The same reader parses system ingestion files ("qmcxx-spec-v1",
// workloads/system_spec.h):
//
//   { "schema": "qmcxx-spec-v1", "name": "Graphite",
//     "num_electrons": 256,
//     "lattice": [[9.3,0,0], [-4.65,8.05...,0], [0,0,50.68]],
//     "orbitals": { "kind": "bspline-synthetic",
//                   "grid": [16,16,40], "count": 128 },
//     "jastrow": { "knots": 10 }, "delay_rank": 1,
//     "pseudopotential": true,
//     "species": [ { "name": "C", "charge": 4, "count": 64,
//                    "j1_depth": -0.35, "j1_width": 1.3, "r_core": 0.8,
//                    "nl_amplitude": 0.6, "nl_width": 0.8,
//                    "nl_rcut": 1.7 } ],
//     "ion_positions": [[0,0,0], ...] }
//
// Doubles are written with 17 significant digits, so
// parse_system_spec(serialize_system_spec(s)) == s bitwise. The
// committed specs/ files are the only system definitions; Workload is
// just a typed name for the four paper files among them.
#ifndef QMCXX_IO_JOB_SPEC_H
#define QMCXX_IO_JOB_SPEC_H

#include <string>
#include <vector>

#include "config/config.h"
#include "drivers/qmc_drivers.h"
#include "workloads/system_spec.h"

namespace qmcxx
{

/// The paper's four Table 1 workloads, each a committed specs/ file.
enum class Workload
{
  Graphite,
  Be64,
  NiO32,
  NiO64
};

} // namespace qmcxx

namespace qmcxx::io
{

struct JobSpec
{
  std::string name;        ///< job id (spool file stem or "stdin-N")
  /// Path to the qmcxx-spec-v1 system file. The wire format also
  /// accepts "workload": <name>, which resolves to that workload's
  /// committed file (the two keys are mutually exclusive); with
  /// neither key the job runs Graphite.
  std::string spec_path;
  EngineVariant variant = EngineVariant::Current;
  bool dmc = false;
  /// Attach the default estimator set (g(r), S(k)) and stream its bins
  /// in the per-generation records. Chains are bitwise-identical with
  /// estimators on or off.
  bool estimators = false;
  /// Soft per-job memory budget; 0 = unlimited. The server reports a
  /// budget violation (tracked peak > budget) in the completion record.
  double mem_budget_mb = 0.0;
  DriverConfig driver;
};

/// "Graphite"/"Be-64"/"NiO-32"/"NiO-64" (the paper's Table 1 names) or
/// the aliases graphite/be64/nio32/nio64. Throws on anything else.
[[nodiscard]] Workload workload_from_name(const std::string& s);

/// The committed spec file of a paper workload:
/// QMCXX_SPECS_DIR "/graphite.json", "/be64.json", "/nio32.json" or
/// "/nio64.json".
[[nodiscard]] std::string workload_spec_path(Workload w);

/// "ref" / "refmp" / "current" / "currentdp" (case-insensitive, also
/// accepts the display names "Ref+MP" etc). Throws on anything else.
[[nodiscard]] EngineVariant variant_from_name(const std::string& s);

/// "single" / "double" (case-insensitive), the job-spec and
/// qmcxx-spec-v1 "precision" values. Throws on anything else.
[[nodiscard]] Precision precision_from_name(const std::string& s);

/// Parse one job-request JSON object. Throws std::runtime_error with a
/// position/key-naming message on malformed input or unknown keys.
[[nodiscard]] JobSpec parse_job_spec(const std::string& json_text, const std::string& job_name);

/// Sorted *.json paths in a spool directory (skips .done/.failed/...;
/// sorted so submission order is deterministic). Throws if the
/// directory cannot be read.
[[nodiscard]] std::vector<std::string> list_spool_jobs(const std::string& dir);

/// Whole-file slurp. Throws std::runtime_error if unreadable.
[[nodiscard]] std::string read_text_file(const std::string& path);

/// Atomic text write (temp file + rename, the snapshot discipline): an
/// interrupt mid-write never leaves a torn file at `path`. Throws
/// std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& text);

/// Parse one qmcxx-spec-v1 system file. `origin` names the source in
/// error messages (file path or job id). Throws std::runtime_error on
/// malformed input, unknown keys, or inconsistent counts (species
/// counts vs ion positions, orbitals vs electrons).
[[nodiscard]] SystemSpec parse_system_spec(const std::string& json_text,
                                           const std::string& origin);

/// Serialize to the qmcxx-spec-v1 JSON form, doubles at 17 significant
/// digits: parse_system_spec(serialize_system_spec(s), ...) == s.
[[nodiscard]] std::string serialize_system_spec(const SystemSpec& spec);

} // namespace qmcxx::io

#endif
