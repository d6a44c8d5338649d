// Job requests for the qmc_server example, and qmcxx-spec-v1 system
// files (workloads/system_spec.h; the committed specs/*.json are the only
// system definitions, and Workload just names the four paper files):
//
//   { "workload": "Graphite", "variant": "current", "dmc": false,
//     "driver": { "steps": 64, "num_walkers": 16, "seed": 42,
//                 "checkpoint_every": 8 },
//     "mem_budget_mb": 512 }
//
// Both are read by the strict reader of io/json.h: an unknown or repeated
// key fails the job or spec with an error naming it, instead of silently
// running defaults. serialize_system_spec writes through its writer,
// doubles at 17 significant digits, so parse(serialize(s)) == s bitwise
// and each committed spec file is exactly its serializer output.
#ifndef QMCXX_IO_JOB_SPEC_H
#define QMCXX_IO_JOB_SPEC_H

#include <string>
#include <vector>

#include "config/config.h"
#include "drivers/qmc_system.h"
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
  std::string name; ///< job id (spool file stem or "stdin-N")
  /// The run asked for; a server adds its checkpoint path, thread cap
  /// and stop flag. spec_path comes from "spec_path" or "workload" (a
  /// paper file; the keys are exclusive, neither means Graphite). Jobs
  /// default to VMC (run.dmc = false), unlike a bare EngineRunSpec.
  EngineRunSpec run;
  /// Soft per-job memory budget; 0 = unlimited. The server reports a
  /// budget violation (tracked peak > budget) in the completion record.
  double mem_budget_mb = 0.0;
};

/// "Graphite"/"Be-64"/"NiO-32"/"NiO-64" (the paper's Table 1 names) or
/// the aliases graphite/be64/nio32/nio64. Throws on anything else.
[[nodiscard]] Workload workload_from_name(const std::string& s);

/// The committed spec file of a paper workload:
/// QMCXX_SPECS_DIR "/graphite.json", "/be64.json", "/nio32.json" or
/// "/nio64.json".
[[nodiscard]] std::string workload_spec_path(Workload w);

/// "ref" / "refmp" / "current" / "currentdp" (case-insensitive, also
/// accepts the display names "Ref+MP" etc) as their {layout, precision}
/// pairs: the only place the legacy names are read. Throws on anything
/// else.
[[nodiscard]] EngineVariant variant_from_name(const std::string& s);

/// "single" / "double" (case-insensitive), the job-spec "precision"
/// and CLI --precision values. Throws on anything else.
[[nodiscard]] Precision precision_from_name(const std::string& s);

/// Parse one job-request JSON object. A "precision" key replaces the
/// precision half of "variant", in either key order. Throws
/// std::runtime_error with a position/key-naming message on malformed
/// input, unknown or repeated keys.
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
/// malformed input, unknown or repeated keys, or inconsistent counts
/// (species counts vs ion positions, orbitals vs electrons).
[[nodiscard]] SystemSpec parse_system_spec(const std::string& json_text,
                                           const std::string& origin);

/// Serialize to the qmcxx-spec-v1 JSON form, doubles at 17 significant
/// digits: parse_system_spec(serialize_system_spec(s), ...) == s.
[[nodiscard]] std::string serialize_system_spec(const SystemSpec& spec);

} // namespace qmcxx::io

#endif
