// Spec-driven system ingestion (qmcxx-spec-v1): the committed specs/
// files pinned by content hash, bitwise serialize/parse round-trips,
// content-hash fingerprinting, and the parser's error contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

#include "test_utils.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

/// A minimal but complete spec text for parser tests (matches the
/// serializer's shape; contents are physically sensible, just tiny).
std::string tiny_spec_json()
{
  return R"({
  "schema": "qmcxx-spec-v1",
  "name": "Tiny",
  "num_electrons": 16,
  "lattice": [ [7, 0, 0], [0, 7, 0], [0, 0, 7] ],
  "orbitals": { "kind": "bspline-synthetic", "grid": [10, 10, 10], "count": 8 },
  "jastrow": { "knots": 10 },
  "delay_rank": 1,
  "pseudopotential": true,
  "species": [
    { "name": "X", "charge": 4, "count": 4,
      "j1_depth": -0.4, "j1_width": 1.1, "r_core": 0.6,
      "nl_amplitude": 0.8, "nl_width": 0.9, "nl_rcut": 1.6 }
  ],
  "ion_positions": [
    [1.75, 1.75, 1.75], [5.25, 5.25, 1.75], [5.25, 1.75, 5.25], [1.75, 5.25, 5.25]
  ]
})";
}

void expect_parse_fails(const std::string& json, const std::string& needle)
{
  try
  {
    (void)io::parse_system_spec(json, "test-spec");
    FAIL() << "expected parse failure mentioning '" << needle << "'";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Replace the first occurrence of `from` in `s`.
std::string replace_first(std::string s, const std::string& from, const std::string& to)
{
  const std::size_t at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  s.replace(at, from.size(), to);
  return s;
}

/// Replace the first occurrence of `from` in the tiny spec.
std::string tiny_spec_with(const std::string& from, const std::string& to)
{
  return replace_first(tiny_spec_json(), from, to);
}

void expect_specs_equal(const SystemSpec& a, const SystemSpec& b)
{
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_electrons, b.num_electrons);
  EXPECT_EQ(a.ion_positions.size(), b.ion_positions.size());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(spec_content_hash(a), spec_content_hash(b));
}

} // namespace

// ---- committed specs ----------------------------------------------------

TEST(SystemSpec, CommittedSpecsPinnedHashes)
{
  // specs/ is the only system definition: these content hashes pin every
  // committed system (and so every snapshot fingerprint built from it).
  // An intended spec edit updates its hash here.
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"be64.json", 5621409557598572395ull},
      {"graphite.json", 6661936936364722779ull},
      {"graphite-32.json", 11423048941309274784ull},
      {"nio-48.json", 16178970076298621247ull},
      {"nio32.json", 3293143669140478529ull},
      {"nio64.json", 12195980659543780453ull},
  };
  for (const auto& [file, hash] : pinned)
  {
    const SystemSpec spec = load_spec(file);
    EXPECT_EQ(spec_content_hash(spec), hash) << file;
    // The committed files are exactly the serializer's output, byte for byte.
    EXPECT_EQ(io::serialize_system_spec(spec),
              io::read_text_file(std::string(QMCXX_SPECS_DIR) + "/" + file))
        << file;
    const SystemSpec round =
        io::parse_system_spec(io::serialize_system_spec(spec), spec.name + " (round-trip)");
    expect_specs_equal(spec, round);
  }
}

TEST(SystemSpec, SpecOnlySystemsParseAndBuild)
{
  for (const std::string& file : {std::string("graphite-32.json"), std::string("nio-48.json")})
  {
    const SystemSpec spec = load_spec(file);
    BuildOptions opt;
    opt.with_hamiltonian = false;
    const QMCSystem<float> sys = build_system<float>(spec, opt);
    EXPECT_EQ(sys.elec->size(), spec.num_electrons) << file;
  }
}

TEST(SystemSpec, EngineRequiresSpecPath)
{
  EngineRunSpec spec;
  spec.driver.steps = 1;
  try
  {
    (void)run_engine(spec);
    FAIL() << "expected run_engine to reject an empty spec_path";
  }
  catch (const std::invalid_argument& e)
  {
    EXPECT_NE(std::string(e.what()).find("spec_path"), std::string::npos) << e.what();
  }
}

// ---- content-hash fingerprinting --------------------------------------

TEST(SpecFingerprint, ContentHashDistinguishesSameNamedSpecs)
{
  const SystemSpec a = load_spec(Workload::Graphite);
  SystemSpec b = a; // same name, perturbed contents
  b.ion_positions[0][2] += 0.25;
  EXPECT_NE(spec_content_hash(a), spec_content_hash(b));

  const std::uint64_t fa =
      io::workload_fingerprint(a.name, "Current", 1, spec_content_hash(a));
  const std::uint64_t fb =
      io::workload_fingerprint(b.name, "Current", 1, spec_content_hash(b));
  EXPECT_NE(fa, fb);
}

TEST(SpecFingerprint, ZeroHashPreservesHistoricalFingerprints)
{
  // The 3-arg form (pre-spec snapshots) and an explicit zero hash must
  // agree, so old checkpoints stay restorable.
  EXPECT_EQ(io::workload_fingerprint("Graphite", "Current", 1),
            io::workload_fingerprint("Graphite", "Current", 1, 0));
}

// ---- parser error contract --------------------------------------------

TEST(SpecParser, TinySpecParsesAndBuilds)
{
  const SystemSpec spec = io::parse_system_spec(tiny_spec_json(), "test-spec");
  EXPECT_EQ(spec.name, "Tiny");
  EXPECT_EQ(spec.num_electrons, 16);
  // The JSON fixture and the C++ fixture the driver tests build from
  // describe the same system, bitwise.
  EXPECT_TRUE(spec == tiny_spec());
  BuildOptions opt;
  const QMCSystem<double> sys = build_system<double>(spec, opt);
  EXPECT_EQ(sys.elec->size(), 16);
}

TEST(SpecParser, RejectsUnknownKey)
{
  expect_parse_fails(tiny_spec_with("\"delay_rank\"", "\"bogus_knob\""), "unknown key");
  // A system carries no compute precision; the engine variant does.
  expect_parse_fails(
      tiny_spec_with("\"delay_rank\": 1,", "\"delay_rank\": 1, \"precision\": \"single\","),
      "unknown key 'precision'");
}

TEST(SpecParser, RejectsWrongSchema)
{
  expect_parse_fails(tiny_spec_with("qmcxx-spec-v1", "qmcxx-spec-v999"),
                     "unsupported spec schema");
}

TEST(SpecParser, RejectsMissingSchema)
{
  expect_parse_fails(tiny_spec_with("\"schema\": \"qmcxx-spec-v1\",", ""), "missing \"schema\"");
}

TEST(SpecParser, RejectsIonCountMismatch)
{
  expect_parse_fails(tiny_spec_with("\"count\": 4", "\"count\": 5"), "ions");
}

TEST(SpecParser, RejectsUndersizedGrid)
{
  expect_parse_fails(tiny_spec_with("\"grid\": [10, 10, 10]", "\"grid\": [3, 10, 10]"),
                     "grid dimensions");
}

TEST(SpecParser, RejectsOutOfRangeInteger)
{
  // 2^32 + 16 would narrow to the tiny spec's own 16 electrons.
  expect_parse_fails(tiny_spec_with("\"num_electrons\": 16", "\"num_electrons\": 4294967312"),
                     "integer out of range");
  // In range, but INT_MAX electrons must not overflow the orbital check.
  expect_parse_fails(tiny_spec_with("\"num_electrons\": 16", "\"num_electrons\": 2147483647"),
                     "cannot fill the larger spin determinant of 2147483647 electrons");
  // Two species of INT_MAX ions each must not overflow the count sum.
  const std::string huge_species = R"({ "name": "Y", "charge": 4, "count": 2147483647,
      "j1_depth": -0.4, "j1_width": 1.1, "r_core": 0.6,
      "nl_amplitude": 0.8, "nl_width": 0.9, "nl_rcut": 1.6 },)";
  expect_parse_fails(replace_first(tiny_spec_with("\"count\": 4", "\"count\": 2147483647"),
                                   "\"species\": [", "\"species\": [" + huge_species),
                     "species counts sum to 4294967294 ions");
}

TEST(SpecParser, RejectsDuplicateKey)
{
  // A repeated member must not merge: appending graphite.json's own
  // "species" and "ion_positions" a second time would otherwise parse
  // as a doubled system (128 ions, 2 species).
  const std::string path = io::workload_spec_path(Workload::Graphite);
  const std::string text = io::read_text_file(path);
  const std::size_t species = text.find("  \"species\"");
  const std::size_t close = text.rfind("\n}");
  ASSERT_NE(species, std::string::npos);
  ASSERT_NE(close, std::string::npos);
  const std::string tail = text.substr(species, close - species); // "species" .. "ion_positions"
  const std::string doubled = text.substr(0, close) + ",\n" + tail + text.substr(close);
  expect_parse_fails(doubled, "duplicate key 'species'");
}

TEST(SpecParser, LexerErrorsNameTheSpec)
{
  // Lexer and structure errors carry the spec context, not a job one.
  expect_parse_fails(tiny_spec_with("\"num_electrons\": 16", "\"num_electrons\": 016"),
                     "spec 'test-spec': malformed number '016' at byte ");
  expect_parse_fails(tiny_spec_with("\"name\": \"Tiny\"", "\"name\" \"Tiny\""),
                     "spec 'test-spec': expected ':'");
}

TEST(JobSpecParser, AcceptsSpecPathAndEstimators)
{
  const io::JobSpec job = io::parse_job_spec(
      R"({ "spec_path": "specs/graphite.json", "estimators": true,
           "variant": "current", "dmc": true, "driver": { "steps": 2 } })",
      "test-job");
  EXPECT_EQ(job.run.spec_path, "specs/graphite.json");
  EXPECT_TRUE(job.run.estimators);
  EXPECT_TRUE(job.run.dmc);
  EXPECT_EQ(job.run.driver.steps, 2);
}

TEST(JobSpecParser, WorkloadAndSpecPathAreMutuallyExclusive)
{
  try
  {
    (void)io::parse_job_spec(
        R"({ "workload": "Graphite", "spec_path": "specs/graphite.json" })", "test-job");
    FAIL() << "expected mutual-exclusion failure";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find("mutually exclusive"), std::string::npos)
        << "actual message: " << e.what();
  }
}
