#include "io/job_spec.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "io/json.h"

namespace qmcxx::io
{

namespace
{

/// Case-insensitive lookup of `s` among `names`; throws naming `what`.
template<typename E>
E from_name(const std::string& s, std::initializer_list<std::pair<std::string_view, E>> names,
            const std::string& what, const std::string& expected)
{
  std::string n = s;
  std::transform(n.begin(), n.end(), n.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  for (const auto& [name, e] : names)
    if (n == name)
      return e;
  throw std::runtime_error("unknown " + what + " '" + s + "' (expected " + expected + ")");
}

/// Exactly three elements, `[a, b, c]`, each consumed by read(i).
template<typename Fn>
void parse_three(json::Reader& r, Fn&& read)
{
  int n = 0;
  r.elements([&] {
    if (n == 3)
      r.fail("expected exactly 3 elements");
    read(n++);
  });
  if (n != 3)
    r.fail("expected exactly 3 elements");
}

TinyVector<double, 3> parse_triple(json::Reader& r)
{
  TinyVector<double, 3> v;
  parse_three(r, [&](int i) { v[i] = r.number(); });
  return v;
}

void parse_species_entry(json::Reader& r, SystemSpec& s)
{
  IonSpecies sp{};
  int count = 0;
  r.members([&](const std::string& k) {
    const bool known = r.field(k, "name", sp.name) || r.field(k, "charge", sp.charge) ||
                       r.field(k, "count", count) || r.field(k, "j1_depth", sp.j1_depth) ||
                       r.field(k, "j1_width", sp.j1_width) || r.field(k, "r_core", sp.r_core) ||
                       r.field(k, "nl_amplitude", sp.nl_amplitude) ||
                       r.field(k, "nl_width", sp.nl_width) || r.field(k, "nl_rcut", sp.nl_rcut);
    if (!known)
      r.fail("unknown species key '" + k + "'");
  });
  if (sp.name.empty())
    r.fail("species entry is missing \"name\"");
  if (count < 1)
    r.fail("species '" + sp.name + "' needs a positive \"count\"");
  s.species.push_back(sp);
  s.ion_counts.push_back(count);
}

void parse_driver_object(json::Reader& r, DriverConfig& d)
{
  r.members([&](const std::string& k) {
    const bool known =
        r.field(k, "tau", d.tau) || r.field(k, "num_walkers", d.num_walkers) ||
        r.field(k, "steps", d.steps) || r.field(k, "warmup_steps", d.warmup_steps) ||
        r.field(k, "seed", d.seed) || r.field(k, "recompute_period", d.recompute_period) ||
        r.field(k, "feedback", d.feedback) || r.field(k, "num_threads", d.num_threads) ||
        r.field(k, "use_drift", d.use_drift) || r.field(k, "crowd_size", d.crowd_size) ||
        r.field(k, "delay_rank", d.delay_rank) ||
        r.field(k, "checkpoint_every", d.checkpoint_every) ||
        r.field(k, "drift_tolerance", d.precision.drift_tolerance) ||
        r.field(k, "refresh_interval", d.precision.refresh_interval) ||
        r.field(k, "drift_sample_rows", d.precision.drift_sample_rows);
    if (!known)
      r.fail("unknown driver key '" + k + "'");
  });
}

} // namespace

Workload workload_from_name(const std::string& s)
{
  return from_name<Workload>(
      s,
      {{"graphite", Workload::Graphite}, {"be-64", Workload::Be64}, {"be64", Workload::Be64},
       {"nio-32", Workload::NiO32}, {"nio32", Workload::NiO32}, {"nio-64", Workload::NiO64},
       {"nio64", Workload::NiO64}},
      "workload", "Graphite, Be-64, NiO-32 or NiO-64");
}

std::string workload_spec_path(Workload w)
{
  // Indexed in Workload declaration order.
  static constexpr const char* files[] = {"graphite.json", "be64.json", "nio32.json",
                                          "nio64.json"};
  return std::string(QMCXX_SPECS_DIR) + "/" + files[static_cast<int>(w)];
}

EngineVariant variant_from_name(const std::string& s)
{
  return from_name<EngineVariant>(
      s,
      {{"ref", EngineVariant::Ref}, {"refmp", EngineVariant::RefMP},
       {"ref+mp", EngineVariant::RefMP}, {"current", EngineVariant::Current},
       {"currentdp", EngineVariant::CurrentDP}, {"current(dp)", EngineVariant::CurrentDP}},
      "engine variant", "ref, refmp, current or currentdp");
}

Precision precision_from_name(const std::string& s)
{
  return from_name<Precision>(s, {{"single", Precision::Single}, {"double", Precision::Double}},
                              "precision", "single or double");
}

JobSpec parse_job_spec(const std::string& json_text, const std::string& job_name)
{
  JobSpec job;
  job.name = job_name;
  job.run.dmc = false;
  json::Reader r(json_text, "job '" + job_name + "'");
  Workload workload = Workload::Graphite;
  bool saw_workload = false;
  std::optional<Precision> precision;
  r.members([&](const std::string& key) {
    if (key == "workload")
    {
      workload = workload_from_name(r.string());
      saw_workload = true;
    }
    else if (key == "variant")
      job.run.variant = variant_from_name(r.string());
    else if (key == "precision")
      precision = precision_from_name(r.string());
    else if (key == "driver")
      parse_driver_object(r, job.run.driver);
    else if (!r.field(key, "spec_path", job.run.spec_path) &&
             !r.field(key, "dmc", job.run.dmc) && !r.field(key, "estimators", job.run.estimators) &&
             !r.field(key, "mem_budget_mb", job.mem_budget_mb))
      r.fail("unknown key '" + key + "'");
  });
  r.finish("job object");
  // "precision" overrides the precision half of "variant" whichever
  // key comes first.
  if (precision)
    job.run.variant.precision = *precision;
  if (saw_workload && !job.run.spec_path.empty())
    throw std::runtime_error("job '" + job_name +
                             "': \"workload\" and \"spec_path\" are mutually exclusive "
                             "(a spec file fully describes its system)");
  if (job.run.spec_path.empty())
    job.run.spec_path = workload_spec_path(workload);
  return job;
}

SystemSpec parse_system_spec(const std::string& json_text, const std::string& origin)
{
  SystemSpec spec;
  json::Reader r(json_text, "spec '" + origin + "'");
  bool saw_schema = false, saw_lattice = false;
  std::array<TinyVector<double, 3>, 3> rows{};
  r.members([&](const std::string& key) {
    if (key == "schema")
    {
      const std::string schema = r.string();
      if (schema != "qmcxx-spec-v1")
        r.fail("unsupported spec schema '" + schema + "' (expected qmcxx-spec-v1)");
      saw_schema = true;
    }
    else if (key == "lattice")
    {
      parse_three(r, [&](int i) { rows[i] = parse_triple(r); });
      saw_lattice = true;
    }
    else if (key == "orbitals")
      r.members([&](const std::string& k) {
        if (k == "kind")
        {
          const std::string kind = r.string();
          if (kind != "bspline-synthetic")
            r.fail("unsupported orbital kind '" + kind + "' (only \"bspline-synthetic\" exists)");
        }
        else if (k == "grid")
          parse_three(r, [&](int i) { spec.grid[i] = r.integer(); });
        else if (!r.field(k, "count", spec.num_orbitals))
          r.fail("unknown orbitals key '" + k + "'");
      });
    else if (key == "jastrow")
    {
      // "knots" is the only key and is required: an empty object leaves
      // 0 knots, which the range check below rejects.
      spec.jastrow_knots = 0;
      r.members([&](const std::string& k) {
        if (!r.field(k, "knots", spec.jastrow_knots))
          r.fail("unknown jastrow key '" + k + "'");
      });
    }
    else if (key == "species")
      r.elements([&] { parse_species_entry(r, spec); });
    else if (key == "ion_positions")
      r.elements([&] { spec.ion_positions.push_back(parse_triple(r)); });
    else if (!r.field(key, "name", spec.name) &&
             !r.field(key, "num_electrons", spec.num_electrons) &&
             !r.field(key, "delay_rank", spec.delay_rank) &&
             !r.field(key, "pseudopotential", spec.has_pseudopotential))
      r.fail("unknown key '" + key + "'");
  });
  r.finish("spec object");

  const auto bad = [&origin](const std::string& what) {
    throw std::runtime_error("spec '" + origin + "': " + what);
  };
  if (!saw_schema)
    bad("missing \"schema\" (expected \"qmcxx-spec-v1\")");
  if (spec.name.empty())
    bad("missing \"name\"");
  if (!saw_lattice)
    bad("missing \"lattice\"");
  if (spec.num_electrons < 2)
    bad("num_electrons must be >= 2 (two spin determinants)");
  for (const int g : spec.grid)
    if (g < 4)
      bad("orbital grid dimensions must be >= 4 (cubic B-spline support)");
  // 64-bit arithmetic: hostile counts near INT_MAX must be rejected,
  // not overflow.
  if (spec.num_orbitals < (std::int64_t{spec.num_electrons} + 1) / 2)
    bad("orbital count " + std::to_string(spec.num_orbitals) +
        " cannot fill the larger spin determinant of " +
        std::to_string(spec.num_electrons) + " electrons");
  if (spec.jastrow_knots < 2)
    bad("jastrow knots must be >= 2");
  if (spec.delay_rank < 1)
    bad("delay_rank must be >= 1 (1 = rank-1 Sherman-Morrison)");
  if (spec.species.empty())
    bad("at least one ion species is required");
  const std::int64_t nion =
      std::accumulate(spec.ion_counts.begin(), spec.ion_counts.end(), std::int64_t{0});
  if (nion != static_cast<std::int64_t>(spec.ion_positions.size()))
    bad("species counts sum to " + std::to_string(nion) + " ions but " +
        std::to_string(spec.ion_positions.size()) + " ion_positions are given");
  spec.lattice = Lattice(rows);
  return spec;
}

std::string serialize_system_spec(const SystemSpec& spec)
{
  using Layout = json::Writer::Layout;
  json::Writer w;
  const auto triple = [&w](const auto& v) {
    w.begin_array().value(v[0]).value(v[1]).value(v[2]).end_array();
  };
  w.begin_object(Layout::Lines);
  w.member("schema", "qmcxx-spec-v1");
  w.member("name", spec.name);
  w.member("num_electrons", spec.num_electrons);
  w.key("lattice").begin_array(Layout::Lines);
  for (const TinyVector<double, 3>& row : spec.lattice.rows())
    triple(row);
  w.end_array();
  w.key("orbitals").begin_object(Layout::Padded);
  w.member("kind", "bspline-synthetic");
  w.key("grid");
  triple(spec.grid);
  w.member("count", spec.num_orbitals);
  w.end_object();
  w.key("jastrow").begin_object(Layout::Padded).member("knots", spec.jastrow_knots).end_object();
  w.member("delay_rank", spec.delay_rank);
  w.member("pseudopotential", spec.has_pseudopotential);
  w.key("species").begin_array(Layout::Lines);
  for (std::size_t s = 0; s < spec.species.size(); ++s)
  {
    const IonSpecies& sp = spec.species[s];
    w.begin_object(Layout::Padded);
    w.member("name", sp.name).member("charge", sp.charge).member("count", spec.ion_counts[s]);
    w.newline().member("j1_depth", sp.j1_depth).member("j1_width", sp.j1_width);
    w.member("r_core", sp.r_core);
    w.newline().member("nl_amplitude", sp.nl_amplitude).member("nl_width", sp.nl_width);
    w.member("nl_rcut", sp.nl_rcut);
    w.end_object();
  }
  w.end_array();
  w.key("ion_positions").begin_array(Layout::Lines);
  for (const TinyVector<double, 3>& pos : spec.ion_positions)
    triple(pos);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

std::vector<std::string> list_spool_jobs(const std::string& dir)
{
  namespace fs = std::filesystem;
  std::vector<std::string> jobs;
  for (const auto& entry : fs::directory_iterator(dir))
  {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      jobs.push_back(entry.path().string());
  }
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

std::string read_text_file(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text_file(const std::string& path, const std::string& text)
{
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cannot write '" + tmp + "'");
    out << text;
    out.flush();
    if (!out)
      throw std::runtime_error("short write to '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path +
                             "': " + ec.message());
}

} // namespace qmcxx::io
