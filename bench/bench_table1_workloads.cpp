// Table 1: "Workloads used in this work and their key properties."
//
// Prints the paper's workload metadata next to the qmcxx realization
// (synthetic-orbital grids, measured spline-table sizes). The paper's
// spline tables are DFT-derived and GB-scale; qmcxx scales the grids
// down while preserving the size ordering (docs/API.md, "Substitutions").
//
// A second table covers the spec-only systems (committed under specs/
// with no Workload enum entry) and drives each through the engine via
// spec_path ingestion, recording qmcxx-bench-v1 entries so spec-built
// systems have the same perf trajectory as the enum table.
#include "bench/bench_common.h"
#include "io/job_spec.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;

int main()
{
  bench::header("Table 1: benchmark workloads and key properties",
                "Mathuriya et al. SC'17, Table 1");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"property", "Graphite", "Be-64", "NiO-32", "NiO-64"});

  std::vector<const WorkloadInfo*> infos;
  for (Workload w : all_workloads)
    infos.push_back(&workload_info(w));

  auto add_row = [&](const std::string& label, auto getter) {
    std::vector<std::string> row{label};
    for (const auto* info : infos)
      row.push_back(getter(*info));
    rows.push_back(row);
  };

  add_row("N (electrons)", [](const WorkloadInfo& i) { return std::to_string(i.num_electrons); });
  add_row("Nion", [](const WorkloadInfo& i) { return std::to_string(i.num_ions); });
  add_row("Nion/unit cell",
          [](const WorkloadInfo& i) { return std::to_string(i.ions_per_unit_cell); });
  add_row("# of unit cells",
          [](const WorkloadInfo& i) { return std::to_string(i.num_unit_cells); });
  add_row("Ion types (Z*)", [](const WorkloadInfo& i) { return i.ion_types; });
  add_row("# unique SPOs (paper)",
          [](const WorkloadInfo& i) { return std::to_string(i.paper_unique_spos); });
  add_row("FFT grid (paper)", [](const WorkloadInfo& i) { return i.paper_fft_grid; });
  add_row("B-spline GB (paper)",
          [](const WorkloadInfo& i) { return fmt(i.paper_spline_gb, 1); });
  add_row("pseudopotential",
          [](const WorkloadInfo& i) { return std::string(i.has_pseudopotential ? "yes" : "no"); });
  add_row("qmcxx grid", [](const WorkloadInfo& i) {
    return std::to_string(i.grid[0]) + "x" + std::to_string(i.grid[1]) + "x" +
        std::to_string(i.grid[2]);
  });
  add_row("qmcxx orbitals/spin",
          [](const WorkloadInfo& i) { return std::to_string(i.num_orbitals); });

  // Measured spline-table bytes (SoA float backend, as in Current).
  std::vector<std::string> spline_row{"qmcxx spline table"};
  std::vector<std::string> wigner_row{"Wigner-Seitz radius"};
  for (const auto* info : infos)
  {
    BuildOptions opt;
    opt.with_hamiltonian = false;
    auto sys = build_system<float>(*info, opt);
    spline_row.push_back(format_bytes(sys.spos->table_bytes()));
    wigner_row.push_back(fmt(info->lattice.wigner_seitz_radius(), 2) + " a0");
  }
  rows.push_back(spline_row);
  rows.push_back(wigner_row);

  print_table(rows);
  std::printf("\nNote: paper spline sizes are DFT-derived GB-scale tables; qmcxx\n"
              "uses synthetic orbitals on scaled grids with the same ordering\n"
              "(Graphite smallest, NiO-64 largest). See docs/API.md, \"Substitutions\".\n");

  // ---- spec-only systems (no enum counterpart) ----------------------
  bench::header("Table 1b: spec-ingested systems (qmcxx-spec-v1, specs/)",
                "spec-driven workload ingestion (no paper counterpart)");
  const std::vector<std::string> spec_files = {"graphite-32.json", "nio-48.json"};
  bench::BenchJsonWriter json("table1_workloads");

  std::vector<std::vector<std::string>> srows;
  srows.push_back({"system", "N", "Nion", "grid", "orbitals/spin", "hash", "samples/s"});
  for (const std::string& file : spec_files)
  {
    const std::string path = std::string(QMCXX_SPECS_DIR) + "/" + file;
    const SystemSpec spec = io::parse_system_spec(io::read_text_file(path), path);

    EngineRunSpec run;
    run.spec_path = path;
    run.variant = EngineVariant::Current;
    run.dmc = true;
    run.driver = bench::default_config(Workload::Graphite);
    const EngineReport rep = run_engine(run);
    json.add_engine_record(spec.name, to_string(run.variant), rep);

    int nion = 0;
    for (int c : spec.ion_counts)
      nion += c;
    srows.push_back({spec.name, std::to_string(spec.num_electrons), std::to_string(nion),
                     std::to_string(spec.grid[0]) + "x" + std::to_string(spec.grid[1]) + "x" +
                         std::to_string(spec.grid[2]),
                     std::to_string(spec.num_orbitals), std::to_string(spec_content_hash(spec)),
                     fmt(rep.result.throughput, 1)});
  }
  print_table(srows);
  std::printf("\nNote: these systems exist only as committed qmcxx-spec-v1 files;\n"
              "each row is a short DMC run ingested through spec_path.\n");
  json.write();
  return 0;
}
