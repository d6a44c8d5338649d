// qmcbench harness: runs one benchmark workload through the qmcxx
// public API and prints its raw measurements as one JSON document on
// stdout. run.py builds this program, turns the measurements into the
// benchmark's metrics and checks, and prints the result line.
//
//   qmcbench_harness --spec specs/nio32.json --precision double --method dmc
//                    --threads 4 --walkers 16 --feedback 0.1 --seconds 15
//                    --seed 1 --trace 0 [--checkpoint PATH] --scratch DIR
//
// --trace 0 measures end to end: the kernel timers are switched off
// (TimerRegistry::set_enabled(false)), the system is set up kSetupReps
// times (each step timed from outside), and the last driver runs for
// --seconds and at least kMinGens generations after kWarmup generations.
//
// --trace 1 gives the per-layer picture:
//   1. a one-crowd replay of generation 0 through the public mw_* entry
//      points, one span per call, checked bitwise against a reference
//      driver's generation 0 (per-walker energies, positions, accepts);
//   2. an untimed-kernel run (timers off) and a traced run (timers on)
//      of the same chain, whose aligned generation times give the
//      tracing overhead, and whose TimerRegistry buckets are read with
//      TimerRegistry::snapshot();
//   3. for threaded workloads, a 1-thread traced run of the same chain
//      (thread efficiency and the decomposition-invariance check);
//   4. snapshot capture / write / read probes.
// Spans stay in memory and are printed at the end.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concurrency/rng_streams.h"
#include "drivers/qmc_drivers.h"
#include "instrument/stopwatch.h"
#include "instrument/timer.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;

namespace
{

constexpr int kCrowd = 4;     ///< walkers per crowd
constexpr int kWarmup = 2;    ///< generations before the measured window
constexpr int kMinGens = 20;  ///< measured generations at least, whatever --seconds says
constexpr int kSetupReps = 3; ///< set-ups per end-to-end run; setup_s is their median

struct Args
{
  std::string spec;
  std::string precision = "double";
  std::string method = "dmc";
  std::string checkpoint; ///< empty: no periodic checkpoints
  std::string scratch = ".";
  int threads = 1;
  int walkers = 8;
  int trace = 0;
  double seconds = 10.0;
  double feedback = 0.1; ///< DMC trial-energy population feedback
  /// Hard stop for any one timed run, so a slow build still ends well
  /// inside the benchmark's per-invocation time limit.
  double max_seconds = 100.0;
  std::uint64_t seed = 1;
};

const Stopwatch g_clock;
double now() { return g_clock.seconds(); }

double cpu_seconds()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long max_rss_kb()
{
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---- JSON output ------------------------------------------------------

std::string num(double v)
{
  if (std::isnan(v))
    return "NaN";
  if (std::isinf(v))
    return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s)
{
  std::string o = "\"";
  for (char c : s)
  {
    if (c == '"' || c == '\\')
      o += '\\';
    if (static_cast<unsigned char>(c) < 0x20)
      o += ' ';
    else
      o += c;
  }
  return o + "\"";
}

template<typename T, typename F>
std::string list(const std::vector<T>& v, F&& item)
{
  std::string o = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    o += (i ? "," : "") + item(v[i]);
  return o + "]";
}

// ---- spans ------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span, generation.
/// Names are interned so recording a span costs two clock reads and a
/// vector append.
class Tracer
{
public:
  struct Span
  {
    int name;
    double t0, t1;
    int parent;
    int gen;
  };

  int name_id(const std::string& name)
  {
    const auto it = ids_.find(name);
    if (it != ids_.end())
      return it->second;
    names_.push_back(name);
    return ids_[name] = static_cast<int>(names_.size()) - 1;
  }

  int begin(int name, int gen)
  {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, gen});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void end(int id)
  {
    spans_[static_cast<std::size_t>(id)].t1 = now();
    stack_.pop_back();
  }

  /// A span whose interval was measured elsewhere (generation spans,
  /// timed from the driver's on_generation callback).
  void add(int name, double t0, double t1, int gen)
  {
    spans_.push_back(Span{name, t0, t1, stack_.empty() ? -1 : stack_.back(), gen});
  }

  std::string json() const
  {
    return list(spans_, [&](const Span& s) {
      return "[" + quote(names_[static_cast<std::size_t>(s.name)]) + "," + num(s.t0) + "," +
          num(s.t1) + "," + std::to_string(s.parent) + "," + std::to_string(s.gen) + "]";
    });
  }

private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class SpanScope
{
public:
  SpanScope(Tracer* t, int name, int gen = -1) : t_(t), id_(t ? t->begin(name, gen) : -1) {}
  SpanScope(Tracer* t, const std::string& name, int gen = -1)
      : SpanScope(t, t ? t->name_id(name) : -1, gen)
  {
  }
  ~SpanScope()
  {
    if (t_)
      t_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  Tracer* t_;
  int id_;
};

// ---- set-up -------------------------------------------------------------

template<typename TR>
struct Instance
{
  SystemSpec spec;
  QMCSystem<TR> sys;
  std::unique_ptr<QMCDriver<TR>> driver;
};

struct SetupTimes
{
  double parse = 0, build = 0, ctor = 0, init = 0;
  std::string json() const
  {
    return "{\"parse\":" + num(parse) + ",\"build\":" + num(build) + ",\"ctor\":" + num(ctor) +
        ",\"init\":" + num(init) + "}";
  }
};

/// Spec parse, build_system<TR>, QMCDriver construction and
/// initialize_population, each timed from outside (and spanned when
/// tracing). The system seed stays at its default, so every benchmark
/// seed samples the same wavefunction; the seed only drives the chain.
template<typename TR>
std::unique_ptr<Instance<TR>> set_up(const Args& a, DriverConfig cfg, SetupTimes& st, Tracer* tr)
{
  auto inst = std::make_unique<Instance<TR>>();
  SpanScope root(tr, "setup");
  double t = now();
  {
    SpanScope s(tr, "workloads.spec_parse");
    inst->spec = io::parse_system_spec(io::read_text_file(a.spec), a.spec);
  }
  st.parse = now() - t;
  t = now();
  {
    SpanScope s(tr, "workloads.build_system");
    BuildOptions opt;
    opt.delay_rank = inst->spec.delay_rank;
    inst->sys = build_system<TR>(inst->spec, opt);
  }
  st.build = now() - t;
  t = now();
  {
    SpanScope s(tr, "drivers.driver_ctor");
    cfg.delay_rank = inst->spec.delay_rank;
    const Precision prec = sizeof(TR) == 4 ? Precision::Single : Precision::Double;
    cfg.checkpoint_fingerprint = io::workload_fingerprint(
        inst->spec.name, to_string(variant_for(EngineLayout::Soa, prec)), cfg.delay_rank,
        spec_content_hash(inst->spec));
    inst->driver =
        std::make_unique<QMCDriver<TR>>(*inst->sys.elec, *inst->sys.twf, *inst->sys.ham, cfg);
  }
  st.ctor = now() - t;
  t = now();
  {
    SpanScope s(tr, "drivers.init_population");
    inst->driver->initialize_population();
  }
  st.init = now() - t;
  return inst;
}

DriverConfig base_config(const Args& a, int threads)
{
  DriverConfig cfg;
  cfg.num_walkers = a.walkers;
  cfg.crowd_size = kCrowd;
  cfg.num_threads = threads;
  cfg.seed = a.seed;
  cfg.warmup_steps = kWarmup;
  cfg.feedback = a.feedback;
  cfg.steps = 1 << 30; // the run ends through stop_flag
  return cfg;
}

// ---- timed runs -----------------------------------------------------------

struct GenRec
{
  double t, energy, weight, acceptance;
  int nw, pop;
};

/// One driver run: per-generation records plus the measured window
/// (generations warmup .. g1, bounded by on_generation timestamps).
struct RunRecord
{
  std::string label;
  int threads = 1;
  /// Mean local energy of the initial population: the Hamiltonian
  /// evaluated on the seed's starting configurations, before any move.
  double initial_energy = 0;
  double t_start = 0, t_end = 0;
  std::vector<GenRec> gens;
  double win_t0 = 0, win_t1 = 0, cpu0 = 0, cpu1 = 0;
  bool win_done = false;
  /// Process max RSS at the end of the kMinGens-th measured generation.
  /// Heap fragmentation from the per-generation snapshot buffers raises
  /// the peak with every generation, so a peak read when the timed
  /// window closes would grow with the host's speed.
  long rss_kb = 0;
  std::uint64_t drift_rows = 0, drift_refreshes = 0;
  std::vector<std::string> failures;

  std::string json() const
  {
    std::string o = "{\"label\":" + quote(label) + ",\"threads\":" + std::to_string(threads) +
        ",\"initial_energy\":" + num(initial_energy) + ",\"t_start\":" + num(t_start) +
        ",\"t_end\":" + num(t_end) + ",\"win_t0\":" + num(win_t0) + ",\"win_t1\":" +
        num(win_t1) + ",\"cpu0\":" + num(cpu0) + ",\"cpu1\":" + num(cpu1) +
        ",\"win_done\":" + (win_done ? "true" : "false") + ",\"rss_kb\":" + std::to_string(rss_kb) +
        ",\"drift_rows\":" + std::to_string(drift_rows) +
        ",\"drift_refreshes\":" + std::to_string(drift_refreshes) + ",\"failures\":" +
        list(failures, quote) + ",\"gens\":";
    o += list(gens, [](const GenRec& g) {
      return "[" + num(g.t) + "," + num(g.energy) + "," + num(g.weight) + "," +
          num(g.acceptance) + "," + std::to_string(g.nw) + "," + std::to_string(g.pop) + "]";
    });
    return o + "}";
  }
};

/// Generation observer wired into DriverConfig::on_generation: records
/// timestamps and statistics, applies the per-generation correctness
/// checks, and raises the stop flag when the window is complete.
template<typename TR>
struct Monitor
{
  QMCDriver<TR>* driver = nullptr;
  std::atomic<bool> stop{false};
  RunRecord rec;
  const Args* args = nullptr;
  double seconds = 0;
  int min_gens = 1;
  bool dmc = false;

  void on_generation(int gen, const GenerationStats& s)
  {
    const double t = now();
    const int pop = driver->population().size();
    rec.gens.push_back(GenRec{t, s.energy, s.weight, s.acceptance, s.num_walkers, pop});
    if (!std::isfinite(s.energy) || !std::isfinite(s.weight))
      rec.failures.push_back("generation " + std::to_string(gen) + ": non-finite energy or weight");
    const int target = args->walkers;
    if (dmc && (pop < std::max(1, target / 2) || pop > 2 * target))
      rec.failures.push_back("generation " + std::to_string(gen) + ": population " +
                             std::to_string(pop) + " outside the branching clamp");
    if (gen == kWarmup - 1)
    {
      rec.win_t0 = t;
      rec.cpu0 = cpu_seconds();
    }
    const int timed = gen - kWarmup + 1;
    if (timed == kMinGens)
      rec.rss_kb = max_rss_kb();
    const bool full = timed >= min_gens && t - rec.win_t0 >= seconds;
    if (full || t - rec.t_start > args->max_seconds)
    {
      rec.win_t1 = t;
      rec.cpu1 = cpu_seconds();
      rec.win_done = full;
      stop.store(true);
    }
  }
};

template<typename TR>
void run_driver(QMCDriver<TR>& driver, Monitor<TR>& mon)
{
  mon.rec.t_start = now();
  const RunResult r = mon.dmc ? driver.run_dmc() : driver.run_vmc();
  mon.rec.t_end = now();
  mon.rec.drift_rows = r.total_drift_rows_sampled;
  mon.rec.drift_refreshes = r.total_drift_refreshes;
  const WalkerPopulation& pop = driver.population();
  for (int iw = 0; iw < pop.size(); ++iw)
  {
    const Walker& w = *pop.walkers[static_cast<std::size_t>(iw)];
    if (!std::isfinite(w.local_energy) || !std::isfinite(w.weight))
    {
      mon.rec.failures.push_back("walker " + std::to_string(iw) +
                                 ": non-finite final energy or weight");
      break;
    }
  }
}

/// A fresh set-up followed by a timed run of `seconds`. The monitor
/// lives in the caller so on_generation can reference it. With
/// `kernels`, the TimerRegistry buckets are cleared after set-up and
/// read back after the run.
template<typename TR>
std::unique_ptr<Instance<TR>> set_up_and_run(const Args& a, Monitor<TR>& mon, int threads,
                                             double seconds, int min_gens, SetupTimes& st,
                                             Tracer* setup_tracer, KernelTotals* kernels = nullptr)
{
  mon.args = &a;
  mon.seconds = seconds;
  mon.min_gens = min_gens;
  mon.dmc = a.method == "dmc";
  mon.rec.threads = threads;
  DriverConfig cfg = base_config(a, threads);
  cfg.stop_flag = &mon.stop;
  cfg.on_generation = [&mon](int gen, const GenerationStats& s) { mon.on_generation(gen, s); };
  if (!a.checkpoint.empty())
  {
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path = a.checkpoint;
  }
  auto inst = set_up<TR>(a, cfg, st, setup_tracer);
  mon.driver = inst->driver.get();
  const WalkerPopulation& pop = inst->driver->population();
  for (const auto& w : pop.walkers)
    mon.rec.initial_energy += w->local_energy / pop.size();
  if (kernels)
    TimerRegistry::instance().reset();
  run_driver(*inst->driver, mon);
  if (kernels)
    *kernels = TimerRegistry::instance().snapshot();
  return inst;
}

// ---- one-crowd replay of generation 0 --------------------------------------

/// Umrigar drift limiting, as the driver's sweep applies it
/// (detail::limited_drift in drivers/qmc_driver_impl.h); the replay
/// fidelity check fails if the two ever differ.
TinyVector<double, 3> limited_drift(const TinyVector<double, 3>& grad, double tau)
{
  const double v2 = dot(grad, grad);
  if (v2 < 1e-300)
    return TinyVector<double, 3>{};
  const double tau_eff = (-1.0 + std::sqrt(1.0 + 2.0 * tau * v2)) / v2;
  return tau_eff * grad;
}

std::string component_key(const std::string& name)
{
  if (name.rfind("J1", 0) == 0)
    return "j1";
  if (name.rfind("J2", 0) == 0)
    return "j2";
  if (name.rfind("DiracDeterminant", 0) == 0)
    return "det";
  return name;
}

std::string hamiltonian_key(const std::string& name)
{
  return name == "NonLocalECP" ? "NonLocalPP" : name;
}

struct ReplayReport
{
  int walkers = 0;
  int energy_mismatch = 0, position_mismatch = 0, logpsi_mismatch = 0;
  long long accepted_replay = 0, accepted_driver = 0, proposed = 0;
  std::vector<int> accepted_per_walker;
  /// Span keys of the wavefunction and Hamiltonian components replayed,
  /// so the span tree can be checked for every expected call.
  std::vector<std::string> components, hamiltonian;
  std::string json() const
  {
    return "{\"walkers\":" + std::to_string(walkers) + ",\"energy_mismatch\":" +
        std::to_string(energy_mismatch) + ",\"position_mismatch\":" +
        std::to_string(position_mismatch) + ",\"logpsi_mismatch\":" +
        std::to_string(logpsi_mismatch) + ",\"accepted_replay\":" +
        std::to_string(accepted_replay) + ",\"accepted_driver\":" +
        std::to_string(accepted_driver) + ",\"proposed\":" + std::to_string(proposed) +
        ",\"accepted_per_walker\":" +
        list(accepted_per_walker, [](int v) { return std::to_string(v); }) +
        ",\"components\":" + list(components, quote) +
        ",\"hamiltonian\":" + list(hamiltonian, quote) + "}";
  }
};

bool same_bits(double x, double y) { return std::memcmp(&x, &y, sizeof x) == 0; }

/// Replays generation 0 of the first crowd of the population through
/// the public batched entry points -- the driver's sweep_crowd, one
/// span per call -- and compares the result with a reference driver's
/// generation 0 of the same walkers.
template<typename TR>
ReplayReport replay_generation(const Args& a, Tracer& tr)
{
  using Grad = TinyVector<double, 3>;
  using Pos = TinyVector<double, 3>;
  const int n = kCrowd;
  DriverConfig cfg = base_config(a, 1);
  cfg.num_walkers = n;
  cfg.steps = 1;
  cfg.warmup_steps = 0;
  SetupTimes st;
  auto inst = set_up<TR>(a, cfg, st, &tr);
  QMCSystem<TR>& sys = inst->sys;

  // Initial state of the crowd's walkers, before the reference run.
  std::vector<std::unique_ptr<Walker>> walkers;
  std::vector<RandomGenerator> rngs;
  for (int iw = 0; iw < n; ++iw)
  {
    walkers.push_back(std::make_unique<Walker>(*inst->driver->population().walkers[iw]));
    rngs.push_back(inst->driver->population().rngs[iw]);
  }
  const RunResult ref = inst->driver->run_vmc();

  Crowd<TR> crowd(*sys.elec, *sys.twf, nullptr, n);
  const int nc = sys.twf->num_components();
  const int nh = sys.ham->num_components();
  std::vector<std::vector<std::unique_ptr<HamiltonianComponent<TR>>>> ham(n);
  for (int iw = 0; iw < n; ++iw)
    for (int c = 0; c < nh; ++c)
      ham[iw].push_back(sys.ham->component(c).clone());

  ReplayReport rep;
  std::vector<int> id_ratio(nc), id_accept(nc), id_ham(nh);
  for (int c = 0; c < nc; ++c)
  {
    const std::string key = component_key(sys.twf->component(c).name());
    rep.components.push_back(key);
    id_ratio[c] = tr.name_id("wavefunction." + key + ".mw_ratio_grad");
    id_accept[c] = tr.name_id("wavefunction." + key + ".mw_accept");
  }
  for (int c = 0; c < nh; ++c)
  {
    rep.hamiltonian.push_back(hamiltonian_key(sys.ham->component(c).name()));
    id_ham[c] = tr.name_id("hamiltonian." + rep.hamiltonian.back());
  }
  const int id_prepare = tr.name_id("particle.mw_prepare_move");
  const int id_make = tr.name_id("particle.mw_make_move");
  const int id_paccept = tr.name_id("particle.mw_accept");
  const int id_grad = tr.name_id("wavefunction.mw_eval_grad");

  const double tau = cfg.tau;
  const double sqrt_tau = std::sqrt(tau);
  const int nel = sys.elec->size();
  std::vector<double> ratios(n), energies(n);
  std::vector<Grad> grads(n), drift(n);
  std::vector<Pos> chi(n), rnew(n);
  std::vector<char> accept(n);
  std::vector<int> naccept(n, 0);
  InverseDriftReport drift_rep;
  RefVector<WaveFunctionComponent<TR>> comps;
  {
    SpanScope gen_span(&tr, "replay.generation", 0);
    {
      SpanScope s(&tr, "drivers.crowd_acquire", 0);
      crowd.acquire(walkers.data(), rngs.data(), n, /*recompute=*/false);
    }
    MWResourceSet& res = crowd.resources();
    for (int k = 0; k < nel; ++k)
    {
      {
        SpanScope s(&tr, id_prepare, 0);
        ParticleSet<TR>::mw_prepare_move(crowd.p_refs(), k);
      }
      {
        SpanScope s(&tr, id_grad, 0);
        TrialWaveFunction<TR>::mw_eval_grad(crowd.twf_refs(), crowd.p_refs(), k, grads.data());
      }
      for (int iw = 0; iw < n; ++iw)
      {
        drift[iw] = limited_drift(grads[iw], tau);
        RandomGenerator& rng = crowd.rng(iw);
        const double g0 = rng.gaussian(), g1 = rng.gaussian(), g2 = rng.gaussian();
        chi[iw] = Pos{sqrt_tau * g0, sqrt_tau * g1, sqrt_tau * g2};
        rnew[iw] = crowd.elec(iw).pos(k) + drift[iw] + chi[iw];
      }
      {
        SpanScope s(&tr, id_make, 0);
        ParticleSet<TR>::mw_make_move(crowd.p_refs(), k, rnew);
      }
      // TrialWaveFunction::mw_ratio_grad, one component at a time.
      ratios.assign(n, 1.0);
      grads.assign(n, Grad{});
      for (int c = 0; c < nc; ++c)
      {
        comps.clear();
        for (int iw = 0; iw < n; ++iw)
          comps.push_back(crowd.twf(iw).component(c));
        SpanScope s(&tr, id_ratio[c], 0);
        comps[0].get().mw_ratio_grad(comps, crowd.p_refs(), k, res.ratio_scratch.data(),
                                     res.grad_scratch.data(), res.get(c));
        for (int iw = 0; iw < n; ++iw)
        {
          ratios[iw] *= res.ratio_scratch[iw];
          grads[iw] += res.grad_scratch[iw];
        }
      }
      for (int iw = 0; iw < n; ++iw)
      {
        bool acc = false;
        if (std::isfinite(ratios[iw]) && ratios[iw] > 0.0)
        {
          const Grad drift_new = limited_drift(grads[iw], tau);
          const Pos back = crowd.elec(iw).pos(k) - rnew[iw] - drift_new;
          const Pos fwd = chi[iw];
          const double log_gf = -(dot(back, back) - dot(fwd, fwd)) / (2.0 * tau);
          acc = crowd.rng(iw).uniform() < ratios[iw] * ratios[iw] * std::exp(log_gf);
        }
        accept[iw] = acc ? 1 : 0;
        naccept[iw] += acc ? 1 : 0;
      }
      // TrialWaveFunction::mw_accept_reject, one component at a time.
      for (int c = 0; c < nc; ++c)
      {
        comps.clear();
        for (int iw = 0; iw < n; ++iw)
          comps.push_back(crowd.twf(iw).component(c));
        SpanScope s(&tr, id_accept[c], 0);
        comps[0].get().mw_accept_reject(comps, crowd.p_refs(), k, accept, res.get(c));
      }
      {
        SpanScope s(&tr, id_paccept, 0);
        ParticleSet<TR>::mw_accept_reject(crowd.p_refs(), k, accept);
      }
    }
    {
      SpanScope s(&tr, "particle.mw_update", 0);
      ParticleSet<TR>::mw_update(crowd.p_refs());
    }
    {
      SpanScope s(&tr, "wavefunction.mw_evaluate_gl", 0);
      TrialWaveFunction<TR>::mw_evaluate_gl(crowd.twf_refs(), crowd.p_refs(), res);
    }
    // Hamiltonian::evaluate_local, one component at a time.
    for (int iw = 0; iw < n; ++iw)
    {
      FullPrecReal el = 0.0;
      for (int c = 0; c < nh; ++c)
      {
        SpanScope s(&tr, id_ham[c], 0);
        el += ham[iw][c]->evaluate(crowd.elec(iw), crowd.twf(iw));
      }
      energies[iw] = el;
    }
    {
      SpanScope s(&tr, "wavefunction.drift_guard", 0);
      for (int iw = 0; iw < n; ++iw)
        crowd.twf(iw).monitor_inverse_drift(crowd.elec(iw), cfg.precision, 0, drift_rep);
    }
    {
      SpanScope s(&tr, "drivers.crowd_release", 0);
      crowd.release();
    }
    for (int iw = 0; iw < n; ++iw)
    {
      Walker& w = *walkers[iw];
      w.old_local_energy = w.local_energy;
      w.local_energy = energies[iw];
      w.age = naccept[iw] > 0 ? 0 : w.age + 1;
    }
  }

  rep.walkers = n;
  rep.proposed = static_cast<long long>(n) * nel;
  rep.accepted_driver = std::llround(ref.generations.at(0).acceptance * rep.proposed);
  const WalkerPopulation& dpop = inst->driver->population();
  for (int iw = 0; iw < n; ++iw)
  {
    const Walker& d = *dpop.walkers[iw];
    const Walker& r = *walkers[iw];
    rep.energy_mismatch += same_bits(d.local_energy, r.local_energy) ? 0 : 1;
    rep.logpsi_mismatch += same_bits(d.log_psi, r.log_psi) ? 0 : 1;
    rep.position_mismatch +=
        std::memcmp(d.R.data(), r.R.data(), d.R.size() * sizeof(Pos)) == 0 ? 0 : 1;
    rep.accepted_replay += naccept[iw];
    rep.accepted_per_walker.push_back(naccept[iw]);
  }

  // SPO probes: the orbital evaluations the determinants make, called
  // directly (crowd-batched, at every electron of the crowd's walkers).
  {
    SPOSet<TR>& spo = *sys.spos;
    SPOVGLBatch<TR> batch;
    batch.resize(n, spo.num_orbitals());
    std::vector<Pos> pos(n);
    const int id_vgl = tr.name_id("wavefunction.spo.mw_vgl");
    const int id_v = tr.name_id("wavefunction.spo.mw_v");
    SpanScope probe(&tr, "probe.spo");
    for (int k = 0; k < nel; ++k)
    {
      for (int iw = 0; iw < n; ++iw)
        pos[iw] = crowd.elec(iw).pos(k);
      {
        SpanScope s(&tr, id_vgl);
        spo.mw_evaluate_vgl(pos.data(), n, batch);
      }
      {
        SpanScope s(&tr, id_v);
        spo.mw_evaluate_v(pos.data(), n, batch.psi.row(0), batch.stride());
      }
    }
  }

  // Branching probe: DMC reweighting and branch_walkers on a copy of
  // the replayed crowd (the trial energy is the initial mean energy).
  {
    WalkerPopulation pop;
    double e_trial = 0.0;
    for (int iw = 0; iw < n; ++iw)
      e_trial += walkers[iw]->old_local_energy / n;
    for (int iw = 0; iw < n; ++iw)
    {
      auto w = std::make_unique<Walker>(*walkers[iw]);
      const double e_mid = 0.5 * (w->local_energy + w->old_local_energy);
      w->weight = std::min(std::exp(-tau * (e_mid - e_trial)), 2.5);
      pop.walkers.push_back(std::move(w));
      pop.rngs.push_back(rngs[iw]);
    }
    RandomGenerator branch_rng = make_stream(a.seed, StreamKind::Branch, 0);
    SpanScope s(&tr, "drivers.branch");
    branch_walkers(pop, n, branch_rng);
  }
  return rep;
}

// ---- workload driver ---------------------------------------------------------

struct Output
{
  std::vector<SetupTimes> setups;
  std::vector<RunRecord> runs;
  std::vector<std::string> failures;
  std::string replay;
  std::string kernels;
  std::string snapshot;
  std::string sizes;
  long max_rss_kb = 0; ///< peak RSS when the timed run ends, before any checks
  Tracer tracer;
};

template<typename TR>
std::string size_info(const Instance<TR>& inst, int threads)
{
  const QMCSystem<TR>& sys = inst.sys;
  std::size_t table_bytes = 0;
  for (int t = 0; t < sys.elec->num_tables(); ++t)
    table_bytes += sys.elec->table(t).storage_bytes();
  const Lattice& lat = inst.spec.lattice;
  return "{\"tr_bytes\":" + std::to_string(sizeof(TR)) +
      ",\"electrons\":" + std::to_string(sys.elec->size()) +
      ",\"ions\":" + std::to_string(sys.ions->size()) +
      ",\"orbitals\":" + std::to_string(sys.spos->num_orbitals()) +
      ",\"orthorhombic\":" + (lat.orthorhombic() ? "true" : "false") +
      ",\"threads\":" + std::to_string(threads) +
      ",\"dist_table_bytes\":" + std::to_string(table_bytes) +
      ",\"spline_table_bytes\":" + std::to_string(sys.spos->table_bytes()) + "}";
}

template<typename TR>
void run_end_to_end(const Args& a, Output& out)
{
  TimerRegistry::instance().set_enabled(false);
  for (int r = 0; r + 1 < kSetupReps; ++r)
  {
    // Extra set-ups for the set-up time median; each is torn down
    // before the next, so the peak footprint is that of one system.
    SetupTimes st;
    set_up<TR>(a, base_config(a, a.threads), st, nullptr).reset();
    out.setups.push_back(st);
  }
  Monitor<TR> mon;
  mon.rec.label = "timed";
  SetupTimes st;
  auto inst = set_up_and_run<TR>(a, mon, a.threads, a.seconds, kMinGens, st, nullptr);
  out.max_rss_kb = max_rss_kb();
  out.setups.push_back(st);
  out.sizes = size_info(*inst, a.threads);
  out.runs.push_back(mon.rec);
  if (!a.checkpoint.empty())
  {
    // The last periodic checkpoint must read back as the final state.
    const std::size_t walkers = static_cast<std::size_t>(inst->driver->population().size());
    inst.reset();
    const io::PopulationSnapshot snap = io::read_snapshot_file(a.checkpoint);
    if (snap.walkers.size() != walkers || snap.generation != mon.rec.gens.size())
      out.failures.push_back("checkpoint: last snapshot does not match the final population");
  }
}

template<typename TR>
void run_traced(const Args& a, Output& out)
{
  Tracer& tr = out.tracer;
  TimerRegistry& timers = TimerRegistry::instance();
  timers.set_enabled(true);
  out.replay = replay_generation<TR>(a, tr).json();

  // Window shares of the traced invocation: untraced run, traced run
  // and (threaded workloads only) the 1-thread run. All three run the
  // same chain, so their generations align one to one.
  const bool threaded = a.threads > 1;
  const double share = threaded ? 0.4 : 0.5;
  const int min_gens = 3;
  {
    timers.set_enabled(false);
    Monitor<TR> mon;
    mon.rec.label = "untraced";
    SetupTimes st;
    set_up_and_run<TR>(a, mon, a.threads, share * a.seconds, min_gens, st, &tr);
    out.setups.push_back(st);
    out.runs.push_back(mon.rec);
  }
  timers.set_enabled(true);
  {
    Monitor<TR> mon;
    mon.rec.label = "traced";
    SetupTimes st;
    KernelTotals k;
    const auto inst =
        set_up_and_run<TR>(a, mon, a.threads, share * a.seconds, min_gens, st, &tr, &k);
    out.setups.push_back(st);
    out.sizes = size_info(*inst, a.threads);
    out.kernels = "{";
    for (int b = 0; b < static_cast<int>(Kernel::kCount); ++b)
      out.kernels += (b ? "," : "") + quote(kernel_name(static_cast<Kernel>(b))) + ":[" +
          num(k.seconds[b]) + "," + std::to_string(k.calls[b]) + "]";
    out.kernels += "}";
    const int id_gen = tr.name_id("generation");
    double t_prev = mon.rec.t_start;
    for (std::size_t g = 0; g < mon.rec.gens.size(); ++g)
    {
      tr.add(id_gen, t_prev, mon.rec.gens[g].t, static_cast<int>(g));
      t_prev = mon.rec.gens[g].t;
    }
    out.runs.push_back(mon.rec);

    // Snapshot probes on the traced run's final population.
    const std::string path = a.scratch + "/probe.snap";
    std::size_t bytes = 0;
    const io::ChainKind kind = a.method == "dmc" ? io::ChainKind::DMC : io::ChainKind::VMC;
    const int next = static_cast<int>(mon.rec.gens.size());
    for (int r = 0; r < 3; ++r)
    {
      io::PopulationSnapshot snap;
      {
        SpanScope s(&tr, "io.snapshot_capture");
        snap = inst->driver->capture_snapshot(next, kind);
      }
      {
        SpanScope s(&tr, "io.snapshot_write");
        bytes = io::write_snapshot_file(path, snap);
      }
      SpanScope s(&tr, "io.snapshot_read");
      if (io::read_snapshot_file(path).walkers.size() != snap.walkers.size())
        out.failures.push_back("snapshot probe: read back a different walker count");
    }
    std::remove(path.c_str());
    out.snapshot = "{\"bytes\":" + std::to_string(bytes) + "}";
  }
  if (threaded)
  {
    Monitor<TR> mon;
    mon.rec.label = "one_thread";
    SetupTimes st;
    set_up_and_run<TR>(a, mon, 1, (1.0 - 2 * share) * a.seconds, 1, st, &tr);
    out.setups.push_back(st);
    out.runs.push_back(mon.rec);
  }
}

int usage(const char* msg)
{
  std::fprintf(stderr, "qmcbench_harness: %s\n", msg);
  return 2;
}

} // namespace

int main(int argc, char** argv)
{
  Args a;
  for (int i = 1; i < argc; i += 2)
  {
    if (i + 1 >= argc)
      return usage("every option takes a value");
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try
    {
      if (k == "--spec")
        a.spec = v;
      else if (k == "--precision")
        a.precision = v;
      else if (k == "--method")
        a.method = v;
      else if (k == "--checkpoint")
        a.checkpoint = v;
      else if (k == "--scratch")
        a.scratch = v;
      else if (k == "--threads")
        a.threads = std::stoi(v);
      else if (k == "--walkers")
        a.walkers = std::stoi(v);
      else if (k == "--trace")
        a.trace = std::stoi(v);
      else if (k == "--seconds")
        a.seconds = std::stod(v);
      else if (k == "--feedback")
        a.feedback = std::stod(v);
      else if (k == "--seed")
        a.seed = std::stoull(v);
      else
        return usage(("unknown option " + k).c_str());
    }
    catch (const std::exception&)
    {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (a.spec.empty() || (a.method != "dmc" && a.method != "vmc") ||
      (a.precision != "double" && a.precision != "single"))
    return usage("need --spec, --method dmc|vmc, --precision double|single");

  Output out;
  std::string error;
  try
  {
    const bool dp = a.precision == "double";
    if (a.trace)
      dp ? run_traced<double>(a, out) : run_traced<float>(a, out);
    else
      dp ? run_end_to_end<double>(a, out) : run_end_to_end<float>(a, out);
  }
  catch (const std::exception& e)
  {
    error = e.what();
  }
  std::string o = "{\"compiler\":" + quote(__VERSION__) + ",\"error\":" + quote(error) +
      ",\"warmup\":" + std::to_string(kWarmup) + ",\"crowd\":" + std::to_string(kCrowd) +
      ",\"max_rss_kb\":" + std::to_string(out.max_rss_kb ? out.max_rss_kb : max_rss_kb()) +
      ",\"setups\":" + list(out.setups, [](const SetupTimes& s) { return s.json(); }) +
      ",\"runs\":" + list(out.runs, [](const RunRecord& r) { return r.json(); }) +
      ",\"failures\":" + list(out.failures, quote) +
      ",\"sizes\":" + (out.sizes.empty() ? "null" : out.sizes) +
      ",\"replay\":" + (out.replay.empty() ? "null" : out.replay) +
      ",\"kernels\":" + (out.kernels.empty() ? "null" : out.kernels) +
      ",\"snapshot\":" + (out.snapshot.empty() ? "null" : out.snapshot) +
      ",\"spans\":" + out.tracer.json() + "}\n";
  std::fputs(o.c_str(), stdout);
  return 0;
}
