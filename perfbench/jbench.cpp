// jbench — measurement program of the repo benchmark (perfbench/run.py
// builds and runs it; see perfbench/README.md).
//
//   jbench --workload NAME --ini FILE --seed N --seconds S --trace 0|1
//
// Every layer is measured from outside, by timing calls into public entry
// points: experiment::plan_experiment / run_experiment,
// explore::Explorer::golden / run_schedule / check, the kernels::
// integrators and sim::Simulation. --trace 1 switches on the program's own
// obs::trace spans and reads the obs::metrics registry around one more run;
// nothing inside src/ changes. Prints human-readable tables, then one JSON
// object as the last stdout line: {"workload", "threads", "isa",
// "attempted", "failed", "correct", "errors", "energies",
// "live_processes", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "amuse/experiment.hpp"
#include "amuse/ic.hpp"
#include "explore/explore.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/simd.hpp"
#include "kernels/sph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "util/config.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace jungle;
using amuse::experiment::ExperimentSpec;
using amuse::experiment::JungleTestbed;
using amuse::experiment::Result;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}
double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::map<std::string, double> energies;  // model -> final K + W + U
  /// Every "host/process" found alive after some experiment run returned.
  /// run.py tells the services that may idle on from leaked model processes.
  std::set<std::string> live_after_runs;
  long attempted = 0;
  long failed = 0;
  /// Resident high-water mark through set-up and the first full run (or
  /// sweep): later repeats add allocator growth that depends on how many
  /// repeats fit in --seconds, not on the workload.
  double peak_rss_mb = 0.0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why) { errors.push_back(why); }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ workloads

/// A workload: its INI text (topology + experiment graph) and the knobs the
/// benchmark applies on top. An INI without [host ...] sections runs on the
/// built-in Fig-9/12 jungle testbed.
struct Workload {
  std::string name;
  std::string text;
  std::uint64_t seed = 0;
  bool one_iteration = false;  // the untimed warm-up run
  bool explore = false;
  bool builtin_testbed = true;  // the INI declares no [host ...] sections
};

/// The workload's INI with --seed applied. The physical realization is
/// fixed by the INI's own `[experiment] seed`: under shared Hermite
/// timesteps the cost of a realization is set by its closest pair, and it
/// varies ~2x from one realization to the next. --seed therefore draws a
/// rigid translation of the whole graph (every gravity and hydro model
/// moves by the same vector): every particle position changes, while the
/// physics, the step count and the energies stay those of the realization.
util::Config workload_config(const Workload& w) {
  util::Config config = util::Config::parse(w.text);
  util::Rng rng(w.seed);
  kernels::Vec3 shift{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0)};
  for (const std::string& section : config.sections()) {
    if (section.rfind("model ", 0) != 0) continue;
    std::string role = config.get_or(section, "role", "");
    if (role != "gravity" && role != "hydro") continue;
    kernels::Vec3 offset{};
    std::istringstream in(config.get_or(section, "offset", "0 0 0"));
    if (!(in >> offset.x >> offset.y >> offset.z))
      throw ConfigError(section + ": bad offset");
    offset = offset + shift;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", offset.x, offset.y,
                  offset.z);
    config.set(section, "offset", buf);
  }
  return config;
}

/// The experiment spec the workload runs. The explorer workload's golden
/// spec: checkpointing on, one iteration.
ExperimentSpec spec_of(const Workload& w, const util::Config& config) {
  ExperimentSpec spec = ExperimentSpec::from_config(config);
  if (w.explore) {
    spec.checkpointing = true;
    spec.iterations = 1;
  }
  if (w.one_iteration) spec.iterations = 1;
  return spec;
}

std::unique_ptr<JungleTestbed> make_bed(const Workload& w,
                                        const util::Config& config) {
  return w.builtin_testbed ? std::make_unique<JungleTestbed>()
                           : std::make_unique<JungleTestbed>(config);
}

// ------------------------------------------------- one experiment run

/// Deterministic outputs of one run: identical across repeats, thread
/// counts and traced/untraced runs of one seed.
struct Fingerprint {
  double virt_s_per_iter = 0.0;
  double wan_bytes = 0.0;
  std::string placement;
  std::vector<std::pair<std::string, double>> energies;
  std::vector<double> rows;  // per-iteration seconds/wan/substeps/calls
  /// Per-iteration flops. The runner takes them as differences of
  /// process-global double counters, so the last bits depend on how much
  /// earlier runs in the process added: compared to 1e-12, not exactly.
  std::vector<double> flops;
  std::size_t live_processes = 0;
};

/// The fields in which two fingerprints differ ("" when they agree).
std::string differences(const Fingerprint& a, const Fingerprint& b) {
  bool same_flops = a.flops.size() == b.flops.size();
  for (std::size_t i = 0; same_flops && i < a.flops.size(); ++i) {
    same_flops = std::fabs(a.flops[i] - b.flops[i]) <=
                 1e-12 * std::fabs(a.flops[i]);
  }
  std::string what;
  if (a.virt_s_per_iter != b.virt_s_per_iter) what += " virt_s_per_iter";
  if (a.wan_bytes != b.wan_bytes) what += " wan_bytes";
  if (a.placement != b.placement) what += " placement";
  if (a.energies != b.energies) what += " energies";
  if (a.rows != b.rows) what += " iteration_log";
  if (!same_flops) what += " flops";
  if (a.live_processes != b.live_processes) what += " live_processes";
  return what;
}

Fingerprint fingerprint(const Result& result, std::size_t live) {
  Fingerprint fp;
  fp.virt_s_per_iter = result.seconds_per_iteration;
  fp.wan_bytes = result.wan_bytes;
  fp.placement = result.placement;
  for (const auto& model : result.models) {
    fp.energies.emplace_back(model.name,
                             model.kinetic + model.potential + model.thermal);
  }
  for (const auto& row : result.iteration_log) {
    fp.flops.push_back(row.flops);
    fp.rows.insert(fp.rows.end(),
                   {row.seconds, row.wan_bytes,
                    static_cast<double>(row.substeps),
                    static_cast<double>(row.rpc_calls),
                    static_cast<double>(row.rpc_retries)});
  }
  fp.live_processes = live;
  return fp;
}

struct RunSample {
  double setup_s = 0.0;  // INI parse + testbed + plan_experiment
  double plan_s = 0.0;   // plan_experiment alone
  double run_s = 0.0;    // run_experiment
  int iterations = 0;
  ExperimentSpec spec;
  Result result;
  Fingerprint fp;
  std::vector<std::string> live_processes;  // "host/process" after the run
};

/// Set-up before the first iteration: INI parse, testbed, placement plan.
struct Setup {
  ExperimentSpec spec;
  std::unique_ptr<JungleTestbed> bed;
  double setup_s = 0.0;
  double plan_s = 0.0;
};

Setup set_up(const Workload& w) {
  Setup setup;
  auto t0 = Clock::now();
  util::Config config = workload_config(w);
  setup.spec = spec_of(w, config);
  setup.bed = make_bed(w, config);
  auto t_plan = Clock::now();
  sched::Placement plan =
      amuse::experiment::plan_experiment(*setup.bed, setup.spec);
  setup.plan_s = since(t_plan);
  setup.setup_s = since(t0);
  if (plan.roles.size() != setup.spec.models.size()) {
    throw CodeError("plan_experiment placed " +
                    std::to_string(plan.roles.size()) + " of " +
                    std::to_string(setup.spec.models.size()) + " models");
  }
  return setup;
}

/// Extra set-ups at the start and after every run. Set-up is short next to
/// a run and single-threaded, so its time depends on which virtual CPU it
/// lands on and how busy that CPU's host is at the moment; samples spread
/// over the whole invocation give a steadier median.
constexpr int kSetupRepeats = 10;

RunSample run_once(const Workload& w) {
  RunSample sample;
  Setup setup = set_up(w);
  sample.setup_s = setup.setup_s;
  sample.plan_s = setup.plan_s;
  JungleTestbed* bed = setup.bed.get();
  auto t_run = Clock::now();
  sample.result = amuse::experiment::run_experiment(*bed, setup.spec);
  sample.run_s = since(t_run);
  sample.iterations = setup.spec.iterations;
  sample.spec = setup.spec;
  sample.live_processes = bed->simulation().live_process_names();
  sample.fp =
      fingerprint(sample.result, bed->simulation().live_processes());
  return sample;
}

void check_run(const RunSample& sample, const RunSample* first,
               Report& report) {
  if (static_cast<int>(sample.result.iteration_log.size()) !=
      sample.iterations) {
    report.fail("run completed " +
                std::to_string(sample.result.iteration_log.size()) + " of " +
                std::to_string(sample.iterations) + " iterations");
  }
  if (sample.result.restarts != 0) {
    report.fail("fault-free run performed " +
                std::to_string(sample.result.restarts) + " recoveries");
  }
  report.live_after_runs.insert(sample.live_processes.begin(),
                                sample.live_processes.end());
  for (const auto& [name, energy] : sample.fp.energies) {
    if (!std::isfinite(energy)) report.fail("non-finite energy in " + name);
  }
  std::string what =
      first != nullptr ? differences(first->fp, sample.fp) : std::string();
  if (!what.empty()) {
    report.fail("deterministic outputs differ between runs of one seed:" +
                what);
  }
}

// --------------------------------------------------- trace aggregation

/// Self and inclusive time of one (category, name) span group, in wall and
/// virtual seconds. Self time = the span's interval minus the union of its
/// children's intervals (children may overlap: parallel async RPCs).
struct SpanAgg {
  long count = 0;
  double wall_incl = 0.0;
  double wall_self = 0.0;
  double sim_incl = 0.0;
  double sim_self = 0.0;
};

double covered(std::vector<std::pair<double, double>> spans, double lo,
               double hi) {
  for (auto& [a, b] : spans) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : spans) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// "iteration:3" -> "iteration"; other names are already per kind.
std::string span_kind(const std::string& name) {
  auto colon = name.rfind(':');
  if (colon != std::string::npos && colon + 1 < name.size() &&
      std::all_of(name.begin() + static_cast<long>(colon) + 1, name.end(),
                  [](char c) { return c >= '0' && c <= '9'; })) {
    return name.substr(0, colon);
  }
  return name;
}

using SpanTable = std::map<std::pair<std::string, std::string>, SpanAgg>;

/// Wall time during which an RPC was in flight and no worker was serving
/// any call: transport and handoff, counted once however many RPCs overlap.
/// (Summing each rpc span minus its own serve child would count the other
/// workers' arithmetic during parallel evolves once per concurrent call.)
double rpc_exclusive_wall(const std::vector<obs::trace::SpanRecord>& spans) {
  std::vector<std::pair<double, double>> rpc_or_serve;
  std::vector<std::pair<double, double>> serve;
  double lo = 0.0;
  double hi = 0.0;
  for (const auto& span : spans) {
    if (span.category != "rpc" && span.category != "serve") continue;
    std::pair<double, double> wall{
        static_cast<double>(span.wall_begin_ns) * 1e-9,
        static_cast<double>(span.wall_end_ns) * 1e-9};
    if (rpc_or_serve.empty()) {
      lo = wall.first;
      hi = wall.second;
    }
    lo = std::min(lo, wall.first);
    hi = std::max(hi, wall.second);
    rpc_or_serve.push_back(wall);
    if (span.category == "serve") serve.push_back(wall);
  }
  return covered(rpc_or_serve, lo, hi) - covered(serve, lo, hi);
}

void aggregate(const std::vector<obs::trace::SpanRecord>& spans,
               SpanTable& table) {
  std::map<obs::trace::SpanId, std::vector<const obs::trace::SpanRecord*>>
      children;
  for (const auto& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  for (const auto& span : spans) {
    double wall_b = static_cast<double>(span.wall_begin_ns) * 1e-9;
    double wall_e = static_cast<double>(span.wall_end_ns) * 1e-9;
    std::vector<std::pair<double, double>> wall_kids;
    std::vector<std::pair<double, double>> sim_kids;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const auto* kid : it->second) {
        wall_kids.emplace_back(static_cast<double>(kid->wall_begin_ns) * 1e-9,
                               static_cast<double>(kid->wall_end_ns) * 1e-9);
        sim_kids.emplace_back(kid->sim_begin, kid->sim_end);
      }
    }
    SpanAgg& agg = table[{span.category, span_kind(span.name)}];
    ++agg.count;
    agg.wall_incl += wall_e - wall_b;
    agg.wall_self += (wall_e - wall_b) - covered(wall_kids, wall_b, wall_e);
    agg.sim_incl += span.sim_end - span.sim_begin;
    agg.sim_self += (span.sim_end - span.sim_begin) -
                    covered(sim_kids, span.sim_begin, span.sim_end);
  }
}

void print_span_table(const SpanTable& table, double iterations) {
  std::printf("# traced spans, per iteration (%g iterations); self = span "
              "minus its children\n",
              iterations);
  std::printf("# %-10s %-26s %8s %12s %12s %12s %12s\n", "category", "name",
              "count", "wall_incl_s", "wall_self_s", "sim_incl_s",
              "sim_self_s");
  for (const auto& [key, agg] : table) {
    std::printf("# %-10s %-26s %8.1f %12.6f %12.6f %12.6f %12.6f\n",
                key.first.c_str(), key.second.c_str(),
                static_cast<double>(agg.count) / iterations,
                agg.wall_incl / iterations, agg.wall_self / iterations,
                agg.sim_incl / iterations, agg.sim_self / iterations);
  }
  std::printf("# note: kernel/compute spans time the modeled Host::compute "
              "sleep; their wall time is simulator handoff, not arithmetic "
              "(real kernel wall = serve self time + kernel probes)\n");
}

SpanAgg span_total(const SpanTable& table, const std::string& category,
                   const std::string& name = "") {
  SpanAgg total;
  for (const auto& [key, agg] : table) {
    if (key.first != category || (!name.empty() && key.second != name))
      continue;
    total.count += agg.count;
    total.wall_incl += agg.wall_incl;
    total.wall_self += agg.wall_self;
    total.sim_incl += agg.sim_incl;
    total.sim_self += agg.sim_self;
  }
  return total;
}

/// Registry counter deltas across a traced region.
std::map<std::string, double> counter_delta(
    const obs::metrics::Snapshot& before,
    const obs::metrics::Snapshot& after) {
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    double d = value - (it == before.counters.end() ? 0.0 : it->second);
    if (d != 0.0) delta[name] = d;
  }
  return delta;
}

double sum_counters(const std::map<std::string, double>& delta,
                    const std::string& prefix, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : delta) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

void print_counters(const std::map<std::string, double>& delta,
                    double iterations) {
  std::printf("# registry counters, per iteration (%g iterations)\n",
              iterations);
  for (const auto& [name, value] : delta) {
    std::printf("# %-44s %16.6g\n", name.c_str(), value / iterations);
  }
}

/// Run `body` with tracing on; returns its spans and counter deltas.
template <typename Body>
std::pair<std::vector<obs::trace::SpanRecord>, std::map<std::string, double>>
traced(Body&& body) {
  obs::trace::reset();
  obs::metrics::Snapshot before = obs::metrics::snapshot();
  obs::trace::set_enabled(true);
  try {
    body();
  } catch (...) {
    obs::trace::set_enabled(false);
    throw;
  }
  obs::trace::set_enabled(false);
  auto spans = obs::trace::snapshot();
  obs::trace::reset();
  return {std::move(spans), counter_delta(before, obs::metrics::snapshot())};
}

/// Per-layer metrics shared by every workload, from `runs` traced experiment
/// runs of `iterations` bridge steps in all. Deploy metrics are per run.
void trace_metrics(const std::vector<obs::trace::SpanRecord>& spans,
                   const std::map<std::string, double>& delta,
                   const Result& result, double iterations, double runs,
                   Report& report) {
  SpanTable table;
  aggregate(spans, table);
  print_span_table(table, iterations);
  print_counters(delta, iterations);
  report.add("kernels.flops_per_iter",
             sum_counters(delta, "worker.", ".flops") / iterations, "flop");
  report.add("kernels.substeps_per_iter",
             sum_counters(delta, "worker.", ".substeps") / iterations,
             "count");
  report.add("kernels.serve_self_wall_s_per_iter",
             span_total(table, "serve").wall_self / iterations, "s");
  report.add("sim.compute_sleep_wall_s_per_iter",
             span_total(table, "kernel", "compute").wall_incl / iterations,
             "s");
  report.add("rpc.calls_per_iter",
             sum_counters(delta, "rpc.", ".calls") / iterations, "count");
  report.add("rpc.bytes_per_iter",
             (sum_counters(delta, "rpc.", ".bytes_out") +
              sum_counters(delta, "rpc.", ".bytes_in")) /
                 iterations,
             "B");
  report.add("rpc.wall_self_ms_per_iter",
             1e3 * rpc_exclusive_wall(spans) / iterations, "ms");
  const std::pair<const char*, const char*> phases[] = {
      {"cross_kick:top", "cross_kick_top"},
      {"evolve", "evolve"},
      {"cross_kick:bottom", "cross_kick_bottom"},
      {"stellar_update", "stellar_update"}};
  for (const auto& [span, label] : phases) {
    SpanAgg agg = span_total(table, "bridge", span);
    report.add(std::string("bridge.") + label + ".virt_s",
               agg.sim_incl / iterations, "sim_s");
    report.add(std::string("bridge.") + label + ".wall_s",
               agg.wall_incl / iterations, "s");
  }
  report.add("fault.checkpoint.virt_s_per_iter",
             span_total(table, "fault", "checkpoint").sim_incl / iterations,
             "sim_s");
  SpanAgg deploy = span_total(table, "deploy");
  report.add("deploy.virt_s", deploy.sim_incl / runs, "sim_s");
  report.add("deploy.wall_ms", 1e3 * deploy.wall_incl / runs, "ms");
  double measured = result.seconds_per_iteration;
  report.add("sched.modeled_over_measured",
             measured > 0 ? result.modeled_seconds_per_iteration / measured
                          : 0.0,
             "ratio");
  report.add("sched.calibrated_over_measured",
             measured > 0 ? result.calibrated_seconds_per_iteration / measured
                          : 0.0,
             "ratio");
}

// --------------------------------------------------------------- probes

/// Hermite, SPH and Barnes-Hut probes at the workload's sizes and IC
/// recipes, timed through the public kernel entry points on the process
/// thread pool. Each probe repeats until it has run `budget_s` and reports
/// its median rate.
void kernel_probes(const ExperimentSpec& spec, double budget_s,
                   Report& report) {
  util::ThreadPool& pool = util::ThreadPool::global();
  util::Rng rng(spec.seed ^ 0x6a756e676c65ULL);
  std::size_t n_grav = 0;
  const amuse::experiment::ModelSpec* gas = nullptr;
  std::vector<kernels::Vec3> sources;
  std::vector<double> source_mass;
  double theta = 0.6;
  double eps2 = 1e-4;
  for (const auto& model : spec.models) {
    if (model.role == sched::Role::gravity) {
      n_grav = std::max(n_grav, model.n);
      auto body = amuse::ic::plummer_sphere(model.n, rng);
      for (auto& p : body.position) sources.push_back(p + model.offset);
      source_mass.insert(source_mass.end(), body.mass.begin(),
                         body.mass.end());
    } else if (model.role == sched::Role::hydro) {
      gas = &model;
    } else if (model.role == sched::Role::coupler) {
      theta = model.theta;
      eps2 = model.eps2;
    }
  }
  std::printf("# kernel probes: isa=%s simd_lanes=%zu threads=%u\n",
              kernels::simd::kIsa, kernels::simd::kWidth, pool.lanes());
  report.add("kernels.simd_lanes", static_cast<double>(kernels::simd::kWidth),
             "count");
  report.add("kernels.threads", static_cast<double>(pool.lanes()), "count");

  // Hermite: the largest gravity model, evolved in short slices.
  {
    auto body = amuse::ic::plummer_sphere(n_grav, rng);
    std::vector<double> rates;
    auto t0 = Clock::now();
    while (rates.size() < 3 || since(t0) < budget_s) {
      kernels::HermiteIntegrator hermite;
      hermite.set_thread_pool(&pool);
      for (std::size_t i = 0; i < body.mass.size(); ++i)
        hermite.add_particle(body.mass[i], body.position[i], body.velocity[i]);
      auto t = Clock::now();
      hermite.evolve(1.0 / 128.0);
      rates.push_back(static_cast<double>(hermite.pair_evaluations()) /
                      since(t));
      if (rates.size() >= 50) break;
    }
    std::printf("# kernels.hermite: n=%zu isa=%s simd=on samples=%zu\n",
                n_grav, kernels::simd::kIsa, rates.size());
    report.add("kernels.hermite.pairs_per_s", median(rates), "1/s");
  }

  // SPH: the hydro model's gas sphere (only the Fig-12 graph has one).
  double sph_rate = 0.0;
  if (gas != nullptr) {
    double radius = gas->radius > 0.0 ? gas->radius : 1.5;
    auto cloud = amuse::ic::gas_sphere(gas->n, rng, gas->total_mass, radius,
                                       gas->u_frac);
    std::vector<double> rates;
    auto t0 = Clock::now();
    while (rates.size() < 3 || since(t0) < budget_s) {
      kernels::SphSystem::Params params;
      params.eps2 = gas->eps2;
      params.theta = gas->theta;
      kernels::SphSystem sph(params);
      sph.set_thread_pool(&pool);
      for (std::size_t i = 0; i < cloud.mass.size(); ++i)
        sph.add_particle(cloud.mass[i], cloud.position[i], cloud.velocity[i],
                         cloud.internal_energy[i]);
      auto t = Clock::now();
      sph.evolve(1.0 / 256.0);
      rates.push_back(static_cast<double>(sph.neighbour_interactions()) /
                      since(t));
      if (rates.size() >= 50) break;
    }
    std::printf("# kernels.sph: n=%zu isa=%s simd=on samples=%zu\n", gas->n,
                kernels::simd::kIsa, rates.size());
    sph_rate = median(rates);
    for (std::size_t i = 0; i < cloud.mass.size(); ++i) {
      sources.push_back(cloud.position[i]);
      source_mass.push_back(cloud.mass[i]);
    }
  }
  report.add("kernels.sph.interactions_per_s", sph_rate, "1/s");

  // Barnes-Hut: the coupler's tree over every dynamic particle, evaluated
  // at every particle.
  {
    std::vector<double> rates;
    std::vector<kernels::Vec3> out(sources.size());
    auto t0 = Clock::now();
    while (rates.size() < 3 || since(t0) < budget_s) {
      kernels::BarnesHutTree tree(theta, eps2);
      tree.set_thread_pool(&pool);
      auto t = Clock::now();
      tree.build(sources, source_mass);
      tree.accel_at(std::span<const kernels::Vec3>(sources),
                    std::span<kernels::Vec3>(out));
      rates.push_back(static_cast<double>(tree.interactions()) / since(t));
      if (rates.size() >= 50) break;
    }
    std::printf("# kernels.bhtree: sources=%zu isa=%s simd=on samples=%zu\n",
                sources.size(), kernels::simd::kIsa, rates.size());
    report.add("kernels.bhtree.interactions_per_s", median(rates), "1/s");
  }
}

/// Simulator-core probes: block/wake handoffs of two sleeping processes,
/// and spawn + exit of trivial processes.
void sim_probes(Report& report) {
  constexpr int kSleeps = 4000;
  constexpr int kSpawns = 1000;
  std::vector<double> handoff;
  std::vector<double> spawn;
  for (int rep = 0; rep < 3; ++rep) {
    {
      sim::Simulation sim;
      for (int p = 0; p < 2; ++p) {
        sim.spawn("probe-sleeper", [&sim] {
          for (int i = 0; i < kSleeps; ++i) sim.sleep(1e-3);
        });
      }
      auto t = Clock::now();
      sim.run();
      handoff.push_back(1e6 * since(t) / (2.0 * kSleeps));
    }
    {
      sim::Simulation sim;
      int ran = 0;
      auto t = Clock::now();
      for (int i = 0; i < kSpawns; ++i) {
        sim.spawn("probe-spawn", [&ran] { ++ran; });
      }
      sim.run();
      spawn.push_back(1e6 * since(t) / kSpawns);
      if (ran != kSpawns) report.fail("sim probe: spawned processes lost");
    }
  }
  report.add("sim.handoff_us", median(handoff), "us");
  report.add("sim.spawn_us", median(spawn), "us");
}

// ---------------------------------------------------- run workloads

/// Host seconds each kernel probe repeats for.
constexpr double kProbeSeconds = 0.4;

struct Args {
  std::string workload;
  std::string ini;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// The end-to-end metrics, printed for every workload.
struct EndToEnd {
  std::vector<double> setup_s;
  double wall_s_per_iter = 0.0;
  double runs = 0.0;    // experiment runs or explorer schedules
  double runs_s = 0.0;  // host seconds they took
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double virt_s_per_iter = 0.0;
  double wan_bytes_per_iter = 0.0;
};

void add_end_to_end(const EndToEnd& e, Report& report) {
  report.add("wall_s_per_iter", e.wall_s_per_iter, "s");
  report.add("virt_s_per_iter", e.virt_s_per_iter, "sim_s");
  report.add("wan_MB_per_iter", e.wan_bytes_per_iter / 1e6, "MB");
  report.add("schedules_per_s", e.runs / e.runs_s, "1/s");
  report.add("schedule_ms_p50", e.p50_ms, "ms");
  report.add("schedule_ms_p90", e.p90_ms, "ms");
  report.add("setup_s", median(e.setup_s), "s");
}

void run_workload(const Workload& w, const Args& cfg, Report& report) {
  std::vector<RunSample> samples;
  std::vector<double> setup;
  std::vector<double> plan_ms;
  std::vector<double> wall_per_iter;
  std::vector<double> run_ms;
  double runs_s = 0.0;
  {
    // Untimed one-iteration warm-up: thread pool start, first-touch page
    // faults and allocator growth land here, not in the first timed run.
    Workload warm = w;
    warm.one_iteration = true;
    ++report.attempted;
    check_run(run_once(warm), nullptr, report);
  }
  auto extra_setups = [&](int count) {
    for (int rep = 0; rep < count; ++rep) {
      Setup extra = set_up(w);
      setup.push_back(extra.setup_s);
      plan_ms.push_back(1e3 * extra.plan_s);
    }
  };
  extra_setups(kSetupRepeats);
  auto t0 = Clock::now();
  constexpr int kMinRuns = 2;
  int timed_runs = cfg.trace ? kMinRuns : 1 << 30;
  while (static_cast<int>(samples.size()) < timed_runs) {
    ++report.attempted;
    RunSample sample;
    try {
      sample = run_once(w);
    } catch (const std::exception& error) {
      ++report.failed;
      report.fail(std::string("run failed: ") + error.what());
      break;
    }
    check_run(sample, samples.empty() ? nullptr : &samples.front(), report);
    setup.push_back(sample.setup_s);
    plan_ms.push_back(1e3 * sample.plan_s);
    wall_per_iter.push_back(sample.run_s / sample.iterations);
    run_ms.push_back(1e3 * (sample.setup_s + sample.run_s));
    runs_s += sample.setup_s + sample.run_s;
    samples.push_back(std::move(sample));
    if (samples.size() == 1) report.peak_rss_mb = peak_rss_mb();
    extra_setups(kSetupRepeats);
    double elapsed = since(t0);
    double per_run = elapsed / static_cast<double>(samples.size());
    if (static_cast<int>(samples.size()) >= kMinRuns &&
        elapsed + per_run > cfg.seconds) {
      break;
    }
  }
  if (samples.empty()) return;
  const RunSample& first = samples.front();
  for (const auto& [name, energy] : first.fp.energies)
    report.energies[name] = energy;
  std::printf("# %s: %zu runs of %d iterations, placement %s\n",
              w.name.c_str(), samples.size(), first.iterations,
              first.result.placement.c_str());

  if (!cfg.trace) {
    EndToEnd e;
    e.setup_s = setup;
    e.wall_s_per_iter = median(wall_per_iter);
    e.runs = static_cast<double>(run_ms.size());
    e.runs_s = runs_s;
    e.p50_ms = quantile(run_ms, 0.5);
    e.p90_ms = quantile(run_ms, 0.9);
    e.virt_s_per_iter = first.result.seconds_per_iteration;
    e.wan_bytes_per_iter = first.result.wan_bytes / first.iterations;
    add_end_to_end(e, report);
    return;
  }

  // Traced run: the same experiment with spans on; its deterministic
  // outputs must equal the untraced runs'.
  ++report.attempted;
  RunSample traced_sample;
  auto [spans, delta] = traced([&] { traced_sample = run_once(w); });
  check_run(traced_sample, &first, report);
  double iterations = traced_sample.iterations;
  trace_metrics(spans, delta, traced_sample.result, iterations, 1.0, report);
  report.add("rpc.retries", delta.count("rpc.retries") ? delta["rpc.retries"]
                                                        : 0.0,
             "count");
  report.add("sched.plan_ms", median(plan_ms), "ms");
  report.add("fault.recover.wall_ms", 0.0, "ms");
  report.add("fault.restarts_per_schedule",
             static_cast<double>(traced_sample.result.restarts), "count");
  // A fault-free run of the spec is what the explorer calls its golden run.
  std::vector<double> golden_ms;
  for (const RunSample& sample : samples) {
    golden_ms.push_back(1e3 * sample.run_s);
  }
  report.add("explore.golden_ms", median(golden_ms), "ms");
  double untraced = median(wall_per_iter);
  double traced_wall = traced_sample.run_s / iterations;
  report.add("obs.trace_overhead", (traced_wall - untraced) / untraced,
             "ratio");
  sim_probes(report);
  kernel_probes(first.spec, kProbeSeconds, report);
}

// ------------------------------------------------ explorer workload

struct Sweep {
  std::vector<double> schedule_ms;
  std::vector<std::string> outcomes;  // deterministic per-schedule summary
  double seconds = 0.0;
  std::vector<double> restarts;
};

/// A full depth-1 sweep: every fault point of the golden run times every
/// candidate victim, each schedule run on a fresh testbed and checked
/// against the golden invariants (what Explorer::explore does at depth 1,
/// timed schedule by schedule).
Sweep sweep(explore::Explorer& explorer, Report& report,
            const std::function<void()>& after_each = {}) {
  Sweep out;
  const explore::RunReport& gold = explorer.golden();
  auto t0 = Clock::now();
  for (const auto& entry : gold.trace) {
    for (const explore::Injection& victim : explorer.candidate_victims()) {
      explore::Schedule schedule{victim};
      schedule[0].point = entry.point;
      schedule[0].iteration = entry.iteration;
      schedule[0].occurrence = entry.occurrence;
      ++report.attempted;
      auto t = Clock::now();
      explore::RunReport run = explorer.run_schedule(schedule);
      out.schedule_ms.push_back(1e3 * since(t));
      std::vector<explore::Violation> violations;
      explorer.check(schedule, run, violations);
      if (after_each) after_each();
      out.restarts.push_back(run.restarts);
      out.outcomes.push_back(explore::format_schedule(schedule) + " fired=" +
                             std::to_string(run.fired) + " restarts=" +
                             std::to_string(run.restarts) + " live=" +
                             std::to_string(run.live_processes));
      if (!violations.empty()) {
        ++report.failed;
        if (report.errors.size() < 8) {
          report.fail("explorer violation: " + violations.front().schedule +
                      ": " + violations.front().what);
        }
      }
    }
  }
  out.seconds = since(t0);
  return out;
}

void explore_workload(const Workload& w, const Args& cfg, Report& report) {
  explore::Options options;
  options.max_faults = 1;
  options.iterations = 1;

  // Set-up: INI parse + Explorer construction + golden run. Repeated at the
  // start and after every sweep, like the run workloads' set-up; the first
  // explorer runs the sweeps.
  std::vector<double> setup;
  std::vector<double> golden_ms;
  std::unique_ptr<explore::Explorer> explorer;
  auto setups = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      auto t0 = Clock::now();
      util::Config config = workload_config(w);
      auto fresh = std::make_unique<explore::Explorer>(config, options);
      auto t_gold = Clock::now();
      const explore::RunReport& gold = fresh->golden();
      golden_ms.push_back(1e3 * since(t_gold));
      setup.push_back(since(t0));
      if (!gold.completed) report.fail("golden run failed: " + gold.error);
      if (!explorer) explorer = std::move(fresh);
    }
  };
  setups();
  std::printf("# %s: %zu fault points x %zu victims per sweep\n",
              w.name.c_str(), explorer->golden().trace.size(),
              explorer->candidate_victims().size());

  // The golden spec run directly: virtual time and WAN volume per
  // iteration, plus the determinism reference for the traced run.
  ++report.attempted;
  RunSample golden_run = run_once(w);
  check_run(golden_run, nullptr, report);
  for (const auto& [name, energy] : golden_run.fp.energies)
    report.energies[name] = energy;
  report.energies["golden_total"] = explorer->golden().energy;

  if (!cfg.trace) {
    // Whole sweeps while time remains. Latency quantiles are taken per
    // sweep, and the median over sweeps is reported, so that a burst of
    // host load during one sweep does not set the run's p90.
    std::vector<Sweep> sweeps;
    auto t0 = Clock::now();
    double spent = 0.0;
    do {
      sweeps.push_back(sweep(*explorer, report));
      if (sweeps.size() == 1) report.peak_rss_mb = peak_rss_mb();
      setups();
      spent = since(t0);
    } while (spent + sweeps.back().seconds <= cfg.seconds);
    std::vector<double> p50;
    std::vector<double> p90;
    EndToEnd e;
    for (const Sweep& s : sweeps) {
      if (s.outcomes != sweeps.front().outcomes)
        report.fail("explorer sweep outcomes differ between sweeps");
      p50.push_back(quantile(s.schedule_ms, 0.5));
      p90.push_back(quantile(s.schedule_ms, 0.9));
      e.runs += static_cast<double>(s.schedule_ms.size());
      e.runs_s += s.seconds;
    }
    std::printf("# %zu sweeps, %g schedules, %ld violations\n", sweeps.size(),
                e.runs, report.failed);
    e.setup_s = setup;
    e.p50_ms = median(p50);
    e.p90_ms = median(p90);
    e.wall_s_per_iter = 1e-3 * e.p50_ms;  // one iteration per schedule
    e.virt_s_per_iter = golden_run.result.seconds_per_iteration;
    e.wan_bytes_per_iter =
        golden_run.result.wan_bytes / golden_run.iterations;
    add_end_to_end(e, report);
    return;
  }

  // Traced golden-spec runs: the per-iteration layer split. The runs are
  // short, so untraced and traced sides both take several.
  constexpr int reps = 5;
  std::vector<double> untraced_wall{golden_run.run_s};
  for (int rep = 1; rep < reps; ++rep) {
    ++report.attempted;
    RunSample again = run_once(w);
    check_run(again, &golden_run, report);
    untraced_wall.push_back(again.run_s);
  }
  std::vector<RunSample> traced_runs;
  auto [spans, delta] = traced([&] {
    for (int rep = 0; rep < reps; ++rep) traced_runs.push_back(run_once(w));
  });
  std::vector<double> traced_wall;
  for (const RunSample& run : traced_runs) {
    ++report.attempted;
    check_run(run, &golden_run, report);
    traced_wall.push_back(run.run_s);
  }
  trace_metrics(spans, delta, golden_run.result,
                static_cast<double>(reps * golden_run.iterations), reps,
                report);

  // Traced sweep: recovery wall time and retries. Spans are folded after
  // every schedule so the buffer stays small.
  SpanAgg recover;
  Sweep traced_sweep;
  auto sweep_trace = traced([&] {
    traced_sweep = sweep(*explorer, report, [&recover] {
      SpanTable one;
      aggregate(obs::trace::snapshot(), one);
      obs::trace::reset();
      SpanAgg agg = span_total(one, "fault", "recover");
      recover.count += agg.count;
      recover.wall_incl += agg.wall_incl;
    });
  });
  std::map<std::string, double>& sweep_delta = sweep_trace.second;
  report.add("rpc.retries",
             sweep_delta.count("rpc.retries") ? sweep_delta["rpc.retries"]
                                              : 0.0,
             "count");
  std::vector<double> plan_ms;
  for (const RunSample& run : traced_runs) plan_ms.push_back(1e3 * run.plan_s);
  report.add("sched.plan_ms", median(plan_ms), "ms");
  report.add("fault.recover.wall_ms",
             recover.count > 0 ? 1e3 * recover.wall_incl /
                                     static_cast<double>(recover.count)
                               : 0.0,
             "ms");
  report.add("fault.restarts_per_schedule", mean(traced_sweep.restarts),
             "count");
  report.add("explore.golden_ms", median(golden_ms), "ms");
  report.add("obs.trace_overhead",
             median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
  std::printf("# traced sweep: %zu schedules, %ld recover spans\n",
              traced_sweep.schedule_ms.size(), recover.count);
  sim_probes(report);
  kernel_probes(golden_run.spec, kProbeSeconds, report);
}

int usage() {
  std::fprintf(stderr,
               "usage: jbench --workload NAME --ini FILE --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--ini") {
        cfg.ini = value();
      } else if (arg == "--seed") {
        std::string text = value();
        if (text.empty() || text.size() > 18 ||
            text.find_first_not_of("0123456789") != std::string::npos) {
          throw ConfigError("--seed must be a non-negative integer below "
                            "10^18, got '" + text + "'");
        }
        cfg.seed = std::stoull(text);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        std::string text = value();
        if (text != "0" && text != "1")
          throw ConfigError("--trace must be 0 or 1");
        cfg.trace = text == "1";
      } else {
        return usage();
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "jbench: %s\n", error.what());
      return 2;
    }
  }
  if (cfg.workload.empty() || cfg.ini.empty() || !have_seed) return usage();

  Workload w;
  w.name = cfg.workload;
  w.seed = cfg.seed;
  w.explore = cfg.workload == "explore-triple";
  {
    std::ifstream in(cfg.ini);
    if (!in) {
      std::fprintf(stderr, "jbench: cannot open %s\n", cfg.ini.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    w.text = text.str();
  }
  try {
    const util::Config ini = util::Config::parse(w.text);
    for (const std::string& section : ini.sections()) {
      if (section.rfind("host ", 0) == 0) w.builtin_testbed = false;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "jbench: %s: %s\n", cfg.ini.c_str(), error.what());
    return 2;
  }

  Report report;
  try {
    if (w.explore) {
      explore_workload(w, cfg, report);
    } else {
      run_workload(w, cfg, report);
    }
  } catch (const std::exception& error) {
    ++report.failed;
    report.fail(std::string("benchmark aborted: ") + error.what());
  }
  if (!cfg.trace) report.add("peak_rss_MB", report.peak_rss_mb, "MB");

  std::ostringstream out;
  out << "{\"workload\":" << json_string(w.name)
      << ",\"seed\":" << cfg.seed
      << ",\"threads\":" << util::ThreadPool::global().lanes()
      << ",\"isa\":" << json_string(kernels::simd::kIsa)
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed
      << ",\"correct\":" << (report.errors.empty() ? "true" : "false")
      << ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out << (i ? "," : "") << json_string(report.errors[i]);
  }
  out << "],\"energies\":{";
  bool comma = false;
  for (const auto& [name, energy] : report.energies) {
    out << (comma ? "," : "") << json_string(name) << ":"
        << json_number(energy);
    comma = true;
  }
  out << "},\"live_processes\":[";
  comma = false;
  for (const std::string& name : report.live_after_runs) {
    out << (comma ? "," : "") << json_string(name);
    comma = true;
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? "," : "") << json_string(m.name) << ":{\"value\":"
        << json_number(m.value) << ",\"unit\":" << json_string(m.unit)
        << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
