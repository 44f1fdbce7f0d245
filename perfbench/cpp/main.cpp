// perfbench_sim: one repetition of one benchmark workload, in its own
// process so VmHWM is this repetition's peak.
//
//   perfbench_sim --workload NAME --seed N [--mode dark|traced]
//                 [--spans FILE]
//
// Generates the workload's fixed trace, builds a SimulationDriver seeded
// with the run seed, runs it, checks the outputs, and prints two JSON lines
// on stdout: the number of jobs attempted (first, so an abort is counted),
// then the check verdict, the simulated-result digest, and every metric of
// the repetition by its benchmark name. Before its set-up and after its
// replay it times the reference kernel (reference_kernel.h);
// `host.reference_s` is the mean of the two passes. `dark` (the default) runs the library
// untouched; `traced` wraps the scheduler and the availability oracle in
// the layer timers of layer_trace.h and, with --spans, writes the kept
// plan/submit spans to FILE after the run. perfbench/run.py drives it.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "checks.h"
#include "common/stats.h"
#include "layer_trace.h"
#include "reference_kernel.h"
#include "workloads.h"

using namespace cosched;
using namespace perfbench;

namespace {

/// Set-ups per process (trace generation + driver construction).
constexpr int kSetups = 15;

/// A field of /proc/self/status in MB (VmRSS, VmHWM); 0 where unavailable.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stod(line.substr(len + 1)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  bool traced = false;
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      a.seed_given = true;
    } else if (key == "--mode" && (val == "dark" || val == "traced")) {
      a.traced = val == "traced";
    } else if (key == "--spans") {
      a.spans = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seed_given;
}

int run(const Args& args) {
  const BenchWorkload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  const std::int32_t num_jobs = w->num_jobs;
  // Announce the attempt first, so a run that aborts is still counted.
  std::cout << "{\"jobs\": " << num_jobs << "}" << std::endl;
  const double reference_before = reference_kernel_seconds();

  // ---- set-up: trace generation, then driver construction ----------------
  // Set up kSetups times and keep the last; the set-up times reported are
  // the medians.
  std::vector<double> generate_times;
  std::vector<double> construct_times;
  std::vector<double> setup_times;
  std::vector<JobSpec> trace;
  LayerTrace layers;
  std::unique_ptr<SimulationDriver> driver;
  bool kills = false;
  for (int k = 0; k < kSetups; ++k) {
    driver.reset();
    const auto t_gen = Clock::now();
    trace = generate_trace(num_jobs);
    generate_times.push_back(since(t_gen));
    std::vector<JobSpec> driver_trace = trace;  // the checks keep `trace`

    const auto t_build = Clock::now();
    SimConfig cfg = sim_config(*w, num_jobs, args.seed);
    kills = cfg.faults.container_kill.has_value();
    if (args.traced) {
      driver = std::make_unique<TimedDriver>(
          std::move(cfg), std::move(driver_trace),
          std::make_unique<TimedScheduler>(make_scheduler(*w), layers),
          layers);
    } else {
      driver = std::make_unique<SimulationDriver>(
          std::move(cfg), std::move(driver_trace), make_scheduler(*w));
    }
    construct_times.push_back(since(t_build));
    setup_times.push_back(generate_times.back() + construct_times.back());
  }
  const double generate_s = percentile(generate_times, 50);
  const double construct_s = percentile(construct_times, 50);
  const double rss_after_setup_mb = proc_status_mb("VmRSS");

  // ---- the measured replay -----------------------------------------------
  layers.origin = Clock::now();
  const auto t_run = Clock::now();
  const RunMetrics m = driver->run();
  const double run_s = since(t_run);
  const double peak_rss_mb = proc_status_mb("VmHWM");
  const double reference_after = reference_kernel_seconds();

  const CheckResult check = check_run(trace, m, !kills);
  const ScheduleQuality q = schedule_quality(m);
  const double cross_gb =
      m.ocs_bytes.in_gigabytes() + m.eps_bytes.in_gigabytes();

  std::map<std::string, double> metrics = {
      {"sim.run_s", run_s},
      {"setup_s", percentile(setup_times, 50)},
      {"peak_rss_mb", peak_rss_mb},
      {"host.reference_s", (reference_before + reference_after) / 2.0},
      {"jct_p50_s", q.jct_p50_s},
      {"jct_p90_s", q.jct_p90_s},
      {"metrics.jct_mean_s", q.jct_mean_s},
      {"metrics.jct_p99_s", q.jct_p99_s},
      {"metrics.cct_mean_s", q.cct_mean_s},
      {"metrics.cct_p99_s", q.cct_p99_s},
      {"workload.generate_s", generate_s},
      {"sim.construct_s", construct_s},
      {"sim.rss_after_setup_mb", rss_after_setup_mb},
      {"sim.rss_growth_mb", peak_rss_mb - rss_after_setup_mb},
      {"sim.events", static_cast<double>(m.events_executed)},
      {"sim.dispatch_waves", static_cast<double>(m.dispatch_waves)},
      {"sim.ns_per_event",
       m.events_executed > 0
           ? run_s * 1e9 / static_cast<double>(m.events_executed)
           : 0.0},
      {"net.eps_gb", m.eps_bytes.in_gigabytes()},
      {"net.local_gb", m.local_bytes.in_gigabytes()},
      {"fabric.ocs_gb", m.ocs_bytes.in_gigabytes()},
      {"fabric.ocs_share",
       cross_gb > 0.0 ? m.ocs_bytes.in_gigabytes() / cross_gb : 0.0},
      {"coflow.count", static_cast<double>(q.coflows)},
      {"coflow.cct_over_bound_mean", q.cct_over_bound_mean},
      {"faults.tasks_killed", static_cast<double>(m.faults.tasks_killed())},
      {"faults.stragglers", static_cast<double>(m.faults.stragglers)},
      {"faults.flows_evicted", static_cast<double>(m.faults.flows_evicted)},
      {"faults.ocs_downtime_s", m.faults.ocs_downtime_sec},
  };
  if (args.traced) {
    const auto put_calls = [&metrics](const std::string& layer,
                                      const CallStats& s) {
      metrics[layer + ".calls"] = static_cast<double>(s.calls);
      metrics[layer + ".total_s"] = s.total_s;
    };
    put_calls("sched.submit", layers.submit);
    put_calls("sched.plan", layers.plan);
    put_calls("sched.pick", layers.pick);
    put_calls("sched.hook", layers.hook);
    put_calls("cluster.availability", layers.availability);
    std::vector<double> plan_us;
    for (const Span& s : layers.plan_spans) plan_us.push_back(s.dur_s * 1e6);
    const bool planned = !plan_us.empty();
    metrics["sched.plan.p50_us"] = planned ? percentile(plan_us, 50) : 0.0;
    metrics["sched.plan.p99_us"] = planned ? percentile(plan_us, 99) : 0.0;
    metrics["sched.pick.p50_us"] = layers.pick_ns.quantile_ns(0.50) / 1e3;
    metrics["sched.pick.p99_us"] = layers.pick_ns.quantile_ns(0.99) / 1e3;
    metrics["sched.pick.grants"] = static_cast<double>(layers.grants);
    metrics["sched.pick.grant_ratio"] =
        layers.pick.calls > 0 ? static_cast<double>(layers.grants) /
                                    static_cast<double>(layers.pick.calls)
                              : 0.0;
    metrics["sched.grant.unclassed"] =
        static_cast<double>(layers.grants_by_class[0]);
    for (std::size_t c = 1; c < layers.grants_by_class.size(); ++c) {
      metrics["sched.grant.class" + std::to_string(c)] =
          static_cast<double>(layers.grants_by_class[c]);
    }
    metrics["sched.self_s"] = layers.sched_self_s();
    metrics["sim.engine_self_s"] = layers.engine_self_s(run_s);
    if (!args.spans.empty()) {
      std::ofstream os(args.spans);
      os << std::setprecision(9);
      layers.write_spans(os);
      if (!os) {
        std::cerr << "cannot write spans to " << args.spans << "\n";
        return 1;
      }
    }
  }

  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\": " << json_string(w->name)
      << ", \"seed\": " << args.seed
      << ", \"mode\": " << json_string(args.traced ? "traced" : "dark")
      << ", \"jobs\": " << check.jobs_attempted
      << ", \"jobs_failed\": " << check.jobs_failed << ", \"digest\": \""
      << std::hex << std::setw(16) << std::setfill('0') << result_digest(m)
      << std::dec << "\", \"messages\": [";
  for (std::size_t i = 0; i < check.messages.size(); ++i) {
    out << (i ? ", " : "") << json_string(check.messages[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench_sim --workload NAME --seed N "
                   "[--mode dark|traced] [--spans FILE]\n";
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_sim: " << e.what() << "\n";
    return 1;
  }
}
