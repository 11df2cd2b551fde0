// leapbench: one workload of the repo benchmark, repeated for a time
// budget, with its correctness gate. See README.md.
//
// Usage: leapbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//
// Each repetition builds the system from scratch and runs the same
// seed-determined simulation, so the repetitions differ only in host time.
// Untraced repetitions give the end-to-end metrics. With --trace 1 the
// repetitions alternate untraced and traced; the traced ones give the
// per-layer metrics, and their spans go to --spans. Every repetition's
// sim-derived block must equal the first one's, traced or not.
//
// Prints one JSON object on stdout; exits 1 when a check fails and 2 on a
// usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/probe.h"
#include "perfbench/workloads.h"

namespace leapbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

bool ParseOptions(int argc, char** argv, Options* opts) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts->workload = value;
    } else if (flag == "--seed") {
      opts->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts->seconds = std::stod(value);
    } else if (flag == "--trace") {
      opts->trace = value == "1";
    } else if (flag == "--spans") {
      opts->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkload(opts->workload) && opts->seconds > 0.0;
} catch (const std::exception&) {  // a number that does not parse
  return false;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Peak resident set of this process (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Flat JSON object built key by key.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  JsonObject& Number(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& String(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Traced {
  Tracer tracer;
  RepResult rep;
};

// Per-layer metrics of one traced repetition. Sim-derived ones come from
// the sim block; wall-clock ones from the probes, net of timer cost.
std::vector<std::pair<std::string, double>> LayerMetrics(
    const Traced& t, const TimerCost& cost) {
  const auto& sim = t.rep.sim;
  auto get = [&sim](const std::string& key) {
    const auto it = sim.find(key);
    return it == sim.end() ? 0.0 : it->second;
  };
  auto counter = [&get](const char* name) {
    return get(std::string("counter.") + name);
  };
  auto per = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const Tracer& tr = t.tracer;
  const double executed = static_cast<double>(t.rep.executed);
  const double next_self = ProbeSelfNs(tr.next, cost);
  const double prefetch_self =
      ProbeSelfNs(tr.on_fault, cost) + ProbeSelfNs(tr.feedback, cost);
  const double probe_calls = static_cast<double>(
      tr.next.calls + tr.on_fault.calls + tr.feedback.calls);
  const double probe_total = static_cast<double>(
      tr.next.total_ns + tr.on_fault.total_ns + tr.feedback.total_ns);
  // The Run call's time less everything the probes saw and their timer
  // cost: the runner, the machine and (on the cluster, where the policy is
  // not timed) the prefetcher.
  const double runtime_self =
      t.rep.run_s * 1e9 - probe_total - cost.outside_ns * probe_calls;
  const double hits = counter("prefetch_hits");
  const double issued = counter("prefetch_issued");
  const double misses = counter("cache_misses");
  return {
      {"workload.next_ns", per(next_self, static_cast<double>(tr.next.calls))},
      {"runtime.self_ns_per_access", per(runtime_self, executed)},
      {"runtime.warmup_s", t.rep.warmup_s},
      {"runtime.warmup_sim_s", get("warmup.end_ns") / 1e9},
      {"prefetch.on_fault_ns",
       per(ProbeSelfNs(tr.on_fault, cost),
           static_cast<double>(tr.on_fault.calls))},
      {"prefetch.on_fault_calls", static_cast<double>(tr.on_fault.calls)},
      {"prefetch.candidates_per_fault",
       per(static_cast<double>(tr.candidates),
           static_cast<double>(tr.on_fault.calls))},
      {"prefetch.self_ns_per_access", per(prefetch_self, executed)},
      {"prefetch.issued", issued},
      {"prefetch.hits", hits},
      {"prefetch.unused", counter("prefetch_unused_evicted")},
      {"prefetch.accuracy", per(hits, issued)},
      {"prefetch.coverage", per(hits, hits + misses)},
      {"prefetch.timeliness_p50_us", get("timeliness.p50_ns") / 1e3},
      {"mem.evictions", counter("evictions")},
      {"mem.eager_frees", counter("eager_frees")},
      {"mem.lru_scans", counter("lru_pages_scanned")},
      {"mem.alloc_p50_ns", get("alloc.p50_ns")},
      {"mem.alloc_p99_ns", get("alloc.p99_ns")},
      {"mem.eviction_wait_p50_us", get("eviction_wait.p50_ns") / 1e3},
      {"paging.cache_hits", counter("cache_hits")},
      {"paging.cache_misses", misses},
      {"paging.wait_hits", counter("prefetch_wait_hits")},
      {"paging.demand_reads", counter("demand_reads")},
      {"paging.writebacks", counter("writebacks")},
      {"paging.miss_p50_us", get("miss.p50_ns") / 1e3},
      {"paging.miss_p99_us", get("miss.p99_ns") / 1e3},
      {"rdma.remote_reads", counter("remote_reads")},
      {"rdma.remote_writes", counter("remote_writes")},
      {"rdma.read_mean_us", get("rdma.read_mean_ns") / 1e3},
      {"rdma.capacity_exhausted", counter("remote_capacity_exhausted")},
      {"rdma.reads_lost", counter("remote_reads_lost")},
      {"cluster.fabric_ops", get("fabric.ops")},
      {"cluster.fabric_bytes", get("fabric.bytes")},
      {"cluster.demand_queue_us", get("queue_mean_ns.demand_read") / 1e3},
      {"cluster.prefetch_queue_us", get("queue_mean_ns.prefetch") / 1e3},
      {"cluster.writeback_queue_us", get("queue_mean_ns.writeback") / 1e3},
      {"cluster.demand_stage.software_us",
       get("demand_stage.software_ns") / 1e3},
      {"cluster.demand_stage.queue_us", get("demand_stage.queue_ns") / 1e3},
      {"cluster.demand_stage.wire_us", get("demand_stage.wire_ns") / 1e3},
      {"cluster.demand_stage.stall_us", get("demand_stage.stall_ns") / 1e3},
      {"cluster.demand_stage.service_us",
       get("demand_stage.service_ns") / 1e3},
      {"cluster.slab_imbalance", get("slab_imbalance")},
      {"sim.event_pool_nodes_setup", get("events.pool_nodes_setup")},
      {"sim.pending_events_setup", get("events.pending_setup")},
      {"sim.event_pool_nodes", get("events.pool_nodes_run")},
      {"sim.pending_events", get("events.pending_run")},
      {"stats.collect_s", t.rep.stats_s},
  };
}

// Per-layer metrics the benchmark cannot measure from outside on this
// workload, with the reason.
std::vector<std::pair<std::string, std::string>> Unmeasured(
    const std::string& workload) {
  if (workload == "cluster-mix") {
    const char* why =
        "the cluster shares one policy_override pointer across all hosts, "
        "so the policy is not wrapped (prefetch time is in "
        "runtime.self_ns_per_access)";
    return {{"prefetch.on_fault_ns", why},
            {"prefetch.on_fault_calls", why},
            {"prefetch.candidates_per_fault", why},
            {"prefetch.self_ns_per_access", why}};
  }
  const char* no_cluster = "a standalone host has no fabric or placer";
  const char* no_queue = "a standalone host's event queue is private";
  return {{"cluster.*", no_cluster},
          {"sim.event_pool_nodes*", no_queue},
          {"sim.pending_events*", no_queue}};
}

void WriteSpans(const std::string& path, const SpanLog& spans,
                const std::vector<Traced>& traced) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& span : spans.spans()) {
    out << (first ? "" : ",\n")
        << JsonObject()
               .String("name", span.name)
               .String("ph", "X")
               .Number("ts", span.start_s * 1e6)
               .Number("dur", (span.end_s - span.start_s) * 1e6)
               .Number("pid", 1)
               .Number("tid", span.rep)
               .Raw("args", JsonObject()
                                .Number("rep", span.rep)
                                .Number("parent", span.parent)
                                .str())
               .str();
    first = false;
  }
  out << "],\n\"probes\": [";
  first = true;
  for (const Traced& t : traced) {
    const std::pair<const char*, const Probe*> probes[] = {
        {"workload.next", &t.tracer.next},
        {"prefetch.on_fault", &t.tracer.on_fault},
        {"prefetch.feedback", &t.tracer.feedback}};
    for (const auto& [name, probe] : probes) {
      out << (first ? "" : ",\n")
          << JsonObject()
                 .String("name", name)
                 .Number("rep", t.tracer.rep)
                 .Number("calls", static_cast<double>(probe->calls))
                 .Number("total_ns", static_cast<double>(probe->total_ns))
                 .Number("p50_ns", static_cast<double>(probe->hist.Percentile(0.5)))
                 .Number("p99_ns", static_cast<double>(probe->hist.Percentile(0.99)))
                 .str();
      first = false;
    }
  }
  out << "]}\n";
}

// Names of the sim-block keys whose values differ (at most a few).
std::string SimDiff(const std::map<std::string, double>& a,
                    const std::map<std::string, double>& b) {
  std::string out;
  int shown = 0;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if ((it == b.end() || it->second != value) && shown++ < 4) {
      out += key + " ";
    }
  }
  if (a.size() != b.size()) {
    out += "(key sets differ)";
  }
  return out;
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: leapbench --workload micro-scan|apps-kv|cluster-mix "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const TimerCost cost = CalibrateTimer();
  const auto start = Clock::now();
  SpanLog spans(start);
  std::vector<RepResult> plain;
  std::vector<Traced> traced;
  std::vector<Check> checks;
  std::map<std::string, double> reference;
  std::vector<double> setups;
  // Repetitions until the time budget is spent; at least two, so the
  // determinism check always has a pair (with --trace 1, one of each). A
  // repetition starts only if it is expected to end less than half its
  // length past the budget, so a run lasts about --seconds.
  double last_rep_s = 0.0;
  for (int rep = 0;
       rep < 2 || SecondsSince(start) + last_rep_s / 2 < opts.seconds;
       ++rep) {
    const auto rep_start = Clock::now();
    const bool trace_this = opts.trace && rep % 2 == 1;
    RepResult* result = nullptr;
    if (trace_this) {
      traced.emplace_back();
      Traced& t = traced.back();
      t.tracer.spans = &spans;
      t.tracer.rep = rep;
      t.rep = RunWorkload(opts.workload, opts.seed, &t.tracer);
      result = &t.rep;
    } else {
      plain.push_back(RunWorkload(opts.workload, opts.seed, nullptr));
      result = &plain.back();
    }
    if (rep == 0) {
      reference = result->sim;
      checks = result->checks;
    } else if (result->sim != reference) {
      checks.push_back({"deterministic_rep_" + std::to_string(rep), false,
                        std::string(trace_this ? "traced" : "untraced") +
                            " repetition diverged from the first: " +
                            SimDiff(reference, result->sim)});
    }
    last_rep_s = SecondsSince(rep_start);
    if (!trace_this) {
      setups.push_back(result->setup_s);
    }
  }
  checks.push_back({"sim_block_repeats", true,
                    std::to_string(plain.size() + traced.size()) +
                        " repetitions compared"});
  bool correct = true;
  for (const Check& check : checks) {
    correct = correct && check.ok;
    if (!check.ok) {
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", check.name.c_str(),
                   check.detail.c_str());
    }
  }

  const RepResult& first = plain.front();
  // Throughput over the whole measured phase (all untraced repetitions
  // together): the host is shared, and other tenants slow it for stretches
  // of seconds, so the time-weighted rate is steadier than a per-repetition
  // median.
  double executed = 0.0;
  double run_total = 0.0;
  std::vector<double> runs;
  for (const RepResult& r : plain) {
    executed += static_cast<double>(r.executed);
    run_total += r.run_s;
    runs.push_back(r.run_s);
  }
  const auto& sim = first.sim;
  const double attempted = static_cast<double>(first.attempted);
  const double failed = static_cast<double>(first.failed);
  JsonObject e2e;
  e2e.Number("sim_accesses_per_s", executed / run_total)
      .Number("setup_s", Median(setups))
      .Number("peak_rss_mb", PeakRssMb())
      .Number("remote_p50_us", sim.at("remote.p50_ns") / 1e3)
      .Number("remote_p99_us", sim.at("remote.p99_ns") / 1e3)
      .Number("remote_p999_us", sim.at("remote.p999_ns") / 1e3)
      .Number("sim_completion_s", sim.at("completion.max_ns") / 1e9)
      .Number("success_frac", 1.0 - failed / attempted)
      .Number("failed_frac", failed / attempted)
      .Number("remote_samples", sim.at("remote.count"));

  JsonObject layer;
  if (!traced.empty()) {
    // Wall-clock metrics are medians over the traced repetitions; the
    // sim-derived ones are the same in all of them.
    std::vector<std::vector<std::pair<std::string, double>>> per_rep;
    for (const Traced& t : traced) {
      per_rep.push_back(LayerMetrics(t, cost));
    }
    for (size_t i = 0; i < per_rep.front().size(); ++i) {
      std::vector<double> values;
      for (const auto& metrics : per_rep) {
        values.push_back(metrics[i].second);
      }
      layer.Number(per_rep.front()[i].first, Median(values));
    }
    std::vector<double> traced_runs;
    for (const Traced& t : traced) {
      traced_runs.push_back(t.rep.run_s);
    }
    layer.Number("trace.overhead_frac",
                 Median(traced_runs) / Median(runs) - 1.0);
    if (!opts.spans_path.empty()) {
      WriteSpans(opts.spans_path, spans, traced);
    }
  }

  JsonObject unmeasured;
  for (const auto& [name, why] : Unmeasured(opts.workload)) {
    unmeasured.String(name, why);
  }
  JsonObject sim_block;
  for (const auto& [key, value] : sim) {
    sim_block.Number(key, value);
  }
  JsonObject check_block;
  for (const Check& check : checks) {
    check_block.Raw(check.name, JsonObject()
                                    .Raw("ok", check.ok ? "true" : "false")
                                    .String("detail", check.detail)
                                    .str());
  }
  std::string rep_list;
  for (size_t i = 0; i < plain.size(); ++i) {
    rep_list += (i == 0 ? "" : ", ") +
                JsonObject()
                    .Number("setup_s", plain[i].setup_s)
                    .Number("run_s", plain[i].run_s)
                    .Number("warmup_s", plain[i].warmup_s)
                    .Number("accesses", static_cast<double>(plain[i].executed))
                    .str();
  }
  std::printf(
      "%s\n",
      JsonObject()
          .String("workload", opts.workload)
          .Number("seed", static_cast<double>(opts.seed))
          .Raw("trace", opts.trace ? "true" : "false")
          .Raw("correct", correct ? "true" : "false")
          .Number("attempted", attempted)
          .Number("failed", failed)
          .String("compiler", LEAPBENCH_COMPILER)
          .String("build_type", LEAPBENCH_BUILD_TYPE)
#ifdef NDEBUG
          .Raw("asserts", "false")
#else
          .Raw("asserts", "true")
#endif
          .Number("elapsed_s", SecondsSince(start))
          .Number("timer_inside_ns", cost.inside_ns)
          .Number("timer_outside_ns", cost.outside_ns)
          .Number("untraced_reps", static_cast<double>(plain.size()))
          .Number("traced_reps", static_cast<double>(traced.size()))
          .Number("setup_samples", static_cast<double>(setups.size()))
          .Raw("reps", "[" + rep_list + "]")
          .Raw("end_to_end", e2e.str())
          .Raw("per_layer", layer.str())
          .Raw("unmeasured", unmeasured.str())
          .Raw("checks", check_block.str())
          .Raw("sim", sim_block.str())
          .str()
          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace leapbench

int main(int argc, char** argv) { return leapbench::Main(argc, argv); }
