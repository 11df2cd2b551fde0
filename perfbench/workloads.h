// The benchmark's three closed-loop workloads. Each repetition builds its
// system from scratch (so every repetition of one seed is the same
// simulation), runs it through the library's public entry points and
// returns two kinds of numbers:
//  - host-clock phase times (set-up, warm-up, measured run, stats);
//  - a block of sim-derived values: every counter, latency percentile and
//    cluster statistic the metrics are made from. The block is a pure
//    function of the seed; the benchmark checks that it repeats exactly.
#ifndef LEAP_PERFBENCH_WORKLOADS_H_
#define LEAP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probe.h"

namespace leapbench {

inline constexpr const char* kWorkloads[] = {"micro-scan", "apps-kv",
                                             "cluster-mix"};

bool IsWorkload(const std::string& name);

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

// Per-call probes and spans of one traced repetition.
struct Tracer {
  SpanLog* spans = nullptr;
  int rep = 0;
  Probe next;      // AccessStream::Next
  Probe on_fault;  // PrefetchPolicy::OnFault
  Probe feedback;  // every other PrefetchPolicy callback
  uint64_t candidates = 0;
};

struct RepResult {
  double setup_s = 0.0;   // construct + stream build + warm-up
  double warmup_s = 0.0;  // the WarmUp calls alone
  double run_s = 0.0;     // the measured Run call
  double stats_s = 0.0;   // statistics collection and histogram merges
  uint64_t attempted = 0;  // accesses the apps were asked to make
  uint64_t executed = 0;   // accesses they made
  uint64_t failed = 0;     // not executed + remote reads/writes lost
  std::map<std::string, double> sim;
  std::vector<Check> checks;
};

// Runs one repetition of `workload`; `tracer` is null for an untraced run.
RepResult RunWorkload(const std::string& workload, uint64_t seed,
                      Tracer* tracer);

}  // namespace leapbench

#endif  // LEAP_PERFBENCH_WORKLOADS_H_
