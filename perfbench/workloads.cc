#include "perfbench/workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>

#include "src/runtime/app_runner.h"
#include "src/runtime/cluster.h"
#include "src/runtime/machine.h"
#include "src/runtime/presets.h"
#include "src/workload/app_models.h"
#include "src/workload/cluster_mix.h"
#include "src/workload/patterns.h"

namespace leapbench {
namespace {

using leap::AccessStream;
using leap::CounterId;
using leap::Histogram;
using leap::kNsPerMs;
using leap::Machine;
using leap::MachineConfig;
using leap::Pid;
using leap::RunConfig;
using leap::RunResult;
using leap::SimTimeNs;

// Host geometry shared by micro-scan and apps-kv: the repo's standard
// micro geometry (64k frames, so only the cgroups bind).
constexpr size_t kHostFrames = 1 << 16;
constexpr SimTimeNs kStartGapNs = 10 * kNsPerMs;

// micro-scan: the paper's Fig. 7 pair, side by side.
constexpr size_t kMicroFootprint = 16 * 1024;
constexpr size_t kMicroAccesses = 1'000'000;  // per process
constexpr SimTimeNs kMicroThinkNs = 750;

// apps-kv: VoltDB and Memcached models.
constexpr size_t kAppsAccesses = 2'000'000;  // per process

// cluster-mix: the fig18 geometry at 512 hosts.
constexpr size_t kClusterHosts = 512;
constexpr size_t kHostsPerNode = 4;
constexpr size_t kClusterFootprint = 2048;
constexpr size_t kClusterAccesses = 4000;  // per host
constexpr size_t kClusterSlabPages = 64;

// Independent child seeds of the workload seed (SplitMix64 finalizer).
uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Begins a phase span when tracing; End() closes it. Untraced runs make
// no span calls at all.
class Phase {
 public:
  Phase(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer),
        index_(tracer == nullptr
                   ? -1
                   : tracer->spans->Begin(name, tracer->rep, parent)) {}
  ~Phase() { End(); }
  void End() {
    if (index_ >= 0 && !ended_) {
      tracer_->spans->End(index_);
    }
    ended_ = true;
  }
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
  bool ended_ = false;
};

// Percentile of a library histogram, interpolated linearly inside the log
// bucket that holds it. Histogram::Percentile reports the bucket midpoint,
// which repeats across seeds whenever the percentile stays in one bucket;
// the interpolation keeps the estimate continuous. Bucket bounds follow
// the histogram's default geometry (6 sub-bucket bits).
double InterpolatedPercentile(const Histogram& hist, double q) {
  if (hist.count() == 0) {
    return 0.0;
  }
  constexpr int kSubBucketBits = 6;
  const uint64_t value = hist.Percentile(q);
  uint64_t lo = value;
  uint64_t width = 1;
  if (value >= (uint64_t{1} << kSubBucketBits)) {
    const int shift = 63 - std::countl_zero(value) - kSubBucketBits;
    lo = (value >> shift) << shift;
    width = uint64_t{1} << shift;
  }
  const double n = static_cast<double>(hist.count());
  const double below =
      lo == 0 ? 0.0 : std::round(hist.FractionAtOrBelow(lo - 1) * n);
  const double through = std::round(hist.FractionAtOrBelow(lo) * n);
  const double in_bucket = through - below;
  const double frac =
      in_bucket <= 0.0 ? 0.5 : std::clamp((q * n - below) / in_bucket, 0.0, 1.0);
  return static_cast<double>(lo) + frac * static_cast<double>(width);
}

// Samples above the bucket that holds the q-th percentile.
double SamplesBeyond(const Histogram& hist, double q) {
  const double n = static_cast<double>(hist.count());
  return n - std::round(hist.FractionAtOrBelow(hist.Percentile(q)) * n);
}

void AddCheck(RepResult& rep, std::string name, bool ok, std::string detail) {
  rep.checks.push_back({std::move(name), ok, std::move(detail)});
}

// Histograms merged over every app and host of one repetition.
struct Merged {
  Histogram remote;
  Histogram miss;
  Histogram timeliness;
  Histogram alloc;
  Histogram eviction_wait;
};

// Fills the sim block and the checks shared by every workload from the
// merged counters, histograms and per-app results.
void Summarize(const leap::Counters& counters, const Merged& merged,
               const std::vector<RunResult>& results,
               const std::vector<size_t>& asked, double read_mean_ns,
               SimTimeNs warm_end, RepResult& rep) {
  auto& sim = rep.sim;
  for (size_t i = 0; i < leap::kCounterCount; ++i) {
    const auto id = static_cast<CounterId>(i);
    sim[std::string("counter.") + leap::CounterName(id)] =
        static_cast<double>(counters.Get(id));
  }

  const Histogram& remote = merged.remote;
  sim["remote.count"] = static_cast<double>(remote.count());
  sim["remote.mean_ns"] = remote.Mean();
  sim["miss.count"] = static_cast<double>(merged.miss.count());
  const std::pair<const char*, double> percentiles[] = {
      {"p50", 0.5}, {"p99", 0.99}, {"p999", 0.999}};
  for (const auto& [label, q] : percentiles) {
    sim[std::string("remote.") + label + "_ns"] =
        InterpolatedPercentile(remote, q);
    const double beyond = SamplesBeyond(remote, q);
    AddCheck(rep, std::string("remote_") + label + "_tail_samples",
             beyond >= 10.0,
             std::to_string(static_cast<uint64_t>(beyond)) +
                 " samples beyond, need 10");
  }
  sim["miss.p50_ns"] = InterpolatedPercentile(merged.miss, 0.5);
  sim["miss.p99_ns"] = InterpolatedPercentile(merged.miss, 0.99);
  sim["timeliness.p50_ns"] = InterpolatedPercentile(merged.timeliness, 0.5);
  sim["alloc.p50_ns"] = InterpolatedPercentile(merged.alloc, 0.5);
  sim["alloc.p99_ns"] = InterpolatedPercentile(merged.alloc, 0.99);
  sim["eviction_wait.p50_ns"] =
      InterpolatedPercentile(merged.eviction_wait, 0.5);
  sim["rdma.read_mean_ns"] = read_mean_ns;
  sim["warmup.end_ns"] = static_cast<double>(warm_end);

  SimTimeNs slowest = 0;
  uint64_t executed = 0;
  uint64_t attempted = 0;
  uint64_t ops = 0;
  size_t finished = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    slowest = std::max(slowest, r.completion_ns);
    executed += r.accesses;
    attempted += asked[i];
    ops += r.app_ops;
    if (r.finished && r.accesses == asked[i]) {
      ++finished;
    }
  }
  sim["completion.max_ns"] = static_cast<double>(slowest);
  sim["apps.count"] = static_cast<double>(results.size());
  sim["apps.finished"] = static_cast<double>(finished);
  sim["apps.accesses"] = static_cast<double>(executed);
  sim["apps.ops"] = static_cast<double>(ops);

  rep.attempted = attempted;
  rep.executed = executed;
  rep.failed = (attempted - executed) +
               counters.Get(leap::counter::kRemoteReadsLost) +
               counters.Get(leap::counter::kRemoteWritesLost);

  AddCheck(rep, "apps_finished", finished == results.size(),
           std::to_string(finished) + " of " +
               std::to_string(results.size()) +
               " apps finished their full access count");
  const uint64_t hits = counters.Get(leap::counter::kCacheHits);
  const uint64_t misses = counters.Get(leap::counter::kCacheMisses);
  AddCheck(rep, "paging_samples_match", hits + misses == remote.count(),
           "cache_hits + cache_misses = " + std::to_string(hits + misses) +
               ", remote latency samples = " +
               std::to_string(remote.count()));
  const uint64_t pf_hits = counters.Get(leap::counter::kPrefetchHits);
  const uint64_t pf_unused = counters.Get(leap::counter::kPrefetchUnused);
  const uint64_t pf_issued = counters.Get(leap::counter::kPrefetchIssued);
  AddCheck(rep, "prefetch_outcomes_bounded", pf_hits + pf_unused <= pf_issued,
           "prefetch hits + unused = " + std::to_string(pf_hits + pf_unused) +
               ", issued = " + std::to_string(pf_issued));
}

// One app of a host workload.
struct HostApp {
  size_t footprint_pages = 0;
  size_t cgroup_pages = 0;
  size_t accesses = 0;
  std::function<std::unique_ptr<AccessStream>()> make_stream;
};

RepResult RunHost(const std::vector<HostApp>& apps, uint64_t seed,
                  Tracer* tracer) {
  RepResult rep;
  const auto setup_start = Clock::now();
  Phase setup(tracer, "setup");

  Phase construct(tracer, "construct", setup.index());
  MachineConfig config = leap::LeapVmmConfig(kHostFrames, Derive(seed, 1));
  std::unique_ptr<TimedPolicy> policy;
  if (tracer != nullptr) {
    // The machine's own policy, built from its own params, behind a timing
    // decorator.
    policy = std::make_unique<TimedPolicy>(
        leap::MakePrefetchPolicy(
            config.prefetcher,
            leap::PolicyParams{config.leap, leap::GhbConfig{},
                               config.online_delta, config.profile_guided}),
        &tracer->on_fault, &tracer->feedback);
    config.policy_override = policy.get();
  }
  Machine machine(config);
  std::vector<Pid> pids;
  for (const HostApp& app : apps) {
    pids.push_back(machine.CreateProcess(app.cgroup_pages));
  }
  construct.End();

  Phase streams_phase(tracer, "streams", setup.index());
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<std::unique_ptr<AccessStream>> timed;
  for (const HostApp& app : apps) {
    streams.push_back(app.make_stream());
    if (tracer != nullptr) {
      timed.push_back(
          std::make_unique<TimedStream>(streams.back().get(), &tracer->next));
    }
  }
  streams_phase.End();

  const auto warm_start = Clock::now();
  SimTimeNs warm_end = 0;
  for (size_t i = 0; i < apps.size(); ++i) {
    Phase warm(tracer, "warmup", setup.index());
    warm_end = leap::WarmUp(machine, pids[i], apps[i].footprint_pages, warm_end);
  }
  rep.warmup_s = SecondsSince(warm_start);

  std::vector<leap::MultiAppSpec> specs;
  std::vector<size_t> asked;
  for (size_t i = 0; i < apps.size(); ++i) {
    RunConfig run;
    run.total_accesses = apps[i].accesses;
    run.start_time_ns = warm_end + kStartGapNs;
    run.seed = Derive(seed, 10 + i);
    AccessStream* stream =
        tracer != nullptr ? timed[i].get() : streams[i].get();
    specs.push_back({pids[i], stream, run});
    asked.push_back(apps[i].accesses);
  }
  setup.End();
  rep.setup_s = SecondsSince(setup_start);

  const auto run_start = Clock::now();
  Phase run_phase(tracer, "run");
  const std::vector<RunResult> results =
      leap::RunAppsConcurrently(machine, std::move(specs));
  run_phase.End();
  rep.run_s = SecondsSince(run_start);

  const auto stats_start = Clock::now();
  Phase stats_phase(tracer, "stats");
  Merged merged;
  for (const RunResult& r : results) {
    merged.remote.Merge(r.remote_access_latency);
    merged.miss.Merge(r.miss_latency);
  }
  merged.timeliness.Merge(machine.timeliness_hist());
  merged.alloc.Merge(machine.alloc_hist());
  merged.eviction_wait.Merge(machine.eviction_wait_hist());
  Summarize(machine.counters(), merged, results, asked,
            machine.host_agent()->MeanReadLatencyNs(), warm_end, rep);
  stats_phase.End();
  rep.stats_s = SecondsSince(stats_start);
  if (policy != nullptr) {
    tracer->candidates = policy->candidates();
  }
  return rep;
}

RepResult RunMicroScan(uint64_t seed, Tracer* tracer) {
  HostApp sequential{kMicroFootprint, kMicroFootprint / 2, kMicroAccesses,
                     [] {
                       return std::make_unique<leap::SequentialStream>(
                           kMicroFootprint, kMicroThinkNs);
                     }};
  HostApp stride{kMicroFootprint, kMicroFootprint / 2, kMicroAccesses, [] {
                   return std::make_unique<leap::StrideStream>(
                       kMicroFootprint, 10, kMicroThinkNs);
                 }};
  return RunHost({sequential, stride}, seed, tracer);
}

RepResult RunAppsKv(uint64_t seed, Tracer* tracer) {
  std::vector<HostApp> apps;
  for (size_t index : {size_t{2}, size_t{3}}) {  // VoltDB, Memcached
    const leap::AppSpec& spec = leap::kApps[index];
    const uint64_t stream_seed = Derive(seed, 20 + index);
    apps.push_back({spec.footprint_pages, spec.footprint_pages / 2,
                    kAppsAccesses, [&spec, stream_seed] {
                      return std::unique_ptr<AccessStream>(
                          spec.make(spec.footprint_pages, stream_seed));
                    }});
  }
  return RunHost(apps, seed, tracer);
}

RepResult RunClusterMix(uint64_t seed, Tracer* tracer) {
  RepResult rep;
  const auto setup_start = Clock::now();
  Phase setup(tracer, "setup");

  Phase construct(tracer, "construct", setup.index());
  leap::ClusterConfig config;
  config.hosts = kClusterHosts;
  config.nodes = kClusterHosts / kHostsPerNode;
  config.node_capacity_slabs = 4096;
  config.host = leap::LeapVmmConfig(kClusterFootprint, Derive(seed, 1));
  config.host.host_agent.slab_pages = kClusterSlabPages;
  config.placement = leap::PlacementPolicy::kPowerOfTwo;
  config.seed = Derive(seed, 2);
  leap::Cluster cluster(config);
  std::vector<Pid> pids;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    pids.push_back(cluster.host(h).CreateProcess(kClusterFootprint / 2));
  }
  construct.End();

  Phase streams_phase(tracer, "streams", setup.index());
  std::vector<std::unique_ptr<AccessStream>> streams;
  std::vector<std::unique_ptr<AccessStream>> timed;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    streams.push_back(leap::MakeClusterMixStream(h, kClusterFootprint));
    if (tracer != nullptr) {
      timed.push_back(
          std::make_unique<TimedStream>(streams.back().get(), &tracer->next));
    }
  }
  streams_phase.End();

  // Hosts warm one after another on the shared clock, as in fig18.
  const auto warm_start = Clock::now();
  SimTimeNs warm_end = 0;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    Phase warm(tracer, "warmup.host", setup.index());
    warm_end = leap::WarmUp(cluster.host(h), pids[h], kClusterFootprint,
                            warm_end);
  }
  rep.warmup_s = SecondsSince(warm_start);

  std::vector<leap::ClusterAppSpec> specs;
  std::vector<size_t> asked;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    RunConfig run;
    run.total_accesses = kClusterAccesses;
    run.start_time_ns = warm_end + kStartGapNs;
    run.seed = Derive(seed, 100 + h);
    AccessStream* stream =
        tracer != nullptr ? timed[h].get() : streams[h].get();
    specs.push_back({h, pids[h], stream, run});
    asked.push_back(kClusterAccesses);
  }
  rep.sim["events.pool_nodes_setup"] =
      static_cast<double>(cluster.events().pool_capacity());
  rep.sim["events.pending_setup"] =
      static_cast<double>(cluster.events().size());
  setup.End();
  rep.setup_s = SecondsSince(setup_start);

  const auto run_start = Clock::now();
  Phase run_phase(tracer, "run");
  const std::vector<RunResult> results = cluster.Run(std::move(specs));
  run_phase.End();
  rep.run_s = SecondsSince(run_start);

  const auto stats_start = Clock::now();
  Phase stats_phase(tracer, "stats");
  const leap::ClusterStats stats = cluster.Stats();
  Merged merged;
  uint64_t host_hist_samples = 0;
  for (size_t h = 0; h < kClusterHosts; ++h) {
    merged.remote.Merge(results[h].remote_access_latency);
    merged.miss.Merge(results[h].miss_latency);
    Machine& host = cluster.host(h);
    merged.timeliness.Merge(host.timeliness_hist());
    merged.alloc.Merge(host.alloc_hist());
    merged.eviction_wait.Merge(host.eviction_wait_hist());
    host_hist_samples += cluster.host_remote_latency(h).count();
  }
  Summarize(stats.totals, merged, results, asked,
            cluster.host(0).host_agent()->MeanReadLatencyNs(), warm_end, rep);
  stats_phase.End();
  rep.stats_s = SecondsSince(stats_start);

  AddCheck(rep, "host_histograms_match", host_hist_samples ==
                                             merged.remote.count(),
           "per-host remote histograms hold " +
               std::to_string(host_hist_samples) + " samples, apps " +
               std::to_string(merged.remote.count()));
  auto& sim = rep.sim;
  sim["events.pool_nodes_run"] =
      static_cast<double>(cluster.events().pool_capacity());
  sim["events.pending_run"] = static_cast<double>(cluster.events().size());
  sim["fabric.ops"] = static_cast<double>(stats.fabric_ops);
  sim["fabric.bytes"] = static_cast<double>(stats.fabric_bytes);
  sim["slab_imbalance"] = static_cast<double>(stats.SlabImbalance());
  for (leap::IoClass cls : {leap::IoClass::kDemandRead, leap::IoClass::kPrefetch,
                            leap::IoClass::kWriteback}) {
    sim[std::string("queue_mean_ns.") + leap::IoClassName(cls)] =
        stats.class_queue_delay_mean_ns[static_cast<size_t>(cls)];
  }
  const auto& demand =
      stats.stages.cls[static_cast<size_t>(leap::IoClass::kDemandRead)];
  sim["demand_stage.software_ns"] = demand.MeanNs(demand.software_ns);
  sim["demand_stage.queue_ns"] = demand.MeanNs(demand.queue_ns);
  sim["demand_stage.wire_ns"] = demand.MeanNs(demand.wire_ns);
  sim["demand_stage.stall_ns"] = demand.MeanNs(demand.stall_ns);
  sim["demand_stage.service_ns"] = demand.MeanNs(demand.service_ns);
  return rep;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

RepResult RunWorkload(const std::string& workload, uint64_t seed,
                      Tracer* tracer) {
  if (workload == "micro-scan") {
    return RunMicroScan(seed, tracer);
  }
  if (workload == "apps-kv") {
    return RunAppsKv(seed, tracer);
  }
  return RunClusterMix(seed, tracer);
}

}  // namespace leapbench
