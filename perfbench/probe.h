// Wall-clock instrumentation the traced run wraps around the library's
// public entry points. Nothing here is compiled into the simulator: the
// benchmark times calls into each module from outside, through
// decorators (a stream, a prefetch policy) and coarse phase spans.
//
// Two kinds of record, because per-call spans would cost more than the
// calls they time:
//  - Span: one coarse phase (construct, warm-up, run, stats) with its
//    parent, kept in memory and written out when the benchmark ends.
//  - Probe: count, total and histogram of one per-call boundary
//    (AccessStream::Next, PrefetchPolicy::OnFault, ...).
#ifndef LEAP_PERFBENCH_PROBE_H_
#define LEAP_PERFBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/prefetch/prefetcher.h"
#include "src/stats/histogram.h"
#include "src/workload/access_stream.h"

namespace leapbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Count, total and distribution of one per-call boundary.
struct Probe {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  leap::Histogram hist;

  void Add(uint64_t ns) {
    ++calls;
    total_ns += ns;
    hist.Record(ns);
  }
};

// Cost of timing one call, measured on empty calls before a traced run.
// `inside_ns` is the part a probe's own reading includes (it is subtracted
// to get a call's self time); `outside_ns` is the rest, which lands in the
// caller's time.
struct TimerCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

inline TimerCost CalibrateTimer() {
  constexpr uint64_t kCalls = 200'000;
  Probe probe;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < kCalls; ++i) {
    const auto call = Clock::now();
    probe.Add(NsBetween(call, Clock::now()));
  }
  const double per_call =
      static_cast<double>(NsBetween(start, Clock::now())) / kCalls;
  TimerCost cost;
  cost.inside_ns = static_cast<double>(probe.total_ns) / kCalls;
  cost.outside_ns = per_call > cost.inside_ns ? per_call - cost.inside_ns : 0;
  return cost;
}

// Self time of a probe's calls in ns: its total minus the timer cost its
// readings include.
inline double ProbeSelfNs(const Probe& probe, const TimerCost& cost) {
  const double self = static_cast<double>(probe.total_ns) -
                      cost.inside_ns * static_cast<double>(probe.calls);
  return self > 0.0 ? self : 0.0;
}

// One coarse phase of one repetition.
struct Span {
  std::string name;
  int rep = 0;
  int parent = -1;  // index into the same SpanLog, -1 for a root
  double start_s = 0.0;
  double end_s = 0.0;
};

// In-memory span list; times are seconds since the log's origin.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Begin(std::string name, int rep, int parent) {
    spans_.push_back({std::move(name), rep, parent, Now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { spans_[index].end_s = Now(); }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Now() const { return SecondsSince(origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times every AccessStream::Next of the wrapped stream.
class TimedStream : public leap::AccessStream {
 public:
  TimedStream(leap::AccessStream* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  leap::MemOp Next(leap::Rng& rng) override {
    const auto start = Clock::now();
    const leap::MemOp op = inner_->Next(rng);
    probe_->Add(NsBetween(start, Clock::now()));
    return op;
  }
  size_t footprint_pages() const override { return inner_->footprint_pages(); }
  std::string name() const override { return inner_->name(); }

 private:
  leap::AccessStream* inner_;
  Probe* probe_;
};

// Times the wrapped policy: OnFault (with the candidates it returns) on
// its own probe, and every feedback callback on a second one.
class TimedPolicy : public leap::PrefetchPolicy {
 public:
  TimedPolicy(std::unique_ptr<leap::PrefetchPolicy> inner, Probe* on_fault,
              Probe* feedback)
      : inner_(std::move(inner)), on_fault_(on_fault), feedback_(feedback) {}

  leap::CandidateVec OnFault(const leap::FaultContext& ctx) override {
    const auto start = Clock::now();
    leap::CandidateVec out = inner_->OnFault(ctx);
    on_fault_->Add(NsBetween(start, Clock::now()));
    candidates_ += out.size();
    return out;
  }
  void OnCacheAccess(leap::Pid pid, leap::SwapSlot slot) override {
    const auto start = Clock::now();
    inner_->OnCacheAccess(pid, slot);
    feedback_->Add(NsBetween(start, Clock::now()));
  }
  void OnPrefetchIssued(leap::Pid pid, leap::SwapSlot slot,
                        leap::SimTimeNs now) override {
    const auto start = Clock::now();
    inner_->OnPrefetchIssued(pid, slot, now);
    feedback_->Add(NsBetween(start, Clock::now()));
  }
  void OnPrefetchComplete(leap::Pid pid, leap::SwapSlot slot,
                          leap::SimTimeNs latency) override {
    const auto start = Clock::now();
    inner_->OnPrefetchComplete(pid, slot, latency);
    feedback_->Add(NsBetween(start, Clock::now()));
  }
  void OnPrefetchHit(leap::Pid pid, leap::SwapSlot slot,
                     leap::SimTimeNs timeliness) override {
    const auto start = Clock::now();
    inner_->OnPrefetchHit(pid, slot, timeliness);
    feedback_->Add(NsBetween(start, Clock::now()));
  }
  void OnPrefetchDropped(leap::Pid pid, leap::SwapSlot slot) override {
    const auto start = Clock::now();
    inner_->OnPrefetchDropped(pid, slot);
    feedback_->Add(NsBetween(start, Clock::now()));
  }
  std::string_view name() const override { return inner_->name(); }

  uint64_t candidates() const { return candidates_; }

 private:
  std::unique_ptr<leap::PrefetchPolicy> inner_;
  Probe* on_fault_;
  Probe* feedback_;
  uint64_t candidates_ = 0;
};

}  // namespace leapbench

#endif  // LEAP_PERFBENCH_PROBE_H_
