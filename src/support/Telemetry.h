//===-- support/Telemetry.h - Metrics registry + event tracer ----*- C++ -*-===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide observability: a lock-free-on-hot-path metrics registry
/// (named monotonic counters, gauges, bounded power-of-two histograms)
/// with JSON snapshot export, and a structured event tracer emitting
/// Chrome `trace_event` JSON (loadable in chrome://tracing / Perfetto).
///
/// Two invariants the rest of the pipeline relies on:
///
///  - **Zero overhead when disabled.** Every instrumentation site is
///    guarded by an inlined relaxed atomic load (`metricsOn()` /
///    `traceOn()`); when the flag is off no timestamp is taken, no
///    string is formatted, and no registry lookup happens. The
///    `HFUSE_METRIC_*` macros cache the registry reference in a
///    function-local static so the enabled hot path is one predictable
///    branch + one relaxed atomic RMW.
///
///  - **Write-only.** Nothing in the search or the simulator ever
///    *reads* a metric or a trace event to make a decision, so every
///    golden/equivalence/budget pin stays bit-identical with telemetry
///    on or off. Keep it that way.
///
//===----------------------------------------------------------------------===//

#ifndef HFUSE_SUPPORT_TELEMETRY_H
#define HFUSE_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hfuse {
namespace telemetry {

namespace detail {
extern std::atomic<bool> MetricsEnabled;
extern std::atomic<bool> TraceEnabled;
} // namespace detail

/// Fast guards — a single relaxed load, safe to call from any thread.
inline bool metricsOn() {
  return detail::MetricsEnabled.load(std::memory_order_relaxed);
}
inline bool traceOn() {
  return detail::TraceEnabled.load(std::memory_order_relaxed);
}

void setMetricsEnabled(bool On);
void setTraceEnabled(bool On);

/// Monotonic counter. add() is a relaxed fetch_add — no lock.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins gauge (e.g. a progress heartbeat).
class Gauge {
public:
  void set(uint64_t N) { V.store(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Bounded histogram over power-of-two buckets: bucket 0 holds value 0,
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i); the last bucket
/// absorbs everything above. record() is a handful of relaxed atomics.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 24;

  void record(uint64_t Value);
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucket(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Index of the bucket \p Value falls into (exposed for tests).
  static unsigned bucketIndex(uint64_t Value);
  void reset();

private:
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Process-wide named-metric registry. Registration (first lookup of a
/// name) takes a mutex; the returned reference is stable for the
/// process lifetime, so hot sites look up once and cache it.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Point-in-time JSON snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,max,buckets}}}. Names sort
  /// lexicographically so output is deterministic. \p Pretty selects
  /// indented multi-line (for `--metrics FILE`) vs. single-line
  /// compact (for embedding in bench JSON rows).
  std::string snapshotJson(bool Pretty = true) const;

  /// Zeroes every registered metric (references stay valid) — test hook.
  void reset();

private:
  MetricsRegistry() = default;
  struct Impl;
  Impl &impl() const;
};

/// One recorded trace event (Chrome trace_event phases B/E/i).
struct TraceEvent {
  char Phase;
  uint32_t Tid;
  uint64_t TsUs; ///< microseconds since the tracer epoch
  std::string Cat;
  std::string Name;
  std::string Args; ///< pre-rendered JSON object text, or empty
};

/// Aggregated span statistics for one (category, name) pair.
struct SpanAgg {
  std::string Cat;
  std::string Name;
  uint64_t Count = 0;
  uint64_t TotalUs = 0;
};

/// Process-wide event collector. Appends are mutex-serialized (spans
/// are coarse — per candidate / per store op — so contention is cold);
/// the buffer is bounded and drops-with-count once full.
class Tracer {
public:
  static Tracer &instance();

  /// Small dense id for the calling thread (0 = first thread seen).
  static uint32_t currentThreadId();

  /// Microseconds since the tracer epoch (clear() re-bases it).
  uint64_t nowUs() const;

  void begin(uint64_t TsUs, std::string Cat, std::string Name,
             std::string Args);
  /// \p Args (optional) are merged into the span's args by trace
  /// viewers.
  void end(uint64_t TsUs, std::string Cat, std::string Name,
           std::string Args = std::string());
  /// Instant event stamped at call time.
  void instant(std::string Cat, std::string Name, std::string Args);

  /// {"traceEvents":[...]} — loadable by chrome://tracing / Perfetto.
  std::string json() const;
  bool writeFile(const std::string &Path, std::string *Err = nullptr) const;

  /// Matches B/E pairs per thread and sums durations per (cat, name).
  /// Unmatched begins are ignored. Rows sort by (cat, name).
  std::vector<SpanAgg> aggregate() const;

  size_t eventCount() const;
  uint64_t droppedCount() const;
  std::vector<TraceEvent> events() const; ///< copy, for tests
  void clear();                           ///< drop events, re-base epoch

private:
  Tracer();
  struct Impl;
  Impl &impl() const;
};

/// RAII span. The default constructor arms nothing; beginSpan() (or the
/// convenience constructors, which check traceOn() themselves) stamps a
/// B event and the destructor stamps the matching E. Neither timestamp
/// is taken when tracing is off.
class TraceSpan {
public:
  TraceSpan() = default;
  TraceSpan(const char *Cat, std::string Name) {
    if (traceOn())
      beginSpan(Cat, std::move(Name), std::string());
  }
  TraceSpan(const char *Cat, std::string Name, std::string Args) {
    if (traceOn())
      beginSpan(Cat, std::move(Name), std::move(Args));
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan() {
    if (Active)
      endSpan();
  }

  /// Arms the span unconditionally — call only under `if (traceOn())`.
  void beginSpan(const char *CatIn, std::string NameIn, std::string ArgsIn);

  /// Ends the span now instead of at scope exit (idempotent; the
  /// destructor then does nothing). For phase spans that end mid-scope.
  void finish() {
    if (Active)
      endSpan();
    Active = false;
  }
  /// Args known only once the span's work is done (a JSON object),
  /// emitted on its end event.
  void setEndArgs(std::string ArgsIn) { EndArgs = std::move(ArgsIn); }

private:
  void endSpan();
  bool Active = false;
  std::string Cat;
  std::string Name;
  std::string EndArgs;
};

/// Escapes \p S for inclusion inside a JSON string literal.
std::string jsonEscape(std::string_view S);

} // namespace telemetry
} // namespace hfuse

/// Count \p Amount against counter \p NameLiteral iff metrics are on.
/// The registry reference is resolved once per call site.
#define HFUSE_METRIC_ADD(NameLiteral, Amount)                                  \
  do {                                                                         \
    if (::hfuse::telemetry::metricsOn()) {                                     \
      static ::hfuse::telemetry::Counter &HfuseMetricCounter =                 \
          ::hfuse::telemetry::MetricsRegistry::instance().counter(             \
              NameLiteral);                                                    \
      HfuseMetricCounter.add(Amount);                                          \
    }                                                                          \
  } while (0)

#define HFUSE_METRIC_GAUGE_SET(NameLiteral, Value)                             \
  do {                                                                         \
    if (::hfuse::telemetry::metricsOn()) {                                     \
      static ::hfuse::telemetry::Gauge &HfuseMetricGauge =                     \
          ::hfuse::telemetry::MetricsRegistry::instance().gauge(NameLiteral);  \
      HfuseMetricGauge.set(Value);                                             \
    }                                                                          \
  } while (0)

#define HFUSE_METRIC_HISTO(NameLiteral, Value)                                 \
  do {                                                                         \
    if (::hfuse::telemetry::metricsOn()) {                                     \
      static ::hfuse::telemetry::Histogram &HfuseMetricHisto =                 \
          ::hfuse::telemetry::MetricsRegistry::instance().histogram(           \
              NameLiteral);                                                    \
      HfuseMetricHisto.record(Value);                                          \
    }                                                                          \
  } while (0)

#endif // HFUSE_SUPPORT_TELEMETRY_H
