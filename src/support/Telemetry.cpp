//===-- support/Telemetry.cpp - Metrics registry + event tracer -----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include <unistd.h>

using namespace hfuse;
using namespace hfuse::telemetry;

std::atomic<bool> detail::MetricsEnabled{false};
std::atomic<bool> detail::TraceEnabled{false};

void telemetry::setMetricsEnabled(bool On) {
  detail::MetricsEnabled.store(On, std::memory_order_relaxed);
}

void telemetry::setTraceEnabled(bool On) {
  detail::TraceEnabled.store(On, std::memory_order_relaxed);
}

std::string telemetry::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

unsigned Histogram::bucketIndex(uint64_t Value) {
  if (Value == 0)
    return 0;
  // bucket i (i >= 1) holds [2^(i-1), 2^i): i == bit_width(Value).
  unsigned Width = 64u - static_cast<unsigned>(__builtin_clzll(Value));
  return Width < NumBuckets ? Width : NumBuckets - 1;
}

void Histogram::record(uint64_t Value) {
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Value, std::memory_order_relaxed);
  Buckets[bucketIndex(Value)].fetch_add(1, std::memory_order_relaxed);
  uint64_t Prev = Max.load(std::memory_order_relaxed);
  while (Prev < Value &&
         !Max.compare_exchange_weak(Prev, Value, std::memory_order_relaxed))
    ;
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

struct MetricsRegistry::Impl {
  mutable std::mutex Mu;
  // std::map: lexicographic iteration keeps snapshots deterministic.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

MetricsRegistry::Impl &MetricsRegistry::impl() const {
  // Leaked on purpose: metric references handed to call-site statics
  // must outlive every other static destructor.
  static Impl *I = new Impl();
  return *I;
}

MetricsRegistry &MetricsRegistry::instance() {
  static MetricsRegistry *R = new MetricsRegistry();
  return *R;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto &Slot = I.Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto &Slot = I.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  auto &Slot = I.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

void MetricsRegistry::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (auto &KV : I.Counters)
    KV.second->reset();
  for (auto &KV : I.Gauges)
    KV.second->reset();
  for (auto &KV : I.Histograms)
    KV.second->reset();
}

namespace {

void appendUint(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  Out += Buf;
}

} // namespace

std::string MetricsRegistry::snapshotJson(bool Pretty) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  const char *NL = Pretty ? "\n" : "";
  const char *Ind1 = Pretty ? "  " : "";
  const char *Ind2 = Pretty ? "    " : "";
  const char *Sp = Pretty ? " " : "";

  std::string Out = "{";
  Out += NL;

  auto Section = [&](const char *Title, auto &Map, auto &&Emit,
                     bool Last = false) {
    Out += Ind1;
    Out += '"';
    Out += Title;
    Out += "\":";
    Out += Sp;
    Out += '{';
    Out += NL;
    bool First = true;
    for (auto &KV : Map) {
      if (!First) {
        Out += ',';
        Out += NL;
      }
      First = false;
      Out += Ind2;
      Out += '"';
      Out += jsonEscape(KV.first);
      Out += "\":";
      Out += Sp;
      Emit(*KV.second);
    }
    Out += NL;
    Out += Ind1;
    Out += '}';
    if (!Last)
      Out += ',';
    Out += NL;
  };

  Section("counters", I.Counters,
          [&](const Counter &C) { appendUint(Out, C.value()); });
  Section("gauges", I.Gauges,
          [&](const Gauge &G) { appendUint(Out, G.value()); });
  Section(
      "histograms", I.Histograms,
      [&](const Histogram &H) {
        Out += "{\"count\":";
        Out += Sp;
        appendUint(Out, H.count());
        Out += ",";
        Out += Sp;
        Out += "\"sum\":";
        Out += Sp;
        appendUint(Out, H.sum());
        Out += ",";
        Out += Sp;
        Out += "\"max\":";
        Out += Sp;
        appendUint(Out, H.max());
        Out += ",";
        Out += Sp;
        Out += "\"buckets\":";
        Out += Sp;
        Out += '[';
        for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
          if (B)
            Out += ',';
          appendUint(Out, H.bucket(B));
        }
        Out += "]}";
      },
      /*Last=*/true);

  Out += '}';
  if (Pretty)
    Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

struct Tracer::Impl {
  // Bounded buffer: a 16-pair DL sweep is ~10^4 spans; the cap only
  // exists so a runaway caller degrades to drop-with-count, not OOM.
  static constexpr size_t MaxEvents = 1u << 20;
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  uint64_t Dropped = 0;

  void push(TraceEvent E) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Events.size() >= MaxEvents) {
      ++Dropped;
      return;
    }
    Events.push_back(std::move(E));
  }
};

Tracer::Impl &Tracer::impl() const {
  static Impl *I = new Impl();
  return *I;
}

Tracer::Tracer() = default;

Tracer &Tracer::instance() {
  static Tracer *T = new Tracer();
  return *T;
}

uint32_t Tracer::currentThreadId() {
  static std::atomic<uint32_t> NextTid{0};
  thread_local uint32_t Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

uint64_t Tracer::nowUs() const {
  auto Delta = std::chrono::steady_clock::now() - impl().Epoch;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Delta).count());
}

void Tracer::begin(uint64_t TsUs, std::string Cat, std::string Name,
                   std::string Args) {
  impl().push(TraceEvent{'B', currentThreadId(), TsUs, std::move(Cat),
                         std::move(Name), std::move(Args)});
}

void Tracer::end(uint64_t TsUs, std::string Cat, std::string Name,
                 std::string Args) {
  impl().push(TraceEvent{'E', currentThreadId(), TsUs, std::move(Cat),
                         std::move(Name), std::move(Args)});
}

void Tracer::instant(std::string Cat, std::string Name, std::string Args) {
  impl().push(TraceEvent{'i', currentThreadId(), nowUs(), std::move(Cat),
                         std::move(Name), std::move(Args)});
}

size_t Tracer::eventCount() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Events.size();
}

uint64_t Tracer::droppedCount() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Dropped;
}

std::vector<TraceEvent> Tracer::events() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  return I.Events;
}

void Tracer::clear() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  I.Events.clear();
  I.Dropped = 0;
  I.Epoch = std::chrono::steady_clock::now();
}

std::string Tracer::json() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  std::string Out = "{\"traceEvents\":[\n";
  const int Pid = static_cast<int>(::getpid());
  bool First = true;
  for (const TraceEvent &E : I.Events) {
    if (!First)
      Out += ",\n";
    First = false;
    char Head[96];
    std::snprintf(Head, sizeof(Head),
                  "{\"ph\":\"%c\",\"pid\":%d,\"tid\":%u,\"ts\":%llu", E.Phase,
                  Pid, E.Tid, static_cast<unsigned long long>(E.TsUs));
    Out += Head;
    // Instant events are scoped to their thread so Perfetto draws them
    // on the emitting track.
    if (E.Phase == 'i')
      Out += ",\"s\":\"t\"";
    Out += ",\"cat\":\"";
    Out += jsonEscape(E.Cat);
    Out += "\",\"name\":\"";
    Out += jsonEscape(E.Name);
    Out += '"';
    if (!E.Args.empty()) {
      Out += ",\"args\":";
      Out += E.Args; // pre-rendered JSON object text
    }
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

bool Tracer::writeFile(const std::string &Path, std::string *Err) const {
  std::string Body = json();
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t Written = std::fwrite(Body.data(), 1, Body.size(), F);
  bool WroteAll = Written == Body.size();
  bool Closed = std::fclose(F) == 0;
  if (!WroteAll || !Closed) {
    if (Err)
      *Err = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

std::vector<SpanAgg> Tracer::aggregate() const {
  std::vector<TraceEvent> Evs = events();
  std::map<uint32_t, std::vector<const TraceEvent *>> Stacks;
  std::map<std::pair<std::string, std::string>, SpanAgg> Agg;
  for (const TraceEvent &E : Evs) {
    if (E.Phase == 'B') {
      Stacks[E.Tid].push_back(&E);
    } else if (E.Phase == 'E') {
      auto &Stack = Stacks[E.Tid];
      // Pop until the matching begin; tolerate mismatches (e.g. a span
      // still open when the snapshot was taken).
      while (!Stack.empty()) {
        const TraceEvent *B = Stack.back();
        Stack.pop_back();
        if (B->Cat == E.Cat && B->Name == E.Name) {
          SpanAgg &A = Agg[{B->Cat, B->Name}];
          A.Cat = B->Cat;
          A.Name = B->Name;
          A.Count += 1;
          A.TotalUs += E.TsUs >= B->TsUs ? E.TsUs - B->TsUs : 0;
          break;
        }
      }
    }
  }
  std::vector<SpanAgg> Rows;
  Rows.reserve(Agg.size());
  for (auto &KV : Agg)
    Rows.push_back(std::move(KV.second));
  return Rows;
}

//===----------------------------------------------------------------------===//
// TraceSpan
//===----------------------------------------------------------------------===//

void TraceSpan::beginSpan(const char *CatIn, std::string NameIn,
                          std::string ArgsIn) {
  Active = true;
  Cat = CatIn;
  Name = NameIn;
  Tracer &T = Tracer::instance();
  T.begin(T.nowUs(), Cat, std::move(NameIn), std::move(ArgsIn));
}

void TraceSpan::endSpan() {
  Tracer &T = Tracer::instance();
  T.end(T.nowUs(), std::move(Cat), std::move(Name), std::move(EndArgs));
  Active = false;
}
