//===-- tests/TelemetryTest.cpp - Observability layer ---------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer's contracts: metric primitives count
/// correctly, the registry snapshot is well-formed JSON in both pretty
/// and compact modes, trace spans balance (every B has its E) across
/// worker threads, disabled telemetry records nothing — and, the load-
/// bearing one, enabling telemetry never changes search results: Best
/// and every candidate's cycle count are bit-identical with tracing and
/// metrics on or off, in both budget modes.
///
//===----------------------------------------------------------------------===//

#include "profile/PairRunner.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace hfuse;
using namespace hfuse::telemetry;

namespace {

/// Every test leaves the process-wide registry/tracer disabled and
/// empty: other suites in this binary (and the library defaults)
/// assume telemetry off.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override { resetAll(); }
  void TearDown() override { resetAll(); }

  static void resetAll() {
    setMetricsEnabled(false);
    setTraceEnabled(false);
    MetricsRegistry::instance().reset();
    Tracer::instance().clear();
  }
};

/// Minimal structural JSON check: balanced {}/[] outside strings, no
/// trailing garbage. Not a parser, but catches the usual emitter bugs
/// (unescaped quotes, missing commas leave imbalance behind them).
bool balancedJson(const std::string &S) {
  int Depth = 0;
  bool InString = false, Escaped = false;
  for (char C : S) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (--Depth < 0)
        return false;
    }
  }
  return Depth == 0 && !InString;
}

TEST_F(TelemetryTest, CounterGaugeBasics) {
  Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  Gauge G;
  G.set(7);
  G.set(3); // last write wins
  EXPECT_EQ(G.value(), 3u);
}

TEST_F(TelemetryTest, HistogramBuckets) {
  // Bucket 0 holds value 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex(7), 3u);
  EXPECT_EQ(Histogram::bucketIndex(8), 4u);
  // The last bucket absorbs everything beyond the bounded range.
  EXPECT_EQ(Histogram::bucketIndex(1ull << 40), Histogram::NumBuckets - 1);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), Histogram::NumBuckets - 1);

  Histogram H;
  H.record(0);
  H.record(3);
  H.record(5);
  H.record(5);
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.sum(), 13u);
  EXPECT_EQ(H.max(), 5u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(2), 1u);
  EXPECT_EQ(H.bucket(3), 2u);
}

TEST_F(TelemetryTest, MacrosAreInertWhenDisabled) {
  ASSERT_FALSE(metricsOn());
  HFUSE_METRIC_ADD("test.inert_counter", 5);
  HFUSE_METRIC_GAUGE_SET("test.inert_gauge", 5);
  HFUSE_METRIC_HISTO("test.inert_histo", 5);
  // Disabled macros never touch the registry, so the names were never
  // registered at all.
  std::string Snap = MetricsRegistry::instance().snapshotJson();
  EXPECT_EQ(Snap.find("test.inert"), std::string::npos) << Snap;

  setMetricsEnabled(true);
  HFUSE_METRIC_ADD("test.inert_counter", 5);
  Snap = MetricsRegistry::instance().snapshotJson();
  EXPECT_NE(Snap.find("\"test.inert_counter\": 5"), std::string::npos)
      << Snap;
}

TEST_F(TelemetryTest, SnapshotJsonShape) {
  setMetricsEnabled(true);
  MetricsRegistry &R = MetricsRegistry::instance();
  R.counter("test.a").add(3);
  R.gauge("test.g").set(9);
  R.histogram("test.h").record(4);

  std::string Pretty = R.snapshotJson(/*Pretty=*/true);
  EXPECT_TRUE(balancedJson(Pretty)) << Pretty;
  EXPECT_NE(Pretty.find("\"counters\""), std::string::npos);
  EXPECT_NE(Pretty.find("\"test.a\": 3"), std::string::npos);
  EXPECT_NE(Pretty.find("\"test.g\": 9"), std::string::npos);
  EXPECT_NE(Pretty.find("\"count\": 1"), std::string::npos);

  // Compact mode is one line so `grep '^{'` trajectory extraction keeps
  // an embedded snapshot intact.
  std::string Compact = R.snapshotJson(/*Pretty=*/false);
  EXPECT_TRUE(balancedJson(Compact)) << Compact;
  EXPECT_EQ(Compact.find('\n'), std::string::npos);
  EXPECT_NE(Compact.find("\"test.a\":3"), std::string::npos);

  // reset() zeroes values but keeps registrations (references handed to
  // call-site statics stay valid).
  R.reset();
  std::string AfterReset = R.snapshotJson(/*Pretty=*/false);
  EXPECT_NE(AfterReset.find("\"test.a\":0"), std::string::npos);
}

TEST_F(TelemetryTest, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST_F(TelemetryTest, TraceSpanRaii) {
  // Disabled: constructing and destroying spans records nothing and
  // takes no timestamps.
  {
    TraceSpan S("cat", "quiet");
    (void)S;
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);

  setTraceEnabled(true);
  {
    TraceSpan S("cat", "loud", "{\"k\":1}");
    (void)S;
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 2u);

  // finish() ends early and is idempotent with the destructor.
  {
    TraceSpan S("cat", "early");
    S.finish();
    S.finish();
    EXPECT_EQ(Tracer::instance().eventCount(), 4u);
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 4u);

  std::vector<TraceEvent> Evs = Tracer::instance().events();
  ASSERT_EQ(Evs.size(), 4u);
  EXPECT_EQ(Evs[0].Phase, 'B');
  EXPECT_EQ(Evs[0].Name, "loud");
  EXPECT_EQ(Evs[0].Args, "{\"k\":1}");
  EXPECT_EQ(Evs[1].Phase, 'E');
  EXPECT_LE(Evs[0].TsUs, Evs[1].TsUs);
}

TEST_F(TelemetryTest, TracerThreadsBalanced) {
  setTraceEnabled(true);
  constexpr int NumThreads = 4;
  constexpr int SpansPerThread = 8;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I < SpansPerThread; ++I) {
        TraceSpan S("test", "worker-span");
        (void)S;
      }
      Tracer::instance().instant("test", "tick", "");
    });
  for (std::thread &T : Threads)
    T.join();

  std::vector<TraceEvent> Evs = Tracer::instance().events();
  size_t B = 0, E = 0, I = 0;
  std::set<uint32_t> Tids;
  for (const TraceEvent &Ev : Evs) {
    (Ev.Phase == 'B' ? B : Ev.Phase == 'E' ? E : I)++;
    Tids.insert(Ev.Tid);
  }
  EXPECT_EQ(B, size_t(NumThreads * SpansPerThread));
  EXPECT_EQ(E, B);
  EXPECT_EQ(I, size_t(NumThreads));
  // Every spawned thread gets its own dense tid.
  EXPECT_EQ(Tids.size(), size_t(NumThreads));
  EXPECT_EQ(Tracer::instance().droppedCount(), 0u);

  std::vector<SpanAgg> Agg = Tracer::instance().aggregate();
  ASSERT_EQ(Agg.size(), 1u);
  EXPECT_EQ(Agg[0].Cat, "test");
  EXPECT_EQ(Agg[0].Name, "worker-span");
  EXPECT_EQ(Agg[0].Count, uint64_t(NumThreads * SpansPerThread));

  std::string Json = Tracer::instance().json();
  EXPECT_TRUE(balancedJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"s\":\"t\""), std::string::npos); // instants
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

profile::PairRunner::Options quickOptions() {
  profile::PairRunner::Options Opts;
  Opts.Arch = gpusim::makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.2};
  Opts.Verify = false;
  // Fresh cache per run: a shared cache would serve the second run from
  // memoization and make the determinism comparison vacuous.
  Opts.Cache = std::make_shared<profile::CompileCache>();
  return Opts;
}

profile::SearchResult runQuickSearch(profile::SearchBudgetMode Budget,
                                     int Jobs) {
  profile::PairRunner::Options Opts = quickOptions();
  Opts.Budget = Budget;
  Opts.SearchJobs = Jobs;
  profile::PairRunner R(kernels::BenchKernelId::Batchnorm,
                        kernels::BenchKernelId::Hist, Opts);
  EXPECT_TRUE(R.ok()) << R.error();
  profile::SearchResult SR = R.searchBestConfig();
  EXPECT_TRUE(SR.Ok) << SR.Err;
  return SR;
}

TEST_F(TelemetryTest, SearchSpansBalancedAcrossWorkers) {
  setTraceEnabled(true);
  setMetricsEnabled(true);
  profile::SearchResult SR =
      runQuickSearch(profile::SearchBudgetMode::Incumbent, /*Jobs=*/4);

  std::vector<TraceEvent> Evs = Tracer::instance().events();
  size_t B = 0, E = 0;
  std::set<uint32_t> CandTids;
  std::set<std::string> Cats;
  for (const TraceEvent &Ev : Evs) {
    if (Ev.Phase == 'B')
      ++B;
    else if (Ev.Phase == 'E')
      ++E;
    Cats.insert(Ev.Cat);
    if (Ev.Phase == 'B' && (Ev.Cat == "simulate" || Ev.Cat == "fuse"))
      CandTids.insert(Ev.Tid);
  }
  EXPECT_EQ(B, E);
  EXPECT_EQ(Tracer::instance().droppedCount(), 0u);
  // The whole pipeline shows up: search + phases + per-candidate work
  // + simulator runs.
  for (const char *Cat : {"search", "phase", "fuse", "simulate", "sim"})
    EXPECT_TRUE(Cats.count(Cat)) << "missing category " << Cat;
  // Candidate spans landed on more than one worker thread.
  EXPECT_GE(CandTids.size(), 2u);

  // Per-candidate spans join to the table rows by canonical id.
  ASSERT_FALSE(SR.All.empty());
  for (const profile::FusionCandidate &C : SR.All)
    EXPECT_GE(C.Id, 0);
  std::string WantSpan = "c" + std::to_string(SR.Best.Id) + " ";
  bool FoundBestSpan = false;
  for (const TraceEvent &Ev : Evs)
    if (Ev.Cat == "simulate" &&
        Ev.Name.compare(0, WantSpan.size(), WantSpan) == 0)
      FoundBestSpan = true;
  EXPECT_TRUE(FoundBestSpan) << "no simulate span for best candidate "
                             << WantSpan;

  // Funnel counters mirror the canonical accounting.
  MetricsRegistry &R = MetricsRegistry::instance();
  EXPECT_EQ(R.counter("search.runs").value(), 1u);
  EXPECT_EQ(R.counter("search.candidates").value(), SR.Stats.Candidates);
  EXPECT_EQ(R.counter("search.abandoned").value(), SR.Stats.Abandoned);
  EXPECT_EQ(R.counter("search.sim_insts").value(), SR.Stats.SimulatedInsts);
  EXPECT_GT(R.counter("sim.runs").value(), 0u);

  // Followers that started while the seed ran were gated by its fence;
  // their wait is host time no layer owns, so it is exported.
  EXPECT_GT(R.histogram("search.fence_wait_ms").count(), 0u);
  bool FenceWaitArg = false;
  for (const TraceEvent &Ev : Evs)
    if (Ev.Phase == 'E' && Ev.Cat == "simulate" &&
        Ev.Args.find("\"fence_wait_ms\":") != std::string::npos)
      FenceWaitArg = true;
  EXPECT_TRUE(FenceWaitArg);
}

using BestKey = std::tuple<std::vector<int>, unsigned, uint64_t>;

BestKey bestKey(const profile::SearchResult &SR) {
  return {SR.Best.Dims, SR.Best.RegBound, SR.Best.Cycles};
}

std::map<std::pair<std::vector<int>, unsigned>, uint64_t>
candidateMap(const profile::SearchResult &SR) {
  std::map<std::pair<std::vector<int>, unsigned>, uint64_t> M;
  for (const profile::FusionCandidate &C : SR.All)
    M[{C.Dims, C.RegBound}] = C.Cycles;
  return M;
}

TEST_F(TelemetryTest, ResultsBitIdenticalWithTelemetryOnOrOff) {
  for (profile::SearchBudgetMode Budget :
       {profile::SearchBudgetMode::Off,
        profile::SearchBudgetMode::Incumbent}) {
    resetAll(); // telemetry fully off
    profile::SearchResult Off = runQuickSearch(Budget, /*Jobs=*/2);

    setTraceEnabled(true);
    setMetricsEnabled(true);
    profile::SearchResult On = runQuickSearch(Budget, /*Jobs=*/2);
    EXPECT_GT(Tracer::instance().eventCount(), 0u);
    resetAll();

    EXPECT_EQ(bestKey(Off), bestKey(On));
    EXPECT_EQ(candidateMap(Off), candidateMap(On));
    EXPECT_EQ(Off.Stats.Candidates, On.Stats.Candidates);
    EXPECT_EQ(Off.Stats.Pruned, On.Stats.Pruned);
    EXPECT_EQ(Off.Stats.Abandoned, On.Stats.Abandoned);
    EXPECT_EQ(Off.Stats.Failed, On.Stats.Failed);
    EXPECT_EQ(Off.Stats.SimulatedInsts, On.Stats.SimulatedInsts);
  }
}

} // namespace
