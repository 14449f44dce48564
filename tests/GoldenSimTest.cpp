//===-- tests/GoldenSimTest.cpp - Event-driven core golden tests ----------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the event-driven simulator core to the pre-refactor
/// scan-every-warp simulator, bit for bit. Every constant below was
/// captured by running the seed simulator (commit ec524d1) on the same
/// workloads:
///
///  - all 16 paper pairs: native, even-split hfused, and Figure 6
///    register-bounded cycles and issued-instruction counts;
///  - the five benchmark triples' Best launches (three-kernel fusion);
///  - micro-kernels stressing the paths the refactor touched —
///    intra-warp divergence (the convergent fast path's fallback),
///    barrier phases, and shared-atomic replays — including a
///    functional memory checksum;
///  - full-stats metrics (stall-reason shares, occupancy, utilization,
///    sector traffic), the L2 model (sector first-touch order), the
///    V100 split-pipe arch, and the round-robin scheduler policy.
///
/// It also asserts StatsLevel::Minimal reproduces the same cycle
/// counts as Full, and that the Figure 6 sweep (which profiles every
/// candidate at Full) hands back a Best with complete metrics.
///
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "gpusim/Simulator.h"
#include "ir/RegAlloc.h"
#include "profile/PairRunner.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;
using namespace hfuse::profile;

namespace {

/// One compilation cache across all golden tests (kernels repeat).
std::shared_ptr<CompileCache> testCache() {
  static std::shared_ptr<CompileCache> Cache =
      std::make_shared<CompileCache>();
  return Cache;
}

PairRunner::Options goldenOptions() {
  PairRunner::Options Opts;
  Opts.Arch = makeGTX1080Ti();
  Opts.SimSMs = 2;
  Opts.Scales = {0.25};
  Opts.Verify = false;
  Opts.Cache = testCache();
  return Opts;
}

/// Seed-simulator cycle/issue counts, captured at SimSMs=2, scale 0.25,
/// GTX 1080 Ti, default stats. HFused is the even split; Bounded is the
/// even split under the Figure 6 register bound R0 (0 = no bound
/// existed).
struct PairGolden {
  const char *A;
  const char *B;
  uint64_t NativeCycles, NativeIssued;
  uint64_t HFusedCycles, HFusedIssued;
  unsigned R0;
  uint64_t BoundedCycles, BoundedIssued;
};

const PairGolden PairGoldens[] = {
    {"Batchnorm", "Upsample", 122366ull, 700544ull, 247151ull, 895872ull, 32, 172213ull, 994880ull},
    {"Batchnorm", "Hist", 112547ull, 396928ull, 235313ull, 594048ull, 32, 210762ull, 802752ull},
    {"Batchnorm", "Im2Col", 120729ull, 780896ull, 244218ull, 975360ull, 32, 167886ull, 1054784ull},
    {"Batchnorm", "Maxpool", 125874ull, 461696ull, 239797ull, 658432ull, 32, 159047ull, 728768ull},
    {"Hist", "Im2Col", 103079ull, 475104ull, 131683ull, 528768ull, 32, 104297ull, 587936ull},
    {"Hist", "Maxpool", 106484ull, 155904ull, 141760ull, 211840ull, 32, 95694ull, 262272ull},
    {"Hist", "Upsample", 100354ull, 394752ull, 192935ull, 449280ull, 32, 129106ull, 534272ull},
    {"Im2Col", "Maxpool", 117461ull, 539872ull, 163606ull, 593152ull, 32, 120344ull, 679136ull},
    {"Im2Col", "Upsample", 113576ull, 778720ull, 213015ull, 830592ull, 32, 150160ull, 945248ull},
    {"Maxpool", "Upsample", 121336ull, 459520ull, 200686ull, 513664ull, 32, 140708ull, 615040ull},
    {"Blake2B", "Ethash", 658471ull, 1817472ull, 903184ull, 1832832ull, 64, 1673353ull, 4341120ull},
    {"Blake256", "Ethash", 447512ull, 2234880ull, 333636ull, 2250240ull, 32, 1082329ull, 5649024ull},
    {"Ethash", "SHA256", 471223ull, 2339328ull, 326138ull, 2354688ull, 32, 1204641ull, 6248064ull},
    {"Blake256", "Blake2B", 738347ull, 3722880ull, 972096ull, 3738240ull, 64, 1741806ull, 6221184ull},
    {"Blake256", "SHA256", 530805ull, 4244736ull, 537576ull, 4260096ull, 32, 1945905ull, 11501184ull},
    {"Blake2B", "SHA256", 762750ull, 3827328ull, 989664ull, 3842688ull, 64, 1757064ull, 6336000ull},
};

std::unique_ptr<ir::IRKernel> compileMicro(const char *Source) {
  DiagnosticEngine Diags;
  auto Pre = transform::parseAndPreprocess(Source, "", Diags);
  EXPECT_NE(Pre, nullptr) << Diags.str();
  if (!Pre)
    return nullptr;
  auto K = codegen::compileKernel(Pre->Kernel, Diags);
  EXPECT_NE(K, nullptr) << Diags.str();
  if (!K)
    return nullptr;
  ir::RegAllocResult RA = ir::allocateRegisters(*K, 0);
  EXPECT_TRUE(RA.Ok) << RA.Error;
  return K;
}

/// Heavy intra-warp divergence: four-way branch per element plus a
/// lane-dependent inner loop — the convergent fast path must fall back
/// and reconverge without perturbing timing or results.
const char *DivergentSrc =
    "__global__ void diverge(int *a, int n) {\n"
    "  int tid = (int)(blockIdx.x * blockDim.x + threadIdx.x);\n"
    "  int acc = 0;\n"
    "  for (int i = tid; i < n; i += (int)(gridDim.x * blockDim.x)) {\n"
    "    if ((i & 3) == 0) acc += i * 3;\n"
    "    else if ((i & 3) == 1) { for (int j = 0; j < (i & 15); j++) acc += j; }\n"
    "    else if ((i & 3) == 2) acc ^= a[i];\n"
    "    else acc -= i;\n"
    "  }\n"
    "  a[tid] = acc;\n"
    "}\n";

/// Barrier phases: repeated full-block __syncthreads with shared-memory
/// rotation across 20 rounds.
const char *BarrierSrc =
    "__global__ void barheavy(int *a) {\n"
    "  __shared__ int s[256];\n"
    "  s[threadIdx.x] = (int)threadIdx.x;\n"
    "  for (int r = 0; r < 20; r++) {\n"
    "    __syncthreads();\n"
    "    int v = s[(threadIdx.x + 7u) % 256u];\n"
    "    __syncthreads();\n"
    "    s[threadIdx.x] = v + r;\n"
    "  }\n"
    "  __syncthreads();\n"
    "  a[blockIdx.x * blockDim.x + threadIdx.x] = s[threadIdx.x];\n"
    "}\n";

/// Shared-atomic replays: 17-way bank conflicts through atomicAdd.
const char *AtomicSrc =
    "__global__ void atomheavy(unsigned int *a, int n) {\n"
    "  __shared__ unsigned int s[64];\n"
    "  if (threadIdx.x < 64u) s[threadIdx.x] = 0u;\n"
    "  __syncthreads();\n"
    "  for (int i = (int)(blockIdx.x * blockDim.x + threadIdx.x); i < n;\n"
    "       i += (int)(gridDim.x * blockDim.x))\n"
    "    atomicAdd(&s[i % 17], (unsigned int)i);\n"
    "  __syncthreads();\n"
    "  if (threadIdx.x < 64u) atomicAdd(&a[threadIdx.x], s[threadIdx.x]);\n"
    "}\n";

struct MicroGolden {
  const char *Name;
  const char *Src;
  int Grid, Block, N;
  uint64_t Cycles, Issued, MemChecksum;
};

const MicroGolden MicroGoldens[] = {
    {"divergent", DivergentSrc, 8, 128, 8192, 20221ull, 68288ull,
     17796690471940075008ull},
    {"barrier", BarrierSrc, 6, 256, 0, 7755ull, 30288ull,
     15696446943853950976ull},
    {"atomic", AtomicSrc, 8, 128, 8192, 4725ull, 7888ull,
     4243135386600032176ull},
};

struct MicroResult {
  SimResult R;
  uint64_t Checksum = 0;
};

MicroResult runMicro(const MicroGolden &G, StatsLevel Level,
                     uint64_t CycleBudget = 0) {
  MicroResult Out;
  auto K = compileMicro(G.Src);
  if (!K)
    return Out;
  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 2;
  Simulator Sim(SC);
  uint64_t A = Sim.allocGlobal(16384 * 4);
  for (int I = 0; I < 16384; ++I) {
    uint32_t V = 2654435761u * static_cast<unsigned>(I);
    std::memcpy(Sim.globalMem().data() + A + I * 4, &V, 4);
  }
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = G.Grid;
  L.BlockDim = G.Block;
  L.Params = {A};
  if (G.N)
    L.Params.push_back(static_cast<uint64_t>(G.N));
  Out.R = Sim.run({L}, Level, RunBudget::fixed(CycleBudget));
  if (!Out.R.Ok)
    return Out;
  uint64_t Sum = 0;
  for (int I = 0; I < 16384; ++I) {
    uint32_t V;
    std::memcpy(&V, Sim.globalMem().data() + A + I * 4, 4);
    Sum = Sum * 1099511628211ull + V;
  }
  Out.Checksum = Sum;
  return Out;
}

TEST(GoldenSim, MicroKernelsMatchSeedAtBothStatsLevels) {
  for (const MicroGolden &G : MicroGoldens) {
    for (StatsLevel Level : {StatsLevel::Full, StatsLevel::Minimal}) {
      MicroResult M = runMicro(G, Level);
      ASSERT_TRUE(M.R.Ok) << G.Name << ": " << M.R.Error;
      EXPECT_EQ(M.R.TotalCycles, G.Cycles) << G.Name;
      EXPECT_EQ(M.R.TotalIssued, G.Issued) << G.Name;
      EXPECT_EQ(M.Checksum, G.MemChecksum) << G.Name;
    }
  }
}

TEST(GoldenSim, DivergentKernelComputesCorrectValues) {
  // Independent functional check of the divergence fallback: replay the
  // kernel's arithmetic on the CPU.
  const MicroGolden &G = MicroGoldens[0];
  auto K = compileMicro(G.Src);
  ASSERT_NE(K, nullptr);
  SimConfig SC;
  SC.Arch = makeGTX1080Ti();
  SC.SimSMs = 2;
  Simulator Sim(SC);
  uint64_t A = Sim.allocGlobal(16384 * 4);
  std::vector<int32_t> Init(16384);
  for (int I = 0; I < 16384; ++I) {
    Init[I] = static_cast<int32_t>(2654435761u * static_cast<unsigned>(I));
    std::memcpy(Sim.globalMem().data() + A + I * 4, &Init[I], 4);
  }
  KernelLaunch L;
  L.Kernel = K.get();
  L.GridDim = G.Grid;
  L.BlockDim = G.Block;
  L.Params = {A, static_cast<uint64_t>(G.N)};
  SimResult R = Sim.run({L});
  ASSERT_TRUE(R.Ok) << R.Error;
  int Threads = G.Grid * G.Block;
  for (int Tid = 0; Tid < Threads; ++Tid) {
    int32_t Acc = 0;
    for (int I = Tid; I < G.N; I += Threads) {
      if ((I & 3) == 0)
        Acc += I * 3;
      else if ((I & 3) == 1)
        for (int J = 0; J < (I & 15); ++J)
          Acc += J;
      else if ((I & 3) == 2)
        Acc ^= Init[I];
      else
        Acc -= I;
    }
    int32_t Got;
    std::memcpy(&Got, Sim.globalMem().data() + A + Tid * 4, 4);
    ASSERT_EQ(Got, Acc) << "thread " << Tid;
  }
}

TEST(GoldenSim, PaperPairsMatchSeedSimulator) {
  for (const PairGolden &G : PairGoldens) {
    auto IdA = kernelIdByName(G.A);
    auto IdB = kernelIdByName(G.B);
    ASSERT_TRUE(IdA && IdB) << G.A << "+" << G.B;
    PairRunner Runner(*IdA, *IdB, goldenOptions());
    ASSERT_TRUE(Runner.ok()) << Runner.error();

    SimResult N = Runner.runNative();
    ASSERT_TRUE(N.Ok) << N.Error;
    EXPECT_EQ(N.TotalCycles, G.NativeCycles) << G.A << "+" << G.B;
    EXPECT_EQ(N.TotalIssued, G.NativeIssued) << G.A << "+" << G.B;

    bool Tunable =
        kernelHasTunableBlockDim(*IdA) && kernelHasTunableBlockDim(*IdB);
    int D = (Tunable ? 1024 : 512) / 2;
    SimResult H = Runner.runHFused({D, D}, 0);
    ASSERT_TRUE(H.Ok) << H.Error;
    EXPECT_EQ(H.TotalCycles, G.HFusedCycles) << G.A << "+" << G.B;
    EXPECT_EQ(H.TotalIssued, G.HFusedIssued) << G.A << "+" << G.B;

    auto R0 = Runner.regBound({D, D});
    EXPECT_EQ(R0 ? *R0 : 0u, G.R0) << G.A << "+" << G.B;
    if (R0 && G.BoundedCycles) {
      SimResult HB = Runner.runHFused({D, D}, *R0);
      ASSERT_TRUE(HB.Ok) << HB.Error;
      EXPECT_EQ(HB.TotalCycles, G.BoundedCycles) << G.A << "+" << G.B;
      EXPECT_EQ(HB.TotalIssued, G.BoundedIssued) << G.A << "+" << G.B;
    }
  }
}

TEST(GoldenSim, NWayTriplesMatchGoldenBest) {
  // The nway-cold benchmark triples' Best launches (benchmark/golden.json),
  // captured at these options. They pin the three-kernel fused source:
  // its prologue declaration order alone moves the DL triples' cycles.
  struct NWayGolden {
    std::vector<const char *> Names;
    std::vector<int> Dims;
    unsigned RegBound;
    uint64_t Cycles, Issued;
  };
  const NWayGolden Goldens[] = {
      {{"Batchnorm", "Hist", "Im2Col"}, {256, 128, 128}, 32, 177569ull, 1026688ull},
      {{"Batchnorm", "Hist", "Maxpool"}, {256, 128, 128}, 32, 196132ull, 779200ull},
      {{"Batchnorm", "Im2Col", "Maxpool"}, {128, 128, 128}, 34, 171247ull, 860384ull},
      {{"Hist", "Im2Col", "Maxpool"}, {128, 384, 512}, 32, 130809ull, 756256ull},
      {{"Blake256", "SHA256", "Ethash"}, {256, 256, 256}, 0, 667115ull, 4448256ull},
  };
  for (const NWayGolden &G : Goldens) {
    std::vector<BenchKernelId> Ids;
    for (const char *Name : G.Names)
      Ids.push_back(*kernelIdByName(Name));
    NWayRunner Runner(Ids, goldenOptions());
    ASSERT_TRUE(Runner.ok()) << Runner.error();
    SimResult H = Runner.runHFused(G.Dims, G.RegBound);
    ASSERT_TRUE(H.Ok) << H.Error;
    EXPECT_EQ(H.TotalCycles, G.Cycles) << G.Names[0] << "+" << G.Names[1]
                                       << "+" << G.Names[2];
    EXPECT_EQ(H.TotalIssued, G.Issued) << G.Names[0] << "+" << G.Names[1]
                                       << "+" << G.Names[2];
  }
}

TEST(GoldenSim, FullStatsMetricsMatchSeed) {
  struct StatsGolden {
    const char *A, *B;
    double Util, MemStall, Occ;
    double Stalls[6];
    uint64_t K0Sectors;
  };
  const StatsGolden Goldens[] = {
      {"Batchnorm", "Hist", 31.5562676095, 41.9709972996, 27.5689088841,
       {31.5535182338, 41.9709972996, 10.7469992075, 9.1259701943,
        0.0000000000, 6.6025150648},
       28800ull},
      {"Im2Col", "Maxpool", 45.3186313460, 62.9025056706, 42.5753888152,
       {25.8319613995, 62.9025056706, 0.0000000000, 1.0993172732,
        0.0000000000, 10.1662156567},
       70544ull},
  };
  for (const StatsGolden &G : Goldens) {
    PairRunner Runner(*kernelIdByName(G.A), *kernelIdByName(G.B),
                      goldenOptions());
    ASSERT_TRUE(Runner.ok()) << Runner.error();
    SimResult H = Runner.runHFused({512, 512}, 0);
    ASSERT_TRUE(H.Ok) << H.Error;
    EXPECT_NEAR(H.DeviceIssueSlotUtilPct, G.Util, 1e-6);
    EXPECT_NEAR(H.DeviceMemStallPct, G.MemStall, 1e-6);
    EXPECT_NEAR(H.DeviceOccupancyPct, G.Occ, 1e-6);
    for (int I = 0; I < 6; ++I)
      EXPECT_NEAR(H.StallSharePct[I], G.Stalls[I], 1e-6) << "stall " << I;
    ASSERT_FALSE(H.Kernels.empty());
    EXPECT_EQ(H.Kernels[0].GlobalSectors, G.K0Sectors);
  }
}

TEST(GoldenSim, L2ModelMatchesSeed) {
  // The L2 sees sectors in first-touch order; any reordering in the
  // dedup changes hit rates and timing.
  PairRunner::Options Opts = goldenOptions();
  Opts.ModelL2 = true;
  PairRunner Runner(BenchKernelId::Maxpool, BenchKernelId::Upsample, Opts);
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SimResult H = Runner.runHFused({512, 512}, 0);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_EQ(H.TotalCycles, 146581ull);
  EXPECT_EQ(H.TotalIssued, 513664ull);
  ASSERT_FALSE(H.Kernels.empty());
  EXPECT_EQ(H.Kernels[0].GlobalSectors, 72512ull);
  EXPECT_NEAR(H.Kernels[0].L2HitRatePct, 73.9132833186, 1e-6);
}

TEST(GoldenSim, VoltaArchMatchesSeed) {
  PairRunner::Options Opts = goldenOptions();
  Opts.Arch = makeV100();
  PairRunner Runner(BenchKernelId::Blake256, BenchKernelId::Ethash, Opts);
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SimResult N = Runner.runNative();
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.TotalCycles, 771080ull);
  EXPECT_EQ(N.TotalIssued, 2234880ull);
  SimResult H = Runner.runHFused({256, 256}, 0);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_EQ(H.TotalCycles, 560607ull);
  EXPECT_EQ(H.TotalIssued, 2250240ull);
}

TEST(GoldenSim, RoundRobinPolicyMatchesSeed) {
  PairRunner::Options Opts = goldenOptions();
  Opts.Arch.Scheduler = SchedPolicy::RoundRobin;
  PairRunner Runner(BenchKernelId::Hist, BenchKernelId::Maxpool, Opts);
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SimResult N = Runner.runNative();
  ASSERT_TRUE(N.Ok) << N.Error;
  EXPECT_EQ(N.TotalCycles, 106160ull);
  EXPECT_EQ(N.TotalIssued, 155904ull);
  SimResult H = Runner.runHFused({512, 512}, 0);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_EQ(H.TotalCycles, 141538ull);
  EXPECT_EQ(H.TotalIssued, 211840ull);
}

TEST(GoldenSim, CycleBudgetAboveTrueCyclesIsBitIdentical) {
  // The branch-and-bound search relies on this: a cycle budget at or
  // above the true cycle count must not perturb the event core in any
  // observable way — cycles, issued counts, every nvprof-style metric,
  // and the functional memory contents all match the unbudgeted run
  // exactly (the budget only clamps idle fast-forward, and a run that
  // finishes in time never fast-forwards past its own completion).
  for (const MicroGolden &G : MicroGoldens) {
    for (StatsLevel Level : {StatsLevel::Full, StatsLevel::Minimal}) {
      MicroResult Ref = runMicro(G, Level);
      ASSERT_TRUE(Ref.R.Ok) << G.Name << ": " << Ref.R.Error;
      for (uint64_t Budget :
           {G.Cycles, G.Cycles + 1, uint64_t(1) << 62}) {
        MicroResult M = runMicro(G, Level, Budget);
        ASSERT_TRUE(M.R.Ok)
            << G.Name << " budget " << Budget << ": " << M.R.Error;
        EXPECT_FALSE(M.R.BudgetExceeded);
        EXPECT_EQ(M.R.TotalCycles, Ref.R.TotalCycles) << G.Name;
        EXPECT_EQ(M.R.TotalIssued, Ref.R.TotalIssued) << G.Name;
        EXPECT_EQ(M.R.TotalMs, Ref.R.TotalMs) << G.Name;
        EXPECT_EQ(M.R.DeviceIssueSlotUtilPct,
                  Ref.R.DeviceIssueSlotUtilPct) << G.Name;
        EXPECT_EQ(M.R.DeviceMemStallPct, Ref.R.DeviceMemStallPct)
            << G.Name;
        EXPECT_EQ(M.R.DeviceOccupancyPct, Ref.R.DeviceOccupancyPct)
            << G.Name;
        for (int I = 0; I < 6; ++I)
          EXPECT_EQ(M.R.StallSharePct[I], Ref.R.StallSharePct[I])
              << G.Name << " stall " << I;
        ASSERT_EQ(M.R.Kernels.size(), Ref.R.Kernels.size());
        for (size_t I = 0; I < M.R.Kernels.size(); ++I) {
          EXPECT_EQ(M.R.Kernels[I].ElapsedCycles,
                    Ref.R.Kernels[I].ElapsedCycles);
          EXPECT_EQ(M.R.Kernels[I].IssuedInsts,
                    Ref.R.Kernels[I].IssuedInsts);
          EXPECT_EQ(M.R.Kernels[I].GlobalSectors,
                    Ref.R.Kernels[I].GlobalSectors);
        }
        EXPECT_EQ(M.Checksum, Ref.Checksum) << G.Name;
      }
    }
  }
}

TEST(GoldenSim, CycleBudgetBelowTrueCyclesAbortsDeterministically) {
  const MicroGolden &G = MicroGoldens[0];
  for (uint64_t Budget : {G.Cycles - 1, G.Cycles / 2, uint64_t(1000)}) {
    MicroResult M = runMicro(G, StatsLevel::Minimal, Budget);
    EXPECT_FALSE(M.R.Ok);
    EXPECT_TRUE(M.R.BudgetExceeded) << "budget " << Budget;
    // The fast-forward clamp pins the abort point to exactly the
    // budget cycle, so the partial-progress counter is reproducible.
    EXPECT_EQ(M.R.TotalCycles, Budget);
    MicroResult M2 = runMicro(G, StatsLevel::Minimal, Budget);
    EXPECT_EQ(M2.R.TotalIssued, M.R.TotalIssued);
    EXPECT_LT(M.R.TotalIssued, G.Issued);
  }
  // A budget of exactly the true cycle count completes: the run is
  // only abandoned when cycles provably exceed the budget.
  MicroResult Exact = runMicro(G, StatsLevel::Minimal, G.Cycles);
  EXPECT_TRUE(Exact.R.Ok) << Exact.R.Error;
}

TEST(GoldenSim, SweepBestCarriesFullStatsAtGoldenCycles) {
  // The Figure 6 sweep profiles every candidate at StatsLevel::Full, so
  // its Best already carries the complete nvprof-style metrics — no
  // second simulation of the winner. Ethash+SHA256 has one partition
  // (256/256), so its two candidates are exactly the golden even-split
  // runs, and the unbounded one wins.
  const PairGolden &G = PairGoldens[12];
  ASSERT_STREQ(G.A, "Ethash");
  ASSERT_STREQ(G.B, "SHA256");
  PairRunner Runner(BenchKernelId::Ethash, BenchKernelId::SHA256,
                    goldenOptions());
  ASSERT_TRUE(Runner.ok()) << Runner.error();
  SearchResult SR = Runner.searchBestConfig();
  ASSERT_TRUE(SR.Ok) << SR.Err;
  EXPECT_EQ(SR.Stats.Simulations, SR.All.size());

  EXPECT_EQ(SR.Best.Dims, (std::vector<int>{256, 256}));
  EXPECT_EQ(SR.Best.RegBound, 0u);
  EXPECT_EQ(SR.Best.Cycles, G.HFusedCycles);
  EXPECT_EQ(SR.Best.Result.TotalIssued, G.HFusedIssued);
  for (const FusionCandidate &C : SR.All)
    if (C.RegBound == G.R0)
      EXPECT_EQ(C.Cycles, G.BoundedCycles);

  // Full metrics, identical to a standalone Full-stats profile.
  const SimResult &B = SR.Best.Result;
  EXPECT_GT(B.DeviceIssueSlotUtilPct, 0.0);
  EXPECT_GT(B.DeviceOccupancyPct, 0.0);
  ASSERT_FALSE(B.Kernels.empty());
  EXPECT_GT(B.Kernels[0].GlobalSectors, 0u);
  PairRunner Fresh(BenchKernelId::Ethash, BenchKernelId::SHA256,
                   goldenOptions());
  ASSERT_TRUE(Fresh.ok()) << Fresh.error();
  SimResult Ref = Fresh.runHFused({256, 256}, 0);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(B.DeviceIssueSlotUtilPct, Ref.DeviceIssueSlotUtilPct);
  EXPECT_EQ(B.DeviceMemStallPct, Ref.DeviceMemStallPct);
  EXPECT_EQ(B.DeviceOccupancyPct, Ref.DeviceOccupancyPct);
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(B.StallSharePct[I], Ref.StallSharePct[I]) << "stall " << I;
  EXPECT_EQ(B.Kernels[0].GlobalSectors, Ref.Kernels[0].GlobalSectors);
}

} // namespace
