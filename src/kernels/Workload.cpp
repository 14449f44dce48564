//===-- kernels/Workload.cpp - Benchmark workloads ------------------------===//
//
// Part of the HFuse reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "kernels/Workload.h"

#include "kernels/Reference.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstring>
#include <random>

using namespace hfuse;
using namespace hfuse::gpusim;
using namespace hfuse::kernels;

namespace {

template <typename T>
void writeVec(Simulator &Sim, uint64_t Base, const std::vector<T> &V) {
  std::memcpy(Sim.globalMem().data() + Base, V.data(), V.size() * sizeof(T));
}

template <typename T>
std::vector<T> readVec(Simulator &Sim, uint64_t Base, size_t N) {
  std::vector<T> V(N);
  std::memcpy(V.data(), Sim.globalMem().data() + Base, N * sizeof(T));
  return V;
}

void zeroRange(Simulator &Sim, uint64_t Base, size_t Bytes) {
  std::memset(Sim.globalMem().data() + Base, 0, Bytes);
}

std::vector<float> randomFloats(size_t N, uint32_t Seed, float Lo,
                                float Hi) {
  std::vector<float> V(N);
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> Dist(Lo, Hi);
  for (float &X : V)
    X = Dist(Rng);
  return V;
}

bool checkFloats(const std::vector<float> &Got,
                 const std::vector<float> &Want, float Tol,
                 const char *What, std::string &Err) {
  if (Got.size() != Want.size()) {
    Err = formatString("%s: size mismatch", What);
    return false;
  }
  for (size_t I = 0; I < Got.size(); ++I) {
    float Denominator = std::fmax(1.0f, std::fabs(Want[I]));
    if (std::fabs(Got[I] - Want[I]) / Denominator > Tol) {
      Err = formatString("%s: mismatch at %zu: got %g want %g", What, I,
                         Got[I], Want[I]);
      return false;
    }
  }
  return true;
}

int scaledCount(double Base, double Scale, int Quantum) {
  int V = static_cast<int>(std::lround(Base * Scale));
  V = std::max(Quantum, V / Quantum * Quantum);
  return V;
}

//===----------------------------------------------------------------------===//
// Deep-learning workloads
//===----------------------------------------------------------------------===//

class MaxpoolWorkload final : public Workload {
public:
  explicit MaxpoolWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Maxpool, Cfg) {
    C = scaledCount(28, Cfg.SizeScale, 1);
    Grid = Cfg.SimSMs * 32;
  }

  void setup(Simulator &Sim) override {
    In = randomFloats(size_t(C) * H * W, Cfg.Seed ^ 0x11, -1.0f, 1.0f);
    Total = C * (H - 2) * (W - 2);
    InBase = Sim.allocGlobal(In.size() * 4);
    OutBase = Sim.allocGlobal(size_t(Total) * 4);
    writeVec(Sim, InBase, In);
    Params = {OutBase, InBase, uint64_t(C), uint64_t(H), uint64_t(W),
              uint64_t(Total)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(Total) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<float> Want;
    refMaxpool(Want, In, C, H, W);
    auto Got = readVec<float>(Sim, OutBase, Want.size());
    return checkFloats(Got, Want, 0.0f, "maxpool", Err);
  }

private:
  int C, H = 66, W = 66, Total = 0;
  std::vector<float> In;
  uint64_t InBase = 0, OutBase = 0;
};

class BatchnormWorkload final : public Workload {
public:
  explicit BatchnormWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Batchnorm, Cfg) {
    Planes = Cfg.SimSMs * 32;
    N = scaledCount(12288, Cfg.SizeScale, 32);
    Grid = Planes;
  }

  void setup(Simulator &Sim) override {
    In = randomFloats(size_t(Planes) * N, Cfg.Seed ^ 0x22, -2.0f, 2.0f);
    InBase = Sim.allocGlobal(In.size() * 4);
    MeanBase = Sim.allocGlobal(size_t(Planes) * 4);
    VarBase = Sim.allocGlobal(size_t(Planes) * 4);
    writeVec(Sim, InBase, In);
    Params = {MeanBase, VarBase, InBase, uint64_t(Planes), uint64_t(N)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, MeanBase, size_t(Planes) * 4);
    zeroRange(Sim, VarBase, size_t(Planes) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<double> WantMean, WantVar;
    refBatchnorm(WantMean, WantVar, In, Planes, N);
    auto GotMean = readVec<float>(Sim, MeanBase, Planes);
    auto GotVar = readVec<float>(Sim, VarBase, Planes);
    for (int P = 0; P < Planes; ++P) {
      if (std::fabs(GotMean[P] - WantMean[P]) > 1e-3) {
        Err = formatString("batchnorm mean[%d]: got %g want %g", P,
                           GotMean[P], WantMean[P]);
        return false;
      }
      double Denominator = std::fmax(1.0, std::fabs(WantVar[P]));
      if (std::fabs(GotVar[P] - WantVar[P]) / Denominator > 1e-2) {
        Err = formatString("batchnorm var[%d]: got %g want %g", P,
                           GotVar[P], WantVar[P]);
        return false;
      }
    }
    return true;
  }

private:
  int Planes, N;
  std::vector<float> In;
  uint64_t InBase = 0, MeanBase = 0, VarBase = 0;
};

/// Batch-major batchnorm for the 2-D extension kernel (paper Figure 2):
/// 16 batches x (scaled) spatial elements per plane, launched with
/// 16x16 blocks so threadIdx.y strides the batches.
class Batchnorm2DWorkload final : public Workload {
public:
  explicit Batchnorm2DWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Batchnorm2D, Cfg) {
    Planes = Cfg.SimSMs * 32;
    Spatial = scaledCount(768, Cfg.SizeScale, 32);
    Grid = Planes;
    Block = 16;
    BlockY = 16;
  }

  void setup(Simulator &Sim) override {
    In = randomFloats(size_t(Planes) * NBatch * Spatial, Cfg.Seed ^ 0x2b,
                      -2.0f, 2.0f);
    InBase = Sim.allocGlobal(In.size() * 4);
    MeanBase = Sim.allocGlobal(size_t(Planes) * 4);
    VarBase = Sim.allocGlobal(size_t(Planes) * 4);
    writeVec(Sim, InBase, In);
    Params = {MeanBase,         VarBase,          InBase,
              uint64_t(Planes), uint64_t(NBatch), uint64_t(Spatial)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, MeanBase, size_t(Planes) * 4);
    zeroRange(Sim, VarBase, size_t(Planes) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<double> WantMean, WantVar;
    refBatchnorm2D(WantMean, WantVar, In, Planes, NBatch, Spatial);
    auto GotMean = readVec<float>(Sim, MeanBase, Planes);
    auto GotVar = readVec<float>(Sim, VarBase, Planes);
    for (int P = 0; P < Planes; ++P) {
      if (std::fabs(GotMean[P] - WantMean[P]) > 1e-3) {
        Err = formatString("batchnorm2d mean[%d]: got %g want %g", P,
                           GotMean[P], WantMean[P]);
        return false;
      }
      double Denominator = std::fmax(1.0, std::fabs(WantVar[P]));
      if (std::fabs(GotVar[P] - WantVar[P]) / Denominator > 1e-2) {
        Err = formatString("batchnorm2d var[%d]: got %g want %g", P,
                           GotVar[P], WantVar[P]);
        return false;
      }
    }
    return true;
  }

private:
  static constexpr int NBatch = 16;
  int Planes, Spatial;
  std::vector<float> In;
  uint64_t InBase = 0, MeanBase = 0, VarBase = 0;
};

class UpsampleWorkload final : public Workload {
public:
  explicit UpsampleWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Upsample, Cfg) {
    C = scaledCount(72, Cfg.SizeScale, 1);
    Grid = Cfg.SimSMs * 32;
  }

  void setup(Simulator &Sim) override {
    In = randomFloats(size_t(C) * IH * IW, Cfg.Seed ^ 0x33, 0.0f, 4.0f);
    Total = C * (IH * 2) * (IW * 2);
    InBase = Sim.allocGlobal(In.size() * 4);
    OutBase = Sim.allocGlobal(size_t(Total) * 4);
    writeVec(Sim, InBase, In);
    Params = {OutBase, InBase, uint64_t(C), uint64_t(IH), uint64_t(IW),
              uint64_t(Total)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(Total) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<float> Want;
    refUpsample(Want, In, C, IH, IW);
    auto Got = readVec<float>(Sim, OutBase, Want.size());
    return checkFloats(Got, Want, 1e-6f, "upsample", Err);
  }

private:
  int C, IH = 32, IW = 32, Total = 0;
  std::vector<float> In;
  uint64_t InBase = 0, OutBase = 0;
};

class Im2ColWorkload final : public Workload {
public:
  explicit Im2ColWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Im2Col, Cfg) {
    C = scaledCount(44, Cfg.SizeScale, 1);
    Grid = Cfg.SimSMs * 32;
  }

  void setup(Simulator &Sim) override {
    In = randomFloats(size_t(C) * H * W, Cfg.Seed ^ 0x44, -1.0f, 1.0f);
    Total = C * 9 * (H - 2) * (W - 2);
    InBase = Sim.allocGlobal(In.size() * 4);
    OutBase = Sim.allocGlobal(size_t(Total) * 4);
    writeVec(Sim, InBase, In);
    Params = {OutBase, InBase, uint64_t(C), uint64_t(H), uint64_t(W),
              uint64_t(Total)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(Total) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<float> Want;
    refIm2Col(Want, In, C, H, W);
    auto Got = readVec<float>(Sim, OutBase, Want.size());
    return checkFloats(Got, Want, 0.0f, "im2col", Err);
  }

private:
  int C, H = 34, W = 34, Total = 0;
  std::vector<float> In;
  uint64_t InBase = 0, OutBase = 0;
};

class HistWorkload final : public Workload {
public:
  explicit HistWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Hist, Cfg) {
    Total = scaledCount(65536, Cfg.SizeScale, 256);
    Grid = Cfg.SimSMs * 32;
  }

  void setup(Simulator &Sim) override {
    // Post-ReLU activation-like values: a large spike in the zero bin
    // plus a half-gaussian tail. The hot bins serialize shared-memory
    // atomics — the behavior behind Hist's low issue-slot utilization
    // and near-zero memory-dependency stalls in the paper's Figure 8.
    Data.resize(Total);
    std::mt19937 Rng(Cfg.Seed ^ 0x55);
    std::normal_distribution<float> Dist(-0.1f, 0.19f);
    for (float &V : Data)
      V = std::max(0.0f, Dist(Rng));
    DataBase = Sim.allocGlobal(Data.size() * 4);
    OutBase = Sim.allocGlobal(size_t(NBins) * 4);
    writeVec(Sim, DataBase, Data);
    uint64_t MinBits = std::bit_cast<uint32_t>(0.0f);
    uint64_t MaxBits = std::bit_cast<uint32_t>(1.0f);
    Params = {OutBase,       DataBase, uint64_t(Total),
              uint64_t(NBins), MinBits,  MaxBits};
  }

  uint32_t dynSharedBytes() const override { return NBins * 4; }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(NBins) * 4);
  }

  bool verify(Simulator &Sim, int /*TotalThreads*/,
              std::string &Err) override {
    std::vector<uint32_t> Want;
    refHist(Want, Data, NBins, 0.0f, 1.0f);
    auto Got = readVec<uint32_t>(Sim, OutBase, NBins);
    for (int B = 0; B < NBins; ++B) {
      if (Got[B] != Want[B]) {
        Err = formatString("hist bin %d: got %u want %u", B, Got[B],
                           Want[B]);
        return false;
      }
    }
    return true;
  }

private:
  int Total, NBins = 256;
  std::vector<float> Data;
  uint64_t DataBase = 0, OutBase = 0;
};

//===----------------------------------------------------------------------===//
// Crypto workloads
//===----------------------------------------------------------------------===//

class EthashWorkload final : public Workload {
public:
  explicit EthashWorkload(const WorkloadConfig &Cfg)
      : Workload(BenchKernelId::Ethash, Cfg) {
    Iters = scaledCount(48, Cfg.SizeScale, 1);
    Grid = Cfg.SimSMs * 24;
  }

  // The 4 MB DAG lives only in simulator memory: setup generates it in
  // place and verify() regenerates the reference copy from the seed.
  void setup(Simulator &Sim) override {
    DagBase = Sim.allocGlobal(size_t(DagWords) * 4);
    MaxThreads = Grid * Block;
    OutBase = Sim.allocGlobal(size_t(MaxThreads) * 4);
    uint8_t *Dst = Sim.globalMem().data() + DagBase;
    std::mt19937 Rng = dagRng();
    for (int I = 0; I < DagWords; ++I) {
      uint32_t W = Rng();
      std::memcpy(Dst + size_t(I) * 4, &W, 4);
    }
    Params = {OutBase, DagBase, uint64_t(DagWords), uint64_t(Iters),
              uint64_t(Seed)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(MaxThreads) * 4);
  }

  bool verify(Simulator &Sim, int TotalThreads, std::string &Err) override {
    auto Got = readVec<uint32_t>(Sim, OutBase, TotalThreads);
    std::vector<uint32_t> Dag(DagWords);
    std::mt19937 Rng = dagRng();
    for (uint32_t &W : Dag)
      W = Rng();
    for (int G = 0; G < TotalThreads; ++G) {
      uint32_t Want = refEthashOne(G, Dag, Iters, Seed);
      if (Got[G] != Want) {
        Err = formatString("ethash gid %d: got %08x want %08x", G, Got[G],
                           Want);
        return false;
      }
    }
    return true;
  }

private:
  std::mt19937 dagRng() const { return std::mt19937(Cfg.Seed ^ 0x66); }

  int Iters, DagWords = 1 << 20, MaxThreads = 0;
  uint32_t Seed = 0xE7A5A5E7u;
  uint64_t DagBase = 0, OutBase = 0;
};

/// Shared shape of the three pure hash workloads.
template <BenchKernelId KId, typename OutT> class HashWorkload final
    : public Workload {
public:
  HashWorkload(const WorkloadConfig &Cfg, double BaseIters)
      : Workload(KId, Cfg) {
    Iters = scaledCount(BaseIters, Cfg.SizeScale, 1);
    Grid = Cfg.SimSMs * 24;
  }

  void setup(Simulator &Sim) override {
    MaxThreads = Grid * Block;
    OutBase = Sim.allocGlobal(size_t(MaxThreads) * sizeof(OutT));
    Params = {OutBase, uint64_t(Iters), uint64_t(Seed)};
  }

  void clearOutputs(Simulator &Sim) override {
    zeroRange(Sim, OutBase, size_t(MaxThreads) * sizeof(OutT));
  }

  bool verify(Simulator &Sim, int TotalThreads, std::string &Err) override {
    auto Got = readVec<OutT>(Sim, OutBase, TotalThreads);
    for (int G = 0; G < TotalThreads; ++G) {
      OutT Want;
      if constexpr (KId == BenchKernelId::SHA256)
        Want = refSha256One(G, Iters, Seed);
      else if constexpr (KId == BenchKernelId::Blake256)
        Want = refBlake256One(G, Iters, Seed);
      else
        Want = refBlake2BOne(G, Iters, Seed);
      if (Got[G] != Want) {
        Err = formatString("%s gid %d: wrong hash",
                           kernelDisplayName(KId), G);
        return false;
      }
    }
    return true;
  }

private:
  int Iters, MaxThreads = 0;
  uint32_t Seed = 0x5EEDF00Du;
  uint64_t OutBase = 0;
};

} // namespace

std::unique_ptr<Workload>
hfuse::kernels::makeWorkload(BenchKernelId Id, const WorkloadConfig &Cfg) {
  switch (Id) {
  case BenchKernelId::Maxpool:
    return std::make_unique<MaxpoolWorkload>(Cfg);
  case BenchKernelId::Batchnorm:
    return std::make_unique<BatchnormWorkload>(Cfg);
  case BenchKernelId::Batchnorm2D:
    return std::make_unique<Batchnorm2DWorkload>(Cfg);
  case BenchKernelId::Upsample:
    return std::make_unique<UpsampleWorkload>(Cfg);
  case BenchKernelId::Im2Col:
    return std::make_unique<Im2ColWorkload>(Cfg);
  case BenchKernelId::Hist:
    return std::make_unique<HistWorkload>(Cfg);
  case BenchKernelId::Ethash:
    return std::make_unique<EthashWorkload>(Cfg);
  case BenchKernelId::SHA256:
    return std::make_unique<HashWorkload<BenchKernelId::SHA256, uint32_t>>(
        Cfg, 3);
  case BenchKernelId::Blake256:
    return std::make_unique<
        HashWorkload<BenchKernelId::Blake256, uint32_t>>(Cfg, 3);
  case BenchKernelId::Blake2B:
    return std::make_unique<
        HashWorkload<BenchKernelId::Blake2B, uint64_t>>(Cfg, 2);
  }
  return nullptr;
}
