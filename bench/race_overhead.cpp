//===-- bench/race_overhead.cpp - Shadow-memory race-check cost ----------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Measures the two-level packed shadow memory (DESIGN.md §10):
//
//  1. disjoint-granule plain-access throughput, swept over {1, 2, 4, 8}
//     threads — the same-epoch fast path decides most accesses with one
//     relaxed load, so this is a direct read of per-access detector cost;
//  2. end-to-end pbzip and PARSEC bodytrack runs, reporting the
//     same-epoch hit fraction of all plain accesses;
//  3. record/replay of every litmus app: the race reports of the replay
//     must equal those of the recording.
//
// Emits BENCH_race_overhead.json alongside the tables.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/litmus/Litmus.h"
#include "apps/parsec/Kernels.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/Presets.h"

#include <algorithm>
#include <chrono>
#include <tuple>

using namespace tsr;
using namespace tsr::bench;

namespace {

//===----------------------------------------------------------------------===//
// Part 1: disjoint-granule plain-access throughput
//===----------------------------------------------------------------------===//

struct CellResult {
  std::string Name;
  int Threads = 0;
  SampleStats AccessesPerSec;
  SampleStats WallMs;
  uint64_t PlainAccesses = 0; ///< Last repetition.
  uint64_t SameEpochHits = 0; ///< Last repetition.
  uint64_t FastPathHits = 0;  ///< Last repetition.
};

constexpr int SlotsPerThread = 64;
constexpr int BurstLen = 8;

/// Each thread hammers its own slab of granules: per slot, a burst of
/// same-epoch writes then a burst of same-epoch reads. The first access
/// of each burst takes the slow path, the repeats are the fast path's
/// best case — which is exactly the pattern tight loops over Var<T>
/// produce.
CellResult measureDisjoint(int Threads, int Reps, int Iters) {
  CellResult Out;
  Out.Name = "disjoint-" + std::to_string(Threads);
  Out.Threads = Threads;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    SessionConfig C;
    C.Strategy = StrategyKind::Random;
    C.ExecMode = Mode::Free;
    C.Controlled = true;
    C.RaceDetection = true;
    C.WeakMemory = false;
    C.LivenessIntervalMs = 0;
    seedFor(C, static_cast<uint64_t>(Rep), 41 + Threads);
    Session S(C);
    const auto Start = std::chrono::steady_clock::now();
    RunReport R = S.run([Threads, Iters] {
      std::vector<std::vector<uint64_t>> Slabs(
          static_cast<size_t>(Threads),
          std::vector<uint64_t>(SlotsPerThread, 0));
      auto Hammer = [Iters](std::vector<uint64_t> &Slab) {
        for (int It = 0; It != Iters; ++It) {
          for (int Slot = 0; Slot != SlotsPerThread; ++Slot)
            for (int K = 0; K != BurstLen; ++K)
              plainWrite(Slab[static_cast<size_t>(Slot)],
                         static_cast<uint64_t>(It + K));
          uint64_t Sum = 0;
          for (int Slot = 0; Slot != SlotsPerThread; ++Slot)
            for (int K = 0; K != BurstLen; ++K)
              Sum += plainRead(Slab[static_cast<size_t>(Slot)]);
          plainWrite(Slab[0], Sum);
        }
      };
      std::vector<Thread> Ts;
      Ts.reserve(static_cast<size_t>(Threads) - 1);
      for (int T = 1; T < Threads; ++T)
        Ts.push_back(
            Thread::spawn([&Hammer, &Slabs, T] { Hammer(Slabs[T]); }));
      Hammer(Slabs[0]);
      for (Thread &T : Ts)
        T.join();
      for (std::vector<uint64_t> &Slab : Slabs)
        Session::current()->race().forgetRange(
            reinterpret_cast<uintptr_t>(Slab.data()),
            Slab.size() * sizeof(uint64_t));
    });
    const double Ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
    Out.WallMs.add(Ms);
    Out.PlainAccesses = R.Metrics.counterOr("race.plain_accesses");
    Out.SameEpochHits = R.Metrics.counterOr("race.same_epoch_hits");
    Out.FastPathHits = R.Metrics.counterOr("race.fast_path_hits");
    Out.AccessesPerSec.add(static_cast<double>(Out.PlainAccesses) /
                           (Ms / 1000.0));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Part 2: end-to-end app runs
//===----------------------------------------------------------------------===//

struct AppResult {
  std::string Name;
  SampleStats WallMs;
  uint64_t PlainAccesses = 0;
  uint64_t SameEpochHits = 0;
  double SameEpochFraction = 0;
};

AppResult measureApp(const std::string &App, int Reps, int InputRepeats) {
  AppResult Out;
  Out.Name = App;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    SessionConfig C = presets::tsan11rec(StrategyKind::Random);
    C.LivenessIntervalMs = 0;
    seedFor(C, static_cast<uint64_t>(Rep), 59);
    Session S(C);
    double Ms = 0;
    if (App == "pbzip") {
      pbzip::PbzipConfig PC;
      PC.Threads = 4;
      PC.BlockSize = 512;
      std::vector<uint8_t> Input;
      for (int I = 0; I != InputRepeats; ++I) {
        const std::string Chunk =
            "race overhead benchmark " + std::to_string(I % 13) + " ";
        Input.insert(Input.end(), Chunk.begin(), Chunk.end());
      }
      S.env().putFile(PC.InputPath, Input);
      const auto Start = std::chrono::steady_clock::now();
      RunReport R = S.run([&PC] { (void)pbzip::compressFile(PC); });
      Ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
      Out.PlainAccesses = R.Metrics.counterOr("race.plain_accesses");
      Out.SameEpochHits = R.Metrics.counterOr("race.same_epoch_hits");
    } else {
      parsec::KernelConfig KC;
      KC.Threads = 4;
      KC.Size = 192;
      const auto Start = std::chrono::steady_clock::now();
      RunReport R = S.run([&KC] { (void)parsec::bodytrack(KC); });
      Ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
      Out.PlainAccesses = R.Metrics.counterOr("race.plain_accesses");
      Out.SameEpochHits = R.Metrics.counterOr("race.same_epoch_hits");
    }
    Out.WallMs.add(Ms);
  }
  Out.SameEpochFraction =
      Out.PlainAccesses
          ? static_cast<double>(Out.SameEpochHits) /
                static_cast<double>(Out.PlainAccesses)
          : 0.0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Part 3: record/replay race-report identity
//===----------------------------------------------------------------------===//

/// Address-free report signature: addresses differ run to run (stack and
/// heap layout), but kind pair, size, thread pair and the registered name
/// are stable properties of the schedule the demo pins down.
using ReportSig = std::tuple<int, int, size_t, Tid, Tid, std::string>;

std::vector<ReportSig> signatures(const std::vector<RaceReport> &Reports) {
  std::vector<ReportSig> Out;
  for (const RaceReport &R : Reports)
    Out.emplace_back(static_cast<int>(R.Prior), static_cast<int>(R.Current),
                     R.Size, R.PriorTid, R.CurrentTid, R.Name);
  std::sort(Out.begin(), Out.end());
  return Out;
}

struct LitmusResult {
  int Apps = 0;
  int AppsWithRaces = 0;
  size_t RecordedReports = 0;
  bool IdenticalReports = true;
};

LitmusResult measureLitmus() {
  LitmusResult Out;
  for (const litmus::LitmusTest &T : litmus::suite()) {
    ++Out.Apps;
    SessionConfig RC = presets::tsan11rec(StrategyKind::Random, Mode::Record,
                                          RecordPolicy::httpd());
    RC.LivenessIntervalMs = 0;
    seedFor(RC, 3, 67);
    Demo D;
    std::vector<ReportSig> Recorded;
    {
      Session S(RC);
      RunReport R = S.run(T.Body);
      D = R.RecordedDemo;
      Recorded = signatures(R.Races);
    }
    Out.RecordedReports += Recorded.size();
    if (!Recorded.empty())
      ++Out.AppsWithRaces;
    SessionConfig PC = presets::tsan11rec(StrategyKind::Random, Mode::Replay,
                                          RecordPolicy::httpd());
    PC.ReplayDemo = &D;
    PC.LivenessIntervalMs = 0;
    Session S(PC);
    RunReport R = S.run(T.Body);
    if (signatures(R.Races) != Recorded) {
      Out.IdenticalReports = false;
      std::fprintf(stderr,
                   "report mismatch: %s replayed %zu vs recorded %zu\n",
                   T.Name.c_str(), R.Races.size(), Recorded.size());
    }
  }
  return Out;
}

} // namespace

int main() {
  const int Reps = envInt("TSR_BENCH_REPS", 5);
  const int Iters = envInt("TSR_BENCH_RACE_ITERS", 150);
  const int InputRepeats = envInt("TSR_BENCH_INPUT_REPEATS", 2000);

  std::printf("Race-detection overhead: two-level packed shadow memory\n"
              "(disjoint-granule workload, %d reps, %d iters, %d slots "
              "x %d-access bursts per thread)\n\n",
              Reps, Iters, SlotsPerThread, BurstLen);

  std::vector<CellResult> Cells;
  for (int Threads : {1, 2, 4, 8})
    Cells.push_back(measureDisjoint(Threads, Reps, Iters));

  const std::vector<int> W = {13, 18, 12, 12, 12, 12};
  printRule(W);
  printRow({"config", "accesses/sec", "wall ms", "plain", "same-epoch",
            "fast-path"},
           W);
  printRule(W);
  for (const CellResult &R : Cells)
    printRow({R.Name, meanSd(R.AccessesPerSec, 0), meanSd(R.WallMs, 1),
              std::to_string(R.PlainAccesses),
              std::to_string(R.SameEpochHits), std::to_string(R.FastPathHits)},
             W);
  printRule(W);

  std::printf("\nEnd-to-end apps (4 threads)\n\n");
  std::vector<AppResult> Apps;
  for (const char *App : {"pbzip", "bodytrack"})
    Apps.push_back(measureApp(App, Reps, InputRepeats));
  const std::vector<int> AW = {20, 18, 12, 12, 12};
  printRule(AW);
  printRow({"app", "wall ms", "plain", "same-epoch", "hit frac"}, AW);
  printRule(AW);
  for (const AppResult &R : Apps)
    printRow({R.Name, meanSd(R.WallMs, 1), std::to_string(R.PlainAccesses),
              std::to_string(R.SameEpochHits), fmt(R.SameEpochFraction, 3)},
             AW);
  printRule(AW);

  std::printf("\nRecord/replay race-report identity (litmus suite)\n");
  const LitmusResult L = measureLitmus();
  std::printf("  apps: %d, with races: %d, recorded reports: %zu, "
              "identical on replay: %s\n",
              L.Apps, L.AppsWithRaces, L.RecordedReports,
              L.IdenticalReports ? "yes" : "NO");

  FILE *F = std::fopen("BENCH_race_overhead.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_race_overhead.json\n");
    return 1;
  }
  std::fprintf(F,
               "{\n  \"bench\": \"race_overhead\",\n"
               "  \"workload\": \"disjoint-granule + apps + litmus\",\n"
               "  \"reps\": %d,\n  \"iters\": %d,\n  \"configs\": [\n",
               Reps, Iters);
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CellResult &R = Cells[I];
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"threads\": %d,\n"
        "     \"plain_accesses\": %llu, \"same_epoch_hits\": %llu, "
        "\"fast_path_hits\": %llu,\n"
        "     \"accesses_per_sec\": %s,\n     \"wall_ms\": %s}%s\n",
        R.Name.c_str(), R.Threads,
        static_cast<unsigned long long>(R.PlainAccesses),
        static_cast<unsigned long long>(R.SameEpochHits),
        static_cast<unsigned long long>(R.FastPathHits),
        R.AccessesPerSec.toJson(8).c_str(), R.WallMs.toJson(8).c_str(),
        I + 1 == Cells.size() ? "" : ",");
  }
  std::fprintf(F, "  ],\n  \"apps\": [\n");
  for (size_t I = 0; I != Apps.size(); ++I) {
    const AppResult &R = Apps[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\",\n"
                 "     \"plain_accesses\": %llu, \"same_epoch_hits\": %llu, "
                 "\"same_epoch_fraction\": %.3f,\n"
                 "     \"wall_ms\": %s}%s\n",
                 R.Name.c_str(),
                 static_cast<unsigned long long>(R.PlainAccesses),
                 static_cast<unsigned long long>(R.SameEpochHits),
                 R.SameEpochFraction, R.WallMs.toJson(8).c_str(),
                 I + 1 == Apps.size() ? "" : ",");
  }
  std::fprintf(F,
               "  ],\n  \"litmus\": {\"apps\": %d, \"apps_with_races\": %d, "
               "\"recorded_reports\": %zu, \"identical_reports\": %s}\n}\n",
               L.Apps, L.AppsWithRaces, L.RecordedReports,
               L.IdenticalReports ? "true" : "false");
  std::fclose(F);
  std::printf("\nwrote BENCH_race_overhead.json\n");
  return 0;
}
