//===-- rrbench/rrbench.cpp - Record/replay benchmark --------------------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Times what a tsr user waits for — recording a program, loading its demo
// and replaying it — on two workloads drawn from the paper's evaluation,
// and checks every record/replay pair's outputs. Each iteration records
// and replays the same generated inputs under the same seeds; a run repeats
// iterations for a fixed wall-clock budget and reports medians and tails
// over every iteration (none dropped).
//
// With --trace 1 every iteration runs the pair twice: untraced (the
// baseline for trace.overhead_ratio and sched.ns_per_tick) and with the
// session's trace rings on, from which the per-layer numbers come. The
// benchmark only drives the public Session / Demo / app APIs; every span
// is taken here, around those calls.
//
// run.py builds this binary, wraps its JSON with the host block and prints
// the result line. METRICS.md is the metric schema.
//
//===----------------------------------------------------------------------===//

#include "apps/httpd/Httpd.h"
#include "apps/parsec/Kernels.h"
#include "runtime/Presets.h"
#include "runtime/Tsr.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace tsr;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

enum class Corruption { None, Demo, Output };

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  int MinIters = 11;
  Corruption Corrupt = Corruption::None;
  std::string WorkDir = ".";
};

/// Everything one iteration measured, summed over its record/replay
/// pairs. Times are seconds; the Tr* fields come from traced pairs only.
struct IterStats {
  // End-to-end spans.
  double SetupS = 0, RecordS = 0, ReplayS = 0;
  // Benchmark-side spans around single public calls.
  double SessionNewS = 0, SessionFreeS = 0, DemoLoadS = 0;
  double RecordRunS = 0;
  // Counts (record session unless named otherwise).
  uint64_t Pairs = 0;
  uint64_t DemoBytes = 0, QueueBytes = 0, SyscallBytes = 0;
  uint64_t Ticks = 0, FastCommits = 0, SlowCommits = 0, FastAborts = 0;
  uint64_t SpuriousWakeups = 0; // record + replay
  uint64_t PlainAccesses = 0, SameEpochHits = 0, Races = 0;
  /// Pairs whose replay reported a different number of races than the
  /// recording. Counted, never gated: which plain accesses a shadow cell
  /// keeps depends on their physical order, which replay does not fix.
  uint64_t RaceMismatches = 0;
  uint64_t AtomicLoads = 0, StaleReads = 0;
  uint64_t SyscallsRecorded = 0, SyscallsReplayed = 0, DemoFlushes = 0;
  uint64_t VirtualNs = 0;
  /// Resident-set high-water mark over the iteration, in MB.
  double PeakRssMb = 0;
  // From the trace rings (record + replay runs of traced pairs).
  uint64_t TrParks = 0, TrDropped = 0;
  double TrParkS = 0, TrSyscallS = 0, TrRunS = 0;
  size_t TrMaxBufferEvents = 0;
};

/// Per-(buffer) event counts, park and syscall wall intervals of one
/// traced run. Park→Wake and SyscallEnter→Exit are paired per thread.
void digestTrace(const RunReport &R, IterStats &It) {
  const TraceSnapshot &T = R.Trace;
  It.TrDropped += T.Dropped;
  std::map<Tid, size_t> PerThread;
  size_t Engine = 0;
  std::map<Tid, uint64_t> ParkAt, EnterAt;
  std::vector<std::pair<uint64_t, uint64_t>> Sys;
  for (const TraceEvent &E : T.Events) {
    switch (E.Kind) {
    // The kinds the scheduler emits into the shared engine ring.
    case TraceEventKind::StrategyDecision:
    case TraceEventKind::Desync:
    case TraceEventKind::DemoFlush:
      ++Engine;
      continue;
    case TraceEventKind::Park:
      ++It.TrParks;
      ParkAt[E.Thread] = E.WallNs;
      break;
    case TraceEventKind::Wake:
      if (auto P = ParkAt.find(E.Thread); P != ParkAt.end()) {
        It.TrParkS += static_cast<double>(E.WallNs - P->second) * 1e-9;
        ParkAt.erase(P);
      }
      break;
    case TraceEventKind::SyscallEnter:
      EnterAt[E.Thread] = E.WallNs;
      break;
    case TraceEventKind::SyscallExit:
      if (auto P = EnterAt.find(E.Thread); P != EnterAt.end()) {
        Sys.emplace_back(P->second, E.WallNs);
        EnterAt.erase(P);
      }
      break;
    default:
      break;
    }
    ++PerThread[E.Thread];
  }
  It.TrMaxBufferEvents = std::max(It.TrMaxBufferEvents, Engine);
  for (const auto &[Thread, N] : PerThread)
    It.TrMaxBufferEvents = std::max(It.TrMaxBufferEvents, N);
  // Wall time covered by at least one syscall (their union, so syscalls
  // of different threads that overlap count once).
  std::sort(Sys.begin(), Sys.end());
  uint64_t Covered = 0, End = 0;
  for (const auto &[B, E] : Sys) {
    const uint64_t From = std::max(B, End);
    if (E > From)
      Covered += E - From;
    End = std::max(End, E);
  }
  It.TrSyscallS += static_cast<double>(Covered) * 1e-9;
}

/// Returns free heap memory to the kernel and resets the process's
/// resident-set high-water mark (VmHWM), so the next peakRssMb() reads the
/// peak of what ran since this call, not what earlier iterations left in
/// the allocator's arenas. Where the kernel refuses the reset, VmHWM keeps
/// the peak since process start.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// One record→replay pair of a workload. Body runs as the controlled main
/// thread of both sessions and returns the program's output.
template <typename Out> struct PairSpec {
  SessionConfig Record;
  SessionConfig Replay;
  /// World setup of the recording session (peers, files); may be empty.
  std::function<void(Session &)> RecordWorld;
  std::function<Out()> Body;
  /// Live demo directory; empty records and replays in memory.
  std::string DemoDir;
};

template <typename Out> struct PairResult {
  Out Rec{}, Rep{};
  RunReport RecR, RepR;
  std::string LoadError; ///< Non-empty when the demo did not load intact.
};

/// Flips the middle byte of the file at \p Path.
void corruptFile(const std::string &Path) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  F.seekg(0, std::ios::end);
  const std::streamoff At = F.tellg() / 2;
  char C = 0;
  F.seekg(At);
  F.get(C);
  F.seekp(At);
  F.put(static_cast<char>(C ^ 0x5A));
}

/// Adds the recording's registry counters and demo sizes to \p It.
void countRecording(const RunReport &R, IterStats &It) {
  const MetricsSnapshot &M = R.Metrics;
  const Demo &D = R.RecordedDemo;
  ++It.Pairs;
  It.DemoBytes += D.totalSize();
  It.QueueBytes += D.streamSize(StreamKind::Queue);
  It.SyscallBytes += D.streamSize(StreamKind::Syscall);
  It.Ticks += M.counterOr("sched.ticks");
  It.FastCommits += M.counterOr("sched.fast_path_commits");
  It.SlowCommits += M.counterOr("sched.slow_path_commits");
  It.FastAborts += M.counterOr("sched.fast_path_aborts");
  It.SpuriousWakeups += M.counterOr("sched.spurious_wakeups");
  It.PlainAccesses += M.counterOr("race.plain_accesses");
  It.SameEpochHits += M.counterOr("race.same_epoch_hits");
  It.Races += M.counterOr("races.reported");
  It.AtomicLoads += M.counterOr("atomics.loads");
  It.StaleReads += M.counterOr("atomics.stale_reads");
  It.SyscallsRecorded += M.counterOr("syscalls.recorded");
  It.DemoFlushes += M.counterOr("demo.flushes");
  It.VirtualNs += R.VirtualNs;
}

template <typename Out>
PairResult<Out> runPair(PairSpec<Out> Spec, bool Traced, size_t RingEvents,
                        bool CorruptDemo, IterStats &It) {
  PairResult<Out> P;
  if (Traced) {
    for (SessionConfig *C : {&Spec.Record, &Spec.Replay}) {
      C->Trace.Enabled = true;
      C->Trace.BufferEvents = RingEvents;
    }
  }
  Spec.Record.Flush.Directory = Spec.DemoDir;
  if (!Spec.DemoDir.empty())
    std::filesystem::remove_all(Spec.DemoDir);

  // Record: construct, set up the world, run, tear down.
  const auto T0 = Clock::now();
  auto S = std::make_unique<Session>(Spec.Record);
  const auto T1 = Clock::now();
  if (Spec.RecordWorld)
    Spec.RecordWorld(*S);
  const auto T2 = Clock::now();
  P.RecR = S->run([&] { P.Rec = Spec.Body(); });
  const auto T3 = Clock::now();
  S.reset();
  const auto T4 = Clock::now();

  if (CorruptDemo && !Spec.DemoDir.empty())
    corruptFile(Spec.DemoDir + "/SYSCALL");

  // Demo load: from the live directory, or the replay's own copy of the
  // in-memory recording.
  Demo D;
  const auto T5 = Clock::now();
  if (Spec.DemoDir.empty()) {
    D = P.RecR.RecordedDemo;
  } else if (!D.loadFromDirectory(Spec.DemoDir, P.LoadError)) {
    if (P.LoadError.empty())
      P.LoadError = "load failed";
  }
  const auto T6 = Clock::now();
  if (CorruptDemo && Spec.DemoDir.empty()) {
    std::vector<uint8_t> &Meta = D.stream(StreamKind::Meta);
    Meta[Meta.size() / 2] ^= 0x01;
  }
  if (P.LoadError.empty() && (D.truncated() || !(D == P.RecR.RecordedDemo)))
    P.LoadError = "the demo given to replay differs from the recording";
  It.SetupS += secondsSince(T0, T2);
  It.SessionNewS += secondsSince(T0, T1);
  It.SessionFreeS += secondsSince(T3, T4);
  It.RecordRunS += secondsSince(T2, T3);
  It.RecordS += secondsSince(T2, T4);
  It.DemoLoadS += secondsSince(T5, T6);
  It.ReplayS += secondsSince(T5, T6);
  countRecording(P.RecR, It);
  if (!P.LoadError.empty())
    return P; // Replaying a damaged demo may abort the process.

  // Replay: construct, run, tear down. No world: the demo supplies every
  // recorded syscall result.
  Spec.Replay.ReplayDemo = &D;
  const auto T7 = Clock::now();
  S = std::make_unique<Session>(Spec.Replay);
  const auto T8 = Clock::now();
  P.RepR = S->run([&] { P.Rep = Spec.Body(); });
  const auto T9 = Clock::now();
  S.reset();
  const auto T10 = Clock::now();

  It.SessionNewS += secondsSince(T7, T8);
  It.SessionFreeS += secondsSince(T9, T10);
  It.SetupS += secondsSince(T7, T8);
  It.ReplayS += secondsSince(T8, T10);
  It.SpuriousWakeups += P.RepR.Metrics.counterOr("sched.spurious_wakeups");
  It.RaceMismatches += P.RecR.Races.size() != P.RepR.Races.size();
  It.SyscallsReplayed += P.RepR.Metrics.counterOr("syscalls.replayed");
  if (Traced) {
    It.TrRunS += secondsSince(T2, T3) + secondsSince(T8, T9);
    digestTrace(P.RecR, It);
    digestTrace(P.RepR, It);
  }
  return P;
}

/// Checks common to every workload: the demo reached the replay intact,
/// the recording ran to completion and the replay followed it tick for
/// tick without any resync.
template <typename Out>
void checkPair(const PairResult<Out> &P, std::vector<std::string> &Errors) {
  if (!P.LoadError.empty()) {
    Errors.push_back("demo load: " + P.LoadError);
    return;
  }
  const RunReport &Rec = P.RecR, &Rep = P.RepR;
  if (Rec.Deadlocked || Rec.StallSalvaged || Rec.Desync != DesyncKind::None)
    Errors.push_back("recording did not complete cleanly");
  if (Rep.Desync != DesyncKind::None)
    Errors.push_back("replay desync: " + Rep.DesyncMessage);
  if (Rep.Metrics.counterOr("sched.soft_resyncs") != 0 ||
      Rep.DesyncInfo.SoftResyncs != 0)
    Errors.push_back("replay needed a soft resync");
  if (Rep.Sched.Ticks != Rec.Sched.Ticks)
    Errors.push_back("replay ticks " + std::to_string(Rep.Sched.Ticks) +
                     " != recorded " + std::to_string(Rec.Sched.Ticks));
}

SessionConfig configFor(StrategyKind Strategy, Mode M, RecordPolicy Policy,
                        uint64_t &SeedState) {
  SessionConfig C = presets::tsan11rec(Strategy, M, Policy);
  // Wall-clock liveness ticks would make the work depend on timing.
  C.LivenessIntervalMs = 0;
  if (M == Mode::Record) {
    // The top bit fixes the width of each scheduler seed's varint in the
    // demo's META stream, so demo_bytes does not vary with the seed.
    C.Seed0 = splitmix(SeedState) | (1ull << 63);
    C.Seed1 = splitmix(SeedState) | (1ull << 63);
    C.Env.Seed0 = splitmix(SeedState);
    C.Env.Seed1 = splitmix(SeedState);
  }
  return C;
}

/// A workload runs one iteration (one or more pairs), appending a message
/// to Errors for each failed check, and returns the number of failed pairs.
using Workload =
    std::function<uint64_t(bool Traced, size_t RingEvents, bool Corrupt,
                           IterStats &It, std::vector<std::string> &Errors)>;

Workload makeHttpd(const Options &O) {
  // One worker serves one closed-loop connection, which sends its next
  // request only after the reply. Once the listener has handed the
  // connection over and parked in the join, nearly every tick goes to the
  // worker, so the run times the syscall and demo path without cross-CPU
  // handoffs. With two workers and two connections the handoffs made the
  // median move up to 1.6x between runs minutes apart on a shared 4-vCPU
  // host, against 1.2x with one.
  const int PerConnection = O.Tiny ? 180 : 4500;
  auto HC = std::make_shared<httpd::HttpdConfig>();
  HC->Workers = 1;
  HC->Connections = 1;
  HC->TotalRequests = HC->Connections * PerConnection;
  uint64_t Seeds = O.Seed ^ 0x4854545044ull;
  PairSpec<httpd::HttpdResult> Spec;
  Spec.Record = configFor(StrategyKind::Random, Mode::Record,
                          RecordPolicy::httpd(), Seeds);
  Spec.Replay = configFor(StrategyKind::Random, Mode::Replay,
                          RecordPolicy::httpd(), Seeds);
  Spec.RecordWorld = [HC, PerConnection](Session &S) {
    S.env().addPeer("ab", httpd::makeLoadGen(HC->Port, HC->Connections,
                                             PerConnection));
  };
  Spec.Body = [HC] { return httpd::runServer(*HC); };
  Spec.DemoDir = O.WorkDir + "/httpd-demo";
  const Corruption Corrupt = O.Corrupt;
  return [=](bool Traced, size_t Ring, bool CorruptNow, IterStats &It,
              std::vector<std::string> &Errors) -> uint64_t {
    auto P = runPair(Spec, Traced, Ring,
                     CorruptNow && Corrupt == Corruption::Demo, It);
    if (CorruptNow && Corrupt == Corruption::Output)
      P.Rep.PayloadHash ^= 1;
    const size_t Before = Errors.size();
    checkPair(P, Errors);
    if (P.Rec.Served != HC->TotalRequests || P.Rep.Served != P.Rec.Served)
      Errors.push_back("httpd served " + std::to_string(P.Rec.Served) + "/" +
                       std::to_string(P.Rep.Served) + " of " +
                       std::to_string(HC->TotalRequests));
    // Valid only as record == replay: LoadGen stamps a global request id,
    // so the hash depends on the schedule.
    if (P.Rep.PayloadHash != P.Rec.PayloadHash)
      Errors.push_back("httpd replay payload hash differs from recording");
    return Errors.size() != Before;
  };
}

Workload makeFluidanimate(const Options &O) {
  // One worker relaxes a grid of Size cells over six frames, locking each
  // cell and its neighbour per update; the controlled main thread only
  // spawns and joins it. With the main thread parked in the join, nearly
  // every tick goes to the thread that just committed, so the run times
  // the per-tick cost without a cross-CPU handoff. With two workers every
  // tick is a handoff, and the median moved 1.3x between runs minutes
  // apart on a shared 4-vCPU host (httpd-random's moved 1.13x).
  parsec::KernelConfig KC;
  KC.Threads = 1;
  KC.Size = O.Tiny ? 64 : 4096;
  uint64_t Seeds = O.Seed ^ 0x464C554944ull;
  PairSpec<parsec::KernelResult> Spec;
  Spec.Record = configFor(StrategyKind::Random, Mode::Record,
                          RecordPolicy::none(), Seeds);
  Spec.Replay = configFor(StrategyKind::Random, Mode::Replay,
                          RecordPolicy::none(), Seeds);
  Spec.Body = [KC] { return parsec::fluidanimate(KC); };
  // The checksum does not depend on the tool configuration or the
  // schedule: the reference comes from a native session, outside every
  // timed span.
  uint64_t Reference = 0;
  {
    Session S(presets::native());
    S.run([&] { Reference = parsec::fluidanimate(KC).Checksum; });
  }
  const Corruption Corrupt = O.Corrupt;
  return [=](bool Traced, size_t Ring, bool CorruptNow, IterStats &It,
              std::vector<std::string> &Errors) -> uint64_t {
    auto P = runPair(Spec, Traced, Ring,
                     CorruptNow && Corrupt == Corruption::Demo, It);
    if (CorruptNow && Corrupt == Corruption::Output)
      P.Rep.Checksum ^= 1;
    const size_t Before = Errors.size();
    checkPair(P, Errors);
    if (P.Rec.Checksum != Reference || P.Rep.Checksum != Reference)
      Errors.push_back("fluidanimate checksum differs from the native run");
    return Errors.size() != Before;
  };
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  if (N == 0)
    return 0;
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest nearest-rank percentile with at least ten samples above
/// it: rank N-10 of N sorted samples.
struct Tail {
  double Value = 0, Percentile = 0;
  size_t Samples = 0;
};
Tail tailOf(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  std::sort(V.begin(), V.end());
  if (V.size() < 11)
    return T;
  const size_t Rank = V.size() - 10;
  T.Value = V[Rank - 1];
  T.Percentile = 100.0 * static_cast<double>(Rank) /
                 static_cast<double>(V.size());
  return T;
}

template <typename Fn>
std::vector<double> column(const std::vector<IterStats> &Its, Fn F) {
  std::vector<double> V;
  for (const IterStats &It : Its)
    V.push_back(static_cast<double>(F(It)));
  return V;
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out + "\"";
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I != V.size(); ++I)
    Out += (I ? "," : "") + jsonNum(V[I]);
  return Out + "]";
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

int usage() {
  std::fprintf(stderr,
               "usage: rrbench --workload httpd-random|fluidanimate-random "
               "--seed N --seconds S --trace 0|1\n"
               "               [--work-dir DIR] [--tiny] [--min-iters K]\n"
               "               [--corrupt none|demo|output]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // A fixed mmap threshold turns off glibc's adaptive one: every buffer of
  // 1 MiB or more is mapped when allocated and unmapped when freed, so
  // peak_rss_mb follows live memory instead of what the allocator happened
  // to keep cached from earlier sessions.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
    } else if (!(V = Next())) {
      return usage();
    } else if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::atof(V);
    } else if (A == "--trace") {
      O.Trace = std::string(V) == "1";
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else if (A == "--min-iters") {
      O.MinIters = std::max(1, std::atoi(V));
    } else if (A == "--corrupt") {
      const std::string C = V;
      O.Corrupt = C == "demo"     ? Corruption::Demo
                  : C == "output" ? Corruption::Output
                                  : Corruption::None;
    } else {
      return usage();
    }
  }

  Workload W;
  if (O.Workload == "httpd-random")
    W = makeHttpd(O);
  else if (O.Workload == "fluidanimate-random")
    W = makeFluidanimate(O);
  else
    return usage();
  std::filesystem::create_directories(O.WorkDir);

  std::vector<std::string> Errors;
  uint64_t Failed = 0, Attempted = 0;
  auto Iterate = [&](bool Traced, size_t RingEvents, bool Corrupt) {
    IterStats It;
    resetPeakRss();
    Failed += W(Traced, RingEvents, Corrupt, It, Errors);
    It.PeakRssMb = peakRssMb();
    Attempted += It.Pairs;
    return It;
  };
  // Warm-up iteration (not reported): fills caches and lazy set-up. With
  // tracing on it also sizes the trace rings: double until nothing drops,
  // then leave 2x headroom over the busiest ring.
  size_t Ring = 1 << 10;
  Iterate(false, 0, false);
  if (O.Trace) {
    for (;;) {
      const IterStats Probe = Iterate(true, Ring, false);
      if (Probe.TrDropped == 0) {
        while (Ring < 2 * Probe.TrMaxBufferEvents)
          Ring *= 2;
        break;
      }
      Ring *= 4;
    }
  }

  std::vector<IterStats> Plain, Traced;
  const auto Start = Clock::now();
  while (secondsSince(Start, Clock::now()) < O.Seconds ||
         static_cast<int>(Plain.size()) < O.MinIters) {
    const bool Corrupt = Plain.empty() && O.Corrupt != Corruption::None;
    Plain.push_back(Iterate(false, 0, Corrupt));
    if (O.Trace)
      Traced.push_back(Iterate(true, Ring, false));
  }
  const double MeasuredS = secondsSince(Start, Clock::now());

  std::vector<std::pair<std::string, std::pair<double, const char *>>> Ms;
  auto Put = [&Ms](const char *Name, double V, const char *Unit) {
    Ms.push_back({Name, {V, Unit}});
  };
  const std::vector<double> Rec = column(Plain, [](auto &I) {
    return I.RecordS;
  });
  const std::vector<double> Rep = column(Plain, [](auto &I) {
    return I.ReplayS;
  });
  const Tail RecTail = tailOf(Rec), RepTail = tailOf(Rep);
  if (!O.Trace) {
    Put("setup_s", median(column(Plain, [](auto &I) { return I.SetupS; })),
        "s");
    Put("record_s", median(Rec), "s");
    Put("replay_s", median(Rep), "s");
    Put("demo_bytes",
        median(column(Plain, [](auto &I) { return I.DemoBytes; })), "B");
    Put("peak_rss_mb",
        median(column(Plain, [](auto &I) { return I.PeakRssMb; })), "MB");
    Put("pass_ratio",
        1.0 - ratio(static_cast<double>(Failed),
                    static_cast<double>(Attempted)),
        "1");
  } else {
    const std::vector<IterStats> &T = Traced;
    auto Med = [&T](auto F) { return median(column(T, F)); };
    // Sums over every iteration of the run, untraced and traced alike.
    auto RunTotal = [&](auto F) {
      double Sum = 0;
      for (const auto *Set : {&Plain, &Traced})
        for (const IterStats &It : *Set)
          Sum += static_cast<double>(F(It));
      return Sum;
    };
    const double PlainRecRun =
        median(column(Plain, [](auto &I) { return I.RecordRunS; }));
    const double Ticks = Med([](auto &I) { return I.Ticks; });
    // The tails of the untraced copies. They are reported here, without a
    // bound, because the Random strategy's handoff cost under neighbour
    // load swings them far more from run to run than any bound allows.
    Put("record_tail_s", RecTail.Value, "s");
    Put("replay_tail_s", RepTail.Value, "s");
    Put("runtime.session_new_s", Med([](auto &I) { return I.SessionNewS; }),
        "s");
    Put("runtime.session_free_s",
        Med([](auto &I) { return I.SessionFreeS; }), "s");
    Put("runtime.run_self_s",
        Med([](auto &I) { return I.TrRunS - I.TrSyscallS; }), "s");
    Put("sched.ticks", Ticks, "count");
    Put("sched.ns_per_tick", ratio(PlainRecRun * 1e9, Ticks), "ns");
    Put("sched.fast_path_ratio", Med([](auto &I) {
          return ratio(static_cast<double>(I.FastCommits),
                       static_cast<double>(I.FastCommits + I.SlowCommits));
        }),
        "1");
    Put("sched.fast_path_commits", Med([](auto &I) { return I.FastCommits; }),
        "count");
    Put("sched.slow_path_commits", Med([](auto &I) { return I.SlowCommits; }),
        "count");
    Put("sched.fast_path_aborts", Med([](auto &I) { return I.FastAborts; }),
        "count");
    Put("sched.spurious_wakeups",
        RunTotal([](auto &I) { return I.SpuriousWakeups; }), "count");
    Put("sched.parks", Med([](auto &I) { return I.TrParks; }), "count");
    Put("sched.park_s", Med([](auto &I) { return I.TrParkS; }), "s");
    Put("race.plain_accesses", Med([](auto &I) { return I.PlainAccesses; }),
        "count");
    Put("race.same_epoch_ratio", Med([](auto &I) {
          return ratio(static_cast<double>(I.SameEpochHits),
                       static_cast<double>(I.PlainAccesses));
        }),
        "1");
    Put("race.reports", Med([](auto &I) { return I.Races; }), "count");
    Put("race.replay_mismatches",
        RunTotal([](auto &I) { return I.RaceMismatches; }), "count");
    Put("atomics.loads", Med([](auto &I) { return I.AtomicLoads; }),
        "count");
    Put("atomics.stale_reads", Med([](auto &I) { return I.StaleReads; }),
        "count");
    Put("syscalls.recorded", Med([](auto &I) { return I.SyscallsRecorded; }),
        "count");
    Put("syscalls.replayed", Med([](auto &I) { return I.SyscallsReplayed; }),
        "count");
    Put("env.syscall_share",
        Med([](auto &I) { return ratio(I.TrSyscallS, I.TrRunS); }), "1");
    Put("env.virtual_s",
        Med([](auto &I) { return static_cast<double>(I.VirtualNs) * 1e-9; }),
        "virtual_s");
    Put("demo.load_s", Med([](auto &I) { return I.DemoLoadS; }), "s");
    Put("demo.flushes", Med([](auto &I) { return I.DemoFlushes; }), "count");
    Put("demo.bytes.queue", Med([](auto &I) { return I.QueueBytes; }), "B");
    Put("demo.bytes.syscall", Med([](auto &I) { return I.SyscallBytes; }),
        "B");
    Put("trace.overhead_ratio",
        ratio(Med([](auto &I) { return I.RecordS; }), median(Rec)), "1");
    const double Dropped = RunTotal([](auto &I) { return I.TrDropped; });
    Put("trace.dropped", Dropped, "count");
    if (Dropped > 0)
      Errors.push_back("trace rings dropped events; per-layer times withheld");
  }

  // One JSON object; run.py adds the host block and prints the result.
  std::string J = "{\"workload\":" + jsonStr(O.Workload) +
                  ",\"seed\":" + std::to_string(O.Seed) +
                  ",\"trace\":" + (O.Trace ? "1" : "0") +
                  ",\"build_type\":" + jsonStr(RRBENCH_BUILD_TYPE) +
                  ",\"iterations\":" + std::to_string(Plain.size()) +
                  ",\"measured_s\":" + jsonNum(MeasuredS) +
                  ",\"trace_ring_events\":" +
                  std::to_string(O.Trace ? Ring : 0) +
                  ",\"attempted\":" + std::to_string(Attempted) +
                  ",\"failed\":" + std::to_string(Failed) + ",\"metrics\":{";
  for (size_t I = 0; I != Ms.size(); ++I)
    J += (I ? "," : "") + jsonStr(Ms[I].first) +
         ":{\"value\":" + jsonNum(Ms[I].second.first) +
         ",\"unit\":" + jsonStr(Ms[I].second.second) + "}";
  J += "},\"tails\":{\"record_tail_s\":{\"percentile\":" +
       jsonNum(RecTail.Percentile) +
       ",\"samples\":" + std::to_string(RecTail.Samples) +
       "},\"replay_tail_s\":{\"percentile\":" + jsonNum(RepTail.Percentile) +
       ",\"samples\":" + std::to_string(RepTail.Samples) + "}}";
  J += ",\"samples\":{\"setup_s\":" +
       jsonArray(column(Plain, [](auto &I) { return I.SetupS; })) +
       ",\"record_s\":" + jsonArray(Rec) + ",\"replay_s\":" + jsonArray(Rep) +
       ",\"peak_rss_mb\":" +
       jsonArray(column(Plain, [](auto &I) { return I.PeakRssMb; }));
  if (O.Trace)
    J += ",\"traced_record_s\":" +
         jsonArray(column(Traced, [](auto &I) { return I.RecordS; }));
  J += "},\"counts\":{\"sched.ticks\":" +
       jsonArray(column(Plain, [](auto &I) { return I.Ticks; })) +
       ",\"demo_bytes\":" +
       jsonArray(column(Plain, [](auto &I) { return I.DemoBytes; })) +
       ",\"env.virtual_ns\":" +
       jsonArray(column(Plain, [](auto &I) { return I.VirtualNs; })) + "}";
  J += ",\"errors\":[";
  for (size_t I = 0; I != Errors.size() && I != 20; ++I)
    J += (I ? "," : "") + jsonStr(Errors[I]);
  J += "]}";
  std::printf("%s\n", J.c_str());
  return Failed == 0 && Errors.empty() ? 0 : 1;
}
