//===-- tests/GoldenDemoTest.cpp - Committed golden-demo digests ----------===//
//
// Part of the tsr project: a reproduction of "Sparse Record and Replay with
// Controlled Scheduling" (PLDI 2019).
//
// Identical re-execution as a cross-revision fact: pbzip, the litmus
// suite and a small MiniHttpd run are recorded with fixed seeds under the
// random strategy, and every stream file the live writer leaves on disk
// must match a committed (size, CRC-32) digest, together with the tick
// count and the virtual makespan. Under the random strategy the QUEUE
// stream is empty, so Ticks and VirtualNs are what pin the schedule
// itself. Each row also pins the race detector's output: the report
// count and a CRC-32 over the sorted address-free report tuples. A
// four-session SessionPool fleet must reproduce the same digests session
// by session.
//
// The digests are the equivalence oracle for everything that must not
// move a schedule, a demo byte or a race report: how parked threads are
// woken, how a tick is committed, how streams are framed and written,
// how shadow memory stores access history. A deliberate format,
// schedule or detection change shows up here as a failing test that
// prints the actual table; paste the printed row(s) over the committed
// ones.
// Queue-strategy recordings are FCFS (OS arrival order) and are not
// byte-stable by design, so they are not pinned here.
//
//===----------------------------------------------------------------------===//

#include "apps/httpd/Httpd.h"
#include "apps/litmus/Litmus.h"
#include "apps/pbzip/Pbzip.h"
#include "runtime/SessionPool.h"
#include "runtime/Tsr.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

using namespace tsr;

namespace {

/// One stream file's digest.
struct StreamDigest {
  uint64_t Size = 0;
  uint32_t Crc = 0;
  bool operator==(const StreamDigest &O) const {
    return Size == O.Size && Crc == O.Crc;
  }
};

/// One recording's digest: the five stream files (META, QUEUE, SIGNAL,
/// SYSCALL, ASYNC order), the schedule length and virtual makespan, and
/// the race reports (count, and CRC-32 of raceDigestText).
struct GoldenRow {
  std::string Name;
  std::array<StreamDigest, NumStreamKinds> Streams;
  uint64_t Ticks = 0;
  uint64_t VirtualNs = 0;
  uint64_t Races = 0;
  uint32_t RaceCrc = 0;
  bool operator==(const GoldenRow &O) const {
    return Name == O.Name && Streams == O.Streams && Ticks == O.Ticks &&
           VirtualNs == O.VirtualNs && Races == O.Races &&
           RaceCrc == O.RaceCrc;
  }
};

// clang-format off
const GoldenRow Golden[] = {
    {"pbzip", {{{91, 0xcb70d1ff}, {904, 0xef9b03df}, {904, 0x5e4f88a3}, {3064, 0x0efbf97a}, {904, 0xe697981a}}}, 143, 537680, 0, 0x00000000},
    {"barrier", {{{91, 0xcb70d1ff}, {136, 0x3806ba61}, {136, 0x9f2b58f0}, {136, 0xfdcff97f}, {136, 0x0a019b93}}}, 12, 24000, 1, 0x34c56471},
    {"chase-lev-deque", {{{91, 0xcb70d1ff}, {640, 0x738a376d}, {640, 0xb2368543}, {640, 0xf2a2eb59}, {640, 0xea3ee75e}}}, 98, 196000, 0, 0x00000000},
    {"dekker-fences", {{{91, 0xcb70d1ff}, {328, 0xb3bf310c}, {328, 0xb6d60cc8}, {328, 0xb5f11874}, {328, 0xbc047740}}}, 47, 94000, 0, 0x00000000},
    {"linuxrwlocks", {{{91, 0xcb70d1ff}, {208, 0xab721b9d}, {208, 0x558d0c48}, {208, 0x0027fefb}, {208, 0x730225a3}}}, 25, 50000, 1, 0x9775039f},
    {"mcs-lock", {{{91, 0xcb70d1ff}, {496, 0xf0f4329b}, {496, 0x6d9955d3}, {496, 0xaf928ad4}, {496, 0x8c329d02}}}, 73, 146000, 2, 0xf6236c0e},
    {"mpmc-queue", {{{91, 0xcb70d1ff}, {256, 0xd64057af}, {256, 0x076ee729}, {256, 0x487488ab}, {256, 0x7e428064}}}, 34, 68000, 0, 0x00000000},
    {"ms-queue", {{{91, 0xcb70d1ff}, {592, 0x75f604e3}, {592, 0x78518be1}, {592, 0x7cccf11f}, {592, 0x631e95e5}}}, 91, 182000, 5, 0x39b30cb2},
    {"httpd", {{{91, 0x9c811a9d}, {736, 0x0de702d7}, {736, 0x429257e7}, {1968, 0x780143e1}, {736, 0xdc78fd87}}}, 115, 11207563, 4, 0xe3810a5a},
};
// clang-format on

std::string formatRow(const GoldenRow &R) {
  std::string S = "    {\"" + R.Name + "\", {{";
  char Buf[64];
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    std::snprintf(Buf, sizeof(Buf), "%s{%" PRIu64 ", 0x%08" PRIx32 "}",
                  I ? ", " : "", R.Streams[I].Size, R.Streams[I].Crc);
    S += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "}}, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", 0x%08" PRIx32 "},",
                R.Ticks, R.VirtualNs, R.Races, R.RaceCrc);
  return S + Buf;
}

/// One line per report, sorted: (Prior, Current, Size, PriorTid,
/// CurrentTid, Name). Addresses are left out; they move with ASLR.
std::string raceDigestText(const std::vector<RaceReport> &Races) {
  std::vector<std::string> Lines;
  for (const RaceReport &R : Races)
    Lines.push_back(std::to_string(static_cast<unsigned>(R.Prior)) + " " +
                    std::to_string(static_cast<unsigned>(R.Current)) + " " +
                    std::to_string(R.Size) + " " +
                    std::to_string(R.PriorTid) + " " +
                    std::to_string(R.CurrentTid) + " " + R.Name + "\n");
  std::sort(Lines.begin(), Lines.end());
  std::string Text;
  for (const std::string &L : Lines)
    Text += L;
  return Text;
}

const GoldenRow *committedRow(const std::string &Name) {
  for (const GoldenRow &R : Golden)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

std::string freshDir(const std::string &Tag) {
  const std::string Dir = ::testing::TempDir() + "tsr-golden-" + Tag + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Digests the stream files the live writer left in \p Dir.
GoldenRow digestDirectory(const std::string &Name, const std::string &Dir,
                          const RunReport &R) {
  GoldenRow Row;
  Row.Name = Name;
  for (unsigned I = 0; I != NumStreamKinds; ++I) {
    std::ifstream In(Dir + "/" + streamName(static_cast<StreamKind>(I)),
                     std::ios::binary);
    const std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                                     std::istreambuf_iterator<char>());
    Row.Streams[I] = {Bytes.size(), crc32(Bytes)};
  }
  Row.Ticks = R.Sched.Ticks;
  Row.VirtualNs = R.VirtualNs;
  Row.Races = R.Races.size();
  const std::string Text = raceDigestText(R.Races);
  Row.RaceCrc = crc32(Text.data(), Text.size());
  return Row;
}

/// Compares \p Actual with the committed table; on any difference prints
/// the whole actual table in the committed format.
void expectMatchesGolden(const std::vector<GoldenRow> &Actual) {
  bool Same = true;
  for (const GoldenRow &R : Actual) {
    const GoldenRow *Want = committedRow(R.Name);
    if (!Want || !(*Want == R)) {
      ADD_FAILURE() << "golden digest mismatch for " << R.Name
                    << "\n  committed: "
                    << (Want ? formatRow(*Want) : std::string("(none)"))
                    << "\n  actual:    " << formatRow(R);
      Same = false;
    }
  }
  if (!Same) {
    std::string Table = "actual golden table:\n";
    for (const GoldenRow &R : Actual)
      Table += formatRow(R) + "\n";
    std::fputs(Table.c_str(), stdout);
  }
}

pbzip::PbzipConfig pbzipConfig() {
  pbzip::PbzipConfig PC;
  PC.Threads = 3;
  PC.BlockSize = 256;
  return PC;
}

std::vector<uint8_t> pbzipInput() {
  std::vector<uint8_t> Input;
  for (int I = 0; I != 60; ++I) {
    const std::string Chunk = "golden payload " + std::to_string(I % 19) + " ";
    Input.insert(Input.end(), Chunk.begin(), Chunk.end());
  }
  return Input;
}

httpd::HttpdConfig httpdConfig() {
  httpd::HttpdConfig HC;
  HC.Workers = 2;
  HC.Connections = 2;
  HC.TotalRequests = 8;
  return HC;
}

/// One pinned workload.
struct GoldenWorkload {
  std::string Name;
  RecordPolicy Policy;
  std::function<void(Session &)> Setup; ///< may be null
  std::function<void()> Body;
};

std::vector<GoldenWorkload> goldenWorkloads() {
  std::vector<GoldenWorkload> W;
  W.push_back({"pbzip", RecordPolicy::full(),
               [](Session &S) {
                 S.env().putFile(pbzipConfig().InputPath, pbzipInput());
               },
               [] { pbzip::compressFile(pbzipConfig()); }});
  for (const litmus::LitmusTest &T : litmus::suite())
    W.push_back({T.Name, RecordPolicy::full(), nullptr, T.Body});
  W.push_back({"httpd", RecordPolicy::httpd(),
               [](Session &S) {
                 S.env().addPeer("ab",
                                 httpd::makeLoadGen(httpdConfig().Port, 2, 4));
               },
               [] {
                 const httpd::HttpdResult R = httpd::runServer(httpdConfig());
                 EXPECT_EQ(R.Served, httpdConfig().TotalRequests);
               }});
  return W;
}

constexpr uint64_t FlushEveryTicks = 4;

SessionConfig goldenConfig(const GoldenWorkload &W) {
  SessionConfig C =
      presets::tsan11rec(StrategyKind::Random, Mode::Record, W.Policy);
  C.Seed0 = 523;
  C.Seed1 = 623;
  C.Env.Seed0 = 723;
  C.Env.Seed1 = 823;
  // The liveness rescheduler fires on wall-clock stalls; it would inject
  // timing-dependent Reschedule events into ASYNC.
  C.LivenessIntervalMs = 0;
  return C;
}

TEST(GoldenDemo, SoloRecordingsMatchCommittedDigests) {
  std::vector<GoldenRow> Actual;
  for (const GoldenWorkload &W : goldenWorkloads()) {
    const std::string Dir = freshDir(W.Name);
    SessionConfig C = goldenConfig(W);
    C.Flush.Directory = Dir;
    C.Flush.EveryTicks = FlushEveryTicks;
    Session S(C);
    if (W.Setup)
      W.Setup(S);
    const RunReport R = S.run(W.Body);
    EXPECT_EQ(R.Desync, DesyncKind::None) << W.Name;
    EXPECT_EQ(R.Sched.SpuriousWakeups, 0u) << W.Name;
    EXPECT_EQ(R.RecordedDemo.streamSize(StreamKind::Queue), 0u) << W.Name;
    Actual.push_back(digestDirectory(W.Name, Dir, R));
    std::filesystem::remove_all(Dir);
  }
  EXPECT_EQ(Actual.size(), std::size(Golden));
  expectMatchesGolden(Actual);
}

TEST(GoldenDemo, FleetSessionsMatchTheirSoloRows) {
  // Four sessions recording concurrently through one shared writer
  // backend must each leave exactly the bytes of the solo recording.
  const std::vector<GoldenWorkload> All = goldenWorkloads();
  const std::vector<GoldenWorkload> Fleet = {All[0], All[1], All[2],
                                             All.back()};
  const std::string Root = freshDir("fleet");
  SessionPool::Options PO;
  PO.Concurrency = 4;
  PO.DemoRoot = Root;
  PO.FlushEveryTicks = FlushEveryTicks;
  SessionPool Pool(PO);
  for (const GoldenWorkload &W : Fleet)
    Pool.submit({W.Name, goldenConfig(W), W.Setup, W.Body});
  const FleetReport Report = Pool.runAll();
  ASSERT_EQ(Report.SessionsRun, Fleet.size());

  std::vector<GoldenRow> Actual;
  for (const PoolSessionResult &S : Report.Sessions) {
    EXPECT_EQ(S.Report.Desync, DesyncKind::None) << S.Name;
    Actual.push_back(digestDirectory(S.Name, Root + "/" + S.Name, S.Report));
  }
  expectMatchesGolden(Actual);
  std::filesystem::remove_all(Root);
}

} // namespace
