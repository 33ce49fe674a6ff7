// Tests for the multi-process distributed backend (src/dist/): the
// CRC-framed wire protocol, control payload codecs, deterministic chaos
// schedules, task-slot marshalling, and the end-to-end invariant — a
// --dist-workers run forks real worker processes, survives real SIGKILLs
// via heartbeats, deadlines, re-dispatch and lineage recovery, and still
// produces results byte-identical to the single-process engine.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dist/chaos.h"
#include "dist/coordinator.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "runtime/engine.h"
#include "runtime/events.h"
#include "runtime/metrics_registry.h"
#include "runtime/serialize.h"
#include "runtime/trace.h"
#include "runtime/wave_io.h"

namespace diablo::dist {
namespace {

using runtime::ChainTally;
using runtime::Dataset;
using runtime::Engine;
using runtime::EngineConfig;
using runtime::HashedRow;
using runtime::HashedVec;
using runtime::Serialize;
using runtime::Value;
using runtime::ValueVec;
using runtime::WaveSlots;

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ------------------------------- wire ---------------------------------

TEST(WireTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(WireTest, FrameRoundTrip) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string(1000, '\xff')}) {
    std::string wire;
    EncodeFrame(FrameType::kTaskResult, payload, &wire);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
    auto frame = DecodeFrame(wire);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, FrameType::kTaskResult);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(WireTest, TruncatedFrameRejectedAtEveryPrefix) {
  std::string wire;
  EncodeFrame(FrameType::kTask, "task payload bytes", &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    auto frame = DecodeFrame(wire.substr(0, len));
    EXPECT_FALSE(frame.ok()) << "prefix of length " << len << " accepted";
  }
}

TEST(WireTest, EveryBitFlipRejected) {
  std::string wire;
  EncodeFrame(FrameType::kHello, "hello payload", &wire);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = wire;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      auto frame = DecodeFrame(flipped);
      // Any surviving decode must at least not silently change the
      // payload; for this frame every single-bit flip is caught.
      EXPECT_FALSE(frame.ok())
          << "bit " << bit << " of byte " << i << " flipped undetected";
    }
  }
}

TEST(WireTest, OversizedLengthPrefixFailsFast) {
  // Header that declares a 4 GiB payload: the reader must error out
  // without ever buffering anything near that.
  std::string wire;
  EncodeFrame(FrameType::kTask, "small", &wire);
  // Overwrite the length field (offset 8) with 0xFFFFFFFF.
  wire[8] = wire[9] = wire[10] = wire[11] = static_cast<char>(0xFF);
  FrameReader reader(/*max_frame_bytes=*/1024);
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  auto next = reader.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("corrupt frame"), std::string::npos)
      << next.status().ToString();
}

TEST(WireTest, BadMagicUnknownTypeAndReservedRejected) {
  std::string good;
  EncodeFrame(FrameType::kHeartbeat, "", &good);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  std::string bad_type = good;
  bad_type[4] = static_cast<char>(99);
  EXPECT_FALSE(DecodeFrame(bad_type).ok());

  std::string bad_reserved = good;
  bad_reserved[5] = 1;
  EXPECT_FALSE(DecodeFrame(bad_reserved).ok());

  std::string trailing = good + "z";
  EXPECT_FALSE(DecodeFrame(trailing).ok());
}

TEST(WireTest, IncrementalReaderReassemblesByteByByte) {
  std::string stream;
  EncodeFrame(FrameType::kTask, "first", &stream);
  EncodeFrame(FrameType::kTaskResult, std::string(300, 'r'), &stream);

  FrameReader reader;
  std::vector<Frame> frames;
  for (char c : stream) {
    reader.Feed(&c, 1);
    for (;;) {
      Frame frame;
      auto next = reader.Next(&frame);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!*next) break;
      frames.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kTask);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].type, FrameType::kTaskResult);
  EXPECT_EQ(frames[1].payload, std::string(300, 'r'));
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(WireTest, ReaderErrorIsSticky) {
  std::string bad;
  EncodeFrame(FrameType::kHeartbeat, "beat", &bad);
  bad[12] ^= 0x01;  // corrupt the CRC field
  FrameReader reader;
  reader.Feed(bad.data(), bad.size());
  Frame frame;
  EXPECT_FALSE(reader.Next(&frame).ok());
  // A pristine frame after the corruption must not resurrect the stream.
  std::string good;
  EncodeFrame(FrameType::kHeartbeat, "", &good);
  reader.Feed(good.data(), good.size());
  EXPECT_FALSE(reader.Next(&frame).ok());
}

// --------------------------- control payloads --------------------------

TEST(PayloadTest, HelloRoundTrip) {
  std::string payload =
      EncodeHelloPayload(7, 12345, 0xdeadbeefcafef00dull, 3.25e9);
  int worker_id = 0;
  int64_t pid = 0;
  uint64_t token = 0;
  double steady_now_us = 0;
  ASSERT_TRUE(
      DecodeHelloPayload(payload, &worker_id, &pid, &token, &steady_now_us)
          .ok());
  EXPECT_EQ(worker_id, 7);
  EXPECT_EQ(pid, 12345);
  EXPECT_EQ(token, 0xdeadbeefcafef00dull);
  EXPECT_EQ(steady_now_us, 3.25e9);
  EXPECT_FALSE(DecodeHelloPayload(payload + "x", &worker_id, &pid, &token,
                                  &steady_now_us)
                   .ok());
  EXPECT_FALSE(DecodeHelloPayload(payload.substr(0, 10), &worker_id, &pid,
                                  &token, &steady_now_us)
                   .ok());
}

TEST(PayloadTest, TelemetryRoundTrip) {
  runtime::WorkerTelemetry telemetry;
  telemetry.task = 5;
  telemetry.attempt = 2;
  telemetry.peak_rss_bytes = 123456789;
  runtime::WorkerSpan span;
  span.start_abs_us = 1.5e12;
  span.dur_us = 250.25;
  span.partition = 5;
  span.attempt = 2;
  span.stage_id = 7;
  span.rows = 4096;
  telemetry.spans.push_back(span);

  std::string payload = EncodeTelemetryPayload(telemetry);
  runtime::WorkerTelemetry got;
  ASSERT_TRUE(DecodeTelemetryPayload(payload, &got).ok());
  EXPECT_EQ(got.task, 5);
  EXPECT_EQ(got.attempt, 2);
  EXPECT_EQ(got.peak_rss_bytes, 123456789);
  ASSERT_EQ(got.spans.size(), 1u);
  EXPECT_EQ(got.spans[0].start_abs_us, 1.5e12);
  EXPECT_EQ(got.spans[0].dur_us, 250.25);
  EXPECT_EQ(got.spans[0].partition, 5);
  EXPECT_EQ(got.spans[0].attempt, 2);
  EXPECT_EQ(got.spans[0].stage_id, 7);
  EXPECT_EQ(got.spans[0].rows, 4096);

  // Trailing bytes and truncation at every split point are rejected.
  EXPECT_FALSE(DecodeTelemetryPayload(payload + "x", &got).ok());
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeTelemetryPayload(payload.substr(0, len), &got).ok())
        << "prefix of length " << len << " accepted";
  }
  // Oversized span count must fail fast without allocating (the count
  // field follows task, attempt, and the RSS reading: offset 16).
  std::string oversized = payload;
  oversized[16] = oversized[17] = oversized[18] = oversized[19] =
      static_cast<char>(0xFF);
  EXPECT_FALSE(DecodeTelemetryPayload(oversized, &got).ok());
}

TEST(PayloadTest, TaskAndResultRoundTrip) {
  std::string task = EncodeTaskPayload(3, 2);
  int p = 0, attempt = 0;
  ASSERT_TRUE(DecodeTaskPayload(task, &p, &attempt).ok());
  EXPECT_EQ(p, 3);
  EXPECT_EQ(attempt, 2);

  Status failure = Status::TaskLost("payload corrupted in flight");
  std::string result = EncodeTaskResultPayload(5, 1, failure, "SLOTBYTES");
  Status decoded_status = Status::OK();
  std::string_view slots;
  ASSERT_TRUE(
      DecodeTaskResultPayload(result, &p, &attempt, &decoded_status, &slots)
          .ok());
  EXPECT_EQ(p, 5);
  EXPECT_EQ(attempt, 1);
  EXPECT_EQ(decoded_status.code(), StatusCode::kTaskLost);
  EXPECT_EQ(decoded_status.message(), "payload corrupted in flight");
  EXPECT_EQ(slots, "SLOTBYTES");

  // Oversized message length prefix must fail fast. The length field
  // follows p, attempt, and the status code (offset 12).
  std::string oversized = EncodeTaskResultPayload(0, 0, failure, "");
  oversized[12] = oversized[13] = oversized[14] = oversized[15] =
      static_cast<char>(0xFF);
  EXPECT_FALSE(
      DecodeTaskResultPayload(oversized, &p, &attempt, &decoded_status, &slots)
          .ok());
}

// -------------------------------- chaos --------------------------------

TEST(ChaosTest, ExplicitDirectiveConsumedOnce) {
  ChaosConfig config;
  config.kills.push_back({/*stage=*/3, /*worker=*/1, /*after_results=*/2});
  ChaosSchedule schedule(config);
  EXPECT_FALSE(schedule.ShouldKill(3, 1, 1));
  EXPECT_FALSE(schedule.ShouldKill(2, 1, 2));
  EXPECT_FALSE(schedule.ShouldKill(3, 0, 2));
  EXPECT_TRUE(schedule.ShouldKill(3, 1, 2));
  // A respawned worker reaching the same coordinate must survive.
  EXPECT_FALSE(schedule.ShouldKill(3, 1, 2));
}

TEST(ChaosTest, RateDrawsAreDeterministicPerSeed) {
  ChaosConfig config;
  config.seed = 42;
  config.kill_rate = 0.3;
  ChaosSchedule a(config), b(config);
  int kills = 0;
  for (int stage = 1; stage <= 8; ++stage) {
    for (int worker = 0; worker < 4; ++worker) {
      for (int results = 0; results < 4; ++results) {
        bool ka = a.ShouldKill(stage, worker, results);
        bool kb = b.ShouldKill(stage, worker, results);
        EXPECT_EQ(ka, kb);
        kills += ka ? 1 : 0;
      }
    }
  }
  // ~30% of 128 coordinates should fire; exact count is seed-determined.
  EXPECT_GT(kills, 0);
  EXPECT_LT(kills, 128);

  ChaosConfig off;
  off.kill_rate = 0.0;
  ChaosSchedule never(off);
  EXPECT_FALSE(never.ShouldKill(1, 0, 0));
  EXPECT_FALSE(never.enabled());
}

// ------------------------- task-slot marshalling ------------------------

TEST(WaveSlotsTest, RoundTripAllSlotKinds) {
  const int kTasks = 3;
  std::vector<ValueVec> rows(kTasks), rows2(kTasks);
  std::vector<HashedVec> hashed(kTasks), hashed2(kTasks);
  std::vector<std::vector<HashedVec>> buckets(kTasks), buckets2(kTasks);
  std::vector<std::optional<Value>> partials(kTasks), partials2(kTasks);
  std::vector<int64_t> nums(kTasks, 0), nums2(kTasks, 0);
  std::vector<std::vector<int64_t>> num_vecs(kTasks), num_vecs2(kTasks);
  std::vector<ChainTally> tallies(kTasks), tallies2(kTasks);

  rows[1] = {I(1), Value::MakePair(S("k"), D(2.5)), Value::MakeBag({I(7)})};
  hashed[1] = {HashedRow{42u, Value::MakePair(S("a"), I(1))},
               HashedRow{7u, Value::MakePair(S("b"), I(2))}};
  buckets[1] = {HashedVec{HashedRow{1u, I(10)}}, HashedVec{},
                HashedVec{HashedRow{2u, I(20)}, HashedRow{3u, I(30)}}};
  partials[1] = D(6.75);
  nums[1] = 987654321;
  num_vecs[1] = {11, 0, 22};
  tallies[1].Reset(2);
  tallies[1].Record(0, I(5));
  tallies[1].Record(0, I(6));
  tallies[1].Record(1, S("wide row"));

  WaveSlots src{&rows, &hashed, &buckets, &partials, &nums, &num_vecs,
                &tallies};
  auto bytes = runtime::EncodeTaskSlots(src, 1);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  WaveSlots dst{&rows2, &hashed2, &buckets2, &partials2, &nums2, &num_vecs2,
                &tallies2};
  ASSERT_TRUE(runtime::DecodeTaskSlots(dst, 1, *bytes).ok());
  EXPECT_EQ(rows2[1], rows[1]);
  ASSERT_EQ(hashed2[1].size(), hashed[1].size());
  for (size_t i = 0; i < hashed[1].size(); ++i) {
    EXPECT_EQ(hashed2[1][i].hash, hashed[1][i].hash);
    EXPECT_EQ(hashed2[1][i].row, hashed[1][i].row);
  }
  ASSERT_EQ(buckets2[1].size(), buckets[1].size());
  EXPECT_EQ(buckets2[1][2][1].row, I(30));
  ASSERT_TRUE(partials2[1].has_value());
  EXPECT_EQ(Serialize(*partials2[1]), Serialize(*partials[1]));
  EXPECT_EQ(nums2[1], nums[1]);
  EXPECT_EQ(num_vecs2[1], num_vecs[1]);
  EXPECT_EQ(tallies2[1].rows, tallies[1].rows);
  EXPECT_EQ(tallies2[1].sample_bytes, tallies[1].sample_bytes);
  // Untouched tasks stay untouched.
  EXPECT_TRUE(rows2[0].empty());
  EXPECT_FALSE(partials2[0].has_value());
}

TEST(WaveSlotsTest, EmptyPartialRoundTrips) {
  std::vector<std::optional<Value>> partials(2), partials2(2);
  WaveSlots src;
  src.partials = &partials;
  auto bytes = runtime::EncodeTaskSlots(src, 0);
  ASSERT_TRUE(bytes.ok());
  WaveSlots dst;
  dst.partials = &partials2;
  ASSERT_TRUE(runtime::DecodeTaskSlots(dst, 0, *bytes).ok());
  EXPECT_FALSE(partials2[0].has_value());
}

TEST(WaveSlotsTest, ShapeMismatchAndCorruptionRejected) {
  std::vector<ValueVec> rows(1);
  rows[0] = {I(1), I(2)};
  WaveSlots src;
  src.rows = &rows;
  auto bytes = runtime::EncodeTaskSlots(src, 0);
  ASSERT_TRUE(bytes.ok());

  // Decoding into a wave with a different slot shape is corruption.
  std::vector<int64_t> nums(1, 0);
  WaveSlots wrong;
  wrong.nums = &nums;
  EXPECT_FALSE(runtime::DecodeTaskSlots(wrong, 0, *bytes).ok());

  // Trailing bytes and truncation at every split point are rejected.
  std::vector<ValueVec> rows2(1);
  WaveSlots dst;
  dst.rows = &rows2;
  EXPECT_FALSE(runtime::DecodeTaskSlots(dst, 0, *bytes + "x").ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    EXPECT_FALSE(runtime::DecodeTaskSlots(dst, 0, bytes->substr(0, len)).ok())
        << "prefix of length " << len << " accepted";
  }
  // Out-of-range task index.
  EXPECT_FALSE(runtime::DecodeTaskSlots(dst, 5, *bytes).ok());
}

// ----------------------------- end to end ------------------------------

/// Wordcount-shaped pipeline: map to (word, 1) then reduceByKey(+).
StatusOr<ValueVec> RunWordcount(Engine& engine) {
  ValueVec words;
  const char* kWords[] = {"spark", "flink", "diablo", "spark", "loop",
                          "spark", "flink", "array", "loop",  "diablo"};
  for (int rep = 0; rep < 12; ++rep) {
    for (const char* w : kWords) words.push_back(S(w));
  }
  Dataset ds = engine.Parallelize(std::move(words));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset pairs, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return Value::MakePair(v, I(1));
      }, "wc.pair"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset counts,
      engine.ReduceByKey(
          pairs,
          [](const Value& a, const Value& b) -> StatusOr<Value> {
            return I(a.AsInt() + b.AsInt());
          },
          "wc.count"));
  return engine.Collect(counts);
}

/// PageRank-shaped iteration: float ranks folded over three rounds of
/// map + reduceByKey. Floating-point, so byte-identity is the real test.
StatusOr<ValueVec> RunIterativeRanks(Engine& engine) {
  ValueVec init;
  for (int i = 0; i < 40; ++i) {
    init.push_back(Value::MakePair(I(i % 7), D(0.01 * i + 0.1)));
  }
  Dataset ranks = engine.Parallelize(std::move(init));
  for (int step = 0; step < 3; ++step) {
    DIABLO_ASSIGN_OR_RETURN(
        Dataset contrib,
        engine.Map(ranks, [](const Value& v) -> StatusOr<Value> {
          const ValueVec& kv = v.tuple();
          return Value::MakePair(I((kv[0].AsInt() + 1) % 7),
                                 D(kv[1].AsDouble() * 0.85 + 0.15));
        }, "pr.contrib"));
    DIABLO_ASSIGN_OR_RETURN(
        ranks, engine.ReduceByKey(
                   contrib,
                   [](const Value& a, const Value& b) -> StatusOr<Value> {
                     return D(a.AsDouble() + b.AsDouble());
                   },
                   "pr.sum"));
  }
  return engine.Collect(ranks);
}

std::string Bytes(const ValueVec& rows) {
  std::string out;
  for (const Value& v : rows) out += Serialize(v);
  return out;
}

EngineConfig DistConfigured(Coordinator* coordinator) {
  EngineConfig config;
  config.remote = coordinator;
  config.dist_lose_on_kill = true;
  return config;
}

DistConfig FastDist(int workers) {
  DistConfig config;
  config.num_workers = workers;
  config.heartbeat_ms = 50;
  return config;
}

TEST(DistEndToEndTest, WordcountMatchesLocalByteForByte) {
  Engine local((EngineConfig()));
  auto expected = RunWordcount(local);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Coordinator coordinator(FastDist(2));
  Engine dist(DistConfigured(&coordinator));
  auto got = RunWordcount(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_GT(dist.metrics().total_dist_tasks(), 0);
  EXPECT_EQ(local.metrics().total_dist_tasks(), 0);
}

TEST(DistEndToEndTest, IterativeRanksMatchLocalByteForByte) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Coordinator coordinator(FastDist(3));
  Engine dist(DistConfigured(&coordinator));
  auto got = RunIterativeRanks(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
}

TEST(DistEndToEndTest, SurvivesTwoChaosKillsWithIdenticalOutput) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok());

  // Kill worker 0 at the very start of the first combine wave and
  // worker 1 mid-way through a later wave: both deaths land mid-wave
  // with tasks in flight, exercising redistribute + re-dispatch + the
  // lineage recovery path for the lost partitions.
  DistConfig config = FastDist(3);
  config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  config.chaos.kills.push_back({/*stage=*/4, /*worker=*/1, 1});
  Coordinator coordinator(config);
  Engine dist(DistConfigured(&coordinator));
  auto got = RunIterativeRanks(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(coordinator.chaos_kills(), 2);
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 2);
}

TEST(DistEndToEndTest, RespawnsWhenEveryWorkerIsDead) {
  Engine local((EngineConfig()));
  auto expected = RunWordcount(local);
  ASSERT_TRUE(expected.ok());

  // Single worker killed on connect: no survivors to degrade onto, so
  // the coordinator must spend its respawn budget.
  DistConfig config = FastDist(1);
  config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  Coordinator coordinator(config);
  Engine dist(DistConfigured(&coordinator));
  auto got = RunWordcount(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(coordinator.chaos_kills(), 1);
  EXPECT_GE(coordinator.respawns_used(), 1);
}

TEST(DistEndToEndTest, DeadlineRecoversFromStalledWorker) {
  Engine local((EngineConfig()));
  auto expected = RunWordcount(local);
  ASSERT_TRUE(expected.ok());

  // Worker 0 sleeps 10x the task deadline before every task: the
  // coordinator must declare it dead and finish on the survivors.
  DistConfig config = FastDist(2);
  config.task_deadline_ms = 200;
  config.stall_worker = 0;
  config.stall_ms = 2000;
  Coordinator coordinator(config);
  Engine dist(DistConfigured(&coordinator));
  auto got = RunWordcount(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 1);
  EXPECT_GE(dist.metrics().total_dist_retries(), 1);
}

TEST(DistEndToEndTest, SimulatedFaultsAccountIdenticallyOverDist) {
  // The PR 1 fault-injection oracle doubles as the distributed
  // correctness oracle: simulated kills/retries must charge the exact
  // same attempt counts and recovery seconds whether the attempt runs
  // in-process or in a forked worker.
  EngineConfig faulty;
  faulty.faults.seed = 1234;
  faulty.faults.task_failure_rate = 0.2;
  Engine local(faulty);
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Coordinator coordinator(FastDist(2));
  EngineConfig dist_config = faulty;
  dist_config.remote = &coordinator;
  dist_config.dist_lose_on_kill = true;
  Engine dist(dist_config);
  auto got = RunIterativeRanks(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(dist.metrics().total_attempts(), local.metrics().total_attempts());
  EXPECT_EQ(dist.metrics().total_recovery_seconds(),
            local.metrics().total_recovery_seconds());
}

TEST(DistEndToEndTest, ChaosOutputIdenticalWithTracingOnAndOff) {
  // Telemetry frames flow only when tracing (or a registry) is on; the
  // program output must be byte-identical either way, even while chaos
  // is killing workers mid-wave.
  DistConfig config = FastDist(3);
  config.chaos.kills.push_back({/*stage=*/2, /*worker=*/1, 1});
  auto run = [&](bool tracing) {
    Coordinator coordinator(config);
    EngineConfig engine_config = DistConfigured(&coordinator);
    engine_config.tracing = tracing;
    Engine dist(engine_config);
    auto got = RunIterativeRanks(dist);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? Bytes(*got) : std::string();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(DistEndToEndTest, ChaosTelemetryMergesWorkerSpansAndEvents) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok());

  runtime::EventLog events;
  runtime::MetricsRegistry registry;
  DistConfig config = FastDist(3);
  config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  config.events = &events;
  Coordinator coordinator(config);
  EngineConfig engine_config = DistConfigured(&coordinator);
  engine_config.events = &events;
  engine_config.registry = &registry;
  Engine dist(engine_config);
  auto got = RunIterativeRanks(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));

  // Every SIGKILL produced a chaos_kill event, every declared death a
  // worker_lost event, and the lost partitions a lineage_recovery.
  EXPECT_EQ(events.CountOf("chaos_kill"), coordinator.chaos_kills());
  EXPECT_GE(events.CountOf("worker_lost"),
            dist.metrics().total_dist_workers_lost());
  EXPECT_GE(events.CountOf("lineage_recovery"), 1);

  // Surviving workers' telemetry spans were spliced into the driver
  // trace as distinct process lanes.
  ASSERT_NE(dist.trace(), nullptr);
  std::vector<runtime::TraceSpan> spans = dist.trace()->Snapshot();
  std::set<int> processes;
  for (const auto& s : spans) {
    if (s.kind == runtime::SpanKind::kTask && s.process > 0) {
      processes.insert(s.process);
    }
  }
  EXPECT_GE(processes.size(), 2u)
      << "expected task spans from at least two surviving worker processes";
  // Worker-side counters reached the registry and the stage stats.
  EXPECT_GT(registry.CounterValue("diablo_stages_total"), 0);
  EXPECT_GT(dist.metrics().max_peak_rss_bytes(), 0);
}

/// Forwards every wave to `inner` and counts the ones with tasks — a
/// wrapper that, like the ledger's timing one, forwards RunWave only.
class CountingRemote : public runtime::RemoteExecutor {
 public:
  explicit CountingRemote(runtime::RemoteExecutor* inner) : inner_(inner) {}

  Status RunWave(const runtime::RemoteTaskWave& wave,
                 runtime::RemoteWaveStats* stats) override {
    if (!wave.task_work.empty()) ++waves_;
    return inner_->RunWave(wave, stats);
  }

  int waves() const { return waves_; }

 private:
  runtime::RemoteExecutor* inner_;
  int waves_ = 0;
};

/// RunIterativeRanks inside one Engine::RemoteScope, as a program run.
StatusOr<ValueVec> RunIterativeRanksScoped(Engine& engine) {
  Engine::RemoteScope scope(&engine);
  return RunIterativeRanks(engine);
}

/// True when this process has no child left, reaped or not.
bool NoChildLeft() {
  int wstatus = 0;
  return waitpid(-1, &wstatus, WNOHANG) < 0 && errno == ECHILD;
}

TEST(DistReplicaTest, ScopedRunForksEachWorkerOnce) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Coordinator coordinator(FastDist(3));
  CountingRemote counting(&coordinator);
  EngineConfig config = DistConfigured(&coordinator);
  config.remote = &counting;
  Engine dist(config);
  auto got = RunIterativeRanksScoped(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  // Every wave of the scope ran on the same three replicas.
  EXPECT_GT(counting.waves(), 3);
  EXPECT_EQ(coordinator.forks(), 3);
  EXPECT_TRUE(NoChildLeft());
}

TEST(DistReplicaTest, ReplicasSurviveTwoChaosKillsWithIdenticalOutput) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok());

  // The kill schedule of SurvivesTwoChaosKillsWithIdenticalOutput, now
  // hitting replicas: a killed replica's tasks go to the survivors and
  // the next wave re-forks it from the coordinator's state.
  DistConfig config = FastDist(3);
  config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  config.chaos.kills.push_back({/*stage=*/4, /*worker=*/1, 1});
  Coordinator coordinator(config);
  Engine dist(DistConfigured(&coordinator));
  auto got = RunIterativeRanksScoped(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(coordinator.chaos_kills(), 2);
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 2);
  EXPECT_GT(coordinator.forks(), 3);
  EXPECT_TRUE(NoChildLeft());
}

TEST(DistReplicaTest, CoordinatorEngineAtFourHostThreads) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok());

  Coordinator coordinator(FastDist(2));
  EngineConfig config = DistConfigured(&coordinator);
  config.host_threads = 4;
  Engine dist(config);
  auto got = RunIterativeRanksScoped(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_EQ(coordinator.forks(), 2);
}

TEST(DistReplicaTest, DivergedReplicasAreReplacedAndOutputUnchanged) {
  Engine local((EngineConfig()));
  auto expected = RunIterativeRanks(local);
  ASSERT_TRUE(expected.ok());

  Coordinator coordinator(FastDist(2));
  Engine dist(DistConfigured(&coordinator));
  const pid_t driver = getpid();
  auto run = [&]() -> StatusOr<ValueVec> {
    Engine::RemoteScope scope(&dist);
    // Forks both replicas at its first wave.
    DIABLO_ASSIGN_OR_RETURN(ValueVec warmup, RunWordcount(dist));
    if (getpid() != driver) {
      // Only a replica's copy of the driver takes this detour: it runs a
      // wave the coordinator never starts, so the replica's next header
      // check fails and it exits like a lost worker.
      Dataset detour = dist.Parallelize(std::move(warmup));
      DIABLO_ASSIGN_OR_RETURN(
          Dataset mapped,
          dist.Map(
              detour, [](const Value& v) -> StatusOr<Value> { return v; },
              "detour"));
      DIABLO_RETURN_IF_ERROR(dist.Force(mapped).status());
    }
    return RunIterativeRanks(dist);
  };
  auto got = run();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 2);
  // Both replicas diverged in the same wave: a mid-wave respawn finished
  // it, and the next wave forked two fresh replicas.
  EXPECT_GE(coordinator.forks(), 5);
  EXPECT_TRUE(NoChildLeft());
}

/// Two healthy rounds, then a map that fails on one row.
StatusOr<ValueVec> RunFailingMidScope(Engine& engine) {
  Engine::RemoteScope scope(&engine);
  DIABLO_ASSIGN_OR_RETURN(ValueVec ranks, RunIterativeRanks(engine));
  Dataset ds = engine.Parallelize(std::move(ranks));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset bad, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        if (v.tuple()[0].AsInt() == 3) {
          return Status::RuntimeError("rank of vertex 3 rejected");
        }
        return v;
      }, "pr.check"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset summed,
      engine.ReduceByKey(
          bad,
          [](const Value& a, const Value& b) -> StatusOr<Value> {
            return D(a.AsDouble() + b.AsDouble());
          },
          "pr.resum"));
  return engine.Collect(summed);
}

TEST(DistReplicaTest, TaskErrorMidScopeReturnsExactStatusAndReapsAll) {
  Engine local((EngineConfig()));
  auto expected = RunFailingMidScope(local);
  ASSERT_FALSE(expected.ok());

  Coordinator coordinator(FastDist(2));
  Engine dist(DistConfigured(&coordinator));
  auto got = RunFailingMidScope(dist);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kRuntimeError);
  EXPECT_EQ(got.status().ToString(), expected.status().ToString());
  EXPECT_TRUE(NoChildLeft());
}

TEST(DistReplicaTest, UnscopedWavesForkEveryWorkerPerWave) {
  Engine local((EngineConfig()));
  auto expected = RunWordcount(local);
  ASSERT_TRUE(expected.ok());

  Coordinator coordinator(FastDist(2));
  CountingRemote counting(&coordinator);
  EngineConfig config = DistConfigured(&coordinator);
  config.remote = &counting;
  Engine dist(config);
  auto got = RunWordcount(dist);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(*expected));
  EXPECT_GT(counting.waves(), 1);
  EXPECT_EQ(coordinator.forks(), 2 * counting.waves());
  EXPECT_TRUE(NoChildLeft());
}

TEST(DistEndToEndTest, ExhaustedRespawnBudgetFailsCleanly) {
  // Every (stage, worker, results) coordinate kills: after the respawn
  // budget is spent the wave must fail with kDistError — bounded, no
  // hang, no partial output mistaken for success.
  DistConfig config = FastDist(1);
  config.chaos.kill_rate = 1.0;
  config.max_respawns = 2;
  Coordinator coordinator(config);
  Engine dist(DistConfigured(&coordinator));
  auto got = RunWordcount(dist);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDistError);
  EXPECT_NE(got.status().message().find("respawn budget"), std::string::npos)
      << got.status().ToString();
}

}  // namespace
}  // namespace diablo::dist
