// EventLog: ring wrap, sequence numbering, min_seq filtering, per-kind
// counters, and the /events JSON shape.
#include "obs/events.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace wsc::obs {
namespace {

TEST(EventLogTest, EmitAndSnapshotRoundTrip) {
  EventLog log(8);
  log.emit(EventKind::BreakerOpen, "transport", "tripped", 3);
  log.emit(EventKind::StaleServe, "Svc.op", "served stale", 1500);

  std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, EventKind::BreakerOpen);
  EXPECT_EQ(events[0].scope, "transport");
  EXPECT_EQ(events[0].detail, "tripped");
  EXPECT_EQ(events[0].value, 3u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(log.total_emitted(), 2u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, RingWrapDropsOldestKeepsSeq) {
  EventLog log(4);
  for (int i = 1; i <= 6; ++i)
    log.emit(EventKind::SlowCall, "s",
             std::string("e").append(std::to_string(i)),
             static_cast<std::uint64_t>(i));
  std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3u);  // 1 and 2 overwritten
  EXPECT_EQ(events.back().seq, 6u);
  EXPECT_EQ(events.back().detail, "e6");
  EXPECT_EQ(log.total_emitted(), 6u);
  EXPECT_EQ(log.dropped(), 2u);
}

TEST(EventLogTest, MinSeqFiltersAlreadySeenEvents) {
  EventLog log(8);
  for (int i = 0; i < 5; ++i) log.emit(EventKind::Lifecycle, "s", "d");
  EXPECT_EQ(log.snapshot(3).size(), 2u);   // seq 4, 5
  EXPECT_EQ(log.snapshot(5).size(), 0u);
  EXPECT_EQ(log.snapshot(99).size(), 0u);  // past the end: empty, not UB
}

TEST(EventLogTest, PerKindCounters) {
  EventLog log(8);
  log.emit(EventKind::EvictionBurst, "cache", "x", 12);
  log.emit(EventKind::EvictionBurst, "cache", "y", 9);
  log.emit(EventKind::DeadlineHit, "transport", "z");
  EXPECT_EQ(log.count(EventKind::EvictionBurst), 2u);
  EXPECT_EQ(log.count(EventKind::DeadlineHit), 1u);
  EXPECT_EQ(log.count(EventKind::BreakerOpen), 0u);
}

TEST(EventLogTest, JsonIsParsableAndLimited) {
  EventLog log(16);
  for (int i = 1; i <= 10; ++i)
    log.emit(EventKind::SlowCall, "Svc.op", "call " + std::to_string(i),
             static_cast<std::uint64_t>(i) * 100);

  util::json::Value doc = util::json::parse(log.json(/*limit=*/4));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("dropped"), 0);
  const util::json::Value* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 4u);  // newest 4, oldest first
  EXPECT_EQ(events->array.front().number_or("seq"), 7);
  EXPECT_EQ(events->array.back().number_or("seq"), 10);
  EXPECT_EQ(events->array.back().string_or("kind"), "slow_call");
  EXPECT_EQ(events->array.back().string_or("scope"), "Svc.op");
  EXPECT_EQ(events->array.back().number_or("value"), 1000);
  EXPECT_GE(events->array.back().number_or("age_ms"), 0);
}

TEST(EventLogTest, StringEscapingSurvivesJson) {
  EventLog log(4);
  log.emit(EventKind::Lifecycle, "a\"b", "line1\nline2");
  util::json::Value doc = util::json::parse(log.json());
  const util::json::Value* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 1u);
  EXPECT_EQ(events->array[0].string_or("scope"), "a\"b");
  EXPECT_EQ(events->array[0].string_or("detail"), "line1\nline2");
}

TEST(EventLogTest, ClearResetsEverything) {
  EventLog log(4);
  for (int i = 0; i < 6; ++i) log.emit(EventKind::BreakerProbe, "t", "d");
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.total_emitted(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.count(EventKind::BreakerProbe), 0u);
  log.emit(EventKind::BreakerProbe, "t", "d");
  EXPECT_EQ(log.snapshot().front().seq, 1u);  // numbering restarts
}

TEST(EventLogTest, ProcessWideSingletonIsStable) {
  EventLog& a = event_log();
  EventLog& b = event_log();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.capacity(), 256u);
}

}  // namespace
}  // namespace wsc::obs
