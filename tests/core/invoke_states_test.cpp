// Characterization of CachingServiceClient::invoke(): one client is driven
// through every state the call can take — fresh hit, expired refetch,
// stale-while-revalidate, refresh-ahead, stale-if-error, 304 revalidation,
// coalesced follower, the follower's NoValue fallback, and an HTTP 4xx that
// must not be absorbed by stale serving — and each state's exact CacheStats
// delta and obs::Outcome record are pinned.  Any change to how invoke()
// branches or counts shows up here as a counter or outcome diff.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/client.hpp"
#include "http/cache_headers.hpp"
#include "obs/trace.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/inproc_transport.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace wsc::cache {
namespace {

using reflect::Object;
using soap::Parameter;
using std::chrono::milliseconds;
using std::chrono::seconds;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

constexpr const char* kEndpoint = "inproc://svc/states";

/// Transport decorator with a scripted answer: forward, or fail the way a
/// given kind of origin failure does.  While the gate is closed every post
/// parks, so a leader can be held in flight while a follower joins.
class ScriptedTransport final : public transport::Transport {
 public:
  enum class Answer { Forward, TransportFailure, Http404, Http503 };

  explicit ScriptedTransport(std::shared_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  transport::WireResponse post(const util::Uri& endpoint,
                               const transport::WireRequest& request) override {
    Answer answer;
    {
      std::unique_lock lock(mu_);
      ++calls_;
      arrived_.notify_all();
      released_.wait(lock, [this] { return open_; });
      answer = answer_;
    }
    switch (answer) {
      case Answer::Forward:
        return inner_->post(endpoint, request);
      case Answer::TransportFailure:
        throw TransportError("scripted: connection refused",
                             /*retryable=*/false);
      case Answer::Http404:
        throw HttpError(404, "scripted: not found");
      case Answer::Http503:
        throw HttpError(503, "scripted: unavailable");
    }
    throw Error("unreachable");
  }
  using Transport::post;

  void answer(Answer a) {
    std::lock_guard lock(mu_);
    answer_ = a;
  }
  void set_open(bool open) {
    std::lock_guard lock(mu_);
    open_ = open;
    if (open) released_.notify_all();
  }
  void await_calls(int n) {
    std::unique_lock lock(mu_);
    arrived_.wait(lock, [&] { return calls_ >= n; });
  }
  int calls() const {
    std::lock_guard lock(mu_);
    return calls_;
  }

 private:
  std::shared_ptr<Transport> inner_;
  mutable std::mutex mu_;
  std::condition_variable arrived_, released_;
  int calls_ = 0;
  bool open_ = true;
  Answer answer_ = Answer::Forward;
};

/// Enables the process tracer for one test (invoke() reports to it) and
/// leaves it off and empty afterwards.
struct ScopedTracer {
  ScopedTracer() {
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
    obs::tracer().set_sample_every(1);
  }
  ~ScopedTracer() {
    obs::tracer().set_enabled(false);
    obs::tracer().reset();
  }
};

/// Every client-visible counter, zero entries dropped, so an expected
/// delta lists only what a state touches.
using Counts = std::map<std::string, std::uint64_t>;

Counts counts_of(const StatsSnapshot& s) {
  Counts all{{"hits", s.hits},
             {"misses", s.misses},
             {"stores", s.stores},
             {"rejected_stores", s.rejected_stores},
             {"expirations", s.expirations},
             {"evictions", s.evictions},
             {"invalidations", s.invalidations},
             {"revalidations", s.revalidations},
             {"uncacheable", s.uncacheable},
             {"stale_serves", s.stale_serves},
             {"coalesced_waits", s.coalesced_waits},
             {"coalesced_failures", s.coalesced_failures},
             {"swr_served", s.stale_while_revalidate_served},
             {"refresh_ahead", s.refresh_ahead_triggered}};
  Counts out;
  for (const auto& [name, n] : all)
    if (n != 0) out.emplace(name, n);
  return out;
}

Counts delta(const StatsSnapshot& before, const StatsSnapshot& after) {
  Counts b = counts_of(before), out;
  for (const auto& [name, n] : counts_of(after))
    if (n != b[name]) out.emplace(name, n - b[name]);
  return out;
}

/// Traced calls per outcome since the last tracer reset.
using Outcomes = std::map<obs::Outcome, std::uint64_t>;

Outcomes outcomes() {
  Outcomes out;
  for (const obs::GroupSummary& g : obs::tracer().snapshot().groups)
    out[g.labels.outcome] += g.calls;
  return out;
}

struct Rig {
  explicit Rig(CachePolicy policy, http::CacheDirectives advertised = {}) {
    auto inproc = std::make_shared<transport::InProcessTransport>();
    auto service = make_test_service();
    service->bind("echoString", [this](const std::vector<Parameter>& p) {
      ++service_calls;
      return Object::make("v" + std::to_string(version.load()) + ":" +
                          p.at(0).value.as<std::string>());
    });
    inproc->bind(kEndpoint, service, advertised, [](const std::string&) {
      return std::optional<seconds>(seconds(1000));  // never modified
    });
    wire = std::make_shared<ScriptedTransport>(inproc);
    cache = std::make_shared<ResponseCache>(ResponseCache::Config{}, clock);
    CachingServiceClient::Options options;
    options.policy = std::move(policy);
    client = std::make_unique<CachingServiceClient>(
        wire, test_description(), kEndpoint, cache, std::move(options));
  }

  std::string echo(const std::string& s = "q") {
    return client->invoke("echoString", {{"s", Object::make(s)}})
        .as<std::string>();
  }

  /// Warm the entry, then start counting: stats baseline + empty tracer.
  void warm() {
    EXPECT_EQ(echo(), "v1:q");
    begin();
  }
  void begin() {
    before = cache->stats();
    obs::tracer().reset();
  }
  Counts counted() const { return delta(before, cache->stats()); }

  /// Poll (real time) until pred() holds or ~2s elapse.
  template <typename Pred>
  static bool eventually(Pred pred) {
    for (int i = 0; i < 2000; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(milliseconds(1));
    }
    return pred();
  }

  ScopedTracer tracing;
  util::ManualClock clock;
  std::atomic<int> service_calls{0};
  std::atomic<int> version{1};
  std::shared_ptr<ScriptedTransport> wire;
  std::shared_ptr<ResponseCache> cache;
  std::unique_ptr<CachingServiceClient> client;
  StatsSnapshot before;
};

CachePolicy ttl_policy(milliseconds ttl) {
  CachePolicy policy;
  policy.cacheable("echoString", ttl);
  return policy;
}

TEST(InvokeStatesTest, FreshHit) {
  Rig rig(ttl_policy(seconds(60)));
  rig.warm();
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"hits", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Hit, 1}}));
  EXPECT_EQ(rig.service_calls, 1);
}

TEST(InvokeStatesTest, FreshHitUnderAGracePolicy) {
  CachePolicy policy = ttl_policy(seconds(60));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"hits", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Hit, 1}}));
}

TEST(InvokeStatesTest, ColdMiss) {
  Rig rig(ttl_policy(seconds(60)));
  rig.begin();
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"misses", 1}, {"stores", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Miss, 1}}));
}

TEST(InvokeStatesTest, Uncacheable) {
  Rig rig(CachePolicy{});
  rig.begin();
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"uncacheable", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Uncacheable, 1}}));
}

TEST(InvokeStatesTest, ExpiredRefetchWithNoGrace) {
  Rig rig(ttl_policy(milliseconds(100)));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  rig.version = 2;
  EXPECT_EQ(rig.echo(), "v2:q");
  // The fresh-only lookup evicts the dead entry on sight.
  EXPECT_EQ(rig.counted(),
            (Counts{{"expirations", 1}, {"misses", 1}, {"stores", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Miss, 1}}));
  EXPECT_EQ(rig.service_calls, 2);
}

TEST(InvokeStatesTest, ExpiredRefetchUnderAGracePolicy) {
  CachePolicy policy = ttl_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  rig.version = 2;
  EXPECT_EQ(rig.echo(), "v2:q");
  // The stale entry is kept for the fallback, so the refetch is counted
  // as a miss only once the origin answered; nothing expires.
  EXPECT_EQ(rig.counted(), (Counts{{"misses", 1}, {"stores", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Miss, 1}}));
}

TEST(InvokeStatesTest, StaleWhileRevalidateServe) {
  CachePolicy policy = ttl_policy(milliseconds(100));
  policy.stale_while_revalidate("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(150));
  rig.version = 2;
  EXPECT_EQ(rig.echo(), "v1:q");  // the stale value, served at once
  // The background refresh traces as its own Miss and stores, but counts
  // no hit or miss: the foreground call already accounted for the request.
  ASSERT_TRUE(Rig::eventually([] {
    return outcomes() == Outcomes{{obs::Outcome::StaleRevalidate, 1},
                                  {obs::Outcome::Miss, 1}};
  })) << "outcomes never settled";
  EXPECT_EQ(rig.counted(), (Counts{{"swr_served", 1}, {"stores", 1}}));
  EXPECT_EQ(rig.echo(), "v2:q");  // the refreshed entry is fresh
}

TEST(InvokeStatesTest, RefreshAheadClaim) {
  CachePolicy policy = ttl_policy(milliseconds(1000));
  policy.refresh_ahead("echoString", 0.5);
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(600));  // past the soft TTL, still fresh
  rig.version = 2;
  EXPECT_EQ(rig.echo(), "v1:q");  // a plain hit that won the claim
  ASSERT_TRUE(Rig::eventually([] {
    return outcomes() ==
           Outcomes{{obs::Outcome::Hit, 1}, {obs::Outcome::Miss, 1}};
  })) << "outcomes never settled";
  EXPECT_EQ(rig.counted(),
            (Counts{{"hits", 1}, {"refresh_ahead", 1}, {"stores", 1}}));
  EXPECT_EQ(rig.service_calls, 2);
}

TEST(InvokeStatesTest, StaleIfErrorServe) {
  CachePolicy policy = ttl_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  rig.wire->answer(ScriptedTransport::Answer::TransportFailure);
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"stale_serves", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::StaleServe, 1}}));
}

TEST(InvokeStatesTest, Http5xxIsAnOriginFailureAndServesStale) {
  CachePolicy policy = ttl_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  rig.wire->answer(ScriptedTransport::Answer::Http503);
  EXPECT_EQ(rig.echo(), "v1:q");
  EXPECT_EQ(rig.counted(), (Counts{{"stale_serves", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::StaleServe, 1}}));
}

TEST(InvokeStatesTest, Http4xxIsNotAbsorbedByStaleServing) {
  CachePolicy policy = ttl_policy(milliseconds(100));
  policy.stale_if_error("echoString", seconds(10));
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  rig.wire->answer(ScriptedTransport::Answer::Http404);
  try {
    rig.echo();
    ADD_FAILURE() << "a 4xx must surface, not be served stale";
  } catch (const HttpError& error) {
    EXPECT_EQ(error.status(), 404);
  }
  EXPECT_EQ(rig.counted(), Counts{});
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Error, 1}}));
  EXPECT_EQ(rig.cache->stats().entries, 1u);  // the stale entry survives
}

TEST(InvokeStatesTest, NotModifiedRevalidation) {
  CachePolicy policy;
  OperationPolicy p;
  p.cacheable = true;
  p.ttl = milliseconds(100);
  p.revalidate = true;
  policy.set("echoString", p);
  Rig rig(std::move(policy));
  rig.warm();
  rig.clock.advance(milliseconds(200));
  EXPECT_EQ(rig.echo(), "v1:q");
  // The 304 renews the lease and serves from the renewed entry: one
  // revalidation plus the hit it serves, no miss, no store.
  EXPECT_EQ(rig.counted(), (Counts{{"revalidations", 1}, {"hits", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Revalidated, 1}}));
  EXPECT_EQ(rig.service_calls, 1);  // answered before dispatch
}

TEST(InvokeStatesTest, CoalescedFollower) {
  Rig rig(ttl_policy(seconds(60)));
  rig.begin();
  rig.wire->set_open(false);
  std::string leader_got;
  std::thread leader([&] { leader_got = rig.echo(); });
  rig.wire->await_calls(1);  // the leader is on the wire
  std::thread follower([&] { EXPECT_EQ(rig.echo(), "v1:q"); });
  ASSERT_TRUE(Rig::eventually(
      [&] { return rig.cache->stats().coalesced_waits >= 1; }));
  rig.wire->set_open(true);
  leader.join();
  follower.join();
  EXPECT_EQ(leader_got, "v1:q");
  EXPECT_EQ(rig.wire->calls(), 1);
  EXPECT_EQ(rig.counted(),
            (Counts{{"misses", 2}, {"stores", 1}, {"coalesced_waits", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Miss, 1},
                                  {obs::Outcome::Coalesced, 1}}));
}

TEST(InvokeStatesTest, FollowerFallsBackToItsOwnCallOnNoValue) {
  http::CacheDirectives no_store;
  no_store.no_store = true;
  Rig rig(ttl_policy(seconds(60)), no_store);
  rig.begin();
  rig.wire->set_open(false);
  std::thread leader([&] { EXPECT_EQ(rig.echo(), "v1:q"); });
  rig.wire->await_calls(1);
  std::thread follower([&] { EXPECT_EQ(rig.echo(), "v1:q"); });
  ASSERT_TRUE(Rig::eventually(
      [&] { return rig.cache->stats().coalesced_waits >= 1; }));
  rig.wire->set_open(true);
  leader.join();
  follower.join();
  // The leader stored nothing, so the follower woke with NoValue and made
  // its own call.
  EXPECT_EQ(rig.wire->calls(), 2);
  EXPECT_EQ(rig.counted(), (Counts{{"misses", 2}, {"coalesced_waits", 1}}));
  EXPECT_EQ(outcomes(), (Outcomes{{obs::Outcome::Miss, 2}}));
}

}  // namespace
}  // namespace wsc::cache
