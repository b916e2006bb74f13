// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <portal_hot|portal_churn|invoke_hot> --seed <n>
//             --seconds <s> --trace <0|1> [--t0-ns <steady-clock ns>]
//   perfbench --selftest
//
// Workloads (all closed loop):
//   portal_hot    load thread -> 4 keep-alive connections -> HttpServer ->
//                 PortalSite -> caching middleware; Zipf over a warmed hot
//                 set, so nearly every page is a cache hit.
//   portal_churn  the same path with an injected ResponseCache whose entry
//                 budget is far below the query universe; about half the
//                 pages miss and run transport -> SOAP backend -> parse ->
//                 deserialize -> store -> CLOCK eviction.
//   invoke_hot    no HTTP: one caller thread per core calls the typed
//                 GoogleClient over InProcessTransport on a warmed hot set
//                 spanning the three Table 5 operations.
//
// Every run checks its outputs against answers computed straight from
// GoogleBackend (never through the cache), reconciles independent counters,
// and prints one JSON object as its last line: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.  With --trace 0 no timing
// wrapper is installed and the program's tracer stays off.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/adaptive_policy.hpp"
#include "core/representation.hpp"
#include "core/response_cache.hpp"
#include "http/server.hpp"
#include "http_load.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "portal/portal.hpp"
#include "portal/query_string.hpp"
#include "reflect/algorithms.hpp"
#include "services/google/service.hpp"
#include "services/google/stub.hpp"
#include "transport/http_transport.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/soap_http.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "xml/escape.hpp"

namespace perfbench {
namespace {

using wsc::reflect::Object;
using wsc::services::google::GoogleBackend;
using wsc::services::google::GoogleSearchResult;
using wsc::soap::Parameter;

// ---------------------------------------------------------------------------
// Arguments and output

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t t0_ns = 0;  // process start on the steady clock
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<portal_hot|portal_churn|invoke_hot> --seed N --seconds S "
               "--trace 0|1 [--t0-ns NS]\n       perfbench --selftest\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--t0-ns") args.t0_ns = std::stoull(value);
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!args.selftest && args.workload.empty()) usage("no --workload");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct = false;
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// A /proc/self/status field in KiB (VmHWM, VmRSS).
double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':')
      return std::strtod(line.c_str() + len + 1, nullptr);
  return 0;
}

// ---------------------------------------------------------------------------
// Inputs

/// Zipf(s) over ranks [0, n): rank r is drawn with weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(wsc::util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// `n` distinct search queries; rank i is queries[i].
std::vector<std::string> make_queries(std::size_t n, std::uint64_t seed) {
  wsc::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(rng.next_word(3, 8) + "-" + rng.next_word(3, 8) + "-" +
                  std::to_string(i));
  return out;
}

// The parameter lists GoogleClient's typed calls send, for callers that
// need the middleware's untyped Object (deep_equals, the §3.1 isolation
// check).  The key is GoogleClient's default license key.
Parameter license_key() {
  return Parameter{"key",
                   Object::make(std::string("demo-license-key-0000000000"))};
}

std::vector<Parameter> spell_params(const std::string& phrase) {
  return {license_key(), Parameter{"phrase", Object::make(phrase)}};
}

std::vector<Parameter> page_params(const std::string& url) {
  return {license_key(), Parameter{"url", Object::make(url)}};
}

std::vector<Parameter> search_params(const std::string& q) {
  return {license_key(),
          Parameter{"q", Object::make(q)},
          Parameter{"start", Object::make(std::int32_t{0})},
          Parameter{"maxResults", Object::make(std::int32_t{10})},
          Parameter{"filter", Object::make(false)},
          Parameter{"restrict", Object::make(std::string())},
          Parameter{"safeSearch", Object::make(false)},
          Parameter{"lr", Object::make(std::string())},
          Parameter{"ie", Object::make(std::string("latin1"))},
          Parameter{"oe", Object::make(std::string("latin1"))}};
}

/// Does `page` carry, in order, the result count and every result's URL
/// and title of `want`?
bool page_carries(const std::string& page, const GoogleSearchResult& want) {
  std::size_t pos = page.find(std::to_string(want.estimatedTotalResultsCount));
  if (pos == std::string::npos || want.resultElements.empty()) return false;
  for (const auto& e : want.resultElements) {
    pos = page.find(e.URL, pos);
    if (pos == std::string::npos) return false;
    pos += e.URL.size();
    const std::string title = wsc::xml::escape_text(e.title);
    pos = page.find(title, pos);
    if (pos == std::string::npos) return false;
    pos += title.size();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer attribution from the program's tracer

struct TraceTotals {
  std::uint64_t hit_calls = 0, hit_total = 0;
  std::uint64_t miss_calls = 0, miss_total = 0;
  std::uint64_t hit_stage[wsc::obs::kStageCount] = {};
  std::uint64_t miss_stage[wsc::obs::kStageCount] = {};
  std::uint64_t wire_total = 0;  // every outcome
};

TraceTotals trace_totals() {
  using wsc::obs::Outcome;
  TraceTotals t;
  const wsc::obs::TraceSummary summary = wsc::obs::tracer().snapshot();
  for (const wsc::obs::GroupSummary& g : summary.groups) {
    const bool hit = g.labels.outcome == Outcome::Hit;
    const bool miss = g.labels.outcome == Outcome::Miss;
    if (hit) t.hit_calls += g.calls, t.hit_total += g.total_sum_ns;
    if (miss) t.miss_calls += g.calls, t.miss_total += g.total_sum_ns;
    for (std::size_t s = 0; s < wsc::obs::kStageCount; ++s) {
      if (hit) t.hit_stage[s] += g.stages[s].sum_ns;
      if (miss) t.miss_stage[s] += g.stages[s].sum_ns;
    }
    t.wire_total += g.stage(wsc::obs::Stage::Wire).sum_ns;
  }
  return t;
}

double per(std::uint64_t sum, std::uint64_t n) {
  return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

void start_tracer() {
  wsc::obs::tracer().reset();
  wsc::obs::tracer().set_sample_every(1024);
  wsc::obs::tracer().set_enabled(true);
}

/// The core.* and cache.* per-layer metrics, shared by every workload.
void add_core_metrics(RunResult& out, const TraceTotals& t,
                      const wsc::cache::StatsSnapshot& before,
                      const wsc::cache::StatsSnapshot& after,
                      const wsc::cache::ResponseCache::Footprint& footprint,
                      std::uint64_t ops, double allocs_per_hit) {
  using wsc::obs::Stage;
  auto hit = [&](Stage s) {
    return per(t.hit_stage[static_cast<std::size_t>(s)], t.hit_calls);
  };
  auto miss = [&](Stage s) {
    return per(t.miss_stage[static_cast<std::size_t>(s)], t.miss_calls);
  };
  std::uint64_t hit_stage_sum = 0;
  for (std::uint64_t s : t.hit_stage) hit_stage_sum += s;
  const double hit_ns = per(t.hit_total, t.hit_calls);
  out.add("core.hit_ns", hit_ns, "ns");
  out.add("core.keygen_ns", hit(Stage::KeyGen), "ns");
  out.add("core.lookup_ns", hit(Stage::Lookup), "ns");
  out.add("core.retrieve_ns", hit(Stage::Retrieve), "ns");
  out.add("core.glue_ns", hit_ns - per(hit_stage_sum, t.hit_calls), "ns");
  out.add("core.allocs_per_hit", allocs_per_hit, "count");
  out.add("core.miss_ns", per(t.miss_total, t.miss_calls), "ns");
  out.add("core.wire_ns", miss(Stage::Wire), "ns");
  out.add("core.parse_ns", miss(Stage::Parse), "ns");
  out.add("core.deserialize_ns", miss(Stage::Deserialize), "ns");
  out.add("core.store_ns", miss(Stage::Store), "ns");
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  out.add("cache.hit_ratio", per(hits, hits + misses), "ratio");
  out.add("cache.evictions_per_kop",
          1000.0 * per(after.evictions - before.evictions, ops), "count");
  out.add("cache.bytes_per_entry", per(footprint.bytes, footprint.entries),
          "B");
}

constexpr int kAllocPasses = 16;

/// Heap allocations per hit, counted on this thread: one pass of
/// `call(k)` over keys [0, keys) makes sure every key is cached, then
/// kAllocPasses more passes are counted.
template <typename Call>
double allocations_per_hit(std::size_t keys, Call&& call) {
  for (std::size_t k = 0; k < keys; ++k) call(k);
  const std::uint64_t before = thread_allocations();
  for (int pass = 0; pass < kAllocPasses; ++pass)
    for (std::size_t k = 0; k < keys; ++k) call(k);
  return static_cast<double>(thread_allocations() - before) /
         static_cast<double>(kAllocPasses * keys);
}

/// One slice of the timed window.  The window is cut into slices of about
/// a second and each end-to-end figure is the median over the slices, so a
/// burst of outside load that hits one or two slices moves it less than it
/// would move a whole-window mean.
struct Slice {
  double seconds = 0;
  std::uint64_t ops = 0;     // operations completed inside the slice
  std::uint64_t cpu_ns = 0;  // process CPU, minus the load thread's
  wsc::util::Histogram latency_ns{7};
};

std::size_t slice_count(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(seconds)));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void add_end_to_end(RunResult& out, const std::vector<Slice>& slices,
                    double setup_s) {
  std::vector<double> throughput, p50, p99, cpu;
  std::uint64_t fewest = UINT64_MAX;
  for (const Slice& s : slices) {
    throughput.push_back(static_cast<double>(s.ops) / s.seconds);
    p50.push_back(static_cast<double>(s.latency_ns.percentile(0.50)) / 1e3);
    p99.push_back(static_cast<double>(s.latency_ns.percentile(0.99)) / 1e3);
    cpu.push_back(per(s.cpu_ns, s.ops) / 1e3);
    fewest = std::min(fewest, s.latency_ns.count());
  }
  std::printf("slice throughput (ops/s):");
  for (double t : throughput) std::printf(" %.0f", t);
  std::printf("\n");
  out.add("throughput", median(throughput), "ops/s");
  out.add("latency_p50_us", median(p50), "us");
  out.add("latency_p99_us", median(p99), "us");
  out.add("cpu_us_per_op", median(cpu), "us");
  out.add("peak_rss_mib", status_kib("VmHWM") / 1024.0, "MiB");
  out.add("setup_s", setup_s, "s");
  std::printf("latency samples: medians over %zu slices; each slice's p50 "
              "and p99 over n >= %llu samples (>= %llu beyond p99)\n",
              slices.size(), static_cast<unsigned long long>(fewest),
              static_cast<unsigned long long>(fewest / 100));
}

// ---------------------------------------------------------------------------
// Portal workloads

enum class Fault { None, CorruptOne, DropOne };

struct PortalSpec {
  std::size_t universe;       // distinct queries
  double zipf_s;              // skew of the timed query stream
  std::size_t cache_entries;  // injected cache's entry budget; 0 = default
  std::size_t warm;           // ranks 0..warm-1 are requested before timing
  bool pin_representation;    // adaptive policy may probe but never switch
};

constexpr std::size_t kPortalConnections = 4;
constexpr std::size_t kAllocKeys = 64;  // ranks counted by the alloc pass

// Figure 4's 100%-hit point: a hot set that fits the cache, all warmed.
// No store happens after warm-up, so the adaptive policy never decides.
constexpr PortalSpec kPortalHot{1000, 1.0, 0, 1000, false};
// About half the pages miss: Zipf(0.9) over 50k queries against a
// 2048-entry budget, filled with the 2048 most popular before timing.
// Left free, the adaptive policy ends on Serialized in some runs and on
// CloneCopy in others (their weighted scores lie within its hysteresis of
// each other), so the representation is pinned at the static choice.
constexpr PortalSpec kPortalChurn{50'000, 0.9, 2048, 2048, true};

RunResult run_portal(const Args& args, const PortalSpec& spec, Fault fault) {
  namespace http = wsc::http;
  namespace cache = wsc::cache;
  RunResult out;
  const bool trace = args.trace;
  const std::vector<std::string> queries = make_queries(spec.universe, args.seed);

  // Backend: the dummy Google SOAP service behind its own HttpServer.
  auto backend = std::make_shared<GoogleBackend>();
  TimeAcc soap_acc, portal_acc;
  http::Handler soap_handler = wsc::transport::make_soap_handler(
      "/soap/google", wsc::services::google::make_google_service(backend));
  if (trace) soap_handler = timed_handler(std::move(soap_handler), soap_acc);
  http::HttpServer backend_server(0, std::move(soap_handler));
  backend_server.start();

  // Self-test faults hit the first backend reply for the rank-0 query.
  CountingTransport::Fault fault_fn;
  if (fault != Fault::None) {
    const std::string marker = ">" + queries[0] + "<";
    auto fired = std::make_shared<std::atomic<bool>>(false);
    fault_fn = [marker, fired, fault](const wsc::transport::WireRequest& req,
                                      wsc::transport::WireResponse& resp) {
      if (req.body.find(marker) == std::string::npos || fired->exchange(true))
        return;
      if (fault == Fault::DropOne)
        throw wsc::TransportError("self-test: response dropped");
      // Alter the first result URL (element text, not a namespace URI).
      const std::size_t at = resp.body.find(">http://www.");
      if (at != std::string::npos) resp.body.insert(at + 8, "corrupted.");
    };
  }
  auto counting = std::make_shared<CountingTransport>(
      std::make_shared<wsc::transport::HttpTransport>(), trace, fault_fn);

  wsc::portal::PortalConfig config;
  config.backend_endpoint = backend_server.base_url() + "/soap/google";
  config.transport = counting;
  config.options.key_method = cache::KeyMethod::ToString;
  config.options.policy = wsc::services::google::default_google_policy();
  if (spec.pin_representation) {
    // Probes, scoring and decision ticks still run as deployed; a
    // challenger would have to score below zero to take over.
    auto profiles = std::make_shared<wsc::obs::CostProfiles>();
    cache::AdaptivePolicy::Config pinned;
    pinned.min_improvement = 1.0;
    config.profiles = profiles;
    config.adaptive = std::make_shared<cache::AdaptivePolicy>(profiles, pinned);
  }
  if (spec.cache_entries) {
    cache::ResponseCache::Config cache_config;
    cache_config.max_entries = spec.cache_entries;
    config.response_cache = std::make_shared<cache::ResponseCache>(cache_config);
  }
  wsc::portal::PortalSite site(std::move(config));
  cache::ResponseCache& rc = site.response_cache();
  http::Handler portal_handler = site.handler();
  if (trace) portal_handler = timed_handler(std::move(portal_handler), portal_acc);
  http::HttpServer portal_server(0, std::move(portal_handler));
  portal_server.start();

  std::vector<std::string> requests;
  requests.reserve(queries.size());
  for (const std::string& q : queries) {
    http::Request r;
    r.target = "/portal?q=" + wsc::portal::url_encode(q);
    r.headers.set("Host", "127.0.0.1");
    requests.push_back(r.to_bytes());
  }

  // A page is checked in full against GoogleBackend::search the first time
  // its query is answered; later answers must hash the same (or pass the
  // full check again).
  std::vector<std::uint64_t> page_sig(queries.size(), 0);
  std::size_t max_entries_seen = 0;
  std::uint64_t checked = 0;
  const HttpLoad::Check check = [&](std::size_t i, const std::string& body) {
    if (spec.cache_entries && (++checked & 255) == 0)
      max_entries_seen = std::max(max_entries_seen, rc.entry_count());
    const std::uint64_t sig = std::hash<std::string>{}(body) | 1;
    if (page_sig[i] == sig) return true;
    if (!page_carries(body, backend->search(queries[i], 0, 10))) return false;
    page_sig[i] = sig;
    return true;
  };

  HttpLoad load(portal_server.port(), kPortalConnections, requests);
  wsc::util::Rng rng(args.seed ^ 0x5EEDF00Dull);
  const Zipf zipf(queries.size(), spec.zipf_s);
  const HttpLoad::Next zipf_next = [&] { return zipf(rng); };

  // The server counts a response just after writing it, so its counter
  // may trail what the load generator has read by a moment.
  const http::ServerStats& served_stats = portal_server.stats();
  auto settle_served = [&](std::uint64_t expected) {
    for (int i = 0; i < 200; ++i) {
      if (served_stats.get(served_stats.responses) >= expected) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  std::uint64_t warm_responses = 0;
  const double rss_before_kib = status_kib("VmRSS");
  if (spec.warm) {
    std::size_t rank = 0;
    const HttpLoadResult warm =
        load.run([&] { return rank++; }, check, spec.warm, 600.0);
    if (warm.failed || warm.wrong)
      throw wsc::Error("warm-up: " + std::to_string(warm.failed) +
                       " failed, " + std::to_string(warm.wrong) +
                       " wrong pages");
    warm_responses = warm.responses;
  }
  const wsc::cache::ResponseCache::Footprint filled = rc.footprint();
  if (spec.cache_entries && filled.entries)
    std::printf("fill: %zu entries charged %.0f B/entry; RSS grew %.0f "
                "B/entry\n",
                filled.entries, per(filled.bytes, filled.entries),
                (status_kib("VmRSS") - rss_before_kib) * 1024.0 /
                    static_cast<double>(filled.entries));

  const http::ServerStats& backend_stats = backend_server.stats();
  const cache::StatsSnapshot c0 = rc.stats();
  settle_served(warm_responses);
  const std::uint64_t served0 = served_stats.get(served_stats.responses);
  const std::uint64_t backend0 = backend_stats.get(backend_stats.requests);
  for (TimeAcc* acc : {&counting->acc, &soap_acc, &portal_acc}) acc->reset();
  if (trace) start_tracer();
  const double setup_s = static_cast<double>(mono_ns() - args.t0_ns) / 1e9;

  std::vector<Slice> slices(slice_count(args.seconds));
  HttpLoadResult run;
  for (Slice& slice : slices) {
    const HttpLoadResult r = load.run(zipf_next, check, UINT64_MAX,
                                      args.seconds / slices.size());
    slice.seconds = r.window_s;
    slice.ops = r.in_window;
    slice.cpu_ns = r.process_cpu_ns - r.load_cpu_ns;
    slice.latency_ns = r.latency_ns;
    run.add(r);
  }

  if (trace) wsc::obs::tracer().set_enabled(false);
  settle_served(served0 + run.responses);
  const cache::StatsSnapshot c1 = rc.stats();
  const std::uint64_t served = served_stats.get(served_stats.responses) - served0;
  const std::uint64_t backend_requests =
      backend_stats.get(backend_stats.requests) - backend0;
  const std::uint64_t posts = counting->acc.calls.load();
  const std::uint64_t misses = c1.misses - c0.misses;
  if (spec.cache_entries)
    max_entries_seen = std::max(max_entries_seen, rc.entry_count());

  // The representation the rank-0 query's entry is actually stored in
  // (the adaptive policy may have switched since it was stored).
  const std::string rep = [&] {
    const auto value = rc.lookup(site.google().middleware().key_for(
        "doGoogleSearch", search_params(queries[0])));
    return value ? std::string(wsc::cache::representation_name(
                       value->representation()))
                 : std::string("absent");
  }();
  std::printf("workload pages: %llu attempted, %llu ok, %llu wrong, %llu "
              "failed; hit ratio %.4f; load thread %.0f%% busy\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.ok),
              static_cast<unsigned long long>(run.wrong),
              static_cast<unsigned long long>(run.failed),
              per(c1.hits - c0.hits, c1.hits - c0.hits + misses),
              100.0 * static_cast<double>(run.load_cpu_ns) / 1e9 / run.window_s);
  std::printf("adaptive representation for doGoogleSearch: %s now, %llu "
              "switches; rank-0 entry stored as %s\n",
              std::string(wsc::cache::representation_name(
                              site.adaptive().current("doGoogleSearch")))
                  .c_str(),
              static_cast<unsigned long long>(site.adaptive().switches()),
              rep.c_str());

  out.check(run.wrong == 0, "every page matches GoogleBackend::search");
  out.check(backend_requests == posts,
            "backend requests (" + std::to_string(backend_requests) +
                ") == transport posts (" + std::to_string(posts) + ")");
  out.check(posts <= misses, "transport posts (" + std::to_string(posts) +
                                 ") <= cache misses (" +
                                 std::to_string(misses) + ")");
  out.check(served == run.responses,
            "server responses (" + std::to_string(served) +
                ") == load responses (" + std::to_string(run.responses) + ")");
  if (spec.cache_entries)
    out.check(max_entries_seen <= spec.cache_entries,
              "entries (max " + std::to_string(max_entries_seen) +
                  ") within budget " + std::to_string(spec.cache_entries));
  {
    // §3.1: mutating a returned object must not alter the next hit.
    wsc::cache::CachingServiceClient& mw = site.google().middleware();
    Object first = mw.invoke("doGoogleSearch", search_params(queries[0]));
    GoogleSearchResult& mutated = first.as<GoogleSearchResult>();
    mutated.estimatedTotalResultsCount = -1;
    if (!mutated.resultElements.empty())
      mutated.resultElements[0].URL = "http://mutated.invalid/";
    const Object again = mw.invoke("doGoogleSearch", search_params(queries[0]));
    out.check(wsc::reflect::deep_equals(
                  again, Object::make(backend->search(queries[0], 0, 10))),
              "isolation: a mutated " + rep + " result leaves the next hit intact");
  }

  const std::uint64_t ops = run.in_window;
  out.attempted = run.attempted;
  out.failed = run.failed;
  const double client_mean_us = run.latency_ns.mean() / 1e3;
  if (!trace) {
    add_end_to_end(out, slices, setup_s);
  } else {
    const TraceTotals t = trace_totals();
    const double handler_us = portal_acc.mean_us();
    const std::uint64_t post_ns = counting->acc.sum_ns.load();
    std::printf("traced throughput: %.1f ops/s\n",
                static_cast<double>(ops) / run.window_s);
    out.check(handler_us <= client_mean_us,
              "portal handler time <= client latency");
    // The tracer's wire stage encloses the decorator's post; the gap is the
    // decorator's own call and clock reads.
    out.check(post_ns <= t.wire_total &&
                  (t.wire_total - post_ns) <= t.wire_total / 10,
              "transport posts within 10% under the tracer's wire total");
    const wsc::cache::ResponseCache::Footprint fp = rc.footprint();
    const double allocs = allocations_per_hit(
        kAllocKeys, [&](std::size_t k) { site.google().doGoogleSearch(queries[k]); });
    std::printf("allocs_per_hit doGoogleSearch: %.2f\n", allocs);
    out.add("http.server_overhead_us", client_mean_us - handler_us, "us");
    out.add("portal.handler_us", handler_us, "us");
    add_core_metrics(out, t, c0, c1, fp, ops, allocs);
    out.add("transport.post_us", counting->acc.mean_us(), "us");
    out.add("transport.posts_per_kop", 1000.0 * per(posts, ops), "count");
    out.add("soap.server_handle_us", soap_acc.mean_us(), "us");
  }
  portal_server.stop();
  backend_server.stop();
  return out;
}

// ---------------------------------------------------------------------------
// invoke_hot: the middleware hit path in process

constexpr std::size_t kKeysPerOp = 512;
constexpr double kInvokeZipf = 1.0;
constexpr std::size_t kSequence = 1 << 14;  // per-thread op sequence length

enum Op : std::uint32_t { Spell = 0, Page = 1, Search = 2 };
const char* const kOpNames[] = {"doSpellingSuggestion", "doGetCachedPage",
                                "doGoogleSearch"};

RunResult run_invoke(const Args& args) {
  namespace cache = wsc::cache;
  RunResult out;
  const bool trace = args.trace;
  auto backend = std::make_shared<GoogleBackend>();
  auto inproc = std::make_shared<wsc::transport::InProcessTransport>();
  const std::string endpoint = "inproc://services/google";
  inproc->bind(endpoint, wsc::services::google::make_google_service(backend));
  auto counting = std::make_shared<CountingTransport>(inproc, trace);
  auto response_cache = std::make_shared<cache::ResponseCache>();
  cache::CachingServiceClient::Options options;
  options.policy = wsc::services::google::default_google_policy();
  wsc::services::google::GoogleClient client(counting, endpoint,
                                             response_cache, options);

  // Hot set and its answers, computed straight from the backend.
  wsc::util::Rng rng(args.seed * 0xD1B54A32D192ED03ull + 7);
  std::vector<std::string> phrases, urls, queries;
  std::vector<std::string> want_spell;
  std::vector<std::vector<std::uint8_t>> want_page;
  std::vector<GoogleSearchResult> want_search;
  for (std::size_t k = 0; k < kKeysPerOp; ++k) {
    phrases.push_back(rng.next_sentence(3) + " " + std::to_string(k));
    urls.push_back("http://www." + rng.next_word(4, 9) + ".com/" +
                   std::to_string(k) + ".html");
    queries.push_back(rng.next_word(3, 8) + "-" + rng.next_word(3, 8) + "-" +
                      std::to_string(k));
    want_spell.push_back(backend->spelling_suggestion(phrases.back()));
    want_page.push_back(backend->cached_page(urls.back()));
    want_search.push_back(backend->search(queries.back(), 0, 10));
  }
  // One call plus its check; returns false on a wrong answer.
  auto call = [&](std::uint32_t op, std::size_t k) {
    switch (op) {
      case Spell: return client.doSpellingSuggestion(phrases[k]) == want_spell[k];
      case Page: return client.doGetCachedPage(urls[k]) == want_page[k];
      default: return client.doGoogleSearch(queries[k]) == want_search[k];
    }
  };
  // Warm: every key misses once, then hits once.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint32_t op = 0; op < 3; ++op)
      for (std::size_t k = 0; k < kKeysPerOp; ++k)
        if (!call(op, k))
          throw wsc::Error(std::string("warm-up: wrong ") + kOpNames[op]);

  const std::size_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  // Each thread cycles through its own sequence: the operation rotates
  // through the three (a fixed mix), the key within it is a Zipf draw.
  const Zipf zipf(kKeysPerOp, kInvokeZipf);
  std::vector<std::vector<std::uint32_t>> sequences(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    wsc::util::Rng trng(args.seed * 1000003ull + t);
    for (std::size_t i = 0; i < kSequence; ++i)
      sequences[t].push_back(static_cast<std::uint32_t>(
          (i % 3) * kKeysPerOp + zipf(trng)));
  }
  // Each caller records into the histogram of the slice the main thread
  // has opened; a slice's completed operations are its histogram's count.
  const std::size_t nslices = slice_count(args.seconds);
  struct alignas(64) Caller {
    std::vector<wsc::util::Histogram> latency_ns;  // one per slice
    std::uint64_t wrong = 0, failed = 0;
  };
  std::vector<Caller> callers(threads);
  for (Caller& c : callers)
    c.latency_ns.assign(nslices, wsc::util::Histogram(7));
  std::atomic<std::size_t> ready{0}, slice_now{0};
  std::atomic<bool> go{false}, stop{false};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Caller& me = callers[t];
      const std::vector<std::uint32_t>& seq = sequences[t];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint32_t e = seq[i % kSequence];
        const std::uint32_t op = e / kKeysPerOp;
        const std::size_t k = e % kKeysPerOp;
        wsc::util::Histogram& latency_ns =
            me.latency_ns[slice_now.load(std::memory_order_relaxed)];
        const std::uint64_t t0 = mono_ns();
        bool ok = false;
        try {
          switch (op) {
            case Spell: {
              const std::string r = client.doSpellingSuggestion(phrases[k]);
              latency_ns.record(mono_ns() - t0);
              ok = r == want_spell[k];
              break;
            }
            case Page: {
              const std::vector<std::uint8_t> r = client.doGetCachedPage(urls[k]);
              latency_ns.record(mono_ns() - t0);
              ok = r == want_page[k];
              break;
            }
            default: {
              const GoogleSearchResult r = client.doGoogleSearch(queries[k]);
              latency_ns.record(mono_ns() - t0);
              ok = r == want_search[k];
              break;
            }
          }
        } catch (const std::exception&) {
          ++me.failed;
          continue;
        }
        if (!ok) ++me.wrong;
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();

  const cache::StatsSnapshot c0 = response_cache->stats();
  counting->acc.reset();
  if (trace) start_tracer();
  const double setup_s = static_cast<double>(mono_ns() - args.t0_ns) / 1e9;
  std::vector<Slice> slices(nslices);
  const auto slice_len = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(args.seconds / nslices));
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t cpu_mark = process_cpu_ns();
  std::uint64_t mark = mono_ns();
  const std::uint64_t window_start = mark;
  go.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < nslices; ++i) {
    std::this_thread::sleep_until(start + slice_len * (i + 1));
    if (i + 1 < nslices)
      slice_now.store(i + 1, std::memory_order_relaxed);
    else
      stop.store(true);
    const std::uint64_t now = mono_ns(), cpu = process_cpu_ns();
    slices[i].seconds = static_cast<double>(now - mark) / 1e9;
    slices[i].cpu_ns = cpu - cpu_mark;
    mark = now;
    cpu_mark = cpu;
  }
  for (std::thread& th : pool) th.join();
  const double window_s = static_cast<double>(mono_ns() - window_start) / 1e9;
  if (trace) wsc::obs::tracer().set_enabled(false);
  const cache::StatsSnapshot c1 = response_cache->stats();
  const std::uint64_t posts = counting->acc.calls.load();
  const std::uint64_t misses = c1.misses - c0.misses;

  std::uint64_t ops = 0, wrong = 0, failed = 0;
  for (const Caller& c : callers) {
    for (std::size_t i = 0; i < nslices; ++i)
      slices[i].latency_ns.merge(c.latency_ns[i]);
    wrong += c.wrong;
    failed += c.failed;
  }
  for (Slice& slice : slices) {
    slice.ops = slice.latency_ns.count();
    ops += slice.ops;
  }
  std::printf("workload invokes: %zu threads, %llu ok, %llu wrong, %llu "
              "failed; hit ratio %.4f\n",
              threads, static_cast<unsigned long long>(ops - wrong),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(failed),
              per(c1.hits - c0.hits, c1.hits - c0.hits + misses));
  out.check(wrong == 0, "every result equals the GoogleBackend answer");
  out.check(posts <= misses, "transport posts (" + std::to_string(posts) +
                                 ") <= cache misses (" +
                                 std::to_string(misses) + ")");
  {
    // Every hot key, through the untyped middleware, deep-equals the
    // backend; a mutated result (any representation but Reference) must
    // leave the next hit intact (§3.1).
    cache::CachingServiceClient& mw = client.middleware();
    bool all_equal = true;
    for (std::size_t k = 0; k < kKeysPerOp; ++k) {
      all_equal =
          all_equal &&
          wsc::reflect::deep_equals(
              mw.invoke("doSpellingSuggestion", spell_params(phrases[k])),
              Object::make(want_spell[k])) &&
          wsc::reflect::deep_equals(
              mw.invoke("doGetCachedPage", page_params(urls[k])),
              Object::make(want_page[k])) &&
          wsc::reflect::deep_equals(
              mw.invoke("doGoogleSearch", search_params(queries[k])),
              Object::make(want_search[k]));
    }
    out.check(all_equal, "every hot key deep-equals the backend answer");
    Object page = mw.invoke("doGetCachedPage", page_params(urls[0]));
    page.as<std::vector<std::uint8_t>>().at(0) ^= 0xFF;
    Object search = mw.invoke("doGoogleSearch", search_params(queries[0]));
    search.as<GoogleSearchResult>().resultElements.at(0).URL = "mutated";
    out.check(
        wsc::reflect::deep_equals(
            mw.invoke("doGetCachedPage", page_params(urls[0])),
            Object::make(want_page[0])) &&
            wsc::reflect::deep_equals(
                mw.invoke("doGoogleSearch", search_params(queries[0])),
                Object::make(want_search[0])),
        "isolation: mutated byte[] and search results leave hits intact");
  }

  out.attempted = ops + failed;
  out.failed = failed;
  if (!trace) {
    add_end_to_end(out, slices, setup_s);
  } else {
    const TraceTotals t = trace_totals();
    std::printf("traced throughput: %.1f ops/s\n",
                static_cast<double>(ops) / window_s);
    // One row per operation; the metric is their mean, the workload's mix.
    double allocs_sum = 0;
    for (std::uint32_t op = 0; op < 3; ++op) {
      const double allocs = allocations_per_hit(
          kKeysPerOp, [&](std::size_t k) { call(op, k); });
      const cache::Representation rep = cache::auto_select(
          *wsc::services::google::google_description()
               ->require_operation(kOpNames[op])
               .result_type,
          false);
      std::printf("allocs_per_hit %s (%s): %.2f\n", kOpNames[op],
                  std::string(cache::representation_name(rep)).c_str(), allocs);
      allocs_sum += allocs;
    }
    out.add("http.server_overhead_us", 0, "us");
    out.add("portal.handler_us", 0, "us");
    add_core_metrics(out, t, c0, c1, response_cache->footprint(), ops,
                     allocs_sum / 3);
    out.add("transport.post_us", counting->acc.mean_us(), "us");
    out.add("transport.posts_per_kop", 1000.0 * per(posts, ops), "count");
    out.add("soap.server_handle_us", 0, "us");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Self-test of the benchmark's own checks

int selftest(Args args) {
  args.seconds = 1.0;
  args.trace = false;
  const PortalSpec tiny{64, 1.0, 0, 0, false};
  std::printf("-- self-test: one corrupted backend response\n");
  const RunResult corrupt = run_portal(args, tiny, Fault::CorruptOne);
  std::printf("-- self-test: one dropped backend response\n");
  const RunResult drop = run_portal(args, tiny, Fault::DropOne);
  std::printf("-- self-test: no fault\n");
  const RunResult clean = run_portal(args, tiny, Fault::None);
  const bool corrupt_caught = !corrupt.correct;
  const bool drop_counted = drop.failed >= 1 && drop.correct;
  const bool clean_passes = clean.correct && clean.failed == 0;
  std::printf("self-test: corrupted response %s; dropped response %s "
              "(failed=%llu); clean run %s\n",
              corrupt_caught ? "caught" : "MISSED",
              drop_counted ? "counted" : "MISSED",
              static_cast<unsigned long long>(drop.failed),
              clean_passes ? "passes" : "FAILS");
  return corrupt_caught && drop_counted && clean_passes ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = parse_args(argc, argv);
  if (args.t0_ns == 0) args.t0_ns = mono_ns();
  try {
    if (args.selftest) return selftest(args);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency());
    RunResult result;
    if (args.workload == "portal_hot")
      result = run_portal(args, kPortalHot, Fault::None);
    else if (args.workload == "portal_churn")
      result = run_portal(args, kPortalChurn, Fault::None);
    else if (args.workload == "invoke_hot")
      result = run_invoke(args);
    else
      usage(("unknown workload " + args.workload).c_str());
    print_result(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
