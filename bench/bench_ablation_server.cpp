// Ablation K (ISSUE 9) — thread-per-connection vs epoll reactor under
// concurrent keep-alive load.
//
// For each server mode and connection count (1 / 100 / 1k / 10k), a load
// client drives closed-loop keep-alive traffic and reports req/s and
// p50/p99/p999 latency.  The client runs in a SEPARATE PROCESS (this
// binary re-exec'd with --client): at 10k connections the two endpoints
// together need ~20k descriptors, which would exhaust one process's fd
// table, and a separate client also keeps its epoll loop honest (no
// loopback shortcuts through shared memory).
//
// After every scenario the server must return to zero active connections,
// and across the whole run the orchestrator's fd and thread counts must
// come back to their baselines — the leak checks that would have caught
// the worker-handle leak this PR fixes.
//
// Run with --smoke for the CI-sized version (capped connections/duration).
#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "http/load_client.hpp"
#include "http/server.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

using namespace wsc;

namespace {

// ---------------------------------------------------------------- client

int run_client(int argc, char** argv) {
  http::LoadOptions options;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      options.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      options.connections = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      options.duration = std::chrono::milliseconds(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--warmup-ms") == 0 && i + 1 < argc) {
      options.warmup = std::chrono::milliseconds(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--rps") == 0 && i + 1 < argc) {
      options.open_rps = std::atof(argv[++i]);
    }
  }
  try {
    http::LoadReport report = http::run_load(options);
    std::printf("%s\n", report.json().c_str());
  } catch (const Error& e) {
    std::fprintf(stderr, "client: %s\n", e.what());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------- orchestrator

std::size_t open_fd_count() {
  std::size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
    n -= 3;  // ".", "..", and the dirfd itself
  }
  return n;
}

std::uint64_t proc_status_value(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  std::uint64_t value = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

/// Our own binary path (popen goes through sh, where /proc/self/exe would
/// name the shell, not us).
std::string self_exe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw TransportError("readlink /proc/self/exe failed");
  buf[n] = '\0';
  return std::string(buf);
}

/// Re-exec ourselves as the load client and parse its JSON report.
util::json::Value spawn_client(std::uint16_t port, std::size_t connections,
                               long duration_ms, long warmup_ms) {
  std::ostringstream cmd;
  cmd << '\'' << self_exe() << "' --client --port " << port
      << " --connections " << connections << " --duration-ms " << duration_ms
      << " --warmup-ms " << warmup_ms;
  std::FILE* pipe = ::popen(cmd.str().c_str(), "r");
  if (!pipe) throw TransportError("popen failed for load client");
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int status = ::pclose(pipe);
  if (status != 0 || out.empty())
    throw TransportError("load client failed (status " +
                         std::to_string(status) + ")");
  return util::json::parse(out);
}

http::Handler make_handler() {
  // ~1 KB page, the ballpark of the portal's rendered results — enough
  // body that serialization and write paths do real work, small enough
  // that the bench measures connection handling, not memcpy.
  auto page = std::make_shared<std::string>();
  page->reserve(1024);
  while (page->size() < 1024) *page += "the quick brown fox jumps over ";
  return [page](const http::Request&) {
    http::Response response;
    response.headers.set("Content-Type", "text/plain");
    response.body = *page;
    return response;
  };
}

struct Scenario {
  const char* mode_name;
  http::ServerOptions::Mode mode;
  std::size_t connections;
};

void run_scenario(bench::BenchJson& json, const Scenario& scenario,
                  long duration_ms, long warmup_ms) {
  http::ServerOptions options;
  options.mode = scenario.mode;
  options.idle_timeout = std::chrono::milliseconds(120'000);
  options.max_connections = 16 * 1024;
  http::HttpServer server(0, make_handler(), options);
  server.start();

  const std::string row = std::string(scenario.mode_name) + "/" +
                          std::to_string(scenario.connections) + "conn";
  std::printf("%-18s ...", row.c_str());
  std::fflush(stdout);
  util::json::Value report = spawn_client(server.port(), scenario.connections,
                                          duration_ms, warmup_ms);
  json.add(row, "connections", static_cast<double>(scenario.connections));
  json.add(row, "rps", report.number_or("rps"));
  json.add(row, "p50_us", report.number_or("p50_us"));
  json.add(row, "p99_us", report.number_or("p99_us"));
  json.add(row, "p999_us", report.number_or("p999_us"));
  json.add(row, "errors", report.number_or("errors"));
  std::printf(" %9.0f req/s  p50 %7.0fus  p99 %7.0fus  p999 %7.0fus\n",
              report.number_or("rps"), report.number_or("p50_us"),
              report.number_or("p99_us"), report.number_or("p999_us"));

  server.stop();
  // Leak check: a stopped server holds no connections.
  const std::uint64_t active =
      server.stats().connections_active.load(std::memory_order_relaxed);
  json.add(row, "active_after_stop", static_cast<double>(active));
  if (active != 0)
    std::printf("  WARNING: %llu connections still active after stop\n",
                static_cast<unsigned long long>(active));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--client") == 0)
    return run_client(argc, argv);

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  util::set_log_level(util::LogLevel::Off);
  http::raise_fd_soft_limit();

  const long duration_ms = smoke ? 1'000 : 5'000;
  const long warmup_ms = smoke ? 200 : 1'000;
  std::vector<std::size_t> counts =
      smoke ? std::vector<std::size_t>{1, 64}
            : std::vector<std::size_t>{1, 100, 1'000, 10'000};

  const std::size_t fds_before = open_fd_count();
  const std::uint64_t threads_before = proc_status_value("Threads");

  bench::BenchJson json;
  for (std::size_t conns : counts) {
    Scenario reactor{"reactor", http::ServerOptions::Mode::Reactor, conns};
    run_scenario(json, reactor, duration_ms, warmup_ms);
    Scenario threaded{"threaded", http::ServerOptions::Mode::Threaded, conns};
    run_scenario(json, threaded, duration_ms, warmup_ms);
  }

  // Process-level leak check: every scenario's server (and its worker
  // threads and sockets) must be fully torn down by now.
  const std::size_t fds_after = open_fd_count();
  const std::uint64_t threads_after = proc_status_value("Threads");
  json.add("leakcheck", "fds_before", static_cast<double>(fds_before));
  json.add("leakcheck", "fds_after", static_cast<double>(fds_after));
  json.add("leakcheck", "threads_before", static_cast<double>(threads_before));
  json.add("leakcheck", "threads_after", static_cast<double>(threads_after));
  json.add("leakcheck", "rss_kb", static_cast<double>(proc_status_value("VmRSS")));
  std::printf("leakcheck: fds %zu -> %zu, threads %llu -> %llu\n", fds_before,
              fds_after, static_cast<unsigned long long>(threads_before),
              static_cast<unsigned long long>(threads_after));

  json.write_file("BENCH_ablation_server.json");
  if (fds_after > fds_before || threads_after > threads_before) {
    std::fprintf(stderr, "LEAK: fd or thread count grew across scenarios\n");
    return 1;
  }
  return 0;
}
