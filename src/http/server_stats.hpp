// Connection-layer telemetry shared by both HttpServer modes (threaded
// and reactor).  Plain relaxed atomics, readable from any thread; the
// portal bridges these into its MetricsRegistry (wsc_server_* families)
// and the /stats document via PortalSite::attach_server().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace wsc::http {

struct ServerStats {
  // Counters (monotonic).
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> idle_reaped{0};       // closed by idle timeout
  std::atomic<std::uint64_t> requests{0};          // fully parsed requests
  std::atomic<std::uint64_t> responses{0};         // responses written
  std::atomic<std::uint64_t> handler_errors{0};    // handler threw -> 500
  std::atomic<std::uint64_t> limit_rejected{0};    // 431/413 responses
  std::atomic<std::uint64_t> protocol_errors{0};   // parse failures -> drop
  std::atomic<std::uint64_t> accept_pauses{0};     // backpressure engaged
  std::atomic<std::uint64_t> overflow_closed{0};   // write-buffer cap hit
  std::atomic<std::uint64_t> workers_reaped{0};    // finished handles joined
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  // Gauges (current level).
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> connections_idle{0};  // parked keep-alive
  std::atomic<std::uint64_t> dispatch_depth{0};    // handler queue in-flight
  std::atomic<std::uint64_t> worker_threads{0};    // live worker threads

  std::uint64_t get(const std::atomic<std::uint64_t>& c) const {
    return c.load(std::memory_order_relaxed);
  }
};

/// One consistent-enough JSON object for the portal's /stats endpoint.
inline std::string server_stats_json(const ServerStats& s) {
  auto field = [](const char* name, std::uint64_t v) {
    return std::string("\"").append(name).append("\": ").append(
        std::to_string(v));
  };
  std::string out = "{";
  out += field("connections_accepted", s.get(s.connections_accepted)) + ", ";
  out += field("connections_active", s.get(s.connections_active)) + ", ";
  out += field("connections_idle", s.get(s.connections_idle)) + ", ";
  out += field("connections_closed", s.get(s.connections_closed)) + ", ";
  out += field("idle_reaped", s.get(s.idle_reaped)) + ", ";
  out += field("requests", s.get(s.requests)) + ", ";
  out += field("responses", s.get(s.responses)) + ", ";
  out += field("handler_errors", s.get(s.handler_errors)) + ", ";
  out += field("limit_rejected", s.get(s.limit_rejected)) + ", ";
  out += field("protocol_errors", s.get(s.protocol_errors)) + ", ";
  out += field("accept_pauses", s.get(s.accept_pauses)) + ", ";
  out += field("overflow_closed", s.get(s.overflow_closed)) + ", ";
  out += field("workers_reaped", s.get(s.workers_reaped)) + ", ";
  out += field("worker_threads", s.get(s.worker_threads)) + ", ";
  out += field("dispatch_depth", s.get(s.dispatch_depth)) + ", ";
  out += field("bytes_in", s.get(s.bytes_in)) + ", ";
  out += field("bytes_out", s.get(s.bytes_out));
  out += "}";
  return out;
}

}  // namespace wsc::http
