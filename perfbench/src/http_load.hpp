// Closed-loop HTTP load generator for the portal workloads.
//
// One thread drives a fixed set of keep-alive connections through epoll.
// Each connection has at most one request in flight and sends the next one
// as soon as the previous response has been read (the paper's virtual
// clients wait for their page before asking for the next).  The caller
// chooses every request's target and checks every response body, so the
// same engine runs the warm-up, the timed window and the self-test.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "http/parser.hpp"
#include "http/socket.hpp"
#include "util/histogram.hpp"

namespace perfbench {

struct HttpLoadResult {
  std::uint64_t attempted = 0;  // requests sent
  std::uint64_t responses = 0;  // HTTP responses read, any status
  std::uint64_t ok = 0;         // 2xx and the body check passed
  std::uint64_t wrong = 0;      // 2xx but the body check failed
  std::uint64_t failed = 0;     // non-2xx, or no response at all
  std::uint64_t in_window = 0;  // 2xx responses read before the deadline
  double window_s = 0;          // from the first send to the deadline
  std::uint64_t process_cpu_ns = 0;  // whole process, over the window
  std::uint64_t load_cpu_ns = 0;     // this (load) thread, over the window
  wsc::util::Histogram latency_ns{7};  // send to full response, 2xx only

  /// Fold in the result of a following run on the same connections.
  void add(const HttpLoadResult& next);
};

class HttpLoad {
 public:
  /// Returns the index (into `requests`) of the next request to send.
  using Next = std::function<std::size_t()>;
  /// Judges a 2xx response body for request `index`.
  using Check = std::function<bool(std::size_t index, const std::string& body)>;

  /// Opens `connections` keep-alive connections to 127.0.0.1:`port`.
  /// `requests` holds complete request bytes and must outlive the load.
  HttpLoad(std::uint16_t port, std::size_t connections,
           const std::vector<std::string>& requests);
  ~HttpLoad();

  HttpLoad(const HttpLoad&) = delete;
  HttpLoad& operator=(const HttpLoad&) = delete;

  /// Send requests until `limit` have been sent or `seconds` have passed,
  /// whichever comes first, then wait for every response still in flight.
  HttpLoadResult run(const Next& next, const Check& check, std::uint64_t limit,
                     double seconds);

 private:
  struct Conn {
    wsc::http::TcpStream stream;
    wsc::http::ResponseParser parser;
    bool busy = false;
    std::size_t index = 0;
    std::size_t out_off = 0;
    std::uint64_t send_ns = 0;
  };

  void connect(std::size_t c);
  void send(std::size_t c, std::size_t index);
  void flush(std::size_t c);
  void drop(std::size_t c);  // in-flight request failed; reconnect

  std::uint16_t port_;
  const std::vector<std::string>& requests_;
  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  HttpLoadResult* result_ = nullptr;  // the run in progress
  std::size_t in_flight_ = 0;
};

/// CPU time of the whole process / the calling thread, in nanoseconds.
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns();
/// Steady-clock nanoseconds (the clock obs::now_ns() also reads).
std::uint64_t mono_ns();

}  // namespace perfbench
