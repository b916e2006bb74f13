// Seams the benchmark owns around the program's layers: a time
// accumulator, an http::Handler wrapper, and a Transport decorator that
// counts posts (always), times them (traced runs only) and can inject one
// fault (self-test only).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "http/server.hpp"
#include "obs/trace.hpp"
#include "transport/transport.hpp"

namespace perfbench {

/// Call count and summed duration at one seam.
struct TimeAcc {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> sum_ns{0};

  void add(std::uint64_t ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    sum_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  /// Only while no call is in flight (between load phases).
  void reset() {
    calls.store(0);
    sum_ns.store(0);
  }
  double mean_us() const {
    const std::uint64_t n = calls.load(std::memory_order_relaxed);
    return n ? static_cast<double>(sum_ns.load(std::memory_order_relaxed)) /
                   static_cast<double>(n) / 1e3
             : 0.0;
  }
};

/// Time every call of `inner` into `acc`.  Installed in traced runs only:
/// untraced runs hand the program's own handler to the server.
inline wsc::http::Handler timed_handler(wsc::http::Handler inner,
                                        TimeAcc& acc) {
  return [inner = std::move(inner), &acc](const wsc::http::Request& request) {
    const std::uint64_t t0 = wsc::obs::now_ns();
    wsc::http::Response response = inner(request);
    acc.add(wsc::obs::now_ns() - t0);
    return response;
  };
}

/// Transport decorator on the client side of the wire.  Counts every post
/// so the benchmark can reconcile client posts with backend requests and
/// cache misses; times the post only while `timed` is set.  `fault`, when
/// set, sees each request and its response and may alter the response or
/// throw (the self-test's corrupted and dropped replies).
class CountingTransport final : public wsc::transport::Transport {
 public:
  using Fault = std::function<void(const wsc::transport::WireRequest&,
                                   wsc::transport::WireResponse&)>;

  CountingTransport(std::shared_ptr<wsc::transport::Transport> inner,
                    bool timed, Fault fault = nullptr)
      : inner_(std::move(inner)), timed_(timed), fault_(std::move(fault)) {}

  wsc::transport::WireResponse post(
      const wsc::util::Uri& endpoint,
      const wsc::transport::WireRequest& request) override {
    if (!timed_) {
      acc.calls.fetch_add(1, std::memory_order_relaxed);
      wsc::transport::WireResponse response = inner_->post(endpoint, request);
      if (fault_) fault_(request, response);
      return response;
    }
    const std::uint64_t t0 = wsc::obs::now_ns();
    wsc::transport::WireResponse response = inner_->post(endpoint, request);
    acc.add(wsc::obs::now_ns() - t0);
    if (fault_) fault_(request, response);
    return response;
  }
  using Transport::post;

  TimeAcc acc;

 private:
  std::shared_ptr<wsc::transport::Transport> inner_;
  bool timed_;
  Fault fault_;
};

}  // namespace perfbench
