#include "http_load.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include "util/error.hpp"

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void HttpLoadResult::add(const HttpLoadResult& next) {
  attempted += next.attempted;
  responses += next.responses;
  ok += next.ok;
  wrong += next.wrong;
  failed += next.failed;
  in_window += next.in_window;
  window_s += next.window_s;
  process_cpu_ns += next.process_cpu_ns;
  load_cpu_ns += next.load_cpu_ns;
  latency_ns.merge(next.latency_ns);
}

HttpLoad::HttpLoad(std::uint16_t port, std::size_t connections,
                   const std::vector<std::string>& requests)
    : port_(port), requests_(requests), conns_(connections) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0)
    throw wsc::TransportError(std::string("epoll_create1: ") +
                              std::strerror(errno));
  for (std::size_t c = 0; c < conns_.size(); ++c) connect(c);
}

HttpLoad::~HttpLoad() {
  for (Conn& conn : conns_) conn.stream.close();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void HttpLoad::connect(std::size_t c) {
  Conn& conn = conns_[c];
  conn.stream = wsc::http::TcpStream::connect("127.0.0.1", port_,
                                              std::chrono::seconds(10));
  conn.stream.set_nonblocking(true);
  conn.parser = wsc::http::ResponseParser{};
  conn.busy = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.stream.fd(), &ev) != 0)
    throw wsc::TransportError(std::string("epoll_ctl: ") +
                              std::strerror(errno));
}

void HttpLoad::send(std::size_t c, std::size_t index) {
  Conn& conn = conns_[c];
  conn.busy = true;
  conn.index = index;
  conn.out_off = 0;
  conn.send_ns = mono_ns();
  ++result_->attempted;
  ++in_flight_;
  flush(c);
}

void HttpLoad::flush(std::size_t c) {
  Conn& conn = conns_[c];
  const std::string& bytes = requests_[conn.index];
  wsc::http::IoResult r;
  try {
    r = conn.stream.try_write(std::string_view(bytes).substr(conn.out_off));
  } catch (const wsc::Error&) {
    drop(c);
    return;
  }
  if (r.closed) {
    drop(c);
    return;
  }
  conn.out_off += r.bytes;
  epoll_event ev{};
  ev.events = conn.out_off < bytes.size() ? EPOLLIN | EPOLLOUT : EPOLLIN;
  ev.data.u64 = c;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.stream.fd(), &ev);
}

void HttpLoad::drop(std::size_t c) {
  Conn& conn = conns_[c];
  if (conn.busy) {
    conn.busy = false;
    --in_flight_;
    ++result_->failed;
  }
  conn.stream.close();  // also leaves the epoll set
  connect(c);
}

HttpLoadResult HttpLoad::run(const Next& next, const Check& check,
                             std::uint64_t limit, double seconds) {
  HttpLoadResult result;
  result_ = &result;
  in_flight_ = 0;

  const std::uint64_t start = mono_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t load0 = thread_cpu_ns();
  bool window_open = true;
  auto close_window = [&](std::uint64_t at) {
    window_open = false;
    result.window_s = static_cast<double>(at - start) / 1e9;
    result.process_cpu_ns = process_cpu_ns() - cpu0;
    result.load_cpu_ns = thread_cpu_ns() - load0;
  };
  auto may_send = [&] { return window_open && result.attempted < limit; };

  // Responses still missing this long after the window closed count as
  // failed: the closed loop would otherwise wait forever on a lost reply.
  constexpr std::uint64_t kDrainLimitNs = 10'000'000'000ull;
  std::uint64_t drain_until = 0;
  epoll_event events[64];
  char buf[64 * 1024];
  for (;;) {
    std::uint64_t now = mono_ns();
    if (window_open && now >= deadline) close_window(deadline);
    // Closed loop: every idle connection sends its next request at once.
    for (std::size_t c = 0; c < conns_.size() && may_send(); ++c)
      if (!conns_[c].busy) send(c, next());
    if (in_flight_ == 0) break;
    if (!window_open && drain_until == 0) drain_until = now + kDrainLimitNs;
    if (!window_open && now >= drain_until) {
      for (std::size_t c = 0; c < conns_.size(); ++c)
        if (conns_[c].busy) drop(c);
      break;
    }
    const std::uint64_t wake = window_open ? deadline : drain_until;
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    const int wait_ms = static_cast<int>(
        std::min<std::uint64_t>((wait_ns + 999'999) / 1'000'000, 100));
    const int n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw wsc::TransportError(std::string("epoll_wait: ") +
                                std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      const std::size_t c = static_cast<std::size_t>(events[i].data.u64);
      Conn& conn = conns_[c];
      if (!conn.busy) {
        // An idle keep-alive connection only becomes readable when the
        // server closes it; reopen it for the next request.
        drop(c);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        flush(c);
        if (!conn.busy) continue;
      }
      if (!(events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      bool complete = false;
      try {
        for (;;) {
          wsc::http::IoResult r = conn.stream.try_read(buf, sizeof(buf));
          if (r.would_block) break;
          if (r.closed) throw wsc::TransportError("connection closed");
          conn.parser.feed(std::string_view(buf, r.bytes));
          if (conn.parser.complete()) {
            complete = true;
            break;
          }
        }
      } catch (const wsc::Error&) {
        drop(c);
        continue;
      }
      if (!complete) continue;

      const std::uint64_t done = mono_ns();
      wsc::http::Response response = conn.parser.take();
      conn.parser = wsc::http::ResponseParser{};
      conn.busy = false;
      --in_flight_;
      ++result.responses;
      if (response.status >= 200 && response.status < 300) {
        result.latency_ns.record(done - conn.send_ns);
        if (done <= deadline) ++result.in_window;
        if (check(conn.index, response.body))
          ++result.ok;
        else
          ++result.wrong;
      } else {
        ++result.failed;
      }
      if (window_open && done >= deadline) close_window(deadline);
    }
  }
  if (window_open) close_window(mono_ns());
  result_ = nullptr;
  return result;
}

}  // namespace perfbench
