// HTTP load generator over the epoll load engine (src/http/load_client).
//
// Drives N concurrent keep-alive connections against a server from one
// thread, closed-loop by default or open-loop at a fixed request rate,
// and prints one JSON report line (rps + latency percentiles).
//
//   build/tools/loadgen --port 8080 --connections 100 --duration-ms 5000
//   build/tools/loadgen --port 8080 --connections 1000 --rps 5000
//       --target /portal?q=hello   (one command line)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "http/load_client.hpp"
#include "util/error.hpp"

using namespace wsc;

int main(int argc, char** argv) {
  http::LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<std::uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      options.connections =
          static_cast<std::size_t>(std::atol(next("--connections")));
    } else if (std::strcmp(argv[i], "--duration-ms") == 0) {
      options.duration =
          std::chrono::milliseconds(std::atol(next("--duration-ms")));
    } else if (std::strcmp(argv[i], "--warmup-ms") == 0) {
      options.warmup =
          std::chrono::milliseconds(std::atol(next("--warmup-ms")));
    } else if (std::strcmp(argv[i], "--rps") == 0) {
      options.open_rps = std::atof(next("--rps"));
    } else if (std::strcmp(argv[i], "--target") == 0) {
      options.target = next("--target");
    } else if (std::strcmp(argv[i], "--method") == 0) {
      options.method = next("--method");
    } else if (std::strcmp(argv[i], "--body") == 0) {
      options.body = next("--body");
    } else {
      std::fprintf(stderr,
                   "usage: %s --port N [--host H] [--connections N]\n"
                   "  [--duration-ms N] [--warmup-ms N] [--rps R (open loop)]\n"
                   "  [--target /path] [--method GET] [--body S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }
  try {
    http::LoadReport report = http::run_load(options);
    std::printf("%s\n", report.json().c_str());
    return report.connected == 0 ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
}
