#include "util/uri.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace wsc::util {

Uri Uri::parse(std::string_view text) {
  Uri uri;
  auto scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0)
    throw ParseError("URI missing scheme: '" + std::string(text) + "'");
  uri.scheme = to_lower(text.substr(0, scheme_end));
  std::string_view rest = text.substr(scheme_end + 3);

  auto path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  uri.path = path_start == std::string_view::npos
                 ? "/"
                 : std::string(rest.substr(path_start));
  if (authority.empty())
    throw ParseError("URI missing host: '" + std::string(text) + "'");

  auto colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    uri.host = std::string(authority.substr(0, colon));
    std::int64_t port = parse_i64(authority.substr(colon + 1));
    if (port < 1 || port > 65535)
      throw ParseError("URI port out of range: '" + std::string(text) + "'");
    uri.port = static_cast<std::uint16_t>(port);
  } else {
    uri.host = std::string(authority);
  }
  if (uri.host.empty())
    throw ParseError("URI missing host: '" + std::string(text) + "'");
  return uri;
}

std::uint16_t Uri::effective_port() const {
  if (port != 0) return port;
  if (scheme == "http") return 80;
  return 0;
}

std::string Uri::to_string() const {
  std::string s = scheme + "://" + host;
  if (port != 0) {
    s += ':';
    s += std::to_string(port);
  }
  s += path;
  return s;
}

}  // namespace wsc::util
