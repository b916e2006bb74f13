// Transport layer: in-process and HTTP transports, SOAP-over-HTTP glue.
#include <gtest/gtest.h>

#include <chrono>

#include "soap/deserializer.hpp"
#include "soap/serializer.hpp"
#include "tests/soap/test_service.hpp"
#include "transport/http_transport.hpp"
#include "xml/sax_parser.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/soap_http.hpp"
#include "util/error.hpp"

namespace wsc::transport {
namespace {

using reflect::Object;
using wsc::soap::testing::make_test_service;
using wsc::soap::testing::test_description;

std::string echo_request_xml(const std::string& s) {
  soap::RpcRequest r;
  r.ns = "urn:Test";
  r.operation = "echoString";
  r.params = {{"s", Object::make(s)}};
  return soap::serialize_request(r);
}

std::string decode_echo(const std::string& response_xml) {
  return soap::read_response(xml::XmlTextSource(response_xml),
                             test_description()->require_operation("echoString"))
      .as<std::string>();
}

// --- InProcessTransport ---------------------------------------------------------

TEST(InProcessTransportTest, DispatchesToBoundService) {
  InProcessTransport transport;
  transport.bind("inproc://svc/a", make_test_service());
  WireResponse response = transport.post(util::Uri::parse("inproc://svc/a"),
                                         "urn:Test#echoString",
                                         echo_request_xml("hi"));
  EXPECT_EQ(decode_echo(response.body), "echo:hi");
  EXPECT_FALSE(response.not_modified);
}

TEST(InProcessTransportTest, UnboundEndpointThrows) {
  InProcessTransport transport;
  EXPECT_THROW(transport.post(util::Uri::parse("inproc://nowhere/x"), "a",
                              echo_request_xml("hi")),
               TransportError);
}

TEST(InProcessTransportTest, EndpointsAreIndependent) {
  InProcessTransport transport;
  auto service_a = make_test_service();
  auto service_b = make_test_service();
  service_b->bind("echoString", [](const std::vector<soap::Parameter>& p) {
    return Object::make("B:" + p.at(0).value.as<std::string>());
  });
  transport.bind("inproc://svc/a", service_a);
  transport.bind("inproc://svc/b", service_b);
  EXPECT_EQ(decode_echo(transport
                            .post(util::Uri::parse("inproc://svc/a"), "",
                                  echo_request_xml("x"))
                            .body),
            "echo:x");
  EXPECT_EQ(decode_echo(transport
                            .post(util::Uri::parse("inproc://svc/b"), "",
                                  echo_request_xml("x"))
                            .body),
            "B:x");
}

TEST(InProcessTransportTest, AdvertisedDirectivesAttached) {
  InProcessTransport transport;
  http::CacheDirectives d;
  d.max_age = std::chrono::seconds(77);
  transport.bind("inproc://svc/a", make_test_service(), d);
  WireResponse response = transport.post(util::Uri::parse("inproc://svc/a"),
                                         "", echo_request_xml("x"));
  ASSERT_TRUE(response.directives.max_age.has_value());
  EXPECT_EQ(response.directives.max_age->count(), 77);
}

TEST(InProcessTransportTest, SimulatedLatencyApplied) {
  InProcessTransport transport;
  transport.bind("inproc://svc/a", make_test_service());
  transport.set_latency(std::chrono::microseconds(20'000));
  auto t0 = std::chrono::steady_clock::now();
  transport.post(util::Uri::parse("inproc://svc/a"), "", echo_request_xml("x"));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
}

TEST(InProcessTransportTest, ConditionalRequestAnswered304) {
  InProcessTransport transport;
  transport.bind("inproc://svc/a", make_test_service(), {},
                 [](const std::string& op) {
                   EXPECT_EQ(op, "echoString");
                   return std::optional<std::chrono::seconds>(
                       std::chrono::seconds(100));
                 });
  WireRequest request;
  request.body = echo_request_xml("x");
  request.if_modified_since = std::chrono::seconds(100);
  WireResponse response =
      transport.post(util::Uri::parse("inproc://svc/a"), request);
  EXPECT_TRUE(response.not_modified);
  EXPECT_TRUE(response.body.empty());

  // Older validator: full response.
  request.if_modified_since = std::chrono::seconds(99);
  response = transport.post(util::Uri::parse("inproc://svc/a"), request);
  EXPECT_FALSE(response.not_modified);
  EXPECT_EQ(decode_echo(response.body), "echo:x");
}

// --- HttpTransport ---------------------------------------------------------------

TEST(HttpTransportTest, RejectsNonHttpScheme) {
  HttpTransport transport;
  EXPECT_THROW(transport.post(util::Uri::parse("inproc://svc/x"), "a", "b"),
               TransportError);
}

TEST(HttpTransportTest, PostsSoapAndDecodes) {
  auto server = serve_soap(0, "/svc", make_test_service());
  HttpTransport transport;
  util::Uri endpoint = util::Uri::parse(server->base_url() + "/svc");
  WireResponse response =
      transport.post(endpoint, "urn:Test#echoString", echo_request_xml("net"));
  EXPECT_EQ(decode_echo(response.body), "echo:net");
  server->stop();
}

TEST(HttpTransportTest, FaultArrivesWithBody) {
  auto server = serve_soap(0, "/svc", make_test_service());
  HttpTransport transport;
  soap::RpcRequest r;
  r.ns = "urn:Test";
  r.operation = "failOp";
  r.params = {{"msg", Object::make(std::string("bad"))}};
  WireResponse response =
      transport.post(util::Uri::parse(server->base_url() + "/svc"), "",
                     soap::serialize_request(r));
  EXPECT_NE(response.body.find("soapenv:Fault"), std::string::npos);
  server->stop();
}

TEST(HttpTransportTest, ConnectionsAreReused) {
  auto server = serve_soap(0, "/svc", make_test_service());
  HttpTransport transport;
  util::Uri endpoint = util::Uri::parse(server->base_url() + "/svc");
  for (int i = 0; i < 25; ++i) {
    WireResponse response = transport.post(
        endpoint, "",
        echo_request_xml(std::string("n").append(std::to_string(i))));
    EXPECT_EQ(decode_echo(response.body), "echo:n" + std::to_string(i));
  }
  server->stop();
}

// --- soap_http glue ---------------------------------------------------------------

TEST(SoapHttpTest, RoutesOnlyConfiguredPath) {
  auto handler = make_soap_handler("/svc", make_test_service());
  http::Request request;
  request.method = "POST";
  request.target = "/other";
  EXPECT_EQ(handler(request).status, 404);
  request.target = "/svc";
  request.method = "GET";
  EXPECT_EQ(handler(request).status, 405);
}

TEST(SoapHttpTest, FaultMapsTo500) {
  auto handler = make_soap_handler("/svc", make_test_service());
  http::Request request;
  request.method = "POST";
  request.target = "/svc";
  request.body = "not soap";
  http::Response response = handler(request);
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("soapenv:Fault"), std::string::npos);
}

TEST(SoapHttpTest, LastModifiedHeaderAttached) {
  auto handler = make_soap_handler(
      "/svc", make_test_service(), {}, [](const std::string&) {
        return std::optional<std::chrono::seconds>(std::chrono::seconds(3600));
      });
  http::Request request;
  request.method = "POST";
  request.target = "/svc";
  request.body = echo_request_xml("x");
  http::Response response = handler(request);
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(response.headers.get("Last-Modified").has_value());
  EXPECT_EQ(http::parse_http_date(*response.headers.get("Last-Modified")),
            std::chrono::seconds(3600));
}

}  // namespace
}  // namespace wsc::transport
