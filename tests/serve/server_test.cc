#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "tests/serve/http_client.h"

namespace rhythm {
namespace {

using testing::Fetch;
using testing::TestClient;
using testing::TestResponse;

ServerOptions QuickOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral: tests never collide on a fixed port.
  options.threads = 2;
  options.idle_timeout_s = 2.0;
  return options;
}

TEST(HttpServerTest, ServesRegisteredRoute) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"pong\":true}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  const TestResponse response = Fetch(server.port(), "GET", "/ping");
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"pong\":true}");
  server.Stop();
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(HttpServerTest, UnknownPathIs404UnknownMethodIs405) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/only-get", [](const HttpRequest&) {
    return HttpResponse{};
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  EXPECT_EQ(Fetch(server.port(), "GET", "/nope").status, 404);
  EXPECT_EQ(Fetch(server.port(), "POST", "/only-get").status, 405);
  server.Stop();
}

TEST(HttpServerTest, HandlerExceptionBecomes500) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/boom", [](const HttpRequest&) -> HttpResponse {
    throw std::runtime_error("kaboom");
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const TestResponse response = Fetch(server.port(), "GET", "/boom");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("kaboom"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveServesManyRequestsOnOneConnection) {
  HttpServer server(QuickOptions());
  std::atomic<int> calls{0};
  server.Handle("GET", "/count", [&calls](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"n\":" + std::to_string(++calls) + "}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 1; i <= 5; ++i) {
    const TestResponse response = client.Request("GET", "/count");
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.body, "{\"n\":" + std::to_string(i) + "}");
  }
  server.Stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.requests_served(), 5u);
}

TEST(HttpServerTest, PipelinedRequestsAllAnswered) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{\"path\":\"" + request.target + "\"}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw(
      "GET /echo?a HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /echo?b HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /echo?c HTTP/1.1\r\nHost: t\r\n\r\n"));
  for (const char* tag : {"a", "b", "c"}) {
    const TestResponse response = client.ReadResponse();
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.body, std::string("{\"path\":\"/echo?") + tag + "\"}");
  }
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestGets4xxAndConnectionCloses) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/x", [](const HttpRequest&) { return HttpResponse{}; });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendRaw("NOT A REQUEST AT ALL\r\n\r\n"));
  const TestResponse response = client.ReadResponse();
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.raw.find("Connection: close"), std::string::npos);
}

TEST(HttpServerTest, GracefulStopFinishesInFlightRequests) {
  ServerOptions options = QuickOptions();
  options.threads = 2;
  HttpServer server(options);
  std::atomic<bool> entered{false};
  server.Handle("GET", "/slow", [&entered](const HttpRequest&) {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    HttpResponse response;
    response.body = "{\"done\":true}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  TestResponse slow;
  std::thread client_thread([&slow, port] {
    slow = Fetch(port, "GET", "/slow");
  });
  while (!entered) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.Stop();  // must wait for the in-flight /slow, not cut it off.
  client_thread.join();
  ASSERT_TRUE(slow.ok);
  EXPECT_EQ(slow.body, "{\"done\":true}");
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server(QuickOptions());
  server.Handle("GET", "/p", [](const HttpRequest&) { return HttpResponse{}; });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  server.Stop();
  server.Stop();  // second stop is a no-op.
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(Fetch(server.port(), "GET", "/p").status, 200);
  server.Stop();
}

// An idle keep-alive peer must not hold the only worker while another
// accepted connection waits: the idle connection is given up as soon as one
// is queued, not after the idle timeout.
TEST(HttpServerTest, IdleKeepAliveConnectionYieldsToAQueuedOne) {
  ServerOptions options = QuickOptions();
  options.threads = 1;
  options.idle_timeout_s = 5.0;
  HttpServer server(options);
  server.Handle("GET", "/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"status\":\"ok\"}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  TestClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_EQ(idle.Request("GET", "/healthz").status, 200);  // then sits idle.

  const auto start = std::chrono::steady_clock::now();
  const TestResponse second = Fetch(server.port(), "GET", "/healthz");
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.status, 200);
  EXPECT_LT(elapsed_s, 1.0);
  server.Stop();
}

// A request in progress is never cut for a queued connection: the worker
// reads it to the end, answers it, and only then moves on.
TEST(HttpServerTest, PartialRequestIsFinishedBeforeAQueuedConnection) {
  ServerOptions options = QuickOptions();
  options.threads = 1;
  options.idle_timeout_s = 5.0;
  HttpServer server(options);
  server.Handle("GET", "/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"status\":\"ok\"}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  TestClient slow(port);
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(slow.SendRaw("GET /healthz HTTP/1.1\r\nHost: t\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  TestResponse queued;
  std::thread other([&queued, port] {
    queued = Fetch(port, "GET", "/healthz");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(slow.SendRaw("\r\n"));
  const TestResponse finished = slow.ReadResponse();
  other.join();
  ASSERT_TRUE(finished.ok);
  EXPECT_EQ(finished.status, 200);
  ASSERT_TRUE(queued.ok);
  EXPECT_EQ(queued.status, 200);
  server.Stop();
}

TEST(HttpServerTest, ConcurrentClientsAllServed) {
  ServerOptions options = QuickOptions();
  options.threads = 4;
  options.queue_depth = 64;
  HttpServer server(options);
  server.Handle("GET", "/work", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "{\"ok\":true}";
    return response;
  });
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  const int port = server.port();

  constexpr int kClients = 16;
  std::vector<std::thread> clients;
  std::atomic<int> served{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([port, &served] {
      const TestResponse response = Fetch(port, "GET", "/work");
      if (response.ok && response.status == 200) {
        ++served;
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  server.Stop();
  EXPECT_EQ(served.load(), kClients);
}

}  // namespace
}  // namespace rhythm
