// Dependency-free HTTP/1.1 message layer for rhythmd: an incremental
// request parser (bytes in, complete requests out — pipelining-aware) and a
// deterministic response renderer. No sockets here; src/serve/server.h owns
// the transport, which keeps this half trivially fuzzable (see
// tests/serve/http_parser_test.cc).
//
// Robustness contract: any byte stream either yields well-formed requests or
// drives the parser into a sticky error state carrying the 4xx/5xx status to
// answer with before closing — it never throws, never over-reads, and caps
// header and body sizes so a hostile peer cannot balloon memory.

#ifndef RHYTHM_SRC_SERVE_HTTP_H_
#define RHYTHM_SRC_SERVE_HTTP_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace rhythm {

struct HttpLimits {
  size_t max_header_bytes = 16 * 1024;      // request line + headers.
  size_t max_body_bytes = 4 * 1024 * 1024;  // Content-Length cap.
};

struct HttpRequest {
  std::string method;   // as sent (token charset enforced).
  std::string target;   // origin-form path, query string included.
  std::string version;  // "HTTP/1.1" or "HTTP/1.0".
  // Header fields in arrival order, names lower-cased, values trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  bool keep_alive = true;  // after Connection / version defaulting.

  // First header named `lower_name` (must be lower-case); null when absent.
  const std::string* Header(const std::string& lower_name) const;
  // `target` with any ?query suffix removed — what routing matches on.
  std::string Path() const;
};

class HttpRequestParser {
 public:
  explicit HttpRequestParser(HttpLimits limits = {}) : limits_(limits) {}

  // Appends raw bytes from the connection.
  void Feed(const char* data, size_t size) { buffer_.append(data, size); }

  enum class Status {
    kNeedMore,  // no complete request buffered yet.
    kRequest,   // *out holds the next request (pipelined calls keep going).
    kError,     // malformed stream; answer error_status() and close.
  };

  // Extracts the next complete request from the buffer. After kError the
  // parser is poisoned: resynchronizing inside a corrupt stream would risk
  // request smuggling, so every later call reports the same error.
  Status Next(HttpRequest* out);

  // True while no byte of a next request is buffered: the connection sits
  // between requests.
  bool idle() const { return buffer_.empty(); }

  // HTTP status code describing the failure (400, 413, 431, 501, 505).
  int error_status() const { return error_status_; }
  const std::string& error() const { return error_; }

 private:
  Status Poison(int status, const std::string& what);

  HttpLimits limits_;
  std::string buffer_;
  int error_status_ = 0;
  std::string error_;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close = false;  // forces Connection: close on the wire.
};

// Convenience: a JSON error body ({"error": "..."}).
HttpResponse HttpError(int status, const std::string& message);

const char* HttpStatusText(int status);

// Renders status line + headers + body. Deterministic: emits only
// Content-Type, Content-Length and Connection — no Date — so identical
// responses are byte-identical across time and threads.
std::string RenderHttpResponse(const HttpResponse& response, bool keep_alive);

}  // namespace rhythm

#endif  // RHYTHM_SRC_SERVE_HTTP_H_
