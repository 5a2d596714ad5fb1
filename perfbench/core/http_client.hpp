// A loopback HTTP/1.1 client for the serve workloads: one request per
// connection (the server answers Connection: close), so a client holds
// at most one connection at a time. Each request is one "http" span on
// the ledger when tracing is on.
#pragma once

#include <string>

#include "core/ledger.hpp"

namespace perfbench {

struct HttpReply {
  int status = 0;    ///< 0 when the exchange failed (see error).
  std::string body;
  std::string error;
};

class HttpClient {
 public:
  HttpClient(int port, Ledger& ledger, int thread)
      : port_(port), ledger_(ledger), thread_(thread) {}

  /// One request/response round trip; never throws (transport failures
  /// come back with status 0). `op`/`parent` tag the span.
  HttpReply request(const std::string& method, const std::string& path,
                    const std::string& body = "", int op = -1,
                    int parent = -1);

  /// Requests made through this client so far.
  long requests() const { return requests_; }

 private:
  int port_;
  Ledger& ledger_;
  int thread_;
  long requests_ = 0;
};

}  // namespace perfbench
