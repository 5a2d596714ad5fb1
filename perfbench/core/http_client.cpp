#include "core/http_client.hpp"

#include <exception>

#include "util/socket.hpp"

namespace perfbench {

HttpReply HttpClient::request(const std::string& method,
                              const std::string& path,
                              const std::string& body, int op, int parent) {
  ++requests_;
  Ledger::Scope span(ledger_, "http", method, op, parent, thread_);
  HttpReply reply;
  try {
    std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1";
    if (!body.empty() || method == "POST") {
      wire += "\r\nContent-Length: " + std::to_string(body.size());
    }
    wire += "\r\n\r\n" + body;
    plc::util::Socket socket = plc::util::Socket::connect_tcp("127.0.0.1",
                                                              port_);
    socket.send_all(wire);
    const std::string response = socket.recv_all();
    const std::size_t head_end = response.find("\r\n\r\n");
    if (response.compare(0, 5, "HTTP/") != 0 || response.size() < 12 ||
        head_end == std::string::npos) {
      reply.error = "malformed response";
      return reply;
    }
    reply.status = std::stoi(response.substr(9, 3));
    reply.body = response.substr(head_end + 4);
  } catch (const std::exception& e) {
    reply.status = 0;
    reply.error = e.what();
  }
  return reply;
}

}  // namespace perfbench
