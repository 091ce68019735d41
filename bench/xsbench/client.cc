#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/json.h"
#include "net/wire.h"
#include "spans.h"

namespace xsbench {

namespace {

namespace net = xsketch::net;

constexpr size_t kMaxFrameBytes = 1 << 20;

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // A wedged daemon should fail the run, not hang it past its deadline.
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Connection::Connection(uint16_t port, bool binary) : fd_(ConnectTo(port)) {
  if (fd_ >= 0 && binary && !SendAll(std::string(net::kWirePreface))) {
    ::close(fd_);
    fd_ = -1;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::SendAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::ReadMore() {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

Outcome Connection::Estimate(const std::string& doc, const std::string& query,
                             double* estimate) {
  std::string frame;
  {
    Span span("client.encode");
    net::WireEstimateRequest req;
    req.doc = doc;
    req.query = query;
    net::AppendWireFrame(&frame, net::FrameType::kEstimate,
                         net::EncodeEstimateRequest(req));
  }
  {
    Span span("client.send");
    if (!SendAll(frame)) return Outcome::kTransport;
  }
  net::WireParseResult parsed;
  {
    Span span("client.wait");
    for (;;) {
      parsed = net::ParseWireFrame(rbuf_, kMaxFrameBytes);
      if (parsed.outcome == net::WireParseOutcome::kFrame) break;
      if (parsed.outcome == net::WireParseOutcome::kError || !ReadMore()) {
        return Outcome::kTransport;
      }
    }
  }
  Span span("client.decode");
  rbuf_.erase(0, parsed.consumed);
  const auto type = static_cast<net::FrameType>(parsed.frame.type);
  if (type == net::FrameType::kEstimateOk) {
    auto value = net::DecodeEstimateOk(parsed.frame.payload);
    if (!value.ok()) return Outcome::kTransport;
    *estimate = value.value();
    return Outcome::kOk;
  }
  if (type == net::FrameType::kNack) {
    auto nack = net::DecodeNack(parsed.frame.payload);
    if (!nack.ok()) return Outcome::kTransport;
    return nack.value().first == net::NackCode::kOverload ? Outcome::kShed
                                                          : Outcome::kError;
  }
  return Outcome::kTransport;
}

Outcome Connection::Ping() {
  std::string frame;
  net::AppendWireFrame(&frame, net::FrameType::kPing, "");
  if (!SendAll(frame)) return Outcome::kTransport;
  net::WireParseResult parsed;
  for (;;) {
    parsed = net::ParseWireFrame(rbuf_, kMaxFrameBytes);
    if (parsed.outcome == net::WireParseOutcome::kFrame) break;
    if (parsed.outcome == net::WireParseOutcome::kError || !ReadMore()) {
      return Outcome::kTransport;
    }
  }
  rbuf_.erase(0, parsed.consumed);
  return static_cast<net::FrameType>(parsed.frame.type) ==
                 net::FrameType::kPong
             ? Outcome::kOk
             : Outcome::kError;
}

Outcome Connection::Batch(const std::string& doc,
                          const std::vector<std::string>& queries,
                          std::vector<double>* estimates) {
  std::string request;
  {
    Span span("client.encode");
    request = BatchHttpRequest(BatchRequestBody(doc, queries));
  }
  {
    Span span("client.send");
    if (!SendAll(request)) return Outcome::kTransport;
  }
  size_t header_end = std::string::npos;
  size_t body_len = 0;
  {
    Span span("client.wait");
    for (;;) {
      if (header_end == std::string::npos) {
        header_end = rbuf_.find("\r\n\r\n");
        if (header_end != std::string::npos) {
          const size_t cl = rbuf_.find("Content-Length: ");
          if (cl == std::string::npos || cl > header_end) {
            return Outcome::kTransport;
          }
          body_len = std::strtoull(rbuf_.c_str() + cl + 16, nullptr, 10);
        }
      }
      if (header_end != std::string::npos &&
          rbuf_.size() >= header_end + 4 + body_len) {
        break;
      }
      if (!ReadMore()) return Outcome::kTransport;
    }
  }
  Span span("client.decode");
  if (rbuf_.compare(0, 9, "HTTP/1.1 ") != 0) return Outcome::kTransport;
  const int status = std::atoi(rbuf_.c_str() + 9);
  const std::string body = rbuf_.substr(header_end + 4, body_len);
  rbuf_.erase(0, header_end + 4 + body_len);
  if (status == 429) return Outcome::kShed;
  if (status != 200) return Outcome::kError;
  if (!ParseBatchResponse(body, estimates) ||
      estimates->size() != queries.size()) {
    return Outcome::kError;
  }
  return Outcome::kOk;
}

std::string BatchRequestBody(const std::string& doc,
                             const std::vector<std::string>& queries) {
  std::string body = "{\"doc\":";
  net::AppendJsonString(&body, doc);
  body += ",\"queries\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) body += ",";
    net::AppendJsonString(&body, queries[i]);
  }
  body += "]}";
  return body;
}

std::string BatchHttpRequest(const std::string& body) {
  return "POST /batch HTTP/1.1\r\nHost: xsbench\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

bool ParseBatchResponse(const std::string& body,
                        std::vector<double>* estimates) {
  auto parsed = net::ParseJson(body);
  if (!parsed.ok()) return false;
  const net::JsonValue* results = parsed.value().Find("results");
  if (results == nullptr || results->kind() != net::JsonValue::Kind::kArray) {
    return false;
  }
  estimates->clear();
  for (const net::JsonValue& r : results->array()) {
    const double* v = r.FindNumber("estimate");
    if (v == nullptr) return false;
    estimates->push_back(*v);
  }
  return true;
}

}  // namespace xsbench
