#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "testing/faultpoints.h"
#include "util/check.h"

namespace xsketch::net {

namespace {

// Fixed poll tick: timeout sweeps and the drain-grace check piggyback on
// it, so no timer fd is needed. 20ms is far below any configurable
// timeout and invisible next to estimation latency.
constexpr int kPollTickMs = 20;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

util::Status ServerOptions::Validate() const {
  if (max_connections <= 0) {
    return util::Status::InvalidArgument("max_connections must be positive");
  }
  if (max_request_bytes == 0 || max_header_bytes == 0) {
    return util::Status::InvalidArgument("request/header limits must be > 0");
  }
  if (read_timeout_ms <= 0 || write_timeout_ms <= 0 || idle_timeout_ms <= 0 ||
      drain_grace_ms < 0) {
    return util::Status::InvalidArgument("timeouts must be positive");
  }
  return util::Status::OK();
}

void Responder::Send(ServerResponse&& response) const {
  XS_CHECK_MSG(server_ != nullptr, "Send on a default-constructed Responder");
  server_->PostCompletion(conn_id_, std::move(response));
}

Server::Server(const ServerOptions& options, Dispatcher dispatcher)
    : options_(options), dispatcher_(std::move(dispatcher)) {}

util::Result<std::unique_ptr<Server>> Server::Create(
    const ServerOptions& options, Dispatcher dispatcher) {
  if (util::Status s = options.Validate(); !s.ok()) return s;
  if (!dispatcher) {
    return util::Status::InvalidArgument("server requires a dispatcher");
  }
  std::unique_ptr<Server> server(
      new Server(options, std::move(dispatcher)));
  if (util::Status s = server->Listen(); !s.ok()) return s;
  return server;
}

util::Status Server::Listen() {
  if (XS_FAULT("net.listen")) {
    return util::Status::Internal("faultpoint net.listen fired");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Status::InvalidArgument("bad bind address '" +
                                         options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return util::Status::Internal(std::string("bind: ") +
                                  std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return util::Status::Internal(std::string("listen: ") +
                                  std::strerror(errno));
  }
  if (SetNonBlocking(listen_fd_) < 0) {
    return util::Status::Internal(std::string("fcntl: ") +
                                  std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return util::Status::Internal(std::string("getsockname: ") +
                                  std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    return util::Status::Internal(std::string("pipe2: ") +
                                  std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  return util::Status::OK();
}

Server::~Server() {
  for (auto& [id, conn] : conns_) CloseFd(conn.fd);
  conns_.clear();
  CloseFd(listen_fd_);
  CloseFd(wake_read_fd_);
  CloseFd(wake_write_fd_);
}

void Server::Wake(char code) {
  // Best-effort: a full pipe already guarantees a pending wakeup, and the
  // drain/stop flags are re-read every tick anyway.
  ssize_t n;
  do {
    n = ::write(wake_write_fd_, &code, 1);
  } while (n < 0 && errno == EINTR);
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  Wake('d');
}

void Server::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  Wake('q');
}

void Server::PostCompletion(uint64_t conn_id, ServerResponse&& response) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(Completion{conn_id, std::move(response)});
  }
  Wake('w');
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.evicted_slow = evicted_slow_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

void Server::Run() {
  std::vector<pollfd> pfds;
  // id parallel to pfds (0 = listener/wake slots).
  std::vector<uint64_t> pfd_ids;

  while (!stop_.load(std::memory_order_relaxed)) {
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (draining && drain_started_ms_ < 0) {
      drain_started_ms_ = NowMs();
      // Stop accepting: close the listener so queued SYNs get RSTs
      // instead of sitting in the backlog past our death.
      CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
    if (draining && DrainComplete()) break;
    if (draining && drain_started_ms_ >= 0 &&
        NowMs() - drain_started_ms_ >=
            static_cast<int64_t>(options_.drain_grace_ms)) {
      break;  // grace expired: stragglers are force-closed below
    }

    pfds.clear();
    pfd_ids.clear();
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    pfd_ids.push_back(0);
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_ids.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = 0;
      // While a request is in flight (or we are draining) stop reading:
      // back-pressure the socket instead of buffering unbounded input. A
      // failed connection keeps reading to discard what the client sends.
      if (conn.linger_since_ms >= 0 ||
          (!conn.in_flight && !conn.want_close && !draining)) {
        events |= POLLIN;
      }
      if (conn.woff < conn.wbuf.size()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
      pfd_ids.push_back(id);
    }

    int ready;
    do {
      ready = ::poll(pfds.data(), pfds.size(), kPollTickMs);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) break;  // unrecoverable poll failure

    const int64_t now_ms = NowMs();

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      ssize_t n;
      while ((n = ::read(wake_read_fd_, buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'd') draining_.store(true, std::memory_order_relaxed);
          if (buf[i] == 'q') stop_.store(true, std::memory_order_relaxed);
        }
      }
    }

    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if (pfd_ids[i] == 0) {
        AcceptReady(now_ms);
        continue;
      }
      auto it = conns_.find(pfd_ids[i]);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Conn& conn = it->second;
      if (pfds[i].revents & (POLLERR | POLLNVAL)) {
        CloseConn(conn.id);
        continue;
      }
      if (pfds[i].revents & POLLOUT) {
        WriteReady(conn, now_ms);
        if (conns_.find(pfd_ids[i]) == conns_.end()) continue;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP)) {
        ReadReady(conn, now_ms);
      }
    }

    ProcessCompletions();
    SweepTimeouts(now_ms);
  }

  // Loop exit: whatever the reason, leave no sockets behind.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

bool Server::DrainComplete() const {
  for (const auto& [id, conn] : conns_) {
    if (conn.in_flight || conn.woff < conn.wbuf.size()) return false;
  }
  // Idle keep-alive connections don't block drain; they are closed when
  // the loop exits.
  return true;
}

void Server::AcceptReady(int64_t now_ms) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: next tick retries
    }
    if (conns_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      // Shed at the door. The client sees an immediate close (RST or
      // FIN), which is the strongest "back off" signal we can send
      // before reading a single byte.
      ::close(fd);
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.id = next_conn_id_++;
    conn.fd = fd;
    conn.last_read_ms = now_ms;
    conn.last_write_ms = now_ms;
    conns_.emplace(conn.id, std::move(conn));
    connections_opened_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void Server::ReadReady(Conn& conn, int64_t now_ms) {
  char buf[16 << 10];
  // Bounded reads per wakeup so one firehose client cannot starve the
  // rest of the loop.
  for (int round = 0; round < 4; ++round) {
    ssize_t n;
    do {
      n = ::recv(conn.fd, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      // Peer closed. Anything buffered for write is moot.
      CloseConn(conn.id);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn.id);
      return;
    }
    if (conn.linger_since_ms < 0) {
      conn.rbuf.append(buf, static_cast<size_t>(n));
      conn.last_read_ms = now_ms;
      // Hard backstop on buffered input: the protocol parsers enforce
      // their own limits, but only once they can see a full header.
      const size_t cap =
          options_.max_request_bytes + options_.max_header_bytes + 4096;
      if (conn.rbuf.size() > cap) {
        // Answer in the client's protocol: a first read can overflow the
        // cap before ParseAndDispatch has looked at the preface.
        DetectProto(conn);
        FailConn(conn, 413, NackCode::kBadRequest, "request too large");
        return;
      }
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  if (conn.linger_since_ms < 0) ParseAndDispatch(conn, now_ms);
}

bool Server::DetectProto(Conn& conn) {
  if (conn.proto != Conn::Proto::kUnknown) return true;
  if (conn.rbuf.size() >= kWirePreface.size()) {
    if (std::string_view(conn.rbuf).substr(0, kWirePreface.size()) ==
        kWirePreface) {
      conn.proto = Conn::Proto::kBinary;
      conn.rbuf.erase(0, kWirePreface.size());
    } else {
      conn.proto = Conn::Proto::kHttp;
    }
    return true;
  }
  if (!kWirePreface.starts_with(conn.rbuf)) {
    // Too short for the preface but already not a prefix of it: must be
    // HTTP (e.g. "GET" diverges at the first byte).
    conn.proto = Conn::Proto::kHttp;
    return true;
  }
  return false;  // need more bytes to decide
}

void Server::ParseAndDispatch(Conn& conn, int64_t now_ms) {
  while (!conn.in_flight && !conn.want_close) {
    if (!DetectProto(conn)) return;

    if (conn.proto == Conn::Proto::kHttp) {
      HttpLimits limits;
      limits.max_header_bytes = options_.max_header_bytes;
      limits.max_body_bytes = options_.max_request_bytes;
      HttpParseResult parsed = ParseHttpRequest(conn.rbuf, limits);
      if (parsed.outcome == HttpParseOutcome::kNeedMore) return;
      if (parsed.outcome == HttpParseOutcome::kError) {
        FailConn(conn, parsed.error_status, NackCode::kBadRequest,
                 parsed.error);
        return;
      }
      conn.rbuf.erase(0, parsed.consumed);
      conn.in_flight = true;
      conn.cur_keep_alive = parsed.request.keep_alive;
      requests_.fetch_add(1, std::memory_order_relaxed);
      ServerRequest req;
      req.proto = ServerRequest::Proto::kHttp;
      req.http = std::move(parsed.request);
      dispatcher_(std::move(req), Responder(this, conn.id));
    } else {
      WireParseResult parsed =
          ParseWireFrame(conn.rbuf, options_.max_request_bytes);
      if (parsed.outcome == WireParseOutcome::kNeedMore) return;
      if (parsed.outcome == WireParseOutcome::kError) {
        FailConn(conn, 413, NackCode::kBadRequest, parsed.error);
        return;
      }
      conn.rbuf.erase(0, parsed.consumed);
      conn.in_flight = true;
      conn.cur_keep_alive = true;
      requests_.fetch_add(1, std::memory_order_relaxed);
      ServerRequest req;
      req.proto = ServerRequest::Proto::kBinary;
      req.frame = std::move(parsed.frame);
      dispatcher_(std::move(req), Responder(this, conn.id));
    }
    (void)now_ms;
  }
}

void Server::FailConn(Conn& conn, int http_status, NackCode code,
                      const std::string& message) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  if (conn.proto == Conn::Proto::kBinary) {
    std::string payload = EncodeNack(code, message);
    AppendWireFrame(&conn.wbuf, FrameType::kNack, payload);
  } else {
    std::string body = "{\"error\":\"" + message + "\"}\n";
    conn.wbuf += SerializeHttpResponse(http_status, "application/json", body,
                                       /*keep_alive=*/false);
  }
  // The rest of the failed request may still be in flight. Closing with
  // it unread would reset the connection, and the client could lose the
  // error or fail its send; linger instead (WriteReady, SweepTimeouts).
  conn.want_close = true;
  conn.linger_since_ms = NowMs();
  conn.rbuf.clear();
  WriteReady(conn, conn.linger_since_ms);
}

void Server::WriteReady(Conn& conn, int64_t now_ms) {
  while (conn.woff < conn.wbuf.size()) {
    size_t chunk = conn.wbuf.size() - conn.woff;
    if (XS_FAULT("net.short_write") && chunk > 1) chunk = 1;
    ssize_t n;
    do {
      n = ::send(conn.fd, conn.wbuf.data() + conn.woff, chunk, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(conn.id);  // EPIPE/ECONNRESET: client is gone
      return;
    }
    conn.woff += static_cast<size_t>(n);
    conn.last_write_ms = now_ms;
  }
  conn.wbuf.clear();
  conn.woff = 0;
  if (!conn.want_close) return;
  if (conn.linger_since_ms < 0) {
    CloseConn(conn.id);
    return;
  }
  // The error is flushed: send FIN so the client reads it and then EOF,
  // and keep discarding its input until it closes.
  ::shutdown(conn.fd, SHUT_WR);
}

void Server::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  const int64_t now_ms = NowMs();
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection died while handling
    Conn& conn = it->second;
    conn.in_flight = false;
    bool keep_alive = conn.cur_keep_alive && !c.response.close;
    if (draining_.load(std::memory_order_relaxed)) keep_alive = false;
    if (conn.proto == Conn::Proto::kBinary) {
      AppendWireFrame(&conn.wbuf, c.response.frame_type, c.response.body);
      if (c.response.close) conn.want_close = true;
      if (draining_.load(std::memory_order_relaxed)) conn.want_close = true;
    } else {
      conn.wbuf += SerializeHttpResponse(
          c.response.status, c.response.content_type, c.response.body,
          keep_alive, c.response.extra_headers);
      if (!keep_alive) conn.want_close = true;
    }
    conn.last_write_ms = now_ms;  // response start counts as progress
    WriteReady(conn, now_ms);
    if (conns_.find(c.conn_id) == conns_.end()) continue;
    // Pipelined bytes may already hold the next request.
    if (!conn.want_close) ParseAndDispatch(conn, now_ms);
  }
}

void Server::SweepTimeouts(int64_t now_ms) {
  std::vector<uint64_t> evict;
  std::vector<uint64_t> fail_read;
  std::vector<uint64_t> linger_done;
  for (auto& [id, conn] : conns_) {
    const bool mid_request = !conn.rbuf.empty() && !conn.in_flight;
    const bool writing = conn.woff < conn.wbuf.size();
    const bool idle = conn.rbuf.empty() && !conn.in_flight && !writing;
    if (conn.linger_since_ms >= 0 && !writing) {
      // A flushed error reply: the client has had read_timeout_ms to
      // finish sending and close.
      if (now_ms - conn.linger_since_ms >=
          static_cast<int64_t>(options_.read_timeout_ms)) {
        linger_done.push_back(id);
      }
    } else if (writing &&
               now_ms - conn.last_write_ms >=
                   static_cast<int64_t>(options_.write_timeout_ms)) {
      evict.push_back(id);  // stalled reader: no polite goodbye possible
    } else if (mid_request &&
               now_ms - conn.last_read_ms >=
                   static_cast<int64_t>(options_.read_timeout_ms)) {
      fail_read.push_back(id);
    } else if (idle && now_ms - std::max(conn.last_read_ms,
                                         conn.last_write_ms) >=
                           static_cast<int64_t>(options_.idle_timeout_ms)) {
      evict.push_back(id);
    }
  }
  for (uint64_t id : evict) {
    evicted_slow_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(id);
  }
  for (uint64_t id : linger_done) CloseConn(id);
  for (uint64_t id : fail_read) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    evicted_slow_.fetch_add(1, std::memory_order_relaxed);
    FailConn(it->second, 408, NackCode::kBadRequest,
             "timed out waiting for the rest of the request");
  }
}

void Server::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  CloseFd(it->second.fd);
  conns_.erase(it);
  open_connections_.store(conns_.size(), std::memory_order_relaxed);
}

}  // namespace xsketch::net
