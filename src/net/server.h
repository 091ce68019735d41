// Poll-based event-loop server: one loop thread owns every connection;
// request handlers run wherever the dispatcher puts them and answer
// through thread-safe Responders.
//
// Design (after the gskmainloop/http-server shape the ROADMAP points
// at): the loop accepts, reads, parses, and writes; it never executes
// estimation work. A complete request is handed to the Dispatcher *on
// the loop thread* — the dispatcher must only route: admit into a worker
// pool (or shed and answer immediately). The worker finishes by calling
// Responder::Send from its own thread; the response crosses back to the
// loop over a mutex-guarded completion queue plus a self-pipe wakeup, so
// connection state is single-threaded by construction (TSan-clean
// without per-connection locks).
//
// Two protocols share the port: plain HTTP/1.1 and the XSKB binary
// framing (net/wire.h). The first bytes of a connection pick the mode —
// "XSKB" is not a prefix of any HTTP method.
//
// Robustness contract:
//  * request-size and header limits answer 413/431 (or a NACK) and close
//    lingering: after the error is flushed the write side is shut down
//    and unread input is discarded until the client closes, or for at
//    most read_timeout_ms, so the close never resets the connection
//    before the client has read the error
//  * slow clients are evicted: no read progress mid-request within
//    read_timeout_ms -> 408 + close; a stalled response write within
//    write_timeout_ms -> close; keep-alive idle past idle_timeout_ms ->
//    close
//  * at max_connections, new accepts are closed immediately (shed at the
//    door; the admission queue protects the workers, this protects the
//    loop)
//  * writes use MSG_NOSIGNAL — a dead client is an error return, never
//    a SIGPIPE (entry points additionally ignore the signal process-wide)
//  * drain (BeginDrain, or one byte written to drain_fd() from a signal
//    handler): stop accepting, stop reading new requests, let in-flight
//    handlers answer and flush, then Run() returns; drain_grace_ms caps
//    the wait before stragglers are force-closed

#ifndef XSKETCH_NET_SERVER_H_
#define XSKETCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "net/wire.h"
#include "util/status.h"

namespace xsketch::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  int max_connections = 1024;
  // HTTP body / binary frame payload limit (bytes); headers have their
  // own budget below.
  size_t max_request_bytes = 1 << 20;
  size_t max_header_bytes = 16 << 10;
  int read_timeout_ms = 10'000;
  int write_timeout_ms = 10'000;
  int idle_timeout_ms = 60'000;
  int drain_grace_ms = 5'000;

  util::Status Validate() const;
};

struct ServerRequest {
  enum class Proto { kHttp, kBinary };
  Proto proto = Proto::kHttp;
  HttpRequest http;  // engaged for kHttp
  WireFrame frame;   // engaged for kBinary
};

struct ServerResponse {
  // HTTP connections read status/content_type/extra_headers + body.
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> extra_headers;
  // Binary connections read frame_type + body (the frame payload).
  FrameType frame_type = FrameType::kNack;
  std::string body;
  // Force-close the connection after the response is flushed.
  bool close = false;
};

class Server;

// One-shot completion handle for a dispatched request. Copyable, callable
// from any thread, exactly once per request. Safe to call for a
// connection that has since died (the response is dropped). The Server
// must outlive every outstanding Responder — owners shut their worker
// pool down before destroying the server.
class Responder {
 public:
  Responder() = default;
  void Send(ServerResponse&& response) const;

 private:
  friend class Server;
  Responder(Server* server, uint64_t conn_id)
      : server_(server), conn_id_(conn_id) {}
  Server* server_ = nullptr;
  uint64_t conn_id_ = 0;
};

// Called on the loop thread for every complete request: route fast, do
// the work elsewhere, answer via the Responder.
using Dispatcher = std::function<void(ServerRequest&&, Responder)>;

class Server {
 public:
  // Binds and listens (so port() is known before Run). The dispatcher
  // must stay valid until Run returns.
  static util::Result<std::unique_ptr<Server>> Create(
      const ServerOptions& options, Dispatcher dispatcher);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  // Runs the event loop on the calling thread until Stop() or a
  // completed drain.
  void Run();

  // Graceful drain, callable from any thread. Async-signal-safe variant:
  // write one byte to drain_fd() from the handler.
  void BeginDrain();
  int drain_fd() const { return wake_write_fd_; }

  // Immediate stop: close everything, Run returns. (Tests/abort path;
  // production exits through BeginDrain.)
  void Stop();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  struct Stats {
    uint64_t connections_opened = 0;
    uint64_t connections_rejected = 0;  // at max_connections
    uint64_t requests = 0;
    uint64_t evicted_slow = 0;          // read/write-stall evictions
    uint64_t protocol_errors = 0;
    size_t open_connections = 0;
  };
  Stats stats() const;

 private:
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    enum class Proto { kUnknown, kHttp, kBinary } proto = Proto::kUnknown;
    std::string rbuf;
    std::string wbuf;
    size_t woff = 0;            // bytes of wbuf already written
    bool in_flight = false;     // dispatched request awaiting response
    bool want_close = false;    // close once wbuf flushes
    bool cur_keep_alive = true; // keep-alive of the in-flight HTTP request
    // When FailConn answered an error (steady ms), else -1. Input after
    // that is discarded, never parsed.
    int64_t linger_since_ms = -1;
    // Progress clocks (steady, ms since loop start) for eviction.
    int64_t last_read_ms = 0;
    int64_t last_write_ms = 0;
  };

  struct Completion {
    uint64_t conn_id = 0;
    ServerResponse response;
  };

  Server(const ServerOptions& options, Dispatcher dispatcher);

  util::Status Listen();
  void Wake(char code);
  void AcceptReady(int64_t now_ms);
  void ReadReady(Conn& conn, int64_t now_ms);
  // Picks the connection's protocol from its first bytes (the XSKB
  // preface, or anything else for HTTP); false while they cannot tell.
  bool DetectProto(Conn& conn);
  void WriteReady(Conn& conn, int64_t now_ms);
  // Parses as many complete requests from conn.rbuf as the protocol
  // allows (one at a time per connection: reading pauses while a request
  // is in flight).
  void ParseAndDispatch(Conn& conn, int64_t now_ms);
  void ProcessCompletions();
  void SweepTimeouts(int64_t now_ms);
  void CloseConn(uint64_t conn_id);
  // True when drain can finish: nothing in flight, nothing buffered.
  bool DrainComplete() const;
  void FailConn(Conn& conn, int http_status, NackCode code,
                const std::string& message);

  friend class Responder;
  void PostCompletion(uint64_t conn_id, ServerResponse&& response);

  const ServerOptions options_;
  const Dispatcher dispatcher_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 1;

  std::unordered_map<uint64_t, Conn> conns_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  int64_t drain_started_ms_ = -1;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;  // guarded by completions_mu_

  // Loop-thread-written, any-thread-read counters.
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> evicted_slow_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<size_t> open_connections_{0};
};

}  // namespace xsketch::net

#endif  // XSKETCH_NET_SERVER_H_
