// Closed-loop loopback clients for the daemon: one persistent XSKB
// connection (kEstimate) or one keep-alive HTTP/1.1 connection (POST
// /batch). Each call is one request; the caller times it. Inside, spans
// mark the four client steps — encode, send, wait, decode — so the traced
// run can split a request's time between the client and the server.

#ifndef XSKETCH_BENCH_XSBENCH_CLIENT_H_
#define XSKETCH_BENCH_XSBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xsbench {

// How the daemon answered one request.
enum class Outcome {
  kOk,
  kShed,   // explicit overload answer (NACK kOverload / HTTP 429)
  kError,  // any other NACK / non-200 status / per-query error
  kTransport,  // connection died, timed out, or sent garbage
};

class Connection {
 public:
  // Connects to 127.0.0.1:`port`; `binary` selects XSKB (else HTTP).
  Connection(uint16_t port, bool binary);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // XSKB kEstimate of one query text.
  Outcome Estimate(const std::string& doc, const std::string& query,
                   double* estimate);

  // XSKB kPing: the daemon answers it on its event loop, without a worker.
  Outcome Ping();

  // HTTP POST /batch; `estimates` receives one value per query on kOk.
  Outcome Batch(const std::string& doc, const std::vector<std::string>& queries,
                std::vector<double>* estimates);

 private:
  bool SendAll(const std::string& bytes);
  // Appends at least one more chunk of the response to rbuf_.
  bool ReadMore();

  int fd_ = -1;
  std::string rbuf_;
};

// The /batch request body the HTTP client sends (also used by the ledger's
// in-process codec level).
std::string BatchRequestBody(const std::string& doc,
                             const std::vector<std::string>& queries);
std::string BatchHttpRequest(const std::string& body);

// Parses a /batch response body into estimates; false when any result is
// missing or an error.
bool ParseBatchResponse(const std::string& body,
                        std::vector<double>* estimates);

}  // namespace xsbench

#endif  // XSKETCH_BENCH_XSBENCH_CLIENT_H_
