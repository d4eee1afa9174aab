// Wall-clock serving gateway: the DES fleet behind a real TCP front end.
//
// Everything below the gateway is the simulator-grown serving stack —
// ServiceFleet, InferenceService, ExecutionEngine — unchanged. The gateway
// re-hosts that stack on real time and real concurrency:
//
//  - One driver thread installs a sim::WallClock on the cluster's simulator
//    and runs the event loop: events fire when their timestamps actually
//    pass. The same thread serves the TCP front end. The listen socket and
//    every connection sit in the clock's poll set, so between events the
//    driver sleeps in a single ppoll() whose timeout is the next event, and
//    a readable socket ends the sleep as a wake does. Accepting, reading,
//    line parsing, admission and every response write run on the driver;
//    accepted sockets have TCP_NODELAY set, so a response never waits for
//    the client's delayed ACK of the one before. All fleet/service/
//    simulator/socket state stays driver-thread-only; other threads touch
//    exactly two thread-safe objects — the MPSC queue fed by
//    Gateway::submit and the clock's wake().
//  - An optional PlannerPool (Options::planner_workers > 0) moves
//    IStrategy::plan() off the driver thread; plans are epoch-checked at
//    delivery so one computed across a churn/link event is re-requested,
//    never dispatched stale.
//  - A dependency-free line protocol serves external clients: one
//    newline-delimited JSON object per request in, e.g.
//        {"id":7,"model":"resnet152","qos":"interactive","deadline_ms":500}
//    and streamed JSON events back on the same connection: an "accepted"
//    echo when the line parses, then a terminal
//        {"event":"done","id":7,"outcome":"completed","latency_ms":12.3}
//    when the request leaves the fleet ("error" for bad lines / unknown
//    models). "qos", "deadline_ms" and "id" are optional; responses echo
//    "id" (-1 when the client sent none), so concurrent requests on one
//    connection need client-chosen ids to correlate. A line longer than
//    Gateway::kMaxLineBytes gets an "error" event and its connection is
//    closed. A connection is closed and reaped at EOF; responses still due
//    to it are dropped.
//
// The same binary remains a deterministic DES: never start a gateway and
// the simulator keeps its default VirtualClock, bit-identical to the seed.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fleet.hpp"
#include "runtime/planner_pool.hpp"
#include "sim/clock.hpp"
#include "util/mpsc.hpp"

namespace hidp::runtime {

/// Minimal flat-JSON field extraction for the gateway's line protocol (no
/// nesting, no arrays — every protocol message is one flat object). Shared
/// with tests and the example client.
namespace jsonl {
std::optional<std::string> string_field(const std::string& line, const std::string& key);
std::optional<double> number_field(const std::string& line, const std::string& key);
}  // namespace jsonl

/// One programmatic gateway request. Deadline is relative to admission —
/// the gateway stamps the absolute deadline on the wall timeline when the
/// driver admits the request.
struct GatewayRequest {
  const dnn::DnnGraph* model = nullptr;
  QosClass qos = QosClass::kStandard;
  double deadline_rel_s = 0.0;  ///< <= 0 = no deadline
};

struct GatewayOptions {
  std::uint16_t port = 0;           ///< TCP listen port; 0 = ephemeral
  std::size_t planner_workers = 0;  ///< planner pool size; 0 = inline planning
};

/// Lifecycle counters, readable from any thread while the gateway runs.
/// The planner counters combine the fleet/service strategies (refreshed by
/// the driver between events) with the planner pool's workers (live).
struct GatewayStats {
  std::uint64_t received = 0;   ///< requests received (request lines and submit() calls)
  std::uint64_t submitted = 0;  ///< admitted into the fleet/service
  std::uint64_t responded = 0;  ///< terminal outcomes delivered
  std::uint64_t bad_lines = 0;  ///< TCP lines rejected (parse/unknown model)
  std::uint64_t repaired_plans = 0;         ///< plans served off a delta-repaired cache
  std::uint64_t cold_replans = 0;           ///< cost models built from scratch
  std::uint64_t partial_repriced_rows = 0;  ///< DP rows rebuilt by per-node repricing
  std::uint64_t open_connections = 0;       ///< TCP connections accepted and not yet closed
};

class Gateway {
 public:
  /// Protocol model names -> graphs. The graphs must outlive the gateway.
  using ModelRegistry = std::map<std::string, const dnn::DnnGraph*>;
  using Options = GatewayOptions;

  /// Longest request line a connection may send (newline excluded). A
  /// longer line, complete or still partial, is answered with an "error"
  /// event and closes its connection, which bounds each connection's
  /// input buffer.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Gateway over a fleet. With planner_workers > 0, `planner_factory`
  /// builds one strategy per pool worker and every shard plans through the
  /// pool. The fleet's ArrivalProcess slot is taken by the gateway's
  /// terminal tap.
  Gateway(ServiceFleet& fleet, ModelRegistry models, Options options = Options(),
          PlannerPool::StrategyFactory planner_factory = nullptr);
  /// Gateway over a single service (no fleet).
  Gateway(InferenceService& service, ModelRegistry models, Options options = Options(),
          PlannerPool::StrategyFactory planner_factory = nullptr);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Binds the TCP listener, installs the WallClock and starts the driver
  /// thread, which runs the simulator and serves every socket; no other
  /// thread is started (planner-pool workers start with the gateway).
  /// Throws std::runtime_error on socket failures. The simulator must not
  /// be running elsewhere.
  void start();

  /// Graceful shutdown: stops accepting, drains every in-flight request to
  /// its terminal outcome (responses are still delivered), then joins the
  /// driver, closes every socket and restores the simulator's
  /// VirtualClock. Idempotent.
  void stop();

  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (resolves Options::port == 0). Valid after start().
  std::uint16_t port() const noexcept { return port_; }

  /// Thread-safe programmatic submission: queues the request and wakes the
  /// driver. `on_done` fires exactly once, on the driver thread, with the
  /// terminal record. Throws std::invalid_argument on a null model.
  void submit(const GatewayRequest& request,
              std::function<void(const RequestRecord&)> on_done);

  /// Registry lookup (nullptr when unknown). Safe from any thread — the
  /// registry is immutable after construction.
  const dnn::DnnGraph* find_model(const std::string& name) const;

  GatewayStats stats() const;

  sim::WallClock& wall_clock() noexcept { return clock_; }
  PlannerPool* planner_pool() noexcept { return pool_.get(); }

 private:
  struct Submission {
    GatewayRequest request;
    std::function<void(const RequestRecord&)> on_done;
  };
  /// Terminal-outcome tap installed as the fleet/service ArrivalProcess:
  /// issues nothing, routes every terminal record back to the gateway.
  struct TerminalTap final : ArrivalProcess {
    explicit TerminalTap(Gateway* gateway) : gateway(gateway) {}
    std::optional<RequestSpec> next(double now_s) override;
    void on_complete(const RequestRecord& record, double now_s) override;
    Gateway* gateway;
  };
  /// One accepted TCP connection, driver-thread-only. Terminal callbacks
  /// hold it by shared_ptr: a response due after the connection closed
  /// finds fd == -1 and is dropped.
  struct Connection {
    int fd = -1;
    std::string buffer;  ///< received bytes after the last complete line
  };

  void init(PlannerPool::StrategyFactory planner_factory);
  Cluster& cluster();
  void driver_loop();
  /// The simulator's external-work source: drains submissions and planner
  /// results; false (stop the loop) once stopping and fully drained.
  bool pump();
  void admit(Submission&& submission);
  void on_terminal(const RequestRecord& record);
  /// Sweeps requests parked forever (dead shard, no repair coming) into
  /// terminal failures so a draining stop() cannot hang on them.
  void finalize_stranded();

  void listen_tcp();
  /// Accepts and reads whatever the clock's last poll found ready, then
  /// drops closed connections from the poll set. No syscall unless a
  /// socket was ready.
  void serve_sockets();
  void accept_connections();
  void read_connection(const std::shared_ptr<Connection>& connection);
  void handle_line(const std::shared_ptr<Connection>& connection, const std::string& line);
  void write_line(Connection& connection, const std::string& line);
  void close_connection(Connection& connection);

  ServiceFleet* fleet_ = nullptr;        ///< exactly one of fleet_ /
  InferenceService* service_ = nullptr;  ///< service_ is set
  ModelRegistry models_;
  Options options_;
  TerminalTap tap_;
  sim::WallClock clock_;
  std::unique_ptr<PlannerPool> pool_;

  util::MpscQueue<Submission> submissions_;
  /// Driver-thread-only: terminal callbacks by request id.
  std::map<int, std::function<void(const RequestRecord&)>> callbacks_;
  int next_id_ = 1;  ///< driver-thread-only

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread driver_;
  /// The clock's poll set: [0] the listen socket (fd -1 once stopping),
  /// then one entry per connections_ element, in order. Driver-thread-only
  /// while running.
  std::vector<pollfd> poll_set_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> responded_{0};
  std::atomic<std::uint64_t> bad_lines_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  // Fleet/service planner counters are driver-thread-only; pump() mirrors
  // them into these atomics so stats() and the TCP stats line can read them
  // from any thread. The planner pool keeps its own thread-safe counters,
  // summed in at read time.
  std::atomic<std::uint64_t> repaired_plans_{0};
  std::atomic<std::uint64_t> cold_replans_{0};
  std::atomic<std::uint64_t> partial_repriced_rows_{0};
};

/// Blocking line-protocol TCP client (tests and the example): connects to
/// 127.0.0.1, sends newline-terminated request lines, reads newline-
/// delimited responses with a timeout. Single-threaded use per instance.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connect(std::uint16_t port);
  bool send_line(const std::string& line);  ///< appends the newline
  /// Next response line (without the newline), or nullopt on timeout/EOF.
  std::optional<std::string> read_line(double timeout_s = 5.0);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace hidp::runtime
